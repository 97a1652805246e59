import json
import random
from fractions import Fraction

import pytest

from qtl.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonClassicalCoherence,
    NotDeterministic,
    NoExitLocation,
    PreconditionViolated,
    SelectorExplosion,
)
import qtl.program as program
from qtl import jsonio
from qtl.linalg import CRat, Mat, kron
from qtl.subspace import Subspace
from qtl.superop import Measurement, SuperOp, _Stack
from qtl.program import (
    CQState,
    ConcurrentProcess,
    ConcurrentProgram,
    LocationAction,
    SequentialProgram,
    embed,
    extract,
    initial_cq,
    selector_successors,
    simulate_deterministic,
    step_superop,
    successors,
    to_automaton,
)
from qtl.qwhile import compile_source
from qtl.checker import check_terminates

from helpers import (
    EXAMPLE_LOOP_SRC,
    KET_MINUS_DENSITY,
    PAULI_X,
    random_concurrent_program,
    random_deterministic_program,
    random_qwhile_source,
    random_subspace,
    with_second_target,
)


@pytest.fixture(scope="module")
def example_loop():
    return compile_source(EXAMPLE_LOOP_SRC)


HALF = CRat(Fraction(1, 2))
KET0 = Mat.from_rows([[1, 0], [0, 0]])
KET1 = Mat.from_rows([[0, 0], [0, 1]])


class TestSuccessors:
    def test_measure_hadamard_loop_trajectory(self, example_loop):
        # sigma_1 = |-><-| at the guard; one step gives the split state,
        # another returns half the mass to the guard as |-><-| again
        sigma1 = CQState(2, {"l2": KET_MINUS_DENSITY})
        (sigma2,) = successors(example_loop, sigma1)
        assert sigma2 == CQState(2, {"l4": KET0 * HALF, "l3": KET1 * HALF})
        (sigma3,) = successors(example_loop, sigma2)
        assert sigma3 == CQState(2, {"l4": KET0 * HALF, "l2": KET_MINUS_DENSITY * HALF})

    def test_selector_count(self):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a",)}),
            "b": LocationAction(SuperOp.identity(2), meas, {0: ("b",), 1: ("b",)}),
        }
        prog = SequentialProgram(2, ("a", "b"), act, KET_MINUS_DENSITY, "a")
        succ = successors(prog, initial_cq(prog))
        assert len(succ) == 2

    def test_trace_preserved_and_psd(self):
        rng = random.Random(0)
        for _ in range(10):
            prog = random_deterministic_program(rng, 2, 3)
            state = initial_cq(prog)
            for _ in range(4):
                (state,) = successors(prog, state)
                assert sum(state.trace_of(c) for c in prog.locations) == 1
                revalidated = CQState(2, dict(state.blocks))  # validates PSD blocks
                assert revalidated == state


class TestStepSuperop:
    def test_matches_block_trajectory(self, example_loop):
        e = step_superop(example_loop)
        sigma0 = embed(initial_cq(example_loop), example_loop)
        state = sigma0
        trajectory = simulate_deterministic(example_loop, 4)
        for k in range(1, 5):
            state = e.apply(state)
            assert state == embed(trajectory[k], example_loop)

    def test_exit_trace_sequence(self, example_loop):
        trajectory = simulate_deterministic(example_loop, 5)
        traces = [s.trace_of("l4") for s in trajectory]
        assert traces == [0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)]
        assert all(a <= b for a, b in zip(traces, traces[1:]))

    def test_one_location_identity_program(self):
        act = {
            "only": LocationAction(
                SuperOp.identity(2), Measurement.trivial(2), {0: ("only",)}
            )
        }
        prog = SequentialProgram(2, ("only",), act, KET_MINUS_DENSITY, "only")
        assert step_superop(prog).matrix_rep() == Mat.eye(4)

    def test_successors_agree_with_step_channel(self):
        rng = random.Random(1)
        for _ in range(100):
            dim = rng.choice([2, 3])
            prog = random_deterministic_program(rng, dim, rng.randint(1, 3))
            e = step_superop(prog)
            state = initial_cq(prog)
            for _ in range(2):
                (nxt,) = successors(prog, state)
                assert e.apply(embed(state, prog)) == embed(nxt, prog)
                state = nxt

    def test_step_channel_is_trace_preserving_exactly(self):
        rng = random.Random(2)
        prog = random_deterministic_program(rng, 2, 3)
        assert step_superop(prog).is_trace_preserving()

    def test_exit_monotonicity_along_trajectories(self):
        rng = random.Random(3)
        for _ in range(5):
            prog = random_deterministic_program(rng, 2, 3)
            trajectory = simulate_deterministic(prog, 64)
            traces = [s.trace_of("exit") for s in trajectory]
            assert all(a <= b for a, b in zip(traces, traces[1:]))

    def test_nondeterministic_rejected(self):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a",)}),
            "b": LocationAction(SuperOp.identity(2), meas, {0: ("b",), 1: ("b",)}),
        }
        prog = SequentialProgram(2, ("a", "b"), act, KET_MINUS_DENSITY, "a")
        with pytest.raises(NotDeterministic):
            step_superop(prog)


class TestEmbedding:
    def test_roundtrip(self, example_loop):
        state = CQState(2, {"l4": KET0 * HALF, "l3": KET1 * HALF})
        assert extract(embed(state, example_loop), example_loop) == state

    def test_block_placement(self, example_loop):
        rho = Mat.from_rows([[1, 0], [0, 0]])
        state = CQState(2, {"l1": rho})
        emb = embed(state, example_loop)
        assert emb == kron(rho, Mat.unit(4, 0, 0))

    def test_cross_block_coherence_rejected(self, example_loop):
        bad = kron(KET0, Mat.unit(4, 1, 2))
        with pytest.raises(NonClassicalCoherence):
            extract(Mat.eye(8) * CRat(Fraction(1, 8)) + bad - bad.dagger() @ bad, example_loop)


class TestToAutomaton:
    def test_deterministic_single_action(self, example_loop):
        aut = to_automaton(example_loop)
        assert len(aut.actions) == 1
        (action,) = aut.actions.values()
        assert action.matrix_rep() == step_superop(example_loop).matrix_rep()

    def test_two_binary_choices_give_four_actions(self):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a", "b")}),
            "b": LocationAction(SuperOp.identity(2), meas, {0: ("b",), 1: ("b",)}),
        }
        prog = SequentialProgram(2, ("a", "b"), act, KET_MINUS_DENSITY, "a")
        aut = to_automaton(prog)
        assert len(aut.actions) == 4
        for action in aut.actions.values():
            assert action.is_trace_preserving()

    def test_action_count_matches_product(self):
        rng = random.Random(4)
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        labels = ("a", "b", "c")
        act = {}
        expected = 1
        for loc in labels:
            nxt = {}
            for j in range(2):
                k = rng.randint(1, 2)
                nxt[j] = tuple(rng.sample(labels, k))
                expected *= k
            act[loc] = LocationAction(SuperOp.identity(2), meas, nxt)
        prog = SequentialProgram(2, labels, act, KET_MINUS_DENSITY, "a")
        assert len(to_automaton(prog).actions) == expected

    def test_selector_cap(self, monkeypatch):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a", "b")}),
            "b": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a", "b")}),
        }
        prog = SequentialProgram(2, ("a", "b"), act, KET_MINUS_DENSITY, "a")
        monkeypatch.setattr("qtl.program.DEFAULT_SELECTOR_CAP", 3)
        with pytest.raises(SelectorExplosion):
            to_automaton(prog)


class TestTermination:
    def test_example_loop_is_almost_candidate(self, example_loop):
        from qtl.checker import reachability_superop

        result = check_terminates(example_loop)
        assert (result.kind, result.step) == ("almost_candidate", None)
        # no exact exit, yet all the mass reaches the exit in the limit
        assert simulate_deterministic(example_loop, 64)[-1].trace_of("l4") < 1
        assert reachability_superop(example_loop).reach_state.trace() == 1

    def test_instant_exit(self):
        prog = compile_source("qubits 1;\nskip")
        result = check_terminates(prog)
        assert result.kind == "terminates" and result.step == 1

    def test_program_starting_at_its_exit(self):
        from qtl.checker import check_exit_eventually, reachability_superop
        from qtl.subspace import Subspace

        act = {
            "a": LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: ("e",)}),
            "e": LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: ("e",)}),
        }
        prog = SequentialProgram(2, ("a", "e"), act, KET_MINUS_DENSITY, "e", "e")
        result = check_terminates(prog)
        assert result.kind == "terminates" and result.step == 0
        assert reachability_superop(prog).reach_state.trace() == 1
        # reachability and <> agree on step 0
        assert reachability_superop(prog).expected_steps == 0.0
        assert check_exit_eventually(prog, Subspace.full(2)).diagnostics["step"] == 0

    def test_measure_to_exit_program(self):
        src = """qubits 1;
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1, 0], [0, 0]];
while meas M(q0) == 1 { skip }
"""
        prog = compile_source(src)
        result = check_terminates(prog)
        assert result.kind == "terminates" and result.step == 1

    def test_never_reaching_exit(self):
        # the loop never measures outcome 0, so no mass ever exits
        src = """qubits 1;
unitary X = [[0, 1], [1, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[0, 0], [0, 1]];
while meas M(q0) == 1 { apply X to q0; apply X to q0 }
"""
        prog = compile_source(src)
        assert check_terminates(prog).kind == "no"

    def test_requires_exit_location(self):
        act = {
            "only": LocationAction(
                SuperOp.identity(2), Measurement.trivial(2), {0: ("only",)}
            )
        }
        prog = SequentialProgram(2, ("only",), act, KET_MINUS_DENSITY, "only")
        with pytest.raises(NoExitLocation):
            check_terminates(prog)


class TestConcurrent:
    def _two_process_program(self, deterministic=True):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        x_conj = SuperOp.from_unitary(PAULI_X)
        # process 1 applies X and hands control to process 2 and back
        p1 = ConcurrentProcess(
            ("p", "q"),
            {
                "p": LocationAction(x_conj, meas, {0: (("q", 2),), 1: (("q", 2),)}),
                "q": LocationAction(SuperOp.identity(2), meas, {0: (("q", 2),), 1: (("q", 2),)}),
            },
        )
        targets0 = (("s", 1),) if deterministic else (("s", 1), ("t", 2))
        p2 = ConcurrentProcess(
            ("s", "t"),
            {
                "s": LocationAction(SuperOp.identity(2), meas, {0: targets0, 1: (("t", 1),)}),
                "t": LocationAction(SuperOp.identity(2), meas, {0: (("t", 2),), 1: (("t", 2),)}),
            },
        )
        return ConcurrentProgram(
            dim=2,
            processes=(p1, p2),
            initial_state=Mat.from_rows([[1, 0], [0, 0]]),
            initial_locations=("p", "s"),
            initial_scheduler=1,
        )

    def test_deterministic_step(self):
        prog = self._two_process_program()
        state = initial_cq(prog)
        (nxt,) = successors(prog, state)
        # X flipped the data and process 1 moved p -> q, scheduler -> 2
        assert nxt == CQState(2, {(("q", "s"), 2): Mat.from_rows([[0, 0], [0, 1]])})

    def test_embedded_dimension(self):
        prog = self._two_process_program()
        aut = to_automaton(prog)
        assert aut.dim == 2 * 2 * 2 * 2  # data x |L1| x |L2| x schedulers
        for action in aut.actions.values():
            assert action.is_trace_preserving()

    def test_nondeterministic_branching(self):
        prog = self._two_process_program(deterministic=False)
        assert not prog.deterministic
        aut = to_automaton(prog)
        assert len(aut.actions) == 2

    def test_concurrent_embed_roundtrip(self):
        prog = self._two_process_program()
        state = initial_cq(prog)
        for _ in range(3):
            (state,) = successors(prog, state)
        assert extract(embed(state, prog), prog) == state


class TestOwnOutcomes:
    """Each location's measurement keeps its own outcomes, and ``next``
    names targets for exactly those outcomes."""

    def _act(self, meas, nxt):
        return LocationAction(SuperOp.identity(2), meas, nxt)

    def test_exit_may_measure_any_number_of_zero_outcomes(self):
        act = {
            "a": self._act(Measurement.trivial(2), {0: ("e",)}),
            "e": self._act(Measurement.trivial(2, 3), {j: ("e",) for j in range(3)}),
        }
        prog = SequentialProgram(2, ("a", "e"), act, KET0, "a", "e")
        assert len(prog.act["a"].measurement) == 1 and len(prog.act["e"].measurement) == 3
        act["e"] = self._act(Measurement.trivial(2, 2), {0: ("e",), 1: ("a",)})
        with pytest.raises(PreconditionViolated, match="loop to itself"):
            SequentialProgram(2, ("a", "e"), act, KET0, "a", "e")

    def test_exit_measurement_must_be_trivial(self):
        # read on the measurement's stack, built from Mats or from a file's
        # literals: {I, 0, ...} passes, over any denominator, and a
        # complete measurement that is not it is refused
        z = Mat.from_rows([[1, 0], [0, -1]])
        refused = [
            Measurement([KET0, KET1]),
            Measurement([KET1, KET0]),
            Measurement([z]),
            Measurement([Mat.eye(2) * CRat(0, 1)]),
            Measurement.read(json.loads('[[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]]')),
        ]
        over_3_and_5 = json.loads('[[["3/3", "0"], ["0", "3/3"]], [["0/5", "0/5"], ["0/5", "0/5"]]]')
        accepted = [Measurement.trivial(2, 2), Measurement.read(over_3_and_5)]
        for meas in refused + accepted:
            act = {
                "a": self._act(Measurement.trivial(2), {0: ("e",)}),
                "e": self._act(meas, {j: ("e",) for j in range(len(meas))}),
            }
            if meas in accepted:
                assert SequentialProgram(2, ("a", "e"), act, KET0, "a", "e").exit_location == "e"
            else:
                with pytest.raises(PreconditionViolated, match="exit measurement must be"):
                    SequentialProgram(2, ("a", "e"), act, KET0, "a", "e")

    def test_process_measurement_of_wrong_dimension_is_rejected(self):
        meas = Measurement([Mat.eye(3)])
        p = ConcurrentProcess(("p",), {"p": self._act(meas, {0: (("p", 1),)})})
        with pytest.raises(DimensionMismatch, match="measurement at location p of process 1"):
            ConcurrentProgram(2, (p,), KET0, ("p",), 1)

    def test_process_outcome_without_targets_is_rejected(self):
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        p = ConcurrentProcess(("p",), {"p": self._act(meas, {0: (("p", 1),)})})
        with pytest.raises(PreconditionViolated, match=r"next\(1, location p of process 1\)"):
            ConcurrentProgram(2, (p,), KET0, ("p",), 1)

    @staticmethod
    def _padded(prog):
        """prog with every measurement padded by zero operators up to one
        more than the largest outcome count, each padded outcome looping on
        its location."""
        n = max(len(a.measurement) for a in prog.act.values()) + 1
        act = {}
        for loc, a in prog.act.items():
            ops = list(a.measurement.operators)
            nxt = dict(a.next)
            for j in range(len(ops), n):
                ops.append(Mat.zeros(prog.dim))
                nxt[j] = (loc,)
            act[loc] = LocationAction(a.channel, Measurement(ops, validate=False), nxt)
        return SequentialProgram(
            prog.dim, prog.locations, act, prog.initial_state, prog.initial_location, prog.exit_location
        )

    @staticmethod
    def _programs(rng):
        for _ in range(6):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3))
            yield prog
            yield with_second_target(rng, prog)
        for _ in range(6):
            yield compile_source(random_qwhile_source(rng, max_loops=1, max_len=2, max_locations=6))

    def test_padding_changes_no_result(self):
        # the zero operators of a padded measurement carry no mass: the
        # actions, the step channel, the successors and every verdict are
        # those of the program that keeps its own outcomes
        from qtl.checker import check
        from qtl.formula import atom_from_blocks, parse_formula
        from qtl.jsonio import verdict_to_json

        rng = random.Random(2424)
        for prog in self._programs(rng):
            padded = self._padded(prog)
            a, b = to_automaton(prog), to_automaton(padded)
            assert list(a.actions) == list(b.actions)
            assert all(list(a.actions[name].kraus) == list(b.actions[name].kraus) for name in a.actions)
            assert a.initial_state == b.initial_state
            if prog.deterministic:
                assert list(step_superop(prog).kraus) == list(step_superop(padded).kraus)
            state = initial_cq(prog)
            for _ in range(3):
                succ = selector_successors(prog, state)
                assert succ == selector_successors(padded, state)
                state = succ[-1]
            exit_sub = random_subspace(rng, prog.dim, real=True)
            blocks = {loc: Subspace.full(prog.dim) for loc in prog.locations}
            blocks[prog.exit_location] = exit_sub
            atoms = {
                "p": atom_from_blocks("p", blocks, prog),
                "q": atom_from_blocks("q", {prog.exit_location: exit_sub}, prog),
            }
            for text in ("[] p", "<> q", "<>~ q", "<>[] p", "[]<> q", "[] (p U q)"):
                formula = parse_formula(text, atoms)
                assert verdict_to_json(check(prog, formula, atoms)) == verdict_to_json(check(padded, formula, atoms))


class TestOutcomeChannels:
    """``outcome_channels`` multiplies the Kraus stacks of M_j and of the
    channel: outcome for outcome, the Kraus Mats M_j K in order, and the
    stack read off them, as the Mat products give them."""

    @staticmethod
    def _complex_program():
        """Two locations with complex rational channels and measurements:
        a mixture of a complex unitary and X, and the projectors on
        (1, i) and (1, -i)."""
        u = Mat.from_rows([["3/5", [0, "4/5"]], [[0, "4/5"], "3/5"]])
        channel = SuperOp([u * CRat(Fraction(3, 5)), PAULI_X * CRat(Fraction(4, 5))])
        plus_i = Mat.from_rows([["1/2", [0, "-1/2"]], [[0, "1/2"], "1/2"]])
        meas = Measurement([plus_i, Mat.eye(2) - plus_i])
        act = {
            "a": LocationAction(channel, meas, {0: ("a",), 1: ("e",)}),
            "e": LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: ("e",)}),
        }
        return SequentialProgram(2, ("a", "e"), act, KET0, "a", "e")

    @staticmethod
    def _programs(rng):
        for _ in range(6):
            yield random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3))
            yield random_concurrent_program(rng, rng.choice([2, 3]), rng.randint(1, 2))
            yield compile_source(random_qwhile_source(rng, max_loops=1, max_len=2, max_locations=6))
        yield TestOutcomeChannels._complex_program()

    @staticmethod
    def _mat_products(prog, config):
        a = prog._action(config)
        ops = a.measurement.operators
        return [(j, [m @ k for k in a.channel.kraus]) for j, m in enumerate(ops) if not m.is_zero()]

    def test_stacks_equal_the_mat_products(self):
        rng = random.Random(4502)
        complex_entries = 0
        for prog in self._programs(rng):
            # as built, and as read from a file (stacks from integer rows)
            read = jsonio.program_from_json(json.loads(jsonio.dumps(jsonio.program_to_json(prog))))
            for p in (prog, read):
                for c in p.configs():
                    got, want = program.outcome_channels(p, c), self._mat_products(p, c)
                    assert [j for j, _ in got] == [j for j, _ in want]
                    for (_, e), (_, kraus) in zip(got, want):
                        st, ref = e._stack, _Stack.of(kraus)
                        assert (st.den, st.real, st.n_ops) == (ref.den, ref.real, ref.n_ops)
                        assert list(e.kraus) == kraus
                        complex_entries += not st.real
        assert complex_entries > 0

    def test_outcome_with_only_zero_products_is_listed(self):
        # M_1 = |1><1| is nonzero, but the reset maps everything to |0>, so
        # both of its products are zero: outcome 1 keeps two zero operators
        reset = SuperOp([Mat.unit(2, 0, 0), Mat.unit(2, 0, 1)])
        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        prog = SequentialProgram(2, ("a",), {"a": LocationAction(reset, meas, {0: ("a",), 1: ("a",)})}, KET0, "a")
        (j0, e0), (j1, e1) = program.outcome_channels(prog, "a")
        assert (j0, j1) == (0, 1)
        assert e0.kraus == (Mat.unit(2, 0, 0), Mat.unit(2, 0, 1))
        assert e1.kraus == (Mat.zeros(2), Mat.zeros(2))
        assert e1._stack.terms == [[], []] and e1._stack.den == 1


class TestGridGuard:
    """step_superop and to_automaton refuse a program whose Kraus
    operators, formed as dense grids, would hold more than
    ``program._GRID_ENTRIES_MAX`` entries, before they place any operator
    (``SuperOp.placed``)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_limit_counts_every_grid(self, seed, monkeypatch):
        # the concurrent programs have two or more selectors, each placing
        # its own operators
        rng = random.Random(40 + seed)
        progs = [random_concurrent_program(rng, 2, 2), random_deterministic_program(rng, 2, rng.randint(2, 4))]
        assert len(to_automaton(progs[0]).actions) >= 2
        for prog in progs:
            a = to_automaton(prog)
            assert (len(a.actions) > 1) == (not prog.deterministic)
            entries = sum(len(e.kraus) for e in a.actions.values()) * a.dim**2
            placed, exact = [], SuperOp.placed
            monkeypatch.setattr(SuperOp, "placed", staticmethod(lambda dim, blocks: placed.append(dim) or exact(dim, blocks)))
            monkeypatch.setattr(program, "_GRID_ENTRIES_MAX", entries)
            assert to_automaton(prog).actions.keys() == a.actions.keys()
            assert placed == [a.dim] * len(a.actions)
            placed.clear()
            monkeypatch.setattr(program, "_GRID_ENTRIES_MAX", entries - 1)
            with pytest.raises(BudgetExceeded, match=f"\\({entries} entries\\)"):
                to_automaton(prog)
            if prog.deterministic:
                with pytest.raises(BudgetExceeded, match=f"\\({entries} entries\\)"):
                    step_superop(prog)
            assert placed == []
            monkeypatch.undo()
