import collections
import functools
import importlib.util
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from qtl.errors import BudgetExceeded, DimensionMismatch, PreconditionViolated, QtlError, UnsupportedFormula
from qtl.linalg import CRat, Mat, kron, mat_sum, rank, solve
from qtl.subspace import Subspace, SubspaceUnion, satisfies, support
from qtl.superop import MatrixRep, Measurement, SuperOp, image, least_fixpoint, unvec, vec
from qtl.program import (
    CQState,
    LocationAction,
    QuantumAutomaton,
    SequentialProgram,
    embed,
    initial_cq,
    simulate_deterministic,
    step_superop,
    to_automaton,
)
from qtl.qwhile import bohm_jacopini, compile_source
from qtl.checker import (
    ExitVerdicts,
    _classify,
    check,
    check_always_almost_until,
    check_always_eventually,
    check_always_until,
    check_eventually_always,
    check_exit_almost_eventually,
    check_exit_always,
    check_exit_eventually,
    check_exit_formulas,
    check_invariance,
    check_next,
    check_terminates,
    exit_atom_subspace,
    find_cycle,
    hoare_check,
    kleene_always,
    limit_states,
    maximal_extension,
    maximal_invariant,
    oracle_bfs,
    partial_correctness_subspace,
    reachability_superop,
    replay_word,
)
from qtl.formula import Always, Atom, Eventually, FAtom, Or, Until, atom_from_blocks, parse_formula
import qtl.checker as checker
import qtl.superop as superop
from qtl import jsonio
from qtl.cli import main as cli_main

from helpers import (
    EXAMPLE_LOOP_SRC,
    FOUR_QUBIT_LOOP_SRC,
    NEVER_EXITS_SRC,
    PARTIALLY_TRAPPED_SRC,
    PAULI_X,
    SHAPE_EXAMPLES,
    THREE_QUBIT_LOOP_SRC,
    TWO_QUBIT_LOOP_SRC,
    UNREACHED_TRAP_SRC,
    UNSUPPORTED_FORMULAS,
    ToleranceAmbiguity,
    float_peripheral_split,
    invariance_by_mixing,
    kleene_always_by_average,
    leaky_cycle_automaton,
    p2_refine_by_joins,
    random_automaton,
    random_density,
    random_deterministic_program,
    random_matrix,
    random_phase_permutation,
    random_pure_state,
    random_subspace,
    random_tp_channel,
    random_union,
    random_vector,
    basis_union,
    block_space_cut,
    block_vector,
    random_qwhile_source,
    random_rational_rotation,
    rotation_loop_src,
    rotation_loop_with_minus_trap_src,
    rotation_loop_with_unreached_trap_src,
    normal_form_exit_series,
    simulated_exit_answers,
    span,
    terminating_programs,
    union,
)

KET0 = Mat.from_rows([[1, 0], [0, 0]])
KET1 = Mat.from_rows([[0, 0], [0, 1]])
X_CONJ = SuperOp.from_unitary(PAULI_X)
ROTATION = SuperOp.from_unitary(
    Mat.from_rows([["3/5", "4/5"], ["-4/5", "3/5"]])
)


@pytest.fixture(scope="module")
def x_automaton():
    return QuantumAutomaton(2, {"x": X_CONJ}, KET0)


@pytest.fixture(scope="module")
def example_loop():
    return compile_source(EXAMPLE_LOOP_SRC)


class TestNext:
    def test_identity_keeps_satisfaction(self):
        aut = QuantumAutomaton(2, {"id": SuperOp.identity(2)}, KET0)
        assert check_next(aut, union(span((1, 0)))).is_valid

    def test_x_gate_refutes(self, x_automaton):
        v = check_next(x_automaton, union(span((1, 0))))
        assert v.status == "not_valid" and v.witness["action"] == "x"

    def test_full_space_always_valid(self, x_automaton):
        assert check_next(x_automaton, SubspaceUnion.full(2)).is_valid

    def test_successors_without_applying_a_channel(self, monkeypatch):
        # a successor's support is the Kraus image of the initial support,
        # so `check` applies no channel to the initial state; the verdicts
        # agree with the oracle, on mixed and on pure initial states
        rng = random.Random(12)
        cases = []
        for _ in range(24):
            aut = random_automaton(rng, rng.randint(2, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                v = random_vector(rng, aut.dim)
                aut = QuantumAutomaton(aut.dim, aut.actions, (v @ v.dagger()) * CRat(1 / (v.dagger() @ v).trace().re))
            atoms = {name: Atom(name, random_subspace(rng, aut.dim)) for name in ("p", "q")}
            formula = parse_formula(rng.choice(["X p", "X (p || q)"]), atoms)
            cases.append((aut, formula, atoms, oracle_bfs(aut, formula, atoms, depth=1).status))

        def forbidden(self, rho):
            raise AssertionError("X f applied a channel")

        monkeypatch.setattr(SuperOp, "apply", forbidden)
        statuses = set()
        for aut, formula, atoms, oracle in cases:
            v = check(aut, formula, atoms)
            assert v.status == {"holds": "valid", "fails": "not_valid"}[oracle]
            if v.status == "not_valid":
                assert v.witness == {"action": v.witness["action"], "word": [v.witness["action"]], "step": 1}
            statuses.add(v.status)
        assert statuses == {"valid", "not_valid"}


class TestInvariance:
    def test_example_loop_partial_atom(self, example_loop):
        aut = to_automaton(example_loop)
        p = partial_correctness_subspace(example_loop, span((1, 0)))
        v = check_invariance(aut, p)
        assert v.is_valid
        assert v.certificate is not None

    def test_x_gate_single_line_refuted(self, x_automaton):
        v = check_invariance(x_automaton, union(span((1, 0))))
        assert v.status == "not_valid"
        assert v.witness["word"] == ["x"]
        # the witness replays to a genuine violation
        states = replay_word(x_automaton, v.witness["word"])
        assert not satisfies(states[-1], span((1, 0)))

    def test_x_gate_union_valid(self, x_automaton):
        v = check_invariance(x_automaton, union(span((1, 0)), span((0, 1))))
        assert v.is_valid

    def test_certificate_is_fixpoint(self, x_automaton):
        u = union(span((1, 0)), span((0, 1)))
        v = check_invariance(x_automaton, u)
        psi = v.certificate
        rep = MatrixRep(X_CONJ.matrix_rep())
        assert psi.meet(SubspaceUnion(2, [rep.preimage(m) for m in psi.members])) == psi
        assert psi.contains_subspace(support(x_automaton.initial_state, validate=False))

    def test_escaping_root_expands_no_support(self, monkeypatch, x_automaton):
        def no_image(*args, **kwargs):
            raise AssertionError("image taken for an escaping root")

        monkeypatch.setattr(checker, "image", no_image)
        for f in (union(span((0, 1))), union(span((0, 1)), span((1, 1)))):
            for v in (check_invariance(x_automaton, f), check_always_until(x_automaton, f, f)):
                assert v.status == "not_valid"
                assert v.witness == {"word": [], "step": 0, "support_dim": 1}

    def test_witness_is_the_support_graph_escape(self):
        # the chain that stops at the first escape gives the witness of the
        # whole graph's shallowest escape, at the root or deeper
        rng = random.Random(1603)
        steps = []
        for _ in range(60):
            dim = rng.choice([2, 3])
            aut = random_automaton(rng, dim, rng.randint(1, 3), finite_order=rng.random() < 0.5)
            if rng.random() < 0.5:  # a basis state, whose support often stays inside u
                k = rng.randrange(dim)
                aut = QuantumAutomaton(dim, aut.actions, Mat.unit(dim, k, k))
            u = basis_union(rng, dim) if rng.random() < 0.5 else random_union(rng, dim)
            v = checker._invariance_by_chain(aut, u)
            if v.status != "not_valid":
                continue
            graph = checker._SupportGraph(aut, v.diagnostics["chain_depth"] + dim, 200000)
            i = graph.escape(u)
            assert v.witness == {"word": graph.word_to(i), "step": graph.depth[i], "support_dim": graph.nodes[i].dim}
            steps.append(graph.depth[i])
        assert 0 in steps and any(steps)

    def test_mixing_shortcut_agrees(self):
        rng = random.Random(0)
        for _ in range(20):
            aut = random_automaton(rng, 2, rng.randint(1, 3))
            p = span((1, 0)) if rng.random() < 0.5 else span((1, 1))
            chain = check_invariance(aut, union(p))
            mixed = invariance_by_mixing(aut, p)
            assert chain.status == mixed.status


class TestMaximalInvariant:
    def test_swap_union_is_fixed(self, x_automaton):
        u = union(span((1, 0)), span((0, 1)))
        assert maximal_invariant(x_automaton, u) == u

    def test_single_line_collapses(self, x_automaton):
        assert maximal_invariant(x_automaton, union(span((1, 0)))).is_zero()

    def test_full_space_fixed(self, x_automaton):
        assert maximal_invariant(x_automaton, SubspaceUnion.full(2)) == SubspaceUnion.full(2)


class TestMaximalExtension:
    def test_zero_and_full(self, x_automaton):
        assert maximal_extension(x_automaton, SubspaceUnion.zero(2)).is_zero()
        assert maximal_extension(x_automaton, SubspaceUnion.full(2)) == SubspaceUnion.full(2)

    def test_swap_union(self, x_automaton):
        u = union(span((1, 0)), span((0, 1)))
        assert maximal_extension(x_automaton, u) == u

    def test_precondition_enforced(self, x_automaton):
        with pytest.raises(PreconditionViolated):
            maximal_extension(x_automaton, union(span((1, 0))))

    def test_grows_to_preimage_closure(self):
        # the damping loop: exit line is invariant, extension picks up
        # everything that eventually falls into it
        damp = SuperOp(
            [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]])],
            validate=True,
        )
        aut = QuantumAutomaton(2, {"damp": damp}, KET1)
        ext = maximal_extension(aut, union(span((1, 0))))
        assert ext == SubspaceUnion.full(2)

    def test_chain_runs_as_long_as_the_dimension_needs(self, monkeypatch):
        # the shift |i> -> |i+1> on C^260 that stops at |259>: span(e259)
        # is invariant, and its extension grows by one basis vector a
        # round, so the chain needs 260 rounds, past the 200 of the floor
        dim = 260
        shift = Mat.from_rows([[int(r == c + 1) for c in range(dim)] for r in range(dim)])
        stop = Mat.unit(dim, dim - 1, dim - 1)
        a = QuantumAutomaton(dim, {"s": SuperOp([shift, stop])}, Mat.unit(dim, 0, 0))
        u = union(Subspace.from_vectors(dim, [[int(r == dim - 1) for r in range(dim)]]))
        rounds = []
        exact = checker._meet_of_preimages
        monkeypatch.setattr(checker, "_meet_of_preimages", lambda actions, y: rounds.append(y) or exact(actions, y))
        assert check_eventually_always(a, u).is_valid
        assert len(rounds) > checker._EXTENSION_STEPS
        assert check_always_eventually(a, u).is_valid


class TestEventuallyAlways:
    def test_x_gate_cases(self, x_automaton):
        assert check_eventually_always(x_automaton, union(span((1, 0)))).status == "not_valid"
        assert check_eventually_always(
            x_automaton, union(span((1, 0)), span((0, 1)))
        ).is_valid
        assert check_eventually_always(x_automaton, SubspaceUnion.full(2)).is_valid

    def test_certificate_resubstitution(self, x_automaton):
        v = check_eventually_always(x_automaton, union(span((1, 0)), span((0, 1))))
        psi = v.certificate
        rep = MatrixRep(X_CONJ.matrix_rep())
        assert SubspaceUnion(2, [rep.preimage(m) for m in psi.members]) == psi


def _decaying_oscillation():
    """Basis A, B, C and one action with Kraus operators |B><A| + |C><C|,
    (3/5)|A><B| and (4/5)|C><B|, from |A><A|."""
    step = SuperOp([
        Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 1]]),
        Mat.from_rows([[0, "3/5", 0], [0, 0, 0], [0, 0, 0]]),
        Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, "4/5", 0]]),
    ])
    return QuantumAutomaton(3, {"step": step}, Mat.unit(3, 0, 0))


class TestAlwaysEventually:
    def test_x_gate_returns_to_line(self, x_automaton):
        v = check_always_eventually(x_automaton, union(span((1, 0))))
        assert v.is_valid

    def test_x_gate_never_reaches_minus(self, x_automaton):
        v = check_always_eventually(x_automaton, union(span((1, -1))))
        assert v.status == "not_valid"

    def test_full_space(self, x_automaton):
        assert check_always_eventually(x_automaton, SubspaceUnion.full(2)).is_valid

    def test_irrational_rotation_unknown(self):
        aut = QuantumAutomaton(2, {"r": ROTATION}, KET0)
        v = check_always_eventually(aut, union(span((1, 0))))
        assert v.status == "unknown"
        assert "order" in v.diagnostics["reason"]

    def test_rotation_near_identity_unknown(self):
        # the rational rotation of t = 10^-9 turns by about 2e-9 per step:
        # no root of unity, though a float spectrum cannot tell its
        # eigenvalues e^(+-2i theta) from one.  Its characteristic polynomial
        # is (z - 1)^2 (z^2 - 2 cos(2 theta) z + 1), all of it on the unit
        # circle, and 2 cos(2 theta) = 4 a^2 - 2 is no integer
        n = 10**9
        a, b = Fraction(n * n - 1, n * n + 1), Fraction(2 * n, n * n + 1)
        u = SuperOp.from_unitary(Mat.from_rows([[a, -b], [b, a]]))
        v = check_always_eventually(QuantumAutomaton(2, {"u": u}, KET0), union(span((1, 0))))
        assert v.status == "unknown"
        assert v.diagnostics["reason"] == (
            "a peripheral eigenvalue is not a root of unity and has no finite order: the factor of "
            "degree 4 of the characteristic polynomial over the unit circle is not in Z[z]"
        )
        assert v.diagnostics["periods"] == []

    def test_damping_always_reaches_exit_line(self):
        damp = SuperOp(
            [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]])],
            validate=True,
        )
        aut = QuantumAutomaton(2, {"damp": damp}, KET1)
        assert check_always_eventually(aut, union(span((1, 0)))).is_valid

    @pytest.mark.xfail(strict=True, reason="the refinement takes the peripheral period b = 1, not the degeneracy index 2")
    def test_oscillation_in_decaying_eigenvalues(self):
        # basis A, B, C: the supports run {A}, {B}, {A, C}, {B, C}, {A, C},
        # ... so span{A, C} recurs.  The A-B block has the eigenvalues
        # +-3/5, whose ratio -1 has order 2, while the peripheral part has
        # period 1; the checker refutes with periods [1].  The 4-node
        # support graph would decide it, but the first graph is cut at
        # D = 3 expansions, so the loop refinement runs
        aut = _decaying_oscillation()
        atoms = {"p": Atom("p", span((1, 0, 0), (0, 0, 1)))}
        formula = parse_formula("[] <> p", atoms)
        assert oracle_bfs(aut, formula, atoms, depth=20).status == "holds"
        assert check(aut, formula, atoms).status == "valid"


class TestSpectralForm:
    """The period test and the limit states read the channels' real
    matrices in the Hermitian operator basis alone: with the complex matrix
    representation unavailable, every spectral verdict still comes out,
    and the same as with it."""

    @staticmethod
    def _answers():
        """The answers of [] <> and [] (true U f) on seeded loops, and of
        [] (true U~ q) and the limit states on single channels, built afresh
        on each call so that no channel holds a cached representation."""
        rng = random.Random(3207)
        loops = [(_block_automaton(rng, k), None) for k in (2, 3)] + [_loop_instance(rng) for _ in range(12)]
        prog = compile_source(EXAMPLE_LOOP_SRC)
        singles = [
            (X_CONJ, KET0),
            (step_superop(prog), embed(initial_cq(prog), prog)),
            (random_tp_channel(rng, 3, True), Mat.eye(3) * CRat(Fraction(1, 3))),
        ]
        recurrence, limits = [], []
        for aut, u in loops:
            u = u or union(span([int(i == 0) for i in range(aut.dim)]))
            ae = checker._always_eventually_by_fixpoints(aut, u)
            until = check_always_until(aut, SubspaceUnion.full(aut.dim), u)
            recurrence.append((ae.status, ae.diagnostics.get("periods"), until.status))
        for e, sigma0 in singles:
            d = e.dim_in
            v = check_always_almost_until(e, sigma0, Subspace.full(d), span([int(i == 0) for i in range(d)]))
            limits.append((v.status, v.diagnostics.get("limit_traces"), [tau.key() for tau in limit_states(e, sigma0)]))
        return recurrence, limits

    def test_verdicts_without_a_matrix_rep(self, monkeypatch):
        expected = self._answers()
        # loops are refined, with periods above one among them
        assert any(periods and max(periods) > 1 for _, periods, _ in expected[0])

        def forbidden(self):
            raise AssertionError("formed a complex matrix representation")

        monkeypatch.setattr(SuperOp, "matrix_rep", forbidden)
        assert self._answers() == expected


LOOPS = settings(derandomize=True, max_examples=60, deadline=None)


def _loop_instance(rng):
    """A random automaton (d = 2-3, 1-2 actions, finite order or not) and a
    target of one or two coordinate subspaces or one random subspace."""
    dim = rng.choice([2, 3])
    aut = random_automaton(rng, dim, rng.randint(1, 2), finite_order=rng.random() < 0.5)
    u = basis_union(rng, dim) if rng.random() < 0.5 else random_union(rng, dim, max_members=1)
    return aut, u


def _block_loop(rng, k):
    """A loop of k actions through the k blocks of C^2 in C^(2k): action c
    takes block c to block c + 1 (mod k) through a random channel and
    annihilates the other blocks.  Returns the actions, the blocks and the
    cycle through all of them."""
    dim, finite = 2 * k, rng.random() < 0.5
    actions = {}
    for c in range(k):
        e = random_tp_channel(rng, 2, finite_order=finite)
        actions[f"a{c}"] = SuperOp([kron(Mat.unit(k, (c + 1) % k, c), m) for m in e.kraus], validate=False)
    blocks = [Subspace.from_vectors(dim, [[int(i == 2 * c + t) for i in range(dim)] for t in (0, 1)]) for c in range(k)]
    return actions, blocks, [(c, f"a{c}", (c + 1) % k) for c in range(k)]


def _block_automaton(rng, k):
    """The loop of :func:`_block_loop` as an automaton: action c also moves
    every other block to block c, and the initial state lies in block 0."""
    actions, _, _ = _block_loop(rng, k)
    for c, (name, e) in enumerate(actions.items()):
        moves = [kron(Mat.unit(k, c, j), Mat.eye(2)) for j in range(k) if j != c]
        actions[name] = SuperOp(list(e.kraus) + moves)
    return QuantumAutomaton(2 * k, actions, kron(Mat.unit(k, 0, 0), random_density(rng, 2)))


def _refine_outcome(refine, *args):
    """The refined union's key and the period, or the exception raised."""
    try:
        refined, b = refine(*args)
    except QtlError as exc:
        return type(exc), str(exc)
    return refined.key(), b


def _exit_ok(prog):
    """The target of the loop family's [] <> exit_ok: q0 = 0 at the exit."""
    return union(atom_from_blocks("exit_ok", {prog.exit_location: span((1, 0))}, prog).subspace)


class TestLoopRefinement:
    """The refinement of [] <> f pulls subspaces back through the actions'
    duals in Kraus form and takes one least fixpoint per (rotation, target
    member, phase), where the reference in helpers.py joins the supports of
    the dense pulled-back operators term by term."""

    def test_orbit_support_is_join_of_term_supports(self):
        # the supports of prefix†((F†)^u y) of a positive y, for channels
        # with transient parts (resets, measurements), so early terms can
        # have supports that later ones lack; their join is the least
        # fixpoint of S -> supp y v F†(S) pulled back through prefix†
        rng = random.Random(1602)
        grew = partial = 0
        for _ in range(60):
            dim = rng.choice([2, 3, 4])
            f, prefix = random_tp_channel(rng, dim), random_tp_channel(rng, dim)
            f_dag, prefix_dag = f.matrix_rep().dagger(), prefix.matrix_rep().dagger()
            b = random_matrix(rng, dim, rng.randint(1, dim - 1))
            y = vec(b @ b.dagger())
            joined, w = Subspace.zero(dim), y
            for _ in range(dim * dim + 2):
                joined = joined.join(support(unvec(prefix_dag @ w, dim)))
                w = f_dag @ w
            start = support(unvec(y, dim))
            orbit = least_fixpoint(start, lambda s: image(f.dual(), s))
            assert image(prefix.dual(), orbit) == joined
            grew += orbit.dim > start.dim
            partial += start.dim < orbit.dim < dim
        # the first term's support alone is often not the answer, and the
        # chain can stop short of the whole space
        assert grew > 10 and partial > 0

    def test_products_per_call_follow_the_support_chain(self):
        # the supports S_n of the first n terms' sums of (F†)^u y grow until
        # the first n = m with S_m = S_(m+1); the fixpoint walks that chain,
        # applying F† once per element S_1 .. S_m, so m times in all (the
        # dense walk would take dim^2 + 1 products)
        rng = random.Random(1602)
        chains = []
        for _ in range(60):
            dim = rng.choice([2, 3, 4])
            f = random_tp_channel(rng, dim)
            f_dag = f.matrix_rep().dagger()
            b = random_matrix(rng, dim, rng.randint(1, dim))
            y = vec(b @ b.dagger())
            dims, total, w = [], y, y
            for _ in range(dim + 1):
                dims.append(support(unvec(total, dim)).dim)
                w = f_dag @ w
                total = total + w
            m = next(n for n in range(1, dim + 1) if dims[n - 1] == dims[n])
            steps = []

            def step(s):
                steps.append(s.dim)
                return image(f.dual(), s)

            least_fixpoint(support(unvec(y, dim)), step)
            assert steps == dims[:m]
            chains.append(m)
        assert max(chains) > 2 and sum(m == 1 for m in chains) > 10

    def test_fixpoint_follows_a_slow_chain(self):
        # F† takes |3><3| to |2><2| + |3><3|, |2><2| to |1><1| and |1><1|
        # to zero: the chain span(e3) < span(e2, e3) < span(e1, e2, e3)
        # grows twice before it stops
        kets = [Mat.column([int(i == k) for k in range(4)]) for i in range(4)]
        kraus = [kets[0] @ kets[0].dagger(), kets[2] @ kets[1].dagger(), kets[3] @ kets[2].dagger()]
        kraus.append(kets[3] @ kets[3].dagger())
        f = SuperOp(kraus)
        steps = []

        def step(s):
            steps.append(s.dim)
            return image(f.dual(), s)

        assert least_fixpoint(Subspace.from_vectors(4, kets[3:]), step) == Subspace.from_vectors(4, kets[1:])
        assert steps == [1, 2, 3]

    @LOOPS
    @given(st.integers(0, 2**32 - 1).map(random.Random))
    @example(random.Random(2513))  # the last term's support alone is not the join
    def test_krylov_sum_agrees_with_join_walk_and_oracle(self, rng):
        aut, u = _loop_instance(rng)
        v = checker._always_eventually_by_fixpoints(aut, u)
        with mock.patch.object(checker, "_p2_refine", p2_refine_by_joins):
            ref = checker._always_eventually_by_fixpoints(aut, u)
        assert v.status == ref.status
        for key in ("periods", "refinements"):
            assert v.diagnostics[key] == ref.diagnostics[key]
        assert (v.certificate is None) == (ref.certificate is None)
        if v.certificate is not None:
            assert v.certificate.key() == ref.certificate.key()
        atoms = {f"m{i}": Atom(f"m{i}", m) for i, m in enumerate(u.members)}
        target = functools.reduce(Or, [FAtom(name) for name in atoms])
        oracle = oracle_bfs(aut, Always(Eventually(target)), atoms, depth=8).status
        if v.status == "valid":
            assert oracle != "fails"
        elif v.status == "not_valid":
            assert oracle != "holds"

    def test_multi_action_loops_agree_with_the_dense_reference(self):
        # every rotation r of a k-action loop pulls back through the actions
        # in its own order; through the blocks, a wrong order lands in the
        # wrong block
        rng = random.Random(2103)
        periods = set()
        for _ in range(120):
            k = rng.choice([2, 3])
            actions, blocks, cycle = _block_loop(rng, k)
            args = (blocks, cycle, random_union(rng, 2 * k), actions)
            got = _refine_outcome(checker._p2_refine, *args)
            assert got == _refine_outcome(p2_refine_by_joins, *args)
            if isinstance(got[1], int):
                periods.add((k, got[1]))
        assert {k for k, b in periods if b >= 2} == {2, 3}

    def test_program_loops_agree_with_the_dense_reference(self, monkeypatch):
        # the loops of [] <> f on programs, whose actions move blocks
        # between configurations, against targets of random (mostly
        # non-coordinate) blocks at some locations
        exact_refine = checker._p2_refine
        compared = []

        def comparing_refine(*args):
            got = _refine_outcome(exact_refine, *args)
            assert got == _refine_outcome(p2_refine_by_joins, *args)
            compared.append(got[1])
            return exact_refine(*args)

        monkeypatch.setattr(checker, "_p2_refine", comparing_refine)
        rng = random.Random(2105)
        for _ in range(40):
            d = rng.choice([2, 3])
            prog = random_deterministic_program(rng, d, rng.randint(1, 3 if d == 2 else 2))
            locs = rng.sample(prog.locations, rng.randint(1, len(prog.locations)))
            atom = atom_from_blocks("p", {loc: random_subspace(rng, d, dim=rng.randint(1, d - 1)) for loc in locs}, prog)
            checker._always_eventually_by_fixpoints(to_automaton(prog), union(atom.subspace))
        # the period of the loop matrix is 1 on most of these, 2 on some
        assert len(compared) > 20 and 2 in compared

    def test_support_count_per_target(self, monkeypatch, example_loop):
        # no support of an operator and one least fixpoint per (rotation,
        # target member, phase), each applying the rotation's duals once per
        # strict growth of its chain and once to see it stop
        counted = []
        calls, fixpoints = [0], [0]
        exact_support, exact_fixpoint, exact_refine = checker.support, checker.least_fixpoint, checker._p2_refine

        def counting_support(*args, **kwargs):
            calls[0] += 1
            return exact_support(*args, **kwargs)

        def counting_fixpoint(start, step):
            fixpoints[0] += 1
            steps = []

            def counting_step(s):
                steps.append(s.dim)
                return step(s)

            got = exact_fixpoint(start, counting_step)
            assert len(steps) <= start.ambient_dim - start.dim + 1
            return got

        def counting_refine(members, cycle, u, actions):
            before, fixpoints[0] = calls[0], 0
            refined, b = exact_refine(members, cycle, u, actions)
            counted.append((calls[0] - before, fixpoints[0], len(cycle) * len(u.members) * b))
            return refined, b

        monkeypatch.setattr(checker, "support", counting_support)
        monkeypatch.setattr(checker, "least_fixpoint", counting_fixpoint)
        monkeypatch.setattr(checker, "_p2_refine", counting_refine)
        checker._always_eventually_by_fixpoints(to_automaton(example_loop), _exit_ok(example_loop))
        assert counted == [(0, 1, 1)]
        rng = random.Random(1401)
        for _ in range(20):
            checker._always_eventually_by_fixpoints(*_loop_instance(rng))
        assert len(counted) > 10
        assert all(n == 0 and per_target == bound for n, per_target, bound in counted)

    def test_refinement_forms_only_the_loop_matrix(self, monkeypatch, example_loop):
        # no power of a matrix representation, no dagger of a D^2-row
        # matrix and no support of an operator, and k - 1 products with a
        # left operand of D^2 columns (matrix-vector products included) per
        # refinement of a k-action loop: those of the loop matrix
        # ms[k-1] ... ms[0]
        exact_matmul, exact_dagger, exact_refine = Mat.__matmul__, Mat.dagger, checker._p2_refine
        size, products, counted = [0], [0], []

        def counting_matmul(left, right):
            products[0] += left.cols == size[0]
            return exact_matmul(left, right)

        def checked_dagger(m):
            assert m.rows != size[0], "dagger of a D^2-row matrix in the refinement"
            return exact_dagger(m)

        def no_support(*args, **kwargs):
            raise AssertionError("support called in the refinement")

        def counting_refine(members, cycle, u, actions):
            size[0], products[0] = members[0].ambient_dim**2, 0
            try:
                with mock.patch.object(checker, "support", no_support):
                    return exact_refine(members, cycle, u, actions)
            finally:
                counted.append((len(cycle), products[0]))
                size[0] = 0

        def no_power(*args):
            raise AssertionError("MatrixRep.power called")

        monkeypatch.setattr(Mat, "__matmul__", counting_matmul)
        monkeypatch.setattr(Mat, "dagger", checked_dagger)
        monkeypatch.setattr(checker, "_p2_refine", counting_refine)
        monkeypatch.setattr(MatrixRep, "power", no_power)
        checker._always_eventually_by_fixpoints(to_automaton(example_loop), _exit_ok(example_loop))
        rng = random.Random(2104)
        for _ in range(20):
            k = rng.choice([2, 3])
            check_always_eventually(_block_automaton(rng, k), union(random_subspace(rng, 2 * k)))
            actions, blocks, cycle = _block_loop(rng, k)
            _refine_outcome(checker._p2_refine, blocks, cycle, random_union(rng, 2 * k), actions)
        assert {k for k, _ in counted} == {1, 2, 3}
        assert all(n == k - 1 for k, n in counted)

    def test_one_qubit_loop_family(self, example_loop):
        # [] <> exit_ok on the measure-Hadamard loop: the exit probability
        # tends to one but never reaches it, so the support of the state
        # always keeps a part inside the loop and never lies inside
        # exit_ok; one refinement, of period 1, refutes the recurrence
        v = checker._always_eventually_by_fixpoints(to_automaton(example_loop), _exit_ok(example_loop))
        assert v.status == "not_valid"
        assert v.diagnostics == {"refinements": 1, "periods": [1], "period_bound": 64, "certificate_members": 1}
        assert v.witness == {"prefix": ["step", "step"], "cycle": ["step", "step"]}
        e = [[1 if c == r else 0 for c in range(8)] for r in range(8)]
        assert v.certificate == union(Subspace.from_vectors(8, [e[0], e[1], [0, 0, 1, 0, 0, 0, 1, 0], e[3]]))


class TestLoopRefinementArithmetic:
    def test_no_rational_is_formed(self, monkeypatch):
        # [] <> f on seeded automata, loop refinements and periods included,
        # runs on integers alone: no Fraction and no CRat is constructed
        cases = []
        for seed in range(12):
            rng = random.Random(900 + seed)
            a = random_automaton(rng, rng.choice([2, 3]), rng.randint(1, 3), finite_order=seed % 2 == 0)
            cases.append((a, random_union(rng, a.dim, 1) if seed % 3 else basis_union(rng, a.dim)))
        made = []
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        init = CRat.__init__

        def counted_init(self, *args, **kwargs):
            made.append(CRat)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(CRat, "__init__", counted_init)
        periods = []
        for a, u in cases:
            periods += checker._always_eventually_by_fixpoints(a, u).diagnostics["periods"]
        monkeypatch.undo()
        assert made == []
        # the refinement ran, with periods above one among them
        assert len(periods) >= 8 and max(periods) > 1


class TestLoopGuard:
    def test_large_loop_raises_before_any_matrix_rep(self, monkeypatch, tmp_path, capsys):
        # a cyclic shift on C^D, D past the limit, and the target span(e0):
        # the one member C^D loops outside the target, so [] <> needs a
        # refinement, whose D^2 x D^2 loop matrix is refused up front
        dim = checker._LOOP_DIM_MAX + 1
        shift = Mat.from_rows([[1 if i == (j + 1) % dim else 0 for j in range(dim)] for i in range(dim)])
        a = QuantumAutomaton(dim, {"s": SuperOp.from_unitary(shift)}, Mat.unit(dim, 0, 0))
        e0 = Subspace.from_vectors(dim, [[1] + [0] * (dim - 1)])
        atoms = {"e0": Atom("e0", e0)}

        def forbidden(self):
            raise AssertionError("matrix_rep called")

        with monkeypatch.context() as patch:
            patch.setattr(SuperOp, "matrix_rep", forbidden)
            with pytest.raises(BudgetExceeded, match="loop matrix"):
                check(a, parse_formula("[] <> e0", atoms), atoms)
        program_path, atoms_path = tmp_path / "shift.json", tmp_path / "atoms.json"
        program_path.write_text(jsonio.dumps(jsonio.program_to_json(a)))
        atoms_path.write_text(jsonio.dumps([{"name": "e0", "subspace": jsonio.subspace_to_json(e0)}]))
        assert cli_main(["check", str(program_path), "--atoms", str(atoms_path), "-f", "[] <> e0"]) == 3
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_large_almost_until_raises_before_any_hermitian_rep(self, monkeypatch, tmp_path, capsys):
        # the 4-qubit loop (D = 64) passes every other guard, but the
        # projector of its limit states would eliminate a 4096-row system;
        # [] (p U~ q) is refused up front, and `qtl check` exits 3 at once
        prog = compile_source(FOUR_QUBIT_LOOP_SRC)
        assert prog.dim * len(prog.locations) > checker._LIMIT_DIM_MAX
        zero_q0 = Subspace.from_vectors(16, [[int(r == i) for r in range(16)] for i in range(8)])
        atoms = [
            {"name": "p", "subspace": jsonio.subspace_to_json(partial_correctness_subspace(prog, zero_q0))},
            {"name": "q", "subspace": jsonio.subspace_to_json(exit_atom_subspace(prog, zero_q0))},
        ]
        program_path, atoms_path = tmp_path / "loop4.json", tmp_path / "atoms.json"
        program_path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
        atoms_path.write_text(jsonio.dumps(atoms))

        def forbidden(self):
            raise AssertionError("hermitian_rep called")

        monkeypatch.setattr(SuperOp, "hermitian_rep", forbidden)
        start = time.perf_counter()
        assert cli_main(["check", str(program_path), "--atoms", str(atoms_path), "-f", "[] (p U~ q)"]) == 3
        assert time.perf_counter() - start < 1
        assert "limit states on a space of dimension 64" in capsys.readouterr().err


class TestAlwaysUntil:
    def test_valid_conjunction(self, x_automaton):
        v = check_always_until(x_automaton, union(span((1, 0)), span((0, 1))), union(span((1, 0))))
        assert v.is_valid

    def test_invariance_conjunct_fails(self, x_automaton):
        v = check_always_until(x_automaton, union(span((1, 0))), union(span((1, 0))))
        assert v.status == "not_valid"
        assert v.diagnostics["conjunct"] == "invariance"

    def test_trivial(self, x_automaton):
        v = check_always_until(x_automaton, SubspaceUnion.full(2), SubspaceUnion.full(2))
        assert v.is_valid


def _pure_state(rng, dim):
    v = random_vector(rng, dim, real=rng.random() < 0.5)
    rho = v @ v.dagger()
    return rho * CRat(1 / rho.trace().re)


def _refutation_instances(rng):
    """(automaton, target union) pairs on which the checker's refute-first
    procedures are compared with the fixpoint-only ones: random automata
    (d = 2-4) with full-rank and pure initial states, automata of rational
    rotations (infinite order) beside finite-order channels, the automata of
    random deterministic programs, and leaky cycles."""
    cases = []
    for _ in range(24):
        dim = rng.choice([2, 3, 4])
        a = random_automaton(rng, dim, rng.randint(1, 2))
        if rng.random() < 0.5:
            a = QuantumAutomaton(dim, a.actions, _pure_state(rng, dim))
        cases.append((a, basis_union(rng, dim) if rng.random() < 0.5 else random_union(rng, dim)))
    for _ in range(12):
        dim = rng.choice([2, 3, 4])
        actions = {"r": SuperOp.from_unitary(random_rational_rotation(rng, dim))}
        if rng.random() < 0.5:
            actions["b"] = random_tp_channel(rng, dim, finite_order=True)
        cases.append((QuantumAutomaton(dim, actions, _pure_state(rng, dim)), basis_union(rng, dim)))
    for _ in range(8):
        d = rng.choice([2, 3])
        prog = random_deterministic_program(rng, d, rng.randint(1, 2))
        locs = rng.sample(prog.locations, rng.randint(1, len(prog.locations)))
        atom = atom_from_blocks("p", {loc: random_subspace(rng, d, dim=rng.randint(1, d - 1)) for loc in locs}, prog)
        cases.append((to_automaton(prog), union(atom.subspace)))
    for _ in range(12):
        a = leaky_cycle_automaton(rng)
        cases.append((a, basis_union(rng, a.dim)))
    return cases


def _lasso_replays(a, u, witness, shape) -> bool:
    """Whether a lasso replays exactly as a refutation of "<> []" or
    "[] <>" of the union: the cycle comes back to the support it starts at,
    and that support ("<> []") or every support along the cycle ("[] <>")
    lies outside the union."""
    states = replay_word(a, witness["prefix"] + witness["cycle"])
    loop = [support(s, validate=False) for s in states[len(witness["prefix"]):]]
    outside = [not u.contains_subspace(s) for s in loop]
    return loop[0] == loop[-1] and (all(outside) if shape == "[] <>" else outside[0])


LIMIT_SHAPES = (
    ("<> []", check_eventually_always, "_eventually_always_by_fixpoints", lambda body: Eventually(Always(body))),
    ("[] <>", check_always_eventually, "_always_eventually_by_fixpoints", lambda body: Always(Eventually(body))),
)


class TestRefuteFirst:
    def test_search_first_agrees_with_the_fixpoints(self):
        # check gives the fixpoint-only status wherever that status is
        # decided, every lasso replays, and a former unknown that is now
        # refuted agrees with oracle_bfs wherever the oracle decides; a
        # first graph stopped by its budget of dim expansions still yields
        # the lassos it holds
        counts = collections.Counter()
        for a, u in _refutation_instances(random.Random(3801)):
            atoms = {f"m{i}": Atom(f"m{i}", m) for i, m in enumerate(u.members)}
            body = functools.reduce(Or, [FAtom(name) for name in atoms])
            first = checker._SupportGraph(a, checker._WITNESS_DEPTH, a.dim)
            cut = any(i not in first.successors and first.depth[i] < checker._WITNESS_DEPTH for i in range(len(first)))
            for shape, decide, by_fixpoints, formula in LIMIT_SHAPES:
                got, ref = decide(a, u), getattr(checker, by_fixpoints)(a, u)
                if ref.status != "unknown":
                    assert got.status == ref.status
                if got.status != "not_valid":
                    continue
                assert got.certificate is None
                counts["search" if "search_nodes" in got.diagnostics else "fixpoints"] += 1
                if got.witness is not None:
                    assert _lasso_replays(a, u, got.witness, shape)
                if ref.status == "unknown":
                    counts["unknown refuted"] += 1
                    assert oracle_bfs(a, formula(body), atoms).status != "holds"
                if cut and "search_nodes" in got.diagnostics:
                    assert len(first.successors) == a.dim and got.diagnostics["search_nodes"] == len(first)
                    counts["cut refuted"] += 1
        assert counts["search"] > 20 and counts["fixpoints"] > 0 and counts["unknown refuted"] > 0
        assert counts["cut refuted"] > 0

    def test_invariance_chain_stops_at_the_escape(self, monkeypatch):
        # the [] chain stops at the first round that drops the initial
        # support, after |actions| pre-images per round, at the depth of the
        # witness; the whole chain gives the same status
        rounds = []
        exact = checker.preimage_union
        monkeypatch.setattr(checker, "preimage_union", lambda e, y: rounds.append(e) or exact(e, y))
        stopped = 0
        for a, u in _refutation_instances(random.Random(3802)):
            root = checker._initial_support(a)
            whole, whole_depth = checker._invariance_chain(checker._actions(a), u, Subspace.zero(a.dim))
            rounds.clear()
            v = checker._invariance_by_chain(a, u)
            assert v.is_valid == whole.contains_subspace(root)
            if v.is_valid:
                assert v.certificate == whole
                continue
            depth = v.diagnostics["chain_depth"]
            assert v.certificate is None and depth == v.witness["step"]
            assert len(rounds) == depth * len(a.actions)
            stopped += depth < whole_depth
        assert stopped > 0

    def test_implications_between_the_shapes(self):
        # [] f valid => <> [] f valid => [] <> f not refuted (valid where
        # decided), and the lasso of a refuted [] <> f, whose cycle stays
        # outside f, replays as a refutation of <> [] f too
        counts = collections.Counter()
        for a, u in _refutation_instances(random.Random(3803)):
            always, stable, recurs = check_invariance(a, u), check_eventually_always(a, u), check_always_eventually(a, u)
            if always.is_valid:
                assert stable.is_valid
            if stable.is_valid:
                assert recurs.status != "not_valid"
                counts["stable"] += 1
            if recurs.status == "not_valid":
                assert stable.status == "not_valid"
                if recurs.witness is not None:
                    assert _lasso_replays(a, u, recurs.witness, "<> []")
                    counts["lasso"] += 1
        assert counts["stable"] > 5 and counts["lasso"] > 5

    def test_first_pass_takes_at_most_dim_expansions(self, monkeypatch):
        # a rotation of infinite order and a phase flip on span(e0, e1),
        # both fixing e2, from |e0>: the supports are lines of span(e0, e1)
        # that never repeat, so the support graph does not close, and
        # <> [] span(e0, e1) is valid.  The search stops after dim
        # expansions, |actions| * dim images, before the fixpoints run
        rotation = Mat.from_rows([["3/5", "-4/5", 0], ["4/5", "3/5", 0], [0, 0, 1]])
        flip = Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        a = QuantumAutomaton(3, {"r": SuperOp.from_unitary(rotation), "z": SuperOp.from_unitary(flip)}, Mat.unit(3, 0, 0))
        u = union(span((1, 0, 0), (0, 1, 0)))
        images, before = [0], []
        exact_image, exact_fixpoints = superop.image, checker._eventually_always_by_fixpoints

        def counting_image(e, s):
            images[0] += 1
            return exact_image(e, s)

        def fixpoints(*args):
            before.append(images[0])
            return exact_fixpoints(*args)

        monkeypatch.setattr(superop, "image", counting_image)
        monkeypatch.setattr(checker, "image", counting_image)
        monkeypatch.setattr(checker, "_eventually_always_by_fixpoints", fixpoints)
        v = check_eventually_always(a, u)
        assert v.is_valid and before == [len(a.actions) * a.dim]
        monkeypatch.undo()
        graph = checker._SupportGraph(a, checker._WITNESS_DEPTH, 4000)
        assert not graph.closed and len(graph) > a.dim

    def test_budget_stops_the_walk_as_the_depth_does(self, x_automaton):
        # the X automaton's graph is |0> -> |1> -> |0>: cut after the root by
        # its depth or by its budget, it is the same open graph with one
        # expanded node, and with two expansions it closes
        by_depth = checker._SupportGraph(x_automaton, 1, 4000)
        by_budget = checker._SupportGraph(x_automaton, checker._WITNESS_DEPTH, 1)
        for graph in (by_depth, by_budget):
            assert not graph.closed and list(graph.successors) == [0] and len(graph) == 2
        assert checker._SupportGraph(x_automaton, checker._WITNESS_DEPTH, 2).closed

    def test_short_lasso_runs_no_fixpoint(self, monkeypatch, x_automaton):
        def forbidden(*args):
            raise AssertionError("a fixpoint ran")

        monkeypatch.setattr(checker, "maximal_invariant", forbidden)
        monkeypatch.setattr(checker, "_p2_refine", forbidden)
        v = check_always_eventually(x_automaton, union(span((1, -1))))
        assert v.status == "not_valid" and v.certificate is None
        assert v.witness == {"prefix": [], "cycle": ["x", "x"]}
        assert v.diagnostics == {"search_nodes": 2}


def _limit_case(family, seed):
    """(automaton, union) of one seeded family: leaky cycles, programs of
    2-5 locations on d = 2 or 3, or random automata of 1-2 actions on d = 2
    or 3; the union is one coordinate subspace."""
    rng = random.Random(seed)
    if family == "leaky":
        a = leaky_cycle_automaton(rng)
    elif family == "program":
        a = to_automaton(random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(2, 5)))
    else:
        a = random_automaton(rng, rng.choice([2, 3]), rng.randint(1, 2), finite_order=rng.random() < 0.5)
    return a, basis_union(rng, a.dim, 1)


def _union_atoms(u):
    atoms = {f"m{i}": Atom(f"m{i}", m) for i, m in enumerate(u.members)}
    return atoms, functools.reduce(Or, [FAtom(name) for name in atoms])


def _recheck_graph_certificate(a, certificate):
    """The certificate of a limit shape decided on the closed support graph,
    re-checked on dense matrix-rep images: it holds the support of the
    initial state, and every member's image under every action lies in a
    member."""
    assert certificate.contains_subspace(support(a.initial_state, validate=False))
    for e in a.actions.values():
        rep = MatrixRep(e.matrix_rep())
        for m in certificate.members:
            assert certificate.contains_subspace(rep.image(m))


def _benchmark_generators():
    """perfbench/generators.py, which writes the benchmark's input files."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scheduler_cases():
    """The lattice-large scheduler from both initial bits, as (program,
    atoms all0 and all1, nodes of its support graph)."""
    generators = _benchmark_generators()
    for bit, nodes in ((0, 3), (1, 6)):
        scheduler = jsonio.program_from_json(generators.scheduler_program_json(bit))
        atoms = {
            name: atom_from_blocks(name, {config: span(vector) for config in scheduler.configs()}, scheduler)
            for name, vector in (("all0", (1, 0)), ("all1", (0, 1)))
        }
        yield scheduler, atoms, nodes


def _three_qubit_loop():
    """The lattice-large 3-qubit loop and its atom partial_ok (q0 = 0 at the
    exit, anything elsewhere)."""
    loop = compile_source(THREE_QUBIT_LOOP_SRC)
    zero_q0 = Subspace.from_vectors(8, [[int(r == i) for r in range(8)] for i in range(4)])
    return loop, {"partial_ok": Atom("partial_ok", partial_correctness_subspace(loop, zero_q0))}


class TestClosedFirstGraph:
    """A <> [] or [] <> with no lasso on a first support graph that closed
    is valid, decided on the graph; the fixpoints run only where it did not
    close."""

    def test_graph_decided_valid_agrees_with_the_oracle(self):
        # every graph-decided valid answer agrees with oracle_bfs (dense
        # images, its own root) wherever the oracle decides, and its
        # certificate passes the dense re-check
        counts = collections.Counter()
        for family in ("leaky", "program", "automaton"):
            for seed in range(150):
                a, u = _limit_case(family, seed)
                atoms, body = _union_atoms(u)
                first = checker._SupportGraph(a, checker._WITNESS_DEPTH, a.dim)
                for _, decide, _, formula in LIMIT_SHAPES:
                    v = decide(a, u)
                    if "graph_nodes" not in v.diagnostics:
                        continue
                    assert v.is_valid and first.closed and v.diagnostics == {"graph_nodes": len(first)}
                    _recheck_graph_certificate(a, v.certificate)
                    oracle = oracle_bfs(a, formula(body), atoms, depth=64)
                    assert oracle.status != "fails"
                    counts[family, oracle.status] += 1
        assert all(counts[family, "holds"] > 5 for family in ("leaky", "program", "automaton"))

    # [] <> refutations by the loop refinement that the closed graph turns
    # into valid answers: the oscillation sits in decaying eigenvalues, which
    # the peripheral period misses, and oracle_bfs says holds on each
    @pytest.mark.parametrize(
        "family, seed",
        [("leaky", s) for s in (4, 15, 23, 40, 54, 55, 71, 80, 93, 109, 112, 124)] + [("program", 82), ("program", 100)],
    )
    def test_former_wrong_refutations(self, family, seed):
        a, u = _limit_case(family, seed)
        atoms, body = _union_atoms(u)
        v = check_always_eventually(a, u)
        assert v.is_valid and "graph_nodes" in v.diagnostics
        _recheck_graph_certificate(a, v.certificate)
        assert oracle_bfs(a, Always(Eventually(body)), atoms, depth=64).status == "holds"

    def test_closed_graph_runs_no_fixpoint(self, monkeypatch):
        # the valid <> [] queries of the benchmark's lattice-large workload,
        # on the 3-qubit loop (8 supports) and on the two-selector scheduler
        # (3 supports from |0>, 6 from |1>), are decided on their closed
        # graphs: no maximal invariant, no maximal extension, no loop
        # matrix.  An automaton whose first graph stays open still reaches
        # the fixpoints (test_first_pass_takes_at_most_dim_expansions)
        loop, loop_atoms = _three_qubit_loop()
        cases = [(loop, "<> [] partial_ok", loop_atoms, 8)]
        for scheduler, atoms, nodes in _scheduler_cases():
            cases.append((scheduler, "<> [] (all0 || all1)", atoms, nodes))

        def forbidden(*args):
            raise AssertionError("a fixpoint ran")

        monkeypatch.setattr(checker, "maximal_invariant", forbidden)
        monkeypatch.setattr(checker, "maximal_extension", forbidden)
        monkeypatch.setattr(SuperOp, "hermitian_rep", forbidden)
        for target, text, atoms, nodes in cases:
            v = check(target, parse_formula(text, atoms), atoms)
            assert v.is_valid and v.diagnostics == {"graph_nodes": nodes}

    def test_decaying_oscillation_graph_is_cut(self):
        # test_oscillation_in_decaying_eigenvalues keeps its strict xfail:
        # its support graph {A}, {B}, {A, C}, {B, C} closes with 4 nodes,
        # but the first graph stops after D = 3 expansions, so the loop
        # refinement decides it
        aut = _decaying_oscillation()
        first = checker._SupportGraph(aut, checker._WITNESS_DEPTH, aut.dim)
        assert not first.closed and len(first.successors) == aut.dim == 3
        whole = checker._SupportGraph(aut, checker._WITNESS_DEPTH, 4000)
        assert whole.closed and len(whole) == 4


def _pure_case(family, seed):
    """(automaton, p, q) of one seeded family: leaky cycles with p, q one
    coordinate subspace each; random automata of 1-2 actions on d = 2-4
    from a pure state, p of 1-2 coordinate subspaces and q one random
    subspace; programs of 2-5 locations on d = 2 or 3 from a pure state,
    p, q one coordinate subspace each."""
    rng = random.Random(seed)
    if family == "leaky":
        a = leaky_cycle_automaton(rng)
        return a, basis_union(rng, a.dim, 1), basis_union(rng, a.dim, 1)
    if family == "auto_pure":
        d = rng.choice([2, 3, 4])
        a = random_automaton(rng, d, rng.randint(1, 2), finite_order=rng.random() < 0.5)
        a = QuantumAutomaton(d, a.actions, random_pure_state(rng, d))
        return a, basis_union(rng, d, 2), random_union(rng, d, 1)
    prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(2, 5))
    a = to_automaton(prog.with_initial_state(random_pure_state(rng, prog.dim)))
    return a, basis_union(rng, a.dim, 1), basis_union(rng, a.dim, 1)


def _always_until_by_chain(a, f, g):
    """[] (f U g) with the invariance conjunct decided by the pre-image
    chain alone and then the recurrence conjunct by check_always_eventually."""
    inv = checker._invariance_by_chain(a, f)
    return inv if inv.status == "not_valid" else check_always_eventually(a, g)


class TestGraphFirstInvariance:
    """[] f with two or more members, and both conjuncts of [] (f U g), are
    decided on the first support graph; the pre-image chain runs only where
    that graph did not close, and for every one-member [] f."""

    def test_agrees_with_the_chain(self):
        # statuses and witnesses equal those of the chain-only procedures
        # (the witness is the graph's shallowest escape either way), and
        # every graph-decided valid certificate lies in f and passes the
        # dense re-check
        cases = [(a, u, basis_union(random.Random(i), a.dim, 1)) for i, (a, u) in enumerate(_refutation_instances(random.Random(3801)))]
        for family in ("leaky", "auto_pure", "prog_pure"):
            for seed in range(150):
                a, p, q = _pure_case(family, seed)
                cases += [(a, p, q), (a, p.union(q), q)]
        counts = collections.Counter()
        for a, f, g in cases:
            for got, ref in (
                (check_invariance(a, f), checker._invariance_by_chain(a, f)),
                (check_always_until(a, f, g), _always_until_by_chain(a, f, g)),
            ):
                assert (got.status, got.witness) == (ref.status, ref.witness)
                if "graph_nodes" in got.diagnostics:
                    assert got.is_valid and got.certificate.subset_of(f)
                    _recheck_graph_certificate(a, got.certificate)
                passes = ("graph_nodes", "search_nodes", "chain_depth", "invariance_chain_depth", "refinements", "reason")
                counts[got.status, next(k for k in passes if k in got.diagnostics)] += 1
        assert counts["valid", "graph_nodes"] > 20 and counts["not_valid", "search_nodes"] > 20
        assert counts["valid", "chain_depth"] > 0 and counts["valid", "invariance_chain_depth"] > 0

    def test_scheduler_union_runs_no_chain(self, monkeypatch):
        # the lattice-large scheduler's [] (all0 || all1), from both initial
        # bits, is decided on its closed support graph
        def forbidden(*args):
            raise AssertionError("the pre-image chain ran")

        monkeypatch.setattr(checker, "_invariance_chain", forbidden)
        monkeypatch.setattr(checker, "preimage_union", forbidden)
        for scheduler, atoms, nodes in _scheduler_cases():
            v = check(scheduler, parse_formula("[] (all0 || all1)", atoms), atoms)
            assert v.is_valid and v.diagnostics == {"graph_nodes": nodes}
            _recheck_graph_certificate(to_automaton(scheduler), v.certificate)

    def test_one_member_builds_no_graph(self, monkeypatch):
        # the 3-qubit loop's [] partial_ok keeps the chain, which closes
        # within D rounds of one kernel each
        loop, atoms = _three_qubit_loop()

        def forbidden(*args):
            raise AssertionError("a support graph was built")

        monkeypatch.setattr(checker, "_SupportGraph", forbidden)
        v = check(loop, parse_formula("[] partial_ok", atoms), atoms)
        assert v.is_valid and list(v.diagnostics) == ["chain_depth"]

    def test_closed_until_builds_one_graph(self, monkeypatch, x_automaton):
        # the X gate's [] ((zero || one) U zero): one graph of 2 nodes
        # decides both conjuncts, and the diagnostics say so
        built = []
        graph_class = checker._SupportGraph

        def counting(*args, **kwargs):
            built.append(args)
            return graph_class(*args, **kwargs)

        monkeypatch.setattr(checker, "_SupportGraph", counting)
        monkeypatch.setattr(checker, "_invariance_chain", lambda *args: pytest.fail("the pre-image chain ran"))
        atoms = {"zero": Atom("zero", span((1, 0))), "one": Atom("one", span((0, 1)))}
        v = check(x_automaton, parse_formula("[] ((zero || one) U zero)", atoms), atoms)
        assert v.is_valid and v.diagnostics == {"graph_nodes": 2} and len(built) == 1
        _recheck_graph_certificate(x_automaton, v.certificate)

    def test_open_graph_until_reports_both_passes(self):
        # a rotation of infinite order and a phase flip on span(e0, e1)
        # from |e0>: the graph does not close, so the chain decides the
        # invariance conjunct and the loop refinement the recurrence one
        rotation = Mat.from_rows([["3/5", "-4/5", 0], ["4/5", "3/5", 0], [0, 0, 1]])
        flip = Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        a = QuantumAutomaton(3, {"r": SuperOp.from_unitary(rotation), "z": SuperOp.from_unitary(flip)}, Mat.unit(3, 0, 0))
        v = check_always_until(a, union(span((1, 0, 0), (0, 1, 0))), SubspaceUnion.full(3))
        assert v.is_valid and v.certificate == SubspaceUnion.full(3)
        assert v.diagnostics == {
            "invariance_chain_depth": 0,
            "refinements": 0,
            "periods": [],
            "period_bound": checker._PERIOD_BOUND,
            "certificate_members": 1,
        }


def _one_graph_cases():
    """(automaton, f, g) of _refutation_instances of seeds 3801 and 3802,
    each with g one coordinate subspace, and of the leaky, auto_pure and
    prog_pure families, seeds 0-59."""
    cases = [
        (a, u, basis_union(random.Random(i), a.dim, 1))
        for seed in (3801, 3802)
        for i, (a, u) in enumerate(_refutation_instances(random.Random(seed)))
    ]
    for family in ("leaky", "auto_pure", "prog_pure"):
        cases += [_pure_case(family, seed) for seed in range(60)]
    return cases


class TestOneGraphPerCall:
    """Every pass of one check_* call reads the one support graph and grows
    it; growing a graph gives the graph built to the larger limits."""

    def test_growing_equals_building(self):
        # the first graph grown to 4000 expansions is the fresh 4000-expansion
        # graph, node for node; grown to depth k, below or above the first
        # graph's depth, it gives the fresh depth-k graph's shallowest escape
        def fields(graph):
            return graph.nodes, graph.depth, graph.parent, graph.successors, graph.closed

        depth, counts = checker._WITNESS_DEPTH, collections.Counter()
        for a, f, _ in _one_graph_cases():
            grown = checker._SupportGraph(a, depth, a.dim)
            counts["open"] += not grown.closed
            assert fields(grown.grow(depth, 4000)) == fields(checker._SupportGraph(a, depth, 4000))
            for k in (3, depth + 1):
                witness = checker._escape_witness(checker._SupportGraph(a, k, 200000), f)
                if witness is not None:
                    grown = checker._SupportGraph(a, depth, a.dim).grow(k, 200000)
                    assert checker._escape_witness(grown, f) == witness
                    counts["escape", k, witness["step"] > 0] += 1
        assert counts["open"] > 50
        assert all(counts["escape", k, True] > 10 for k in (3, depth + 1))

    def test_one_graph_per_call(self, monkeypatch):
        # each check_* call builds at most one support graph, and none for
        # the 3-qubit loop's valid [] partial_ok; the witness of a
        # refutation by the fixpoints or the chain is the one a fresh graph
        # to the same limits gives
        graph_class, built, counts = checker._SupportGraph, [], collections.Counter()

        class Counting(graph_class):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        def fresh(a, max_depth, budget):
            return graph_class(a, max_depth, budget)

        monkeypatch.setattr(checker, "_SupportGraph", Counting)
        depth = checker._WITNESS_DEPTH
        for a, f, g in _one_graph_cases():
            for decide, by_fixpoints in (
                (lambda: check_invariance(a, f), None),
                (lambda: check_eventually_always(a, f), lambda: fresh(a, depth, 4000).recurrent_escape(f)),
                (lambda: check_always_eventually(a, f), lambda: fresh(a, depth, 4000).avoiding_lasso(f)),
                (lambda: check_always_until(a, f, g), lambda: fresh(a, depth, 4000).avoiding_lasso(g)),
            ):
                built.clear()
                v = decide()
                assert len(built) <= 1
                if v.status != "not_valid" or "search_nodes" in v.diagnostics:
                    continue
                if "chain_depth" in v.diagnostics:
                    k = v.diagnostics["chain_depth"]
                    assert v.witness == checker._escape_witness(fresh(a, k, 200000), f)
                    counts["chain", k > 0] += 1
                else:
                    assert v.witness == by_fixpoints()
                    counts["fixpoints", v.witness is None] += 1
        assert counts["chain", True] > 10 and counts["fixpoints", False] > 20 and counts["fixpoints", True] > 5
        loop, atoms = _three_qubit_loop()
        built.clear()
        assert check(loop, parse_formula("[] partial_ok", atoms), atoms).is_valid and built == []


class TestAlmostUntil:
    def test_example_loop(self, example_loop):
        e = step_superop(example_loop)
        sigma0 = embed(initial_cq(example_loop), example_loop)
        p = partial_correctness_subspace(example_loop, span((1, 0)))
        q = exit_atom_subspace(example_loop, span((1, 0)))
        v = check_always_almost_until(e, sigma0, p, q)
        assert v.is_valid
        assert v.diagnostics["limit_traces"] == ["1"]

    def test_identity_channel_stays(self):
        e = SuperOp.identity(2)
        v = check_always_almost_until(e, KET0, Subspace.full(2), span((1, 0)))
        assert v.is_valid

    def test_identity_never_approaches_other_line(self):
        e = SuperOp.identity(2)
        v = check_always_almost_until(e, KET0, Subspace.full(2), span((0, 1)))
        assert v.status == "not_valid"

    def test_irrational_rotation_unknown(self):
        v = check_always_almost_until(ROTATION, KET0, Subspace.full(2), span((1, 0)))
        assert v.status == "unknown"

    def test_limit_states_period_two(self):
        states = limit_states(X_CONJ, KET0)
        assert len(states) == 2
        assert states[0] == KET0 and states[1] == KET1

    def test_limit_states_need_a_trace_preserving_channel(self):
        # the projection onto |0> loses the mass of |1>; twice the identity
        # has spectral radius 2
        for kraus in ([Mat.from_rows([[1, 0], [0, 0]])], [Mat.eye(2) * CRat(2)]):
            with pytest.raises(PreconditionViolated, match="trace-preserving"):
                limit_states(SuperOp(kraus, validate=False), KET0)

    def test_initial_state_must_be_a_density_matrix(self):
        # a negative eigenvalue, a non-Hermitian matrix, trace two and the
        # wrong size: each is refused before any verdict or limit
        for sigma0, error in (
            (Mat.from_rows([[1, 0], [0, -1]]), PreconditionViolated),
            (Mat.from_rows([[1, 1], [0, 0]]), PreconditionViolated),
            (Mat.eye(2), PreconditionViolated),
            (Mat.eye(3) * CRat(Fraction(1, 3)), DimensionMismatch),
        ):
            with pytest.raises(error):
                check_always_almost_until(X_CONJ, sigma0, Subspace.full(2), span((1, 0)))
            with pytest.raises(error):
                limit_states(X_CONJ, sigma0)

    def test_limit_traces_are_exact(self):
        # a bit flip with probability 9/25 mixes |0> to I/2, whose weight
        # on |0> is the rational 1/2 (no float)
        mix = SuperOp([PAULI_X * CRat(Fraction(3, 5)), Mat.eye(2) * CRat(Fraction(4, 5))])
        v = check_always_almost_until(mix, KET0, Subspace.full(2), span((1, 0)))
        assert v.status == "not_valid"
        assert v.diagnostics["limit_traces"] == v.witness["limit_traces"] == ["1/2"]

    def test_limit_state_agrees_with_reachability(self, example_loop):
        # two independent routes to the same limit: the exact eigenprojector
        # of the step representation at one, and the numeric resolvent
        e = step_superop(example_loop)
        sigma0 = embed(initial_cq(example_loop), example_loop)
        (tau,) = limit_states(e, sigma0)
        # exactly |0><0| at the exit location
        e_idx = example_loop.config_index("l4")
        expected = kron(KET0, Mat.unit(4, e_idx, e_idx))
        assert tau == expected
        r = reachability_superop(example_loop)
        import numpy as np

        assert np.max(np.abs(tau.to_complex() - r.reach_state.to_complex())) < 1e-9


def _reach_block(r, prog):
    """The exit block of the reach state."""
    n, e = len(prog.locations), prog.config_index(prog.exit_location)
    return r.reach_state[e::n, e::n]


def _assert_channel_gives_reach_block(r, prog):
    """The semantic function applied to the input is the reach block."""
    assert r.channel.apply(prog.initial_state) == _reach_block(r, prog)


def _gaussian(m: Mat) -> DomainMatrix:
    """m as a sympy matrix over Q(i)."""
    return DomainMatrix(
        [[QQ_I(QQ(e.re.numerator, e.re.denominator), QQ(e.im.numerator, e.im.denominator)) for e in row] for row in m.entries()],
        (m.rows, m.cols),
        QQ_I,
    )


def _choi_rank(f: DomainMatrix) -> int:
    """sympy's rank of the Choi matrix C[(i, k), (j, l)] = F[(i, j), (k, l)]
    of the matrix F of a map on d x d operators."""
    entries = f.to_list()
    d = math.isqrt(len(entries))
    choi = [
        [entries[(a // d) * d + b // d][(a % d) * d + b % d] for b in range(d * d)] for a in range(d * d)
    ]
    return DomainMatrix(choi, (d * d, d * d), QQ_I).rank()


class TestReachability:
    def test_example_loop(self, example_loop):
        r = reachability_superop(example_loop)
        assert r.almost_terminates
        assert abs(r.diagnostics["reach_trace"] - 1.0) <= 1e-9
        assert abs(r.expected_steps - 4.0) <= 1e-6
        assert _reach_block(r, example_loop) == KET0
        _assert_channel_gives_reach_block(r, example_loop)

    def test_channel_on_rotation_loops(self):
        # the loops exit almost surely from every input, so the semantic
        # function is trace preserving: tr F(|k><l|) = [k == l], exactly
        for n in (10, 1000):
            prog = compile_source(rotation_loop_src(n))
            r = reachability_superop(prog)
            assert r.reach_state.trace() == 1
            _assert_channel_gives_reach_block(r, prog)
            d = prog.dim
            for k in range(d):
                for l in range(d):
                    assert r.channel.apply(Mat.unit(d, k, l)).trace() == (1 if k == l else 0)

    def test_instant_exit(self):
        prog = compile_source("qubits 1;\nskip")
        r = reachability_superop(prog)
        assert r.almost_terminates
        assert abs(r.expected_steps - 1.0) <= 1e-9

    def test_partially_trapped_loop(self):
        prog = compile_source(PARTIALLY_TRAPPED_SRC)
        r = reachability_superop(prog)
        assert not r.almost_terminates
        assert abs(r.diagnostics["reach_trace"] - 0.5) <= 1e-9
        assert r.expected_steps == math.inf

    def test_slowly_exiting_rotation_loops(self):
        # the cut's radius a^2 = 1 - 4/n^2 + ... lies within 1e-9 of one,
        # where no split of the cut can tell it from the periphery; the
        # solve on the operators over R has no spectrum to classify
        for n in (10**5, 10**6):
            r = reachability_superop(compile_source(rotation_loop_src(n)))
            assert r.reach_state.trace() == 1
            assert r.expected_steps == float(Fraction((n * n + 1) ** 2, 2 * n * n) + 1)

    def test_unreached_trap(self):
        # the trap of the loop body keeps eigenvalue one in the cut, but the
        # input never enters it (R ^ T = 0), so the solve on the operators
        # over R gives trace one exactly; in the second loop the reachable
        # part exits slowly (cut radius 1 - 4e-6)
        for src, steps in ((UNREACHED_TRAP_SRC, 1.0), (rotation_loop_with_unreached_trap_src(1000), 750002.5)):
            prog = compile_source(src)
            cut = block_space_cut(prog)
            assert rank(cut - Mat.eye(cut.rows)) < cut.rows
            r = reachability_superop(prog)
            assert r.almost_terminates
            assert r.reach_state.trace() == 1
            assert abs(r.expected_steps - steps) <= 1e-9 * steps

    def test_unreached_minus_trap(self):
        # the trap on |-> of the selecting qubit is never entered from |1+>;
        # the expected steps are 75000002.5 + 7.5e-9
        n = 10**4
        r = reachability_superop(compile_source(rotation_loop_with_minus_trap_src(n)))
        assert r.almost_terminates
        assert r.reach_state.trace() == 1
        assert r.expected_steps == float(Fraction(3 * (n * n + 1) ** 2, 4 * n * n) + 1)

    def test_three_qubit_loop_family(self, monkeypatch):
        # R_in modulo its trapped part has dimension 24 (8 at the skip and
        # at the guard, 4 at the body and 4 at the exit), so the exact
        # solve has 2 * 8^2 + 2 * 4^2 = 160 unknowns
        import qtl.checker as checker

        sizes = []
        exact_solve = checker.solve
        monkeypatch.setattr(checker, "solve", lambda a, b: sizes.append(a.rows) or exact_solve(a, b))
        r = reachability_superop(compile_source(THREE_QUBIT_LOOP_SRC))
        assert r.reach_state.trace() == 1
        assert r.expected_steps == 4
        assert r.kraus_rank == 3
        assert sizes and max(sizes) <= 160

    def test_one_elimination_per_reach(self, monkeypatch):
        # the expected steps are read off the solve that gives F, so the
        # Sum k_c^2-row system is eliminated once, also under almost-sure
        # exit (the trapped loops have infinite expected steps)
        import qtl.checker as checker

        sizes = []
        exact_solve = checker.solve
        monkeypatch.setattr(checker, "solve", lambda a, b: sizes.append(a.rows) or exact_solve(a, b))
        sources = [EXAMPLE_LOOP_SRC, TWO_QUBIT_LOOP_SRC, THREE_QUBIT_LOOP_SRC, UNREACHED_TRAP_SRC]
        sources += [PARTIALLY_TRAPPED_SRC, rotation_loop_with_minus_trap_src(10)]
        almost = []
        for src in sources:
            prog = compile_source(src)
            loop = bohm_jacopini(prog)
            kept = [r.meet(t.complement()) for r, t in zip(loop.input_reachable.values(), loop.input_trapped.values())]
            sizes.clear()
            r = reachability_superop(prog)
            assert sizes == [sum(sub.dim**2 for sub in kept)]
            almost.append(r.almost_terminates)
        assert almost == [True, True, True, True, False, True]

    def test_solve_past_the_limit_is_refused(self, tmp_path, capsys):
        # a Hadamard loop on q0 of five qubits from the maximally mixed
        # state: the guard keeps all of C^32 and the body and the exit a
        # 16-dimensional part each, so the solve would have 32^2 + 2 * 16^2
        # = 1536 unknowns; it is refused before the cut is assembled, and
        # `qtl reach` exits 3
        n = 32
        mixed = [[Fraction(int(i == j), n) for j in range(n)] for i in range(n)]
        src = f"""qubits 5;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
input [{", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in mixed)}];
while meas M(q0) == 1 {{ apply H to q0 }}
"""
        prog = compile_source(src)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"1536 unknowns; the limit is {checker._REACH_UNKNOWNS_MAX}"):
            reachability_superop(prog)
        assert time.perf_counter() - start < 1
        path = tmp_path / "mixed.json"
        path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
        assert cli_main(["reach", str(path)]) == 3
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_unknowns_are_counted_before_any_operator(self, monkeypatch):
        # a chain of 400 skips keeps C^2 at each of its 401 locations, the
        # exit included: 401 * 2^2 = 1604 unknowns, read off the location
        # blocks; the one-step channels, whose dense grids the grid
        # guard would refuse, are never built
        import qtl.program as program

        def no_grids(*args):
            raise AssertionError("built the one-step channels")

        prog = compile_source("qubits 1;\n" + ";\n".join(["skip"] * 400))
        monkeypatch.setattr(program, "_selector_channels", no_grids)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"1604 unknowns; the limit is {checker._REACH_UNKNOWNS_MAX}"):
            reachability_superop(prog)
        assert time.perf_counter() - start < 0.5

    def test_channel_reproduces_exact_reach_state(self, example_loop):
        # the ranks count the Kraus operators of the semantic function from
        # the initial location
        for prog, rank in ((example_loop, 2), (compile_source(TWO_QUBIT_LOOP_SRC), 3)):
            r = reachability_superop(prog)
            assert r.kraus_rank == rank
            _assert_channel_gives_reach_block(r, prog)

    def test_two_qubit_loop_family(self):
        prog = compile_source(TWO_QUBIT_LOOP_SRC)
        r = reachability_superop(prog)
        assert r.reach_state.trace() == CRat(1)
        assert r.almost_terminates
        assert r.expected_steps == 4
        _assert_channel_gives_reach_block(r, prog)
        # every exit happens with q0 = 0: no mass on q0 = 1 at the exit
        n_configs = len(prog.configs())
        e_idx = prog.config_index(prog.exit_location)
        block = r.reach_state[e_idx::n_configs, e_idx::n_configs]
        q0_one = kron(KET1, Mat.eye(2))
        assert (q0_one @ block).trace() == CRat(0)

    def test_reach_state_of_terminating_programs_is_exact(self):
        for prog, step in terminating_programs(seed=31, count=12, min_step=2):
            r = reachability_superop(prog)
            final = simulate_deterministic(prog, step)[-1]
            exit_only = CQState(prog.dim, {"exit": final.block("exit")}, validate=False)
            assert r.reach_state == embed(exit_only, prog)
            assert r.almost_terminates
            _assert_channel_gives_reach_block(r, prog)

    def test_kraus_rank_counts_the_channel_operators(self, example_loop):
        from helpers import random_deterministic_program
        from qtl.program import LocationAction, SequentialProgram
        from qtl.superop import Measurement

        never_exits = compile_source(NEVER_EXITS_SRC)
        programs = [example_loop, compile_source(TWO_QUBIT_LOOP_SRC), never_exits]
        rng = random.Random(41)
        while len(programs) < 13:
            programs.append(random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3)))
        ranks = []
        for prog in programs:
            r = reachability_superop(prog)
            ranks.append(r.kraus_rank)
            assert r.kraus_rank == _choi_rank(_gaussian(r.channel.m))
        assert max(ranks) > 1
        # the exit is unreachable from the initial location: no input ever
        # exits, and the semantic function is zero
        act = {
            "a": LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: ("a",)}),
            "e": LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: ("e",)}),
        }
        stuck = reachability_superop(SequentialProgram(2, ("a", "e"), act, KET0, "a", "e"))
        assert stuck.diagnostics["reach_trace"] == 0.0
        assert stuck.channel.m.is_zero()
        assert stuck.kraus_rank == 0

    def test_bohm_jacopini_semantics(self):
        # on Q-While programs that terminate exactly from every input, the
        # solved semantic function equals the denotation, read off
        # denote_steps on d^2 spanning inputs, and its Kraus rank is the
        # rank of that map's Choi matrix
        from qtl.qwhile import compile_qwhile, denote_steps, parse

        half = Fraction(1, 2)
        inputs = [
            Mat.from_rows([[1, 0], [0, 0]]),
            Mat.from_rows([[0, 0], [0, 1]]),
            Mat.from_rows([[half, half], [half, half]]),
            Mat.from_rows([[half, CRat(0, -half)], [CRat(0, half), half]]),
        ]
        rng = random.Random(1111)
        checked, loops, ranks = 0, 0, set()
        while checked < 24:
            source = random_qwhile_source(rng, max_loops=2, max_len=2)
            ast = parse(source)
            prog = compile_qwhile(ast)
            if not all(check_terminates(prog.with_initial_state(rho)).kind == "terminates" for rho in inputs):
                continue
            checked += 1
            loops += "while" in source
            r = reachability_superop(prog)
            outputs = [denote_steps(ast, rho, prog.dim * len(prog.locations) - 1) for rho in inputs]
            for rho, out in zip(inputs, outputs):
                assert r.channel.apply(rho) == out
            ins, outs = (_gaussian(functools.reduce(Mat.hstack, [vec(m) for m in ms])) for ms in (inputs, outputs))
            assert r.kraus_rank == _choi_rank(outs.matmul(ins.inv()))
            ranks.add(r.kraus_rank)
        assert loops and ranks == {1, 2}


def _relabelled(rng, prog):
    """prog with its locations renamed and listed in a random order."""
    names = {loc: f"m{k}" for k, loc in enumerate(rng.sample(prog.locations, len(prog.locations)))}
    act = {
        names[loc]: LocationAction(a.channel, a.measurement, {j: tuple(names[t] for t in ts) for j, ts in a.next.items()})
        for loc, a in prog.act.items()
    }
    order = rng.sample(list(names.values()), len(names))
    return SequentialProgram(prog.dim, order, act, prog.initial_state, names[prog.initial_location], names[prog.exit_location])


def _with_unreached(rng, prog):
    """prog with one more location, at a random place in the order, that
    no location leads to and that leads to a random location."""
    act = dict(prog.act)
    act["unreached"] = LocationAction(
        random_tp_channel(rng, prog.dim), Measurement.trivial(prog.dim), {0: (rng.choice(prog.locations),)}
    )
    order = list(prog.locations)
    order.insert(rng.randint(0, len(order)), "unreached")
    return SequentialProgram(prog.dim, order, act, prog.initial_state, prog.initial_location, prog.exit_location)


class TestExitFormulas:
    def test_location_rewrites_keep_every_exit_answer(self, tmp_path, capsys):
        # renaming and reordering the locations, and adding one that the
        # initial location cannot reach, change no exit verdict's status or
        # diagnostics, no termination verdict and no `qtl reach --json`
        # record: the exit loop indexes its blocks by location.  [] p runs
        # the pre-image chain on the whole embedded space, so the depth at
        # which a valid chain settles may count the unreached location's
        # block: only its status is compared there
        rng = random.Random(2509)

        def answers(prog, exit_sub, always_depth=True):
            verdicts = check_exit_formulas(prog, exit_sub)
            path = tmp_path / "program.json"
            path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
            assert cli_main(["reach", str(path), "--json"]) == 0
            always = verdicts.always
            return (
                [(v.status, v.diagnostics) for v in (verdicts.eventually, verdicts.almost_eventually)],
                (always.status, always.diagnostics if always_depth else None),
                check_terminates(prog),
                capsys.readouterr().out,
            )

        for k in range(60):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.random() < 0.8)
            if k % 2:
                prog = prog.with_initial_state(random_pure_state(rng, prog.dim))
            exit_sub = random_subspace(rng, prog.dim, rng.randint(0, prog.dim))
            assert answers(_relabelled(rng, prog), exit_sub) == answers(prog, exit_sub)
            assert answers(_with_unreached(rng, prog), exit_sub, False) == answers(prog, exit_sub, False)

    def test_example_loop_triple(self, example_loop):
        verdicts = check_exit_formulas(example_loop, span((1, 0)))
        assert verdicts.eventually.status == "not_valid"
        assert verdicts.almost_eventually.is_valid
        assert verdicts.always.is_valid

    def test_terminating_program_eventually(self):
        src = """qubits 1;
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1, 0], [0, 0]];
while meas M(q0) == 1 { skip }
"""
        prog = compile_source(src)
        verdicts = check_exit_formulas(prog, span((1, 0)))
        assert verdicts.eventually.is_valid
        assert verdicts.eventually.diagnostics["step"] == 1

    def test_zero_exit_subspace(self, example_loop):
        verdicts = check_exit_formulas(example_loop, Subspace.zero(2))
        assert verdicts.almost_eventually.status == "not_valid"

    def test_exit_proposition_off_the_data_space(self, example_loop):
        # refused even where the loop does not exit exactly
        for decide in (check_exit_eventually, check_exit_almost_eventually, check_exit_always):
            with pytest.raises(DimensionMismatch):
                decide(example_loop, Subspace.full(3))

    def test_almost_eventually_on_slow_rotation_loops(self):
        # the loops exit almost surely, in |0>; a float split of their cut
        # calls the radius 1 - 4e-10 (or 1 - 4e-12) peripheral
        for n in (10**5, 10**6):
            prog = compile_source(rotation_loop_src(n))
            atoms = {"exit0": Atom("exit0", exit_atom_subspace(prog, span((1, 0))))}
            v = check(prog, parse_formula("<>~ exit0", atoms), atoms)
            assert v.is_valid
            assert v.diagnostics == {"reachable_dim": 4, "trapped_dim": 0}
            assert check_exit_almost_eventually(prog, span((0, 1))).status == "not_valid"

    def test_almost_eventually_on_trapped_loops(self):
        # |1> cycles through the guard and the two X locations forever
        for src, trapped in ((NEVER_EXITS_SRC, 3), (PARTIALLY_TRAPPED_SRC, 3), (UNREACHED_TRAP_SRC, 0)):
            prog = compile_source(src)
            v = check_exit_almost_eventually(prog, Subspace.full(2))
            assert v.diagnostics["trapped_dim"] == trapped
            assert v.is_valid == (trapped == 0)

    def test_triple_equals_per_verdict_functions(self, monkeypatch):
        # no exit verdict simulates the program: the one-step block update
        # behind simulate_deterministic and selector_successors is forbidden
        import qtl.program as program

        def forbidden(*args, **kwargs):
            raise AssertionError("simulated the program")

        rng = random.Random(32)
        for prog, step in terminating_programs(seed=33, count=8):
            k = rng.randrange(prog.dim)
            sub = Subspace.from_vectors(prog.dim, [[int(i == k) for i in range(prog.dim)]])
            with monkeypatch.context() as patch:
                patch.setattr(program, "_step_with_selector", forbidden)
                expected = ExitVerdicts(
                    eventually=check_exit_eventually(prog, sub),
                    almost_eventually=check_exit_almost_eventually(prog, sub),
                    always=check_exit_always(prog, sub),
                )
                assert check_exit_formulas(prog, sub) == expected
                assert check_terminates(prog).step == step
                assert hoare_check(prog, sub, sub, "partial").status in ("valid", "not_valid")

    def test_each_verdict_computes_only_its_own(self, example_loop, monkeypatch):
        from qtl.qwhile import WhileNormalForm

        def forbidden(*args, **kwargs):
            raise AssertionError("computed a part of another verdict")

        with monkeypatch.context() as patch:
            patch.setattr(checker, "reachability_superop", forbidden)
            patch.setattr(checker, "_peripheral_period", forbidden)
            patch.setattr(WhileNormalForm, "trapped", property(forbidden))
            assert check_exit_eventually(example_loop, span((1, 0))).status == "not_valid"
            assert check_exit_always(example_loop, span((1, 0))).is_valid
            assert check_terminates(example_loop).kind == "almost_candidate"
        with monkeypatch.context() as patch:
            patch.setattr(checker, "reachability_superop", forbidden)
            patch.setattr(checker, "_peripheral_period", forbidden)
            patch.setattr(WhileNormalForm, "exit_step", property(forbidden))
            assert check_exit_almost_eventually(example_loop, span((1, 0))).is_valid

    def test_lattice_answers_equal_the_simulation(self):
        # <>, [], <>~ and check_terminates read the exit loop's lattice; the
        # reference reads the program's exact states out to dim*|L| - 1
        # steps.  The seeded programs reach every kind of termination, both
        # failing conjuncts of <> and both statuses of [] and <>~
        rng = random.Random(27)
        programs = []
        for _ in range(160):
            dim = rng.choice([2, 3])
            programs.append(random_deterministic_program(rng, dim, rng.randint(1, 4), rng.random() < 0.8))
        programs += [compile_source(random_qwhile_source(rng, max_loops=2, max_len=2)) for _ in range(30)]
        seen = set()
        for prog in programs:
            k = rng.randrange(prog.dim)
            sub = rng.choice([random_subspace(rng, prog.dim), span(tuple(int(i == k) for i in range(prog.dim)))])
            verdicts = check_exit_formulas(prog, sub)
            result = check_terminates(prog)
            eventually, always = verdicts.eventually.diagnostics, verdicts.always.witness
            ref = simulated_exit_answers(prog, sub)
            assert ref == {
                "terminates": (result.kind, result.step),
                "<>": (verdicts.eventually.status, eventually.get("step", eventually.get("conjunct"))),
                "[]": (verdicts.always.status, always and always["step"]),
                "<>~": verdicts.almost_eventually.status,
            }
            seen |= {ref["terminates"][0], ref["<>"][1], ("[]", ref["[]"][0]), ("<>~", ref["<>~"])}
        assert {"terminates", "almost_candidate", "no", "exact_exit", "arrivals"} <= seen
        assert {(shape, status) for shape in ("[]", "<>~") for status in ("valid", "not_valid")} <= seen

    def test_always_equals_the_check_on_the_whole_space(self):
        # [] p is the invariance of C^d off the exit and p at the exit on
        # C^(d |L|); the simulated reference gives the same verdict and the
        # same first failing step
        rng = random.Random(71)
        seen = set()
        for _ in range(40):
            dim = rng.choice([2, 3])
            prog = random_deterministic_program(rng, dim, rng.randint(1, 3))
            k = rng.randrange(dim)
            sub = rng.choice([random_subspace(rng, dim), span(tuple(int(i == k) for i in range(dim)))])
            status, step = simulated_exit_answers(prog, sub)["[]"]
            v = check_exit_always(prog, sub)
            assert v == check_invariance(to_automaton(prog), partial_correctness_subspace(prog, sub))
            assert (v.status, v.witness and v.witness["step"]) == (status, step)
            seen.add(status)
        assert seen == {"valid", "not_valid"}
        with pytest.raises(DimensionMismatch):
            check_exit_always(prog, Subspace.full(dim + 1))


class TestKleene:
    def test_stationary_entangled_state(self):
        phi = Mat.column([1, 0, 0, 1])
        rho = (phi @ phi.dagger()) * CRat(Fraction(1, 2))
        p = support(rho)
        v = kleene_always(SuperOp.identity(2), rho, p)
        assert v.is_valid

    def test_x_orbit_plane(self):
        rho = kron(KET0, KET0)  # |00><00|
        p = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 1, 0]])  # span{|00>, |10>}
        v = kleene_always(X_CONJ, rho, p)
        assert v.is_valid

    def test_x_orbit_escapes_line(self):
        rho = kron(KET0, KET0)
        p = Subspace.from_vectors(4, [[1, 0, 0, 0]])
        v = kleene_always(X_CONJ, rho, p)
        assert v.status == "not_valid" and v.witness["step"] == 1

    def test_t_cannot_shrink(self):
        rho = kron(KET0, KET0)
        p = Subspace.full(4)
        with pytest.raises(PreconditionViolated):
            kleene_always(X_CONJ, rho, p, t=1)
        assert kleene_always(X_CONJ, rho, p, t=7).is_valid

    def test_support_chain_matches_the_running_average(self):
        """Seeded joint states of rank one or two, under random channels and
        phase permutations, against propositions that hold a prefix of the
        orbit or are random: the verdict, witness step and diagnostics of the
        Kraus-image chain equal the dense running average's, for t at and
        above the bound."""
        rng = random.Random(3901)
        seen = collections.Counter()
        for trial in range(40):
            d, d_env = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
            n = d * d_env
            e = random_tp_channel(rng, d) if trial % 2 else SuperOp.from_unitary(random_phase_permutation(rng, d))
            vectors = [random_vector(rng, n) for _ in range(rng.randint(1, 2))]
            rho = mat_sum(v @ v.dagger() for v in vectors)
            rho = rho * CRat(1 / rho.trace().re)
            lifted = SuperOp([kron(k, Mat.eye(d_env)) for k in e.kraus], validate=False)
            orbit = [rho]
            for _ in range(rng.randint(0, 2 * d)):
                orbit.append(lifted.apply(orbit[-1]))
            p = support(mat_sum(orbit), validate=False) if trial % 3 else random_subspace(rng, n)
            for t in sorted({d * d - 1, d * d, d * d + 5, 3 * d * d}):
                verdict = kleene_always(e, rho, p, t=t)
                assert verdict == kleene_always_by_average(e, rho, p, t)
                seen[verdict.status, (verdict.witness or {}).get("step")] += 1
        assert {status for status, _ in seen} == {"valid", "not_valid"}
        assert {step for status, step in seen if status == "not_valid"} == {0, 1, 2}

    def test_joint_state_must_be_a_density_matrix(self):
        def diag(*xs):
            return Mat.from_rows([[x if i == j else 0 for j in range(4)] for i, x in enumerate(xs)])

        p = Subspace.full(4)
        for rho in (diag(1, -1, 1, 0), diag(1, 1, 0, 0)):
            with pytest.raises(PreconditionViolated):
                kleene_always(X_CONJ, rho, p)
        with pytest.raises(DimensionMismatch):
            kleene_always(X_CONJ, Mat.zeros(4, 2), p)


class TestHoare:
    def test_example_loop_partial_and_total(self, example_loop):
        pre = span((1, -1))
        post = span((1, 0))
        assert hoare_check(example_loop, pre, post, "partial").is_valid
        assert hoare_check(example_loop, pre, post, "total").is_valid

    def test_vacuous_precondition(self, example_loop):
        z = Subspace.zero(2)
        assert hoare_check(example_loop, z, Subspace.zero(2), "partial").is_valid
        assert hoare_check(example_loop, z, Subspace.zero(2), "total").is_valid

    def test_unknown_mode_is_refused(self, example_loop):
        with pytest.raises(PreconditionViolated, match="mode"):
            hoare_check(example_loop, Subspace.full(2), Subspace.full(2), "strict")

    def test_zero_post_fails_total(self):
        prog = compile_source("qubits 1;\nskip")
        v = hoare_check(prog, Subspace.full(2), Subspace.zero(2), "total")
        assert v.status == "not_valid"

    def test_quantified_over_basis(self, example_loop):
        # the full-space precondition includes |1>, which also converges to |0>
        v = hoare_check(example_loop, Subspace.full(2), span((1, 0)), "total")
        assert v.is_valid

    def test_one_instance_equals_the_basis_states(self):
        def basis_verdicts(program, pre, post, mode):
            decide = check_exit_always if mode == "partial" else check_exit_almost_eventually
            verdicts = []
            for idx in range(pre.dim):
                col = pre.rref[idx : idx + 1, :].transpose()
                rho = (col @ col.dagger()) * (CRat(1) / (col.dagger() @ col).entry(0, 0))
                verdicts.append(decide(program.with_initial_state(rho), post).is_valid)
            return verdicts

        rng = random.Random(61)
        seen = set()
        for _ in range(30):
            dim = rng.choice([2, 3])
            prog = random_deterministic_program(rng, dim, rng.randint(1, 3))
            pre = Subspace.full(dim) if rng.random() < 0.5 else random_subspace(rng, dim)
            if rng.random() < 0.7:
                kept = rng.sample(range(dim), rng.randrange(1, dim))
                post = Subspace.from_vectors(dim, [[int(i == j) for i in range(dim)] for j in kept])
            else:
                post = random_subspace(rng, dim)
            for mode in ("partial", "total"):
                verdicts = basis_verdicts(prog, pre, post, mode)
                status = hoare_check(prog, pre, post, mode).status
                assert status == ("valid" if all(verdicts) else "not_valid")
                seen.add((mode, status, len(set(verdicts))))
        # both verdicts in both modes, and basis states that disagree
        assert {(mode, status) for mode, status, _ in seen} == {
            (mode, status) for mode in ("partial", "total") for status in ("valid", "not_valid")
        }
        assert {mode for mode, _, kinds in seen if kinds == 2} == {"partial", "total"}


class TestOracle:
    def _atoms(self, dim=2):
        return {
            "p0": Atom("p0", span((1, 0)) if dim == 2 else span((1, 0, 0))),
            "p1": Atom("p1", span((0, 1)) if dim == 2 else span((0, 1, 0))),
        }

    def test_word_ab_violation(self):
        # violation exactly on the word a,b (and its extensions)
        swap01 = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        swap12 = Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        aut = QuantumAutomaton(
            3,
            {"a": SuperOp.from_unitary(swap01), "b": SuperOp.from_unitary(swap12)},
            Mat.unit(3, 0, 0),
        )
        plane = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        atoms = {"u": Atom("u", plane)}
        r = oracle_bfs(aut, Always(FAtom("u")), atoms, depth=6)
        assert r.status == "fails" and r.witness["word"] == ["a", "b"]
        # and the checker agrees, with a replayable witness
        v = check_invariance(aut, union(plane))
        assert v.status == "not_valid"
        states = replay_word(aut, v.witness["word"])
        assert not satisfies(states[-1], plane)

    def test_closure_gives_complete_answers(self, x_automaton):
        atoms = self._atoms()
        assert oracle_bfs(x_automaton, Always(Or(FAtom("p0"), FAtom("p1"))), atoms).status == "holds"
        assert oracle_bfs(x_automaton, Always(Eventually(FAtom("p0"))), atoms).status == "holds"
        assert oracle_bfs(x_automaton, Eventually(Always(FAtom("p0"))), atoms).status == "fails"
        assert oracle_bfs(x_automaton, Eventually(FAtom("p1")), atoms).status == "holds"
        assert (
            oracle_bfs(
                x_automaton, Always(Until(Or(FAtom("p0"), FAtom("p1")), FAtom("p1"))), atoms
            ).status
            == "holds"
        )

    def test_always_until_conjunction_is_conservative(self, x_automaton):
        # The decision procedure for [](phi U psi) checks the conjunction
        # "always phi" and "always eventually psi"; on paths where psi hits
        # without needing phi at the hit step the trace semantics can hold
        # even though the conjunction fails.  Valid answers stay sound.
        atoms = self._atoms()
        f = Always(Until(FAtom("p0"), FAtom("p1")))
        assert oracle_bfs(x_automaton, f, atoms).status == "holds"
        v = check_always_until(x_automaton, union(span((1, 0))), union(span((0, 1))))
        assert v.status == "not_valid"
        assert v.diagnostics["conjunct"] == "invariance"

    def test_budget_exceeded(self, x_automaton):
        # the budget ends the walk as the depth does: the root alone is
        # expanded, its X image refutes [] p0, and nothing refutes or
        # proves [] (p0 || p1) on the graph built so far
        atoms = self._atoms()
        r = oracle_bfs(x_automaton, Always(FAtom("p0")), atoms, depth=12, budget=1)
        assert r.status == "fails" and r.witness["word"] == ["x"] and not r.closed
        r = oracle_bfs(x_automaton, Always(Or(FAtom("p0"), FAtom("p1"))), atoms, depth=12, budget=1)
        assert r.status == "inconclusive" and not r.closed

    def test_lassos_replay(self, x_automaton):
        atoms = self._atoms()
        r = oracle_bfs(x_automaton, Eventually(Always(FAtom("p0"))), atoms)
        assert r.status == "fails"
        prefix, cycle = r.witness["prefix"], r.witness["cycle"]
        states = replay_word(x_automaton, prefix + cycle)
        assert states[len(prefix)] == states[-1]  # exact recurrence
        assert not satisfies(states[len(prefix)], span((1, 0)))


def _has_cycle_by_enumeration(successors, allowed):
    """Some sequence of distinct allowed nodes v1 .. vk with edges
    v1 -> v2 -> ... -> vk -> v1, found by trying every such sequence."""
    targets = {v: {w for _, w in successors.get(v, ())} for v in allowed}
    return any(
        all(seq[(i + 1) % k] in targets[seq[i]] for i in range(k))
        for k in range(1, len(allowed) + 1)
        for seq in itertools.permutations(sorted(allowed), k)
    )


class TestFindCycle:
    def test_agrees_with_enumeration_on_random_digraphs(self):
        rng = random.Random(1515)
        found = 0
        for _ in range(600):
            n = rng.randint(1, 6)
            successors = {}
            for v in range(n):
                if rng.random() < 0.8:  # a node the map lacks has no edges
                    labels = rng.sample("abc", rng.randint(0, 3))
                    successors[v] = [(label, rng.randrange(n)) for label in labels]
            allowed = {v for v in range(n) if rng.random() < 0.7}
            cycle = find_cycle(successors, allowed)
            if not _has_cycle_by_enumeration(successors, allowed):
                assert cycle is None
                continue
            found += 1
            assert cycle
            sources = [v for v, _, _ in cycle]
            assert set(sources) <= allowed and len(set(sources)) == len(sources)
            for (v, label, w), (nxt, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
                assert (label, w) in successors[v]
                assert w == nxt  # consecutive edges meet, and the last closes
        assert found >= 150


class TestInitialSupport:
    """The root of every support graph and of the satisfaction shape: the
    support of the initial state, known from validation at full rank."""

    def test_full_rank_state_gives_the_full_coordinate_root(self):
        rng = random.Random(3130)
        full = 0
        for _ in range(20):
            dim = rng.choice([2, 3, 4])
            a = random_automaton(rng, dim, 1)
            expected = support(a.initial_state)
            if a._support is not None:
                full += 1
                assert a._support == Subspace.full(dim) and a._support.is_coordinate()
            root = checker._initial_support(a)
            assert root == expected and checker._initial_support(a) is root
        assert full >= 10

    def test_low_rank_and_program_states_are_eliminated_once(self, example_loop, monkeypatch):
        pure = QuantumAutomaton(2, {"x": X_CONJ}, Mat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]))
        calls = []
        monkeypatch.setattr(checker, "support", lambda *args, **kw: calls.append(1) or support(*args, **kw))
        for a in (pure, to_automaton(example_loop)):
            assert a._support is None
            root = checker._initial_support(a)
            assert root == support(a.initial_state) and root.dim == 1
            assert checker._initial_support(a) is root
        assert len(calls) == 2


def _loop_atoms(loop):
    """The atoms p and exit0 of the example loop, as in demos/example1_atoms.json."""
    return {
        "p": Atom("p", partial_correctness_subspace(loop, span((1, 0)))),
        "exit0": Atom("exit0", exit_atom_subspace(loop, span((1, 0)))),
    }


class TestCheck:
    def test_examples_name_their_shape(self):
        atoms = {name: Atom(name, span((1, 0))) for name in ("p0", "p1", "pp")}
        for shape, texts in SHAPE_EXAMPLES.items():
            for text in texts:
                assert _classify(parse_formula(text, atoms), atoms, 2)[0] == shape

    @pytest.mark.parametrize("text", UNSUPPORTED_FORMULAS)
    def test_unsupported_shape(self, example_loop, text):
        atoms = _loop_atoms(example_loop)
        node = parse_formula(text, atoms)
        with pytest.raises(UnsupportedFormula, match="decidable fragment"):
            check(example_loop, node, atoms)
        assert oracle_bfs(example_loop, node, atoms).status == "inconclusive"

    def test_bad_library_inputs_raise_qtl_errors(self, example_loop):
        # formula text, or a formula with a non-formula inside, is no parsed
        # formula; None is neither a program nor an automaton
        atoms = _loop_atoms(example_loop)
        for formula in ("[] <> p", Always(Eventually("p")), None):
            with pytest.raises(UnsupportedFormula, match="not a formula"):
                check(example_loop, formula, atoms)
        for target in (None, "example1.json", to_automaton(example_loop).actions):
            with pytest.raises(PreconditionViolated, match="program or a quantum automaton"):
                check(target, parse_formula("[] p", atoms), atoms)

    def test_matches_the_procedures(self, example_loop):
        atoms = _loop_atoms(example_loop)
        aut = to_automaton(example_loop)
        p = atoms["p"].subspace

        def run(text):
            return check(example_loop, parse_formula(text, atoms), atoms)

        assert run("[] p") == check_invariance(aut, p)
        assert run("<> [] p") == check_eventually_always(aut, p)
        assert run("<> exit0") == check_exit_eventually(example_loop, span((1, 0)))
        assert run("<>~ exit0") == check_exit_almost_eventually(example_loop, span((1, 0)))
        assert run("<> p").status == "unknown"
        assert run("p U exit0").status == "unknown"

    def test_repeated_queries_reuse_the_channel_images(self, monkeypatch):
        # each action memoizes its images and (through its dual) pre-images,
        # so asking the same questions of the same automaton again computes
        # no image, by the Kraus stack or by the coordinate read-off, and
        # returns the same verdicts
        # a depth-2 invariance chain; both verdicts are refuted with witnesses
        rng = random.Random(28)
        aut = random_automaton(rng, 3, 2)
        atoms = {"u": Atom("u", random_subspace(rng, 3, 2))}
        calls = []
        compute = SuperOp._image

        def counted(e, p):
            calls.append(p.dim)
            return compute(e, p)

        monkeypatch.setattr(SuperOp, "_image", counted)

        def run():
            return [check(aut, parse_formula(text, atoms), atoms) for text in ("[] u", "<> [] u")]

        first = run()
        made = len(calls)
        second = run()
        assert made > 0 and len(calls) == made
        # verdicts compare status, witness, certificate and diagnostics
        assert second == first

    def test_agrees_with_oracle(self, x_automaton, example_loop):
        # wherever the oracle decides, the checker does not contradict it;
        # the conjunction semantics of [] (f U g) may refute what the trace
        # semantics holds (test_always_until_conjunction_is_conservative)
        lines = {"p0": span((1, 0)), "p1": span((0, 1)), "pp": span((1, 1))}
        rng = random.Random(5)
        targets = [(x_automaton, lines)]
        targets += [(random_automaton(rng, 2, rng.randint(1, 3)), lines) for _ in range(10)]
        # on the loop, p0 and pp are exit-shaped, p1 is partial correctness
        targets.append((example_loop, {
            "p0": exit_atom_subspace(example_loop, span((1, 0))),
            "p1": partial_correctness_subspace(example_loop, span((1, 0))),
            "pp": exit_atom_subspace(example_loop, span((0, 1))),
        }))
        decided = {shape: 0 for shape in SHAPE_EXAMPLES}
        for target, subspaces in targets:
            atoms = {name: Atom(name, sub) for name, sub in subspaces.items()}
            for shape, texts in SHAPE_EXAMPLES.items():
                for text in texts:
                    node = parse_formula(text, atoms)
                    verdict = check(target, node, atoms)
                    oracle = oracle_bfs(target, node, atoms, depth=6).status
                    if verdict.status == "valid":
                        assert oracle != "fails", (target, text)
                    elif verdict.status == "not_valid" and shape != "[] (f U g)":
                        assert oracle != "holds", (target, text)
                    decided[shape] += verdict.status != "unknown" and oracle != "inconclusive"
        assert all(decided[shape] for shape in ("f", "X f", "[] f", "[] <> f", "<> [] f", "<> f"))


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


class TestAlmostSureExit:
    """The lattice test R ^ T = 0 of the exit loop and the exact reach
    state against the solve of the split cut on the block space: the exact
    trace and reach state where nothing is peripheral, and the float trace
    (within 1e-7 of one) where the split is numeric."""

    @staticmethod
    def _agrees(prog):
        loop = bohm_jacopini(prog)
        r = reachability_superop(prog)
        assert (r.reach_state.trace() == 1) == loop.exits_almost_surely == r.almost_terminates
        _assert_channel_gives_reach_block(r, prog)
        cut = block_space_cut(prog)
        try:
            split = float_peripheral_split(cut)
        except ToleranceAmbiguity:
            return None
        w = solve(Mat.eye(cut.rows) - split.stable_part, block_vector(prog, initial_cq(prog)))
        d2, e = prog.dim**2, prog.config_index(prog.exit_location)
        block = unvec(w[e * d2 : (e + 1) * d2, :], prog.dim)
        exact = split.peripheral_projector.is_zero()
        almost = block.trace() == CRat(1) if exact else abs(float(block.trace().re) - 1.0) <= 1e-7
        assert loop.exits_almost_surely == almost
        if exact:
            assert r.reach_state == loop.exit_embedded(block)
        return exact, almost

    @PROPERTY
    @given(st.integers(0, 2**32 - 1).map(random.Random))
    def test_random_programs(self, rng):
        dim = rng.choice([2, 3])
        self._agrees(random_deterministic_program(rng, dim, rng.randint(1, 3), rng.random() < 0.7))

    def test_terminating_and_trapped_programs(self):
        programs = [prog for prog, _ in terminating_programs(seed=71, count=8)]
        programs += [compile_source(src) for src in (NEVER_EXITS_SRC, PARTIALLY_TRAPPED_SRC, UNREACHED_TRAP_SRC)]
        outcomes = [self._agrees(prog) for prog in programs]
        # terminating: almost sure, whether or not an unreachable part of
        # the cut is peripheral
        assert all(almost for _, almost in outcomes[:8])
        assert outcomes[8:] == [(False, False), (False, False), (False, True)]

    @pytest.mark.parametrize("seed", [71, 72, 75, 77])
    def test_expected_steps_against_the_exit_series(self, seed):
        # a program that terminates exactly at step n exits with mass
        # m_k - m_(k-1) at step k <= n, m_k the exact exit trace after k
        # steps, and with none later: its expected number of steps is the
        # finite sum of k (m_k - m_(k-1)), which checks the tail sum that
        # reachability_superop reads off its one solve, Sum_k P(T > k)
        for prog, step in terminating_programs(seed=seed, count=8, min_step=2):
            series = normal_form_exit_series(bohm_jacopini(prog), embed(initial_cq(prog), prog), step + 2)
            masses = [m.trace() for m in series]
            assert all(m.im == 0 for m in masses) and masses[-1] == masses[step] == 1
            brute = sum(k * (masses[k].re - masses[k - 1].re) for k in range(1, len(masses)))
            assert reachability_superop(prog).expected_steps == float(brute)


class TestRandomReachability:
    def test_resolvent_matches_power_iteration(self):
        # with a clear stable gap the exact reach state stays within 2^-24
        # of 64 exact steps of the program itself
        import numpy as np
        from helpers import random_deterministic_program
        from qtl.program import simulate_deterministic

        rng = random.Random(99)
        checked = 0
        while checked < 12:
            prog = random_deterministic_program(rng, 2, rng.randint(1, 3))
            r = reachability_superop(prog)
            _assert_channel_gives_reach_block(r, prog)
            m1 = bohm_jacopini(prog).m1
            moduli = np.abs(np.linalg.eigvals((step_superop(prog).matrix_rep() @ kron(m1, m1)).to_complex()))
            radius = max(moduli[moduli < 1 - 1e-9], default=0.0)
            if radius > 0.9:  # spectral gap below 0.1: convergence too slow at 64 steps
                continue
            checked += 1
            sigma64 = simulate_deterministic(prog, 64)[-1]
            exit_block = embed(
                type(sigma64)(prog.dim, {"exit": sigma64.block("exit")}, validate=False),
                prog,
            )
            diff = exit_block.to_complex() - r.reach_state.to_complex()
            assert np.sum(np.linalg.svd(diff, compute_uv=False)) < 2**-24
            if r.expected_steps != float("inf"):
                assert r.almost_terminates


class TestConcurrentChecking:
    def test_invariance_against_oracle(self):
        # the nondeterministic two-process system from the program tests,
        # checked on its embedding
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement
        from qtl.formula import atom_from_blocks

        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        x_conj = SuperOp.from_unitary(PAULI_X)
        p1 = ConcurrentProcess(
            ("p", "q"),
            {
                "p": LocationAction(x_conj, meas, {0: (("q", 2),), 1: (("q", 2),)}),
                "q": LocationAction(SuperOp.identity(2), meas, {0: (("q", 2),), 1: (("q", 2),)}),
            },
        )
        p2 = ConcurrentProcess(
            ("s", "t"),
            {
                "s": LocationAction(
                    SuperOp.identity(2), meas, {0: (("s", 1), ("t", 2)), 1: (("t", 1),)}
                ),
                "t": LocationAction(SuperOp.identity(2), meas, {0: (("t", 2),), 1: (("t", 2),)}),
            },
        )
        prog = ConcurrentProgram(2, (p1, p2), KET0, ("p", "s"), 1)
        aut = to_automaton(prog)
        assert len(aut.actions) == 2
        blocks0 = {config: span((1, 0)) for config in prog.configs()}
        blocks1 = {config: span((0, 1)) for config in prog.configs()}
        a0 = atom_from_blocks("all0", blocks0, prog)
        a1 = atom_from_blocks("all1", blocks1, prog)
        u = union(a0.subspace, a1.subspace)
        v = check_invariance(aut, u)
        assert v.is_valid  # the shared qubit stays a basis state
        r = oracle_bfs(aut, Always(Or(FAtom("all0"), FAtom("all1"))), {"all0": a0, "all1": a1})
        assert r.status == "holds"
        # but it is not invariantly |0>
        v0 = check_invariance(aut, union(a0.subspace))
        assert v0.status == "not_valid"
        states = replay_word(aut, v0.witness["word"])
        assert not satisfies(states[-1], a0.subspace)


class TestRandomAgreement:
    def test_invariance_against_oracle(self):
        rng = random.Random(42)
        for _ in range(15):
            dim = rng.choice([2, 3])
            aut = random_automaton(rng, dim, rng.randint(1, 3))
            u = basis_union(rng, dim)
            verdict = check_invariance(aut, u)
            atom_table = {f"m{i}": Atom(f"m{i}", m) for i, m in enumerate(u.members)}
            f = None
            for name in atom_table:
                f = FAtom(name) if f is None else Or(f, FAtom(name))
            r = oracle_bfs(aut, Always(f), atom_table, depth=10)
            if verdict.is_valid:
                assert r.status != "fails"
            else:
                assert r.status != "holds"
                states = replay_word(aut, verdict.witness["word"])
                assert not u.contains_subspace(support(states[-1], validate=False))
