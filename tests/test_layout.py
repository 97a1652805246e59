"""The embedded layout, stated once in ``qtl.program``, against its
Kronecker-product definition (``helpers.kron_*``).

Entry h of configuration c's block sits at h * |configs| + c: the block of
c is block (x) |c><c| on H (x) C^|configs|.  ``program.coordinates``,
``program.place_blocks`` and ``program.place_subspaces`` state the layout;
every reader of it must agree with the Kronecker reference, the operators
they build must come out of d x d Kraus stacks with no Mat product, and
subspaces are placed without placing an operator.  The exit loop's location blocks, placed,
must equal the fixpoints of the dense cut body on the embedded space
(``helpers.dense_*``).
"""

import json
import pathlib
import random
import runpy
import sys
from fractions import Fraction

import pytest

import qtl.program as program
import qtl.qwhile as qwhile
from qtl import jsonio
from qtl.checker import (
    _exit_shaped,
    check,
    check_exit_almost_eventually,
    check_exit_eventually,
    check_terminates,
    exit_atom_subspace,
    partial_correctness_subspace,
    reachability_superop,
)
from qtl.formula import atom_from_blocks, parse_formula
from qtl.linalg import CRat, Mat
from qtl.program import (
    LocationAction,
    SequentialProgram,
    _selector_assignments,
    _selector_name,
    embed,
    extract,
    initial_cq,
    place_subspaces,
    selector_successors,
    step_superop,
    to_automaton,
)
from qtl.qwhile import WhileNormalForm, compile_qwhile, compile_source, parse
from qtl.subspace import Subspace, SubspaceUnion
from qtl.superop import Measurement, SuperOp, _Stack, image, preimage

from helpers import (
    EXAMPLE_LOOP_SRC,
    THREE_QUBIT_LOOP_SRC,
    TWO_QUBIT_LOOP_SRC,
    dense_cut_body,
    dense_exit_lattice,
    dense_reachability,
    kron_atom,
    kron_embed,
    kron_exit_guard,
    kron_exit_shaped,
    kron_extract,
    kron_step_kraus,
    random_concurrent_program,
    random_deterministic_program,
    random_pure_state,
    random_qwhile_source,
    random_subspace,
    sliced_compression,
    stacked_compressed_cut,
    with_second_target,
)

DEMO_05 = pathlib.Path(__file__).resolve().parent.parent / "demos" / "05_concurrent_scheduler.py"


@pytest.fixture(scope="module")
def scheduler():
    return runpy.run_path(str(DEMO_05))["program"]


def _sequential(rng):
    """Seeded deterministic programs with exit, each also with a second
    target at one location (so half of them branch)."""
    for _ in range(5):
        prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3))
        yield prog
        yield with_second_target(rng, prog)


def _concurrent(rng, scheduler):
    yield scheduler
    for _ in range(5):
        yield random_concurrent_program(rng, rng.choice([2, 3]), rng.randint(1, 2))


def _exit_only(dim=2):
    exit_act = LocationAction(SuperOp.identity(dim), Measurement.trivial(dim), {0: ("exit",)})
    return SequentialProgram(dim, ("exit",), {"exit": exit_act}, Mat.unit(dim, 0, 0), "exit", "exit")


def _loops(rng):
    """Deterministic programs with exit: random ones, compiled Q-While
    sources, the example loop and the exit-only program."""
    for _ in range(4):
        yield random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3))
    for _ in range(3):
        yield compile_source(random_qwhile_source(rng, max_loops=1, max_len=2, max_locations=6))
    yield compile_source(EXAMPLE_LOOP_SRC)
    yield _exit_only()


def _loop_family():
    return [compile_source(src) for src in (EXAMPLE_LOOP_SRC, TWO_QUBIT_LOOP_SRC, THREE_QUBIT_LOOP_SRC)]


class TestAgainstKronecker:
    def _check_program(self, prog):
        automaton = to_automaton(prog)
        selectors = _selector_assignments(prog, 4096)
        assert list(automaton.actions) == list(dict.fromkeys(_selector_name(prog, sel) for sel in selectors))
        for sel in selectors:
            assert list(automaton.actions[_selector_name(prog, sel)].kraus) == kron_step_kraus(prog, sel)
        if prog.deterministic:
            assert list(step_superop(prog).kraus) == kron_step_kraus(prog, selectors[0])
        state = initial_cq(prog)
        assert automaton.initial_state == kron_embed(state, prog)
        for _ in range(3):
            for nxt in selector_successors(prog, state):
                emb = embed(nxt, prog)
                assert emb == kron_embed(nxt, prog)
                assert extract(emb, prog) == nxt == kron_extract(emb, prog)
            state = nxt

    def test_sequential_programs(self):
        rng = random.Random(2501)
        for prog in _sequential(rng):
            self._check_program(prog)

    def test_concurrent_programs(self, scheduler):
        rng = random.Random(2502)
        for prog in _concurrent(rng, scheduler):
            self._check_program(prog)

    def test_atoms_with_non_coordinate_blocks(self, scheduler):
        """Zero blocks, omitted configurations, and complex blocks mixed with
        coordinate ones: the placed rows are the RREF of the Kronecker span."""
        rng = random.Random(2503)
        programs = list(_sequential(rng))[::2] + list(_concurrent(rng, scheduler))
        for prog in programs:
            configs, d = prog.configs(), prog.dim
            for _ in range(4):
                blocks = {}
                for c in rng.sample(configs, rng.randint(0, len(configs))):
                    kind = rng.choice(["zero", "coordinate", "real", "complex"])
                    if kind == "coordinate":
                        blocks[c] = Subspace(d, None, tuple(sorted(rng.sample(range(d), rng.randint(0, d)))))
                    else:
                        blocks[c] = random_subspace(rng, d, 0 if kind == "zero" else rng.randint(1, d), kind == "real")
                atom, expected = atom_from_blocks("a", blocks, prog).subspace, kron_atom(blocks, prog)
                assert atom.rref == expected.rref and atom.key() == expected.key()
                blocks = {c: Subspace.full(d) for c in blocks}
                assert atom_from_blocks("b", blocks, prog).subspace == kron_atom(blocks, prog)

    def test_cut_body_keeps_images_and_preimages(self):
        """The dense cut body (the test reference) is the body after m1, and
        the exit loop's edge channels give its images and pre-images of
        direct sums of location blocks, block by block."""
        rng = random.Random(2504)
        for prog in _loops(rng):
            loop, cut = WhileNormalForm(prog), dense_cut_body(prog)
            m1 = Mat.eye(loop.m0.rows) - kron_exit_guard(prog)
            reference = SuperOp([k @ m1 for k in loop.body_channel.kraus], validate=False)
            n, d = reference.dim_in, prog.dim
            assert cut.dim_in == cut.dim_out == n
            subspaces = [Subspace.zero(n), Subspace.full(n), place_subspaces(prog, loop.reachable)]
            subspaces += [random_subspace(rng, n, rng.randint(1, n)) for _ in range(3)]
            for s in subspaces:
                assert image(cut, s) == image(reference, s)
                assert preimage(cut, s) == preimage(reference, s)
            for _ in range(4):
                blocks = {c: random_subspace(rng, d, rng.randint(0, d)) for c in prog.locations}
                placed = place_subspaces(prog, blocks)
                assert place_subspaces(prog, loop._push(blocks)) == image(cut, placed)
                pulled = {c: loop._pull(c, blocks) if c in loop.edges else Subspace.full(d) for c in prog.locations}
                assert place_subspaces(prog, pulled) == preimage(cut, placed)

    def test_exit_only_cut_body_is_the_zero_channel(self):
        prog = _exit_only(3)
        cut, loop = dense_cut_body(prog), WhileNormalForm(prog)
        assert [k.is_zero() for k in cut.kraus] == [True]
        assert cut.dim_in == 3
        assert image(cut, Subspace.full(3)).is_zero()
        assert preimage(cut, Subspace.zero(3)).is_full()
        assert loop.edges == {}
        assert loop.exits_almost_surely and loop.exit_step == 0

    def test_exit_shaped_matches_the_guard_test(self):
        rng = random.Random(2505)
        for prog in _loops(rng):
            d, n = prog.dim, prog.dim * len(prog.locations)
            props = []
            for _ in range(2):
                exit_sub = random_subspace(rng, d, rng.randint(0, d))
                props += [exit_atom_subspace(prog, exit_sub), partial_correctness_subspace(prog, exit_sub)]
            props += [random_subspace(rng, n, rng.randint(0, n)) for _ in range(3)]
            for p in props:
                expected = kron_exit_shaped(p, prog)
                assert _exit_shaped(p, prog) == expected
                assert _exit_shaped(SubspaceUnion(n, [p]), prog) == expected
        branching = with_second_target(rng, random_deterministic_program(rng, 2, 2))
        assert _exit_shaped(exit_atom_subspace(branching, Subspace.full(2)), branching) is None


class TestNoEmbeddedProducts:
    """Building the automaton and the cut body's edge channels multiplies
    no Mat at all: their outcome channels are products of Kraus stacks.
    The lattice read off the edges multiplies d x d blocks only, never an
    operand of the embedded dimension D."""

    @staticmethod
    def _count(monkeypatch, dim):
        seen = {"all": 0, "embedded": 0}
        matmul = Mat.__matmul__

        def counting(a, b):
            seen["all"] += 1
            seen["embedded"] += dim in (a.rows, a.cols, b.rows, b.cols)
            return matmul(a, b)

        monkeypatch.setattr(Mat, "__matmul__", counting)
        return seen

    @pytest.mark.parametrize("which", ["scheduler", "loop"])
    def test_to_automaton(self, monkeypatch, scheduler, which):
        prog = scheduler if which == "scheduler" else compile_source(EXAMPLE_LOOP_SRC)
        seen = self._count(monkeypatch, prog.dim * len(prog.configs()))
        to_automaton(prog)
        assert seen["all"] == 0

    def test_one_outcome_table_read_per_action(self, monkeypatch, scheduler):
        """``to_automaton`` reads the outcome channels of each distinct
        action once, at its first configuration in configuration order,
        however many configurations share it and however many selectors
        place them."""
        rng = random.Random(2509)
        programs = [scheduler]
        while len(programs) < 5:
            prog = random_concurrent_program(rng, 2, 2)
            if not prog.deterministic:
                programs.append(prog)
        rows, exact = [], program.outcome_channels
        monkeypatch.setattr(program, "outcome_channels", lambda prog, c: rows.append(c) or exact(prog, c))
        shared = 0
        for prog in programs:
            assert len(to_automaton(prog).actions) >= 2
            first = {}
            for c in prog.configs():
                first.setdefault(id(prog._action(c)), c)
            assert rows == list(first.values())
            shared += len(first) < len(prog.configs())
            rows.clear()
        assert shared

    def test_checks_form_no_embedded_kraus_mat(self, monkeypatch, scheduler):
        """``check`` of [] f, <>[] f and []<> f reads the actions' Kraus
        stacks only: no D x D Kraus Mat is formed from a stack or scanned
        into one, and the only placed Mat is the initial state."""
        rng = random.Random(2510)
        programs = [scheduler] + [random_concurrent_program(rng, 2, 2) for _ in range(3)]
        programs += [random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3)) for _ in range(4)]
        widths, placed = [], []
        mats, of, place = _Stack.mats, _Stack.of, program.place_blocks
        monkeypatch.setattr(_Stack, "mats", lambda st: widths.append(st.dim_out) or mats(st))
        monkeypatch.setattr(_Stack, "of", staticmethod(lambda kraus: widths.append(kraus[0].rows) or of(kraus)))
        monkeypatch.setattr(program, "place_blocks", lambda prog, blocks: placed.append(set(blocks)) or place(prog, blocks))
        for prog in programs:
            size = prog.dim * len(prog.configs())
            blocks = {c: random_subspace(rng, prog.dim, rng.randint(1, prog.dim)) for c in prog.configs()}
            atoms = {"f": atom_from_blocks("f", blocks, prog)}
            for text in ("[] f", "<>[] f", "[]<> f"):
                check(prog, parse_formula(text, atoms), atoms)
            assert size not in widths
            assert placed and all(b == {prog.initial_config()} for b in placed)
            widths.clear(), placed.clear()

    def test_lattice_places_no_operator(self, monkeypatch, scheduler):
        """Atoms and the exit loop's four lattice properties place subspaces
        block by block: no module places an operator (``place_blocks``, and
        through it ``embed``) or forms a block projector for them."""
        rng = random.Random(2506)
        loops = [WhileNormalForm(prog) for prog in _loops(rng)]
        atoms = [(prog, {c: random_subspace(rng, prog.dim, 1) for c in prog.configs()[::2]})
                 for prog in [scheduler] + [loop.program for loop in loops]]
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("qtl.")]:
            if hasattr(module, "place_blocks"):
                placed = module.place_blocks
                monkeypatch.setattr(module, "place_blocks", lambda *a, f=placed: calls.append("place_blocks") or f(*a))
        projector = Subspace.projector
        monkeypatch.setattr(Subspace, "projector", property(lambda s: calls.append("projector") or projector.fget(s)))
        for prog, blocks in atoms:
            assert atom_from_blocks("a", blocks, prog).subspace.dim == sum(s.dim for s in blocks.values())
        for loop in loops:
            for name in ("reachable", "trapped", "input_reachable", "input_trapped"):
                blocks = getattr(loop, name)
                assert list(blocks) == list(loop.program.locations)
                assert all(isinstance(b, Subspace) and b.ambient_dim == loop.program.dim for b in blocks.values())
        assert calls == []

    def test_to_automaton_forms_no_kraus_mat(self, monkeypatch, scheduler):
        """``to_automaton`` of the scheduler and of the example loop, built
        from Mats or read from a file, forms no Kraus or measurement Mat
        (``_Stack.mats``), scans none into a stack (``_Stack.of``) and
        multiplies no Mat."""
        programs = []
        for prog in (scheduler, compile_source(EXAMPLE_LOOP_SRC)):
            programs += [prog, jsonio.program_from_json(json.loads(jsonio.dumps(jsonio.program_to_json(prog))))]
        calls = []
        mats, of = _Stack.mats, _Stack.of
        monkeypatch.setattr(_Stack, "mats", lambda st: calls.append("mats") or mats(st))
        monkeypatch.setattr(_Stack, "of", staticmethod(lambda kraus: calls.append("of") or of(kraus)))
        seen = self._count(monkeypatch, None)
        for prog in programs:
            to_automaton(prog)
        assert calls == [] and seen["all"] == 0

    def test_cut_body(self, monkeypatch):
        """The cut body as edge channels multiplies no Mat, and the lattice
        read off it d x d blocks only."""
        prog = compile_source(EXAMPLE_LOOP_SRC)
        loop = WhileNormalForm(prog)
        seen = self._count(monkeypatch, prog.dim * len(prog.locations))
        loop.edges
        assert seen["all"] == 0
        loop.input_trapped, loop.trapped, loop.exit_step
        assert seen["embedded"] == 0

    def test_exit_questions_stay_on_blocks(self, monkeypatch):
        """The reach solve, the exit checks and termination build neither
        the one-step channel nor the automaton, place nothing but the reach
        state's exit block, and take images and pre-images of d x d
        channels only."""
        rng = random.Random(2507)
        programs = list(_loops(rng)) + _loop_family()[1:]
        placed, dims = [], []

        def forbidden(*args):
            raise AssertionError("built a channel on the embedded space")

        for module in [m for name, m in sys.modules.items() if name.startswith("qtl.")]:
            for name in ("step_superop", "to_automaton"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
            if hasattr(module, "place_blocks"):
                f = module.place_blocks
                monkeypatch.setattr(module, "place_blocks", lambda prog, blocks, f=f: placed.append(set(blocks)) or f(prog, blocks))
            for name in ("image", "preimage"):
                if hasattr(module, name):
                    f = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda e, p, f=f: dims.append(e.dim_in) or f(e, p))
        for prog in programs:
            exit_sub = random_subspace(rng, prog.dim, rng.randint(0, prog.dim))
            check_exit_eventually(prog, exit_sub)
            check_exit_almost_eventually(prog, exit_sub)
            check_terminates(prog)
            assert placed == []
            reachability_superop(prog)
            assert placed == [{prog.exit_location}]
            assert set(dims) <= {prog.dim}
            placed.clear(), dims.clear()


class TestFrontEndCost:
    """The Q-While front end reads matrix literals as text, as the JSON
    reader reads a file's, and checks declarations on Kraus stacks:
    parsing the 3-qubit loop multiplies no Mat and makes one Fraction per
    sqrt(...) prefix and none per entry, and compiling it multiplies no Mat
    and lifts its operators onto the register with no CRat."""

    def test_parse(self, monkeypatch):
        seen = TestNoEmbeddedProducts._count(monkeypatch, None)
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
        prog = parse(THREE_QUBIT_LOOP_SRC)
        assert seen["all"] == 0
        assert len(made) <= THREE_QUBIT_LOOP_SRC.count("sqrt(") == 1
        assert prog.dim == 8 and prog.unitaries["U"][1] == Fraction(1, 2)

    def test_compile(self, monkeypatch):
        ast = parse(THREE_QUBIT_LOOP_SRC)
        seen = TestNoEmbeddedProducts._count(monkeypatch, None)
        made, per_lift = [], []
        init, lift = CRat.__init__, qwhile.lift_operator
        monkeypatch.setattr(CRat, "__init__", lambda c, *a: made.append(a) or init(c, *a))

        def counting(*args):
            before = len(made)
            out = lift(*args)
            per_lift.append(len(made) - before)
            return out

        monkeypatch.setattr(qwhile, "lift_operator", counting)
        compile_qwhile(ast)
        assert seen["all"] == 0
        assert per_lift and set(per_lift) == {0}


class TestBlocksAgainstDense:
    """The exit loop's location blocks and the reach solve on them against
    the fixpoints of the dense cut body on C^D and the solve over their
    sliced compression (``helpers.dense_exit_lattice``,
    ``helpers.dense_reachability``): on the loop family (q = 1-3) and on
    300 seeded programs, some with no guaranteed exit."""

    @staticmethod
    def _programs():
        """Half of the random programs start from a pure state, so that
        their blocks leave the coordinate lattice."""
        rng = random.Random(2508)
        programs = _loop_family()
        for k in range(300):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.random() < 0.8)
            programs.append(prog.with_initial_state(random_pure_state(rng, prog.dim)) if k % 2 else prog)
        return rng, programs

    def test_lattice_and_exit_answers(self):
        rng, programs = self._programs()
        for prog in programs:
            loop, dense = WhileNormalForm(prog), dense_exit_lattice(prog)
            for name in ("reachable", "input_reachable", "trapped", "input_trapped"):
                assert place_subspaces(prog, getattr(loop, name)) == dense[name]
            arrivals, step, trapped = dense["arrivals"], dense["exit_step"], dense["trapped"]
            assert (loop.arrivals, loop.exit_step, loop.exits_almost_surely) == (arrivals, step, trapped.is_zero())
            exit_sub = random_subspace(rng, prog.dim, rng.randint(0, prog.dim))
            if step is None:
                eventually = ("not_valid", {"conjunct": "exact_exit"})
            elif not exit_sub.contains(arrivals):
                eventually = ("not_valid", {"conjunct": "arrivals"})
            else:
                eventually = ("valid", {"step": step})
            verdict = check_exit_eventually(prog, exit_sub)
            assert (verdict.status, verdict.diagnostics, verdict.witness) == (*eventually, None)
            almost = "valid" if exit_sub.contains(arrivals) and trapped.is_zero() else "not_valid"
            dims = {"reachable_dim": dense["reachable"].dim, "trapped_dim": trapped.dim}
            verdict = check_exit_almost_eventually(prog, exit_sub)
            assert (verdict.status, verdict.diagnostics, verdict.witness) == (almost, dims, None)
            kind = "terminates" if step is not None else "no" if arrivals.is_zero() else "almost_candidate"
            assert (check_terminates(prog).kind, check_terminates(prog).step) == (kind, step)

    def test_reach_solve(self):
        """``compression`` reads the sliced blocks, the one grid of
        ``identity_minus_compressed_cut`` equals I minus the block-by-block
        stacking exactly, and F, the expected steps and almost-sure exit
        equal the dense path's."""
        _, programs = self._programs()
        for prog in programs:
            loop = WhileNormalForm(prog)
            kept = {c: r.meet(loop.input_trapped[c].complement()) for c, r in loop.input_reachable.items()}
            parts = loop.compression(kept)
            assert parts == sliced_compression(prog, place_subspaces(prog, kept))
            n = sum(v.cols**2 for v, _ in parts)
            assert loop.identity_minus_compressed_cut(parts) == Mat.eye(n) - stacked_compressed_cut(prog, parts)
            r = reachability_superop(prog)
            assert (r.channel.m, r.expected_steps, r.almost_terminates) == dense_reachability(prog)
