"""The embedded layout, stated once in ``qtl.program``, against its
Kronecker-product definition (``helpers.kron_*``).

Entry h of configuration c's block sits at h * |configs| + c: the block of
c is block (x) |c><c| on H (x) C^|configs|.  ``program.coordinates``,
``program.place_blocks`` and ``program.place_subspaces`` state the layout;
every reader of it must agree with the Kronecker reference, the operators
they build must come out of d x d products only, and subspaces are placed
without placing an operator.
"""

import pathlib
import random
import runpy
import sys

import pytest

from qtl.checker import _exit_shaped, exit_atom_subspace, partial_correctness_subspace
from qtl.formula import atom_from_blocks
from qtl.linalg import Mat
from qtl.program import (
    LocationAction,
    SequentialProgram,
    _selector_assignments,
    _selector_name,
    embed,
    extract,
    initial_cq,
    selector_successors,
    step_superop,
    to_automaton,
)
from qtl.qwhile import WhileNormalForm, compile_source
from qtl.subspace import Subspace, SubspaceUnion
from qtl.superop import Measurement, SuperOp, image, preimage

from helpers import (
    EXAMPLE_LOOP_SRC,
    kron_atom,
    kron_embed,
    kron_exit_guard,
    kron_exit_shaped,
    kron_extract,
    kron_step_kraus,
    random_concurrent_program,
    random_deterministic_program,
    random_qwhile_source,
    random_subspace,
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
        rng = random.Random(2504)
        for prog in _loops(rng):
            loop = WhileNormalForm(prog)
            m1 = Mat.eye(loop.m0.rows) - kron_exit_guard(prog)
            reference = SuperOp([k @ m1 for k in loop.body_channel.kraus], validate=False)
            n = reference.dim_in
            assert loop.cut_body.dim_in == loop.cut_body.dim_out == n
            subspaces = [Subspace.zero(n), Subspace.full(n), loop.reachable]
            subspaces += [random_subspace(rng, n, rng.randint(1, n)) for _ in range(3)]
            for s in subspaces:
                assert image(loop.cut_body, s) == image(reference, s)
                assert preimage(loop.cut_body, s) == preimage(reference, s)

    def test_exit_only_cut_body_is_the_zero_channel(self):
        loop = WhileNormalForm(_exit_only(3))
        assert [k.is_zero() for k in loop.cut_body.kraus] == [True]
        assert loop.cut_body.dim_in == 3
        assert image(loop.cut_body, Subspace.full(3)).is_zero()
        assert preimage(loop.cut_body, Subspace.zero(3)).is_full()
        assert loop.exits_almost_surely

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
    """Building the automaton and the cut body multiplies d x d blocks
    only, never an operand of the embedded dimension D."""

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
        assert seen["all"] > 0 and seen["embedded"] == 0

    def test_lattice_places_no_operator(self, monkeypatch, scheduler):
        """Atoms and the exit loop's four lattice properties place subspaces
        block by block: no module places an operator (``place_blocks``, and
        through it ``embed``) or forms a block projector for them."""
        rng = random.Random(2506)
        loops = [WhileNormalForm(prog) for prog in _loops(rng)]
        for loop in loops:
            loop.cut_body  # the body's Kraus operators are placed blocks
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
                assert isinstance(getattr(loop, name), Subspace)
        assert calls == []

    def test_cut_body(self, monkeypatch):
        prog = compile_source(EXAMPLE_LOOP_SRC)
        loop = WhileNormalForm(prog)
        seen = self._count(monkeypatch, prog.dim * len(prog.locations))
        loop.cut_body
        assert seen["all"] > 0 and seen["embedded"] == 0
