import random

import pytest

from qtl.errors import AlmostOperatorOnNonAtom, UnknownAtom, UnknownConfiguration
from qtl.linalg import Mat
from qtl.subspace import Subspace, satisfies
from qtl.program import CQState, embed
from qtl.qwhile import compile_source
from qtl.formula import (
    Always,
    AlmostEventually,
    And,
    Eventually,
    FAtom,
    FTrue,
    Or,
    Next,
    Until,
    atom_from_blocks,
    formula_to_str,
    parse_formula,
)

from helpers import EXAMPLE_LOOP_SRC, span


@pytest.fixture(scope="module")
def example_loop():
    return compile_source(EXAMPLE_LOOP_SRC)


@pytest.fixture(scope="module")
def atoms(example_loop):
    full = Subspace.full(2)
    p = atom_from_blocks(
        "p", {"l1": full, "l2": full, "l3": full, "l4": span((1, 0))}, example_loop
    )
    exit0 = atom_from_blocks("exit0", {"l4": span((1, 0))}, example_loop)
    return {"p": p, "exit0": exit0}


class TestAtoms:
    def test_partial_correctness_atom_dimension(self, atoms):
        # I on three locations (2 each) plus one line at the exit
        assert atoms["p"].subspace.dim == 7

    def test_all_full_is_identity(self, example_loop):
        full = Subspace.full(2)
        atom = atom_from_blocks("t", {loc: full for loc in example_loop.locations}, example_loop)
        assert atom.subspace.is_full()

    def test_omitted_blocks_are_zero(self, example_loop):
        atom = atom_from_blocks("f", {}, example_loop)
        assert atom.subspace.is_zero()

    def test_unknown_configuration(self, example_loop):
        with pytest.raises(UnknownConfiguration):
            atom_from_blocks("b", {"nowhere": Subspace.full(2)}, example_loop)

    def test_blockwise_satisfaction(self, example_loop, atoms):
        # embedded satisfaction agrees with per-block satisfaction
        rng = random.Random(0)
        sub = span((1, 0))
        for _ in range(10):
            blocks = {}
            loc = rng.choice(example_loop.locations)
            blocks[loc] = Mat.from_rows([[1, 0], [0, 0]])
            state = CQState(2, blocks)
            emb = embed(state, example_loop)
            expected = loc != "l4" or satisfies(state.block("l4"), sub)
            assert satisfies(emb, atoms["p"].subspace) == expected


class TestParser:
    def test_always_atom(self, atoms):
        assert parse_formula("[] p", atoms) == Always(FAtom("p"))

    def test_always_until(self, atoms):
        assert parse_formula("[] (p U exit0)", atoms) == Always(Until(FAtom("p"), FAtom("exit0")))

    def test_precedence(self, atoms):
        f = parse_formula("<>~ p && [] exit0", atoms)
        assert f == And(AlmostEventually("p"), Always(FAtom("exit0")))
        g = parse_formula("p U exit0 && p", atoms)
        assert g == And(Until(FAtom("p"), FAtom("exit0")), FAtom("p"))

    def test_unknown_atom(self, atoms):
        with pytest.raises(UnknownAtom):
            parse_formula("[] nope", atoms)

    def test_almost_on_non_atom(self, atoms):
        with pytest.raises(AlmostOperatorOnNonAtom):
            parse_formula("<>~ (p && exit0)", atoms)
        with pytest.raises(AlmostOperatorOnNonAtom):
            parse_formula("(p || exit0) U~ p", atoms)

    def test_roundtrip_random(self, atoms):
        rng = random.Random(1)
        names = ["p", "exit0"]

        def random_formula(depth):
            roll = rng.random()
            if depth == 0 or roll < 0.3:
                return FAtom(rng.choice(names)) if rng.random() < 0.8 else FTrue()
            if roll < 0.4:
                return And(random_formula(depth - 1), random_formula(depth - 1))
            if roll < 0.5:
                return Or(random_formula(depth - 1), random_formula(depth - 1))
            if roll < 0.6:
                return Next(random_formula(depth - 1))
            if roll < 0.7:
                return Until(random_formula(depth - 1), random_formula(depth - 1))
            if roll < 0.8:
                return Eventually(random_formula(depth - 1))
            if roll < 0.9:
                return AlmostEventually(rng.choice(names))
            return Always(random_formula(depth - 1))

        for _ in range(40):
            f = random_formula(6)
            assert parse_formula(formula_to_str(f), atoms) == f
