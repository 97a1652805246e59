import random
from fractions import Fraction

import pytest

from qtl.errors import DimensionMismatch, NotPositive
from qtl.linalg import CRat, Mat
from qtl.subspace import (
    Subspace,
    SubspaceUnion,
    satisfies,
    support,
)

from helpers import KET_PLUS_DENSITY, random_density, random_subspace, span, union


class TestConstruction:
    def test_empty_is_zero(self):
        s = Subspace.from_vectors(2, [])
        assert s.is_zero() and s.projector == Mat.zeros(2)

    def test_spanning_set_is_full(self):
        s = Subspace.from_vectors(2, [[1, 0], [1, 1]])
        assert s.is_full() and s.projector == Mat.eye(2)

    def test_rank_one_projector(self):
        s = span((1, -1))
        assert s.projector == Mat.from_rows([["1/2", "-1/2"], ["-1/2", "1/2"]])

    def test_projector_laws_random(self):
        rng = random.Random(1)
        for _ in range(30):
            s = random_subspace(rng, 3)
            p = s.projector
            assert p == p.dagger()
            assert p @ p == p
            assert p @ s.basis == s.basis

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span((1, 0)).contains(span((1, 0, 0)))


class TestLattice:
    def test_contains(self):
        full = Subspace.full(2)
        assert full.contains(span((1, 1)))
        assert not span((1, 0)).contains(span((1, 1)))
        rng = random.Random(2)
        for _ in range(10):
            s = random_subspace(rng, 3)
            assert s.contains(s)

    def test_meet_join_complement_examples(self):
        s0, s1 = span((1, 0)), span((0, 1))
        assert s0.meet(s1).is_zero()
        assert s0.join(s1).is_full()
        assert span((1, 1)).complement() == span((1, -1))

    def test_lattice_laws_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_subspace(rng, 3)
            b = random_subspace(rng, 3)
            c = random_subspace(rng, 3)
            assert a.meet(b) == b.meet(a)
            assert a.join(b) == b.join(a)
            assert a.meet(a) == a and a.join(a) == a
            assert a.meet(a.join(b)) == a
            assert a.join(a.meet(b)) == a
            assert a.meet(b).meet(c) == a.meet(b.meet(c))
            assert a.join(b).join(c) == a.join(b.join(c))
            assert a.complement().complement() == a
            assert a.meet(a.complement()).is_zero()
            assert a.join(b).dim + a.meet(b).dim == a.dim + b.dim

    def test_complement_of_zero_and_full(self):
        assert Subspace.zero(3).complement().is_full()
        assert Subspace.full(3).complement().is_zero()


class TestSupport:
    def test_full_rank_state(self):
        rho = Mat.from_rows([["1/2", 0], [0, "1/2"]])
        assert support(rho).is_full()

    def test_rank_one_state(self):
        assert support(KET_PLUS_DENSITY) == span((1, 1))

    def test_zero(self):
        assert support(Mat.zeros(2)).is_zero()

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            support(Mat.from_rows([[1, 2], [2, 1]]))

    def test_support_of_mixture_is_join(self):
        rng = random.Random(4)
        half = CRat(Fraction(1, 2))
        for _ in range(15):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            mixed = rho * half + sigma * half
            assert support(mixed) == support(rho).join(support(sigma))


class TestSatisfies:
    def test_examples(self):
        ket0 = Mat.from_rows([[1, 0], [0, 0]])
        assert satisfies(ket0, span((1, 0)))
        assert not satisfies(KET_PLUS_DENSITY, span((1, 0)))
        assert satisfies(KET_PLUS_DENSITY, Subspace.full(2))

    def test_satisfies_iff_trace_preserved(self):
        rng = random.Random(5)
        for _ in range(25):
            rho = random_density(rng, 3)
            p = random_subspace(rng, 3)
            lhs = satisfies(rho, p)
            rhs = (p.projector @ rho).trace() == rho.trace()
            assert lhs == rhs


class TestUnions:
    def test_absorption(self):
        u = union(span((1, 0)), Subspace.full(2))
        assert len(u.members) == 1 and u.members[0].is_full()

    def test_incomparable_kept(self):
        u = union(span((1, 0)), span((0, 1)))
        assert len(u.members) == 2

    def test_idempotent(self):
        s = span((1, 1))
        u = union(s, s)
        assert len(u.members) == 1
        assert SubspaceUnion(2, list(u.members)) == u

    def test_union_meet(self):
        u = union(span((1, 0)), span((0, 1)))
        assert u.meet(SubspaceUnion.full(2)) == u
        crossed = u.meet(union(span((1, 1))))
        assert crossed.is_zero()
        assert u.meet(u) == u

    def test_union_contains(self):
        u = union(span((1, 0)), span((0, 1)))
        assert u.contains_subspace(span((1, 0)))
        assert not u.contains_subspace(span((1, 1)))
        assert u.contains_subspace(Subspace.zero(2))

    def test_union_equal(self):
        a, b = span((1, 0)), span((0, 1))
        assert union(a, b) == union(b, a)
        assert not SubspaceUnion.full(2) == union(a, b)

    def test_zero_union_membership(self):
        u = SubspaceUnion.zero(3)
        assert u.is_zero()
        assert u.contains_subspace(Subspace.zero(3))
        assert not u.contains_subspace(span((1, 0, 0)))

    def test_union_membership_against_point_sampling(self):
        # a subspace lies in a finite union exactly when it lies in one
        # member; when it does not, random rational points of it escape
        # every member (the ambient field is infinite)
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice([2, 3])
            u = union(random_subspace(rng, n, rng.randint(0, n - 1)),
                      random_subspace(rng, n, rng.randint(0, n - 1)))
            s = random_subspace(rng, n)
            inside = u.contains_subspace(s)
            exhaustive = any(m.contains(s) for m in u.members)
            assert inside == exhaustive
            if s.dim == 0:
                continue
            points = []
            for _ in range(12):
                coeffs = Mat.column(
                    [CRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(s.dim)]
                )
                v = s.basis @ coeffs
                if not v.is_zero():
                    points.append(Subspace.from_vectors(n, [v]))
            if inside:
                assert all(u.contains_subspace(pt) for pt in points)
            else:
                assert any(not u.contains_subspace(pt) for pt in points)

    def test_union_meet_is_set_intersection_on_points(self):
        # a random vector lies in u meet v exactly when it lies in both
        rng = random.Random(6)
        for _ in range(20):
            u = union(random_subspace(rng, 3, 2), random_subspace(rng, 3, 1))
            v = union(random_subspace(rng, 3, 2))
            w = u.meet(v)
            for _ in range(8):
                member = rng.choice(u.members + v.members + w.members)
                if member.dim == 0:
                    continue
                vec = member.basis @ Mat.column(
                    [CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(member.dim)]
                )
                point = Subspace.from_vectors(3, [vec])
                assert w.contains_subspace(point) == (
                    u.contains_subspace(point) and v.contains_subspace(point)
                )
