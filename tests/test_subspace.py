import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from qtl.errors import DimensionMismatch, NotPositive
from qtl.linalg import CRat, Mat, _unit_rows, mat_sum
from qtl.subspace import (
    Subspace,
    SubspaceUnion,
    _canonical_members,
    satisfies,
    support,
)

from helpers import (
    KET_PLUS_DENSITY,
    random_density,
    random_matrix,
    random_scalar,
    random_subspace,
    random_vector,
    span,
    union,
)


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
            assert p @ s.rref.transpose() == s.rref.transpose()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span((1, 0)).contains(span((1, 0, 0)))

    def test_immutable(self):
        # the constructors set the slots past the guard; assignment stays barred
        s = span((1, 1))
        u = SubspaceUnion(2, [s, span((1, 0))])
        for obj, name in ((s, "pivots"), (s, "_rref"), (s, "ambient_dim"), (u, "members"), (u, "ambient_dim")):
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            assert getattr(obj, name) is before
        assert s.pivots == (0,) and u.ambient_dim == 2 and len(u.members) == 2


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
                v = s.rref.transpose() @ coeffs
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
                vec = member.rref.transpose() @ Mat.column(
                    [CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(member.dim)]
                )
                point = Subspace.from_vectors(3, [vec])
                assert w.contains_subspace(point) == (
                    u.contains_subspace(point) and v.contains_subspace(point)
                )


# ----------------------------------------------------------------------
# properties over the exact generators of helpers.py

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
# a seeded source for the generators; hypothesis shrinks the seed
RNGS = st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def spanning_sets(draw, max_dim=4):
    """(n, vectors): up to n + 1 random vectors of C^n, so some are
    dependent, and sometimes a vector that is a combination of the others;
    all real about half of the time."""
    rng = draw(RNGS)
    real = draw(st.booleans())
    n = draw(st.integers(2, max_dim))
    vectors = [random_vector(rng, n, real=real) for _ in range(draw(st.integers(1, n + 1)))]
    if draw(st.booleans()):
        vectors.append(_combination(rng, vectors, real))
    if draw(st.booleans()):
        vectors = [_coordinate_mask(rng, n) @ v for v in vectors]
    return n, vectors


@st.composite
def subspace_pairs(draw):
    """(a, b) in one ambient space; b lies inside a about half of the time,
    and both are real about half of the time."""
    rng = draw(RNGS)
    real = draw(st.booleans())
    n = draw(st.integers(2, 4))
    a = random_subspace(rng, n, draw(st.integers(1, n)), real)
    if draw(st.booleans()):
        a = Subspace(n, a.rref @ _coordinate_mask(rng, n))
    if a.dim and draw(st.booleans()):
        t = a.rref.transpose()
        basis = [t[:, j] for j in range(t.cols)]
        b = Subspace.from_vectors(n, [_combination(rng, basis, real) for _ in range(rng.randint(1, a.dim))])
    else:
        b = random_subspace(rng, n, draw(st.integers(0, n)), real)
    return a, b


@st.composite
def union_pairs(draw):
    """(x, y) in one ambient space, with x inside y, y inside x, some
    members of each side inside the other ("partly"), or neither forced;
    some members repeat or lie inside others.  x starts from 2-3 members
    that are neither zero nor C^n, and every member is real about half of
    the time."""
    rng = draw(RNGS)
    real = draw(st.booleans())
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["x in y", "y in x", "partly", "free"]))

    def subspace(low=0, high=n):
        # the span of k random vectors, k drawn by hypothesis: it spreads
        # the dimensions over the derandomized examples, where a k drawn
        # from rng made most members C^n or zero
        k = draw(st.integers(low, high))
        return Subspace.from_vectors(n, [random_vector(rng, n, real=real) for _ in range(k)])

    if shape == "partly":
        # l0 and l1 lie inside y, l1 inside x, l2 and l0 v l3 need not
        # (in C^2 the plane l0 v l3 would be everything)
        n = max(n, 3)
        lines = [Subspace.from_vectors(n, [random_vector(rng, n, real=real)]) for _ in range(4)]
        return SubspaceUnion(n, lines[:3]), SubspaceUnion(n, [lines[0].join(lines[3]), lines[1]])
    members = [subspace(1, n - 1) for _ in range(draw(st.integers(2, 3)))]
    x = SubspaceUnion(n, members + [m.meet(subspace()) for m in members[:1]])
    if shape == "x in y":
        y = [m.join(subspace()) for m in x.members]
    elif shape == "y in x":
        y = [m.meet(subspace()) for m in x.members]
    else:
        y = []
    y += [subspace() for _ in range(draw(st.integers(0 if y else 1, 2)))]
    if shape == "y in x":
        y = [m for m in y if x.contains_subspace(m)] or [Subspace.zero(n)]
    return x, SubspaceUnion(n, y)


def _coordinate_mask(rng, n):
    """A diagonal 0/1 matrix: zeroed coordinates move the pivots off the
    leading columns, where random vectors put them."""
    return Mat.from_rows([[int(i == j and rng.random() < 0.6) for j in range(n)] for i in range(n)])


def _combination(rng, vectors, real=False):
    total = vectors[0] * random_scalar(rng, real=real)
    for v in vectors[1:]:
        total = total + v * random_scalar(rng, real=real)
    return total


def _sympy_rref(n, vectors):
    def qq(x):
        return QQ(x.numerator, x.denominator)

    rows = [[QQ_I(qq(v.entry(i, 0).re), qq(v.entry(i, 0).im)) for i in range(n)] for v in vectors]
    reduced, pivots = DomainMatrix(rows, (len(rows), n), QQ_I).rref()
    return [
        [CRat(Fraction(int(e.x.numerator), int(e.x.denominator)), Fraction(int(e.y.numerator), int(e.y.denominator)))
         for e in row]
        for row in reduced.to_list()[: len(pivots)]
    ], tuple(pivots)


class TestProperties:
    @PROPERTY
    @given(spanning_sets())
    def test_key_is_sympy_rref(self, case):
        n, vectors = case
        s = Subspace.from_vectors(n, vectors)
        rows, pivots = _sympy_rref(n, vectors)
        assert s.pivots == pivots
        assert s.rref == (Mat.from_rows(rows) if rows else Mat.zeros(0, n))

    @PROPERTY
    @given(spanning_sets(), RNGS)
    def test_bases_of_one_subspace_share_key_and_hash(self, case, rng):
        n, vectors = case
        # an invertible (triangular, nonzero diagonal) recombination, shuffled
        other = [
            v * CRat(rng.randint(1, 5), rng.randint(-2, 2)) + _combination(rng, vectors[i + 1:])
            if i + 1 < len(vectors) else v * CRat(-3)
            for i, v in enumerate(vectors)
        ]
        rng.shuffle(other)
        a, b = Subspace.from_vectors(n, vectors), Subspace.from_vectors(n, other)
        assert a == b and a.key() == b.key() and hash(a) == hash(b)

    @PROPERTY
    @given(RNGS, st.integers(2, 4))
    def test_complement_is_involutive_and_orthogonal(self, rng, n):
        a = random_subspace(rng, n)
        perp = a.complement()
        assert a.dim + perp.dim == n
        assert (a.rref.conj() @ perp.rref.transpose()).is_zero()
        # rebuilt without the cached back link, the complement's complement is a
        assert Subspace(n, perp.rref).complement() == a

    @PROPERTY
    @given(subspace_pairs())
    def test_containment_meet_and_join_agree(self, pair):
        a, b = pair
        contains = a.contains(b)
        assert contains == (a.meet(b) == b) == (a.join(b) == a)
        # results built from RREF rows without a new elimination are canonical
        for s in (a.meet(b), b.meet(a), a.join(b), a.complement()):
            again = Subspace(s.ambient_dim, s.rref)
            assert (again.rref, again.pivots) == (s.rref, s.pivots)

    @PROPERTY
    @given(RNGS, st.integers(2, 4), st.booleans())
    def test_satisfies_agrees_with_projector(self, rng, n, inside):
        p = random_subspace(rng, n)
        if inside and p.dim:
            t = p.rref.transpose()
            v = _combination(rng, [t[:, j] for j in range(t.cols)])
            rho = v @ v.dagger()
        else:
            rho = random_density(rng, n)
        assert satisfies(rho, p) == (p.projector @ rho == rho)

    @PROPERTY
    @given(RNGS, st.integers(1, 4), st.integers(1, 4))
    def test_support_of_psd_sum_is_join(self, rng, n, terms):
        # ker(A + B) = ker A ^ ker B for positive A and B, which makes the
        # one Krylov sum of the [] <> loop refinement exact
        grams = []
        for _ in range(terms):
            rank = rng.randint(0, n)
            b = random_matrix(rng, n, rank) if rank else Mat.zeros(n, 1)
            grams.append(b @ b.dagger())
        joined = functools.reduce(Subspace.join, [support(g) for g in grams])
        assert support(mat_sum(grams)) == joined

    @PROPERTY
    @given(RNGS, st.integers(1, 3))
    def test_union_equality_is_mutual_inclusion(self, rng, n):
        members = [random_subspace(rng, n) for _ in range(rng.randint(1, 3))]
        u = SubspaceUnion(n, members)
        # the same set of states from redundant, reordered members
        shuffled = members + [m.meet(random_subspace(rng, n)) for m in members]
        rng.shuffle(shuffled)
        v = SubspaceUnion(n, shuffled)
        assert u == v and hash(u) == hash(v)
        w = SubspaceUnion(n, [random_subspace(rng, n) for _ in range(rng.randint(1, 3))])
        assert (u == w) == (u.subset_of(w) and w.subset_of(u))

    @PROPERTY
    @given(union_pairs())
    def test_union_meet_is_canonical_pairwise_meet(self, pair):
        x, y = pair
        pairwise = SubspaceUnion(x.ambient_dim, [a.meet(b) for a in x.members for b in y.members])
        for left, right in ((x, y), (y, x)):
            met = left.meet(right)
            assert met == pairwise
            assert (met.members, met.key()) == (pairwise.members, pairwise.key())
            if left.subset_of(right):
                assert met is left

    @PROPERTY
    @given(union_pairs())
    # e1 lies in a member of y, e2 and both members of y in no member of the
    # other side: 2 meets where all pairs are 4
    @example((union(span((1, 0, 0)), span((0, 1, 0))), union(span((1, 0, 0), (0, 0, 1)), span((0, 1, 1)))))
    def test_union_meet_meets_only_uncontained_pairs(self, pair):
        # one Subspace.meet per pair of members that lie inside no member
        # of the other side
        x, y = pair
        for left, right in ((x, y), (y, x)):
            mine = [a for a in left.members if not right.contains_subspace(a)]
            theirs = [b for b in right.members if not left.contains_subspace(b)]
            calls = [0]
            exact_meet = Subspace.meet

            def counting_meet(a, b):
                calls[0] += 1
                return exact_meet(a, b)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Subspace, "meet", counting_meet)
                left.meet(right)
            assert calls[0] == len(mine) * len(theirs)

    @PROPERTY
    @given(RNGS, st.integers(1, 4))
    def test_canonical_members_are_an_antichain_covering_the_input(self, rng, n):
        members = [random_subspace(rng, n) for _ in range(rng.randint(1, 4))]
        members += [m.meet(random_subspace(rng, n)) for m in members] + members[:1]
        rng.shuffle(members)
        kept = _canonical_members(n, members)
        assert all(not a.contains(b) for a in kept for b in kept if a is not b)
        assert all(any(k.contains(m) for k in kept) for m in members)
        assert len(set(kept)) == len(kept)


def _sympy_rank(m: Mat) -> int:
    """The rank of m over Q(i), by sympy: an oracle independent of the
    elimination under test."""
    def entry(i, j):
        e = m.entry(i, j)
        return QQ_I(QQ(e.re.numerator, e.re.denominator), QQ(e.im.numerator, e.im.denominator))

    return DomainMatrix([[entry(i, j) for j in range(m.cols)] for i in range(m.rows)], (m.rows, m.cols), QQ_I).rank()


def _scaled_rows(rng, rows, real):
    """The rows of a Mat times scalars with denominators up to 7, so the
    grids of the result carry a denominator other than one."""
    scaled = [rows[i : i + 1, :] * CRat(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(2, 7)),
                                        0 if real else Fraction(rng.randint(-2, 2), rng.randint(2, 7)))
              for i in range(rows.rows)]
    return functools.reduce(Mat.vstack, scaled)


class TestContainmentAgainstRank:
    """contains, _spans and satisfies against the rank oracle: rows lie in
    p exactly when stacking them under p's RREF keeps the rank at dim p."""

    @PROPERTY
    @given(subspace_pairs())
    def test_contains(self, pair):
        a, b = pair
        stacked = a.rref.vstack(b.rref) if b.dim else a.rref
        assert a.contains(b) == (_sympy_rank(stacked) == a.dim)

    @PROPERTY
    @given(RNGS, st.integers(2, 4), st.booleans(), st.sampled_from(["none", "first", "last", "all"]))
    def test_rows_outside_first_or_last(self, rng, n, real, outside):
        # in-span rows are combinations of p's basis over non-unit
        # denominators; one row outside at the front or at the back pins
        # both that every row is read and that the first miss decides
        p = Subspace.from_vectors(n, [random_vector(rng, n, real=real) for _ in range(rng.randint(1, n - 1))])
        t = p.rref.transpose()
        basis = [t[:, j] for j in range(t.cols)]
        rows = [_combination(rng, basis, real).transpose() for _ in range(rng.randint(2, 3))]
        miss = p.complement().rref[:1, :]
        if outside == "first":
            rows[0] = rows[0] + miss
        elif outside == "last":
            rows[-1] = rows[-1] + miss
        elif outside == "all":
            rows = [r + miss for r in rows]
        m = _scaled_rows(rng, functools.reduce(Mat.vstack, rows), real)
        expected = outside == "none"
        assert (_sympy_rank(p.rref.vstack(m)) == p.dim) == expected
        assert p._spans(m) == expected
        assert satisfies(m.transpose(), p) == expected
        assert p.contains(Subspace(n, m)) == expected

    @PROPERTY
    @given(RNGS, st.integers(2, 4), st.booleans())
    def test_satisfies(self, rng, n, real):
        p = random_subspace(rng, n, real=real)
        rho = _scaled_rows(rng, random_matrix(rng, n) if not real else
                           Mat.from_rows([[random_scalar(rng, real=True) for _ in range(n)] for _ in range(n)]), real)
        if p.dim and rng.random() < 0.5:
            # columns inside p: combinations of its basis
            t = p.rref.transpose()
            basis = [t[:, j] for j in range(t.cols)]
            rho = functools.reduce(Mat.hstack, [_combination(rng, basis, real) for _ in range(n)])
        stacked = p.rref.vstack(rho.transpose()) if p.dim else rho.transpose()
        assert satisfies(rho, p) == (_sympy_rank(stacked) == p.dim)


def _nonzero_scalar(rng, real):
    while True:
        c = random_scalar(rng, real=real)
        if c:
            return c


def _scaled_unit_span(rng, n, cols, coordinate, real):
    """The span of rows c e_j, one per j in ``cols`` (c nonzero, rows
    shuffled); unless ``coordinate``, some rows also get an entry at a
    column outside ``cols``.  Such a span holds a vector with a nonzero
    entry there but not the unit vector of that column (its entries at
    ``cols`` fix the combination), so it is no coordinate subspace."""
    rows = []
    for j in cols:
        row = [CRat(0)] * n
        row[j] = _nonzero_scalar(rng, real)
        rows.append(row)
    outside = [j for j in range(n) if j not in cols]
    if not coordinate and rows and outside:
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            row[rng.choice(outside)] = _nonzero_scalar(rng, real)
    rng.shuffle(rows)
    return Subspace(n, Mat.from_rows(rows)) if rows else Subspace.zero(n)


@st.composite
def coordinate_pairs(draw):
    """(a, b) in C^n, each a coordinate subspace, a span of scaled unit
    vectors with entries outside their columns, or now and then a random
    subspace; b's columns are drawn among a's half of the time, so that
    pivot inclusion often holds where containment does not."""
    rng = draw(RNGS)
    real = draw(st.booleans())
    n = draw(st.integers(2, 5))
    a_cols = sorted(rng.sample(range(n), draw(st.integers(0, n))))
    if a_cols and draw(st.booleans()):
        b_cols = sorted(rng.sample(a_cols, draw(st.integers(1, len(a_cols)))))
    else:
        b_cols = sorted(rng.sample(range(n), draw(st.integers(0, n))))
    kinds = st.sampled_from(["coordinate", "coordinate", "other", "random"])

    def side(cols, kind):
        if kind == "random":
            return random_subspace(rng, n, real=real)
        return _scaled_unit_span(rng, n, cols, kind == "coordinate", real)

    return side(a_cols, draw(kinds)), side(b_cols, draw(kinds))


def _rank_of(*subspaces) -> int:
    return _sympy_rank(functools.reduce(Mat.vstack, [s.rref for s in subspaces]))


class TestCoordinateSubspaces:
    """Coordinate subspaces, spanned by unit vectors, are met, complemented
    and compared by their pivots alone.  On pairs that mix them with other
    subspaces, the results equal those of the general formulas (taken with
    is_coordinate patched to False, on copies without a cached
    complement) and the rank oracle."""

    @PROPERTY
    @given(coordinate_pairs())
    # pivots (0,) inside (0, 2), but e0 + e1 is not in span{e0, e2}; and
    # pivots equal, but e0 is not in span{e0 + e1}
    @example((span((1, 0, 0), (0, 0, 1)), span((1, 1, 0))))
    @example((span((1, 1)), span((1, 0))))
    def test_pivot_decisions_equal_the_general_formulas(self, pair):
        a, b = pair
        n = a.ambient_dim
        general = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Subspace, "is_coordinate", lambda s: False)
            for x, y in ((a, b), (b, a)):
                x, y = Subspace(n, x.rref, x.pivots), Subspace(n, y.rref, y.pivots)
                general.append((x.meet(y), x.contains(y), x.complement()))
        for (x, y), (meet, contains, perp) in zip(((a, b), (b, a)), general):
            unit_span = Subspace(n, Mat.from_rows([[int(j == p) for j in range(n)] for p in x.pivots]) if x.dim
                                 else Mat.zeros(0, n))
            assert x.is_coordinate() == (x == unit_span)
            met = x.meet(y)
            assert (met.rref, met.pivots) == (meet.rref, meet.pivots)
            again = Subspace(n, met.rref)
            assert (again.rref, again.pivots) == (met.rref, met.pivots)
            assert met.dim == x.dim + y.dim - _rank_of(x, y)
            assert _rank_of(x, met) == x.dim and _rank_of(y, met) == y.dim
            assert x.contains(y) == contains == (_rank_of(x, y) == x.dim)
            assert (x.complement().rref, x.complement().pivots) == (perp.rref, perp.pivots)
            assert x.complement().complement() is x

    def test_pivot_built_equals_unit_rows_built(self):
        # a coordinate subspace built from its pivots alone equals the one
        # built on the unit rows and the one reached by elimination: key,
        # hash, equality, RREF and complement; and it equals no subspace
        # that is not coordinate, among them ones with the same pivots
        rng = random.Random(60)
        same_pivots = 0
        for _ in range(80):
            n = rng.randint(1, 6)
            real = rng.random() < 0.5
            pivots = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            a = Subspace(n, None, pivots)
            built = [Subspace(n, _unit_rows(pivots, n), pivots), _scaled_unit_span(rng, n, pivots, True, real)]
            for b in built:
                assert a == b and b == a and a.key() == b.key() and hash(a) == hash(b)
                assert (a.rref, a.pivots) == (b.rref, b.pivots)
                assert a.complement() == b.complement()
                assert (a.complement().rref, a.complement().pivots) == (b.complement().rref, b.complement().pivots)
            assert len({a, *built}) == 1
            other = _scaled_unit_span(rng, n, pivots, False, real)
            if not other.is_coordinate():
                assert other != a and a != other
                same_pivots += other.pivots == a.pivots
        assert same_pivots >= 10

    def test_union_members_sort_by_the_rref_key(self):
        # canonical members keep the order of their RREF keys, whether
        # they were built from pivots, on unit rows or by elimination
        rng = random.Random(61)
        for _ in range(80):
            n = rng.randint(2, 6)
            real = rng.random() < 0.5
            members = []
            for _ in range(rng.randint(2, 6)):
                cols = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
                kind = rng.choice(["pivots", "pivots", "scaled", "other", "random"])
                if kind == "pivots":
                    members.append(Subspace(n, None, tuple(cols)))
                elif kind == "random":
                    members.append(random_subspace(rng, n, real=real))
                else:
                    members.append(_scaled_unit_span(rng, n, cols, kind == "scaled", real))
            u = SubspaceUnion(n, members)
            expected = sorted({m for m in members if m in u.members}, key=lambda m: (m.dim, m.rref.key()))
            assert list(u.members) == expected
