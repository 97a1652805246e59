import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

import qtl.linalg as linalg
from qtl.errors import MalformedInput, SingularMatrix, UncertifiedPeriod
from qtl.linalg import (
    CRat,
    Mat,
    _echelon_int,
    _jordan_pass,
    _charpoly_int,
    _peripheral_period,
    _realified,
    format_rational,
    is_psd,
    kron,
    mat_sum,
    parse_rational,
    psd_rank,
    rank,
    rref,
    solve,
)

from qtl.subspace import Subspace
from qtl.superop import SuperOp, unvec, vec

import qtl.checker as checker
from qtl.checker import partial_correctness_subspace
from qtl.program import to_automaton

from helpers import (
    PAULI_X,
    mat_from_complex,
    random_automaton,
    random_cayley_unitary,
    random_deterministic_program,
    random_matrix,
    random_tp_channel,
    reference_charpoly,
    span,
)


class TestScalars:
    def test_parse_and_format(self):
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("3") == Fraction(3)
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(7)) == "7"

    def test_crat_field_ops(self):
        a = CRat(Fraction(1, 2), Fraction(1, 3))
        b = CRat(Fraction(-2, 5), Fraction(1, 7))
        assert (a * b) / b == a
        assert a * a.conjugate() == CRat(a.re * a.re + a.im * a.im)
        assert CRat.coerce([1, "1/2"]) == CRat(1, Fraction(1, 2))
        with pytest.raises(ZeroDivisionError):
            a / CRat(0)

    def test_reflected_division(self):
        assert 1 / CRat(2) == CRat(Fraction(1, 2))
        assert Fraction(3, 4) / CRat(0, 1) == CRat(0, Fraction(-3, 4))
        b = CRat(Fraction(-2, 5), Fraction(1, 7))
        assert (1 / b) * b == CRat(1)
        with pytest.raises(ZeroDivisionError):
            1 / CRat(0)


class TestMatBasics:
    def test_exact_arithmetic_closed(self):
        rng = random.Random(7)
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        assert (a + b) @ c == a @ c + b @ c
        assert a.dagger().dagger() == a

    def test_immutable(self):
        # the constructor sets the slots past the guard; assignment stays barred
        m = Mat.from_rows([["1/2", 0], [0, (1, 1)]])
        for name in ("num_re", "num_im", "den", "rows", "cols", "_key", "_real"):
            before = getattr(m, name)
            with pytest.raises(AttributeError):
                setattr(m, name, 1)
            assert getattr(m, name) is before
        assert (m.den, m.rows, m.cols, m.is_real()) == (2, 2, 2, False)
        assert m.key() == (2, 2, 2, (1, 0, 0, 2), (0, 0, 0, 2))

    def test_kron_identity(self):
        assert kron(Mat.eye(2), Mat.eye(2)) == Mat.eye(4)

    def test_kron_pauli_x_permutation(self):
        m = kron(PAULI_X, PAULI_X.conj())
        # swaps basis indices 0<->3 and 1<->2
        expected = Mat.zeros(4)
        for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
            expected = expected + Mat.unit(4, i, j)
        assert m == expected

    def test_kron_mixed_product(self):
        rng = random.Random(11)
        a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_trace_and_hermitian(self):
        m = Mat.from_rows([[1, (0, 1)], [(0, -1), 2]])
        assert m.is_hermitian()
        assert m.trace() == CRat(3)

    def test_equality_reads_shape_and_denominator(self):
        # equal numerator grids over another denominator, or the same
        # entries laid out in another shape, are different matrices
        m = Mat.from_rows([["1/2", 0], [0, (1, "1/2")]])
        assert m == Mat.from_rows([["1/2", 0], [0, (1, "1/2")]])
        assert m != Mat(m.num_re, m.num_im, 3 * m.den, _normalized=True)
        assert m.num_re.tolist() == [[1, 0], [0, 2]]
        flat = Mat.from_rows([["1/2", 0, 0, (1, "1/2")]])
        assert m != flat and flat != m and m.key() != flat.key()
        assert Mat.zeros(2, 3) != Mat.zeros(3, 2) and Mat.zeros(0, 2) != Mat.zeros(0, 3)

    def test_hermitian_cases(self):
        # a non-square matrix is never Hermitian; a symmetric nonzero
        # imaginary part is not anti-symmetric, so i S is not Hermitian
        assert not Mat.zeros(2, 3).is_hermitian()
        assert not Mat.from_rows([[1, (0, 1)], [(0, 1), 2]]).is_hermitian()
        assert not Mat.from_rows([[(0, 1), 0], [0, 1]]).is_hermitian()
        assert Mat.from_rows([[2, (1, "-1/3")], [(1, "1/3"), "1/2"]]).is_hermitian()
        rng = random.Random(19)
        for n in (1, 2, 3, 5):
            b = random_matrix(rng, n)
            h = b + b.dagger()
            assert h.is_hermitian()
            assert (h * CRat(0, 1)).is_hermitian() == h.is_zero()


class TestKernel:
    def test_zero_matrix_kernel_spans_everything(self):
        basis = _kernel(Mat.zeros(2))
        assert len(basis) == 2
        assert rank(Mat.zeros(2)) == 0

    def test_identity_is_injective(self):
        assert _kernel(Mat.eye(3)) == []

    def test_rank_one_kernel_direction(self):
        basis = _kernel(Mat.from_rows([[1, 1], [1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, -1)
        assert v.entry(0, 0) == -v.entry(1, 0)
        assert not v.is_zero()

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(25):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, rows, cols)
            assert rank(m) + len(_kernel(m)) == cols
            for v in _kernel(m):
                assert (m @ v).is_zero()


class TestInvert:
    def test_identity(self):
        assert _inverse(Mat.eye(4)) == Mat.eye(4)

    def test_diagonal(self):
        assert _inverse(Mat.from_rows([["1/2", 0], [0, "1/3"]])) == Mat.from_rows([[2, 0], [0, 3]])

    def test_random_residual_exactly_zero(self):
        rng = random.Random(5)
        found = 0
        while found < 10:
            m = random_matrix(rng, 3)
            try:
                inv = _inverse(m)
            except SingularMatrix:
                continue
            found += 1
            assert m @ inv == Mat.eye(3)
            assert inv @ m == Mat.eye(3)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            _inverse(Mat.from_rows([[1, 1], [1, 1]]))


class TestSolve:
    def test_random_systems_exactly(self):
        rng = random.Random(6)
        found = 0
        while found < 10:
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4, rng.randint(1, 3))
            try:
                x = solve(a, b)
            except SingularMatrix:
                continue
            found += 1
            assert a @ x == b
            assert x == _inverse(a) @ b

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve(Mat.from_rows([[1, 1], [1, 1]]), Mat.column([1, 2]))
        with pytest.raises(SingularMatrix):
            solve(Mat.from_rows([[1, 1], [1, 1]]), Mat.column([1, 1]))


def _gaussian_rational(rng):
    """A Gaussian rational with mixed denominators; a fifth of them are zero."""
    if rng.random() < 0.2:
        return CRat(0)
    return CRat(
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 9])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4, 7])),
    )


def _gaussian_matrix(rng, rows, cols, rank=None, real=False):
    """A random rows x cols Gaussian-rational matrix, of the given rank if
    any; with ``real``, the real parts of one."""
    if rank == 0:
        return Mat.zeros(rows, cols)
    if rank is None:
        return Mat.from_rows(
            [[_gaussian_rational(rng).re if real else _gaussian_rational(rng) for _ in range(cols)] for _ in range(rows)]
        )
    return _gaussian_matrix(rng, rows, rank, real=real) @ _gaussian_matrix(rng, rank, cols, real=real)


def _to_sympy(m: Mat, domain=QQ_I) -> DomainMatrix:
    """m over QQ_I, or over QQ (the real parts only) when domain is QQ."""

    def qq(x):
        return QQ(x.numerator, x.denominator)

    if domain == QQ:
        return DomainMatrix([[qq(e.re) for e in row] for row in m.entries()], (m.rows, m.cols), QQ)
    return DomainMatrix(
        [[QQ_I(qq(e.re), qq(e.im)) for e in row] for row in m.entries()], (m.rows, m.cols), QQ_I
    )


def _from_sympy(rows) -> Mat:
    """A Mat of sympy's QQ_I or QQ elements."""

    def frac(x):
        return Fraction(int(x.numerator), int(x.denominator))

    return Mat.from_rows(
        [[CRat(frac(e.x), frac(e.y)) if hasattr(e, "y") else CRat(frac(e)) for e in row] for row in rows]
    )


def _kernel(m: Mat) -> list:
    """The right null space of m, the orthocomplement of the rows of
    conj(m), as the rows of that complement's RREF, each read as a
    column."""
    perp = Subspace(m.cols, m.conj()).complement().rref
    return [perp[i : i + 1, :].transpose() for i in range(perp.rows)]


def _inverse(m: Mat) -> Mat:
    return solve(m, Mat.eye(m.rows))


def _sympy_kernel(m: Mat, domain=QQ_I) -> list:
    """sympy's kernel of m as _kernel gives it: one vector per free column
    f of sympy's RREF of m (1 at f, zero at the other free columns), and
    those vectors brought to their own RREF by sympy."""
    reduced, pivots = _to_sympy(m, domain).rref()
    reduced = reduced.to_list()
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [domain.zero] * m.cols
        v[f] = domain.one
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        vectors.append(v)
    if not vectors:
        return []
    basis, _ = DomainMatrix(vectors, (len(vectors), m.cols), domain).rref()
    return [_from_sympy([[x] for x in row]) for row in basis.to_list()]


# (rows, cols, rank): full, singular and rank-deficient squares, wide, tall, zero
SYMPY_SHAPES = [(4, 4, None), (5, 5, None), (4, 4, 3), (5, 5, 2), (3, 6, None), (2, 5, 1),
                (6, 3, None), (5, 2, 1), (4, 6, 3), (3, 3, 0)]
# Gaussian-rational matrices go to sympy over QQ_I, real ones over QQ
DOMAINS = [(QQ_I, False), (QQ, True)]


def _shaped_inputs(base, seed, real):
    rng = random.Random(base + seed + 50 * real)
    return [_gaussian_matrix(rng, rows, cols, r, real) for rows, cols, r in SYMPY_SHAPES]


def _solve_inputs(seed, real):
    """(a, b) square systems, singular ones included; b is scaled by 1/7,
    so that den(b) != 1 also where its draws are integers."""
    rng = random.Random(200 + seed + 50 * real)
    return [
        (_gaussian_matrix(rng, rows, cols, r, real),
         _gaussian_matrix(rng, rows, rng.randint(1, 3), real=real) * CRat(Fraction(1, 7)))
        for rows, cols, r in SYMPY_SHAPES
        if rows == cols
    ]


def _unit_scalar(rng, real):
    """A nonzero scalar: a real one, or with real and imaginary parts, or
    purely imaginary."""
    x = Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.choice([1, 2, 3, 9]))
    if real:
        return CRat(x)
    return rng.choice([CRat(x), CRat(0, x), CRat(x, Fraction(rng.choice([-2, 1, 4]), rng.choice([1, 5])))])


def _unit_row_inputs(seed, real):
    """Matrices whose rows each hold at most one nonzero entry: scaled unit
    rows in shuffled column order, zero rows, columns repeated by several
    rows, an all-zero matrix and one with no rows; then the same with one
    row given a second nonzero entry (in its imaginary part at another
    column when complex), which must be eliminated."""
    rng = random.Random(400 + seed + 50 * real)
    units, near = [], []
    for rows, cols in [(1, 1), (3, 4), (4, 4), (5, 3), (6, 6), (2, 7), (9, 9)]:
        grid = [[CRat(0)] * cols for _ in range(rows)]
        for row in grid:
            if rng.random() < 0.8:
                row[rng.randrange(cols)] = _unit_scalar(rng, real)
        units.append(Mat.from_rows(grid))
        if cols > 1:
            i = rng.randrange(rows)
            taken = [j for j, e in enumerate(grid[i]) if e] or [rng.randrange(cols)]
            grid[i][taken[0]] = _unit_scalar(rng, real)
            j = rng.choice([j for j in range(cols) if j != taken[0]])
            grid[i][j] = _unit_scalar(rng, True) * (1 if real else CRat(0, 1))
            near.append(Mat.from_rows(grid))
    return units + [Mat.zeros(3, 4), Mat.zeros(0, 4)], near


class TestAgainstSympy:
    """rank, the kernel, rref, solve and the inverse against sympy's exact
    matrices, on seeded inputs: Gaussian-rational ones over QQ_I, with
    complex non-unit pivots, and real ones over QQ, which take the integer
    kernel, with negative and non-unit pivots; and rref on rows that each
    hold at most one nonzero entry, which takes no elimination."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_and_kernel(self, seed):
        for domain, real in DOMAINS:
            for m in _shaped_inputs(100, seed, real):
                assert m.is_real() == real or m.is_zero()
                assert rank(m) == _to_sympy(m, domain).rank()
                assert _kernel(m) == _sympy_kernel(m, domain)

    @pytest.mark.parametrize("seed", range(4))
    def test_rref(self, seed):
        for domain, real in DOMAINS:
            units, near = _unit_row_inputs(seed, real)
            for m in _shaped_inputs(300, seed, real) + units + near:
                reduced, pivots = _to_sympy(m, domain).rref()
                expected = _from_sympy(reduced.to_list()[: len(pivots)]) if pivots else Mat.zeros(0, m.cols)
                assert rref(m) == (expected, tuple(pivots))

    def test_unit_rows_take_no_elimination(self, monkeypatch):
        # the one kernel: its width says whether it ran on the integer rows
        # of a real matrix or on the realified rows of a complex one
        widths = []
        exact = linalg._echelon_int
        monkeypatch.setattr(linalg, "_echelon_int", lambda rows, width: widths.append(width) or exact(rows, width))
        for seed in range(2):
            for real in (True, False):
                for m in _unit_row_inputs(seed, real)[0]:
                    rref(m)
        assert widths == []
        for real in (True, False):
            for m in _unit_row_inputs(0, real)[1]:
                widths.clear()
                rref(m)
                assert m.is_real() == real
                assert widths and set(widths) == {m.cols if real else 2 * m.cols}

    def test_one_complex_row_takes_no_elimination(self, monkeypatch):
        # a complex input with one nonzero row, holding two nonzero entries
        # or more, is that row over its first nonzero entry: neither
        # realified nor eliminated, and equal to sympy's reduced form
        calls = []
        exact = linalg._echelon_int
        monkeypatch.setattr(linalg, "_echelon_int", lambda rows, width: calls.append(width) or exact(rows, width))
        rng = random.Random(450)
        tested = 0
        for rows, cols in [(1, 2), (1, 5), (3, 4), (4, 6), (2, 3)] * 6:
            grid = [[CRat(0)] * cols for _ in range(rows)]
            row = [_gaussian_rational(rng) for _ in range(cols)]
            if rng.random() < 0.3:
                # a complex multiple of a real row reduces to a real row
                scale = _gaussian_rational(rng)
                row = [CRat(x.re) * scale for x in row]
            grid[rng.randrange(rows)] = row
            m = Mat.from_rows(grid)
            if m.is_real() or _unit_columns_of(m) is not None:
                continue
            tested += 1
            reduced, pivots = _to_sympy(m).rref()
            assert rref(m) == (_from_sympy(reduced.to_list()[:1]), tuple(pivots))
        assert tested >= 20 and calls == []

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_and_invert(self, seed):
        for domain, real in DOMAINS:
            for a, b in _solve_inputs(seed, real):
                assert b.den != 1
                a_sym, b_sym = _to_sympy(a, domain), _to_sympy(b, domain)
                if a_sym.rank() < a.rows:
                    with pytest.raises(SingularMatrix):
                        solve(a, b)
                    with pytest.raises(SingularMatrix):
                        _inverse(a)
                    continue
                assert solve(a, b) == _from_sympy(a_sym.lu_solve(b_sym).to_list())
                assert _inverse(a) == _from_sympy(a_sym.inv().to_list())

    def test_real_inputs_have_negative_and_non_unit_last_pivots(self):
        # the last pivot D of the integer elimination divides every result,
        # so a sign or a factor lost there would show: on the integer rows
        # of real matrices, and on the realified rows of complex ones
        for real in (True, False):
            last = []
            for seed in range(4):
                mats = _shaped_inputs(100, seed, real) + _shaped_inputs(300, seed, real)
                # the last pivot of a solve is that of its a, whose
                # realified rows are those of conj(a)
                mats += [a if real else a.conj() for a, _ in _solve_inputs(seed, real)]
                for m in mats:
                    if real:
                        rows, width = m.num_re.tolist(), m.cols
                    else:
                        rows, width = _realified(m.num_re.tolist(), m.num_im.tolist()), 2 * m.cols
                    pivots = _echelon_int(rows, width)
                    if pivots:
                        last.append(rows[-1][pivots[-1][1]])
            assert any(d < 0 for d in last) and any(d > 1 for d in last) and any(d < -1 for d in last)


# entries: often zero, so rows turn zero and pivots repeat (the skips of
# the update), mostly small, some beyond 64 bits; products of a tall and a
# wide factor give rank-deficient matrices
_INTS = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(2**70), 2**70))


@st.composite
def gaussian_grids(draw):
    """(m, b): a Gaussian-integer matrix m, with real and imaginary parts
    drawn from _INTS, half of the time the product of a tall and a wide
    factor, and some rows zeroed; b a right-hand side over denominator 3
    when m is square, else None."""
    rows = draw(st.integers(0, 5))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 5))

    def grid(r, c):
        parts = [np.array(draw(st.lists(st.lists(_INTS, min_size=c, max_size=c), min_size=r, max_size=r)),
                          dtype=object).reshape(r, c) for _ in range(2)]
        return Mat(*parts)

    if rows and cols and draw(st.booleans()):
        k = draw(st.integers(1, min(rows, cols)))
        m = grid(rows, k) @ grid(k, cols)
    else:
        m = grid(rows, cols)
    zero = draw(st.lists(st.sampled_from([False, False, True]), min_size=rows, max_size=rows))
    keep = np.array([[0 if z else 1] for z in zero], dtype=object).reshape(rows, 1)
    m = Mat(m.num_re * keep, m.num_im * keep, m.den)
    b = grid(rows, draw(st.integers(1, 2))) * CRat(Fraction(1, 3)) if rows == cols else None
    return m, b


class TestIntegerKernel:
    """The one integer Bareiss kernel, which a complex matrix takes on its
    realified rows: against sympy over QQ_I on Gaussian-integer grids, and
    the forward pass alone on an input of full column rank."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(gaussian_grids())
    def test_gaussian_grids_against_sympy(self, drawn):
        m, b = drawn
        m_sym = _to_sympy(m)
        reduced, pivots = m_sym.rref()
        expected = _from_sympy(reduced.to_list()[: len(pivots)]) if pivots else Mat.zeros(0, m.cols)
        assert rref(m) == (expected, tuple(pivots))
        assert rank(m) == len(pivots)
        assert _kernel(m) == _sympy_kernel(m)
        if b is None or not m.rows:
            return
        if len(pivots) < m.rows:
            with pytest.raises(SingularMatrix):
                solve(m, b)
            with pytest.raises(SingularMatrix):
                _inverse(m)
            return
        assert solve(m, b) == _from_sympy(m_sym.lu_solve(_to_sympy(b)).to_list())
        assert _inverse(m) == _from_sympy(m_sym.inv().to_list())

    def test_full_column_rank_input_takes_one_forward_pass(self, monkeypatch):
        passes = []
        for name in ("_echelon_int", "_jordan_pass"):
            exact = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, _exact=exact, _name=name: passes.append(_name) or _exact(*a))
        rng = random.Random(1000)
        # (rows, cols, rank, real): an input with a pivot in every column
        # takes the forward pass alone, any other one the Gauss-Jordan pass too
        cases = [(2, 2, 2, False), (3, 2, 2, False), (5, 3, 3, False), (4, 4, 4, False), (4, 3, 3, True),
                 (4, 3, 2, False), (3, 3, 2, False), (2, 4, None, False), (4, 3, 2, True), (2, 4, None, True)]
        for rows, cols, r, real in cases:
            m = _gaussian_matrix(rng, rows, cols, r, real)
            reduced, pivots = _to_sympy(m, QQ if real else QQ_I).rref()
            assert _unit_columns_of(m) is None and m.is_real() == real
            passes.clear()
            assert rref(m) == (_from_sympy(reduced.to_list()[: len(pivots)]), tuple(pivots))
            full = pivots == tuple(range(cols))
            assert full == (r == cols)
            assert passes == (["_echelon_int"] if full else ["_echelon_int", "_jordan_pass"])


def _unit_columns_of(m: Mat):
    """The columns of the unit-row shortcut of rref, None where m takes the kernel."""
    grids = (m.num_re.tolist(),) if m.is_real() else (m.num_re.tolist(), m.num_im.tolist())
    return linalg._unit_columns(grids, m.cols)


def _gaussian_or_empty(rng, rows, cols):
    return _gaussian_matrix(rng, rows, cols) if rows and cols else Mat.zeros(rows, cols)


def _real_part(m: Mat) -> Mat:
    """m with its imaginary grid dropped, its realness not yet read."""
    return Mat(m.num_re.copy(), np.zeros(m.num_im.shape, dtype=object), m.den)


def _imaginary_part(m: Mat) -> Mat:
    """i times the imaginary part of m: its products with itself are real."""
    return Mat(np.zeros(m.num_re.shape, dtype=object), m.num_im.copy(), m.den)


class TestKronAndStacks:
    """kron against its entrywise definition, and hstack/vstack (built with
    no gcd sweep) against the normalized result, on seeded rectangular
    Gaussian-rational matrices with mixed denominators."""

    @pytest.mark.parametrize("seed", range(3))
    def test_kron_entrywise(self, seed):
        rng = random.Random(500 + seed)
        shapes = [(2, 2), (1, 3), (3, 1), (2, 4), (0, 2), (2, 0), (0, 0)]
        for sa in shapes:
            for sb in rng.sample(shapes, 3):
                a, b = _gaussian_or_empty(rng, *sa), _gaussian_or_empty(rng, *sb)
                (ra, ca), (rb, cb) = sa, sb
                k = kron(a, b)
                assert (k.rows, k.cols) == (ra * rb, ca * cb)
                for i in range(ra * rb):
                    for j in range(ca * cb):
                        assert k.entry(i, j) == a.entry(i // rb, j // cb) * b.entry(i % rb, j % cb)

    @pytest.mark.parametrize("seed", range(3))
    def test_kron_of_real_factors_entrywise(self, seed):
        # one outer product, with a zero imaginary grid and the flag set
        rng = random.Random(550 + seed)
        shapes = [(2, 2), (1, 3), (3, 1), (2, 4), (0, 2)]
        for sa in shapes:
            for sb in rng.sample(shapes, 3):
                a, b = _real_part(_gaussian_or_empty(rng, *sa)), _real_part(_gaussian_or_empty(rng, *sb))
                (ra, ca), (rb, cb) = sa, sb
                k = kron(a, b)
                assert k._real is True and not k.num_im.any()
                assert (k.rows, k.cols) == (ra * rb, ca * cb)
                for i in range(ra * rb):
                    for j in range(ca * cb):
                        assert k.entry(i, j) == a.entry(i // rb, j // cb) * b.entry(i % rb, j % cb)

    @pytest.mark.parametrize("seed", range(3))
    def test_stacks_equal_normalized(self, seed):
        rng = random.Random(600 + seed)
        scales = [CRat(1), CRat(Fraction(3, 4)), CRat(Fraction(6, 5), 2), CRat(0, Fraction(1, 9))]
        for _ in range(12):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = _gaussian_matrix(rng, rows, cols) * rng.choice(scales)
            b = _gaussian_matrix(rng, rows, rng.randint(1, 3)) * rng.choice(scales)
            c = _gaussian_matrix(rng, rng.randint(1, 3), cols) * rng.choice(scales)
            ea, eb, ec = a.entries(), b.entries(), c.entries()
            assert a.hstack(b) == Mat.from_rows([x + y for x, y in zip(ea, eb)])
            assert a.vstack(c) == Mat.from_rows(ea + ec)
            for m in (a.hstack(b), a.vstack(c)):
                assert math.gcd(m.den, *m.num_re.flat, *m.num_im.flat) == 1


class TestRealness:
    """Mat.is_real, read from the imaginary grid at most once or set at
    construction, against the grid itself: on seeded Gaussian-rational
    matrices and on the results of every operation that sets the flag,
    with real, complex and purely imaginary operands whose flags are read
    or not yet read."""

    @pytest.mark.parametrize("seed", range(4))
    def test_flag_matches_imaginary_grid(self, seed):
        rng = random.Random(800 + seed)
        for _ in range(12):
            a = _gaussian_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            for m in (a, _real_part(a), _imaginary_part(a), Mat.zeros(2, 3), Mat.eye(2)):
                assert m.is_real() == (not m.num_im.any())
                assert m._real is m.is_real()

    @staticmethod
    def _results(x, y):
        yield x @ y
        yield kron(x, y)
        yield x + y
        yield mat_sum([x, y, x])
        yield x.hstack(y)
        yield x.vstack(y)
        yield -x
        yield x * CRat(Fraction(-2, 3))
        yield x * CRat(0, 1)
        for m in (x.dagger(), x.transpose(), x.conj(), x[1:, :], x[:, 0], x[0:1, 1:], vec(x), unvec(vec(x), 3)):
            yield m
        yield rref(x)[0]
        yield from _kernel(x)

    @pytest.mark.parametrize("seed", range(4))
    def test_flag_survives_every_operation(self, seed):
        rng = random.Random(900 + seed)
        for _ in range(3):
            a, b = _gaussian_matrix(rng, 3, 3, rng.randint(1, 3)), _gaussian_matrix(rng, 3, 3)
            kinds = [a, _real_part(a), _imaginary_part(a), b, _real_part(b), _imaginary_part(b)]
            for read in (False, True):
                for x in kinds:
                    for y in kinds:
                        # fresh copies, so no flag is left over from an earlier round
                        x2, y2 = (Mat(m.num_re, m.num_im, m.den) for m in (x, y))
                        if read:
                            x2.is_real(), y2.is_real()
                        for m in self._results(x2, y2):
                            assert m.is_real() == (not m.num_im.any())


class TestPsd:
    def test_projector_is_psd(self):
        assert is_psd(Mat.from_rows([["1/2", "-1/2"], ["-1/2", "1/2"]]))

    def test_indefinite_rejected(self):
        assert not is_psd(Mat.from_rows([[1, 2], [2, 1]]))

    def test_zero_row_pattern(self):
        assert is_psd(Mat.from_rows([[0, 0], [0, 1]]))
        assert not is_psd(Mat.from_rows([[0, 1], [1, 1]]))

    def test_complex_psd(self):
        v = Mat.column([1, (0, 1)])
        assert is_psd(v @ v.dagger())
        assert not is_psd(Mat.from_rows([[1, (0, 1)], [(0, 1), 1]]))  # not Hermitian

    @pytest.mark.parametrize("seed", range(3))
    def test_psd_of_every_rank(self, seed):
        # B B† of rank r < n leaves zero pivots mid-sweep; a zero row and
        # column inserted at a random place gives a zero pivot up front.
        # Minus 10^-6 I the matrix stays PSD exactly when its least
        # eigenvalue is at least 10^-6, so never when it is singular.
        rng = random.Random(500 + seed)
        for n in (1, 2, 3, 4, 5):
            for r in range(n + 1):
                b = _gaussian_matrix(rng, n, r) if r else Mat.zeros(n, 1)
                a = b @ b.dagger()
                assert is_psd(a) and _schur_psd(a)
                eps = Mat.eye(n) * CRat(Fraction(1, 10**6))
                assert is_psd(a - eps) == _schur_psd(a - eps)
                assert is_psd(a - eps) == (r == n and np.linalg.eigvalsh(a.to_complex()).min() > 1e-6)
                k = rng.randint(0, n)
                padded = _insert_zero_row_and_column(a, k)
                assert is_psd(padded)
                assert not is_psd(padded - Mat.eye(n + 1) * CRat(Fraction(1, 10**6)))

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_of_densities_of_every_rank(self, seed):
        # the positive pivots of the sweep, halved on realified rows,
        # against the elimination rank and sympy's rank over QQ_I; the
        # indefinite and non-Hermitian matrices have none
        rng = random.Random(3140 + seed)
        seen = set()
        for n in (1, 2, 3, 4, 5):
            for r in range(n + 1):
                real = rng.random() < 0.3
                b = _gaussian_matrix(rng, n, r, rank=r, real=real) if r else Mat.zeros(n, 1)
                a = b @ b.dagger()
                if not a.is_zero():
                    a = a * CRat(1 / a.trace().re)
                k = rank(a)
                assert psd_rank(a) == k == _to_sympy(a).rank()
                seen.add((n, k))
                padded = _insert_zero_row_and_column(a, rng.randint(0, n))
                assert psd_rank(padded) == k
                # a density's eigenvalues are at most one
                assert psd_rank(a - Mat.eye(n) * CRat(2)) is None
                if n > 1:
                    assert psd_rank(a + Mat.unit(n, 0, n - 1) * CRat(Fraction(1, 3))) is None
        assert len(seen) >= 18

    @pytest.mark.parametrize("seed", range(3))
    def test_against_eigenvalues(self, seed):
        # numpy decides away from zero, the CRat Schur sweep everywhere
        rng = random.Random(600 + seed)
        decided = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            c = _gaussian_matrix(rng, n, n)
            h = c + c.dagger()
            if rng.random() < 0.5:
                h = h + Mat.eye(n) * CRat(rng.randint(0, 12))
            assert is_psd(h) == _schur_psd(h)
            low = np.linalg.eigvalsh(h.to_complex()).min()
            if abs(low) > 1e-6:
                assert is_psd(h) == (low > 0)
                decided += 1
        assert decided > 40

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_pivot_with_nonzero_row_is_indefinite(self, seed):
        # A = L Z L† with L unit lower triangular and Z = D + [[0, c], [c*, e]]
        # at rows k, k+1: the sweep meets the zero pivot at k, and its row
        # holds c
        rng = random.Random(700 + seed)
        for n in (2, 3, 4, 5):
            k = rng.randint(0, n - 2)
            z = [[CRat(0)] * n for _ in range(n)]
            for i in range(n):
                z[i][i] = CRat(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            c = _gaussian_rational(rng)
            while c.is_zero():
                c = _gaussian_rational(rng)
            z[k][k], z[k][k + 1], z[k + 1][k] = CRat(0), c, c.conjugate()
            z[k + 1][k + 1] = CRat(rng.randint(-3, 3))
            lower = [[_gaussian_rational(rng) if j < i else CRat(int(i == j)) for j in range(n)] for i in range(n)]
            lo = Mat.from_rows(lower)
            a = lo @ Mat.from_rows(z) @ lo.dagger()
            assert a.is_hermitian()
            assert np.linalg.eigvalsh(a.to_complex()).min() < -1e-9
            assert not is_psd(a)

    def test_non_hermitian_rejected(self):
        rng = random.Random(800)
        for n in (2, 3, 4):
            b = _gaussian_matrix(rng, n, n)
            a = b @ b.dagger() + Mat.eye(n)
            skew = Mat.unit(n, 0, n - 1) * CRat(Fraction(1, 3))
            assert is_psd(a)
            assert not is_psd(a + skew)
            assert not is_psd(a + Mat.eye(n) * CRat(0, 1))


def _schur_psd(m: Mat) -> bool:
    """The Schur-complement sweep in CRat arithmetic, as a reference: a
    negative pivot refutes, a zero pivot needs a zero row."""
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        d = a[k][k]
        if d.im != 0 or d.re < 0:
            return False
        if d.re == 0:
            if any(not a[k][j].is_zero() for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            factor = a[i][k] / d
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    return True


def _insert_zero_row_and_column(a: Mat, k: int) -> Mat:
    re = np.insert(np.insert(a.num_re, k, 0, axis=0), k, 0, axis=1)
    im = np.insert(np.insert(a.num_im, k, 0, axis=0), k, 0, axis=1)
    return Mat(re, im, a.den)


# ----------------------------------------------------------------------
# the entry parser against the CRat.coerce reading


def _reference_mat(rows) -> Mat:
    """Mat.from_rows read entry by entry through CRat.coerce and Fraction."""
    grid = [[CRat.coerce(e) for e in row] for row in rows]
    den = math.lcm(*(x.denominator for row in grid for e in row for x in (e.re, e.im)))
    num_re = np.array([[int(e.re * den) for e in row] for row in grid], dtype=object)
    num_im = np.array([[int(e.im * den) for e in row] for row in grid], dtype=object)
    return Mat(num_re, num_im, den)


_digits = st.integers(0, 10**6).map(str)
_literal_strings = st.one_of(
    st.builds(lambda s, n: s + n, st.sampled_from(["", "-", "+"]), _digits),
    st.builds(lambda s, n, d: f"{s}{n}/{d}", st.sampled_from(["", "-", "+"]), _digits, _digits),
    st.builds(
        lambda left, body, right: left + body + right,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["-3/4", "3 / 4", "3/ 4", "3/-4", "0.5", "-.25", "1e-3", "2E5", "1_000", "1__0",
                         "1/0", "0/7", "6/4", "x1", "", "1/2/3", "+-1", "1.5/2", "inf", "nan"]),
        st.sampled_from(["", " ", "\n"]),
    ),
    st.text(alphabet="0123456789+-/._eE x", max_size=8),
)
_reals = st.one_of(
    _literal_strings,
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
)
_entries = st.one_of(
    _reals,
    st.builds(CRat, st.fractions(max_denominator=1000), st.fractions(max_denominator=1000)),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.lists(_reals, min_size=2, max_size=2),
    st.tuples(_reals, _reals),
    st.lists(_reals, min_size=3, max_size=3),
)
PARSER = settings(derandomize=True, max_examples=120, deadline=None)


class TestEntryParser:
    """Mat.from_rows and the test helper mat_from_complex read every entry
    exactly as CRat.coerce and Fraction do, and reject what they reject."""

    @PARSER
    @given(st.integers(1, 3).flatmap(lambda c: st.lists(st.lists(_entries, min_size=c, max_size=c), min_size=1, max_size=3)))
    def test_from_rows_equals_reference(self, rows):
        try:
            expected = _reference_mat(rows)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError):
            with pytest.raises(MalformedInput):
                Mat.from_rows(rows)
            return
        assert Mat.from_rows(rows) == expected

    @pytest.mark.parametrize("text", ["3/-4", "", "1/0", "3 / 4", "x1", "1__0", " ", "1/2/3"])
    def test_rejects_what_fraction_rejects(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
        with pytest.raises(MalformedInput, match=repr(text)):
            Mat.from_rows([[1, text]])
        with pytest.raises(MalformedInput):
            Mat.from_rows([[[text, 0]]])

    @pytest.mark.parametrize("text, value", [(" -3/4 ", Fraction(-3, 4)), ("0.5", Fraction(1, 2)),
                                             ("1e-3", Fraction(1, 1000)), ("1_000", Fraction(1000)),
                                             ("+6/4", Fraction(3, 2)), ("-0", Fraction(0))])
    def test_accepts_what_fraction_accepts(self, text, value):
        assert Mat.from_rows([[text]]) == Mat.from_rows([[value]])
        assert Mat.from_rows([[[0, text]]]).entry(0, 0) == CRat(0, value)

    @pytest.mark.parametrize(
        "entry",
        ["+3", "007", "-0/5", "1/0", " 3", "1_0", "\u0663", "\u00b2", "-", "3/", Fraction(-3, 4),
         CRat(Fraction(1, 2), -2), 0.1, -2.5e-3, True],
    )
    def test_literal_corpus(self, entry):
        # strings near the "p"/"p/q" shape, and the other forms, alone, in a
        # row, and as either part of a complex pair: read as Fraction and
        # CRat.coerce read them ("\u0663", an Arabic-Indic three, is 3 to
        # Fraction, the superscript two is no number to it)
        cases = [[[entry]], [["1/2", entry, 0]]]
        if not isinstance(entry, CRat):
            cases += [[[[entry, "1/3"]]], [[["-1/6", entry], 2], [3, 4]]]
        for rows in cases:
            try:
                expected = _reference_mat(rows)
            except (ValueError, ZeroDivisionError, TypeError, OverflowError):
                with pytest.raises(MalformedInput, match=re.escape(repr(entry))):
                    Mat.from_rows(rows)
                continue
            assert Mat.from_rows(rows) == expected
        assert Mat.from_rows([["\u0663"]]) == Mat.from_rows([[3]])
        with pytest.raises(MalformedInput):
            Mat.from_rows([["\u00b2"]])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda c: st.lists(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=c, max_size=c),
                           min_size=1, max_size=3)))
    def test_from_complex_equals_fractions(self, rows):
        expected = _reference_mat([[CRat(Fraction(x.real), Fraction(x.imag)) for x in row] for row in rows])
        assert mat_from_complex(np.array(rows, dtype=complex)) == expected

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda c: st.lists(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=c, max_size=c),
                           min_size=1, max_size=3)))
    def test_to_complex_inverts_from_complex(self, rows):
        a = np.array(rows, dtype=complex)
        assert np.array_equal(mat_from_complex(a).to_complex(), a)

    def test_to_complex_rounds_huge_entries(self):
        # numerators beyond float range: every entry is its rounded quotient
        big = Fraction(10**600 + 1, 3 * 10**600)
        m = Mat.from_rows([[big, Fraction(1, 3)], [(0, Fraction(-2, 7)), 0]])
        assert m.to_complex().tolist() == [[float(big), 1 / 3], [-2j / 7, 0]]


def _row(coeffs) -> Mat:
    """The polynomial with the coefficients [c_0, ..., c_n] as a row Mat."""
    return Mat.from_rows([list(coeffs)])


def charpoly(m: Mat) -> Mat:
    """det(zI - m) for a real m as the row Mat [c_0 ... c_n]: the primitive
    integer polynomial of linalg._charpoly_int over its leading
    coefficient."""
    assert m.is_real()
    p = _charpoly_int(m.num_re.tolist(), m.den)
    return _row(Fraction(c, p[-1]) for c in p)


def _dense_tp_channel(rng, d) -> SuperOp:
    """A trace-preserving channel on C^d with two dense complex Kraus
    operators: the d x d blocks of the first d columns of the Cayley
    unitary (I - iH)(I + iH)^-1 of a random Hermitian H on C^2d."""
    v = random_cayley_unitary(rng, 2 * d)[:, :d]
    return SuperOp([v[:d, :], v[d:, :]])


def _loop(actions, names):
    """The loop channel of the word ``names`` (first action first) as its
    complex matrix representation and as its real matrix in the Hermitian
    operator basis, the product that the loop refinement of [] <> forms."""
    m, h = actions[names[0]].matrix_rep(), actions[names[0]].hermitian_rep()
    for name in names[1:]:
        m, h = actions[name].matrix_rep() @ m, actions[name].hermitian_rep() @ h
    return m, h


def _random_loop(rng, a):
    return _loop(a.actions, [rng.choice(sorted(a.actions)) for _ in range(rng.randint(1, 3))])


class TestCharpoly:
    """linalg._charpoly_int against sympy's characteristic polynomial over
    QQ_I: on real matrices, and on a channel's real matrix in the Hermitian
    operator basis against the original complex matrix representation."""

    @staticmethod
    def _expected(m: Mat) -> Mat:
        def frac(x):
            return Fraction(int(x.numerator), int(x.denominator))

        return _row(CRat(frac(c.x), frac(c.y)) for c in reversed(_to_sympy(m).charpoly()))

    @pytest.mark.parametrize("seed", range(3))
    def test_gaussian_rational_matrices(self, seed):
        # the real parts where the draw is complex
        rng = random.Random(400 + seed)
        for n in range(7):
            for r in (None, max(n - 2, 0)):
                m = _gaussian_or_empty(rng, n, n) if r is None else _gaussian_matrix(rng, n, n, r)
                m = _real_part(m)
                assert charpoly(m) == self._expected(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_real_matrices(self, seed):
        rng = random.Random(410 + seed)
        for n in range(1, 8):
            m = Mat.from_rows([[_gaussian_rational(rng).re for _ in range(n)] for _ in range(n)])
            assert charpoly(m) == self._expected(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_matrices(self, seed):
        # mostly zero grids, where the reduction reads and skips many zero
        # entries
        rng = random.Random(430 + seed)
        for n in range(1, 8):
            rows = [[_gaussian_rational(rng) if rng.random() < 0.3 else CRat(0) for _ in range(n)] for _ in range(n)]
            m = Mat.from_rows([[x.re for x in row] for row in rows])
            assert charpoly(m) == self._expected(m)

    def test_dense_matrices_against_the_fraction_reduction(self):
        # dense 16 x 16 grids of rationals: every cleared row's content goes
        # back into its column's denominator, and into the column's entries
        # where it does not divide it
        rng = random.Random(470)

        def rational():
            return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

        m = Mat.from_rows([[rational() for _ in range(16)] for _ in range(16)])
        assert charpoly(m) == Mat.from_rows([reference_charpoly(m)])
        # integer grids whose even rows are even: contents that the
        # denominators do not absorb
        for n in (6, 10):
            rows = [[rng.randint(-5, 5) * (2 if i % 2 == 0 else 1) for _ in range(n)] for i in range(n)]
            m = Mat.from_rows(rows)
            assert charpoly(m) == Mat.from_rows([reference_charpoly(m)])

    def test_empty_and_scalar(self):
        assert charpoly(Mat.zeros(0)) == _row([1])
        assert charpoly(Mat.from_rows([[Fraction(1, 2)]])) == _row([Fraction(-1, 2), 1])

    @pytest.mark.parametrize("seed", range(3))
    def test_nilpotent(self, seed):
        # z^n, also when a similarity hides the strictly triangular form and
        # the Hessenberg pivots must be searched for
        rng = random.Random(420 + seed)
        for n in range(1, 7):
            rows = [[_gaussian_rational(rng) if j > i else 0 for j in range(n)] for i in range(n)]
            s_re = _gaussian_matrix(rng, n, n, real=True)
            while _to_sympy(s_re).rank() < n:
                s_re = _gaussian_matrix(rng, n, n, real=True)
            upper = _real_part(Mat.from_rows(rows))
            for m in (upper, upper.transpose(), s_re @ upper @ _inverse(s_re)):
                assert charpoly(m) == _row([0] * n + [1])
                assert charpoly(m) == self._expected(m)

    def test_complex_channel_matrices(self):
        # a channel's real matrix in the Hermitian operator basis has the
        # characteristic polynomial of its complex matrix representation
        # over QQ_I; on random_automaton loops at d = 2-4, on X -> u X u†
        # for complex rational u, and on dense complex channels
        rng = random.Random(480)
        pairs = []
        for dim in (2, 2, 3, 3, 4, 4):
            pairs.append(_random_loop(rng, random_automaton(rng, dim, rng.randint(1, 3))))
        for dim in (2, 3):
            e = SuperOp([_gaussian_matrix(rng, dim, dim)], validate=False)
            pairs.append((e.matrix_rep(), e.hermitian_rep()))
        for dim in (3, 4):
            e = _dense_tp_channel(rng, dim)
            pairs.append((e.matrix_rep(), e.hermitian_rep()))
        assert sum(not m.is_real() for m, _ in pairs) >= 3
        for m, h in pairs:
            assert h.is_real()
            assert charpoly(h) == self._expected(m)
            assert charpoly(h) == Mat.from_rows([reference_charpoly(m)])


def _sympy_period(m: Mat, bound: int):
    """(k, b) of _peripheral_period from sympy: the characteristic polynomial
    factored over Q, its cyclotomic factors Phi_j counted with their degrees
    and multiplicities, b the lcm of their j; or the start of the reason
    when a factor that is not cyclotomic has a root of modulus one (found
    numerically), or when b exceeds the bound."""
    z = sympy.Symbol("z")
    coeffs = _to_sympy(m).charpoly()
    assert all(c.y == 0 for c in coeffs)
    p = sympy.Poly([sympy.Rational(int(c.x.numerator), int(c.x.denominator)) for c in coeffs], z)
    k, b = 0, 1
    for f, mult in sympy.factor_list(p)[1]:
        f = f.monic()
        if f.is_cyclotomic:
            deg = f.degree()
            j = next(j for j in range(1, 4 * deg * deg + 3)
                     if sympy.totient(j) == deg and sympy.cyclotomic_poly(j, z) == f.as_expr())
            k, b = k + deg * mult, math.lcm(b, j)
        elif any(abs(abs(root) - 1) < 1e-9 for root in f.nroots()):
            return "a peripheral eigenvalue is not a root of unity"
    return (k, b) if b <= bound else "the peripheral eigenvalues have no common order"


def _rotation(n):
    """The rational rotation of t = 1/n, [[a, -b], [b, a]]: a quarter turn
    for n = 1 and of infinite order otherwise."""
    a, b = Fraction(n * n - 1, n * n + 1), Fraction(2 * n, n * n + 1)
    return Mat.from_rows([[a, -b], [b, a]])


class TestPeripheralPeriod:
    """linalg._peripheral_period against the sympy factorization of the
    characteristic polynomial of the complex matrix representation."""

    @staticmethod
    def _agrees(m, h=None, bound=64):
        """The period of h, a channel's real matrix in the Hermitian
        operator basis (m itself when None), against sympy's on m."""
        h = m if h is None else h
        expected = _sympy_period(m, bound)
        if isinstance(expected, tuple):
            assert _peripheral_period(h, bound) == expected
        else:
            with pytest.raises(UncertifiedPeriod, match=expected):
                _peripheral_period(h, bound)
        return expected

    @pytest.mark.parametrize("seed", range(4))
    def test_loop_channels_of_finite_order_automata(self, seed):
        rng = random.Random(430 + seed)
        outcomes = []
        for _ in range(10):
            a = random_automaton(rng, rng.choice([2, 3]), rng.randint(1, 3), finite_order=True)
            outcomes.append(self._agrees(*_random_loop(rng, a)))
        # every word of finite-order channels is certified, some with b > 1
        assert all(isinstance(o, tuple) for o in outcomes)
        assert any(b > 1 for _, b in outcomes)

    def test_loop_matrices_up_to_dimension_four(self):
        # the loop products that the refinement of [] <> forms, at d = 2-4:
        # the characteristic polynomial and the period of the real product
        # against sympy on the complex one, on real and on complex channels
        rng = random.Random(440)
        realness = set()
        for dim in (2, 2, 2, 3, 3, 3, 4, 4, 4, 4):
            a = random_automaton(rng, dim, rng.randint(1, 3), finite_order=rng.random() < 0.5)
            loop, h = _random_loop(rng, a)
            realness.add(loop.is_real())
            assert charpoly(h) == TestCharpoly._expected(loop)
            self._agrees(loop, h)
        assert realness == {True, False}

    def test_program_loops_against_the_fraction_reduction(self, monkeypatch):
        # the 784 x 784 and 729 x 729 loop matrices of [] <> on two programs
        # with D = 28 and D = 27, taken in the Hermitian operator basis by
        # the checker, against the Hessenberg reduction over Q(i) of the
        # complex loop matrix
        loops = []
        refine = checker._p2_refine

        def record(members, cycle, u, actions):
            loops.append(_loop(actions, [name for _, name, _ in cycle]))
            return refine(members, cycle, u, actions)

        monkeypatch.setattr(checker, "_p2_refine", record)
        for seed, dim, locations in ((2, 4, 6), (0, 3, 8)):
            prog = random_deterministic_program(random.Random(seed), dim, locations)
            atom = partial_correctness_subspace(prog, span([1] + [0] * (dim - 1)))
            checker._always_eventually_by_fixpoints(to_automaton(prog), atom)
        assert [m.rows for m, _ in loops] == [784, 729]
        for m, h in loops:
            assert charpoly(h) == Mat.from_rows([reference_charpoly(m)])

    def test_rotation_family(self):
        reset = SuperOp([Mat.unit(2, 0, 0), Mat.unit(2, 0, 1)], validate=False)
        for n in (1, 2, 3, 7, 10**9):
            u = SuperOp.from_unitary(_rotation(n))
            m, h = u.matrix_rep(), u.hermitian_rep()
            assert self._agrees(m, h) == ((4, 2) if n == 1 else "a peripheral eigenvalue is not a root of unity")
            # beside a reset to |0>: the rotation's eigenvalues stay peripheral
            mixed = [
                x * CRat(Fraction(9, 25)) + r * CRat(Fraction(16, 25))
                for x, r in ((m, reset.matrix_rep()), (h, reset.hermitian_rep()))
            ]
            assert self._agrees(*mixed) == (1, 1)

    def test_period_bound(self):
        # a cyclic shift of order 6 on C^6 (the order-6 part on its operators)
        shift = SuperOp.from_unitary(Mat.from_rows([[1 if j == (i + 1) % 6 else 0 for j in range(6)] for i in range(6)]))
        assert _peripheral_period(shift.hermitian_rep(), 6) == (36, 6)
        with pytest.raises(UncertifiedPeriod, match="no common order up to 5"):
            _peripheral_period(shift.hermitian_rep(), 5)

    def test_band_decided_exactly(self):
        # 1 - 10^-9, inside the band a float classification cannot decide
        m = Mat.from_rows([[Fraction(999999999, 1000000000)]])
        assert _peripheral_period(m, 64) == (0, 1)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestStrippedGcd:
    """gcd(p, z^n p(1/z)) for p = z^m q is gcd(q, z^(n-m) q(1/z)), which is
    what _peripheral_period computes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_full_gcd(self, seed):
        rng = random.Random(460 + seed)
        cyclotomic = [[-1, 1], [1, 1], [1, 0, 1], [1, 1, 1], [1, -1, 1], [1, 0, 0, 1]]
        for _ in range(30):
            q = [rng.choice([-1, 1]) * rng.randint(1, 4)]
            for _ in range(rng.randint(0, 3)):
                q = _poly_mul(q, rng.choice(cyclotomic))
            for _ in range(rng.randint(0, 2)):
                inner = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
                q = _poly_mul(q, [rng.choice([-1, 1]) * rng.randint(1, 9), *inner, rng.randint(1, 9)])
            p = [0] * rng.randint(1, 40) + q
            assert linalg._gcd(q, q[::-1]) == linalg._gcd(p, p[::-1])


class TestPeripheralSplit:
    """The exact split of the spectrum: k eigenvalues on the unit circle,
    all roots of unity of the common order b, and the strictly contracting
    rest."""

    def test_identity_channel_all_peripheral(self):
        assert charpoly(Mat.eye(4)) == _row([1, -4, 6, -4, 1])
        assert _peripheral_period(Mat.eye(4), 64) == (4, 1)

    def test_damping_channel(self):
        e0 = Mat.from_rows([[1, 0], [0, 0]])
        e1 = Mat.from_rows([[0, 1], [0, 0]])
        m = kron(e0, e0.conj()) + kron(e1, e1.conj())
        # eigenvalues 0 (three times) and 1
        assert charpoly(m) == _row([0, 0, 0, -1, 1])
        assert _peripheral_period(m, 64) == (1, 1)

    def test_measure_hadamard_step_channel_split(self):
        # the loop's one-step channel: the peripheral multiplicity equals the
        # dimension of operators fixed on the exit block, and the rest
        # contracts at rate 1/sqrt(2)
        from qtl.qwhile import compile_source
        from qtl.program import step_superop
        from helpers import EXAMPLE_LOOP_SRC

        prog = compile_source(EXAMPLE_LOOP_SRC)
        step = step_superop(prog)
        assert _peripheral_period(step.hermitian_rep(), 64) == (4, 1)
        m = step.matrix_rep()
        eigs = np.linalg.eigvals(m.to_complex())
        assert abs(max(abs(lam) for lam in eigs if abs(lam) < 0.99) - 2 ** -0.5) < 1e-9

    def test_no_peripheral_eigenvalue_keeps_input(self):
        m = _on_diagonal(Mat.from_rows([["1/2", 1], [0, "-1/3"]]))
        assert _peripheral_period(m, 64) == (0, 1)

    def test_power_consistency_at_64(self):
        # the certificate of limit_states: M^b fixes exactly the k-dimensional
        # peripheral space, and no smaller power fixes all of it
        rng = random.Random(22)
        for _ in range(5):
            e = random_tp_channel(rng, 2, finite_order=True)
            k, b = _peripheral_period(e.hermitian_rep(), 64)
            m = e.matrix_rep()
            power = Mat.eye(4)
            for c in range(1, b + 1):
                power = power @ m
                fixed = len(_kernel(power - Mat.eye(4)))
                assert fixed == k if c == b else fixed < k

    def test_trace_preserving_spectral_structure(self):
        # spectral radius at most one, peripheral eigenvalues semisimple
        rng = random.Random(23)
        for _ in range(10):
            e = random_tp_channel(rng, rng.choice([2, 3]))
            m = e.matrix_rep().to_complex()
            eigs = np.linalg.eigvals(m)
            assert np.abs(eigs).max() <= 1 + 1e-9
            for lam in eigs:
                if abs(lam) > 1 - 1e-6:
                    alg = int(np.sum(np.abs(eigs - lam) < 1e-7))
                    sv = np.linalg.svd(m - lam * np.eye(m.shape[0]), compute_uv=False)
                    geo = int(np.sum(sv < 1e-7 * max(1.0, sv[0])))
                    assert alg == geo


def _on_diagonal(m: Mat) -> Mat:
    """The 4 x 4 real map that acts as the 2 x 2 matrix m on the diagonal
    entries (E_00, E_11) of a 2 x 2 operator, vec coordinates 0 and 3, and
    sends the off-diagonal ones to zero: it commutes with the transpose, so
    it maps Hermitian operators to Hermitian ones, and its characteristic
    polynomial is z^2 times m's."""
    rows = [[0] * 4 for _ in range(4)]
    for i, a in enumerate((0, 3)):
        for j, b in enumerate((0, 3)):
            rows[a][b] = m.entry(i, j).re
    return Mat.from_rows(rows)


class TestOrders:
    def test_multiplicative_order(self):
        # companion matrices of z - 1, z + 1, z^2 + 1, z^2 + z + 1, of the
        # rotation with cos = 3/5, and of z - 1/2; the 2 x 2 ones act on the
        # diagonal of a 2 x 2 operator
        one, minus_one = Mat.from_rows([[1]]), Mat.from_rows([[-1]])
        quarter = _on_diagonal(Mat.from_rows([[0, -1], [1, 0]]))
        third = _on_diagonal(Mat.from_rows([[0, -1], [1, -1]]))
        assert _peripheral_period(one, 8) == (1, 1)
        assert _peripheral_period(minus_one, 8) == (1, 2)
        assert _peripheral_period(quarter, 8) == (2, 4)
        assert _peripheral_period(third, 8) == (2, 3)
        with pytest.raises(UncertifiedPeriod, match="not a root of unity"):
            _peripheral_period(_on_diagonal(Mat.from_rows([["3/5", "-4/5"], ["4/5", "3/5"]])), 64)
        assert _peripheral_period(Mat.from_rows([["1/2"]]), 8) == (0, 1)
