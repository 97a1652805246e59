import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from qtl.errors import MalformedInput, PreconditionViolated, SingularMatrix, ToleranceAmbiguity
from qtl.linalg import (
    CRat,
    Mat,
    format_rational,
    invert,
    is_psd,
    kernel_basis,
    kron,
    multiplicative_order,
    parse_rational,
    peripheral_split,
    rank,
    rref,
    solve,
)

from helpers import PAULI_X, random_matrix, random_tp_channel


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


class TestKernel:
    def test_zero_matrix_kernel_spans_everything(self):
        basis = kernel_basis(Mat.zeros(2))
        assert len(basis) == 2
        assert rank(Mat.zeros(2)) == 0

    def test_identity_is_injective(self):
        assert kernel_basis(Mat.eye(3)) == []

    def test_rank_one_kernel_direction(self):
        basis = kernel_basis(Mat.from_rows([[1, 1], [1, 1]]))
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
            assert rank(m) + len(kernel_basis(m)) == cols
            for v in kernel_basis(m):
                assert (m @ v).is_zero()


class TestInvert:
    def test_identity(self):
        assert invert(Mat.eye(4)) == Mat.eye(4)

    def test_diagonal(self):
        assert invert(Mat.from_rows([["1/2", 0], [0, "1/3"]])) == Mat.from_rows([[2, 0], [0, 3]])

    def test_random_residual_exactly_zero(self):
        rng = random.Random(5)
        found = 0
        while found < 10:
            m = random_matrix(rng, 3)
            try:
                inv = invert(m)
            except SingularMatrix:
                continue
            found += 1
            assert m @ inv == Mat.eye(3)
            assert inv @ m == Mat.eye(3)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert(Mat.from_rows([[1, 1], [1, 1]]))


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
            assert x == invert(a) @ b

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


def _gaussian_matrix(rng, rows, cols, rank=None):
    """A random rows x cols Gaussian-rational matrix, of the given rank if any."""
    if rank == 0:
        return Mat.zeros(rows, cols)
    if rank is None:
        return Mat.from_rows([[_gaussian_rational(rng) for _ in range(cols)] for _ in range(rows)])
    return _gaussian_matrix(rng, rows, rank) @ _gaussian_matrix(rng, rank, cols)


def _to_sympy(m: Mat) -> DomainMatrix:
    def qq(x):
        return QQ(x.numerator, x.denominator)

    return DomainMatrix(
        [[QQ_I(qq(e.re), qq(e.im)) for e in row] for row in m.entries()], (m.rows, m.cols), QQ_I
    )


def _from_sympy(rows) -> Mat:
    def frac(x):
        return Fraction(int(x.numerator), int(x.denominator))

    return Mat.from_rows([[CRat(frac(e.x), frac(e.y)) for e in row] for row in rows])


def _sympy_kernel(m: Mat) -> list:
    """sympy's reduced row echelon form read as one kernel vector per free
    column f: 1 at f, zero at the other free columns."""
    reduced, pivots = _to_sympy(m).rref()
    reduced = reduced.to_list()
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [QQ_I(0, 0)] * m.cols
        v[f] = QQ_I(1, 0)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        vectors.append(_from_sympy([[x] for x in v]))
    return vectors


# (rows, cols, rank): full, singular and rank-deficient squares, wide, tall, zero
SYMPY_SHAPES = [(4, 4, None), (5, 5, None), (4, 4, 3), (5, 5, 2), (3, 6, None), (2, 5, 1),
                (6, 3, None), (5, 2, 1), (4, 6, 3), (3, 3, 0)]


class TestAgainstSympy:
    """rank, kernel_basis, rref, solve and invert against sympy's exact
    Gaussian-rational matrices (domain QQ_I), on seeded inputs with complex
    non-unit pivots."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_and_kernel(self, seed):
        rng = random.Random(100 + seed)
        for rows, cols, r in SYMPY_SHAPES:
            m = _gaussian_matrix(rng, rows, cols, r)
            assert rank(m) == _to_sympy(m).rank()
            assert kernel_basis(m) == _sympy_kernel(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_rref(self, seed):
        rng = random.Random(300 + seed)
        for rows, cols, r in SYMPY_SHAPES:
            m = _gaussian_matrix(rng, rows, cols, r)
            reduced, pivots = _to_sympy(m).rref()
            expected = _from_sympy(reduced.to_list()[: len(pivots)]) if pivots else Mat.zeros(0, cols)
            assert rref(m) == (expected, tuple(pivots))

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_and_invert(self, seed):
        rng = random.Random(200 + seed)
        for rows, cols, r in SYMPY_SHAPES:
            if rows != cols:
                continue
            a = _gaussian_matrix(rng, rows, cols, r)
            b = _gaussian_matrix(rng, rows, rng.randint(1, 3))
            assert b.den != 1
            a_sym, b_sym = _to_sympy(a), _to_sympy(b)
            if a_sym.rank() < rows:
                with pytest.raises(SingularMatrix):
                    solve(a, b)
                with pytest.raises(SingularMatrix):
                    invert(a)
                continue
            assert solve(a, b) == _from_sympy(a_sym.lu_solve(b_sym).to_list())
            assert invert(a) == _from_sympy(a_sym.inv().to_list())


def _gaussian_or_empty(rng, rows, cols):
    return _gaussian_matrix(rng, rows, cols) if rows and cols else Mat.zeros(rows, cols)


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
    """Mat.from_rows and Mat.from_complex read every entry exactly as
    CRat.coerce and Fraction do, and reject what they reject."""

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

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda c: st.lists(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=c, max_size=c),
                           min_size=1, max_size=3)))
    def test_from_complex_equals_fractions(self, rows):
        expected = _reference_mat([[CRat(Fraction(x.real), Fraction(x.imag)) for x in row] for row in rows])
        assert Mat.from_complex(np.array(rows, dtype=complex)) == expected

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda c: st.lists(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=c, max_size=c),
                           min_size=1, max_size=3)))
    def test_to_complex_inverts_from_complex(self, rows):
        a = np.array(rows, dtype=complex)
        assert np.array_equal(Mat.from_complex(a).to_complex(), a)

    def test_to_complex_rounds_huge_entries(self):
        # numerators beyond float range: every entry is its rounded quotient
        big = Fraction(10**600 + 1, 3 * 10**600)
        m = Mat.from_rows([[big, Fraction(1, 3)], [(0, Fraction(-2, 7)), 0]])
        assert m.to_complex().tolist() == [[float(big), 1 / 3], [-2j / 7, 0]]


class TestPeripheralSplit:
    def test_identity_channel_all_peripheral(self):
        split = peripheral_split(Mat.eye(4), 1e-9)
        assert split.stable_part.is_zero()
        assert split.peripheral_projector == Mat.eye(4)
        assert split.eigenvalues == [(1 + 0j, 4)]

    def test_damping_channel(self):
        e0 = Mat.from_rows([[1, 0], [0, 0]])
        e1 = Mat.from_rows([[0, 1], [0, 0]])
        m = kron(e0, e0.conj()) + kron(e1, e1.conj())
        split = peripheral_split(m, 1e-9)
        mults = sorted((round(abs(lam), 9), mult) for lam, mult in split.eigenvalues)
        assert mults == [(0.0, 3), (1.0, 1)]
        radius = np.abs(np.linalg.eigvals(split.stable_part.to_complex())).max()
        assert radius < 1e-9

    def test_measure_hadamard_step_channel_split(self):
        # the loop's one-step channel: peripheral multiplicity equals the
        # dimension of operators fixed on the exit block, and the stable
        # part contracts at rate 1/sqrt(2)
        from qtl.qwhile import compile_source
        from qtl.program import step_superop
        from helpers import EXAMPLE_LOOP_SRC

        prog = compile_source(EXAMPLE_LOOP_SRC)
        m = step_superop(prog).matrix_rep()
        split = peripheral_split(m, 1e-9)
        peripheral_mult = sum(mult for lam, mult in split.peripheral_eigenvalues)
        assert peripheral_mult == 4  # 2x2 exit block carries a 4-dim fixed operator space
        radius = np.abs(np.linalg.eigvals(split.stable_part.to_complex())).max()
        assert abs(radius - 2 ** -0.5) < 1e-9

    def test_no_peripheral_eigenvalue_keeps_input(self):
        m = Mat.from_rows([["1/2", 1], [0, "-1/3"]])
        split = peripheral_split(m, 1e-9)
        assert split.stable_part is m
        assert split.peripheral_projector == Mat.zeros(2)
        assert split.peripheral_eigenvalues == []

    def test_ambiguous_band_raises(self):
        m = Mat.from_rows([[Fraction(999999999, 1000000000)]])
        with pytest.raises(ToleranceAmbiguity):
            peripheral_split(m, 1e-9)

    def test_spectral_radius_gate(self):
        with pytest.raises(PreconditionViolated):
            peripheral_split(Mat.from_rows([[2]]), 1e-9)

    def test_split_reconstructs_input(self):
        rng = random.Random(21)
        for _ in range(5):
            e = random_tp_channel(rng, 2)
            m = e.matrix_rep()
            split = peripheral_split(m, 1e-9)
            assert m == split.stable_part + m @ split.peripheral_projector

    def test_power_consistency_at_64(self):
        rng = random.Random(22)
        for _ in range(5):
            e = random_tp_channel(rng, 2)
            m = e.matrix_rep().to_complex()
            split = peripheral_split(e.matrix_rep(), 1e-9)
            p = split.peripheral_projector.to_complex()
            s = split.stable_part.to_complex()
            direct = np.linalg.matrix_power(m, 64)
            recomposed = np.linalg.matrix_power(m @ p, 64) + np.linalg.matrix_power(s, 64)
            assert np.max(np.abs(direct - recomposed)) < 1e-7

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


class TestOrders:
    def test_multiplicative_order(self):
        assert multiplicative_order(1.0 + 0j, 8) == 1
        assert multiplicative_order(-1.0 + 0j, 8) == 2
        assert multiplicative_order(1j, 8) == 4
        assert multiplicative_order(np.exp(2j * np.pi / 3), 8) == 3
        assert multiplicative_order(np.exp(1j), 64) is None
        assert multiplicative_order(0.5 + 0j, 8) is None
