import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from qtl.errors import PreconditionViolated, SingularMatrix, ToleranceAmbiguity
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
