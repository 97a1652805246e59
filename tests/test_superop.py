import random
from fractions import Fraction

import pytest

from qtl.errors import DimensionMismatch, PreconditionViolated
from qtl.linalg import CRat, Mat, kron
from qtl.subspace import Subspace, satisfies
from qtl.superop import (
    Measurement,
    MatrixRep,
    SuperOp,
    image,
    image_union,
    preimage,
    preimage_union,
    unvec,
    vec,
)

from helpers import (
    HADAMARD_DIRECTION,
    KET_PLUS_DENSITY,
    PAULI_X,
    random_density,
    random_matrix,
    random_projective_channel,
    random_reset_channel,
    random_subspace,
    random_tp_channel,
    span,
    union,
)

DAMP = SuperOp(
    [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]])], validate="exact"
)
X_CONJ = SuperOp.from_unitary(PAULI_X)
HADAMARD = SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 2))
KET0 = Mat.from_rows([[1, 0], [0, 0]])


def _trace_decreasing(rng, n):
    """A random channel with its last Kraus operator dropped and the rest halved."""
    kraus = random_tp_channel(rng, n).kraus
    return SuperOp([k * CRat(Fraction(1, 2)) for k in kraus[:-1] or kraus], validate="exact")


class TestApply:
    def test_identity(self):
        rng = random.Random(0)
        rho = random_density(rng, 3)
        assert SuperOp.identity(3).apply(rho) == rho

    def test_hadamard_on_zero_gives_plus(self):
        assert HADAMARD.apply(KET0) == KET_PLUS_DENSITY

    def test_damping_on_plus(self):
        assert DAMP.apply(KET_PLUS_DENSITY) == KET0

    def test_trace_non_increasing(self):
        rng = random.Random(1)
        for _ in range(10):
            e = random_tp_channel(rng, 2)
            rho = random_density(rng, 2)
            assert e.apply(rho).trace() == rho.trace()


class TestDual:
    def test_unitary_dual(self):
        dual = X_CONJ.dual()
        assert dual.kraus == (PAULI_X.dagger(),)

    def test_involution(self):
        assert DAMP.dual().dual().kraus == DAMP.kraus

    def test_duality_identity_exact(self):
        rng = random.Random(2)
        for _ in range(10):
            e = random_tp_channel(rng, 2)
            a = random_matrix(rng, 2)
            rho = random_matrix(rng, 2)
            lhs = (a @ e.apply(rho)).trace()
            rhs = (e.dual().apply(a) @ rho).trace()
            assert lhs == rhs


class TestMatrixRep:
    def test_identity(self):
        assert SuperOp.identity(2).matrix_rep() == Mat.eye(4)

    def test_pauli_x(self):
        assert X_CONJ.matrix_rep() == kron(PAULI_X, PAULI_X)

    def test_vectorization_identity(self):
        # (E(A) x I)|Phi> = M (A x I)|Phi> with |Phi> the unnormalized
        # maximally entangled column, i.e. vec(E(A)) = M vec(A)
        rng = random.Random(3)
        for _ in range(20):
            dim = rng.choice([2, 3])
            e = SuperOp([random_matrix(rng, dim) for _ in range(rng.randint(1, 3))], validate=None)
            a = random_matrix(rng, dim)
            assert vec(e.apply(a)) == e.matrix_rep() @ vec(a)

    def test_rep_multiplicative_under_compose(self):
        rng = random.Random(4)
        for _ in range(10):
            e1 = random_tp_channel(rng, 2)
            e2 = random_tp_channel(rng, 2)
            composed = e1.compose(e2)
            assert composed.matrix_rep() == e1.matrix_rep() @ e2.matrix_rep()

    def test_matrixrep_wrapper_matches_channel(self):
        rng = random.Random(5)
        e = random_tp_channel(rng, 3)
        rep = MatrixRep(e.matrix_rep())
        rho = random_density(rng, 3)
        assert rep.apply(rho) == e.apply(rho)
        a = random_matrix(rng, 3)
        h = a.dagger() @ a
        assert rep.dual_apply(h) == e.dual().apply(h)

    def test_vec_unvec_roundtrip(self):
        rng = random.Random(6)
        a = random_matrix(rng, 3)
        assert unvec(vec(a), 3) == a


class TestPreimageImage:
    def test_unitary_pullback(self):
        assert preimage(X_CONJ, span((1, 0))) == span((0, 1))

    def test_identity_preimage(self):
        rng = random.Random(7)
        p = random_subspace(rng, 2)
        assert preimage(SuperOp.identity(2), p) == p

    def test_damp_preimage_of_one(self):
        assert preimage(DAMP, span((0, 1))).is_zero()

    def test_image_examples(self):
        rng = random.Random(8)
        p = random_subspace(rng, 2)
        assert image(SuperOp.identity(2), p) == p
        assert image(X_CONJ, span((1, 0))) == span((0, 1))
        assert image(DAMP, Subspace.full(2)) == span((1, 0))
        assert image(DAMP, Subspace.zero(2)).is_zero()

    def test_preimage_is_inverse_satisfaction_set(self):
        rng = random.Random(9)
        for _ in range(40):
            e = random_tp_channel(rng, 2)
            p = random_subspace(rng, 2)
            rho = random_density(rng, 2)
            assert satisfies(e.apply(rho), p) == satisfies(rho, preimage(e, p))

    def test_image_preimage_adjunction(self):
        # the Kraus-form image and pre-image are adjoint and agree with the
        # reference computed from the matrix representation
        rng = random.Random(10)
        makers = [random_tp_channel, random_reset_channel, random_projective_channel, _trace_decreasing]
        for n in (2, 3, 4):
            for make in makers:
                for _ in range(3):
                    e = make(rng, n)
                    ref = MatrixRep(e.matrix_rep())
                    subspaces = [Subspace.zero(n), Subspace.full(n)]
                    subspaces += [random_subspace(rng, n) for _ in range(2)]
                    for s in subspaces:
                        assert image(e, s) == ref.image(s)
                        assert preimage(e, s) == ref.preimage(s)
                        for p in subspaces:
                            assert p.contains(image(e, s)) == preimage(e, p).contains(s)

    def test_union_versions_memberwise(self):
        rng = random.Random(11)
        e = random_tp_channel(rng, 2)
        u = union(span((1, 0)), span((0, 1)))
        assert preimage_union(e, u) == union(
            preimage(e, span((1, 0))), preimage(e, span((0, 1)))
        )
        assert image_union(e, u) == union(image(e, span((1, 0))), image(e, span((0, 1))))


class TestTracePreservation:
    def test_unitary_preserving(self):
        assert X_CONJ.is_trace_preserving()

    def test_half_identity_not(self):
        half = SuperOp([Mat.eye(2) * CRat(Fraction(1, 2))], validate="exact")
        assert not half.is_trace_preserving()

    def test_damp_preserving(self):
        assert DAMP.is_trace_preserving()

    def test_exceeding_identity_rejected(self):
        with pytest.raises(PreconditionViolated):
            SuperOp([Mat.eye(2), Mat.eye(2)], validate="exact")

    def test_scaled_unitary_validation(self):
        with pytest.raises(PreconditionViolated):
            SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 3))
        assert HADAMARD.is_trace_preserving()
        rho = KET_PLUS_DENSITY
        assert HADAMARD.apply(HADAMARD.apply(rho)) == rho


class TestMeasurement:
    def test_completeness_enforced(self):
        with pytest.raises(PreconditionViolated):
            Measurement([Mat.from_rows([[1, 0], [0, 0]])])

    def test_padding(self):
        m = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        padded = m.padded(4)
        assert len(padded) == 4
        assert padded.operators[2].is_zero() and padded.operators[3].is_zero()

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            Measurement([Mat.eye(2), Mat.eye(3)])


class TestChannelEquality:
    def test_kraus_presentation_irrelevant(self):
        # the same channel through different Kraus sets
        one = SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 2))
        half = HADAMARD_DIRECTION * CRat(Fraction(1, 2))
        other = SuperOp([half, half * CRat(0, 1)], validate="exact")
        assert one == other

    def test_identity_in_kraus_form(self):
        # is_identity reads the Kraus set; == compares matrix representations
        rng = random.Random(12)
        three_fifths, four_fifths = CRat(Fraction(3, 5)), CRat(0, Fraction(4, 5))
        channels = [
            SuperOp.identity(2),
            SuperOp([Mat.eye(2) * three_fifths, Mat.eye(2) * four_fifths]),
            SuperOp([Mat.eye(2) * three_fifths]),
            X_CONJ,
            DAMP,
        ]
        channels += [random_tp_channel(rng, 2) for _ in range(10)]
        verdicts = [e.is_identity() for e in channels]
        assert verdicts == [e == SuperOp.identity(2) for e in channels]
        assert verdicts[:5] == [True, True, False, False, False]
