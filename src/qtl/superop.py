"""Completely positive maps in Kraus form, duals, matrix representations,
measurements, and the induced image/pre-image actions on subspaces.

The lattice actions work on the Kraus operators alone: the image of p is
the span of the K_i b_j over the RREF basis b_j of p (:mod:`qtl.subspace`),
and the pre-image is E^-1(p) = (E*(p^perp))^perp, the orthocomplement of
the image of p^perp under the dual channel, so no d^2 x d^2 object is
formed.  Each channel memoizes its images by input subspace (subspaces hash
and compare by their RREF), so a fixpoint chain that meets a subspace
again, or asks again for the range E(I), looks its image up; a pre-image
goes through the dual's memo and the complements cached on the subspaces.
An image multiplies nonzero entries only: the channel keeps the nonzero
entries of its Kraus operators by input coordinate, and each nonzero entry
of an RREF row meets the entries of its coordinate alone.  A program action
maps one configuration's block to another's, so most of its entries are
zero; only the nonzero image rows are handed to the elimination.  Most of
its columns hold at most one nonzero entry per operator, and the channel
records the rows they hit: the image of a coordinate subspace whose pivots
all have such columns is the coordinate subspace of the rows hit, with no
image rows and no elimination.  The complement of a coordinate subspace is
coordinate, so a pre-image takes the same path through the dual.

The matrix representation M = sum_i E_i (x) conj(E_i) linearizes a channel on
row-major vectorized operators: vec(E(A)) = M vec(A).  It is the canonical
object for channel equality and for composing or powering channels without
multiplying out Kraus sets, and it is built where a spectrum is needed,
summed from the same nonzero entries with no Kronecker product.
:class:`MatrixRep` keeps the image and pre-image in that form as the
reference the Kraus-form actions are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated
from .linalg import CRat, Mat, is_psd, mat_sum
from .subspace import Subspace, SubspaceUnion, support


def vec(a: Mat) -> Mat:
    """Row-major vectorization as a column: vec(A)[(i,j)] = A[i,j]."""
    re = a.num_re.reshape(-1, 1).copy()
    im = a.num_im.reshape(-1, 1).copy()
    return Mat(re, im, a.den, _normalized=True, _real=a._real)


def _gram(ops):
    """sum K†K over the operators, on the integers: the grids (re, im) and
    the denominator den of one product S†S, S the operators stacked over
    their common denominator."""
    den = math.lcm(*(k.den for k in ops))
    s_re = np.vstack([k.num_re if k.den == den else k.num_re * (den // k.den) for k in ops])
    s_im = np.vstack([k.num_im if k.den == den else k.num_im * (den // k.den) for k in ops])
    re = np.dot(s_re.T, s_re)
    if not s_im.any():
        return re, np.zeros(re.shape, dtype=object), den * den
    re = re + np.dot(s_im.T, s_im)
    im = np.dot(s_re.T, s_im) - np.dot(s_im.T, s_re)
    return re, im, den * den


def _is_identity_gram(re, im, den) -> bool:
    """Whether (re + i im) / den is the identity: den on the diagonal,
    zero elsewhere."""
    n = re.shape[0]
    return not im.any() and np.count_nonzero(re) == n and all(re[i, i] == den for i in range(n))


def unvec(v: Mat, rows: int) -> Mat:
    """The rows x rows matrix whose row-major vectorization is v."""
    if v.rows != rows * rows or v.cols != 1:
        raise DimensionMismatch("vector length does not match the target shape")
    re = v.num_re.reshape(rows, rows).copy()
    im = v.num_im.reshape(rows, rows).copy()
    return Mat(re, im, v.den, _normalized=True, _real=v._real)


class Measurement:
    """A quantum measurement {M_m}; completeness sum M†M = I holds exactly."""

    __slots__ = ("operators", "dim")

    def __init__(self, operators, validate: bool = True):
        operators = tuple(operators)
        if not operators:
            raise PreconditionViolated("a measurement needs at least one operator")
        dim = operators[0].cols
        for op in operators:
            if op.cols != dim or op.rows != dim:
                raise DimensionMismatch("measurement operators must be square and equal size")
        if validate and not _is_identity_gram(*_gram(operators)):
            raise PreconditionViolated("measurement operators do not sum to the identity")
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("Measurement is immutable")

    @staticmethod
    def trivial(dim: int, n_outcomes: int = 1) -> "Measurement":
        ops = [Mat.eye(dim)] + [Mat.zeros(dim) for _ in range(n_outcomes - 1)]
        return Measurement(ops, validate=False)

    def __len__(self):
        return len(self.operators)

    def __eq__(self, other):
        if not isinstance(other, Measurement):
            return NotImplemented
        return self.operators == other.operators

    def __repr__(self):
        return f"Measurement({len(self.operators)} outcomes on dim {self.dim})"


class _Stack:
    """The nonzero entries of a channel's Kraus operators K_1, ..., K_m over
    their common denominator ``den``, by input coordinate: ``terms[v]``
    holds one triple (i, slot, c) per nonzero real or imaginary part c of an
    entry (u, v) of K_i, with slot u for a real part and dim_out + u for an
    imaginary one; ``turned[v]`` holds the same parts times the imaginary
    unit (i re is imaginary, i (i im) = -im is real).  ``real`` says whether
    every entry is real.  ``hits[v]`` is the sorted tuple of the rows u
    where some K_i e_v is nonzero, when each K_i has at most one nonzero
    row in column v (so K_i e_v is a multiple of a unit vector), and None
    otherwise.

    A program action maps one configuration's block to another's, so most
    of its entries are zero and most coordinates have none."""

    __slots__ = ("terms", "turned", "real", "den", "hits")

    def __init__(self, kraus):
        dim_out, dim_in = kraus[0].rows, kraus[0].cols
        den = math.lcm(*(k.den for k in kraus))
        self.den = den
        self.terms = [[] for _ in range(dim_in)]
        self.turned = [[] for _ in range(dim_in)]
        self.real = all(k.is_real() for k in kraus)
        for i, k in enumerate(kraus):
            scale = den // k.den
            # (grid, its slot, the slot and sign of the grid times i)
            grids = [(k.num_re, 0, dim_out, 1)] + ([] if k.is_real() else [(k.num_im, dim_out, 0, -1)])
            for grid, slot, turned_slot, sign in grids:
                for u, row in enumerate(grid.tolist()):
                    if any(row):
                        for v, c in enumerate(row):
                            if c:
                                self.terms[v].append((i, slot + u, c * scale))
                                self.turned[v].append((i, turned_slot + u, sign * c * scale))
        self.hits = [_hit_rows(terms, dim_out) for terms in self.terms]

    def coordinate_image(self, pivots):
        """The sorted rows u of the unit vectors that span the image of the
        coordinate subspace on ``pivots``, or None when some K_i e_v, v a
        pivot, is not a multiple of a unit vector."""
        out = set()
        for v in pivots:
            h = self.hits[v]
            if h is None:
                return None
            out.update(h)
        return tuple(sorted(out))


def _hit_rows(terms, dim_out):
    """The sorted rows of the triples (i, slot, c) of one column, or None
    when one operator i has two rows there; a real slot u and an imaginary
    slot dim_out + u are the same row u."""
    row_of = {}
    for i, slot, _ in terms:
        if row_of.setdefault(i, slot % dim_out) != slot % dim_out:
            return None
    return tuple(sorted(set(row_of.values())))


class SuperOp:
    """A trace-non-increasing completely positive map, held as Kraus operators.

    ``validate`` demands the admissibility check of sum E†E against the
    identity, in exact arithmetic; False skips it.
    """

    __slots__ = ("kraus", "dim_in", "dim_out", "_trace_preserving", "_matrix_rep", "_stack", "_dual", "_images")

    def __init__(self, kraus, validate: bool = True):
        kraus = tuple(kraus)
        if not kraus:
            raise PreconditionViolated("a channel needs at least one Kraus operator")
        dim_in = kraus[0].cols
        dim_out = kraus[0].rows
        for k in kraus:
            if k.cols != dim_in or k.rows != dim_out:
                raise DimensionMismatch("Kraus operators must share one shape")
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "_matrix_rep", None)
        object.__setattr__(self, "_stack", None)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_images", {})
        tp = None
        if validate:
            re, im, den = _gram(kraus)
            tp = _is_identity_gram(re, im, den)
            if not tp:
                # I - sum K†K, scaled by den > 0, must be positive semidefinite
                gap = -re
                for i in range(dim_in):
                    gap[i, i] += den
                if not is_psd(Mat(gap, -im, den)):
                    raise PreconditionViolated(
                        "Kraus operators exceed the identity: not trace-non-increasing"
                    )
        object.__setattr__(self, "_trace_preserving", tp)

    def __setattr__(self, name, value):
        raise AttributeError("SuperOp is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def identity(dim: int) -> "SuperOp":
        return SuperOp([Mat.eye(dim)], validate=False)

    @staticmethod
    def from_unitary(u: Mat) -> "SuperOp":
        if u.dagger() @ u != Mat.eye(u.cols):
            raise PreconditionViolated("matrix is not exactly unitary")
        return SuperOp([u], validate=False)

    @staticmethod
    def from_scaled_unitary(v: Mat, scale: Fraction) -> "SuperOp":
        """Channel rho -> scale * v rho v† where sqrt(scale)*v is unitary.

        The Kraus set is {c_j * v} with rational c_j, sum c_j^2 = scale, so
        irrational unitaries with a rational direction stay exactly
        representable.
        """
        scale = Fraction(scale)
        if scale <= 0:
            raise PreconditionViolated("scale must be positive")
        if (v.dagger() @ v) * CRat(scale) != Mat.eye(v.cols):
            raise PreconditionViolated("scale * v†v is not the identity")
        coeffs = _rational_square_decomposition(scale)
        return SuperOp([v * CRat(c) for c in coeffs], validate=False)

    # ------------------------------------------------------------------

    def apply(self, rho: Mat) -> Mat:
        """sum_k E_k rho E_k†, exactly."""
        if rho.rows != self.dim_in or rho.cols != self.dim_in:
            raise DimensionMismatch("state dimension does not match the channel input")
        return mat_sum(k @ rho @ k.dagger() for k in self.kraus)

    def dual(self) -> "SuperOp":
        """Heisenberg-picture dual: Kraus set {E_k†}; cached both ways."""
        if self._dual is None:
            dual = SuperOp([k.dagger() for k in self.kraus], validate=False)
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual

    def _stack_of(self) -> _Stack:
        if self._stack is None:
            object.__setattr__(self, "_stack", _Stack(self.kraus))
        return self._stack

    def _image(self, p: Subspace) -> Subspace:
        """The image of p, unmemoized: for a coordinate subspace whose unit
        vectors each go to multiples of unit vectors, the coordinate
        subspace of the rows hit (:meth:`_Stack.coordinate_image`); else
        the span of the image rows of its RREF."""
        if p.is_zero():
            return Subspace.zero(self.dim_out)
        if p.is_coordinate():
            hit = self._stack_of().coordinate_image(p.pivots)
            if hit is not None:
                return Subspace(self.dim_out, None, hit)
        return Subspace(self.dim_out, self._image_rows(p.rref))

    def _image_rows(self, rows: Mat) -> Mat:
        """The nonzero rows among (K_i r)^T, over every row r of ``rows``
        and every Kraus operator K_i in that order, all scaled by one
        positive integer (the denominators of ``rows`` and of the stack) and
        given over denominator 1.  Only nonzero entries are multiplied: each
        nonzero real or imaginary part x of entry v of r times the entries
        of column v (:class:`_Stack`), summed per operator into its real
        slots and, unless both sides are real, its imaginary slots."""
        st, n = self._stack_of(), self.dim_out
        rows_im = None if rows.is_real() else rows.num_im.tolist()
        real = st.real and rows_im is None
        zero = [0] * (n if real else 2 * n)
        out = []
        for k, r_re in enumerate(rows.num_re.tolist()):
            acc = [None] * len(self.kraus)
            parts = [(x, t) for x, t in zip(r_re, st.terms) if x]
            if rows_im is not None:
                parts += [(x, t) for x, t in zip(rows_im[k], st.turned) if x]
            for x, terms in parts:
                for i, slot, c in terms:
                    a = acc[i]
                    if a is None:
                        a = acc[i] = zero.copy()
                    a[slot] += x * c
            out += [a for a in acc if a is not None and any(a)]
        if not out:
            return Mat.zeros(0, n)
        grid = np.array(out, dtype=object)
        if real:
            return Mat(grid, np.zeros(grid.shape, dtype=object), 1, _normalized=True, _real=True)
        return Mat(grid[:, :n], grid[:, n:], 1, _normalized=True)

    def matrix_rep(self) -> Mat:
        """sum_i E_i (x) conj(E_i), cached: entry ((a, b), (v, w)) is
        sum_i E_i[a, v] conj(E_i[b, w]), so each operator adds the products
        of its nonzero entries in columns v and w (:class:`_Stack`), pair
        by pair, over the square of the stack's denominator."""
        if self._matrix_rep is None:
            if self.dim_in != self.dim_out:
                raise DimensionMismatch("matrix representation needs dim_in == dim_out")
            st, d = self._stack_of(), self.dim_in
            # per operator, its nonzero entries (u, v) as [real, imaginary] parts
            entries = [{} for _ in self.kraus]
            for v, terms in enumerate(st.terms):
                for i, slot, c in terms:
                    u, part = (slot, 0) if slot < d else (slot - d, 1)
                    entries[i].setdefault((u, v), [0, 0])[part] = c
            acc = {}
            for ops in entries:
                ops = list(ops.items())
                for (a, v), (ar, ai) in ops:
                    for (b, w), (br, bi) in ops:
                        s = acc.setdefault((a * d + b, v * d + w), [0, 0])
                        s[0] += ar * br + ai * bi
                        s[1] += ai * br - ar * bi
            # one gcd over the nonzero entries, as the grids are mostly zero
            g = math.gcd(st.den * st.den, *(x for s in acc.values() for x in s))
            re = np.zeros((d * d, d * d), dtype=object)
            im = np.zeros((d * d, d * d), dtype=object)
            for (r, c), (x, y) in acc.items():
                re[r, c], im[r, c] = x // g, y // g
            rep = Mat(re, im, st.den * st.den // g, _normalized=True, _real=st.real or None)
            object.__setattr__(self, "_matrix_rep", rep)
        return self._matrix_rep

    def compose(self, inner: "SuperOp") -> "SuperOp":
        """self after inner; Kraus set is all products."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch("composition dimensions do not match")
        return SuperOp(
            [a @ b for a in self.kraus for b in inner.kraus], validate=False
        )

    def is_trace_preserving(self) -> bool:
        if self._trace_preserving is None:
            object.__setattr__(self, "_trace_preserving", _is_identity_gram(*_gram(self.kraus)))
        return self._trace_preserving

    def is_identity(self) -> bool:
        """Whether this is the identity channel: every Kraus set of it is
        {c_i I} with sum |c_i|^2 = 1, so no matrix representation is needed."""
        if self.dim_in != self.dim_out:
            return False
        eye = Mat.eye(self.dim_in).num_re
        return all(
            np.array_equal(k.num_re, eye * k.num_re[0, 0]) and np.array_equal(k.num_im, eye * k.num_im[0, 0])
            for k in self.kraus
        ) and self.is_trace_preserving()

    def __eq__(self, other):
        """Channel equality through the matrix representation."""
        if not isinstance(other, SuperOp):
            return NotImplemented
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            return False
        return self.matrix_rep() == other.matrix_rep()

    def __repr__(self):
        return f"SuperOp({len(self.kraus)} Kraus, {self.dim_in}->{self.dim_out})"


def _rational_square_decomposition(scale: Fraction):
    """Write a positive rational as a sum of at most four rational squares."""
    p, q = scale.numerator, scale.denominator
    target = p * q  # scale = (p*q)/q^2
    parts = _four_squares(target)
    return [Fraction(a, q) for a in parts if a]


def _four_squares(n: int):
    """Lagrange decomposition by bounded search; n is expected to be small."""
    if n == 0:
        return (0,)
    a = math.isqrt(n)
    for x in range(a, 0, -1):
        r1 = n - x * x
        if r1 == 0:
            return (x,)
        y0 = math.isqrt(r1)
        for y in range(y0, 0, -1):
            r2 = r1 - y * y
            if r2 == 0:
                return (x, y)
            z0 = math.isqrt(r2)
            for z in range(z0, 0, -1):
                r3 = r2 - z * z
                if r3 == 0:
                    return (x, y, z)
                w = math.isqrt(r3)
                if w * w == r3:
                    return (x, y, z, w)
    raise ArithmeticError(f"no four-square decomposition found for {n}")


# ----------------------------------------------------------------------
# image and pre-image of subspaces


def preimage(e: SuperOp, p: Subspace) -> Subspace:
    """The exact inverse-satisfaction set {sigma : E(sigma) |= p}.

    E(sigma) |= p exactly when every K_i maps the support of sigma into p,
    so the pre-image is (E*(p^perp))^perp: the orthocomplement of the dual
    image of the orthocomplement of p.
    """
    return image(e.dual(), p.complement()).complement()


def image(e: SuperOp, p: Subspace) -> Subspace:
    """Support of the channel applied to any state with support p: the span
    of the K_i b_j over the Kraus operators K_i and the RREF basis b_j of p;
    memoized on the channel."""
    if p.ambient_dim != e.dim_in:
        raise DimensionMismatch("subspace does not live in the space the channel acts on")
    img = e._images.get(p)
    if img is None:
        img = e._images[p] = e._image(p)
    return img


def least_fixpoint(start: Subspace, step) -> Subspace:
    """The least fixpoint of X -> start v step(X) for a monotone ``step`` on
    subspaces, grown from ``start`` by joins until the dimension stops
    growing (at most ambient_dim joins)."""
    x = start
    while True:
        grown = x.join(step(x))
        if grown.dim == x.dim:
            return x
        x = grown


def preimage_union(e: SuperOp, u: SubspaceUnion) -> SubspaceUnion:
    return SubspaceUnion(e.dim_in, [preimage(e, m) for m in u.members])


def image_union(e: SuperOp, u: SubspaceUnion) -> SubspaceUnion:
    return SubspaceUnion(e.dim_out, [image(e, m) for m in u.members])


# ----------------------------------------------------------------------
# matrix-representation arithmetic (for composed and powered channels)


@dataclass(frozen=True)
class MatrixRep:
    """A channel given only by its matrix representation on vectorized states."""

    m: Mat

    @property
    def dim(self) -> int:
        return math.isqrt(self.m.rows)

    def apply(self, a: Mat) -> Mat:
        return unvec(self.m @ vec(a), self.dim)

    def dual_apply(self, a: Mat) -> Mat:
        """The dual channel on operators: vec(E*(A)) = M† vec(A)."""
        return unvec(self.m.dagger() @ vec(a), self.dim)

    def power(self, k: int) -> "MatrixRep":
        result = None
        base = self.m
        while k:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if k:
                base = base @ base
        return MatrixRep(Mat.eye(self.m.rows) if result is None else result)

    def preimage(self, p: Subspace) -> Subspace:
        pulled = self.dual_apply(p.complement().projector)
        return support(pulled, validate=False).complement()

    def image(self, p: Subspace) -> Subspace:
        if p.is_zero():
            return Subspace.zero(self.dim)
        return support(self.apply(p.projector), validate=False)
