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
coordinate, so a pre-image takes the same path through the dual, whose
entries are the channel's, transposed and conjugated: no dual scans a grid.

The matrix representation M = sum_i E_i (x) conj(E_i) linearizes a channel on
row-major vectorized operators: vec(E(A)) = M vec(A).  It is the canonical
object for channel equality, and :class:`MatrixRep` keeps the image and
pre-image in that form for the oracle, as the reference the Kraus-form
actions are tested against.  Where a spectrum is needed, the channel is
written in the Hermitian operator basis {E_ii, E_ij + E_ji, i(E_ij - E_ji)}
instead (:meth:`SuperOp.hermitian_rep`, with the coordinates :func:`hvec`):
a channel maps Hermitian operators to Hermitian ones, so that matrix is real,
with M's spectrum.  Both are summed from the nonzero entries of the Kraus
operators, with no Kronecker product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated
from .linalg import CRat, Mat, is_psd, mat_power, mat_sum
from .subspace import Subspace, SubspaceUnion, support


def vec(a: Mat) -> Mat:
    """Row-major vectorization as a column: vec(A)[(i,j)] = A[i,j]."""
    re = a.num_re.reshape(-1, 1).copy()
    im = a.num_im.reshape(-1, 1).copy()
    return Mat(re, im, a.den, _normalized=True, _real=a._real)


def _gram(ops):
    """sum K†K over the operators, on the integers: the grids (re, im) and
    the denominator den of one product S†S, S the operators stacked over
    their common denominator.  Dense; formed only for the positivity test
    of a channel that is not trace preserving."""
    den = math.lcm(*(k.den for k in ops))
    s_re = np.vstack([k.num_re if k.den == den else k.num_re * (den // k.den) for k in ops])
    s_im = np.vstack([k.num_im if k.den == den else k.num_im * (den // k.den) for k in ops])
    re = np.dot(s_re.T, s_re)
    if not s_im.any():
        return re, np.zeros(re.shape, dtype=object), den * den
    re = re + np.dot(s_im.T, s_im)
    im = np.dot(s_re.T, s_im) - np.dot(s_im.T, s_re)
    return re, im, den * den


def unvec(v: Mat, rows: int) -> Mat:
    """The rows x rows matrix whose row-major vectorization is v."""
    if v.rows != rows * rows or v.cols != 1:
        raise DimensionMismatch("vector length does not match the target shape")
    re = v.num_re.reshape(rows, rows).copy()
    im = v.num_im.reshape(rows, rows).copy()
    return Mat(re, im, v.den, _normalized=True, _real=v._real)


def hvec(a: Mat) -> Mat:
    """The coordinates of a Hermitian a in the basis {E_ii, E_ij + E_ji,
    i(E_ij - E_ji)}, i < j, as a real column: slot i d + i holds a_ii,
    slot i d + j holds Re a_ij and slot j d + i holds Im a_ij.  vec(a) is
    T hvec(a), T the basis as columns.  Only the real diagonal and the
    upper triangle are read, so a non-Hermitian a is not recovered."""
    grid = np.triu(a.num_re) + np.tril(a.num_im.T, -1)
    return Mat(grid.reshape(-1, 1), np.zeros((grid.size, 1), dtype=object), a.den, _real=True)


def unhvec(v: Mat, rows: int) -> Mat:
    """The rows x rows Hermitian matrix whose coordinates are v (:func:`hvec`)."""
    if v.rows != rows * rows or v.cols != 1:
        raise DimensionMismatch("vector length does not match the target shape")
    grid = v.num_re.reshape(rows, rows)
    lower = np.tril(grid, -1)
    return Mat(np.triu(grid) + np.triu(grid, 1).T, lower.T - lower, v.den, _normalized=True)


class Measurement:
    """A quantum measurement {M_m}; completeness sum M†M = I holds exactly,
    tested on the nonzero entries of the operators (:meth:`_Stack.is_isometry`)
    with no image table built."""

    __slots__ = ("operators", "dim")

    def __init__(self, operators, validate: bool = True):
        operators = tuple(operators)
        if not operators:
            raise PreconditionViolated("a measurement needs at least one operator")
        dim = operators[0].cols
        for op in operators:
            if op.cols != dim or op.rows != dim:
                raise DimensionMismatch("measurement operators must be square and equal size")
        if validate and not _Stack(operators).is_isometry():
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
    imaginary one.  ``real`` says whether every entry is real, and ``n_ops``
    is m.  The constructor scans the Kraus grids; the stack of the adjoints
    K_i† is this one transposed (:meth:`dagger`), with no grid read.

    Only images read the two tables built from ``terms`` on their first
    read: ``turned[v]`` holds the same parts times the imaginary unit (i re
    is imaginary, i (i im) = -im is real), and ``hits[v]`` is the sorted
    tuple of the rows u where some K_i e_v is nonzero, when each K_i has at
    most one nonzero row in column v (so K_i e_v is a multiple of a unit
    vector), and None otherwise; validation and the matrix representations
    read ``terms`` alone.

    A program action maps one configuration's block to another's, so most
    of its entries are zero and most coordinates have none."""

    __slots__ = ("terms", "real", "den", "dim_out", "n_ops", "_turned", "_hits")

    def __init__(self, kraus):
        dim_out, dim_in = kraus[0].rows, kraus[0].cols
        den = math.lcm(*(k.den for k in kraus))
        self.den, self.dim_out, self.n_ops = den, dim_out, len(kraus)
        self._turned = self._hits = None
        self.terms = [[] for _ in range(dim_in)]
        self.real = all(k.is_real() for k in kraus)
        for i, k in enumerate(kraus):
            scale = den // k.den
            for grid, slot in [(k.num_re, 0)] + ([] if k.is_real() else [(k.num_im, dim_out)]):
                for u, row in enumerate(grid.tolist()):
                    if any(row):
                        for v, c in enumerate(row):
                            if c:
                                self.terms[v].append((i, slot + u, c * scale))

    def dagger(self) -> "_Stack":
        """The stack of K_1†, ..., K_m†: entry (u, v) of K_i is entry (v, u)
        of K_i†, conjugated, over the same denominator."""
        n, dim_in = self.dim_out, len(self.terms)
        terms = [[] for _ in range(n)]
        for v, column in enumerate(self.terms):
            for i, slot, c in column:
                if slot < n:
                    terms[slot].append((i, v, c))
                else:
                    terms[slot - n].append((i, dim_in + v, -c))
        out = _Stack.__new__(_Stack)
        out.terms, out.real, out.den, out.dim_out, out.n_ops = terms, self.real, self.den, dim_in, self.n_ops
        out._turned = out._hits = None
        return out

    @property
    def turned(self) -> list:
        n = self.dim_out
        if self._turned is None:
            self._turned = [[(i, s + n, c) if s < n else (i, s - n, -c) for i, s, c in col] for col in self.terms]
        return self._turned

    @property
    def hits(self) -> list:
        if self._hits is None:
            self._hits = [_hit_rows(column, self.dim_out) for column in self.terms]
        return self._hits

    def is_isometry(self) -> bool:
        """Whether sum_i K_i† K_i is the identity.  Entry (v, w) of the sum
        is the sum of conj(K_i[u, v]) K_i[u, w] over the operators i and
        rows u, so each row u of each K_i adds the products of its nonzero
        entries, pair by pair, on the upper triangle w >= v (the sum is
        Hermitian); the sum is then compared with den^2 on the diagonal and
        zero elsewhere."""
        rows = {}
        for v, terms in enumerate(self.terms):
            for i, slot, c in terms:
                part, u = divmod(slot, self.dim_out)
                rows.setdefault((i, u), {}).setdefault(v, [0, 0])[part] = c
        acc = {}
        for row in rows.values():
            row = list(row.items())  # by column v, ascending
            for k, (v, (vr, vi)) in enumerate(row):
                for w, (wr, wi) in row[k:]:
                    s = acc.setdefault((v, w), [0, 0])
                    s[0] += vr * wr + vi * wi
                    s[1] += vr * wi - vi * wr
        one, zero = [self.den * self.den, 0], [0, 0]
        diagonal = sum(v == w for v, w in acc)
        return diagonal == len(self.terms) and all(s == (one if v == w else zero) for (v, w), s in acc.items())

    def entries(self) -> list:
        """Per operator, its nonzero entries (u, v) as [real, imaginary]
        parts, for a matrix representation on square operators."""
        if len(self.terms) != self.dim_out:
            raise DimensionMismatch("matrix representation needs dim_in == dim_out")
        out = [{} for _ in range(self.n_ops)]
        for v, terms in enumerate(self.terms):
            for i, slot, c in terms:
                part, u = divmod(slot, self.dim_out)
                out[i].setdefault((u, v), [0, 0])[part] = c
        return out

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


def _sparse_mat(n: int, den: int, acc: dict, real) -> Mat:
    """The n x n Mat over den whose entry (r, c) has the integer parts
    acc[(r, c)] (real, then imaginary) and is zero elsewhere, in lowest
    terms: one gcd over the nonzero entries, as the grids are mostly zero."""
    g = math.gcd(den, *(x for s in acc.values() for x in s))
    grids = np.zeros((2, n, n), dtype=object)
    for (r, c), s in acc.items():
        for part, x in enumerate(s):
            grids[part, r, c] = x // g
    return Mat(grids[0], grids[1], den // g, _normalized=True, _real=real)


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
    identity, in exact arithmetic; False skips it.  Trace preservation,
    sum E†E = I, is tested on the nonzero entries of the Kraus stack
    (:meth:`_Stack.is_isometry`), which the images and the matrix
    representations read too; only a channel that is not trace preserving
    forms the dense sum, to test that I - sum E†E is positive
    semidefinite.  A channel's stack is built once from its Kraus grids,
    and its dual's stack is that stack transposed (:meth:`dual`).
    """

    __slots__ = (
        "_kraus", "dim_in", "dim_out", "_trace_preserving", "_matrix_rep", "_hermitian_rep", "_stack", "_dual", "_images"
    )

    def __init__(self, kraus, validate: bool = True):
        kraus = tuple(kraus)
        if not kraus:
            raise PreconditionViolated("a channel needs at least one Kraus operator")
        dim_in = kraus[0].cols
        dim_out = kraus[0].rows
        for k in kraus:
            if k.cols != dim_in or k.rows != dim_out:
                raise DimensionMismatch("Kraus operators must share one shape")
        self._set(kraus, dim_in, dim_out, None, None)
        if validate and not self.is_trace_preserving():
            # I - sum K†K, scaled by den > 0, must be positive semidefinite
            re, im, den = _gram(kraus)
            gap = -re
            for i in range(dim_in):
                gap[i, i] += den
            if not is_psd(Mat(gap, -im, den)):
                raise PreconditionViolated(
                    "Kraus operators exceed the identity: not trace-non-increasing"
                )

    def _set(self, kraus, dim_in, dim_out, stack, dual):
        for name, value in (
            ("_kraus", kraus), ("dim_in", dim_in), ("dim_out", dim_out), ("_stack", stack), ("_dual", dual),
            ("_matrix_rep", None), ("_hermitian_rep", None), ("_images", {}), ("_trace_preserving", None),
        ):
            object.__setattr__(self, name, value)

    @property
    def kraus(self) -> tuple:
        """The Kraus operators; a dual forms the adjoints of its channel's
        on the first read."""
        if self._kraus is None:
            object.__setattr__(self, "_kraus", tuple(k.dagger() for k in self._dual.kraus))
        return self._kraus

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
        """Heisenberg-picture dual: Kraus set {E_k†}; cached both ways.  Its
        stack is this channel's transposed (:meth:`_Stack.dagger`); its
        Kraus operators are formed only when read (:attr:`kraus`)."""
        if self._dual is None:
            dual = SuperOp.__new__(SuperOp)
            dual._set(None, self.dim_out, self.dim_in, self._stack_of().dagger(), self)
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
        turned = None if rows_im is None else st.turned
        real = st.real and rows_im is None
        zero = [0] * (n if real else 2 * n)
        out = []
        for k, r_re in enumerate(rows.num_re.tolist()):
            acc = [None] * st.n_ops
            parts = [(x, t) for x, t in zip(r_re, st.terms) if x]
            if rows_im is not None:
                parts += [(x, t) for x, t in zip(rows_im[k], turned) if x]
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
            st, d = self._stack_of(), self.dim_in
            acc = {}
            for ops in st.entries():
                ops = list(ops.items())
                for (a, v), (ar, ai) in ops:
                    for (b, w), (br, bi) in ops:
                        s = acc.setdefault((a * d + b, v * d + w), [0, 0])
                        s[0] += ar * br + ai * bi
                        s[1] += ai * br - ar * bi
            rep = _sparse_mat(d * d, st.den * st.den, acc, st.real or None)
            object.__setattr__(self, "_matrix_rep", rep)
        return self._matrix_rep

    def hermitian_rep(self) -> Mat:
        """T^-1 M T, cached, for the matrix representation M and the
        Hermitian operator basis T (:func:`hvec`): real, as a channel maps
        Hermitian operators to Hermitian ones, with M's spectrum.  Summed
        from the nonzero entries of the Kraus stack, as M is: the product
        p = E_i[a, v] conj(E_i[b, w]), M's entry ((a, b), (v, w)), adds
        Re(conj(T[(a, b), r]) p T[(v, w), c]) to entry (r, c), halved in a
        row r of a pair a != b (T^-1 = (T†T)^-1 T†).  Swapping the two
        entries conjugates every factor, so each unordered pair is taken
        once, twice over when its entries differ."""
        if self._hermitian_rep is None:
            st, d = self._stack_of(), self.dim_in
            # row (x, y) of T: its nonzero entries as (column, real, imaginary)
            t = {}
            for x, y in itertools.product(range(d), repeat=2):
                lo, hi = sorted((x, y))
                t[x, y] = [(lo * d + hi, 1, 0)] + ([(hi * d + lo, 0, 1 if x < y else -1)] if x != y else [])
            acc = {}
            for ops in st.entries():
                ops = list(ops.items())
                for k, ((a, v), (ar, ai)) in enumerate(ops):
                    for l in range(k, len(ops)):
                        (b, w), (br, bi) = ops[l]
                        # over the denominator 2 den^2
                        n = (2 if a == b else 1) * (1 if l == k else 2)
                        pr, pi = n * (ar * br + ai * bi), n * (ai * br - ar * bi)
                        for r, fr, fi in t[a, b]:
                            for c, gr, gi in t[v, w]:
                                acc.setdefault((r, c), [0])[0] += (fr * gr + fi * gi) * pr - (fr * gi - fi * gr) * pi
            rep = _sparse_mat(d * d, 2 * st.den * st.den, acc, True)
            object.__setattr__(self, "_hermitian_rep", rep)
        return self._hermitian_rep

    def compose(self, inner: "SuperOp") -> "SuperOp":
        """self after inner; Kraus set is all products."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch("composition dimensions do not match")
        return SuperOp(
            [a @ b for a in self.kraus for b in inner.kraus], validate=False
        )

    def is_trace_preserving(self) -> bool:
        """Whether sum E†E = I, tested once on the Kraus stack
        (:meth:`_Stack.is_isometry`)."""
        if self._trace_preserving is None:
            object.__setattr__(self, "_trace_preserving", self._stack_of().is_isometry())
        return self._trace_preserving

    def is_identity(self) -> bool:
        """Whether this is the identity channel: every Kraus set of it is
        {c_i I} with sum |c_i|^2 = 1, so no matrix representation is needed."""
        if self.dim_in != self.dim_out:
            return False
        return all(  # each grid g is g[0, 0] I, compared as lists
            g.tolist() == [[g[0, 0] if i == j else 0 for j in range(self.dim_in)] for i in range(self.dim_in)]
            for k in self.kraus for g in (k.num_re, k.num_im)
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
        return MatrixRep(mat_power(self.m, k))

    def preimage(self, p: Subspace) -> Subspace:
        pulled = self.dual_apply(p.complement().projector)
        return support(pulled, validate=False).complement()

    def image(self, p: Subspace) -> Subspace:
        if p.is_zero():
            return Subspace.zero(self.dim)
        return support(self.apply(p.projector), validate=False)
