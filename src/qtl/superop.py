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
An image multiplies nonzero entries only (:class:`_Stack`), and hands only
the nonzero image rows to the elimination: a program action maps one
configuration's block to another's, so most of its entries are zero.  The
image of a coordinate subspace whose unit vectors each go to multiples of
unit vectors is the coordinate subspace of the rows hit, with no
elimination; the complement of a coordinate subspace is coordinate, so a
pre-image takes the same path through the dual, whose stack is the
channel's, transposed and conjugated: no dual scans a grid.

That table of nonzero entries, the Kraus stack, is the one form a channel
is read into: a channel or a measurement read from a file reads it in one
pass from the file's literals, their nonzero entries over one denominator
with no dense grid (:meth:`SuperOp.read`, :meth:`Measurement.read`, by
:func:`linalg._read_nonzero`), tests trace preservation or completeness on
it, and forms its Kraus ``Mat``s from it only when some code reads them.
A dual moves the entries of its channel's stack, and a program's embedded
action those of its d x d outcome channels (:meth:`SuperOp.placed`); a
composition, and so an outcome channel M_j o E, multiplies the entries of
two stacks (:meth:`_Stack.product`).  A channel or a measurement built
from ``Mat``s (the compiler, a test) keeps them and reads its stack off
their nonzero grid entries at construction, by the same reader.

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
from .linalg import CRat, Mat, _psd_rank_rows, _read_nonzero, _rows_over, mat_power, mat_sum
from .subspace import Subspace, SubspaceUnion, support


def vec(a: Mat) -> Mat:
    """Row-major vectorization as a column: vec(A)[(i,j)] = A[i,j]."""
    re = a.num_re.reshape(-1, 1).copy()
    im = a.num_im.reshape(-1, 1).copy()
    return Mat(re, im, a.den, _normalized=True, _real=a._real)


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


class Measurement:
    """A quantum measurement {M_m}; completeness sum M†M = I holds exactly,
    tested on the nonzero entries of the operators (:meth:`_Stack.is_isometry`)
    with no image table built.  Every measurement keeps the stack of its
    operators: one built from Mats reads it off their grids once, and one
    read from matrix literals (:meth:`read`) reads it from them and forms
    its operators from it when they are first read."""

    __slots__ = ("_operators", "dim", "_stack")

    def __init__(self, operators, validate: bool = True):
        operators = tuple(operators)
        self._set(operators, _Stack.of(operators, square=True), validate)

    @staticmethod
    def read(literals) -> "Measurement":
        """The measurement of its operators' matrix literals, with the
        checks of the constructor, tested on their stack."""
        m = Measurement.__new__(Measurement)
        m._set(None, _Stack(literals, square=True), True)
        return m

    def _set(self, operators, stack, validate):
        if validate and not stack.is_isometry():
            raise PreconditionViolated("measurement operators do not sum to the identity")
        _set_operators(self, operators)
        _set_measurement_dim(self, stack.dim_out)
        _set_measurement_stack(self, stack)

    @property
    def operators(self) -> tuple:
        if self._operators is None:
            _set_operators(self, self._stack.mats())
        return self._operators

    def __setattr__(self, name, value):
        raise AttributeError("Measurement is immutable")

    @staticmethod
    def trivial(dim: int, n_outcomes: int = 1) -> "Measurement":
        ops = [Mat.eye(dim)] + [Mat.zeros(dim) for _ in range(n_outcomes - 1)]
        return Measurement(ops, validate=False)

    def operator_channels(self) -> list:
        """[(j, rho -> M_j rho M_j†)] in outcome order over the nonzero
        operators M_j: each the channel of the stack of M_j alone, split
        off this measurement's (:meth:`_Stack.split`), with no Mat formed."""
        return [(j, SuperOp._of_stack(st)) for j, st in enumerate(self._stack.split()) if st is not None]

    def is_trivial(self) -> bool:
        """Whether this is {I, 0, ..., 0}, read on the stack: operator 0
        holds den on the whole diagonal and nothing else, and the other
        operators hold nothing."""
        st = self._stack
        return all(column == [(0, v, st.den)] for v, column in enumerate(st.terms))

    def __len__(self):
        return self._stack.n_ops

    def __eq__(self, other):
        if not isinstance(other, Measurement):
            return NotImplemented
        return self.operators == other.operators

    def __repr__(self):
        return f"Measurement({len(self)} outcomes on dim {self.dim})"


_set_operators, _set_measurement_dim, _set_measurement_stack = (
    Measurement.__dict__[name].__set__ for name in Measurement.__slots__
)


class _Stack:
    """The nonzero entries of a channel's Kraus operators K_1, ..., K_m over
    their common denominator ``den``, by input coordinate: ``terms[v]``
    holds one triple (i, slot, c) per nonzero real or imaginary part c of an
    entry (u, v) of K_i, with slot u for a real part and dim_out + u for an
    imaginary one.  ``real`` says whether every entry is real, and ``n_ops``
    is m.  The constructor reads the nonzero entries of matrix literals in
    one pass (:func:`linalg._read_nonzero`), as :meth:`of` reads those of
    Mats; :meth:`mats` forms the Mats back.  The adjoints' stack
    (:meth:`dagger`), one operator's (:meth:`split`) and a placed one
    (:meth:`SuperOp.placed`) move the entries of another stack, and the
    stack of all products of two (:meth:`product`) multiplies theirs, with
    no grid read.

    The reader also keeps ``rows``, the nonzero entries (v, re, im) of each
    nonzero row of each K_i, which the isometry test reads; a moved stack
    builds them from ``terms`` when asked.  Only images read the two
    tables built from ``terms`` on their first read: ``turned[v]`` holds
    the same parts times the imaginary unit (i re is imaginary, i (i im) =
    -im is real), and ``hits[v]`` is the sorted tuple of the rows u where
    some K_i e_v is nonzero, when each K_i has at most one nonzero row in
    column v (so K_i e_v is a multiple of a unit vector), and None
    otherwise; validation and the matrix representations read ``terms``
    alone."""

    __slots__ = ("terms", "real", "den", "dim_out", "n_ops", "_rows", "_turned", "_hits")

    def __init__(self, mats, dens=None, square=False):
        """The stack of the operators given as matrix literals, or with
        ``dens`` as a Mat's numerator rows over them; no operator is
        PreconditionViolated, and two shapes, or with ``square`` (a
        measurement) a non-square one, DimensionMismatch."""
        rows, self.den, self.real, shapes = _read_nonzero(mats, dens)
        if not mats:
            raise PreconditionViolated("a measurement needs at least one operator" if square
                                       else "a channel needs at least one Kraus operator")
        (dim_out, dim_in), *more = shapes
        if more or square and dim_out != dim_in:
            raise DimensionMismatch("measurement operators must be square and equal size" if square
                                    else "Kraus operators must share one shape")
        self.dim_out, self.n_ops, self._turned, self._hits = dim_out, len(mats), None, None
        self._rows = [entries for _, _, entries in rows]
        terms = self.terms = [[] for _ in range(dim_in)]
        for i, u, entries in rows:
            for v, a, b in entries:
                if a:
                    terms[v].append((i, u, a))
                if b:
                    terms[v].append((i, dim_out + u, b))

    @staticmethod
    def of(kraus, square=False) -> "_Stack":
        """The stack of Mats, read from their nonzero grid entries:
        numerators, or [re, im] pairs of them, over each Mat's den."""
        rows = [k.num_re.tolist() if k.is_real() else
                [list(zip(re, im)) for re, im in zip(k.num_re.tolist(), k.num_im.tolist())] for k in kraus]
        return _Stack(rows, [k.den for k in kraus], square)

    def mats(self) -> tuple:
        """The operators as Mats, each over den in lowest terms."""
        n, width = self.dim_out, len(self.terms)
        grids = [[[0] * width for _ in range(2 * n)] for _ in range(self.n_ops)]
        for v, column in enumerate(self.terms):
            for i, slot, c in column:
                grids[i][slot][v] = c
        return tuple(_rows_over(self.den, g[:n], None if self.real else g[n:]) for g in grids)

    @staticmethod
    def _moved(terms, real, den, dim_out, n_ops) -> "_Stack":
        """The stack of the given entries, with no grid read; its other
        tables are built from ``terms`` when first read."""
        out = _Stack.__new__(_Stack)
        out.terms, out.real, out.den, out.dim_out, out.n_ops = terms, real, den, dim_out, n_ops
        out._rows = out._turned = out._hits = None
        return out

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
        return _Stack._moved(terms, self.real, self.den, dim_in, self.n_ops)

    def split(self) -> list:
        """Per operator K_i, the stack of K_i alone over den, or None when
        K_i is zero (has no entry)."""
        n, parts = self.dim_out, [None] * self.n_ops
        for v, column in enumerate(self.terms):
            for i, slot, c in column:
                if parts[i] is None:
                    parts[i] = [[] for _ in self.terms]
                parts[i][v].append((0, slot, c))
        return [
            None if t is None else _Stack._moved(t, self.real or all(s < n for c in t for _, s, _ in c), self.den, n, 1)
            for t in parts
        ]

    def product(self, inner: "_Stack") -> "_Stack":
        """The stack of the products A_a B_b of these operators A and the
        operators B of ``inner``, a-major as ``[a @ b for a in A for b in
        B]``; a zero product keeps its place.  Entry (u, w) of A_a B_b sums
        A_a[u, v] B_b[v, w] over v, so column w reads each entry (v, w) of
        each B_b and column v of each A_a: only nonzero entries are
        multiplied.  The sums are over den_A den_B, with the gcd of it and
        every sum divided out once, so the denominator is the lcm of the
        products' own lowest ones, as the stack read off the product Mats
        (:meth:`of`) has it."""
        n, nb, m = self.dim_out, inner.dim_out, inner.n_ops
        terms = []
        for column in inner.terms:
            acc = {}
            for b, sv, x in column:
                q, v = divmod(sv, nb)
                for a, su, y in self.terms[v]:
                    p, u = divmod(su, n)
                    # (i^q x)(i^p y) = i^(p + q) x y, and i^2 = -1
                    key = (a * m + b, u + n * (p ^ q))
                    acc[key] = acc.get(key, 0) + (-x * y if p & q else x * y)
            terms.append([(k, slot, c) for (k, slot), c in acc.items() if c])
        den = self.den * inner.den
        g = math.gcd(den, *(c for column in terms for _, _, c in column))
        if g != 1:
            terms = [[(k, slot, c // g) for k, slot, c in column] for column in terms]
        real = self.real and inner.real or all(slot < n for column in terms for _, slot, _ in column)
        return _Stack._moved(terms, real, den // g, n, self.n_ops * m)

    @property
    def rows(self) -> list:
        if self._rows is None:
            by_row = {}
            for v, column in enumerate(self.terms):
                for i, slot, c in column:
                    part, u = divmod(slot, self.dim_out)
                    by_row.setdefault((i, u), {}).setdefault(v, [0, 0])[part] = c
            self._rows = [[(v, a, b) for v, (a, b) in row.items()] for row in by_row.values()]
        return self._rows

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

    def gram(self) -> dict:
        """sum_i K_i† K_i over den^2, on its upper triangle: entry (v, w),
        w >= v, as integer [real, imaginary] parts, for the pairs (v, w)
        that some row holds.  Entry (v, w) is the sum of conj(K_i[u, v])
        K_i[u, w] over the operators i and rows u, so each nonzero row of
        each K_i (:attr:`rows`) adds the products of its nonzero entries,
        pair by pair; the sum is Hermitian."""
        acc = {}
        for row in self.rows:  # by column v, ascending
            for k, (v, vr, vi) in enumerate(row):
                for w, wr, wi in row[k:]:
                    s = acc.setdefault((v, w), [0, 0])
                    s[0] += vr * wr + vi * wi
                    s[1] += vr * wi - vi * wr
        return acc

    def is_isometry(self, scale=1) -> bool:
        """Whether scale * sum_i K_i† K_i is the identity, for a rational
        ``scale`` = p/q: its :meth:`gram` is den^2 / scale = q den^2 / p on
        the whole diagonal and zero elsewhere.  When p is not positive or
        does not divide q den^2, no gram entry can be that, and only an
        empty stack passes."""
        acc = self.gram()
        p, q = scale.numerator, scale.denominator
        d2 = q * self.den * self.den
        one, zero = [d2 // p, 0] if p > 0 and d2 % p == 0 else None, [0, 0]
        diagonal = sum(v == w for v, w in acc)
        return diagonal == len(self.terms) and all(s == (one if v == w else zero) for (v, w), s in acc.items())

    def is_contraction(self) -> bool:
        """Whether I - sum_i K_i† K_i is positive semidefinite: the exact
        PSD sweep on den^2 I minus the :meth:`gram`, filled in below the
        diagonal by conjugation."""
        n, one = len(self.terms), self.den * self.den
        re = [[one if v == w else 0 for w in range(n)] for v in range(n)]
        im = [[0] * n for _ in range(n)]
        for (v, w), (a, b) in self.gram().items():
            re[v][w] -= a
            im[v][w] -= b
            if v != w:
                re[w][v] -= a
                im[w][v] += b
        return _psd_rank_rows(re, im if any(map(any, im)) else None) is not None

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
    fills that sum in below the diagonal, to test that I - sum E†E is
    positive semidefinite (:meth:`_Stack.is_contraction`).  A channel
    built from Kraus Mats keeps them and reads its stack off them at
    construction; one read from matrix literals (:meth:`read`), a placed
    one (:meth:`placed`), a composition (:meth:`compose`) and a dual
    (:meth:`dual`) start from a stack and form their Kraus Mats from it
    only when read (:attr:`kraus`).
    """

    __slots__ = (
        "_kraus", "dim_in", "dim_out", "_trace_preserving", "_matrix_rep", "_hermitian_rep", "_stack", "_dual", "_images"
    )

    def __init__(self, kraus, validate: bool = True):
        kraus = tuple(kraus)
        self._set(kraus, _Stack.of(kraus), None)
        if validate:
            self._check_admissible()

    @staticmethod
    def read(literals, validate: bool = True) -> "SuperOp":
        """The channel of its Kraus operators' matrix literals, with the
        checks of the constructor: its stack is read from them, and no Kraus
        Mat is formed until one is read."""
        e = SuperOp._of_stack(_Stack(literals))
        if validate:
            e._check_admissible()
        return e

    @staticmethod
    def placed(dim: int, blocks) -> "SuperOp":
        """The channel on C^dim, unchecked, whose Kraus operators are those
        of each channel of ``blocks`` [(rows_at, cols_at, channel)] in order,
        entry (u, v) moved to (rows_at[u], cols_at[v]): the channels' stacks
        with their entries moved, and no Kraus Mat formed until read."""
        den = math.lcm(*(e._stack.den for _, _, e in blocks))
        real = all(e._stack.real for _, _, e in blocks)
        terms, offset = [[] for _ in range(dim)], 0
        for rows_at, cols_at, e in blocks:
            st = e._stack
            n, s = st.dim_out, den // st.den
            for v, col in enumerate(st.terms):
                terms[cols_at[v]] += [(offset + i, dim * (slot // n) + rows_at[slot % n], c * s) for i, slot, c in col]
            offset += st.n_ops
        return SuperOp._of_stack(_Stack._moved(terms, real, den, dim, offset))

    @staticmethod
    def _of_stack(stack: _Stack, dual=None) -> "SuperOp":
        """The channel of a Kraus stack, unchecked; its Kraus Mats are
        formed only when read."""
        e = SuperOp.__new__(SuperOp)
        e._set(None, stack, dual)
        return e

    def _check_admissible(self):
        if not self.is_trace_preserving() and not self._stack.is_contraction():
            raise PreconditionViolated("Kraus operators exceed the identity: not trace-non-increasing")

    def _set(self, kraus, stack, dual):
        _set_kraus(self, kraus)
        _set_dim_in(self, len(stack.terms))
        _set_dim_out(self, stack.dim_out)
        _set_trace_preserving(self, None)
        _set_matrix_rep(self, None)
        _set_hermitian_rep(self, None)
        _set_stack(self, stack)
        _set_dual(self, dual)
        _set_images(self, {})

    @property
    def kraus(self) -> tuple:
        """The Kraus operators; a channel read from literals, and a dual,
        form them from the stack on the first read (:meth:`_Stack.mats`)."""
        if self._kraus is None:
            _set_kraus(self, self._stack.mats())
        return self._kraus

    def __setattr__(self, name, value):
        raise AttributeError("SuperOp is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def identity(dim: int) -> "SuperOp":
        return SuperOp([Mat.eye(dim)], validate=False)

    @staticmethod
    def from_unitary(u: Mat) -> "SuperOp":
        """Channel rho -> u rho u† where u†u = I, as the trace preservation
        of the channel (:meth:`is_trace_preserving`), which it keeps."""
        e = SuperOp([u], validate=False)
        if not e.is_trace_preserving():
            raise PreconditionViolated("matrix is not exactly unitary")
        return e

    @staticmethod
    def from_scaled_unitary(v: Mat, scale: Fraction) -> "SuperOp":
        """Channel rho -> scale * v rho v† where sqrt(scale)*v is unitary.

        The Kraus set is {c_j * v} with rational c_j, sum c_j^2 = scale, so
        irrational unitaries with a rational direction stay exactly
        representable.  The sum of its E†E is scale * v†v, so scale * v†v
        = I is the trace preservation of the channel
        (:meth:`is_trace_preserving`), which it keeps.
        """
        scale = Fraction(scale)
        if scale <= 0:
            raise PreconditionViolated("scale must be positive")
        e = SuperOp([v * CRat(c) for c in _rational_square_decomposition(scale)], validate=False)
        if not e.is_trace_preserving():
            raise PreconditionViolated("scale * v†v is not the identity")
        return e

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
            _set_dual(self, SuperOp._of_stack(self._stack.dagger(), self))
        return self._dual

    def _image(self, p: Subspace) -> Subspace:
        """The image of p, unmemoized: for a coordinate subspace whose unit
        vectors each go to multiples of unit vectors, the coordinate
        subspace of the rows hit (:meth:`_Stack.coordinate_image`); else
        the span of the image rows of its RREF."""
        if p.is_zero():
            return Subspace.zero(self.dim_out)
        if p.is_coordinate():
            hit = self._stack.coordinate_image(p.pivots)
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
        st, n = self._stack, self.dim_out
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
            st, d = self._stack, self.dim_in
            acc = {}
            for ops in st.entries():
                ops = list(ops.items())
                for (a, v), (ar, ai) in ops:
                    for (b, w), (br, bi) in ops:
                        s = acc.setdefault((a * d + b, v * d + w), [0, 0])
                        s[0] += ar * br + ai * bi
                        s[1] += ai * br - ar * bi
            rep = _sparse_mat(d * d, st.den * st.den, acc, st.real or None)
            _set_matrix_rep(self, rep)
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
            st, d = self._stack, self.dim_in
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
            _set_hermitian_rep(self, rep)
        return self._hermitian_rep

    def compose(self, inner: "SuperOp") -> "SuperOp":
        """self after inner, unchecked: its Kraus set is all products A_a
        B_b, a-major, as the product of the two Kraus stacks
        (:meth:`_Stack.product`), with no Kraus Mat formed until read."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch("composition dimensions do not match")
        return SuperOp._of_stack(self._stack.product(inner._stack))

    def is_trace_preserving(self) -> bool:
        """Whether sum E†E = I, tested once on the Kraus stack
        (:meth:`_Stack.is_isometry`)."""
        if self._trace_preserving is None:
            _set_trace_preserving(self, self._stack.is_isometry())
        return self._trace_preserving

    def is_identity(self) -> bool:
        """Whether this is the identity channel: every Kraus set of it is
        {c_i I} with sum |c_i|^2 = 1, so no matrix representation is needed.
        Read on the stack: each operator's entries lie on the diagonal and,
        unless it is zero, fill it with one value."""
        if self.dim_in != self.dim_out:
            return False
        for entries in self._stack.entries():
            values = {tuple(s) for s in entries.values()}
            if any(u != v for u, v in entries) or (entries and (len(entries) != self.dim_in or len(values) != 1)):
                return False
        return self.is_trace_preserving()

    def __eq__(self, other):
        """Channel equality through the matrix representation."""
        if not isinstance(other, SuperOp):
            return NotImplemented
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            return False
        return self.matrix_rep() == other.matrix_rep()

    def __repr__(self):
        return f"SuperOp({self._stack.n_ops} Kraus, {self.dim_in}->{self.dim_out})"


# the slots' own descriptors set them past the guard of __setattr__
(
    _set_kraus, _set_dim_in, _set_dim_out, _set_trace_preserving, _set_matrix_rep, _set_hermitian_rep, _set_stack,
    _set_dual, _set_images,
) = (SuperOp.__dict__[name].__set__ for name in SuperOp.__slots__)


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
