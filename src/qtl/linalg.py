"""Exact complex-rational matrices and polynomials: no float on any verdict path.

Everything that feeds the subspace lattice, the program semantics and the
period certificates stays in exact arithmetic: a matrix is a pair of
integer numerator grids (real and imaginary parts, numpy object arrays so
the integers are unbounded) over a single positive denominator.  Rank,
kernel, reduced row echelon form, inverse and solve run fraction-free
(Bareiss), so no rounding ever happens on that path: on plain integers
when the matrix is real, on Gaussian-integer (re, im) pairs when it is
complex, the choice read off :meth:`Mat.is_real`.

The peripheral spectrum of a channel is exact too
(:func:`peripheral_period`): the characteristic polynomial p of its matrix
representation (:func:`charpoly`) is real, its eigenvalues of modulus one
are the roots of g = gcd(p, z^n p(1/z)), and the period is the least b
with sqf(g) | z^b - 1.  It is uncertified, with the reason, when g is not
in Z[z] (a peripheral eigenvalue is not a root of unity) or when no b
within the bound exists.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedInput,
    PreconditionViolated,
    SingularMatrix,
    UncertifiedPeriod,
)

Rational = Fraction


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" (also plain ints) into an exact rational."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        return Fraction(text)
    return Fraction(str(text).strip())


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class CRat:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    @staticmethod
    def coerce(value) -> "CRat":
        """Accept CRat, int, Fraction, "p/q" strings, [re, im] pairs, complex."""
        if isinstance(value, CRat):
            return value
        if isinstance(value, (int, Fraction)):
            return CRat(value)
        if isinstance(value, str):
            return CRat(parse_rational(value))
        if isinstance(value, complex):
            return CRat(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return CRat(Fraction(value))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return CRat(parse_rational(value[0]), parse_rational(value[1]))
        raise TypeError(f"cannot interpret {value!r} as a complex rational")

    def __add__(self, other):
        other = CRat.coerce(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = CRat.coerce(other)
        return CRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return CRat.coerce(other) - self

    def __mul__(self, other):
        other = CRat.coerce(other)
        return CRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = CRat.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return CRat.coerce(other) / self

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = CRat.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


# the shape of nearly every literal in a matrix file, an integer or an
# integer ratio: read straight into a pair of integers, with no Fraction
_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _ratio(x) -> tuple:
    """A real literal as (numerator, denominator), the denominator positive;
    every form but a "p"/"p/q" string, an int, a Fraction or a float is
    read by :func:`parse_rational`."""
    t = type(x)
    if t is str:
        m = _RATIO.fullmatch(x)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return int(num), 1
            den = int(den)
            if den:
                return int(num), den
            raise ZeroDivisionError(f"Fraction({num}, 0)")
    elif t is int:
        return x, 1
    elif t is Fraction:
        return x.numerator, x.denominator
    elif t is float:
        return x.as_integer_ratio()
    f = parse_rational(x)
    return f.numerator, f.denominator


def _read_rows(rows):
    """Real and imaginary parts of nested entries as grids of (numerator,
    denominator) pairs, each entry read as :meth:`CRat.coerce` reads it."""
    grid_re, grid_im = [], []
    for row in rows:
        row_re, row_im = [], []
        for e in row:
            t = type(e)
            if t is str or t is int:
                row_re.append(_ratio(e))
                row_im.append((0, 1))
            elif (t is list or t is tuple) and len(e) == 2:
                row_re.append(_ratio(e[0]))
                row_im.append(_ratio(e[1]))
            else:
                c = e if t is CRat else CRat.coerce(e)
                row_re.append((c.re.numerator, c.re.denominator))
                row_im.append((c.im.numerator, c.im.denominator))
        grid_re.append(row_re)
        grid_im.append(row_im)
    return grid_re, grid_im


def _from_ratios(grid_re, grid_im) -> "Mat":
    """The Mat of two grids of (numerator, denominator) pairs, over the
    least common denominator."""
    nrows = len(grid_re)
    ncols = len(grid_re[0]) if nrows else 0
    if any(len(row) != ncols for row in grid_re):
        raise DimensionMismatch("ragged rows")
    if not nrows or not ncols:
        return Mat.zeros(nrows, ncols)
    den = math.lcm(*[d for row in grid_re for _, d in row], *[d for row in grid_im for _, d in row])
    if den == 1:
        num_re = [[n for n, _ in row] for row in grid_re]
        num_im = [[n for n, _ in row] for row in grid_im]
    else:
        num_re = [[n * (den // d) for n, d in row] for row in grid_re]
        num_im = [[n * (den // d) for n, d in row] for row in grid_im]
    return Mat(np.array(num_re, dtype=object), np.array(num_im, dtype=object), den)


def _gcd_reduce(num_re, num_im, den):
    """Divide out the gcd of all numerators and the denominator."""
    g = den
    for v in num_re.flat:
        if g == 1:
            return num_re, num_im, den
        g = math.gcd(g, v if v >= 0 else -v)
    for v in num_im.flat:
        if g == 1:
            return num_re, num_im, den
        g = math.gcd(g, v if v >= 0 else -v)
    if g > 1:
        num_re = num_re // g
        num_im = num_im // g
        den = den // g
    return num_re, num_im, den


_OBJECT = np.dtype(object)


class Mat:
    """Dense matrix with exact complex-rational entries.

    Stored as integer numerator grids over one positive denominator; all
    arithmetic is exact.  Instances are immutable by convention: no method
    mutates ``self``.  Whether the imaginary grid is zero is read once and
    cached (:meth:`is_real`); operations whose operands decide it (products,
    Kronecker products, sums and scalings of real matrices, and the
    adjoint, transpose, conjugate, slices and stacks of real ones) set it at
    construction.
    """

    __slots__ = ("num_re", "num_im", "den", "rows", "cols", "_key", "_real")

    def __init__(self, num_re, num_im, den=1, _normalized=False, _real=None):
        """``_real``, where the caller knows it, says whether ``num_im`` is
        zero; None leaves it to the first :meth:`is_real`."""
        if type(num_re) is not np.ndarray or num_re.dtype is not _OBJECT:
            num_re = np.asarray(num_re, dtype=object)
        if type(num_im) is not np.ndarray or num_im.dtype is not _OBJECT:
            num_im = np.asarray(num_im, dtype=object)
        if num_re.shape != num_im.shape or num_re.ndim != 2:
            raise DimensionMismatch("numerator grids must be equal 2-d shapes")
        if den <= 0:
            num_re, num_im, den = -num_re, -num_im, -den
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _normalized and den != 1:
            num_re, num_im, den = _gcd_reduce(num_re, num_im, den)
        object.__setattr__(self, "num_re", num_re)
        object.__setattr__(self, "num_im", num_im)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", num_re.shape[0])
        object.__setattr__(self, "cols", num_re.shape[1])
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_real", _real)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_rows(rows) -> "Mat":
        """Build from nested entries: ints, Fractions, CRats, floats, complex
        numbers, rational strings ("p/q", "0.5", "1e-3", ...) and [re, im]
        pairs of the real forms, exactly as :meth:`CRat.coerce` reads them.
        An entry that does not read as a number raises MalformedInput."""
        rows = [list(row) for row in rows]
        try:
            grids = _read_rows(rows)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError):
            # find the first entry that does not read, to name it
            for i, row in enumerate(rows):
                for j, e in enumerate(row):
                    try:
                        _read_rows([[e]])
                    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
                        raise MalformedInput(f"entry ({i}, {j}) = {e!r} is not an exact number: {exc}") from None
            raise
        return _from_ratios(*grids)

    @staticmethod
    def zeros(rows, cols=None) -> "Mat":
        cols = rows if cols is None else cols
        z = np.zeros((rows, cols), dtype=object)
        return Mat(z, z.copy(), 1, _normalized=True, _real=True)

    @staticmethod
    def eye(n) -> "Mat":
        return _unit_rows(range(n), n)

    @staticmethod
    def unit(n, i, j) -> "Mat":
        """The n x n matrix with a single 1 at (i, j)."""
        re = np.zeros((n, n), dtype=object)
        re[i, j] = 1
        return Mat(re, np.zeros((n, n), dtype=object), 1, _normalized=True, _real=True)

    @staticmethod
    def column(entries) -> "Mat":
        return Mat.from_rows([[e] for e in entries])

    # ------------------------------------------------------------------
    # element access

    def entry(self, i, j) -> CRat:
        return CRat(Fraction(self.num_re[i, j], self.den), Fraction(self.num_im[i, j], self.den))

    def entries(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def column_vectors(self):
        return [self[:, j] for j in range(self.cols)]

    def __getitem__(self, idx):
        sub_re = self.num_re[idx]
        sub_im = self.num_im[idx]
        if sub_re.ndim == 1:
            sub_re = sub_re.reshape(-1, 1)
            sub_im = sub_im.reshape(-1, 1)
        return Mat(sub_re.copy(), sub_im.copy(), self.den, _real=self._real or None)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce_scalar(self, other):
        return CRat.coerce(other)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        g = math.gcd(self.den, other.den)
        ka, kb = other.den // g, self.den // g
        return Mat(
            self.num_re * ka + other.num_re * kb,
            self.num_im * ka + other.num_im * kb,
            self.den * ka,
            _real=self._real and other._real or None,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat(-self.num_re, -self.num_im, self.den, _normalized=True, _real=self._real)

    def __mul__(self, scalar):
        s = self._coerce_scalar(scalar)
        d = self.den * s.re.denominator * s.im.denominator
        are = s.re.numerator * s.im.denominator
        aim = s.im.numerator * s.re.denominator
        return Mat(
            self.num_re * are - self.num_im * aim,
            self.num_re * aim + self.num_im * are,
            d,
            _real=self._real and not aim or None,
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # a real factor (common for projections, selectors and bases) saves
        # half of the object-array products
        a_real, b_real = self.is_real(), other.is_real()
        re = np.dot(self.num_re, other.num_re)
        if a_real and b_real:
            return Mat(re, np.zeros(re.shape, dtype=object), self.den * other.den, _real=True)
        elif b_real:
            im = np.dot(self.num_im, other.num_re)
        elif a_real:
            im = np.dot(self.num_re, other.num_im)
        else:
            re = re - np.dot(self.num_im, other.num_im)
            im = np.dot(self.num_re, other.num_im) + np.dot(self.num_im, other.num_re)
        return Mat(re, im, self.den * other.den)

    def dagger(self) -> "Mat":
        return Mat(self.num_re.T.copy(), -self.num_im.T.copy(), self.den, _normalized=True, _real=self._real)

    def conj(self) -> "Mat":
        return Mat(self.num_re.copy(), -self.num_im.copy(), self.den, _normalized=True, _real=self._real)

    def transpose(self) -> "Mat":
        return Mat(self.num_re.T.copy(), self.num_im.T.copy(), self.den, _normalized=True, _real=self._real)

    def trace(self) -> CRat:
        tr_re = sum(self.num_re[i, i] for i in range(min(self.rows, self.cols)))
        tr_im = sum(self.num_im[i, i] for i in range(min(self.rows, self.cols)))
        return CRat(Fraction(tr_re, self.den), Fraction(tr_im, self.den))

    def _stack_with(self, other: "Mat", join) -> "Mat":
        """Both grids over the lcm self.den * ka of the denominators, joined
        by ``join``.

        Normalized with no gcd sweep: if a prime p divided the lcm and every
        scaled numerator but not ka, it would divide every numerator of self
        and self.den, which normalized self rules out; likewise for kb; so p
        would divide both ka and kb, which are coprime."""
        g = math.gcd(self.den, other.den)
        ka, kb = other.den // g, self.den // g
        return Mat(
            join([self.num_re * ka, other.num_re * kb]),
            join([self.num_im * ka, other.num_im * kb]),
            self.den * ka,
            _normalized=True,
            _real=self._real and other._real or None,
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise DimensionMismatch("row mismatch in hstack")
        return self._stack_with(other, np.hstack)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise DimensionMismatch("column mismatch in vstack")
        return self._stack_with(other, np.vstack)

    # ------------------------------------------------------------------
    # predicates

    def is_real(self) -> bool:
        """Whether every entry is real; the imaginary grid is read at most
        once per matrix."""
        if self._real is None:
            object.__setattr__(self, "_real", not any(self.num_im.flat))
        return self._real

    def is_zero(self) -> bool:
        return not self.num_re.any() and self.is_real()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_hermitian(self) -> bool:
        return (
            self.is_square()
            and np.array_equal(self.num_re, self.num_re.T)
            and np.array_equal(self.num_im, -self.num_im.T)
        )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.den == other.den
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.num_re, other.num_re)
            and np.array_equal(self.num_im, other.num_im)
        )

    def key(self):
        """Hashable canonical key (entries are normalized at construction)."""
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                (
                    self.rows,
                    self.cols,
                    self.den,
                    tuple(self.num_re.flat),
                    tuple(self.num_im.flat),
                ),
            )
        return self._key

    def __hash__(self):
        return hash(self.key())

    # ------------------------------------------------------------------
    # conversion

    def to_complex(self) -> np.ndarray:
        """Complex floats: one division per grid where the numbers fit in
        floats, the rounded exact quotient of every entry otherwise."""
        out = np.empty((self.rows, self.cols), dtype=complex)
        den, grids = self.den, (self.num_re, self.num_im)
        if den < 2**500 and all(np.abs(g).max(initial=0) < 2**500 for g in grids):
            out.real, out.imag = (g / float(den) for g in grids)
        else:
            to_float = np.vectorize(lambda x: float(Fraction(x, den)), otypes=[float])
            out.real, out.imag = (to_float(g) for g in grids)
        return out

    def __repr__(self):
        body = "; ".join(
            " ".join(repr(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Mat[{body}]"


def _kron_grid(a, b):
    """np.kron of two 2-d object grids, as one outer product laid out in
    place: entry (i rb + k, j cb + l) is a[i, j] b[k, l]."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(ra * rb, ca * cb)


def kron(a: Mat, b: Mat) -> Mat:
    """Exact Kronecker product; one outer product when both factors are real."""
    re = _kron_grid(a.num_re, b.num_re)
    if a.is_real() and b.is_real():
        return Mat(re, np.zeros(re.shape, dtype=object), a.den * b.den, _real=True)
    re = re - _kron_grid(a.num_im, b.num_im)
    im = _kron_grid(a.num_re, b.num_im) + _kron_grid(a.num_im, b.num_re)
    return Mat(re, im, a.den * b.den)


def mat_sum(mats) -> Mat:
    """Exact sum of matrices with a single final normalization pass.

    Equivalent to folding ``+`` but avoids the per-addition gcd sweep, which
    dominates when accumulating many Kraus terms.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("mat_sum needs at least one matrix")
    den = 1
    for m in mats:
        den = den * m.den // math.gcd(den, m.den)
    re = np.zeros((mats[0].rows, mats[0].cols), dtype=object)
    im = np.zeros((mats[0].rows, mats[0].cols), dtype=object)
    for m in mats:
        scale = den // m.den
        re = re + m.num_re * scale
        im = im + m.num_im * scale
    return Mat(re, im, den, _real=all(m._real for m in mats) or None)


# ----------------------------------------------------------------------
# fraction-free elimination: over the integers for a real matrix, over the
# Gaussian integers for a complex one


def _rows_as_pairs(m: Mat):
    return [list(zip(re, im)) for re, im in zip(m.num_re.tolist(), m.num_im.tolist())]


def _echelon(rows, width, jordan=False):
    """In-place Bareiss elimination; returns the list of (row, col) pivots.

    Works over the Gaussian integers, on rows of (re, im) pairs: every
    division in the update formula is exact, so entries stay integer pairs
    with single-minor growth.  Rows that are or become zero can never hold
    a pivot and are dropped from the list, and entries that are zero in
    both the pivot row and the updated row are left untouched.  A real
    matrix takes :func:`_echelon_int` instead, the same elimination on
    plain integers; :func:`rref`, :func:`rank` and :func:`solve` choose by
    :meth:`Mat.is_real`.

    With ``jordan`` the same update also runs on the rows above each pivot
    (fraction-free Gauss-Jordan): every entry stays a minor, so the
    divisions stay exact, and at the end each pivot row holds the last
    pivot D at its own pivot column and zero at the others, i.e. the rows
    are D times the reduced row echelon form.
    """
    rows[:] = [row for row in rows if row.count((0, 0)) != len(row)]
    pivots = []
    prev_re, prev_im = 1, 0
    r = 0
    for c in range(width):
        nrows = len(rows)
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            e = rows[i][c]
            if e[0] or e[1]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        row_r = rows[r]
        pre, pim = row_r[c]
        pn = prev_re * prev_re + prev_im * prev_im
        divide = prev_re != 1 or prev_im != 0
        same = pre == prev_re and pim == prev_im
        kept = rows[: r + 1]
        targets = range(r + 1, nrows)
        if jordan:
            targets = list(targets) + list(range(r))
        for i in targets:
            row_i = rows[i]
            tre, tim = row_i[c]
            if same and not (tre or tim):
                # piv / prev = 1 and nothing to subtract: the row stays as it is
                if i > r:
                    kept.append(row_i)
                continue
            row_i[c] = (0, 0)
            nonzero = False
            if i < r:
                # a row above the pivot: the pivot row is zero left of c, so
                # the update there is the scaling by piv / prev alone
                for j in range(c):
                    are, aim = row_i[j]
                    if are or aim:
                        nre = pre * are - pim * aim
                        nim = pre * aim + pim * are
                        if divide:
                            nre, nim = (
                                (nre * prev_re + nim * prev_im) // pn,
                                (nim * prev_re - nre * prev_im) // pn,
                            )
                        row_i[j] = (nre, nim)
            for j in range(c + 1, width):
                are, aim = row_i[j]
                bre, bim = row_r[j]
                # piv * a - t * b, then exact division by the previous pivot
                if bre or bim:
                    nre = pre * are - pim * aim - (tre * bre - tim * bim)
                    nim = pre * aim + pim * are - (tre * bim + tim * bre)
                elif are or aim:
                    nre = pre * are - pim * aim
                    nim = pre * aim + pim * are
                else:
                    continue
                if divide:
                    nre, nim = (
                        (nre * prev_re + nim * prev_im) // pn,
                        (nim * prev_re - nre * prev_im) // pn,
                    )
                row_i[j] = (nre, nim)
                if nre or nim:
                    nonzero = True
            if nonzero and i > r:
                kept.append(row_i)
        rows[:] = kept
        pivots.append((r, c))
        prev_re, prev_im = pre, pim
        r += 1
    return pivots


def _echelon_int(rows, width, jordan=False):
    """:func:`_echelon` on rows of plain integers, for a real matrix: the
    same pivots, the same update (piv * a - t * b, divided exactly by the
    previous pivot), the same skipped zeros and dropped rows, with one
    product per term instead of four and no pair per entry.  On the rows
    of a real matrix it returns the pivots that :func:`_echelon` returns on
    their (x, 0) pairs and leaves the real parts of the rows it leaves."""
    rows[:] = [row for row in rows if any(row)]
    pivots = []
    prev = 1
    r = 0
    for c in range(width):
        nrows = len(rows)
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        row_r = rows[r]
        p = row_r[c]
        divide = prev != 1
        kept = rows[: r + 1]
        targets = range(r + 1, nrows)
        if jordan:
            targets = list(targets) + list(range(r))
        for i in targets:
            row_i = rows[i]
            t = row_i[c]
            if not t and p == prev:
                if i > r:
                    kept.append(row_i)
                continue
            row_i[c] = 0
            nonzero = False
            if i < r:
                for j in range(c):
                    a = row_i[j]
                    if a:
                        row_i[j] = p * a // prev if divide else p * a
            for j in range(c + 1, width):
                a = row_i[j]
                b = row_r[j]
                if b:
                    n = p * a - t * b
                elif a:
                    n = p * a
                else:
                    continue
                if divide:
                    n //= prev
                row_i[j] = n
                if n:
                    nonzero = True
            if nonzero and i > r:
                kept.append(row_i)
        rows[:] = kept
        pivots.append((r, c))
        prev = p
        r += 1
    return pivots


def _rows_over(d, rows_re, rows_im=None) -> Mat:
    """The Mat of integer rows over the nonzero integer d, real when
    ``rows_im`` is None, normalized by one gcd of d and every entry
    (``Mat`` moves a sign of d into the rows)."""
    entries = itertools.chain.from_iterable(rows_re if rows_im is None else rows_re + rows_im)
    g = math.gcd(d, *entries)
    if g != 1:
        rows_re = [[x // g for x in row] for row in rows_re]
        if rows_im is not None:
            rows_im = [[x // g for x in row] for row in rows_im]
        d //= g
    num_re = np.array(rows_re, dtype=object)
    if rows_im is None:
        return Mat(num_re, np.zeros(num_re.shape, dtype=object), d, _normalized=True, _real=True)
    return Mat(num_re, np.array(rows_im, dtype=object), d, _normalized=True)


def _unit_columns(grids, width):
    """The sorted distinct columns of the nonzero entries of the rows, when
    every row holds at most one; None as soon as a row holds two.  The
    grids are the row lists of the real part and, for a complex matrix,
    of the imaginary part."""
    cols = set()
    for parts in zip(*grids):
        col = None
        for row in parts:
            k = width - row.count(0)
            if k > 1:
                return None
            if k:
                j = row.index(next(filter(None, row)))
                if col is not None and j != col:
                    return None
                col = j
        if col is not None:
            cols.add(col)
    return sorted(cols)


def _unit_rows(cols, width) -> Mat:
    """The unit rows e_c of C^width, one per c in ``cols``, over
    denominator 1: the RREF of the coordinate subspace on those columns
    when they are sorted."""
    num_re = np.zeros((len(cols), width), dtype=object)
    for i, c in enumerate(cols):
        num_re[i, c] = 1
    return Mat(num_re, np.zeros(num_re.shape, dtype=object), 1, _normalized=True, _real=True)


def rref(m: Mat):
    """Reduced row echelon form of m over Q(i), and its pivot columns.

    When every row holds at most one nonzero entry, real or complex, the
    row space is spanned by the unit vectors e_j of the columns j of those
    entries (span{c e_j} = span{e_j} for c != 0), so the result is the unit
    rows of those columns, sorted, with them as pivots, and nothing is
    eliminated; the reduced form is unique, so this is the form the
    elimination would reach.  Otherwise one fraction-free Gauss-Jordan pass
    (:func:`_echelon_int` on a real m, :func:`_echelon` otherwise, both
    with ``jordan``) leaves D times the reduced form, D the last pivot; the
    one division by D, and one gcd over the integer rows, happen when the
    result is built.  Zero rows are dropped, so the result has one row per
    pivot.  The reduced form is unique for the row space, and its entries
    are normalized, so equal row spaces give equal results.
    """
    real = m.is_real()
    grids = (m.num_re.tolist(),) if real else (m.num_re.tolist(), m.num_im.tolist())
    cols = _unit_columns(grids, m.cols)
    if cols is not None:
        return _unit_rows(cols, m.cols), tuple(cols)
    # some row holds two nonzero entries, so there is at least one pivot
    if real:
        rows = grids[0]
        pivots = _echelon_int(rows, m.cols, jordan=True)
        return _rows_over(rows[-1][pivots[-1][1]], rows), tuple(c for _, c in pivots)
    rows = [list(zip(re, im)) for re, im in zip(*grids)]
    pivots = _echelon(rows, m.cols, jordan=True)
    dre, dim_ = rows[-1][pivots[-1][1]]
    # rows / D = rows conj(D) / |D|^2
    rows_re = [[a * dre + b * dim_ for a, b in row] for row in rows]
    rows_im = [[b * dre - a * dim_ for a, b in row] for row in rows]
    return _rows_over(dre * dre + dim_ * dim_, rows_re, rows_im), tuple(c for _, c in pivots)


def rank(m: Mat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.is_real():
        return len(_echelon_int(m.num_re.tolist(), m.cols))
    return len(_echelon(_rows_as_pairs(m), m.cols))


def _gauss_div(nre, nim, dre, dim_):
    """Exact quotient of two Gaussian integers (the division must be exact)."""
    dn = dre * dre + dim_ * dim_
    if dn == 1:
        return nre * dre + nim * dim_, nim * dre - nre * dim_
    return (nre * dre + nim * dim_) // dn, (nim * dre - nre * dim_) // dn


def _perp_rows(r: Mat, pivots: tuple) -> Mat:
    """Rows spanning the orthocomplement of the span of the RREF rows r: the
    row of free column f has 1 at f and -conj(r[i, f]) at the pivot of row i."""
    n, taken = r.cols, set(pivots)
    free = [j for j in range(n) if j not in taken]
    basis = list(zip(pivots, r.num_re.tolist(), r.num_im.tolist()))
    rows_re, rows_im = [], []
    for f in free:
        row_re, row_im = [0] * n, [0] * n
        row_re[f] = r.den
        for p, m_re, m_im in basis:
            row_re[p], row_im[p] = -m_re[f], m_im[f]
        rows_re.append(row_re)
        rows_im.append(row_im)
    shape = (len(free), n)
    num_re = np.array(rows_re, dtype=object).reshape(shape)
    num_im = np.array(rows_im, dtype=object).reshape(shape)
    # normalized: the gcd of den and r's free-column numerators is one
    return Mat(num_re, num_im, r.den, _normalized=True, _real=r._real)


def kernel_basis(m: Mat):
    """Exact basis of the right null space, one column vector per free column.

    The null space of m is the orthocomplement of the rows of conj(m), so
    it is read off the free columns of the RREF of conj(m) (:func:`_perp_rows`):
    the vector of free column f has 1 at f, zero at the other free columns
    and minus entry f of row i of m's RREF at the pivot of row i.  Returns
    an empty list exactly when the matrix is injective.
    """
    r, pivots = rref(m.conj())
    perp = _perp_rows(r, pivots).transpose()
    return [perp[:, j] for j in range(perp.cols)]


def invert(m: Mat) -> Mat:
    """Exact inverse; raises SingularMatrix when the rank is deficient."""
    if not m.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    return solve(m, Mat.eye(m.rows))


def solve(a: Mat, b: Mat) -> Mat:
    """Exact solution of a x = b for square nonsingular a.

    One Bareiss elimination of the augmented system [a | b], then a
    fraction-free back substitution for all columns of b at once: the
    unknowns are scaled by the last pivot D (the determinant of the
    row-permuted integer system), so they are Cramer numerators and every
    step divides exactly.  Both run on plain integers (:func:`_echelon_int`)
    when a and b are real, and the result is built once over the
    denominator D den(b); otherwise they run on Gaussian integers
    (:func:`_echelon`), over |D|^2 den(b).  The inverse of a is never formed.
    """
    if not a.is_square():
        raise DimensionMismatch("only square systems can be solved")
    if b.rows != a.rows:
        raise DimensionMismatch(f"right-hand side has {b.rows} rows, expected {a.rows}")
    n, k = a.rows, b.cols
    if n == 0:
        return b
    # a x = b  <=>  num(a) x = den(a) num(b) / den(b): eliminate on integers
    real = a.is_real() and b.is_real()
    if real:
        rows = a.num_re.tolist()
        for row, rhs in zip(rows, (b.num_re * a.den).tolist()):
            row.extend(rhs)
        pivots = _echelon_int(rows, n + k)
    else:
        rows = _rows_as_pairs(a)
        for i, row in enumerate(rows):
            row.extend((b.num_re[i, j] * a.den, b.num_im[i, j] * a.den) for j in range(k))
        pivots = _echelon(rows, n + k)
    if len(pivots) < n or any(c >= n for _, c in pivots[:n]):
        raise SingularMatrix(f"matrix of rank {rank(a)} < {n}")
    if real:
        d = rows[n - 1][n - 1]
        y = [None] * n
        for r in range(n - 1, -1, -1):
            row = rows[r]
            acc = [x * d for x in row[n:]]
            for t in range(r + 1, n):
                e = row[t]
                if e:
                    acc = [u - v * e for u, v in zip(acc, y[t])]
            p = row[r]
            y[r] = [u // p for u in acc]
        # x = y / D / den(b)
        return _rows_over(d * b.den, y)
    dre, dim_ = rows[n - 1][n - 1]
    y_re = [None] * n
    y_im = [None] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        bre = np.array([e[0] for e in row[n:]], dtype=object)
        bim = np.array([e[1] for e in row[n:]], dtype=object)
        are = bre * dre - bim * dim_
        aim = bim * dre + bre * dim_
        for t in range(r + 1, n):
            ere, eim = row[t]
            if ere or eim:
                are = are - (y_re[t] * ere - y_im[t] * eim)
                aim = aim - (y_im[t] * ere + y_re[t] * eim)
        y_re[r], y_im[r] = _gauss_div(are, aim, *row[r])
    y_re = np.vstack(y_re)
    y_im = np.vstack(y_im)
    # x = y / D / den(b) = y conj(D) / (|D|^2 den(b))
    return Mat(y_re * dre + y_im * dim_, y_im * dre - y_re * dim_, (dre * dre + dim_ * dim_) * b.den)


def is_psd(m: Mat) -> bool:
    """Exact positive-semidefiniteness test for a Hermitian matrix.

    A fraction-free symmetric Bareiss sweep on the integer grid (the Schur
    complement sweep scaled by the last pivot, so every division is exact
    and by a positive integer): a negative pivot is a certificate of
    failure, and a zero pivot forces its whole row to vanish.
    """
    if not m.is_hermitian():
        return False
    rows = _rows_as_pairs(m)
    n = len(rows)
    prev = 1
    for k in range(n):
        row_k = rows[k]
        p = row_k[k][0]
        if p < 0:
            return False
        if p == 0:
            if any(re or im for re, im in row_k[k + 1 :]):
                return False
            continue
        for i in range(k + 1, n):
            row_i = rows[i]
            # a_ik = conj(a_ki); the upper triangle is updated, a_ij for j >= i
            cre, cim = row_k[i]
            if p == prev and not (cre or cim):
                continue
            for j in range(i, n):
                are, aim = row_i[j]
                bre, bim = row_k[j]
                row_i[j] = (
                    (p * are - (cre * bre + cim * bim)) // prev,
                    (p * aim - (cre * bim - cim * bre)) // prev,
                )
        prev = p
    return True


# ----------------------------------------------------------------------
# the peripheral spectrum, exactly: the characteristic polynomial, gcds of
# integer polynomials and the period of the roots of unity
#
# A polynomial is the list of its coefficients, that of z^k at index k.


def charpoly(m: Mat) -> list:
    """The coefficients [c_0, ..., c_n] of det(zI - m) = sum_k c_k z^k, as
    CRats: a reduction to upper Hessenberg form H by elementary
    similarities over Q(i) (over Q when m is real), skipping zero entries,
    then p_k = (z - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}.
    """
    if not m.is_square():
        raise DimensionMismatch("the characteristic polynomial needs a square matrix")
    n = m.rows
    den = m.den
    if not m.is_real():
        zero, one = CRat(0), CRat(1)
        a = [
            [CRat(Fraction(re, den), Fraction(im, den)) if re or im else zero for re, im in zip(row_re, row_im)]
            for row_re, row_im in zip(m.num_re.tolist(), m.num_im.tolist())
        ]
    else:
        zero, one = Fraction(0), Fraction(1)
        a = [[Fraction(x, den) if x else zero for x in row] for row in m.num_re.tolist()]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if a[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:
            a[piv], a[k + 1] = a[k + 1], a[piv]
            for row in a:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        row_p = a[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            if not row_i[k]:
                continue
            # row i -= u row k+1, then column k+1 += u column i
            u = row_i[k] / row_p[k]
            for j in range(k, n):
                if row_p[j]:
                    row_i[j] -= u * row_p[j]
            for row in a:
                if row[i]:
                    row[k + 1] += u * row[i]
    polys = [[one]]
    for k in range(n):
        new = [zero] + polys[k]
        if a[k][k]:
            for j, c in enumerate(polys[k]):
                new[j] -= a[k][k] * c
        t = one
        for i in range(k - 1, -1, -1):
            t = t * a[i + 1][i]
            if not t:
                break
            if a[i][k]:
                f = a[i][k] * t
                for j, c in enumerate(polys[i]):
                    new[j] -= f * c
        polys.append(new)
    return [CRat.coerce(c) for c in polys[n]]


def _primitive(p: list) -> list:
    """An integer polynomial divided by its content, with a positive
    leading coefficient (trailing zeros dropped first)."""
    while p and not p[-1]:
        p.pop()
    g = math.gcd(*p) if p else 1
    g = g if p and p[-1] > 0 else -g
    return [c // g for c in p]


def _gcd(a: list, b: list) -> list:
    """The primitive gcd of two integer polynomials: Euclid on primitive
    pseudo-remainders, so every step stays on the integers.  By Gauss's
    lemma it is the gcd over Q up to a rational factor."""
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        r, d = a, len(b) - 1
        while len(r) > d:
            # lc(b) r - c z^s b cancels the leading term c z^(s+d)
            c = r[-1]
            s = len(r) - 1 - d
            r = [x * b[-1] for x in r[:-1]]
            for k in range(d):
                r[s + k] -= c * b[k]
        a, b = b, _primitive(r)
    return a


def _quotient(a: list, b: list) -> list:
    """a / b for an integer polynomial a and a monic integer divisor b."""
    r, d = list(a), len(b) - 1
    q = [0] * (len(r) - d)
    while len(r) > d:
        c = r.pop()
        s = len(r) - d
        q[s] = c
        for k in range(d):
            r[s + k] -= c * b[k]
    return q


def peripheral_period(m: Mat, bound: int) -> tuple:
    """(k, b) for a channel's matrix representation m: the number k of its
    eigenvalues of modulus one, with multiplicity, and the least b <=
    ``bound`` with lambda^b = 1 for each of them, exactly.

    The characteristic polynomial p of m is real, as m commutes with
    X -> X† (PreconditionViolated otherwise), and the eigenvalues lie in the
    closed unit disk, so g = gcd(p, z^n p(1/z)) has exactly the unimodular
    ones as its roots: k = deg g.  If the monic g is not in Z[z], a root of
    g is no algebraic integer, so no root of unity; otherwise every root is
    one (Kronecker), and b is the least b with sqf(g) | z^b - 1.  Either
    failure raises UncertifiedPeriod with its reason.
    """
    p = charpoly(m)
    if any(c.im for c in p):
        raise PreconditionViolated("characteristic polynomial is not real: not a channel's matrix representation")
    p = [c.re for c in p]
    den = math.lcm(*(c.denominator for c in p))
    p = [int(c * den) for c in p]
    g = _gcd(p, p[::-1])
    if len(g) == 1:
        return 0, 1
    if g[-1] != 1:
        raise UncertifiedPeriod(
            f"a peripheral eigenvalue is not a root of unity and has no finite order: the factor of "
            f"degree {len(g) - 1} of the characteristic polynomial over the unit circle is not in Z[z]"
        )
    h = _quotient(g, _gcd(g, [k * c for k, c in enumerate(g)][1:]))
    # z^b mod h, until it is 1
    r = [1]
    for b in range(1, bound + 1):
        r = [0] + r
        if len(r) == len(h):
            c = r.pop()
            r = [x - c * y for x, y in zip(r, h)]
            while r and not r[-1]:
                r.pop()
        if r == [1]:
            return len(g) - 1, b
    raise UncertifiedPeriod(f"the peripheral eigenvalues have no common order up to {bound}")
