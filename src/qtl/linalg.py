"""Exact complex-rational matrices plus the one numeric kernel of the package.

Everything that feeds the subspace lattice and the program semantics stays in
exact arithmetic: a matrix is a pair of integer numerator grids (real and
imaginary parts, numpy object arrays so the integers are unbounded) over a
single positive denominator.  Rank, kernel, reduced row echelon form,
inverse and solve run fraction-free (Bareiss) over the Gaussian integers, so
no rounding ever happens on that path.

The only numeric computation lives in :func:`peripheral_split`, which
separates the eigenvalues of modulus (close to) one from the strictly
contracting rest of a channel's matrix representation, for the period
certificates of the checker.  It rationalizes its output exactly (binary
floats are rationals) so downstream consumers can keep computing exactly
against it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    MalformedInput,
    PreconditionViolated,
    SingularMatrix,
    ToleranceAmbiguity,
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


class Mat:
    """Dense matrix with exact complex-rational entries.

    Stored as integer numerator grids over one positive denominator; all
    arithmetic is exact.  Instances are immutable by convention: no method
    mutates ``self``.
    """

    __slots__ = ("num_re", "num_im", "den", "rows", "cols", "_key")

    def __init__(self, num_re, num_im, den=1, _normalized=False):
        num_re = np.asarray(num_re, dtype=object)
        num_im = np.asarray(num_im, dtype=object)
        if num_re.shape != num_im.shape or num_re.ndim != 2:
            raise DimensionMismatch("numerator grids must be equal 2-d shapes")
        if den <= 0:
            num_re, num_im, den = -num_re, -num_im, -den
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num_re, num_im, den = _gcd_reduce(num_re, num_im, den)
        object.__setattr__(self, "num_re", num_re)
        object.__setattr__(self, "num_im", num_im)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", num_re.shape[0])
        object.__setattr__(self, "cols", num_re.shape[1])
        object.__setattr__(self, "_key", None)

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
        return Mat(z, z.copy(), 1, _normalized=True)

    @staticmethod
    def eye(n) -> "Mat":
        re = np.zeros((n, n), dtype=object)
        for i in range(n):
            re[i, i] = 1
        return Mat(re, np.zeros((n, n), dtype=object), 1, _normalized=True)

    @staticmethod
    def unit(n, i, j) -> "Mat":
        """The n x n matrix with a single 1 at (i, j)."""
        re = np.zeros((n, n), dtype=object)
        re[i, j] = 1
        return Mat(re, np.zeros((n, n), dtype=object), 1, _normalized=True)

    @staticmethod
    def column(entries) -> "Mat":
        return Mat.from_rows([[e] for e in entries])

    @staticmethod
    def from_complex(array) -> "Mat":
        """Exactly rationalize a float/complex array (binary floats are rationals)."""
        rows = np.asarray(array, dtype=complex).tolist()
        return _from_ratios(
            [[x.real.as_integer_ratio() for x in row] for row in rows],
            [[x.imag.as_integer_ratio() for x in row] for row in rows],
        )

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
        return Mat(sub_re.copy(), sub_im.copy(), self.den)

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
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat(-self.num_re, -self.num_im, self.den, _normalized=True)

    def __mul__(self, scalar):
        s = self._coerce_scalar(scalar)
        d = self.den * s.re.denominator * s.im.denominator
        are = s.re.numerator * s.im.denominator
        aim = s.im.numerator * s.re.denominator
        return Mat(
            self.num_re * are - self.num_im * aim,
            self.num_re * aim + self.num_im * are,
            d,
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
        a_real, b_real = not self.num_im.any(), not other.num_im.any()
        re = np.dot(self.num_re, other.num_re)
        if a_real and b_real:
            im = np.zeros(re.shape, dtype=object)
        elif b_real:
            im = np.dot(self.num_im, other.num_re)
        elif a_real:
            im = np.dot(self.num_re, other.num_im)
        else:
            re = re - np.dot(self.num_im, other.num_im)
            im = np.dot(self.num_re, other.num_im) + np.dot(self.num_im, other.num_re)
        return Mat(re, im, self.den * other.den)

    def dagger(self) -> "Mat":
        return Mat(self.num_re.T.copy(), -self.num_im.T.copy(), self.den, _normalized=True)

    def conj(self) -> "Mat":
        return Mat(self.num_re.copy(), -self.num_im.copy(), self.den, _normalized=True)

    def transpose(self) -> "Mat":
        return Mat(self.num_re.T.copy(), self.num_im.T.copy(), self.den, _normalized=True)

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

    def is_zero(self) -> bool:
        return not (self.num_re.any() or self.num_im.any())

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
    """Exact Kronecker product."""
    re = _kron_grid(a.num_re, b.num_re) - _kron_grid(a.num_im, b.num_im)
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
    return Mat(re, im, den)


def block_diag(blocks) -> Mat:
    """Exact block-diagonal matrix of the given blocks, rectangular or empty
    ones included."""
    den = math.lcm(*(b.den for b in blocks))
    re = scipy.linalg.block_diag(*(b.num_re * (den // b.den) for b in blocks))
    im = scipy.linalg.block_diag(*(b.num_im * (den // b.den) for b in blocks))
    return Mat(re, im, den)


# ----------------------------------------------------------------------
# fraction-free elimination over the Gaussian integers


def _rows_as_pairs(m: Mat):
    return [list(zip(re, im)) for re, im in zip(m.num_re.tolist(), m.num_im.tolist())]


def _echelon(rows, width, jordan=False):
    """In-place Bareiss elimination; returns the list of (row, col) pivots.

    Works over the Gaussian integers: every division in the update formula
    is exact, so entries stay integer pairs with single-minor growth.  Rows
    that are or become zero can never hold a pivot and are dropped from the
    list, and entries that are zero in both the pivot row and the updated
    row are left untouched.

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


def rref(m: Mat):
    """Reduced row echelon form of m over Q(i), and its pivot columns.

    One fraction-free Gauss-Jordan pass (:func:`_echelon` with ``jordan``)
    leaves D times the reduced form, D the last pivot, on the Gaussian
    integers; the one division by D happens when the result is built.  Zero
    rows are dropped, so the result has one row per pivot.  The reduced
    form is unique for the row space, and ``Mat`` normalizes its entries,
    so equal row spaces give equal results.
    """
    rows = _rows_as_pairs(m)
    pivots = _echelon(rows, m.cols, jordan=True)
    if not pivots:
        return Mat.zeros(0, m.cols), ()
    dre, dim_ = rows[-1][pivots[-1][1]]
    # rows / D = rows conj(D) / |D|^2
    num_re = np.array([[a * dre + b * dim_ for a, b in row] for row in rows], dtype=object)
    num_im = np.array([[b * dre - a * dim_ for a, b in row] for row in rows], dtype=object)
    return Mat(num_re, num_im, dre * dre + dim_ * dim_), tuple(c for _, c in pivots)


def rank(m: Mat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _rows_as_pairs(m)
    return len(_echelon(rows, m.cols))


def _gauss_div(nre, nim, dre, dim_):
    """Exact quotient of two Gaussian integers (the division must be exact)."""
    dn = dre * dre + dim_ * dim_
    if dn == 1:
        return nre * dre + nim * dim_, nim * dre - nre * dim_
    return (nre * dre + nim * dim_) // dn, (nim * dre - nre * dim_) // dn


def _perp_rows(r: Mat, pivots: tuple) -> Mat:
    """Rows spanning the orthocomplement of the span of the RREF rows r: the
    row of free column f has 1 at f and -conj(r[i, f]) at the pivot of row i."""
    n = r.cols
    free = [j for j in range(n) if j not in pivots]
    num_re = np.zeros((len(free), n), dtype=object)
    num_im = np.zeros((len(free), n), dtype=object)
    for row, f in enumerate(free):
        num_re[row, f] = r.den
        for i, p in enumerate(pivots):
            num_re[row, p], num_im[row, p] = -r.num_re[i, f], r.num_im[i, f]
    # normalized: the gcd of den and r's free-column numerators is one
    return Mat(num_re, num_im, r.den, _normalized=True)


def kernel_basis(m: Mat):
    """Exact basis of the right null space, one column vector per free column.

    The null space of m is the orthocomplement of the rows of conj(m), so
    it is read off the free columns of the RREF of conj(m) (:func:`_perp_rows`):
    the vector of free column f has 1 at f, zero at the other free columns
    and minus entry f of row i of m's RREF at the pivot of row i.  Returns
    an empty list exactly when the matrix is injective.
    """
    r, pivots = rref(m.conj())
    perp = _perp_rows(r, pivots)
    return [perp[i : i + 1, :].transpose() for i in range(perp.rows)]


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
    step divides exactly in the Gaussian integers; the result is built once,
    over the denominator |D|^2 den(b).  The inverse of a is never formed.
    """
    if not a.is_square():
        raise DimensionMismatch("only square systems can be solved")
    if b.rows != a.rows:
        raise DimensionMismatch(f"right-hand side has {b.rows} rows, expected {a.rows}")
    n, k = a.rows, b.cols
    if n == 0:
        return b
    # a x = b  <=>  num(a) x = den(a) num(b) / den(b): eliminate on integers
    rows = _rows_as_pairs(a)
    for i, row in enumerate(rows):
        row.extend((b.num_re[i, j] * a.den, b.num_im[i, j] * a.den) for j in range(k))
    pivots = _echelon(rows, n + k)
    if len(pivots) < n or any(c >= n for _, c in pivots[:n]):
        raise SingularMatrix(f"matrix of rank {rank(a)} < {n}")
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
# peripheral spectrum splitting (the numeric regime)


@dataclass(frozen=True)
class SpectralSplit:
    """Split of a (sub)stochastic channel matrix into peripheral and stable parts.

    ``peripheral_projector`` projects onto the span of eigenspaces with
    modulus within ``tolerance`` of one; ``stable_part`` is the input with
    that component removed, so its spectral radius is strictly below one.
    Both are exact rationalizations of the numeric computation.
    """

    peripheral_projector: Mat
    stable_part: Mat
    tolerance: float
    eigenvalues: list  # [(complex estimate, algebraic multiplicity)]

    @property
    def peripheral_eigenvalues(self):
        cut = 1.0 - self.tolerance
        return [(lam, mult) for lam, mult in self.eigenvalues if abs(lam) >= cut]


def _cluster_eigenvalues(values, tol=1e-7):
    clusters = []
    for lam in values:
        for idx, (rep, mult) in enumerate(clusters):
            if abs(lam - rep) <= tol:
                clusters[idx] = ((rep * mult + lam) / (mult + 1), mult + 1)
                break
        else:
            clusters.append((lam, 1))
    return [(complex(rep), mult) for rep, mult in clusters]


def peripheral_split(m: Mat, tolerance: float = 1e-9) -> SpectralSplit:
    """Separate the modulus-one spectral component of a channel matrix.

    The input must have spectral radius at most one (matrix representation of
    a trace-non-increasing channel); PreconditionViolated otherwise.  The
    numeric core is a sorted complex Schur form: the spectral projector onto
    the eigenvalues of modulus at least 1 - tolerance comes from one
    Sylvester solve, and is rationalized exactly (binary floats are
    rationals).  An eigenvalue modulus inside [1-2*tol, 1-tol/2], or a
    projector failing its idempotency, commutation or stable-radius check,
    makes the classification unsafe and raises ToleranceAmbiguity.  Without
    any peripheral eigenvalue the projector is exactly zero and the stable
    part is the input itself.
    """
    if not m.is_square():
        raise DimensionMismatch("peripheral_split needs a square matrix")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = m.rows
    if n == 0:
        return SpectralSplit(m, m, tolerance, [])
    a = m.to_complex()
    cut = 1.0 - tolerance
    t, z, k = scipy.linalg.schur(a, output="complex", sort=lambda lam: abs(lam) >= cut)
    eigs = np.diag(t)
    radius = max(abs(eigs))
    if radius > 1.0 + max(tolerance, 64 * np.finfo(float).eps * max(1.0, radius)):
        raise PreconditionViolated(
            f"spectral radius {radius} exceeds 1; not a trace-non-increasing channel"
        )
    lo, hi = 1.0 - 2.0 * tolerance, 1.0 - 0.5 * tolerance
    for lam in eigs:
        if lo <= abs(lam) <= hi:
            raise ToleranceAmbiguity(
                f"eigenvalue modulus {abs(lam)} inside the unsafe band [{lo}, {hi}]"
            )
    eigenvalues = _cluster_eigenvalues(list(eigs))
    if k == 0:
        # nothing peripheral: the Schur diagonal above already bounds the
        # stable radius below the band
        return SpectralSplit(Mat.zeros(n), m, tolerance, eigenvalues)
    if k == n:
        projector = np.eye(n, dtype=complex)
    else:
        y = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
        r = np.zeros((n, n), dtype=complex)
        r[:k, :k] = np.eye(k)
        r[:k, k:] = y
        projector = z @ r @ z.conj().T
    scale = max(1.0, float(np.max(np.abs(projector))))
    if np.max(np.abs(projector @ projector - projector)) > 1e-7 * scale * scale:
        raise ToleranceAmbiguity("spectral projector failed the idempotency check")
    if np.max(np.abs(a @ projector - projector @ a)) > 1e-7 * scale:
        raise ToleranceAmbiguity("spectral projector does not commute with the input")
    if k < n:
        stable_radius = max(abs(np.linalg.eigvals(a @ (np.eye(n) - projector))))
        if stable_radius >= 1.0 - 0.5 * tolerance:
            raise ToleranceAmbiguity(
                f"stable part kept spectral radius {stable_radius}"
            )
    projector_mat = Mat.from_complex(projector)
    return SpectralSplit(projector_mat, m - m @ projector_mat, tolerance, eigenvalues)


def multiplicative_order(lam: complex, bound: int, tolerance: float = 1e-8):
    """Smallest k <= bound with lam**k == 1 within tolerance, else None."""
    if abs(abs(lam) - 1.0) > tolerance:
        return None
    power = 1.0 + 0.0j
    for k in range(1, bound + 1):
        power *= lam
        if abs(power - 1.0) <= tolerance:
            return k
    return None
