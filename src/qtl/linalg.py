"""Exact complex-rational matrices and polynomials: no float on any verdict path.

Everything that feeds the subspace lattice, the program semantics and the
period certificates stays in exact arithmetic: a matrix is a pair of
integer numerator grids (real and imaginary parts, numpy object arrays so
the integers are unbounded) over a single positive denominator.  Rank,
reduced row echelon form, solve and the PSD test run fraction-free
(Bareiss), so no rounding ever happens on that path.  The first three run
on one kernel of plain integers: a complex matrix is eliminated on its
realification C^n = R^2n, each row a + ib becoming the integer rows of
a + ib and of i(a + ib), columns interleaved, whose reduced form holds the
complex one in its even rows.  The PSD test sweeps a Hermitian matrix on
its Gaussian integers, held as pairs of integer rows.  Matrix literals are
read once: into integer rows over one denominator (:func:`_int_rows`), the
form these kernels take, or, for the operators of a channel or a
measurement, into their nonzero entries over one denominator
(:func:`_read_nonzero`), the form of a Kraus stack of :mod:`qtl.superop`.

The peripheral spectrum of a channel is exact too
(:func:`_peripheral_period`), and runs on integers from end to end: the
characteristic polynomial p of its real matrix in a Hermitian operator
basis (:func:`_charpoly_int`, a Hessenberg reduction on the integer
numerator grid with a denominator per column) is real, its eigenvalues of
modulus one are the roots of g = gcd(p, z^n p(1/z)), and the period is the
least b with sqf(g) | z^b - 1.  It is uncertified, with the reason, when g
is not in Z[z] (a peripheral eigenvalue is not a root of unity) or when no
b within the bound exists.
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
    SingularMatrix,
    UncertifiedPeriod,
)

Rational = Fraction


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" (also plain ints) into an exact rational; a
    boolean is no number."""
    if isinstance(text, bool):
        raise TypeError(f"cannot interpret {text!r} as a rational")
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
        """Accept CRat, int, Fraction, "p/q" strings, [re, im] pairs, complex;
        a boolean is no number."""
        if isinstance(value, CRat):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
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
    """A real literal as (numerator, denominator) in lowest terms, the
    denominator positive; every form but a "p"/"p/q" string, an int, a
    Fraction or a float is read by :func:`parse_rational`."""
    t = type(x)
    if t is str:
        m = _RATIO.fullmatch(x)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return int(num), 1
            num, den = int(num), int(den)
            if den:
                g = math.gcd(num, den)
                return num // g, den // g
            raise ZeroDivisionError(f"Fraction({num}, 0)")
    elif t is int:
        return x, 1
    elif t is Fraction:
        return x.numerator, x.denominator
    elif t is float:
        return x.as_integer_ratio()
    f = parse_rational(x)
    return f.numerator, f.denominator


_READ_ERRORS = (ValueError, ZeroDivisionError, TypeError, OverflowError)


def _read_ints(rows, per_row=False) -> tuple:
    """The nested entries, each read as :meth:`CRat.coerce` reads it, as
    integer rows (re, im, den): the numerators of the real and imaginary
    parts over the positive denominator den, im None when every entry is
    real.  One pass reads each part in lowest terms (a "p/q" string by one
    gcd) and notes the parts whose denominator is not 1; then every row is
    scaled by the lcm of those denominators and each noted part divided by
    its own.  The rows need no gcd sweep after that: a prime p dividing the
    lcm divides it exactly as often as it divides some part's own
    denominator, and that part's scaled numerator is then prime to p.
    With ``per_row`` each row is scaled by the lcm of its own denominators
    instead (a row read as a vector spans the same line at any scale), and
    den is the list of them."""
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    re, im = [], None
    fracs = []  # (grid, i, j, d) of every part whose denominator d is not 1
    match, gcd = _RATIO.fullmatch, math.gcd
    for i, row in enumerate(rows):
        out = [0] * len(row)
        re.append(out)
        if out and type(row[0]) is str and row.count("0") == len(out):
            # a zero row of literals, common in Kraus operators of program
            # actions (other entry types may compare slowly with a string)
            continue
        for j, e in enumerate(row):
            t = type(e)
            if t is str:
                if e == "0":
                    continue
                m = match(e)
                if m is not None:
                    num, den = m.groups()
                    if den is None:
                        out[j] = int(num)
                        continue
                    den = int(den)
                    if den:
                        num = int(num)
                        g = gcd(num, den)
                        if g != 1:
                            num, den = num // g, den // g
                        out[j] = num
                        if den != 1:
                            fracs.append((re, i, j, den))
                        continue
                n, d = _ratio(e)
            elif t is int:
                out[j] = e
                continue
            elif (t is list or t is tuple) and len(e) == 2:
                a, b = e
                n, d = (0, 1) if a == "0" else _ratio(a)
                if b != "0":
                    bn, bd = _ratio(b)
                    if bn:
                        if im is None:
                            im = [[0] * len(r) for r in rows]
                        im[i][j] = bn
                        if bd != 1:
                            fracs.append((im, i, j, bd))
            else:
                c = e if t is CRat else CRat.coerce(e)
                n, d = c.re.numerator, c.re.denominator
                if c.im:
                    if im is None:
                        im = [[0] * len(r) for r in rows]
                    im[i][j] = c.im.numerator
                    if c.im.denominator != 1:
                        fracs.append((im, i, j, c.im.denominator))
            out[j] = n
            if d != 1:
                fracs.append((re, i, j, d))
    if len(set(map(len, rows))) > 1:
        raise DimensionMismatch("ragged rows")
    if not fracs:
        return re, im, [1] * n_rows if per_row else 1
    if per_row:
        dens = [1] * n_rows
        for _, i, _, d in fracs:
            dens[i] = math.lcm(dens[i], d)
        scale = dens
    else:
        den = math.lcm(*[f[3] for f in fracs])
        scale = [den] * n_rows
    for grid in (re, im) if im is not None else (re,):
        for i, row in enumerate(grid):
            s = scale[i]
            if s != 1:
                grid[i] = [x * s for x in row] if any(row) else row
    for grid, i, j, d in fracs:
        grid[i][j] //= d
    return re, im, scale if per_row else den


def _int_rows(rows, per_row=False) -> tuple:
    """:func:`_read_ints` of a list of row lists, or MalformedInput naming
    the first entry that does not read as a number."""
    try:
        return _read_ints(rows, per_row)
    except _READ_ERRORS:
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                try:
                    _read_ints([[e]])
                except _READ_ERRORS as exc:
                    raise MalformedInput(f"entry ({i}, {j}) = {e!r} is not an exact number: {exc}") from None
        raise


def _read_nonzero(mats, dens=None) -> tuple:
    """The nonzero entries of the matrices ``mats`` (lists of row lists),
    each read as :func:`_read_ints` reads it, in one pass: (rows, den,
    real, shapes).  ``rows`` holds (i, u, [(v, re, im), ...]) for each
    nonzero row u of matrix i in order, re and im the integer numerators of
    entry (u, v) over den, the lcm of every part's own denominator; ``real``
    says whether every im is zero, and ``shapes`` is the set of the
    matrices' (rows, cols).  A "0" entry is skipped unread.  With ``dens``
    the entries of matrix i are numerators over dens[i], as a Mat's grids
    hold them.  An entry that does not read as a number raises the
    MalformedInput of :func:`_int_rows` naming it, and ragged rows
    DimensionMismatch."""
    raw, shapes, ds, real = [], set(), set(dens or ()), True
    for i, rows in enumerate(mats):
        dk = 1 if dens is None else dens[i]
        try:
            for u, row in enumerate(rows):
                entries = []
                for v, e in enumerate(row):
                    t = type(e)
                    if t is str or t is int:
                        if e == "0" or e == 0:
                            continue
                        (n, d), (bn, bd) = _ratio(e), (0, 1)
                    elif (t is list or t is tuple) and len(e) == 2:
                        a, b = e
                        n, d = (0, 1) if a == "0" else _ratio(a)
                        bn, bd = (0, 1) if b == "0" else _ratio(b)
                    else:
                        c = e if t is CRat else CRat.coerce(e)
                        n, d, bn, bd = c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator
                    if n or bn:
                        d, bd = d * dk, bd * dk
                        ds.update((d, bd))
                        real = real and not bn
                        entries.append((v, n, d, bn, bd))
                if entries:
                    raw.append((i, u, entries))
        except _READ_ERRORS:
            _int_rows(rows)
            raise
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("ragged rows")
        shapes.add((len(rows), len(rows[0]) if rows else 0))
    den = math.lcm(*ds)
    out = [(i, u, [(v, n * (den // d), bn * (den // bd)) for v, n, d, bn, bd in es]) for i, u, es in raw]
    return out, den, real, shapes


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
        _set_num_re(self, num_re)
        _set_num_im(self, num_im)
        _set_den(self, den)
        _set_rows(self, num_re.shape[0])
        _set_cols(self, num_re.shape[1])
        _set_key(self, None)
        _set_real(self, _real)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_rows(rows) -> "Mat":
        """Build from nested entries: ints, Fractions, CRats, floats, complex
        numbers, rational strings ("p/q", "0.5", "1e-3", ...) and [re, im]
        pairs of the real forms, exactly as :meth:`CRat.coerce` reads them,
        through the integer rows of :func:`_int_rows`.  An entry that does
        not read as a number raises MalformedInput."""
        re, im, den = _int_rows([list(row) for row in rows])
        if not re or not re[0]:
            return Mat.zeros(len(re), 0 if not re else len(re[0]))
        return _rows_over(den, re, im, reduced=True)

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

    def __getitem__(self, idx):
        sub_re = self.num_re[idx]
        sub_im = self.num_im[idx]
        if sub_re.ndim == 1:
            sub_re = sub_re.reshape(-1, 1)
            sub_im = sub_im.reshape(-1, 1)
        return Mat(sub_re.copy(), sub_im.copy(), self.den, _real=self._real or None)

    # ------------------------------------------------------------------
    # arithmetic

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
        s = CRat.coerce(scalar)
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
            _set_real(self, not any(self.num_im.flat))
        return self._real

    def is_zero(self) -> bool:
        return not self.num_re.any() and self.is_real()

    def is_square(self) -> bool:
        return self.rows == self.cols

    # grids compare as nested lists: on the small object grids of the
    # lattice work tolist() and == cost a fifth of np.array_equal
    def is_hermitian(self) -> bool:
        return (
            self.is_square()
            and self.num_re.tolist() == self.num_re.T.tolist()
            and self.num_im.tolist() == (-self.num_im.T).tolist()
        )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.den == other.den
            and self.rows == other.rows
            and self.cols == other.cols
            and self.num_re.tolist() == other.num_re.tolist()
            and self.num_im.tolist() == other.num_im.tolist()
        )

    def key(self):
        """Hashable canonical key (entries are normalized at construction)."""
        if self._key is None:
            _set_key(self, (self.rows, self.cols, self.den, tuple(self.num_re.flat), tuple(self.num_im.flat)))
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


# the slots' own descriptors set them past the guard of Mat.__setattr__, at
# about half the cost of object.__setattr__
_set_num_re, _set_num_im, _set_den, _set_rows, _set_cols, _set_key, _set_real = (
    Mat.__dict__[name].__set__ for name in Mat.__slots__
)


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


def mat_power(m: Mat, k: int) -> Mat:
    """m^k for a square m, by repeated squaring."""
    result = None
    while k:
        if k & 1:
            result = m if result is None else result @ m
        k >>= 1
        if k:
            m = m @ m
    return Mat.eye(m.rows) if result is None else result


# ----------------------------------------------------------------------
# fraction-free elimination on plain integers: a complex matrix is
# eliminated on the integer rows of its realification


def _echelon_int(rows, width):
    """In-place Bareiss elimination of integer rows; returns the list of
    (row, col) pivots.

    Every division in the update (piv * a - t * b, divided by the previous
    pivot) is exact, so entries stay integers with single-minor growth.
    Rows that are or become zero can never hold a pivot and are dropped
    from the list, and entries that are zero in both the pivot row and the
    updated row are left untouched.  A complex matrix takes this kernel on
    its realified rows (:func:`_realified`).  :func:`_jordan_pass` finishes
    the reduced form.
    """
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
        for i in range(r + 1, nrows):
            row_i = rows[i]
            t = row_i[c]
            if not t and p == prev:
                # piv / prev = 1 and nothing to subtract: the row stays as it is
                kept.append(row_i)
                continue
            row_i[c] = 0
            nonzero = False
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
            if nonzero:
                kept.append(row_i)
        rows[:] = kept
        pivots.append((r, c))
        prev = p
        r += 1
    return pivots


def _jordan_pass(rows, pivots):
    """The rest of a fraction-free Gauss-Jordan elimination, in place, on
    the rows and pivots that :func:`_echelon_int` left: pivot by pivot, the
    same update on the rows above it.  A pivot row is final once its own
    step is done, so this gives the rows of a Gauss-Jordan pass that
    updates the rows above each pivot at its step: every entry stays a
    minor, so the divisions stay exact, and each pivot row ends with the
    last pivot D at its own pivot column and zero at the others, i.e. the
    rows are D times the reduced row echelon form."""
    prev = 1
    for r, c in pivots:
        row_r = rows[r]
        p = row_r[c]
        for row_i in rows[:r]:
            t = row_i[c]
            if not t and p == prev:
                continue
            # entry c becomes p t - t p = 0; left of c the pivot row is zero
            for j in range(len(row_r)):
                b = row_r[j]
                if b:
                    row_i[j] = (p * row_i[j] - t * b) // prev
                else:
                    a = row_i[j]
                    if a:
                        row_i[j] = p * a // prev
        prev = p


def _realified(rows_re, rows_im) -> list:
    """The integer rows of the realification C^n = R^2n, columns
    interleaved, of the complex rows a + ib: (a_0, b_0, a_1, b_1, ...) and
    its i-multiple (-b_0, a_0, -b_1, a_1, ...), for each row.

    Their real row space is the realification of the complex one.  If R_k
    are the rows of the complex reduced form, with pivots p_k, then the
    rows R_k and i R_k, with pivots 2 p_k and 2 p_k + 1, are a real reduced
    form of that space, so they are its reduced form: the real rank is
    twice the complex one, and the even rows of the real form are the
    complex form, interleaved.  As an operator on R^2n the rows are the
    real matrix of conj(a + ib)."""
    out = []
    for a, b in zip(rows_re, rows_im):
        row, i_row = [0] * (2 * len(a)), [0] * (2 * len(a))
        row[0::2], row[1::2] = a, b
        i_row[0::2], i_row[1::2] = [-x for x in b], a
        out += (row, i_row)
    return out


def _rows_over(d, rows_re, rows_im=None, reduced=False) -> Mat:
    """The Mat of integer rows over the nonzero integer d, real when
    ``rows_im`` is None, normalized by one gcd of d and every entry unless
    the caller says they are ``reduced`` (``Mat`` moves a sign of d into
    the rows)."""
    g = 1 if reduced else math.gcd(d, *itertools.chain.from_iterable(rows_re if rows_im is None else rows_re + rows_im))
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


def _one_row(a, b):
    """The reduced form of the one complex row a + ib, as :func:`_rref_int`
    gives it: the row divided by its first nonzero entry c = a_j + i b_j,
    i.e. times conj(c) over |c|^2."""
    j = next(j for j, (x, y) in enumerate(zip(a, b)) if x or y)
    cr, ci = a[j], b[j]
    re = [x * cr + y * ci for x, y in zip(a, b)]
    im = [y * cr - x * ci for x, y in zip(a, b)]
    return (j,), (cr * cr + ci * ci, [re], [im])


def _rref_int(grids, width) -> tuple:
    """The reduced row echelon form over Q(i) of the integer rows ``grids``
    (the real rows, and for a complex matrix the imaginary ones too, each
    row read up to scale) as (pivots, form): form is None when the reduced
    form is the unit rows of the pivots, else (d, rows_re, rows_im) for
    :func:`_rows_over`, rows_im None when real.  The rows are consumed.

    When every row holds at most one nonzero entry, real or complex, the
    row space is spanned by the unit vectors e_j of the columns j of those
    entries (span{c e_j} = span{e_j} for c != 0), so the reduced form is
    the unit rows of those columns, sorted, and nothing is eliminated; it
    is unique, so this is the form the elimination would reach.  Complex
    rows with one nonzero row reduce to that row over its first nonzero
    entry (:func:`_one_row`).  Otherwise the real rows, or the realified
    rows of complex ones (:func:`_realified`), take one fraction-free
    forward pass (:func:`_echelon_int`).  A pivot in every column means the
    reduced form is the identity; else the Gauss-Jordan pass
    (:func:`_jordan_pass`) leaves D times the reduced form, D the last
    pivot, and of realified rows the even ones are kept and
    de-interleaved.  Zero rows are dropped, so the form has one row per
    pivot."""
    cols = _unit_columns(grids, width)
    if cols is not None:
        return tuple(cols), None
    # some row holds two nonzero entries, so there is at least one pivot
    real = len(grids) == 1
    if real:
        rows, w = grids[0], width
    else:
        live = [(a, b) for a, b in zip(*grids) if any(a) or any(b)]
        if len(live) == 1:
            return _one_row(*live[0])
        rows, w = _realified(*grids), 2 * width
    pivots = _echelon_int(rows, w)
    if len(pivots) == w:
        # a pivot in every column: the reduced form is the identity
        return tuple(range(width)), None
    _jordan_pass(rows, pivots)
    d = rows[-1][pivots[-1][1]]
    if real:
        return tuple(c for _, c in pivots), (d, rows, None)
    # the even rows are D R_k, R_k the rows of the complex reduced form
    kept = rows[::2]
    return tuple(c // 2 for _, c in pivots[::2]), (d, [row[0::2] for row in kept], [row[1::2] for row in kept])


def rref(m: Mat):
    """Reduced row echelon form of m over Q(i), and its pivot columns: the
    integer kernel :func:`_rref_int` on m's numerator rows, its result
    built as a Mat with one division by D and one gcd over the integer rows
    (:func:`_rows_over`), or as the unit rows of the pivots.  The reduced
    form is unique for the row space, and its entries are normalized, so
    equal row spaces give equal results."""
    grids = (m.num_re.tolist(),) if m.is_real() else (m.num_re.tolist(), m.num_im.tolist())
    pivots, form = _rref_int(grids, m.cols)
    return (_unit_rows(pivots, m.cols) if form is None else _rows_over(*form)), pivots


def rank(m: Mat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.is_real():
        return len(_echelon_int(m.num_re.tolist(), m.cols))
    return len(_echelon_int(_realified(m.num_re.tolist(), m.num_im.tolist()), 2 * m.cols)) // 2


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


def solve(a: Mat, b: Mat) -> Mat:
    """Exact solution of a x = b for square nonsingular a.

    One Bareiss elimination (:func:`_echelon_int`) of the augmented integer
    system [a | b], then a fraction-free back substitution for all columns
    of b at once: the unknowns are scaled by the last pivot D (the
    determinant of the row-permuted integer system), so they are Cramer
    numerators and every step divides exactly, and the result is built
    once over the denominator D den(b).  The inverse of a is never formed.
    A complex system (P + iQ)(X + iY) = B + iC is solved as the real system
    [[P, -Q], [Q, P]] on the unknowns X_0, Y_0, X_1, Y_1, ..., the realified
    rows of P - iQ (:func:`_realified`) against the rows B_k, C_k.
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
    rhs = (b.num_re * a.den).tolist()
    if real:
        rows = a.num_re.tolist()
    else:
        rows = _realified(a.num_re.tolist(), (-a.num_im).tolist())
        rhs = [r for pair in zip(rhs, (b.num_im * a.den).tolist()) for r in pair]
    for row, r in zip(rows, rhs):
        row.extend(r)
    size = len(rows)
    pivots = _echelon_int(rows, size + k)
    if len(pivots) < size or any(c >= size for _, c in pivots[:size]):
        raise SingularMatrix(f"matrix of rank {rank(a)} < {n}")
    d = rows[size - 1][size - 1]
    y = [None] * size
    for r in range(size - 1, -1, -1):
        row = rows[r]
        acc = [x * d for x in row[size:]]
        for t in range(r + 1, size):
            e = row[t]
            if e:
                acc = [u - v * e for u, v in zip(acc, y[t])]
        p = row[r]
        y[r] = [u // p for u in acc]
    # x = y / D / den(b)
    if real:
        return _rows_over(d * b.den, y)
    return _rows_over(d * b.den, y[0::2], y[1::2])


def psd_rank(m: Mat) -> int | None:
    """The rank of m when m is Hermitian positive semidefinite, else None;
    exact: :func:`_psd_rank_rows` on m's numerator rows (the positive
    denominator changes neither)."""
    return _psd_rank_rows(m.num_re.tolist(), None if m.is_real() else m.num_im.tolist())


def _psd_rank_rows(re, im) -> int | None:
    """The rank of the integer matrix re + i im (im None when real) when it
    is Hermitian positive semidefinite, else None; the rows are consumed.

    A fraction-free symmetric Bareiss sweep (the Schur complement sweep
    scaled by the last pivot, so every division is exact and by a positive
    integer): a negative pivot is a certificate of failure, and a zero
    pivot forces its whole row to vanish.  It runs on the Gaussian integers
    a + ib as pairs of integer rows: entry (i, j) becomes (p a_ij -
    conj(a_ki) a_kj) / prev, a minor of the matrix, so a Gaussian integer,
    and prev is a leading principal minor of a Hermitian matrix, so a real
    integer that divides both parts.  The diagonal stays real.  A positive
    pivot leaves the Schur complement of a rank one lower, and a vanishing
    row drops out, so the rank is the number of positive pivots.  Only the
    upper triangle is read and updated.
    """
    if re != [list(col) for col in zip(*re)]:
        return None
    if im is not None and im != [[-x for x in col] for col in zip(*im)]:
        return None
    n = len(re)
    prev = 1
    positive = 0
    for k in range(n):
        row_k = re[k]
        p = row_k[k]
        if p < 0:
            return None
        if p == 0:
            if any(row_k[k + 1 :]) or im is not None and any(im[k][k + 1 :]):
                return None
            continue
        positive += 1
        if im is None:
            for i in range(k + 1, n):
                row_i = re[i]
                # a_ik = a_ki; the upper triangle is updated, a_ij for j >= i
                c = row_k[i]
                if p == prev and not c:
                    continue
                for j in range(i, n):
                    row_i[j] = (p * row_i[j] - c * row_k[j]) // prev
        else:
            imag_k = im[k]
            for i in range(k + 1, n):
                row_i, imag_i = re[i], im[i]
                # conj(a_ki) = c + id
                c, d = row_k[i], -imag_k[i]
                if p == prev and not c and not d:
                    continue
                for j in range(i, n):
                    a, b = row_k[j], imag_k[j]
                    row_i[j] = (p * row_i[j] - c * a + d * b) // prev
                    imag_i[j] = (p * imag_i[j] - c * b - d * a) // prev
        prev = p
    return positive


def is_psd(m: Mat) -> bool:
    """Exact positive-semidefiniteness test for a Hermitian matrix: the
    sweep of :func:`psd_rank` meets no certificate of failure."""
    return psd_rank(m) is not None


# ----------------------------------------------------------------------
# the peripheral spectrum, exactly: the characteristic polynomial, gcds of
# integer polynomials and the period of the roots of unity
#
# A polynomial is the list of its coefficients, that of z^k at index k.


def _to_column(a, d, i, h):
    """After row i of the matrix with entries a[r][j] / d[j] was divided by
    h: the rest of the diagonal similarity, column i times h, taken from
    d[i] as far as h divides it."""
    g = math.gcd(h, d[i])
    d[i] //= g
    f = h // g
    if f > 1:
        for row in a:
            if row[i]:
                row[i] *= f


def _hessenberg_int(a, d):
    """Reduce the real matrix with entries a[i][j] / d[j] to a similar upper
    Hessenberg one of the same form, in place: ``a`` is a list of integer
    rows, ``d`` the positive column denominators.  A channel, complex or
    not, comes here as its real matrix in a Hermitian operator basis
    (:meth:`superop.SuperOp.hermitian_rep`).

    Column k's pivot is its first nonzero entry below the diagonal, swapped
    to row k + 1 (with column k + 1); each other nonzero entry t of the
    column, in row i, is cleared by the similarity of row i -= (t/p) row
    k + 1, column k + 1 += (t/p) column i, p the pivot, with t/p = w/q in
    lowest terms (q > 0).  Followed by the diagonal similarity that scales
    row i by q and column i by 1/q, the row operation is row i = q row i -
    w row k + 1 on integers, the column's denominator becomes q d[i], and
    the column operation becomes column k + 1 += w column i on the values
    a[.][j] / d[j], done over the lcm of the two denominators.  So a step
    touches only the rows it clears and column k + 1, as over Q, and no
    rational is formed; zero entries are skipped as there.  Unchecked, the
    factors q pile up in the rows and the denominators and the integers
    grow exponentially on dense input; so each cleared row is divided by
    its content h, with the similarity's other half, column i times h,
    taken out of d[i] (:func:`_to_column`)."""
    n = len(a)
    for k in range(n - 2):
        for piv in range(k + 1, n):
            if a[piv][k]:
                break
        else:
            continue
        c = k + 1
        if piv != c:
            a[piv], a[c] = a[c], a[piv]
            for row in a:
                row[piv], row[c] = row[c], row[piv]
            d[piv], d[c] = d[c], d[piv]
        row_p = a[c]
        p = row_p[k]
        for i in range(k + 2, n):
            row_i = a[i]
            t = row_i[k]
            if not t:
                continue
            g = math.gcd(p, t)
            q, w = (p // g, t // g) if p > 0 else (-p // g, -t // g)
            row_i[k] = 0
            for j in range(c, n):
                b = row_p[j]
                if b:
                    row_i[j] = q * row_i[j] - w * b
                elif q != 1 and row_i[j]:
                    row_i[j] *= q
            di = d[i] = d[i] * q
            dc = d[c]
            g = math.gcd(dc, di)
            sc, w = di // g, w * (dc // g)
            d[c] = dc * sc
            for row in a:
                x = row[i]
                if x:
                    row[c] = row[c] * sc + w * x
                elif sc != 1 and row[c]:
                    row[c] *= sc
            h = math.gcd(*row_i)
            if h > 1:
                a[i] = [x // h for x in row_i]
                _to_column(a, d, i, h)


def _hessenberg_det_int(h, d) -> list:
    """det(z diag(d) - h) for the real upper Hessenberg integer rows h, as
    a primitive integer polynomial with a positive leading coefficient: a
    positive integer multiple of the characteristic polynomial of the
    matrix with entries h[i][j] / d[j].

    Expanding along the last column gives p_{k+1} = (z d_k - h_kk) p_k -
    sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_i, on integers.  A zero
    subdiagonal entry h_{s,s-1} cuts the sum off below s, so p_s is divided
    by its content there and the recurrence goes on from it alone; a
    diagonal block of one zero entry only adds a root 0, counted apart."""
    n, zeros, s, polys = len(h), 0, 0, [[1]]
    for k in range(n):
        if k > s and not h[k][k - 1]:
            p = polys[-1]
            g = math.gcd(*p)
            s, polys = k, [[y // g for y in p]]
        x = h[k][k]
        if k == s and not x and (k + 1 == n or not h[k + 1][k]):
            zeros, s = zeros + 1, k + 1
            continue
        prev = polys[-1]
        new = [0] + [d[k] * y for y in prev]
        if x:
            for j, y in enumerate(prev):
                new[j] -= x * y
        t = 1
        for i in range(k - 1, s - 1, -1):
            t *= h[i + 1][i]
            x = h[i][k]
            if x:
                f = x * t
                for j, y in enumerate(polys[i - s]):
                    new[j] -= f * y
        polys.append(new)
    p = polys[-1]
    g = math.gcd(*p)
    return [0] * zeros + [y // g for y in p]


def _charpoly_int(a, den) -> list:
    """det(z den I - a) over its content, for the square integer rows a:
    a positive integer multiple of the characteristic polynomial of a / den
    with a positive leading coefficient.  ``a`` is reduced in place, as the
    matrix with entries a[i][j] / d[j], d = den in every column, to an upper
    Hessenberg H = N_H diag(d)^-1 (:func:`_hessenberg_int`), and
    det(z diag(d) - N_H) is prod(d) times the characteristic polynomial."""
    d = [den] * len(a)
    _hessenberg_int(a, d)
    return _hessenberg_det_int(a, d)


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


def _peripheral_period(m: Mat, bound: int) -> tuple:
    """(k, b) for a channel's real matrix m in the Hermitian operator basis
    (:meth:`superop.SuperOp.hermitian_rep`, or a product of them): the
    number k of its eigenvalues of modulus one, with multiplicity, and the
    least b <= ``bound`` with lambda^b = 1 for each of them, exactly.

    The characteristic polynomial p of m, as the primitive integer
    polynomial of :func:`_charpoly_int` on m's numerators, is real, and the
    eigenvalues lie in the closed unit disk, so g = gcd(p, z^n p(1/z)) has
    exactly the unimodular ones as its roots: k = deg g.  For p = z^s q with
    q(0) != 0, z^n p(1/z) is z^(n-s) q(1/z), which z does not divide, so
    g = gcd(q, z^(n-s) q(1/z)): both gcds run on q, whose degree is at most
    the rank of m.  If the monic g is not in Z[z], a root of g is no
    algebraic integer, so no root of unity; otherwise every root is one
    (Kronecker), and b is the least b with sqf(g) | z^b - 1.  Either
    failure raises UncertifiedPeriod with its reason.
    """
    return _polynomial_period(_charpoly_int(m.num_re.tolist(), m.den), bound)


def _polynomial_period(p: list, bound: int) -> tuple:
    """(k, b) of :func:`_peripheral_period` for an integer polynomial p,
    lowest degree first, with its roots in the closed unit disk: a channel's
    characteristic polynomial, or the minimal polynomial of an orbit."""
    q = p[next(s for s, c in enumerate(p) if c):]
    g = _gcd(q, q[::-1])
    if len(g) == 1:
        return 0, 1
    if g[-1] != 1:
        raise UncertifiedPeriod(
            f"a peripheral eigenvalue is not a root of unity and has no finite order: the factor of "
            f"degree {len(g) - 1} of the polynomial over the unit circle is not in Z[z]"
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
