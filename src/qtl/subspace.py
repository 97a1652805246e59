"""Closed subspaces in reduced row echelon form, and canonical finite unions
of them.

A subspace of C^n is held as the reduced row echelon form (RREF) over Q(i)
of a basis written as rows: its rows, read as column vectors, are a basis,
and its pivot columns carry the identity.  The RREF of a subspace is
unique, so it decides the key, the hash and the equality.  Containment compares
each row of the other basis with its pivot-column combination of the RREF
rows, on the integer grids, and the orthocomplement is read off the free
columns, so no projector is formed; :attr:`Subspace.projector`
builds one on first use for the callers that need an operator.
Orthonormalization is avoided because it would leave the rational field.

Most subspaces a program builds are coordinate subspaces, spanned by unit
vectors e_j.  The RREF of one is the unit rows e_p of its pivots p, and
the RREF is unique, so the pivot set alone decides it, exactly: a
coordinate subspace is built from its pivots (rows None), its RREF is made
only when read, and its key, hash and equality are its pivots, also for
one reached by elimination.  Zero, the whole space, the complement (the
free columns) and the meet (the common pivots) of coordinate subspaces
are pivot sets again, and one contains another exactly when its pivots
include the other's (:func:`rref` likewise returns unit rows, with no
elimination, for rows that each hold one nonzero entry).
:meth:`Subspace.is_coordinate` reads the denominator first, so a dense
subspace pays next to nothing for the test.

A subspace read from a file (:meth:`Subspace.from_vectors` on entry
lists) goes from the integer rows of its vectors, each at its own scale,
straight to the RREF kernel, or, when every vector holds one nonzero
entry, to its pivot set, with no grid formed.

Unions are kept in a canonical form where no member contains another.  A
subspace contained in a finite union of subspaces lies inside one of the
members (the ambient field is infinite), which is what makes membership and
equality of unions decidable member-wise.  The members are sorted by
dimension and RREF key, the key written from the pivots where no RREF was
made.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositive
from .linalg import Mat, _int_rows, _perp_rows, _rows_over, _rref_int, _unit_rows, is_psd, rref, solve


class Subspace:
    """A closed linear subspace of C^n, held as the RREF of a basis, or, for
    a coordinate subspace, as its pivots alone until the RREF is read."""

    __slots__ = ("ambient_dim", "_rref", "pivots", "_complement", "_projector", "_coordinate")

    def __init__(self, ambient_dim: int, rows: Mat | None, _pivots: tuple | None = None):
        """The span of the rows of ``rows``, each read as a column vector;
        with ``_pivots`` the rows are already the RREF with those pivots,
        and with rows None as well the subspace is the coordinate subspace
        on those (sorted) pivots."""
        if rows is not None:
            if rows.cols != ambient_dim:
                raise DimensionMismatch("basis does not live in the stated ambient space")
            if _pivots is None:
                rows, _pivots = rref(rows)
        _set_ambient_dim(self, ambient_dim)
        _set_rref(self, rows)
        _set_pivots(self, _pivots)
        _set_complement(self, None)
        _set_projector(self, None)
        _set_coordinate(self, True if rows is None else None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        """Span of the given column vectors (column ``Mat``s or entry
        lists).  The entry lists are read as integer rows, each vector over
        its own scale (:func:`linalg._int_rows`), and go with the
        numerators of the columns to the RREF kernel (:func:`_rref_int`):
        rows that each hold one nonzero entry give the coordinate subspace
        of their columns, with no grid formed."""
        vectors = list(vectors)
        columns = [v for v in vectors if isinstance(v, Mat)]
        re, im, _ = _int_rows([list(v) for v in vectors if not isinstance(v, Mat)], per_row=True)
        if re and len(re[0]) != ambient_dim or any(v.cols != 1 or v.rows != ambient_dim for v in columns):
            raise DimensionMismatch("vector does not live in the ambient space")
        if columns:
            real = im is None and all(v.is_real() for v in columns)
            if not real:
                im = [v.num_im[:, 0].tolist() for v in columns] + (im or [[0] * ambient_dim for _ in re])
            re = [v.num_re[:, 0].tolist() for v in columns] + re
        if not re:
            return Subspace.zero(ambient_dim)
        pivots, form = _rref_int((re,) if im is None else (re, im), ambient_dim)
        return Subspace(ambient_dim, None if form is None else _rows_over(*form), pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, None, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, None, tuple(range(ambient_dim)))

    # ------------------------------------------------------------------

    @property
    def rref(self) -> Mat:
        """The RREF rows; for a coordinate subspace built from its pivots,
        the unit rows of the pivots, made on first use and cached."""
        if self._rref is None:
            _set_rref(self, _unit_rows(self.pivots, self.ambient_dim))
        return self._rref

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def projector(self) -> Mat:
        """The orthogonal projector B (B†B)^-1 B† with B = rref^T, computed
        as B solve(B†B, B†) on first use and cached."""
        if self._projector is None:
            b, b_dag = self.rref.transpose(), self.rref.conj()
            _set_projector(self, b @ solve(b_dag @ b, b_dag))
        return self._projector

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def is_coordinate(self) -> bool:
        """Spanned by unit vectors e_p, i.e. the RREF is the unit rows of the
        pivots: real, over denominator 1, and nonzero at the pivots only;
        read on first use and cached."""
        if self._coordinate is None:
            r = self.rref
            coordinate = r.den == 1 and r.is_real() and int(np.count_nonzero(r.num_re)) == self.dim
            _set_coordinate(self, coordinate)
        return self._coordinate

    def contains(self, other: "Subspace") -> bool:
        """Subspace inclusion other <= self, decided exactly; the pivots are
        the leading columns of the vectors, so other's lie among self's, and
        for two coordinate subspaces that decides it."""
        self._check_ambient(other)
        if not set(other.pivots).issubset(self.pivots):
            return False
        if self.is_coordinate() and other.is_coordinate():
            return True
        if other.dim == self.dim:
            return other.rref == self.rref
        return self._spans(other.rref)

    def _spans(self, rows: Mat) -> bool:
        """Every row of ``rows``, read as a vector, lies in the subspace: it
        equals its pivot-column entries times the RREF rows.  On the integer
        grids, with M / e the RREF and p_k its pivots, that is
        e n = sum_k n[p_k] M_k for each row n; it holds at the pivot columns,
        so only the free columns are compared, row by row, up to the first
        row that differs."""
        if self.is_full():
            return True
        e, pivots = self.rref.den, self.pivots
        free = [j for j in range(self.ambient_dim) if j not in pivots]
        basis = list(zip(self.rref.num_re.tolist(), self.rref.num_im.tolist()))
        for n_re, n_im in zip(rows.num_re.tolist(), rows.num_im.tolist()):
            coefs = [(n_re[p], n_im[p], *m) for p, m in zip(pivots, basis) if n_re[p] or n_im[p]]
            for j in free:
                s_re, s_im = e * n_re[j], e * n_im[j]
                for a, b, m_re, m_im in coefs:
                    c, d = m_re[j], m_im[j]
                    s_re -= a * c - b * d
                    s_im -= a * d + b * c
                if s_re or s_im:
                    return False
        return True

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection: the vectors y R of one side (R its RREF) orthogonal
        to the other's complement C, i.e. y in the complement of the rows of
        C R†.  With Y the RREF of those y, Y R is in RREF, with R's pivots.
        Two coordinate subspaces meet in the unit rows of their common
        pivots."""
        self._check_ambient(other)
        if self.dim == 0 or other.is_full():
            return self
        if other.dim == 0 or self.is_full():
            return other
        if self.is_coordinate() and other.is_coordinate():
            theirs = set(other.pivots)
            common = tuple(p for p in self.pivots if p in theirs)
            # a side that the other contains is the meet, caches and all
            if common == self.pivots:
                return self
            if common == other.pivots:
                return other
            return Subspace(self.ambient_dim, None, common)
        # b's complement is the one used: prefer a side that has it cached
        a, b = (other, self) if other._complement is None and self._complement is not None else (self, other)
        g = b.complement().rref @ a.rref.dagger()
        if g.is_zero():
            return a
        y = Subspace(a.dim, _perp_rows(*rref(g)))
        return Subspace(self.ambient_dim, y.rref @ a.rref, tuple(a.pivots[q] for q in y.pivots))

    def join(self, other: "Subspace") -> "Subspace":
        """Span of both: the RREF of the stacked rows."""
        self._check_ambient(other)
        if self.dim == 0 or other.is_full():
            return other
        if other.dim == 0 or self.is_full():
            return self
        return Subspace(self.ambient_dim, self.rref.vstack(other.rref))

    def complement(self) -> "Subspace":
        """Orthocomplement, read off the free columns (:func:`_perp_rows`), or
        for a coordinate subspace (zero and C^n among them) the unit rows of
        the free columns; cached both ways, as the complement of the
        complement is self."""
        if self._complement is None:
            n = self.ambient_dim
            if self.is_coordinate():
                taken = set(self.pivots)
                free = tuple(j for j in range(n) if j not in taken)
                perp = Subspace(n, None, free)
            else:
                perp = Subspace(n, _perp_rows(self.rref, self.pivots))
            _set_complement(perp, self)
            _set_complement(self, perp)
        return self._complement

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.pivots != other.pivots:
            return False
        # the RREF is unique, so the pivots decide two coordinate subspaces
        if self.is_coordinate() and other.is_coordinate():
            return True
        return self.rref == other.rref

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """The pivots of a coordinate subspace, else the key of the RREF:
        unique to the subspace either way."""
        if self.is_coordinate():
            return self.ambient_dim, self.pivots
        return self.rref.key()

    def _rref_key(self):
        """The key of the RREF, written from the pivots for a coordinate
        subspace whose RREF has not been made."""
        if self._rref is not None:
            return self._rref.key()
        n, dim = self.ambient_dim, self.dim
        flat = [0] * (dim * n)
        for k, p in enumerate(self.pivots):
            flat[k * n + p] = 1
        return dim, n, 1, tuple(flat), (0,) * (dim * n)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"


# the slots' own descriptors set them past the guard of __setattr__, at
# about half the cost of object.__setattr__
_set_ambient_dim, _set_rref, _set_pivots, _set_complement, _set_projector, _set_coordinate = (
    Subspace.__dict__[name].__set__ for name in Subspace.__slots__
)


def support(rho: Mat, validate: bool = True) -> Subspace:
    """Column space of a positive semidefinite matrix (its support).

    With ``validate`` the input is checked to be Hermitian PSD in exact
    arithmetic and NotPositive is raised otherwise.
    """
    if not rho.is_square():
        raise DimensionMismatch("support needs a square matrix")
    if validate and not is_psd(rho):
        raise NotPositive("matrix has a negative direction or is not Hermitian")
    return Subspace(rho.rows, rho.transpose())


def satisfies(rho: Mat, p: Subspace) -> bool:
    """Exact satisfaction: the support of rho lies inside p, i.e. every
    column of rho reduces to zero against the pivot rows of p."""
    if rho.rows != p.ambient_dim:
        raise DimensionMismatch("state and proposition live in different spaces")
    return p._spans(rho.transpose())


class SubspaceUnion:
    """A finite union of subspaces in canonical (antichain) form."""

    __slots__ = ("ambient_dim", "members")

    def __init__(self, ambient_dim: int, members, _canonical=False):
        members = list(members)
        for m in members:
            if m.ambient_dim != ambient_dim:
                raise DimensionMismatch("union member in wrong ambient space")
        if not _canonical:
            members = _canonical_members(ambient_dim, members)
        _set_union_dim(self, ambient_dim)
        _set_members(self, tuple(members))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceUnion is immutable")

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceUnion":
        return SubspaceUnion(ambient_dim, [Subspace.zero(ambient_dim)], _canonical=True)

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceUnion":
        return SubspaceUnion(ambient_dim, [Subspace.full(ambient_dim)], _canonical=True)

    def is_zero(self) -> bool:
        return len(self.members) == 1 and self.members[0].is_zero()

    def contains_subspace(self, s: Subspace) -> bool:
        """s lies inside the union, i.e. inside one of the members."""
        if s.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspace in wrong ambient space")
        return any(m.contains(s) for m in self.members)

    def subset_of(self, other: "SubspaceUnion") -> bool:
        return all(other.contains_subspace(m) for m in self.members)

    def meet(self, other: "SubspaceUnion") -> "SubspaceUnion":
        """Pointwise intersection: the canonical union of the pairwise meets.

        A member a of one side that lies inside a member b of the other is
        its meet with b, and every other meet of a lies inside a, so a is
        the one maximal meet of its row and enters the result as it is.
        Only the pairs where neither member is so contained are met, and
        of those not the pairs with a member a of dimension 1: its meet with
        b is a or 0, and a lies in no b, so it is 0, which the canonical
        form drops.  When every member of one side is contained, that
        operand is the answer (its canonical form is the union's)."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("union ambient mismatch")
        inside_other = [other.contains_subspace(a) for a in self.members]
        if all(inside_other):
            return self
        inside_self = [self.contains_subspace(b) for b in other.members]
        if all(inside_self):
            return other
        mine = [a for a, inside in zip(self.members, inside_other) if not inside and a.dim > 1]
        theirs = [b for b, inside in zip(other.members, inside_self) if not inside and b.dim > 1]
        kept = [a for a, inside in zip(self.members, inside_other) if inside]
        kept += [b for b, inside in zip(other.members, inside_self) if inside]
        return SubspaceUnion(self.ambient_dim, kept + [a.meet(b) for a in mine for b in theirs])

    def union(self, other: "SubspaceUnion") -> "SubspaceUnion":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("union ambient mismatch")
        return SubspaceUnion(self.ambient_dim, list(self.members) + list(other.members))

    def __eq__(self, other):
        # the maximal subspaces inside a union are its canonical members,
        # sorted by their unique keys, so equal unions have equal keys
        if not isinstance(other, SubspaceUnion):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return tuple(m.key() for m in self.members)

    def __repr__(self):
        dims = ", ".join(str(m.dim) for m in self.members)
        return f"SubspaceUnion(dims [{dims}] in C^{self.ambient_dim})"


_set_union_dim, _set_members = (SubspaceUnion.__dict__[name].__set__ for name in SubspaceUnion.__slots__)


def _canonical_members(ambient_dim, members):
    if len(members) == 1 and not members[0].is_zero():
        # one nonzero member is its own antichain: nothing to hash or sort
        return members
    members = [m for m in members if not m.is_zero()]
    if not members:
        return [Subspace.zero(ambient_dim)]
    # dedupe, then deterministic order so the subsumption sweep is stable
    members = sorted(set(members), key=lambda m: (m.dim, m._rref_key()))
    # distinct members of one dimension never contain each other, so each
    # is tested against the larger ones only
    return [
        m for i, m in enumerate(members)
        if not any(big.dim > m.dim and big.contains(m) for big in members[i + 1:])
    ]

