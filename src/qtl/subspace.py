"""Closed subspaces as exact projections, and canonical finite unions of them.

A subspace carries a (not necessarily orthonormal) rational basis together
with the cached projector B (B†B)^-1 B†, computed as B solve(B†B, B†) without
forming the inverse of the Gram matrix, which is the canonical
representative: two subspaces are equal exactly when their projectors are.
Orthonormalization is deliberately avoided because it would leave the
rational field.

Unions are kept in a canonical form where no member contains another.  A
subspace contained in a finite union of subspaces lies inside one of the
members (the ambient field is infinite), which is what makes membership and
equality of unions decidable member-wise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositive
from .linalg import Mat, kernel_basis, _echelon, _rows_as_pairs, is_psd, solve


def _empty_basis(ambient_dim: int) -> Mat:
    z = np.zeros((ambient_dim, 0), dtype=object)
    return Mat(z, z.copy(), 1, _normalized=True)


def _kernel_columns(m: Mat) -> Mat | None:
    """The vectors of :func:`kernel_basis` side by side; None when m is injective."""
    vectors = kernel_basis(m)
    if not vectors:
        return None
    kernel = vectors[0]
    for v in vectors[1:]:
        kernel = kernel.hstack(v)
    return kernel


def independent_columns(m: Mat) -> list:
    """Indices of a maximal linearly independent set of columns (leftmost)."""
    if m.cols == 0 or m.rows == 0:
        return []
    rows = _rows_as_pairs(m)
    return [c for _, c in _echelon(rows, m.cols)]


class Subspace:
    """A closed linear subspace of C^n, held as an exact basis + projector."""

    __slots__ = ("ambient_dim", "basis", "projector")

    def __init__(self, ambient_dim: int, basis: Mat, projector: Mat | None = None):
        if basis.rows != ambient_dim:
            raise DimensionMismatch("basis does not live in the stated ambient space")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        if projector is None:
            if basis.cols == 0:
                projector = Mat.zeros(ambient_dim)
            else:
                basis_dag = basis.dagger()
                projector = basis @ solve(basis_dag @ basis, basis_dag)
        object.__setattr__(self, "projector", projector)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        """Span of the given column vectors, reduced to a full-rank basis."""
        cols = []
        for v in vectors:
            col = v if isinstance(v, Mat) else Mat.column(v)
            if col.rows != ambient_dim or col.cols != 1:
                raise DimensionMismatch("vector does not live in the ambient space")
            if not col.is_zero():
                cols.append(col)
        if not cols:
            return Subspace.zero(ambient_dim)
        stacked = cols[0]
        for c in cols[1:]:
            stacked = stacked.hstack(c)
        return Subspace.column_space(stacked)

    @staticmethod
    def column_space(m: Mat) -> "Subspace":
        """Span of the columns of m; its leftmost independent columns are the basis."""
        keep = independent_columns(m)
        if not keep:
            return Subspace.zero(m.rows)
        return Subspace(m.rows, m[:, keep])

    @staticmethod
    def null_space(m: Mat) -> "Subspace":
        """Right null space of m, with the vectors of :func:`kernel_basis` as basis."""
        kernel = _kernel_columns(m)
        if kernel is None:
            return Subspace.zero(m.cols)
        return Subspace(m.cols, kernel)

    @staticmethod
    def from_projector(projector: Mat) -> "Subspace":
        keep = independent_columns(projector)
        if not keep:
            return Subspace.zero(projector.rows)
        return Subspace(projector.rows, projector[:, keep], projector)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, _empty_basis(ambient_dim), Mat.zeros(ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.eye(ambient_dim), Mat.eye(ambient_dim))

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, other: "Subspace") -> bool:
        """Subspace inclusion other <= self, decided exactly."""
        self._check_ambient(other)
        return (self.projector @ other.basis) == other.basis

    def contains_vector(self, v: Mat) -> bool:
        return (self.projector @ v) == v

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection: B1 x for the kernel vectors (x, y) of [B1 | -B2]."""
        self._check_ambient(other)
        if self.dim == 0 or other.is_full():
            return self
        if other.dim == 0 or self.is_full():
            return other
        kernel = _kernel_columns(self.basis.hstack(-other.basis))
        if kernel is None:
            return Subspace.zero(self.ambient_dim)
        # the kernel vectors are independent and B1 has full column rank
        return Subspace(self.ambient_dim, self.basis @ kernel[: self.dim, :])

    def join(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return Subspace.from_vectors(
            self.ambient_dim, self.basis.column_vectors() + other.basis.column_vectors()
        )

    def complement(self) -> "Subspace":
        """Orthocomplement: kernel of basis-dagger."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return Subspace.null_space(self.basis.dagger())

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.projector == other.projector

    def __hash__(self):
        return hash(self.projector.key())

    def key(self):
        return self.projector.key()

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"


def support(rho: Mat, validate: bool = True) -> Subspace:
    """Column space of a positive semidefinite matrix (its support).

    With ``validate`` the input is checked to be Hermitian PSD in exact
    arithmetic and NotPositive is raised otherwise.
    """
    if not rho.is_square():
        raise DimensionMismatch("support needs a square matrix")
    if validate and not is_psd(rho):
        raise NotPositive("matrix has a negative direction or is not Hermitian")
    return Subspace.column_space(rho)


def satisfies(rho: Mat, p: Subspace) -> bool:
    """Exact satisfaction: the support of rho lies inside p, i.e. P rho = rho."""
    if rho.rows != p.ambient_dim:
        raise DimensionMismatch("state and proposition live in different spaces")
    return (p.projector @ rho) == rho


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
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "members", tuple(members))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceUnion is immutable")

    @staticmethod
    def of(*subspaces) -> "SubspaceUnion":
        if not subspaces:
            raise ValueError("need at least one subspace (use zero(ambient) for false)")
        return SubspaceUnion(subspaces[0].ambient_dim, subspaces)

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
        """Pointwise intersection: canonical union of pairwise meets."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("union ambient mismatch")
        meets = [a.meet(b) for a in self.members for b in other.members]
        return SubspaceUnion(self.ambient_dim, meets)

    def union(self, other: "SubspaceUnion") -> "SubspaceUnion":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("union ambient mismatch")
        return SubspaceUnion(self.ambient_dim, list(self.members) + list(other.members))

    def __eq__(self, other):
        if not isinstance(other, SubspaceUnion):
            return NotImplemented
        return self.subset_of(other) and other.subset_of(self)

    def __hash__(self):
        # canonical members sorted by key, so the hash is extensional
        return hash(tuple(m.key() for m in self.members))

    def key(self):
        return tuple(m.key() for m in self.members)

    def __repr__(self):
        dims = ", ".join(str(m.dim) for m in self.members)
        return f"SubspaceUnion(dims [{dims}] in C^{self.ambient_dim})"


def _canonical_members(ambient_dim, members):
    members = [m for m in members if not m.is_zero()]
    if not members:
        return [Subspace.zero(ambient_dim)]
    # dedupe, then deterministic order so the subsumption sweep is stable
    members = sorted(set(members), key=lambda m: (m.dim, m.key()))
    kept = []
    for i, m in enumerate(members):
        if any(i != j and other.contains(m) for j, other in enumerate(members)):
            continue
        kept.append(m)
    return kept

