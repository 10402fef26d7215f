"""Abstract simplicial complexes: face enumeration, f/h-vectors, links, joins,
boundaries, and reduced homology over the two-element field.

A face is a tuple of vertex labels in sorted order; a complex is stored by
its facets and the downward closure is computed (and memoized) on demand.
Two degenerate complexes are distinguished: the void complex has no faces at
all, while the empty complex consists of the single face ().
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .polynomials import Polynomial, h_from_f

Face = tuple[str, ...]


class VoidComplexError(ValueError):
    """Raised when an operation requires at least the empty face."""


class NotPureError(ValueError):
    """Raised when an operation requires all facets to share one dimension."""


class RidgeInThreeFacetsError(ValueError):
    """Raised when a codimension-one face lies in more than two facets."""


def canonical_face(vertices: Iterable[str]) -> Face:
    face = tuple(sorted(set(vertices)))
    for v in face:
        if not isinstance(v, str):
            raise TypeError(f"vertex labels must be strings, got {type(v).__name__}")
    return face


def subsets(face: Face):
    """Every subset of a face, by size ascending and in combinations order."""
    for k in range(len(face) + 1):
        yield from combinations(face, k)


def gf2_rank(rows: list[int], pivots: dict[int, int] | None = None) -> int:
    """Rank over GF(2) of a matrix whose rows are given as integer bitmasks.

    Pivot-keyed (Edelsbrunner-Letscher-Zomorodian 2002): a row XORs only the
    pivot under its highest set bit, until it is zero or becomes a new pivot.
    An empty dict passed as ``pivots`` receives the pivots by highest bit.
    """
    pivots = {} if pivots is None else pivots
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


class SimplicialComplex:
    """Immutable simplicial complex stored by its facets."""

    __slots__ = ("facets", "_by_dim")

    def __init__(self, facets: Iterable[Iterable[str]]):
        canon = frozenset(canonical_face(f) for f in facets)
        by_size: dict[int, list[Face]] = {}
        for f in canon:
            by_size.setdefault(len(f), []).append(f)
        sizes = sorted(by_size)
        for i, size in enumerate(sizes):
            bigger = [set(g) for s in sizes[i + 1 :] for g in by_size[s]]
            if not bigger:
                continue
            for f in by_size[size]:
                fs = set(f)
                for g in bigger:
                    if fs <= g:
                        raise ValueError(f"facet {f} is contained in a larger facet")
        object.__setattr__(self, "facets", canon)
        object.__setattr__(self, "_by_dim", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_faces(cls, faces: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Build from any face family by keeping its inclusion-maximal members."""
        canon = {canonical_face(f) for f in faces}
        by_size: dict[int, set[Face]] = {}
        for f in canon:
            by_size.setdefault(len(f), set()).add(f)
        maximal: list[Face] = []
        for size in sorted(by_size, reverse=True):
            for f in sorted(by_size[size]):
                fs = set(f)
                if not any(fs <= set(g) for g in maximal):
                    maximal.append(f)
        return cls(maximal)

    # -- basic structure -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        """Dimension, or None for the void complex."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        if self.is_void:
            return True
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def faces_by_dim(self) -> dict[int, frozenset[Face]]:
        """All faces grouped by dimension, the empty face at dimension -1."""
        if self._by_dim is None:
            table: dict[int, set[Face]] = {}
            for facet in self.facets:
                for k in range(len(facet) + 1):
                    bucket = table.setdefault(k - 1, set())
                    for sub in combinations(facet, k):
                        bucket.add(sub)
            object.__setattr__(
                self, "_by_dim", {d: frozenset(fs) for d, fs in table.items()}
            )
        return self._by_dim

    def faces(self, dim: int) -> frozenset[Face]:
        return self.faces_by_dim().get(dim, frozenset())

    def all_faces(self) -> set[Face]:
        """Every face including the empty one (empty set for the void complex)."""
        out: set[Face] = set()
        for fs in self.faces_by_dim().values():
            out |= fs
        return out

    def nonempty_faces(self) -> set[Face]:
        return {f for f in self.all_faces() if f}

    def __contains__(self, face) -> bool:
        face = canonical_face(face)
        return face in self.faces(len(face) - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({sorted(self.facets)!r})"

    # -- enumerative invariants ------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_(dim)); errors on the void complex."""
        if self.is_void:
            raise VoidComplexError("void complex has no f-vector")
        by_dim = self.faces_by_dim()
        return tuple(len(by_dim.get(i, ())) for i in range(-1, self.dim + 1))

    def h_polynomial(self) -> Polynomial:
        """h-vector from the alternating binomial transform of the f-vector."""
        return h_from_f(self.f_vector())

    # -- constructions ----------------------------------------------------

    def link(self, face: Iterable[str]) -> "SimplicialComplex":
        face = canonical_face(face)
        if face not in self:
            raise ValueError(f"{face} is not a face")
        fs = set(face)
        return SimplicialComplex.from_faces(
            tuple(sorted(set(t) - fs)) for t in self.facets if fs <= set(t)
        )

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        mine, theirs = set(self.vertices), set(other.vertices)
        if mine & theirs:
            raise ValueError(f"vertex labels collide: {sorted(mine & theirs)}")
        return SimplicialComplex(
            tuple(sorted(a + b)) for a in self.facets for b in other.facets
        )

    def boundary(self) -> "SimplicialComplex":
        """Subcomplex generated by codimension-one faces lying in exactly one facet.

        Requires purity and that no such face lies in three or more facets
        (the pseudomanifold-with-boundary check happens here).  The result is
        void when the complex is closed.
        """
        if self.is_void or self.dim < 0:
            return VOID
        if not self.is_pure:
            raise NotPureError("boundary requires a pure complex")
        d = self.dim + 1
        counts: dict[Face, int] = {}
        for facet in self.facets:
            for ridge in combinations(facet, d - 1):
                counts[ridge] = counts.get(ridge, 0) + 1
        for ridge, n in counts.items():
            if n > 2:
                raise RidgeInThreeFacetsError(f"face {ridge} lies in {n} facets")
        rim = [r for r, n in sorted(counts.items()) if n == 1]
        if not rim:
            return VOID
        return SimplicialComplex(rim)

    # -- homology over GF(2) ----------------------------------------------

    def betti_z2(self) -> tuple[int, ...]:
        """Reduced Betti numbers over GF(2), indices 0..dim.

        Ranks run top-down with clearing (Chen-Kerber 2011): a k-face that is
        the pivot of a reduced (k+1)-column is skipped.  That column is a
        cycle with this face highest, so the face's column sums earlier ones
        (one sorted order of the k-faces numbers those rows and these columns).
        """
        if self.is_void:
            raise VoidComplexError("void complex has no homology")
        top = self.dim
        if top < 0:
            return ()
        by_dim = self.faces_by_dim()
        index: dict[int, dict[Face, int]] = {
            k: {f: i for i, f in enumerate(sorted(by_dim.get(k, ())))}
            for k in range(-1, top + 1)
        }
        ranks = [0] * (top + 2)
        pivots: dict[int, int] = {}
        for k in range(top, -1, -1):
            rows_below = index[k - 1]
            cols = []
            for face, i in index[k].items():
                if i not in pivots:
                    mask = 0
                    for sub in combinations(face, k):
                        mask |= 1 << rows_below[sub]
                    cols.append(mask)
            pivots = {}
            ranks[k] = gf2_rank(cols, pivots)
        return tuple(len(index[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


VOID = SimplicialComplex([])
EMPTY = SimplicialComplex([()])


def simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertex labels."""
    return SimplicialComplex([canonical_face(labels)])


def simplex_boundary(labels: Iterable[str]) -> SimplicialComplex:
    return simplex(labels).boundary()
