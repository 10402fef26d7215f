"""Abstract simplicial complexes: face enumeration, f/h-vectors, links, joins,
boundaries, and reduced homology over the two-element field.

A face is a tuple of vertex labels in sorted order; a complex is stored by
its facets and its downward closure, which one routine (``_closure``) builds
level by level, once, at construction.  The order complex of a poset is the
exception: its chain DP makes every face once, and hands the closure in.
Two degenerate complexes are distinguished: the void complex has no faces at
all, while the empty complex consists of the single face ().
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
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


def _closure(faces: Iterable[Face]) -> tuple[list[Face], dict[int, set[Face]]]:
    """Maximal members and downward closure, by dimension, of canonical faces,
    level by level from the largest size down.  A level holds the given faces
    of its size and those one vertex short of the level above; a given face
    is maximal when its level did not already hold it."""
    given: dict[int, set[Face]] = {}
    for f in faces:
        given.setdefault(len(f), set()).add(f)
    kept: list[Face] = []
    table: dict[int, set[Face]] = {}
    for size in range(max(given, default=-1), -1, -1):
        level = set(chain.from_iterable(map(combinations, table.get(size, ()), repeat(size))))
        new = given.get(size, set())
        kept += new - level
        level |= new
        table[size - 1] = level
    return kept, table


def boundary_ridges(facets) -> list[Face]:
    """The facets of the boundary: the ridges (faces one vertex short of a
    facet) that lie in exactly one of the given facets, a collection of
    distinct canonical faces.  The facets must share one size and no ridge
    may lie in three or more of them; the least such ridge is named."""
    if len({len(f) for f in facets}) > 1:
        raise NotPureError("boundary requires a pure complex")
    counts = Counter(chain.from_iterable(combinations(f, len(f) - 1) for f in facets))
    if counts and max(counts.values()) > 2:
        ridge = min(r for r, n in counts.items() if n > 2)
        raise RidgeInThreeFacetsError(f"face {ridge} lies in {counts[ridge]} facets")
    return [r for r, n in counts.items() if n == 1]


class SimplicialComplex:
    """Immutable simplicial complex stored by its facets and face closure."""

    __slots__ = ("facets", "_by_dim")

    def __init__(self, facets: Iterable[Iterable[str]]):
        canon = {canonical_face(f) for f in facets}
        kept, by_dim = _closure(canon)
        if len(kept) < len(canon):
            inner = min(canon.difference(kept))
            raise ValueError(f"facet {inner} is contained in a larger facet")
        object.__setattr__(self, "facets", frozenset(kept))
        object.__setattr__(self, "_by_dim", {d: frozenset(fs) for d, fs in by_dim.items()})

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_faces(cls, faces: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Build from any face family by keeping its inclusion-maximal members."""
        return cls._generated_by({canonical_face(f) for f in faces})

    @classmethod
    def _generated_by(
        cls, faces: Iterable[Face], by_dim: dict[int, set[Face]] | None = None
    ) -> "SimplicialComplex":
        """The complex generated by faces that are already canonical.  Given
        their closure by dimension, the faces are trusted to be the facets."""
        if by_dim is None:
            faces, by_dim = _closure(faces)
        k = object.__new__(cls)
        object.__setattr__(k, "facets", frozenset(faces))
        object.__setattr__(k, "_by_dim", {d: frozenset(fs) for d, fs in by_dim.items()})
        return k

    # -- basic structure -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        """Dimension, or None for the void complex."""
        return max(self._by_dim, default=None)

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
        return self._by_dim

    def faces(self, dim: int) -> frozenset[Face]:
        return self.faces_by_dim().get(dim, frozenset())

    def all_faces(self) -> set[Face]:
        """Every face including the empty one (empty set for the void complex)."""
        return set().union(*self.faces_by_dim().values())

    def nonempty_faces(self) -> set[Face]:
        return set().union(*(fs for d, fs in self.faces_by_dim().items() if d >= 0))

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
        (the pseudomanifold-with-boundary check, in ``boundary_ridges``).  The
        result is void when the complex is closed.
        """
        if self.is_void or self.dim < 0:
            return VOID
        rim = boundary_ridges(self.facets)
        if not rim:
            return VOID
        return SimplicialComplex._generated_by(rim)  # distinct, canonical, one size

    # -- homology over GF(2) ----------------------------------------------

    def betti_z2(self) -> tuple[int, ...]:
        """Reduced Betti numbers over GF(2), indices 0..dim, the faces of each
        dimension numbered in sorted order."""
        if self.is_void:
            raise VoidComplexError("void complex has no homology")
        index, levels = {(): 0}, []
        for k in range(self.dim + 1):
            faces = sorted(self.faces(k))
            index.update((f, i) for i, f in enumerate(faces))
            cols = [sum(1 << index[sub] for sub in combinations(f, k)) for f in faces]
            levels.append((range(len(faces)), cols))
        return betti_from_columns(levels)


def betti_from_columns(levels) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2), indices 0..top, of a complex given
    per dimension k as (ids, columns): the numbers of its k-faces, and each
    one's boundary column at its number, a bitmask over the numbers of the
    (k-1)-faces (the empty face is 0).  Ranks run top-down with clearing
    (Chen-Kerber 2011): a k-face that is the pivot of a reduced (k+1)-column
    is skipped, since that cycle makes its column a sum of earlier ones."""
    ranks, pivots = [0] * (len(levels) + 1), {}
    for k in range(len(levels) - 1, -1, -1):
        ids, columns = levels[k]
        cols, pivots = [columns[i] for i in ids if i not in pivots], {}
        ranks[k] = gf2_rank(cols, pivots)
    return tuple(len(ids) - ranks[k] - ranks[k + 1] for k, (ids, _) in enumerate(levels))


VOID = SimplicialComplex([])
EMPTY = SimplicialComplex([()])


def simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertex labels."""
    return SimplicialComplex([canonical_face(labels)])


def simplex_boundary(labels: Iterable[str]) -> SimplicialComplex:
    return simplex(labels).boundary()
