"""Topological subdivisions of simplicial complexes.

A subdivision is a total complex fibred over a base complex by an explicit
carrier map on nonempty faces.  The carrier of a face G is the smallest base
face whose restriction contains G in its interior; restrictions, the local
h-polynomial, the quasi-geometric and vertex-induced predicates, and the
weak-ball validity check all derive from it.

Ball recognition is undecidable in general, so validity here means the
documented *weak ball check*: every restriction must be pure of the right
dimension, a pseudomanifold with boundary, have trivial reduced GF(2)
homology with sphere-homology boundary, and its interior faces must be
exactly the carrier preimage.  That is necessary, cheap, and catches every
malformed carrier map this package can produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Face,
    NotPureError,
    RidgeInThreeFacetsError,
    SimplicialComplex,
    canonical_face,
    simplex,
    subsets,
)
from .polynomials import ZERO, GammaVector, Polynomial, gamma_extract, h_from_f


class BaseNotSimplexError(ValueError):
    """Raised when an operation requires the base complex to be a full simplex."""


@dataclass(frozen=True)
class FaceCheck:
    """Weak-ball verdicts for one base face; empty failure tuple means pass."""

    face: Face
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[FaceCheck, ...]
    monotone: bool

    @property
    def valid(self) -> bool:
        return self.monotone and all(c.ok for c in self.checks)

    @property
    def verdict(self) -> str:
        if self.valid:
            return "valid-weak"
        if not self.monotone:
            return "invalid(carrier-not-inclusion-preserving)"
        for c in self.checks:
            if not c.ok:
                return f"invalid({','.join(c.failures)} at {','.join(c.face)})"
        return "invalid(unknown)"

    def failures(self) -> list[FaceCheck]:
        return [c for c in self.checks if not c.ok]


@dataclass(frozen=True)
class PredicateResult:
    """Boolean predicate outcome with a witness pair (E, F) on failure."""

    holds: bool
    witness: tuple[Face, Face] | None = None

    def __bool__(self) -> bool:
        return self.holds


class Subdivision:
    """A pair (total complex, carrier map) over a base complex."""

    __slots__ = ("base", "total", "carrier", "_cache")

    def __init__(
        self,
        base: SimplicialComplex,
        total: SimplicialComplex,
        carrier: dict[Face, Face],
    ):
        carrier_canon: dict[Face, Face] = {}
        for g, f in carrier.items():
            carrier_canon[canonical_face(g)] = canonical_face(f)
        needed = total.nonempty_faces()
        missing = needed - carrier_canon.keys()
        if missing:
            raise ValueError(
                f"carrier map is missing {len(missing)} faces, e.g. {sorted(missing)[0]}"
            )
        extra = carrier_canon.keys() - needed
        if extra:
            raise ValueError(f"carrier map has non-faces, e.g. {sorted(extra)[0]}")
        base_faces = base.all_faces()
        for g, f in carrier_canon.items():
            if not f:
                raise ValueError(f"face {g} has an empty carrier")
            if f not in base_faces:
                raise ValueError(f"carrier {f} of {g} is not a base face")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "carrier", carrier_canon)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Subdivision is immutable")

    @classmethod
    def trivial(cls, base: SimplicialComplex) -> "Subdivision":
        """The identity subdivision of a complex."""
        return cls(base, base, {f: f for f in base.nonempty_faces()})

    def carrier_of(self, face) -> Face:
        face = canonical_face(face)
        if not face:
            return ()
        return self.carrier[face]

    @property
    def base_is_simplex(self) -> bool:
        return len(self.base.facets) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subdivision)
            and self.base == other.base
            and self.total == other.total
            and self.carrier == other.carrier
        )

    def __repr__(self) -> str:
        return (
            f"Subdivision(base dim {self.base.dim}, "
            f"{len(self.total.facets)} total facets)"
        )

    # -- restrictions ------------------------------------------------------

    def restriction_members(self, face) -> list[Face]:
        """Nonempty faces of the total complex carried into the given base face."""
        fs = set(canonical_face(face))
        return [g for g, c in self.carrier.items() if set(c) <= fs]

    def restriction_complex(self, face) -> SimplicialComplex:
        """The subcomplex lying over a base face."""
        face = canonical_face(face)
        key = ("rc", face)
        if key not in self._cache:
            members = self.restriction_members(face)
            self._cache[key] = _complex_from_members(members, len(face))
        return self._cache[key]

    def restriction(self, face) -> "Subdivision":
        face = canonical_face(face)
        if face not in self.base:
            raise ValueError(f"{face} is not a base face")
        members = self.restriction_members(face)
        return Subdivision(
            simplex(face) if face else SimplicialComplex([()]),
            _complex_from_members(members, len(face)),
            {g: self.carrier[g] for g in members},
        )

    # -- validity -----------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Run the weak ball check on every restriction; failures land in the report."""
        monotone = True
        for g in self.carrier:
            if len(g) < 2:
                continue
            cg = set(self.carrier[g])
            for i in range(len(g)):
                sub = g[:i] + g[i + 1 :]
                if not set(self.carrier[sub]) <= cg:
                    monotone = False
                    break
            if not monotone:
                break

        checks = []
        for face in sorted(self.base.nonempty_faces()):
            checks.append(self._check_face(face))
        return ValidityReport(tuple(checks), monotone)

    def _check_face(self, face: Face) -> FaceCheck:
        failures: list[str] = []
        members = self.restriction_members(face)
        if not members:
            return FaceCheck(face, ("nonvoid",))
        k = SimplicialComplex.from_faces(members)
        if k.dim != len(face) - 1:
            failures.append("dimension")
        if not k.is_pure:
            failures.append("pure")
        boundary = None
        try:
            boundary = k.boundary()
        except (NotPureError, RidgeInThreeFacetsError):
            failures.append("pseudomanifold")
        if any(k.betti_z2()):
            failures.append("betti-ball")
        if boundary is not None and len(face) >= 2:
            want = tuple(
                1 if i == len(face) - 2 else 0 for i in range(len(face) - 1)
            )
            if (
                boundary.is_void
                or boundary.dim != len(face) - 2
                or boundary.betti_z2() != want
            ):
                failures.append("boundary-betti-sphere")
        if boundary is not None:
            interior = set(k.nonempty_faces()) - boundary.nonempty_faces()
            preimage = {g for g in members if self.carrier[g] == face}
            if interior != preimage:
                failures.append("interior-condition")
        return FaceCheck(face, tuple(failures))

    # -- predicates ----------------------------------------------------------

    def _vertex_carrier_union(self, face: Face) -> Face:
        out: set[str] = set()
        for v in face:
            out |= set(self.carrier[(v,)])
        return tuple(sorted(out))

    def is_quasi_geometric(self) -> PredicateResult:
        """No face may have all its vertex carriers inside a smaller base face."""
        base_faces = None
        for e in sorted(self.carrier, key=lambda f: (len(f), f)):
            if len(e) < 2:
                continue
            u = self._vertex_carrier_union(e)
            if self.base_is_simplex:
                if len(u) < len(e):
                    return PredicateResult(False, (e, u))
            else:
                if base_faces is None:
                    base_faces = sorted(self.base.nonempty_faces(), key=lambda f: (len(f), f))
                us = set(u)
                for f in base_faces:
                    if len(f) < len(e) and us <= set(f):
                        return PredicateResult(False, (e, f))
        return PredicateResult(True)

    def is_vertex_induced(self) -> PredicateResult:
        """Whenever all vertices of a face lie over F, the face itself must too."""
        base_faces = None
        for e in sorted(self.carrier, key=lambda f: (len(f), f)):
            u = self._vertex_carrier_union(e)
            c = self.carrier[e]
            if self.base_is_simplex:
                if c != u:
                    return PredicateResult(False, (e, u))
            else:
                if base_faces is None:
                    base_faces = sorted(self.base.nonempty_faces(), key=lambda f: (len(f), f))
                us, cs = set(u), set(c)
                for f in base_faces:
                    if us <= set(f) and not cs <= set(f):
                        return PredicateResult(False, (e, f))
        return PredicateResult(True)

    # -- local h ---------------------------------------------------------------

    def _require_simplex_base(self):
        if not self.base_is_simplex:
            raise BaseNotSimplexError("base complex is not a simplex")

    def _subset_h_table(self) -> dict[int, Polynomial]:
        """h-polynomial of the restriction to every vertex subset (simplex base).

        Subsets are encoded as bitmasks over the sorted base vertex list; each
        total face contributes one face count to every superset of its carrier.
        """
        if "ht" in self._cache:
            return self._cache["ht"]
        self._require_simplex_base()
        verts = self.base.vertices
        idx = {v: i for i, v in enumerate(verts)}
        d = len(verts)
        full = (1 << d) - 1
        counts: dict[int, dict[int, int]] = {m: {} for m in range(1 << d)}
        for g, c in self.carrier.items():
            cmask = 0
            for v in c:
                cmask |= 1 << idx[v]
            free = full ^ cmask
            sub = free
            size = len(g)
            while True:
                bucket = counts[cmask | sub]
                bucket[size] = bucket.get(size, 0) + 1
                if sub == 0:
                    break
                sub = (sub - 1) & free
        table: dict[int, Polynomial] = {}
        for mask, bucket in counts.items():
            top = max(bucket, default=0)
            table[mask] = h_from_f([1] + [bucket.get(n, 0) for n in range(1, top + 1)])
        self._cache["ht"] = table
        return table

    def local_h(self) -> Polynomial:
        """Alternating sum of restriction h-polynomials over all vertex subsets."""
        self._require_simplex_base()
        full = (1 << len(self.base.vertices)) - 1
        return _alternating_subset_sum(self._subset_h_table(), full)

    def local_gamma(self) -> GammaVector:
        return gamma_extract(self.local_h(), len(self.base.vertices))

    def h_via_locality(self) -> Polynomial:
        """Sum of local h-polynomials of restrictions weighted by link h-polynomials.

        Defined for any pure base; the contract is equality with the
        h-polynomial of the total complex.
        """
        if not self.base.is_pure:
            raise NotPureError("locality formula requires a pure base")
        if self.base_is_simplex:
            table = self._subset_h_table()
            d = len(self.base.vertices)
            total = ZERO
            for mask in range(1 << d):
                ell = _alternating_subset_sum(table, mask)
                total = total + ell
            return total
        h_cache: dict[Face, Polynomial] = {}
        for f in self.base.all_faces():
            h_cache[f] = self.restriction_complex(f).h_polynomial()
        total = ZERO
        for f in sorted(self.base.all_faces()):
            ell = ZERO
            for sub in subsets(f):
                term = h_cache[sub]
                if (len(f) - len(sub)) % 2:
                    ell = ell - term
                else:
                    ell = ell + term
            total = total + ell * self.base.link(f).h_polynomial()
        return total

    # -- cached per-subset data shared with the identity checkers -------------

    def subset_h(self, face) -> Polynomial:
        """h-polynomial of the restriction to a vertex subset (simplex base)."""
        face = canonical_face(face)
        verts = self.base.vertices
        idx = {v: i for i, v in enumerate(verts)}
        mask = 0
        for v in face:
            mask |= 1 << idx[v]
        return self._subset_h_table()[mask]

    def subset_boundary_h(self, face) -> Polynomial:
        """h-polynomial of the boundary of the restriction to a vertex subset.

        The void boundary (a closed restriction, which a ball never has)
        contributes zero.
        """
        face = canonical_face(face)
        key = ("bh", face)
        if key not in self._cache:
            b = self.restriction_complex(face).boundary()
            self._cache[key] = ZERO if b.is_void else b.h_polynomial()
        return self._cache[key]


def _complex_from_members(members: list[Face], expected_card: int) -> SimplicialComplex:
    """Complex on a downward-closed member list, fast path for pure restrictions."""
    if not members:
        return SimplicialComplex([()])
    top = [g for g in members if len(g) == expected_card]
    if top:
        seen: set[Face] = set()
        for f in top:
            seen.update(subsets(f))
        seen.discard(())
        if seen == set(members):
            return SimplicialComplex(top)
    return SimplicialComplex.from_faces(members)


def _alternating_subset_sum(table: dict[int, Polynomial], mask: int) -> Polynomial:
    """Local h of the restriction to a subset mask via its own alternating sum."""
    total = ZERO
    size = mask.bit_count()
    sub = mask
    while True:
        term = table[sub]
        if (size - sub.bit_count()) % 2:
            total = total - term
        else:
            total = total + term
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return total
