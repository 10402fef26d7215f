"""Topological subdivisions of simplicial complexes.

A subdivision is a total complex fibred over a base complex by an explicit
carrier map on nonempty faces.  The carrier of a face G is the smallest base
face whose restriction contains G in its interior.  Carrier keys and values
must be canonical faces (sorted tuples of distinct labels): the constructor
checks them and does not repair them.  Restrictions, the local
h-polynomial, the quasi-geometric and vertex-induced predicates, and the
weak-ball validity check all derive from it.

Two routes build one.  ``Subdivision(base, total, carrier)`` checks the
carrier map against the total's faces and the base, and copies it; files
(``serialize``), ``sd_subdivision``, ``restriction`` and every public caller
take it.  The construction ops edit a subdivision that was already checked,
adding exactly the faces they make with a carrier each, and
``Subdivision.trivial`` carries each face to itself; both hand their parts
to ``Subdivision._built``, which checks and copies nothing.  The tests hold
the two routes equal on every op.

Internally every carrier query reads one encoding: a base face is a bitmask
over the sorted base vertices (bit i for the i-th vertex), and each distinct
carrier is encoded once, however many total faces share it, by the first
query that needs the codes; a subdivision that is only built on encodes
none.  "The carrier of G lies in F" is then ``not carrier_mask & ~mask(F)``.
The public ``carrier`` attribute stays the label map; no mask leaves this
module.  Faces are counted once per (carrier mask, size).  The local h is
one signed sum over those counts, face by face; the h-polynomial of a
restriction to a vertex subset sums the counts of the subset's submasks.
The h-polynomial of a restriction's boundary is read off the restriction's
own faces, with no complex built: a restriction that is a simplex directly,
any other through the ridges lying in one of its facets, whose closure is
counted.

Ball recognition is undecidable in general, so validity here means the
documented *weak ball check*: every restriction must be pure of the right
dimension, a pseudomanifold with boundary, have trivial reduced GF(2)
homology with sphere-homology boundary, and its interior faces must be
exactly the carrier preimage.  That is necessary, cheap, and catches every
malformed carrier map this package can produce.  It reads bitmasks over the
faces, numbered once in sorted order (``Subdivision._incidence``); a
restriction that is a simplex passes without rank work.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import or_

from .complexes import (
    Face,
    NotPureError,
    SimplicialComplex,
    _closure,
    betti_from_columns,
    boundary_ridges,
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

    __slots__ = ("base", "total", "carrier", "_bits", "_cache")

    def __init__(
        self,
        base: SimplicialComplex,
        total: SimplicialComplex,
        carrier: dict[Face, Face],
    ):
        """Keys must be the nonempty faces of ``total`` and values base faces,
        all canonical (sorted tuples of distinct labels).  They are checked,
        not repaired; ``serialize`` canonicalizes faces read from a file.
        """
        # keys equal the faces when they hold each level and are as many
        levels = [fs for d, fs in total.faces_by_dim().items() if d >= 0]
        if len(carrier) != sum(map(len, levels)) or not all(carrier.keys() >= fs for fs in levels):
            needed = total.nonempty_faces()
            extra = carrier.keys() - needed
            if extra:
                raise ValueError(f"carrier map has non-faces, e.g. {min(extra)}")
            missing = needed - carrier.keys()
            raise ValueError(
                f"carrier map is missing {len(missing)} faces, e.g. {min(missing)}"
            )
        if not all(issubclass(t, tuple) for t in set(map(type, carrier.values()))):
            g, f = next((g, f) for g, f in carrier.items() if not isinstance(f, tuple))
            raise ValueError(f"carrier {f} of {g} is not a base face")
        # each distinct carrier is checked once, naming a face that has it
        for f, g in dict(zip(carrier.values(), carrier)).items():
            if not f:
                raise ValueError(f"face {g} has an empty carrier")
            if f not in base.faces(len(f) - 1):
                raise ValueError(f"carrier {f} of {g} is not a base face")
        self._adopt(base, total, dict(carrier))

    def _adopt(self, base, total, carrier) -> None:
        """Take the parts as they are; nothing is encoded until a query asks."""
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "_bits", {v: 1 << i for i, v in enumerate(base.vertices)})
        object.__setattr__(self, "_cache", {})

    @classmethod
    def _built(
        cls, base: SimplicialComplex, total: SimplicialComplex, carrier: dict[Face, Face]
    ) -> "Subdivision":
        """A subdivision whose carrier map its caller built face by face with
        ``total``: keyed by exactly the nonempty faces of ``total``, each value
        a nonempty base face, all canonical.  That is trusted, not checked,
        and ``carrier`` is adopted, not copied."""
        s = object.__new__(cls)
        s._adopt(base, total, carrier)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subdivision is immutable")

    @classmethod
    def trivial(cls, base: SimplicialComplex) -> "Subdivision":
        """The identity subdivision of a complex."""
        return cls._built(base, base, {f: f for f in base.nonempty_faces()})

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

    # -- the carrier encoding ------------------------------------------------

    def _mask(self, face) -> int:
        """Bitmask of a face; a label outside the base adds no bit."""
        mask = 0
        for v in face:
            mask |= self._bits.get(v, 0)
        return mask

    def _carrier_masks(self) -> dict[Face, int]:
        """Carrier bitmask of every nonempty total face, in carrier order; each
        distinct carrier is encoded once, and ``span`` is the OR of the codes."""
        if "cm" not in self._cache:
            code = {f: self._mask(f) for f in set(self.carrier.values())}
            masks = map(code.__getitem__, self.carrier.values())
            self._cache["cm"] = dict(zip(self.carrier, masks))
            self._cache["span"] = self._mask({v for f in code for v in f})
        return self._cache["cm"]

    def _carrier_unions(self) -> list[dict[Face, int]]:
        """Per face size from 1 up, each face's OR of its vertex-carrier masks:
        the OR for its prefix, one size down, with that of its last vertex."""
        if "cu" not in self._cache:
            cm, by_dim = self._carrier_masks(), self.total.faces_by_dim()
            vertex = {g[0]: cm[g] for g in by_dim.get(0, ())}
            unions = [{(v,): u for v, u in vertex.items()}] if vertex else []
            for k in range(1, max(by_dim, default=0) + 1):
                below = unions[-1]
                unions.append({e: below[e[:-1]] | vertex[e[-1]] for e in by_dim[k]})
            self._cache["cu"] = unions
        return self._cache["cu"]

    def _carrier_buckets(self) -> dict[int, list[Face]]:
        """Nonempty total faces grouped by carrier mask, in carrier order."""
        if "cb" not in self._cache:
            self._cache["cb"] = {}
            for g, c in self._carrier_masks().items():
                self._cache["cb"].setdefault(c, []).append(g)
        return self._cache["cb"]

    def _base_faces(self) -> dict[int, Face]:
        """Every nonempty base face by its mask."""
        if "bf" not in self._cache:
            self._cache["bf"] = {self._mask(f): f for f in self.base.nonempty_faces()}
        return self._cache["bf"]

    # -- restrictions ------------------------------------------------------

    def restriction_members(self, face) -> list[Face]:
        """Nonempty faces of the total complex carried into the given base face."""
        buckets, members = self._carrier_buckets(), []
        mask = sub = self._mask(face)
        while sub:  # the buckets of every submask, so members come grouped by carrier
            members += buckets.get(sub, ())
            sub = (sub - 1) & mask
        return members

    def _is_total(self, mask: int) -> bool:
        """Whether the restriction to a mask is the total complex: it holds
        every carrier, and there is one (a void total has none)."""
        return bool(self._carrier_masks()) and not self._cache["span"] & ~mask

    def restriction_complex(self, face) -> SimplicialComplex:
        """The subcomplex lying over a base face: the total complex itself if
        the face holds every carrier, unless there is none (a void total)."""
        if self._is_total(self._mask(face)):
            return self.total
        return SimplicialComplex._generated_by([(), *self.restriction_members(face)])

    def restriction(self, face) -> "Subdivision":
        face = canonical_face(face)
        if face not in self.base:
            raise ValueError(f"{face} is not a base face")
        total = self.restriction_complex(face)
        return Subdivision(
            simplex(face),
            total,
            {g: self.carrier[g] for g in total.nonempty_faces()},
        )

    # -- validity -----------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Run the weak ball check on every restriction; failures land in the report."""
        columns, buckets = self._incidence()
        none, checks = [0] * len(columns), []
        for face in sorted(self.base.nonempty_faces()):
            mask = sub = self._mask(face)
            faces = none
            while sub:  # the restriction: the faces carried by every submask
                faces = list(map(or_, faces, buckets.get(sub, none)))
                sub = (sub - 1) & mask
            if not self._cache["mono"]:
                _close(faces, columns)
            failures = _weak_ball_failures(len(face), faces, buckets.get(mask, none), columns)
            checks.append(FaceCheck(face, failures))
        return ValidityReport(tuple(checks), self._cache["mono"])

    def _incidence(self) -> tuple[list[list[int]], dict[int, list[int]]]:
        """One pass over the total's faces, cached: per dimension, each face's
        boundary column, a bitmask over the faces one dimension down numbered
        in sorted order (the empty face is 0); per carrier mask, the faces it
        carries, a bitmask per dimension.  The pass also settles monotonicity."""
        if "inc" not in self._cache:
            cm, by_dim = self._carrier_masks(), self.total.faces_by_dim()
            top, index, below, mono = max(by_dim, default=-1), {(): 0}, [0], True
            columns, buckets = [], {}
            for k in range(top + 1):
                faces, level, carried = sorted(by_dim[k]), [], {}
                for i, g in enumerate(faces):
                    index[g], c = i, cm[g]
                    col = lo = 0
                    for sub in map(index.__getitem__, combinations(g, k)):
                        col |= 1 << sub
                        lo |= below[sub]  # the carrier of the facet
                    mono = mono and not lo & ~c
                    level.append(col)
                    carried.setdefault(c, []).append(i)
                for c, ids in carried.items():
                    buckets.setdefault(c, [0] * (top + 1))[k] = sum(1 << i for i in ids)
                columns.append(level)
                below = [cm[g] for g in faces]
            self._cache["inc"], self._cache["mono"] = (columns, buckets), mono
        return self._cache["inc"]

    def is_monotone(self) -> bool:
        """No face's carrier leaves that of a face one dimension up holding it:
        the verdict of the one incidence pass."""
        self._incidence()
        return self._cache["mono"]

    # -- predicates ----------------------------------------------------------

    def is_quasi_geometric(self) -> PredicateResult:
        """No face may have all its vertex carriers inside a smaller base face.

        In a simplicial base the least face that holds the union u of a
        face's vertex carriers is u itself when u is a face, and there is
        none otherwise; every base face that holds u contains it.  So a face
        e fails exactly when u is a base face smaller than e.  Each dimension
        tests its distinct unions and scans its faces only when one fails.
        Witnesses, here and in ``is_vertex_induced``, are the (size,
        label)-least failing face and its union u.
        """
        faces = self._base_faces()
        for size, union in enumerate(self._carrier_unions(), 1):
            failing = {u for u in set(union.values()) if u.bit_count() < size and u in faces}
            if failing:
                e = min(e for e, u in union.items() if u in failing)
                return PredicateResult(False, (e, faces[union[e]]))
        return PredicateResult(True)

    def is_vertex_induced(self) -> PredicateResult:
        """Whenever all vertices of a face lie over F, the face itself must too.

        Every base face that holds the union u of a face's vertex carriers
        contains u, so a face fails exactly when u is a base face that does
        not hold its carrier.
        """
        cm, faces = self._carrier_masks(), self._base_faces()
        for union in self._carrier_unions():
            # the test needs only cm[e] & ~u; != clears most faces more cheaply
            bad = [e for e, u in union.items() if cm[e] != u and cm[e] & ~u and u in faces]
            if bad:
                e = min(bad)
                return PredicateResult(False, (e, faces[union[e]]))
        return PredicateResult(True)

    # -- local h ---------------------------------------------------------------

    def _require_simplex_base(self):
        if not self.base_is_simplex:
            raise BaseNotSimplexError("base complex is not a simplex")

    def _face_counts(self) -> Counter:
        """Nonempty total faces counted per (carrier mask, size)."""
        if "fc" not in self._cache:
            cm = self._carrier_masks()
            self._cache["fc"] = Counter(zip(cm.values(), map(len, cm)))
        return self._cache["fc"]

    def local_h(self) -> Polynomial:
        """Stanley's alternating sum over restrictions, read off the face counts."""
        self._require_simplex_base()
        return _local_h(self._face_counts(), len(self.base.vertices))

    def bary_local_h(self) -> Polynomial:
        """Local h of the barycentric subdivision, without building it: a chain
        of k faces is carried where its top is, and the chains under a top of
        m vertices are the ordered partitions of its vertices into k blocks."""
        self._require_simplex_base()
        counts: Counter = Counter()
        for (mask, m), n in self._face_counts().items():
            for k in range(1, m + 1):
                counts[mask, k] += n * _ordered_partitions(m, k)
        return _local_h(counts, len(self.base.vertices))

    def local_gamma(self) -> GammaVector:
        return gamma_extract(self.local_h(), len(self.base.vertices))

    def h_via_locality(self) -> Polynomial:
        """Sum of local h-polynomials of restrictions weighted by link h-polynomials.

        Defined for any pure base; the contract is equality with the
        h-polynomial of the total complex.  On a simplex base every link is
        a simplex with h = 1, so the sum telescopes to the h-polynomial
        counted from the carrier map over the full vertex set: the identity
        record then compares that count with the total's h and cannot fail
        (open item 8 of ROADMAP.md).
        """
        if not self.base.is_pure:
            raise NotPureError("locality formula requires a pure base")
        if self.base_is_simplex:
            return self.subset_h(self.base.vertices)
        h = {f: self.restriction_complex(f).h_polynomial() for f in self.base.all_faces()}
        ell = {f: sum((h[g] * (-1) ** (len(f) - len(g)) for g in subsets(f)), ZERO) for f in h}
        return sum((ell[f] * self.base.link(f).h_polynomial() for f in ell), ZERO)

    # -- cached per-subset data shared with the identity checkers -------------

    def _base_mask(self, face) -> int:
        """The mask of a base face; anything else is refused as ``restriction``
        refuses it.  Distinct known labels whose mask is a base face pass at once."""
        mask = self._mask(face)
        if len(face) != mask.bit_count() or mask not in self._base_faces():
            face = canonical_face(face)
            if face not in self.base:
                raise ValueError(f"{face} is not a base face")
        return mask

    def subset_h(self, face) -> Polynomial:
        """h-polynomial of the restriction to a vertex subset (simplex base)."""
        if "ht" not in self._cache:
            self._require_simplex_base()
            self._cache["ht"] = _h_table(self._face_counts(), len(self.base.vertices))
        return self._cache["ht"][self._base_mask(face)]

    def subset_boundary_h(self, face) -> Polynomial:
        """h-polynomial of the boundary of the restriction to a base face S,
        from the restriction's own faces, with no complex built.

        A restriction of 2^|S| - 1 faces, one of |S| vertices holding every
        other, is that simplex: its boundary h is 1 + x + ... + x^(|S|-1).
        Otherwise its facets (the total's, when S holds every carrier) give
        the ridges in one facet (``complexes.boundary_ridges``, which refuses
        an impure restriction or a ridge in three facets), and the boundary
        they generate is counted.  The void boundary (a closed restriction,
        which a ball never has) contributes zero.
        """
        mask = self._base_mask(face)
        key = ("bh", mask)
        if key not in self._cache:
            n = mask.bit_count()
            if self._is_total(mask):
                h = _generated_h(boundary_ridges(self.total.facets))
            elif _is_simplex(members := self.restriction_members(face), n):
                h = Polynomial([1] * n)  # the h of a simplex's boundary sphere
            else:
                h = _generated_h(boundary_ridges(_closure(members)[0]))
            self._cache[key] = h
        return self._cache[key]


def _is_simplex(faces: list[Face], n: int) -> bool:
    """Whether distinct nonempty faces are all the nonempty faces of one face
    of n vertices: 2^n - 1 of them, one of n vertices holding every other."""
    if len(faces) != (1 << n) - 1:
        return False
    top = set(max(faces, key=len, default=()))
    return len(top) == n and all(map(top.issuperset, faces))


def _generated_h(faces: list[Face]) -> Polynomial:
    """h-polynomial of the complex generated by distinct canonical faces of
    one size, from its closure's face counts; zero for no face (the void complex)."""
    if not faces:
        return ZERO
    levels = _closure(faces)[1]  # by dimension, from -1 up to that of the faces
    return h_from_f([len(levels[k]) for k in range(-1, len(faces[0]))])


def _weak_ball_failures(n: int, faces: list[int], preimage: list[int], columns) -> tuple[str, ...]:
    """The weak-ball verdicts of a restriction over a base face of n vertices:
    ``faces`` its faces, closed downwards, and ``preimage`` those carried by
    the base face itself, as one bitmask per dimension over the numbers."""
    sizes = [m.bit_count() for m in faces]
    top = max((k for k, size in enumerate(sizes) if size), default=-1)
    if top < 0:
        return ("nonvoid",)
    faces = faces[: top + 1]
    if top == n - 1 and sizes[top] == 1 and sum(sizes) == (1 << n) - 1:
        # the simplex on n vertices: a ball, all faces but the top on its rim
        return () if preimage[:n] == [0] * top + faces[top:] else ("interior-condition",)
    failures = ["dimension"] if top != n - 1 else []
    cover = [0] * top + faces[top:]  # the faces of the top faces
    ids = _close(cover, columns)
    pure = cover == faces
    if not pure:
        failures.append("pure")
        ids = _close(faces, columns)
    once = twice = thrice = 0  # the ridges in one, two and three or more facets
    for c in map(columns[top].__getitem__, ids[top]):
        thrice, twice, once = thrice | twice & c, twice | once & c, once | c
    if not pure or thrice:
        failures.append("pseudomanifold")
    if any(betti_from_columns(list(zip(ids, columns)))):
        failures.append("betti-ball")
    if pure and not thrice:
        ridges = once & ~twice  # in one facet; at top 0 the empty face, or none
        rim = [0] * (top - 1) + [ridges] if top else []  # the boundary, closed below
        rim_ids = _close(rim, columns)
        # the rim's Betti numbers where it is nonvoid and of a sphere's dimension
        rim_betti = ridges and top == n - 1 and betti_from_columns(list(zip(rim_ids, columns)))
        if n > 1 and rim_betti != (0,) * (n - 2) + (1,):
            failures.append("boundary-betti-sphere")
        if any(f & ~r != p for f, r, p in zip(faces, rim + [0], preimage)):
            failures.append("interior-condition")
    return tuple(failures)


def _close(faces: list[int], columns) -> list[list[int]]:
    """Close faces, one bitmask per dimension, downwards in place; return the
    numbers of the faces per dimension, ascending."""
    ids = [[] for _ in faces]
    for k in range(len(faces) - 1, -1, -1):
        bits = bin(faces[k])[:1:-1]
        i = bits.find("1")
        while i >= 0:
            ids[k].append(i)
            if k:
                faces[k - 1] |= columns[k][i]
            i = bits.find("1", i + 1)
    return ids


@lru_cache(maxsize=None)
def _ordered_partitions(m: int, k: int) -> int:
    """k! S(m, k): the surjections of m things onto k, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))


def _local_h(counts: Counter, n: int) -> Polynomial:
    """Local h from face counts per (carrier mask, size) over n base vertices:
    Stanley's sum of (-1)^(n-|S|) h(Gamma_S) over vertex subsets S, taken face
    by face.  A face G's terms over the S holding its carrier, of c vertices,
    sum to (-1)^(n-c) x^(|G|+n-c) (1-x)^(c-|G|) if each Gamma_S has dimension
    |S|-1.  Where the counts show one that has not (only invalid input has
    such), the sum over S of each restriction's own h is taken."""
    by_size, full = Counter({(0, 0): 1}), 0  # the empty face; S with a face of |S| vertices
    for (mask, m), count in counts.items():
        by_size[mask.bit_count(), m] += count
        full += m == mask.bit_count()
    if full < (1 << n) - 1 or any(m > c for c, m in by_size):
        table = _h_table(counts, n)
        return sum((h * (-1) ** (n - mask.bit_count()) for mask, h in table.items()), ZERO)
    coeffs = [0] * (n + 1)
    for (c, m), count in by_size.items():
        for i in range(c - m + 1):
            coeffs[m + n - c + i] += (-1) ** (n - c + i) * math.comb(c - m, i) * count
    return Polynomial(coeffs)


def _h_table(counts: Counter, n: int) -> dict[int, Polynomial]:
    """h-polynomial per subset mask of n base vertices, from face counts per
    (carrier mask, size): a subset's f-vector sums the counts of its submasks,
    for every subset at once by adding rows across one vertex bit at a time."""
    top = max((size for _, size in counts), default=0)
    rows = [[0] * (top + 1) for _ in range(1 << n)]
    for (mask, size), count in counts.items():
        rows[mask][size] = count
    for k in range(n):
        bit = 1 << k
        for mask in range(1 << n):
            if mask & bit:
                rows[mask] = [a + b for a, b in zip(rows[mask], rows[mask ^ bit])]
    table = {}
    for mask, row in enumerate(rows):
        size = max((k for k in range(1, top + 1) if row[k]), default=0)
        table[mask] = h_from_f([1] + row[1 : size + 1])
    return table
