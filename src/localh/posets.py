"""Face posets of regular cell complexes, barycentric subdivision as the
order complex, flag f/h-vectors, and the ab/cd-index machinery.

A poset is given by elements (id, dimension) and cover relations; the order
relation is the transitive closure of the covers.  Gradedness is enforced
locally: every minimal element has dimension 0 and every cover raises
dimension by exactly 1, so every maximal chain runs through consecutive
dimensions starting at 0.

There is one route from a poset to its order complex, a chain DP over the
dimension-sorted elements: an element tops itself and, with its label
inserted, each chain ending below it.  So every face is made once with its
top known, and barycentric subdivision reads its carrier off that top.

There is one route from a poset to its cd-form, and it never builds the
order complex: chain counts by dynamic programming over the strict upsets,
the flag h-vector by a Moebius butterfly, the ab-index, and the cd-form by
an integer Walsh-Hadamard transform into the basis c = a+b, e = a-b.  The
h-polynomial of the order complex is the ab-index at a = 1, b = x, so the
ball-minus-boundary h difference is read off the ab-index too.

A raw poset is taken on faith as the face poset of a regular cell complex
(poset files must also pass the thinness checks in ``serialize``);
regularity of attachments cannot be checked combinatorially, and for
nonregular input the order complex need not be homeomorphic to the intended
space.  Boundaries of raw posets follow the documented convention: the order
ideal generated by codimension-two elements covered by exactly one
codimension-one element (this provably matches the simplicial boundary when
the poset comes from a complex).
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass, field
from itertools import repeat

from .complexes import Face, SimplicialComplex, canonical_face, simplex
from .polynomials import ONE, ZERO, Polynomial
from .subdivisions import Subdivision


class UngradedPosetError(ValueError):
    """Raised when a cover skips a dimension or a minimal element is not a vertex."""


def face_id(face: Face) -> str:
    return "-".join(face)


@dataclass
class FacePoset:
    """Graded poset of cells with dimensions, covers, and optional carriers."""

    elements: tuple[tuple[str, int], ...]
    covers: tuple[tuple[str, str], ...]
    carrier: dict[str, Face] | None = None
    base: SimplicialComplex | None = None
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ids = [e for e, _ in self.elements]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate element ids")
        for e, d in self.elements:
            if d < 0:
                raise ValueError(f"element {e} has negative dimension")
        dim = dict(self.elements)
        for lo, up in self.covers:
            if lo not in dim or up not in dim:
                raise ValueError(f"cover ({lo}, {up}) references unknown element")
            if dim[up] != dim[lo] + 1:
                raise UngradedPosetError(
                    f"cover ({lo}, {up}) goes from dimension {dim[lo]} to "
                    f"{dim[up]}, expected {dim[lo] + 1}"
                )
        has_lower = {up for _, up in self.covers}
        for e, d in self.elements:
            if d and e not in has_lower:
                raise UngradedPosetError(
                    f"minimal element {e} has dimension {d}, expected 0"
                )
        if self.carrier is not None:
            self.carrier = {e: canonical_face(f) for e, f in self.carrier.items()}

    # -- structure ---------------------------------------------------------

    @property
    def dims(self) -> dict[str, int]:
        if "dims" not in self._derived:
            self._derived["dims"] = dict(self.elements)
        return self._derived["dims"]

    @property
    def rank(self) -> int:
        """One more than the top cell dimension; 0 for the empty poset."""
        if not self.elements:
            return 0
        return max(d for _, d in self.elements) + 1

    def _above_masks(self) -> tuple[list[str], list[int], list[int]]:
        """Element order, dimension list, and strict-upset bitmask per element.

        Covers are read from the top dimension down, so the upset of the
        upper element is complete when it is added to the lower one's.
        """
        if "above" not in self._derived:
            dims = self.dims
            order = sorted((e for e, _ in self.elements), key=lambda e: (dims[e], e))
            index = {e: i for i, e in enumerate(order)}
            masks = [0] * len(order)
            for lo, hi in sorted(self.covers, key=lambda c: -dims[c[0]]):
                j = index[hi]
                masks[index[lo]] |= (1 << j) | masks[j]
            self._derived["above"] = (order, [dims[e] for e in order], masks)
        return self._derived["above"]


def face_poset(source: SimplicialComplex | Subdivision) -> FacePoset:
    """Face poset of a complex; carriers and base copied from a subdivision."""
    if isinstance(source, Subdivision):
        complex_, carrier, base = source.total, source.carrier, source.base
    else:
        complex_, carrier, base = source, None, None
    if complex_.is_void or complex_.dim < 0:
        raise ValueError("face poset needs at least one vertex")
    faces = sorted(complex_.nonempty_faces(), key=lambda f: (len(f), f))
    elements = tuple((face_id(f), len(f) - 1) for f in faces)
    covers = []
    face_set = set(faces)
    for f in faces:
        if len(f) < 2:
            continue
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            if sub in face_set:
                covers.append((face_id(sub), face_id(f)))
    carrier_map = (
        {face_id(f): carrier[f] for f in faces} if carrier is not None else None
    )
    return FacePoset(elements, tuple(sorted(covers)), carrier_map, base)


def _order_complex(p: FacePoset, carrier: dict | None = None) -> tuple[SimplicialComplex, dict]:
    """Order complex of p and, given element carriers, each chain's carrier.

    Elements come in the dimension order of ``_above_masks``, so the chains
    ending below an element are complete when it is reached; they are pushed
    to every element above it and released.  By gradedness, the chains of
    dim + 1 elements topped by a maximal element are the maximal chains.
    """
    order, dimlist, above = p._above_masks()
    ends: list = [[[] for _ in range(k + 1)] for k in dimlist]  # [i][k]: k+1 elements
    by_dim: dict[int, set[Face]] = {-1: {()}}
    facets: list[Face] = []
    chain_carrier: dict[Face, Face] = {}
    for i, e in enumerate(order):
        sized, ends[i] = ends[i], None
        sized[0].append((e,))
        m = above[i]
        while m:
            j = (m & -m).bit_length() - 1
            label, target = order[j], ends[j]
            for k, chains in enumerate(sized):
                out = target[k + 1]
                for c in chains:
                    at = bisect(c, label)
                    out.append(c[:at] + (label,) + c[at:])
            m &= m - 1
        for k, chains in enumerate(sized):
            by_dim.setdefault(k, set()).update(chains)
            if carrier is not None:
                chain_carrier.update(zip(chains, repeat(carrier[e])))
        if not above[i]:
            facets += sized[-1]
    # the empty poset's order complex is the empty complex, with facet ()
    return SimplicialComplex._generated_by(facets or [()], by_dim), chain_carrier


def sd_complex(p: FacePoset) -> SimplicialComplex:
    """Order complex: vertices are poset elements, facets are maximal chains."""
    return _order_complex(p)[0]


def sd_subdivision(source: Subdivision | FacePoset) -> Subdivision:
    """Barycentric subdivision with the induced carrier map.

    The carrier of a chain is the carrier of its maximal element, so the
    restriction over a base face F is exactly the subdivision of the fibre
    over F.  Without a base of its own, the base is the simplex on every
    carrier label.
    """
    p = face_poset(source) if isinstance(source, Subdivision) else source
    if p.carrier is None:
        raise ValueError("carriers are required on every poset element")
    missing = {e for e, _ in p.elements} - p.carrier.keys()
    if missing:
        raise ValueError(f"carrier missing for {sorted(missing)[0]}")
    base = p.base
    if base is None:
        base = simplex(sorted({v for f in p.carrier.values() for v in f}))
    total, carrier = _order_complex(p, p.carrier)
    return Subdivision(base, total, carrier)


# -- flag vectors and the ab-index -------------------------------------------


def flag_vectors(p: FacePoset) -> tuple[dict[frozenset, int], dict[frozenset, int]]:
    """Chain counts f_S and their inclusion-exclusion transform h_S.

    S ranges over subsets of {1..rank}; a chain contributes to the S whose
    members are the chain dimensions plus one.  f of the empty set is 1 (the
    empty chain).  Chains are counted, not listed: ``ends[i]`` maps a
    dimension mask to the number of chains with top element i, and each
    element pushes its counts to every element above it, lowest dimension
    first.
    """
    d = p.rank
    order, dimlist, above = p._above_masks()
    ends: list[dict[int, int]] = [{1 << k: 1} for k in dimlist]
    f = [0] * (1 << d)
    f[0] = 1
    for i, counts in enumerate(ends):
        for mask, n in counts.items():
            f[mask] += n
        m = above[i]
        while m:
            j = (m & -m).bit_length() - 1
            bit = 1 << dimlist[j]
            target = ends[j]
            for mask, n in counts.items():
                target[mask | bit] = target.get(mask | bit, 0) + n
            m &= m - 1
    h = list(f)
    for k in range(d):
        for mask in range(1 << d):
            if mask >> k & 1:
                h[mask] -= h[mask ^ (1 << k)]

    def to_set(mask: int) -> frozenset:
        return frozenset(k + 1 for k in range(d) if mask & (1 << k))

    sets = [to_set(mask) for mask in range(1 << d)]
    return dict(zip(sets, f)), dict(zip(sets, h))


@dataclass(frozen=True)
class _WordPolynomial:
    """Noncommutative polynomial: sorted (word, coefficient) pairs of one degree."""

    degree: int
    coeffs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict[str, int]) -> "_WordPolynomial":
        clean = {w: c for w, c in coeffs.items() if c}
        for w in clean:
            cls._check_word(w, degree)
        return cls(degree, tuple(sorted(clean.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (w if c == 1 else f"{c}{w}") for w, c in self.coeffs
        ).replace("+ -", "- ")


class AbPolynomial(_WordPolynomial):
    """Noncommutative polynomial in a, b; keys are words of one fixed length."""

    @staticmethod
    def _check_word(w: str, degree: int):
        if len(w) != degree or set(w) - {"a", "b"}:
            raise ValueError(f"bad ab-word {w!r} for degree {degree}")

    def __sub__(self, other: "AbPolynomial") -> "AbPolynomial":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = self.as_dict()
        for w, c in other.coeffs:
            out[w] = out.get(w, 0) - c
        return AbPolynomial.from_dict(self.degree, out)

    def times_a(self) -> "AbPolynomial":
        return AbPolynomial.from_dict(
            self.degree + 1, {w + "a": c for w, c in self.coeffs}
        )

    def at_a_equals_one(self) -> Polynomial:
        """Substitute a := 1, turning each word into b^(number of b letters)."""
        out = [0] * (self.degree + 1)
        for w, c in self.coeffs:
            out[w.count("b")] += c
        return Polynomial(out)


class CdPolynomial(_WordPolynomial):
    """Noncommutative polynomial in c (degree 1) and d (degree 2)."""

    @staticmethod
    def _check_word(w: str, degree: int):
        if cd_word_degree(w) != degree:
            raise ValueError(f"cd-word {w!r} has degree {cd_word_degree(w)}")

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)

    def expand_ab(self) -> AbPolynomial:
        out: dict[str, int] = {}
        for w, c in self.coeffs:
            for word in _expand_cd_word(w):
                out[word] = out.get(word, 0) + c
        return AbPolynomial.from_dict(self.degree, out)

    def evaluate(self, c_value: Polynomial, d_value: Polynomial) -> Polynomial:
        """Substitute commuting polynomial values for the letters."""
        total = ZERO
        for w, coeff in self.coeffs:
            term = ONE
            for letter in w:
                term = term * (c_value if letter == "c" else d_value)
            total = total + coeff * term
        return total


@dataclass(frozen=True)
class NotExpressible:
    """Marker that an ab-polynomial has no cd-form.

    The witness ``residual`` is the first c/e-word (c = a+b, e = a-b, in
    lexicographic order) that has a nonzero coefficient and an odd run of e.
    """

    residual: str


def cd_word_degree(word: str) -> int:
    if set(word) - {"c", "d"}:
        raise ValueError(f"bad cd-word {word!r}")
    return sum(1 if ch == "c" else 2 for ch in word)


def _expand_cd_word(word: str) -> list[str]:
    words = [""]
    for letter in word:
        if letter == "c":
            words = [w + x for w in words for x in ("a", "b")]
        else:
            words = [w + x for w in words for x in ("ab", "ba")]
    return words


def ab_index(p: FacePoset) -> AbPolynomial:
    """Flag h generating polynomial: word u_S has b exactly in the positions of S."""
    d = p.rank
    _, h = flag_vectors(p)
    coeffs: dict[str, int] = {}
    for s, value in h.items():
        if value:
            word = "".join("b" if i + 1 in s else "a" for i in range(d))
            coeffs[word] = value
    return AbPolynomial.from_dict(d, coeffs)


# the cd-forms of the pieces of a c/e-word whose e-runs are even: ee = cc - 2d
_CD_FORMS = {"c": (("c", 1),), "ee": (("cc", 1), ("d", -2))}


def cd_extract(psi: AbPolynomial) -> CdPolynomial | NotExpressible:
    """Exact cd-form of an ab-polynomial, or a c/e-word witness if none exists.

    With a = (c+e)/2 and b = (c-e)/2, the coefficient of a c/e-word u in
    2^n psi is the sum over ab-words w of psi_w (-1)^(positions where w has b
    and u has e): an integer Walsh-Hadamard transform, in n 2^n steps.  As
    d = ab+ba = (c^2 - e^2)/2, psi has a cd-form exactly when every c/e-word
    with a nonzero coefficient splits into c and ee, and the cd-form follows
    by ee = cc - 2d.  The last division by 2^n is exact: the expansions of the
    cd-words have a unimodular minor (c -> a, d -> ba), so a cd-form of an
    integral psi is integral.
    """
    n = psi.degree
    size = 1 << n
    # bit n-1-i of an index is letter i of a word (b or e), so index order
    # is lexicographic word order
    v = [0] * size
    for w, c in psi.coeffs:
        v[sum(1 << (n - 1 - i) for i, x in enumerate(w) if x == "b")] = c
    half = 1
    while half < size:
        for i in range(size):
            if not i & half:
                v[i], v[i | half] = v[i] + v[i | half], v[i] - v[i | half]
        half <<= 1
    out: dict[str, int] = {}
    for u, value in enumerate(v):
        if not value:
            continue
        word = "".join("e" if u >> (n - 1 - i) & 1 else "c" for i in range(n))
        pieces = re.findall("ee|[ce]", word)
        if "e" in pieces:
            return NotExpressible(word)
        terms = [("", value)]
        for piece in pieces:
            terms = [(w + x, k * m) for w, k in terms for x, m in _CD_FORMS[piece]]
        for w, k in terms:
            out[w] = out.get(w, 0) + k
    return CdPolynomial.from_dict(n, {w: k // size for w, k in out.items()})


# -- boundary and the ball difference -----------------------------------------


def boundary_poset(p: FacePoset) -> FacePoset | None:
    """Order ideal generated by codimension-two elements covered exactly once.

    Returns None when no such elements exist and the poset has rank at least
    two (a closed complex), or when a rank-one poset has several cells (a
    closed zero-sphere).  The rank-one single cell is the degenerate ball
    whose boundary is the empty poset.
    """
    d = p.rank
    if d == 0:
        raise ValueError("rank-zero poset has no boundary")
    if d == 1:
        if len(p.elements) == 1:
            return FacePoset((), (), None, None)
        return None
    dims = p.dims
    cover_count: dict[str, int] = {e: 0 for e, _ in p.elements}
    for lo, up in p.covers:
        if dims[lo] == d - 2 and dims[up] == d - 1:
            cover_count[lo] += 1
    rim = {e for e, dim in p.elements if dim == d - 2 and cover_count[e] == 1}
    if not rim:
        return None
    order, _, above = p._above_masks()
    rim_mask = sum(1 << i for i, e in enumerate(order) if e in rim)
    keep = {e for i, e in enumerate(order) if ((1 << i) | above[i]) & rim_mask}
    elements = tuple((e, dim) for e, dim in p.elements if e in keep)
    covers = tuple((lo, up) for lo, up in p.covers if lo in keep and up in keep)
    carrier = (
        {e: f for e, f in p.carrier.items() if e in keep}
        if p.carrier is not None
        else None
    )
    return FacePoset(elements, covers, carrier, p.base)


@dataclass(frozen=True)
class BallDifference:
    """ab-difference of a ball poset against its boundary, with its cd-form;
    ab_index is the ball's own ab-index."""

    ab: AbPolynomial
    cd: CdPolynomial | NotExpressible
    closed: bool
    ab_index: AbPolynomial

    @property
    def degree(self) -> int:
        return self.ab.degree

    @property
    def difference(self) -> Polynomial:
        """h(order complex) minus h(its boundary): the ab-difference at a = 1."""
        return self.ab.at_a_equals_one()


def ek_difference(source: FacePoset | SimplicialComplex) -> BallDifference:
    """ab-index of a ball minus the a-padded ab-index of its boundary.

    The caller asserts the input is (the face poset of) a ball; closed input
    is accepted with a zero boundary index, which makes the difference the
    plain ab-index.  Everything comes from flag vectors: the order complex
    is never built, so a poset that is not a pseudomanifold is not refused
    here (``serialize`` refuses it for poset files).
    """
    p = face_poset(source) if isinstance(source, SimplicialComplex) else source
    if p.rank == 0:
        raise ValueError("rank-zero poset")
    psi = ab_index(p)
    bp = boundary_poset(p)
    closed = bp is None
    if closed:
        diff_ab = psi
    else:
        diff_ab = psi - ab_index(bp).times_a()
    return BallDifference(diff_ab, cd_extract(diff_ab), closed, psi)
