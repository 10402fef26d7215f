"""Face posets of regular cell complexes, barycentric subdivision as the
order complex, flag f/h-vectors, and the ab/cd-index machinery.

A poset is given by elements (id, dimension) and cover relations; the order
relation is the transitive closure of the covers.  Gradedness is enforced:
covers must increase dimension and every maximal chain must run through
consecutive dimensions starting at 0.

A raw poset is taken on faith as the face poset of a regular cell complex;
regularity of attachments cannot be checked combinatorially, and for
nonregular input the order complex need not be homeomorphic to the intended
space.  Boundaries of raw posets follow the documented convention: the order
ideal generated by codimension-two elements covered by exactly one
codimension-one element (this provably matches the simplicial boundary when
the poset comes from a complex).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Face, SimplicialComplex, canonical_face
from .polynomials import ONE, ZERO, Polynomial
from .subdivisions import Subdivision


class UngradedPosetError(ValueError):
    """Raised when covers or maximal chains violate gradedness."""


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
        dim = dict(self.elements)
        for lo, up in self.covers:
            if lo not in dim or up not in dim:
                raise ValueError(f"cover ({lo}, {up}) references unknown element")
            if dim[up] <= dim[lo]:
                raise UngradedPosetError(
                    f"cover ({lo}, {up}) does not increase dimension"
                )
        for e, d in self.elements:
            if d < 0:
                raise ValueError(f"element {e} has negative dimension")
        if self.carrier is not None:
            self.carrier = {e: canonical_face(f) for e, f in self.carrier.items()}
        self._check_graded()

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

    def _up(self) -> dict[str, list[str]]:
        if "up" not in self._derived:
            up: dict[str, list[str]] = {e: [] for e, _ in self.elements}
            for lo, hi in self.covers:
                up[lo].append(hi)
            for lst in up.values():
                lst.sort()
            self._derived["up"] = up
        return self._derived["up"]

    def maximal_chains(self) -> list[tuple[str, ...]]:
        if "chains" not in self._derived:
            up = self._up()
            has_lower = {hi for _, hi in self.covers}
            minimal = sorted(e for e, _ in self.elements if e not in has_lower)
            chains: list[tuple[str, ...]] = []
            stack = [(e,) for e in reversed(minimal)]
            while stack:
                chain = stack.pop()
                ups = up[chain[-1]]
                if not ups:
                    chains.append(chain)
                else:
                    for nxt in reversed(ups):
                        stack.append(chain + (nxt,))
            self._derived["chains"] = chains
        return self._derived["chains"]

    def _check_graded(self):
        dims = self.dims
        for chain in self.maximal_chains():
            got = [dims[e] for e in chain]
            if got != list(range(len(chain))):
                raise UngradedPosetError(
                    f"maximal chain {chain} has dimensions {got}, "
                    f"expected consecutive from 0"
                )

    def _above_masks(self) -> tuple[list[str], list[int], list[int]]:
        """Element order, dimension list, and strict-upset bitmask per element."""
        if "above" not in self._derived:
            order = sorted(
                (e for e, _ in self.elements), key=lambda e: (self.dims[e], e)
            )
            index = {e: i for i, e in enumerate(order)}
            dimlist = [self.dims[e] for e in order]
            up = self._up()
            masks = [0] * len(order)
            for e in sorted(order, key=lambda e: -self.dims[e]):
                m = 0
                for nxt in up[e]:
                    j = index[nxt]
                    m |= (1 << j) | masks[j]
                masks[index[e]] = m
            self._derived["above"] = (order, dimlist, masks)
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


def sd_complex(p: FacePoset) -> SimplicialComplex:
    """Order complex: vertices are poset elements, facets are maximal chains."""
    if not p.elements:
        return SimplicialComplex([()])
    return SimplicialComplex(p.maximal_chains())


def sd_subdivision(source: Subdivision | FacePoset) -> Subdivision:
    """Barycentric subdivision with the induced carrier map.

    The carrier of a chain is the carrier of its maximal element, so the
    restriction over a base face F is exactly the subdivision of the fibre
    over F.
    """
    p = face_poset(source) if isinstance(source, Subdivision) else source
    if p.carrier is None:
        raise ValueError("carriers are required on every poset element")
    missing = {e for e, _ in p.elements} - p.carrier.keys()
    if missing:
        raise ValueError(f"carrier missing for {sorted(missing)[0]}")
    base = p.base
    if base is None:
        from .complexes import simplex

        labels = sorted({v for f in p.carrier.values() for v in f})
        base = simplex(labels)
    total = sd_complex(p)
    dims = p.dims
    carrier: dict[Face, Face] = {}
    for chain in total.nonempty_faces():
        top = max(chain, key=lambda e: dims[e])
        carrier[chain] = p.carrier[top]
    return Subdivision(base, total, carrier)


# -- flag vectors and the ab-index -------------------------------------------


def flag_vectors(p: FacePoset) -> tuple[dict[frozenset, int], dict[frozenset, int]]:
    """Chain counts f_S and their inclusion-exclusion transform h_S.

    S ranges over subsets of {1..rank}; a chain contributes to the S whose
    members are the chain dimensions plus one.  f of the empty set is 1 (the
    empty chain).
    """
    d = p.rank
    order, dimlist, above = p._above_masks()
    n = len(order)
    f_mask: dict[int, int] = {0: 1}

    def visit(i: int, mask: int):
        f_mask[mask] = f_mask.get(mask, 0) + 1
        m = above[i]
        while m:
            j = (m & -m).bit_length() - 1
            visit(j, mask | (1 << dimlist[j]))
            m &= m - 1

    for i in range(n):
        visit(i, 1 << dimlist[i])

    def to_set(mask: int) -> frozenset:
        return frozenset(k + 1 for k in range(d) if mask & (1 << k))

    h: dict[frozenset, int] = {}
    all_masks = list(range(1 << d))
    for sm in all_masks:
        total = 0
        sub = sm
        while True:
            term = f_mask.get(sub, 0)
            sign = -1 if (sm.bit_count() - sub.bit_count()) % 2 else 1
            total += sign * term
            if sub == 0:
                break
            sub = (sub - 1) & sm
        h[to_set(sm)] = total
    f_full = {to_set(m): f_mask.get(m, 0) for m in all_masks}
    return f_full, h


@dataclass(frozen=True)
class AbPolynomial:
    """Noncommutative polynomial in a, b; keys are words of one fixed length."""

    degree: int
    coeffs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict[str, int]) -> "AbPolynomial":
        clean = {w: c for w, c in coeffs.items() if c}
        for w in clean:
            if len(w) != degree or set(w) - {"a", "b"}:
                raise ValueError(f"bad ab-word {w!r} for degree {degree}")
        return cls(degree, tuple(sorted(clean.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

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

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (w if c == 1 else f"{c}{w}") for w, c in self.coeffs
        ).replace("+ -", "- ")


@dataclass(frozen=True)
class CdPolynomial:
    """Noncommutative polynomial in c (degree 1) and d (degree 2)."""

    degree: int
    coeffs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict[str, int]) -> "CdPolynomial":
        clean = {w: c for w, c in coeffs.items() if c}
        for w in clean:
            if cd_word_degree(w) != degree:
                raise ValueError(f"cd-word {w!r} has degree {cd_word_degree(w)}")
        return cls(degree, tuple(sorted(clean.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

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

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (w if c == 1 else f"{c}{w}") for w, c in self.coeffs
        ).replace("+ -", "- ")


@dataclass(frozen=True)
class NotExpressible:
    """Marker that an ab-polynomial has no cd-form, with a residual witness word."""

    residual: str


def cd_word_degree(word: str) -> int:
    if set(word) - {"c", "d"}:
        raise ValueError(f"bad cd-word {word!r}")
    return sum(1 if ch == "c" else 2 for ch in word)


def cd_words(degree: int) -> list[str]:
    """All cd-words of the given degree (compositions into parts 1 and 2)."""
    if degree == 0:
        return [""]
    out = []
    if degree >= 1:
        out += ["c" + w for w in cd_words(degree - 1)]
    if degree >= 2:
        out += ["d" + w for w in cd_words(degree - 2)]
    return sorted(out)


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


def cd_extract(psi: AbPolynomial) -> CdPolynomial | NotExpressible:
    """Exact cd-form of an ab-polynomial, or a residual witness if none exists.

    Every cd-word of the right degree is expanded into ab-words, the exact
    linear system is solved over the rationals, and the candidate must be
    integral and reproduce the input exactly (the round trip is the gate;
    failures return the first mismatching ab-word).
    """
    degree = psi.degree
    words = cd_words(degree)
    ab_words = sorted({w for cw in words for w in _expand_cd_word(cw)} | set(psi.as_dict()))
    row_index = {w: i for i, w in enumerate(ab_words)}
    # columns: cd-words; rows: ab-words
    matrix = [[Fraction(0)] * len(words) for _ in ab_words]
    for j, cw in enumerate(words):
        for w in _expand_cd_word(cw):
            matrix[row_index[w]][j] += 1
    rhs = [Fraction(0)] * len(ab_words)
    for w, c in psi.coeffs:
        rhs[row_index[w]] = Fraction(c)

    solution = _solve_from_pivots(matrix, rhs)
    if any(value.denominator != 1 for value in solution):
        return NotExpressible(psi.coeffs[0][0] if psi.coeffs else "")
    candidate = CdPolynomial.from_dict(
        degree, {cw: int(v) for cw, v in zip(words, solution) if v}
    )
    if candidate.expand_ab() != psi:
        diff = candidate.expand_ab() - psi
        return NotExpressible(diff.coeffs[0][0] if diff.coeffs else "")
    return candidate


def _solve_from_pivots(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Gaussian elimination over the rationals; the candidate read off the
    pivot rows, ignoring inconsistent leftover rows (callers verify)."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    solution = [Fraction(0)] * cols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][cols]
    return solution


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
    rim = sorted(
        e for e, dim in p.elements if dim == d - 2 and cover_count[e] == 1
    )
    if not rim:
        return None
    below: dict[str, set[str]] = {e: set() for e, _ in p.elements}
    order = sorted((e for e, _ in p.elements), key=lambda e: dims[e])
    for lo, up in p.covers:
        below[up].add(lo)
    for e in order:
        extra = set()
        for b in below[e]:
            extra |= below[b]
        below[e] |= extra
    keep = set(rim)
    for e in rim:
        keep |= below[e]
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
    """ab-difference of a ball poset against its boundary, with cd-form and
    the independently computed h-polynomial difference of the order complexes;
    ab_index is the ball's own ab-index."""

    ab: AbPolynomial
    cd: CdPolynomial | NotExpressible
    difference: Polynomial
    closed: bool
    ab_index: AbPolynomial

    @property
    def degree(self) -> int:
        return self.ab.degree


def ek_difference(source: FacePoset | SimplicialComplex) -> BallDifference:
    """ab-index of a ball minus the a-padded ab-index of its boundary.

    The caller asserts the input is (the face poset of) a ball; closed input
    is accepted with a zero boundary index, which makes the difference the
    plain ab-index.  The returned polynomial difference is recomputed from
    the order complex and its simplicial boundary, independent of the flag
    route.
    """
    p = face_poset(source) if isinstance(source, SimplicialComplex) else source
    d = p.rank
    if d == 0:
        raise ValueError("rank-zero poset")
    psi = ab_index(p)
    bp = boundary_poset(p)
    closed = bp is None
    if closed:
        diff_ab = psi
    else:
        diff_ab = psi - ab_index(bp).times_a()
    cd = cd_extract(diff_ab)
    order = sd_complex(p)
    h_top = order.h_polynomial()
    rim = order.boundary()
    h_rim = ZERO if rim.is_void else rim.h_polynomial()
    return BallDifference(diff_ab, cd, h_top - h_rim, closed, psi)
