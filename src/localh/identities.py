"""Independent computation paths for the local h-polynomial and boundary
h-vectors, cross-checked against the direct definitions.

Three routes to the local h-polynomial of a subdivision of a simplex must
agree exactly:

* Stanley's sum over restrictions, taken face by face (``Subdivision.local_h``);
* a boundary recursion: h of the whole minus h of its boundary plus
  geometric-block-weighted local h's of the proper restrictions;
* a derangement expansion: restriction-vs-boundary h differences times
  derangement polynomials of complementary order.

The empty restriction uses the conventions h = 1 and boundary h = 0, fixed
in one shared helper so all routes agree by construction of conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import Face, subsets
from .constructions import trivial_on
from .permstats import EnumerationBoundError, derangement_enum, derangement_recurrence
from .polynomials import ONE, ZERO, Polynomial, gamma_extract, geometric_block, is_unimodal
from .subdivisions import BaseNotSimplexError, Subdivision


def boundary_h_from_h(h: Polynomial, d: int) -> Polynomial:
    """Boundary h-vector of a ball from partial sums of h-coefficient gaps.

    Entry i of the result is the sum over j <= i of h_j - h_(d-j); requires
    the ball condition h_d = 0.
    """
    coeffs = h.padded(d)
    if coeffs[d] != 0:
        raise ValueError(f"top coefficient must vanish for a ball, got {coeffs[d]}")
    out = []
    running = 0
    for i in range(d):
        running += coeffs[i] - coeffs[d - i]
        out.append(running)
    return Polynomial(out)


def _restriction_h_difference(s: Subdivision, face: Face) -> Polynomial:
    """h of a restriction minus h of its boundary; 1 for the empty restriction."""
    if not face:
        return ONE
    return s.subset_h(face) - s.subset_boundary_h(face)


def local_h_via_boundary_recursion(s: Subdivision) -> Polynomial:
    """Local h by recursing on restriction-minus-boundary h differences."""
    if not s.base_is_simplex:
        raise BaseNotSimplexError("recursion requires a simplex base")
    return _ell(s, s.base.vertices, {(): ONE})


def _ell(s: Subdivision, face: Face, memo: dict[Face, Polynomial]) -> Polynomial:
    """The recursion's local h of the restriction to a face, memoized.  A
    module function, not a closure over s: a closure that calls itself is a
    reference cycle, which would keep s alive until the cyclic collector runs."""
    if face in memo:
        return memo[face]
    total = _restriction_h_difference(s, face)
    for sub in subsets(face):
        # the block is zero for the face itself and its facets, and
        # ell is zero on every simplex restriction
        block = geometric_block(1, len(face) - len(sub) - 1)
        if block and (part := _ell(s, sub, memo)):
            total = total + part * block
    memo[face] = total
    return total


def local_h_via_derangements(s: Subdivision) -> Polynomial:
    """Local h as the derangement-weighted sum of boundary h differences."""
    if not s.base_is_simplex:
        raise BaseNotSimplexError("derangement expansion requires a simplex base")
    verts = s.base.vertices
    d = len(verts)
    total = ZERO
    for face in subsets(verts):
        diff = _restriction_h_difference(s, face)
        if diff:
            total = total + diff * derangement_recurrence(d - len(face))
    return total


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    lhs: tuple[int, ...] | None
    rhs: tuple[int, ...] | None
    match: bool | None  # None means skipped
    note: str = ""

    @property
    def skipped(self) -> bool:
        return self.match is None


@dataclass(frozen=True)
class IdentityReport:
    records: tuple[IdentityRecord, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.records if r.match is not None)

    def to_json(self) -> dict:
        return {
            "identities": [
                {
                    "name": r.name,
                    "lhs": list(r.lhs) if r.lhs is not None else None,
                    "rhs": list(r.rhs) if r.rhs is not None else None,
                    "match": r.match,
                    "note": r.note,
                }
                for r in self.records
            ],
            "all_match": self.all_match,
        }

    def to_table(self) -> str:
        rows = []
        width = max(len(r.name) for r in self.records)
        for r in self.records:
            status = "skip" if r.skipped else ("ok" if r.match else "FAIL")
            detail = ""
            if r.lhs is not None and r.rhs is not None:
                detail = f"  {list(r.lhs)} vs {list(r.rhs)}"
            elif r.lhs is not None:
                detail = f"  {list(r.lhs)}"
            if r.note:
                detail += f"  ({r.note})"
            rows.append(f"{r.name:<{width}}  {status:<4}{detail}")
        verdict = "all identities hold" if self.all_match else "MISMATCH"
        return "\n".join(rows + [verdict])


@lru_cache(maxsize=None)
def _bary_local_h(d: int) -> Polynomial:
    """Local h of the barycentric subdivision of the simplex on d vertices."""
    return trivial_on(d).bary_local_h()


# The records that need a simplex base, in report order; every one is
# skipped on any other base.
SIMPLEX_RECORDS = (
    "boundary-recursion",
    "derangement-expansion",
    "boundary-partial-sums",
    "local-h-symmetry",
    "quasi-geometric-nonnegativity",
    "gamma",
    "derangement-recurrence",
    "bary-local-h",
)


def _compared(lhs: Polynomial, rhs: Polynomial, pad_to: int) -> tuple:
    """Record fields of an equality, both sides padded to the same length."""
    return lhs.padded(pad_to), rhs.padded(pad_to), lhs == rhs


def _skipped(note: str) -> tuple:
    return None, None, None, note


def _simplex_fields(s: Subdivision):
    """Yield the fields of each record of SIMPLEX_RECORDS, in order."""
    d = len(s.base.vertices)
    direct = s.local_h()
    for route in (local_h_via_boundary_recursion, local_h_via_derangements):
        try:
            other = route(s)
        except ValueError as exc:
            yield direct.padded(d), None, False, str(exc)
            continue
        yield _compared(direct, other, max(d, other.degree or 0))

    bad = []
    for face in subsets(s.base.vertices):
        if not face:
            continue
        h_f = s.subset_h(face)
        try:
            predicted = boundary_h_from_h(h_f, len(face))
            matches = predicted == s.subset_boundary_h(face)
        except ValueError:
            matches = False
        if not matches:
            bad.append(face)
    yield None, None, not bad, "" if not bad else f"fails at {','.join(bad[0])}"

    sym = direct.is_symmetric(d)
    ell = direct.padded(d)
    sym = sym and ell[0] == 0 and (d < 1 or ell[1] >= 0)
    yield ell, tuple(reversed(ell)), sym

    if s.is_quasi_geometric():
        yield ell, None, all(c >= 0 for c in ell)
    else:
        yield _skipped("not quasi-geometric")

    note = f"unimodal={is_unimodal(ell)}"
    if sym:
        yield gamma_extract(direct, d).gammas, None, True, note
    else:
        yield None, None, None, note

    try:
        enum = derangement_enum(d)
    except EnumerationBoundError:
        yield from [_skipped("enumeration bound")] * 2
        return
    yield _compared(enum, derangement_recurrence(d), d)
    yield _compared(_bary_local_h(d), enum, d)


def verify_all(s: Subdivision) -> IdentityReport:
    """Run every identity check that applies to the given subdivision."""
    if s.base.is_pure:
        lhs = s.h_via_locality()
        rhs = s.total.h_polynomial()
        locality = _compared(lhs, rhs, max(s.base.dim + 1, lhs.degree or 0, rhs.degree or 0))
    else:
        locality = _skipped("base not pure")
    if s.base_is_simplex:
        rest = _simplex_fields(s)
    else:
        rest = [_skipped("base not a simplex")] * len(SIMPLEX_RECORDS)
    records = zip(("locality", *SIMPLEX_RECORDS), (locality, *rest), strict=True)
    return IdentityReport(tuple(IdentityRecord(name, *fields) for name, fields in records))
