"""Independent computation paths for the local h-polynomial and boundary
h-vectors, cross-checked against the direct definitions.

Three routes to the local h-polynomial of a subdivision of a simplex must
agree exactly:

* the direct alternating sum over restrictions (``Subdivision.local_h``);
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


def h_difference_partial_sums(h: Polynomial, d: int) -> Polynomial:
    """h minus its boundary h, directly from partial sums of h_(d-j-1) - h_j.

    Consistent with boundary_h_from_h by construction: subtracting the
    partial-sum boundary formula from h telescopes to exactly these sums.
    """
    coeffs = h.padded(d)
    if coeffs[d] != 0:
        raise ValueError(f"top coefficient must vanish for a ball, got {coeffs[d]}")
    out = []
    running = 0
    for i in range(d + 1):
        out.append(running)
        if i < d:
            running += coeffs[d - i - 1] - coeffs[i]
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
    verts = s.base.vertices
    memo: dict[Face, Polynomial] = {(): ONE}

    def ell(face: Face) -> Polynomial:
        if face in memo:
            return memo[face]
        total = _restriction_h_difference(s, face)
        for sub in subsets(face):
            # the block is zero for the face itself and its facets
            block = geometric_block(1, len(face) - len(sub) - 1)
            if block:
                total = total + ell(sub) * block
        memo[face] = total
        return total

    return ell(verts)


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
    from .constructions import trivial_on
    from .posets import sd_subdivision

    return sd_subdivision(trivial_on(d)).local_h()


def verify_all(s: Subdivision) -> IdentityReport:
    """Run every identity check that applies to the given subdivision."""
    records: list[IdentityRecord] = []

    if s.base.is_pure:
        lhs = s.h_via_locality()
        rhs = s.total.h_polynomial()
        d = max(s.base.dim + 1, lhs.degree or 0, rhs.degree or 0)
        records.append(
            IdentityRecord("locality", lhs.padded(d), rhs.padded(d), lhs == rhs)
        )
    else:
        records.append(IdentityRecord("locality", None, None, None, "base not pure"))

    if s.base_is_simplex:
        d = len(s.base.vertices)
        direct = s.local_h()
        for name, route in (
            ("boundary-recursion", local_h_via_boundary_recursion),
            ("derangement-expansion", local_h_via_derangements),
        ):
            try:
                other = route(s)
            except ValueError as exc:
                records.append(
                    IdentityRecord(name, direct.padded(d), None, False, str(exc))
                )
                continue
            pad_to = max(d, other.degree or 0)
            records.append(
                IdentityRecord(
                    name, direct.padded(pad_to), other.padded(pad_to), direct == other
                )
            )

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
        records.append(
            IdentityRecord(
                "boundary-partial-sums",
                None,
                None,
                not bad,
                "" if not bad else f"fails at {','.join(bad[0])}",
            )
        )

        sym = direct.is_symmetric(d)
        ell = direct.padded(d)
        sym = sym and ell[0] == 0 and (d < 1 or ell[1] >= 0)
        records.append(
            IdentityRecord("local-h-symmetry", ell, tuple(reversed(ell)), sym)
        )

        if s.is_quasi_geometric():
            records.append(
                IdentityRecord(
                    "quasi-geometric-nonnegativity",
                    ell,
                    None,
                    all(c >= 0 for c in ell),
                )
            )
        else:
            records.append(
                IdentityRecord(
                    "quasi-geometric-nonnegativity",
                    None,
                    None,
                    None,
                    "not quasi-geometric",
                )
            )

        gamma = gamma_extract(direct, d) if sym else None
        records.append(
            IdentityRecord(
                "gamma",
                gamma.gammas if gamma else None,
                None,
                True if gamma else None,
                f"unimodal={is_unimodal(ell)}",
            )
        )

        try:
            enum = derangement_enum(d)
            rec_d = derangement_recurrence(d)
            records.append(
                IdentityRecord(
                    "derangement-recurrence",
                    enum.padded(d),
                    rec_d.padded(d),
                    enum == rec_d,
                )
            )
        except EnumerationBoundError:
            records.append(
                IdentityRecord(
                    "derangement-recurrence", None, None, None, "enumeration bound"
                )
            )

        if d <= 7:
            lhs_b = _bary_local_h(d)
            try:
                rhs_b = derangement_enum(d)
                records.append(
                    IdentityRecord(
                        "bary-local-h",
                        lhs_b.padded(d),
                        rhs_b.padded(d),
                        lhs_b == rhs_b,
                    )
                )
            except EnumerationBoundError:
                records.append(
                    IdentityRecord(
                        "bary-local-h", None, None, None, "enumeration bound"
                    )
                )
        else:
            records.append(
                IdentityRecord("bary-local-h", None, None, None, "base too large")
            )
    else:
        for name in (
            "boundary-recursion",
            "derangement-expansion",
            "boundary-partial-sums",
            "local-h-symmetry",
            "quasi-geometric-nonnegativity",
            "gamma",
            "derangement-recurrence",
            "bary-local-h",
        ):
            records.append(
                IdentityRecord(name, None, None, None, "base not a simplex")
            )

    return IdentityReport(tuple(records))
