"""Shared corpus for the acceptance suite.

One session-scoped pass builds the generated corpus (seeds 0..99, base
dimension capped at 5, up to 6 construction steps) together with each
member's barycentric subdivision, evaluates every per-member check the
acceptance criteria need, the weak-ball check among them, and keeps only
small summary records so memory stays bounded.
"""

from __future__ import annotations

import math
import pathlib
import random
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass, field
from itertools import combinations

import pytest

from localh import serialize, subdivisions
from localh.cli import _invariants, _record
from localh.complexes import NotPureError, RidgeInThreeFacetsError
from localh.constructions import random_subdivision, trivial_on
from localh.identities import (
    boundary_h_from_h,
    local_h_via_boundary_recursion,
    local_h_via_derangements,
)
from localh.polynomials import ZERO, Polynomial
from localh.posets import (
    CdPolynomial,
    ek_difference,
    face_poset,
    sd_complex,
    sd_subdivision,
)
from localh.subdivisions import FaceCheck, Subdivision, ValidityReport

CORPUS_SEEDS = range(100)
CORPUS_MAX_D = 5
CORPUS_MAX_STEPS = 6
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@dataclass
class MemberSummary:
    seed: int
    bary: bool
    d: int
    local_h: tuple[int, ...]
    gamma: tuple[int, ...]
    quasi_geometric: bool
    vertex_induced: bool
    failures: list[str] = field(default_factory=list)
    # bary rows only: bary_local_h of the member, and the search record of
    # sd read off the member's face counts next to the one of the built sd
    chain_local_h: tuple[int, ...] | None = None
    sd_records: tuple[dict, dict] | None = None


def oracle_local_h(s):
    """Independent route: naive per-subset membership scan and naive h from
    scratch, no shared code with the library implementation.  The faces are
    scanned once per distinct (carrier, size) pair, not once per subset."""
    verts = s.base.vertices
    d = len(verts)
    kinds = Counter((frozenset(c), len(g)) for g, c in s.carrier.items())
    total = [0] * (d + 1)
    for k in range(d + 1):
        for sub in combinations(verts, k):
            card = Counter()
            for (carrier, size), n in kinds.items():
                if carrier <= set(sub):
                    card[size] += n
            sign = (-1) ** (d - k)
            for i, c in enumerate(naive_h(card)):
                total[i] += sign * c
    return Polynomial(total)


def naive_h(card):
    """h-vector from the number of nonempty faces of each size."""
    top = max(card, default=0)
    f = [1] + [card[j] for j in range(1, top + 1)]
    return [
        sum((-1) ** (i - j) * math.comb(top - j, i - j) * f[j] for j in range(i + 1))
        for i in range(top + 1)
    ]


def table_local_h(counts, n):
    """Stanley's definition read off the library's subset-h table: the signed
    sum over subset masks of each restriction's h, in its own dimension.
    The oracle of the face sum in ``subdivisions._local_h``."""
    table = subdivisions._h_table(counts, n)
    return sum((h * (-1) ** (n - m.bit_count()) for m, h in table.items()), ZERO)


def oracle_boundary_h(s, face) -> Polynomial:
    """h of the boundary of the restriction to a base face, from the complexes
    themselves: ``restriction_complex``, its ``boundary()`` and the boundary's
    ``h_polynomial``, zero when it is void.  The oracle of
    ``Subdivision.subset_boundary_h``."""
    rim = s.restriction_complex(face).boundary()
    return ZERO if rim.is_void else rim.h_polynomial()


def oracle_validate(s) -> ValidityReport:
    """The weak-ball check restriction by restriction, each built as its own
    complex: ``restriction_complex``, ``is_pure``, ``boundary()``,
    ``betti_z2`` and the interior as a set of faces.  The oracle of the
    incidence pass in ``Subdivision.validate``."""
    checks = []
    for face in sorted(s.base.nonempty_faces()):
        failures = []
        k = s.restriction_complex(face)
        if k.dim < 0:
            checks.append(FaceCheck(face, ("nonvoid",)))
            continue
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
            want = (0,) * (len(face) - 2) + (1,)
            if (
                boundary.is_void
                or boundary.dim != len(face) - 2
                or boundary.betti_z2() != want
            ):
                failures.append("boundary-betti-sphere")
        if boundary is not None:
            preimage = {g for g, f in s.carrier.items() if f == face}
            if k.nonempty_faces() - boundary.nonempty_faces() != preimage:
                failures.append("interior-condition")
        checks.append(FaceCheck(face, tuple(failures)))
    monotone = all(
        set(s.carrier[g[:i] + g[i + 1 :]]) <= set(f)
        for g, f in s.carrier.items()
        if len(g) > 1
        for i in range(len(g))
    )
    return ValidityReport(tuple(checks), monotone)


def mutate_carrier(s, rng, monotone: bool):
    """``s`` with the carrier of one face, picked by ``rng``, moved to another
    base face; None when no face admits such a move.  With ``monotone`` the
    new carrier lies between the union of the carriers of the face's facets
    and the intersection of those of the faces one vertex larger holding it
    (all base vertices for a facet), so monotone carriers stay monotone;
    otherwise it lies outside that interval, so they stop being monotone."""
    carrier = {g: frozenset(f) for g, f in s.carrier.items()}
    facets = {g: [g[:i] + g[i + 1 :] for i in range(len(g))] if len(g) > 1 else [] for g in carrier}
    cofaces: dict = {}
    for g, fs in facets.items():
        for f in fs:
            cofaces.setdefault(f, []).append(g)
    verts = frozenset(s.base.vertices)
    bases = sorted(s.base.nonempty_faces())
    moves = []
    for g in sorted(carrier):
        lo = frozenset().union(*(carrier[f] for f in facets[g]))
        hi = verts.intersection(*(carrier[c] for c in cofaces.get(g, ())))
        options = [f for f in bases if f != s.carrier[g] and (lo <= set(f) <= hi) == monotone]
        if options:
            moves.append((g, options))
    if not moves:
        return None
    g, options = rng.choice(moves)
    moved = dict(s.carrier)
    moved[g] = rng.choice(options)
    return Subdivision(s.base, s.total, moved)


def carrier_mutants(seeds, per_seed: int = 2):
    """(name, subdivision) pairs: per corpus seed, ``per_seed`` mutants of
    the member that keep its carriers monotone and ``per_seed`` that do
    not, each drawn by ``random.Random`` seeded with the seed and kind."""
    out = []
    for seed in seeds:
        member, _ = random_subdivision(seed, CORPUS_MAX_D, seed % (CORPUS_MAX_STEPS + 1))
        for monotone in (True, False):
            rng = random.Random(f"{seed}:{monotone}")
            for i in range(per_seed):
                mutant = mutate_carrier(member, rng, monotone)
                if mutant is not None:
                    kind = "monotone" if monotone else "broken"
                    out.append((f"corpus{seed}-{kind}{i}", mutant))
    return out


def _identity_failures(s) -> list[str]:
    out = []
    direct = s.local_h()
    if direct != table_local_h(s._face_counts(), len(s.base.vertices)):
        out.append("face-sum vs table-route mismatch")
    if direct != oracle_local_h(s):
        out.append("face-sum vs naive-oracle mismatch")
    if local_h_via_boundary_recursion(s) != direct:
        out.append("boundary-recursion mismatch")
    if local_h_via_derangements(s) != direct:
        out.append("derangement-expansion mismatch")
    if s.h_via_locality() != s.total.h_polynomial():
        out.append("locality mismatch")
    return out


def _boundary_formula_failures(s) -> list[str]:
    out = []
    verts = s.base.vertices
    for k in range(1, len(verts) + 1):
        for face in combinations(verts, k):
            h_f = s.subset_h(face)
            try:
                predicted = boundary_h_from_h(h_f, k)
            except ValueError:
                out.append(f"restriction {face} is not a ball")
                continue
            if predicted != s.subset_boundary_h(face):
                out.append(f"boundary formula fails at {face}")
    return out


def _order_complex_difference(restriction) -> Polynomial:
    """h(sd Gamma_F) - h(its boundary), from the order complex itself, so the
    flag route in ``ek_difference`` is checked against an independent value."""
    order = sd_complex(face_poset(restriction))
    rim = order.boundary()
    return order.h_polynomial() - (ZERO if rim.is_void else rim.h_polynomial())


def _ek_failures(s, cache: dict) -> list[str]:
    out = []
    x = Polynomial([0, 1])
    one_plus_x = Polynomial([1, 1])
    verts = s.base.vertices
    for k in range(1, min(len(verts), 4) + 1):
        for face in combinations(verts, k):
            restriction = s.restriction_complex(face)
            key = restriction.facets
            if key not in cache:
                cache[key] = (ek_difference(restriction), _order_complex_difference(restriction))
            result, difference = cache[key]
            coeffs = difference.padded(k)
            if coeffs != tuple(reversed(coeffs)):
                out.append(f"cd difference not symmetric at {face}")
            if result.difference != difference:
                out.append(f"flag-route difference mismatch at {face}")
            if not isinstance(result.cd, CdPolynomial):
                out.append(f"cd not expressible at {face}: {result.cd.residual}")
                continue
            if not result.cd.is_nonnegative:
                out.append(f"cd has a negative coefficient at {face}")
            if result.cd.evaluate(one_plus_x, 2 * x) != difference:
                out.append(f"cd evaluation mismatch at {face}")
    return out


def _summaries():
    ek_cache: dict = {}
    records = []
    for seed in CORPUS_SEEDS:
        s, word = random_subdivision(seed, CORPUS_MAX_D, seed % (CORPUS_MAX_STEPS + 1))
        bary = sd_subdivision(s)
        for sub, is_bary in ((s, False), (bary, True)):
            d = len(sub.base.vertices)
            failures = _identity_failures(sub)
            failures += _boundary_formula_failures(sub)
            validity = sub.validate()
            if not validity.valid:
                failures.append(f"weak-ball check fails: {validity.verdict}")
            if validity != oracle_validate(sub):
                failures.append("weak-ball check differs from oracle_validate")
            if not is_bary:
                failures += _ek_failures(sub, ek_cache)
            local = sub.local_h()
            records.append(
                MemberSummary(
                    seed=seed,
                    bary=is_bary,
                    d=d,
                    local_h=local.padded(d),
                    gamma=sub.local_gamma().gammas,
                    quasi_geometric=sub.is_quasi_geometric().holds,
                    vertex_induced=sub.is_vertex_induced().holds,
                    failures=failures,
                )
            )
        records[-1].chain_local_h = s.bary_local_h().padded(d)
        records[-1].sd_records = (
            _record(seed, word, d, *_invariants(s, sd=True)),
            _record(seed, word, d, *_invariants(bary)),
        )
    return records


@pytest.fixture(scope="session")
def corpus_summaries():
    return _summaries()


@pytest.fixture(scope="session")
def sd_sources():
    """(name, subdivision or poset) pairs on which barycentric subdivision is
    compared with its oracles: every shipped fixture, the simplex on 1..5
    vertices and the first 20 corpus members."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        obj = serialize.load_json(str(path))
        if serialize.detect_kind(obj) == "poset":
            out.append((path.stem, serialize.poset_from_obj(obj)))
        else:
            out.append((path.stem, serialize.subdivision_from_obj(obj)))
    out += [(f"simplex{n}", trivial_on(n)) for n in range(1, 6)]
    for seed in range(20):
        member, _ = random_subdivision(seed, CORPUS_MAX_D, seed % (CORPUS_MAX_STEPS + 1))
        out.append((f"corpus{seed}", member))
    return out


# Values a mutation may put in place of a JSON node: wrong types, empty and
# comma-holding labels, nested arrays and objects.
JSON_REPLACEMENTS = (None, 0, -1, 2, 2.5, True, "", "x", "a,b", [], {}, ["x"], [[]], {"x": 1})


def mutate_json(obj, rng):
    """A deep copy of ``obj`` with one node, picked by ``rng``, replaced,
    dropped or duplicated.  The root itself is never touched."""
    out = deepcopy(obj)
    slots = []
    stack = [out]
    while stack:
        node = stack.pop()
        keys = range(len(node)) if isinstance(node, list) else list(node)
        for k in keys:
            slots.append((node, k))
            if isinstance(node[k], (list, dict)):
                stack.append(node[k])
    if not slots:
        return out
    node, k = rng.choice(slots)
    op = rng.choice(("replace", "drop", "duplicate"))
    if op == "replace":
        other = rng.choice(slots)
        pool = JSON_REPLACEMENTS + (other[0][other[1]],)
        node[k] = deepcopy(rng.choice(pool))
    elif op == "drop":
        del node[k]
    elif isinstance(node, list):
        node.insert(k, deepcopy(node[k]))
    else:
        node[rng.choice([*node, f"{k}x"])] = deepcopy(node[k])
    return out
