"""Acceptance suite: every criterion checked at exact integer equality,
one printed verdict line per criterion."""

import time
from itertools import product

from localh.constructions import (
    join_subdivided_edge,
    push_ridge,
    push_then_stellar,
    pushable_ridges,
    random_subdivision,
    realize_local_h,
    stellar_facet,
    trivial_on,
)
from localh.permstats import derangement_enum, derangement_recurrence, eulerian_polynomial
from localh.polynomials import Polynomial, gamma_extract, geometric_block, is_unimodal
from localh.posets import sd_subdivision


def _verdict(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_bary_local_h_is_derangement_polynomial():
    start = time.monotonic()
    ok = True
    for d in range(1, 8):
        bary = sd_subdivision(trivial_on(d))
        ok = ok and bary.local_h() == derangement_enum(d)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _verdict(f"C1 bary local h = derangement polynomial, d=1..7 ({elapsed:.1f}s)", ok)


def test_c02_bary_h_is_eulerian():
    ok = True
    for d in range(1, 8):
        bary = sd_subdivision(trivial_on(d))
        ok = ok and bary.total.h_polynomial() == eulerian_polynomial(d)
    _verdict("C2 bary h = Eulerian numbers, d=1..7", ok)


def test_c03_derangement_recurrence():
    ok = True
    for d in range(9):
        enum = derangement_enum(d)
        ok = ok and derangement_recurrence(d) == enum
        ok = ok and enum.is_symmetric(d)
        ok = ok and is_unimodal(enum.padded(d))
        ok = ok and gamma_extract(enum, d).is_nonnegative
    _verdict("C3 derangement recurrence = enumeration, d=0..8, sym/unimodal/gamma", ok)


def test_c04_stellar_bary_reproduction():
    bary = sd_subdivision(stellar_facet(trivial_on(3)))
    h = bary.total.h_polynomial()
    boundary_h = bary.total.boundary().h_polynomial()
    ok = h == Polynomial([1, 10, 7])
    ok = ok and boundary_h == Polynomial([1, 4, 1])
    ok = ok and h - boundary_h == Polynomial([0, 6, 6])
    ok = ok and bary.local_h() == Polynomial([0, 7, 7])
    _verdict("C4 barycentric stellar triangle: h, boundary h, difference, local h", ok)


def test_c05_pushed_tetrahedron_reproduction():
    s = push_then_stellar(trivial_on(4))
    ell = s.local_h().padded(4)
    ok = ell == (0, 1, 0, 1, 0)
    ok = ok and s.is_quasi_geometric().holds
    ok = ok and not is_unimodal(ell)
    ok = ok and gamma_extract(s.local_h(), 4).gammas == (0, 1, -2)
    ok = ok and not s.is_vertex_induced().holds
    _verdict("C5 pushed tetrahedron: local h (0,1,0,1,0), QG, non-unimodal", ok)


def _targets(limit: int):
    yield [0, 0]
    for d in range(2, 7):
        half = [range(limit + 1)] * ((d + 1) // 2 - 1)
        for inner in product(*half):
            if d % 2 == 0:
                for center in range(limit + 1):
                    row = [0, *inner, center, *reversed(inner), 0]
                    yield row
            else:
                row = [0, *inner, *reversed(inner), 0]
                yield row


def test_c06_realization_exhaustive():
    start = time.monotonic()
    count = 0
    ok = True
    for target in _targets(3):
        s = realize_local_h(target)
        count += 1
        d = len(target) - 1
        if s.local_h().padded(d) != tuple(target):
            ok = False
        if not s.validate().valid:
            ok = False
        if not s.is_quasi_geometric().holds:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _verdict(
        f"C6 realization: {count} exhaustive targets d<=6 entries<=3 "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_c07_three_way_identities_on_corpus(corpus_summaries):
    failures = [
        f"seed {m.seed}{' bary' if m.bary else ''}: {msg}"
        for m in corpus_summaries
        for msg in m.failures
        if "mismatch" in msg
    ]
    total = len(corpus_summaries)
    _verdict(
        f"C7 three-way local h and locality agreement on {total} corpus members",
        total >= 200 and not failures,
    )
    assert not failures, failures[:5]


def test_c08_bary_gamma_nonnegative_and_cd(corpus_summaries):
    gamma_bad = [
        f"seed {m.seed}" for m in corpus_summaries if m.bary and any(g < 0 for g in m.gamma)
    ]
    ek_bad = [
        f"seed {m.seed}: {msg}"
        for m in corpus_summaries
        for msg in m.failures
        if "cd" in msg
    ]
    _verdict(
        "C8 barycentric local gamma nonnegative; ball restrictions cd-expressible "
        "and nonnegative",
        not gamma_bad and not ek_bad,
    )
    assert not gamma_bad and not ek_bad, (gamma_bad[:3], ek_bad[:3])


def _instances_with_ridges(count, rng_seed_start=1000):
    found = []
    seed = rng_seed_start
    while len(found) < count:
        s, _ = random_subdivision(seed, 5, 2 + seed % 4)
        if len(s.base.vertices) >= 4 and pushable_ridges(s):
            found.append((seed, s))
        seed += 1
    return found


def test_c09_effect_formula_regression():
    ok = True
    checked = 0
    for seed in range(50):
        s, _ = random_subdivision(seed, 5, seed % 5)
        before = s.local_h()
        after = stellar_facet(s, sorted(s.total.facets)[seed % len(s.total.facets)])
        d = len(s.base.vertices)
        if after.local_h() - before != geometric_block(1, d - 1):
            ok = False
        checked += 1

    for seed in range(50):
        s, _ = random_subdivision(seed, 3, seed % 5)
        before = s.local_h()
        if join_subdivided_edge(s).local_h() != before.shifted(1):
            ok = False
        checked += 1

    for i, (seed, s) in enumerate(_instances_with_ridges(50)):
        ridges = pushable_ridges(s)
        ridge = ridges[i % len(ridges)]
        before = s.local_h()
        d = len(s.base.vertices)
        pushed = push_ridge(s, ridge)
        if pushed.local_h() - before != -geometric_block(2, d - 2):
            ok = False
        repaired = push_then_stellar(s, ridge)
        delta = Polynomial([0, 1] + [0] * (d - 3) + [1])
        if repaired.local_h() - before != delta:
            ok = False
        checked += 2

    _verdict(f"C9 effect formulas on {checked} random applications", ok and checked >= 200)


def test_c10_boundary_h_formula_on_corpus(corpus_summaries):
    failures = [
        f"seed {m.seed}{' bary' if m.bary else ''}: {msg}"
        for m in corpus_summaries
        for msg in m.failures
        if "boundary formula" in msg or "not a ball" in msg
    ]
    _verdict(
        "C10 boundary h partial-sum formula on every corpus ball restriction",
        not failures,
    )
    assert not failures, failures[:5]


def test_corpus_wide_invariants(corpus_summaries):
    # every member and its barycentric subdivision passes the weak-ball check;
    # local h symmetric with zero ends and nonnegative when quasi-geometric;
    # every barycentric subdivision is vertex-induced
    for m in corpus_summaries:
        assert not [f for f in m.failures if f.startswith("weak-ball")], m.seed
        assert m.local_h == tuple(reversed(m.local_h)), m.seed
        assert m.local_h[0] == 0, m.seed
        assert m.quasi_geometric, m.seed
        assert all(c >= 0 for c in m.local_h), m.seed
        if m.bary:
            assert m.vertex_induced, m.seed
