import gc

import pytest

from localh import identities, posets, subdivisions
from localh.complexes import SimplicialComplex, simplex_boundary
from localh.constructions import (
    push_then_stellar,
    random_subdivision,
    stellar_facet,
    trivial_on,
)
from localh.identities import (
    boundary_h_from_h,
    local_h_via_boundary_recursion,
    local_h_via_derangements,
    verify_all,
)
from localh.permstats import derangement_recurrence
from localh.polynomials import ONE, Polynomial
from localh.posets import sd_subdivision
from localh.subdivisions import Subdivision


def test_boundary_h_examples():
    assert boundary_h_from_h(Polynomial([1, 10, 7]), 3) == Polynomial([1, 4, 1])
    assert boundary_h_from_h(Polynomial([1]), 1) == ONE
    # path of four edges: h = 1 + 3x, boundary (two points): 1 + x
    assert boundary_h_from_h(Polynomial([1, 3]), 2) == Polynomial([1, 1])


def test_boundary_h_requires_ball():
    with pytest.raises(ValueError):
        boundary_h_from_h(Polynomial([1, 4, 1]), 2)


def h_difference_partial_sums(h: Polynomial, d: int) -> Polynomial:
    """h minus its boundary h, directly from partial sums of h_(d-j-1) - h_j:
    subtracting the partial-sum boundary formula from h telescopes to these
    sums, so this is an independent check on ``boundary_h_from_h``."""
    coeffs = h.padded(d)
    assert coeffs[d] == 0
    out = []
    running = 0
    for i in range(d + 1):
        out.append(running)
        if i < d:
            running += coeffs[d - i - 1] - coeffs[i]
    return Polynomial(out)


def test_difference_partial_sums_consistent():
    for h, d in [
        (Polynomial([1, 10, 7]), 3),
        (Polynomial([1, 3]), 2),
        (Polynomial([1]), 1),
        (Polynomial([1, 2, 2]), 4),
    ]:
        direct = h - boundary_h_from_h(h, d)
        assert h_difference_partial_sums(h, d) == direct
        # symmetry of the difference
        c = direct.padded(d)
        assert c == tuple(reversed(c))


def test_recursion_example_stellar_bary():
    s = sd_subdivision(stellar_facet(trivial_on(3)))
    assert local_h_via_boundary_recursion(s) == Polynomial([0, 7, 7])
    assert local_h_via_derangements(s) == Polynomial([0, 7, 7])


def test_trivial_routes_vanish():
    for n in (1, 2, 3, 4, 5):
        t = trivial_on(n)
        assert local_h_via_boundary_recursion(t) == Polynomial()
        assert local_h_via_derangements(t) == Polynomial()


def test_three_way_agreement_on_small_instances():
    instances = [
        trivial_on(3),
        stellar_facet(trivial_on(3)),
        push_then_stellar(trivial_on(4)),
        sd_subdivision(trivial_on(4)),
        sd_subdivision(push_then_stellar(trivial_on(4))),
    ]
    for seed in range(6):
        instances.append(random_subdivision(seed, 5, 4)[0])
    for s in instances:
        direct = s.local_h()
        assert local_h_via_boundary_recursion(s) == direct
        assert local_h_via_derangements(s) == direct
        assert s.h_via_locality() == s.total.h_polynomial()


def test_the_boundary_recursion_leaves_no_reference_cycle():
    # a cycle through the subdivision would keep it, caches and all, alive
    # after the call until the cyclic collector ran
    s = random_subdivision(3, 5, 6)[0]
    gc.collect()
    gc.disable()
    try:
        assert local_h_via_boundary_recursion(s) == s.local_h()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_all_reports():
    report = verify_all(sd_subdivision(trivial_on(4)))
    assert report.all_match
    names = [r.name for r in report.records]
    assert "locality" in names and "derangement-expansion" in names

    fig = verify_all(push_then_stellar(trivial_on(4)))
    assert fig.all_match
    gamma_rec = next(r for r in fig.records if r.name == "gamma")
    assert gamma_rec.lhs == (0, 1, -2)
    assert "unimodal=False" in gamma_rec.note


def test_verify_all_nonsimplex_base_skips():
    s = Subdivision.trivial(simplex_boundary("1234"))
    report = verify_all(s)
    assert report.all_match  # locality holds; the rest skip
    locality = next(r for r in report.records if r.name == "locality")
    assert locality.match is True
    recursion = next(r for r in report.records if r.name == "boundary-recursion")
    assert recursion.skipped


def test_verify_all_non_pure_base_skips_every_record():
    base = SimplicialComplex([("a", "b", "c"), ("c", "d")])
    s = stellar_facet(Subdivision.trivial(base), ("a", "b", "c"))
    report = verify_all(s)
    assert [(r.name, r.skipped, r.note) for r in report.records] == [
        ("locality", True, "base not pure"),
        ("boundary-recursion", True, "base not a simplex"),
        ("derangement-expansion", True, "base not a simplex"),
        ("boundary-partial-sums", True, "base not a simplex"),
        ("local-h-symmetry", True, "base not a simplex"),
        ("quasi-geometric-nonnegativity", True, "base not a simplex"),
        ("gamma", True, "base not a simplex"),
        ("derangement-recurrence", True, "base not a simplex"),
        ("bary-local-h", True, "base not a simplex"),
    ]


def test_derangement_records_run_to_the_enumeration_bound_without_building_sd(monkeypatch):
    def no_build(source):
        raise AssertionError("verify_all built a barycentric subdivision")

    monkeypatch.setattr(posets, "sd_subdivision", no_build)
    identities._bary_local_h.cache_clear()
    report = verify_all(trivial_on(8))
    assert report.all_match
    records = {r.name: r for r in report.records}
    d8 = derangement_recurrence(8).padded(8)
    assert records["bary-local-h"] == identities.IdentityRecord("bary-local-h", d8, d8, True)
    assert records["derangement-recurrence"].match is True

    records = {r.name: r for r in verify_all(trivial_on(10)).records}
    for name in ("derangement-recurrence", "bary-local-h"):
        assert records[name] == identities.IdentityRecord(
            name, None, None, None, "enumeration bound"
        )


def test_verify_all_detects_mismatch():
    # a carrier map violating the interior condition shifts local h away
    # from the boundary-recursion route
    s = sd_subdivision(trivial_on(2))
    carrier = dict(s.carrier)
    inner = next(g for g in carrier if len(g) == 2)
    carrier[inner] = ("v1",)
    broken = Subdivision(s.base, s.total, carrier)
    report = verify_all(broken)
    assert not report.all_match
    assert not broken.validate().valid


def test_direct_local_h_shares_no_table_with_the_boundary_routes(monkeypatch):
    # the boundary-recursion and derangement-expansion records read the
    # subset-h table; the direct local h reads face counts only, so a wrong
    # table entry at the full mask must surface as a mismatch in both
    assert verify_all(random_subdivision(3, 5, 6)[0]).all_match
    table = subdivisions._h_table

    def corrupted(counts, n):
        out = table(counts, n)
        full = (1 << n) - 1
        return {**out, full: out[full] + Polynomial([0, 0, 1])}

    monkeypatch.setattr(subdivisions, "_h_table", corrupted)
    s, _ = random_subdivision(3, 5, 6)
    matches = {r.name: r.match for r in verify_all(s).records}
    assert matches["boundary-recursion"] is False
    assert matches["derangement-expansion"] is False


def test_report_serialization():
    report = verify_all(trivial_on(3))
    as_json = report.to_json()
    assert as_json["all_match"] is True
    assert isinstance(as_json["identities"], list)
    table = report.to_table()
    assert "ok" in table
