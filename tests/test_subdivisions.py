import random
import re
from collections import Counter
from itertools import combinations, product

import pytest
from conftest import (
    CORPUS_MAX_D,
    CORPUS_MAX_STEPS,
    FIXTURES,
    carrier_mutants,
    mutate_carrier,
    oracle_boundary_h,
    oracle_local_h,
    oracle_validate,
    table_local_h,
)

from localh import serialize, subdivisions
from localh.complexes import (
    EMPTY,
    VOID,
    NotPureError,
    RidgeInThreeFacetsError,
    SimplicialComplex,
    simplex,
    simplex_boundary,
)
from localh.constructions import (
    pushable_ridges,
    push_ridge,
    push_then_stellar,
    random_subdivision,
    realize_local_h,
    stellar_facet,
    trivial_on,
)
from localh.identities import verify_all
from localh.polynomials import ZERO, Polynomial, h_from_f
from localh.posets import sd_subdivision
from localh.subdivisions import BaseNotSimplexError, Subdivision


def bary_of_trivial(n):
    return sd_subdivision(trivial_on(n))


def test_trivial_subdivision_valid():
    t = trivial_on(4)
    report = t.validate()
    assert report.valid
    assert report.verdict == "valid-weak"
    assert t.local_h() == Polynomial()
    assert t.is_quasi_geometric().holds
    assert t.is_vertex_induced().holds


def test_restriction_examples():
    s = bary_of_trivial(3)
    full = s.restriction(("v1", "v2", "v3"))
    assert full.total == s.total
    assert full.carrier == s.carrier

    edge = s.restriction(("v1", "v2"))
    # the subdivided edge: two edges glued at the barycenter vertex
    assert edge.total.f_vector() == (1, 3, 2)
    assert edge.base == simplex(["v1", "v2"])

    vertex = s.restriction(("v1",))
    assert vertex.total.f_vector() == (1, 1)
    with pytest.raises(ValueError):
        trivial_on(3).restriction(("v1", "nope"))


def test_restriction_of_valid_is_valid():
    s = bary_of_trivial(4)
    for face in [("v1",), ("v1", "v2"), ("v1", "v2", "v3")]:
        assert s.restriction(face).validate().valid


def test_validate_of_bary():
    # n = 6 (720 facets) guards the cost of the GF(2) kernel: reducing each
    # row against every pivot would add seconds to the suite.
    for n in (2, 3, 4, 5, 6):
        bary = bary_of_trivial(n)
        assert bary.validate().verdict == "valid-weak"
        assert bary.is_vertex_induced().holds


def test_validate_of_all_ones_realization():
    # 67 facets of dimension 8, whose 511 restrictions each get GF(2) homology
    s = realize_local_h([0] + [1] * 8 + [0])
    assert s.validate().verdict == "valid-weak"


def test_validate_catches_broken_interior():
    # send an interior edge of the subdivided edge onto a vertex of the base
    s = bary_of_trivial(2)
    carrier = dict(s.carrier)
    bad_edge = next(g for g in carrier if len(g) == 2)
    carrier[bad_edge] = ("v1",)
    broken = Subdivision(s.base, s.total, carrier)
    report = broken.validate()
    assert not report.valid
    failed = {c.face: c.failures for c in report.failures()}
    assert any("interior-condition" in fs or "dimension" in fs for fs in failed.values())


def test_validate_flags_closed_restriction():
    # a hexagon pretending to subdivide an edge: the full restriction is a
    # circle, which has no boundary and the wrong homology
    hexagon = SimplicialComplex(
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")]
    )
    base = simplex("ab")
    carrier = {}
    for g in hexagon.nonempty_faces():
        carrier[g] = ("a", "b")
    carrier[("1",)] = ("a",)
    carrier[("4",)] = ("b",)
    s = Subdivision(base, hexagon, carrier)
    failed = {c.face: set(c.failures) for c in s.validate().failures()}
    assert ("a", "b") in failed
    assert {"betti-ball", "boundary-betti-sphere"} <= failed[("a", "b")]


def test_validate_flags_pseudomanifold_failure():
    three_sheets = SimplicialComplex(
        [("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5")]
    )
    base = simplex("xyz")
    carrier = {}
    for g in three_sheets.nonempty_faces():
        carrier[g] = ("x", "y", "z")
    carrier[("1",)] = ("x",)
    carrier[("2",)] = ("y",)
    for v in ("3", "4", "5"):
        carrier[(v,)] = ("z",)
    carrier[("1", "2")] = ("x", "y")
    s = Subdivision(base, three_sheets, carrier)
    failed = {c.face: set(c.failures) for c in s.validate().failures()}
    assert "pseudomanifold" in failed[("x", "y", "z")]
    # the fibre over z is three disconnected points
    assert "betti-ball" in failed[("z",)]


def test_validate_reports_monotonicity():
    s = trivial_on(2)
    carrier = dict(s.carrier)
    carrier[("v1", "v2")] = ("v1",)  # the edge's carrier leaves out that of v2
    report = Subdivision(s.base, s.total, carrier).validate()
    assert report.monotone is False
    assert report.verdict == "invalid(carrier-not-inclusion-preserving)"


def test_quasi_geometric_examples():
    fig = push_then_stellar(trivial_on(4))
    assert fig.is_quasi_geometric().holds
    assert trivial_on(3).is_quasi_geometric().holds


def test_double_push_breaks_quasi_geometric():
    s = push_ridge(trivial_on(4), ("v1", "v2", "v3"))
    assert s.validate().valid
    w1 = next(v for v in s.total.vertices if v.startswith("w"))
    s2 = push_ridge(s, ("v1", "v2", w1))
    assert s2.validate().valid
    result = s2.is_quasi_geometric()
    assert not result.holds
    e, f = result.witness
    assert len(f) < len(e)
    assert set(f) == {"v1", "v2", "v3"}


def test_vertex_induced_examples():
    assert bary_of_trivial(4).is_vertex_induced().holds
    fig = push_then_stellar(trivial_on(4))
    result = fig.is_vertex_induced()
    assert not result.holds
    assert result.witness == (("v1", "v2", "v3"), ("v1", "v2", "v3"))


def test_local_h_examples():
    assert bary_of_trivial(3).local_h() == Polynomial([0, 1, 1])
    fig = push_then_stellar(trivial_on(4))
    assert fig.local_h() == Polynomial([0, 1, 0, 1])
    stellar_bary = sd_subdivision(stellar_facet(trivial_on(3)))
    assert stellar_bary.local_h() == Polynomial([0, 7, 7])


def test_local_h_matches_naive_oracle():
    for s in [
        trivial_on(3),
        stellar_facet(trivial_on(3)),
        push_then_stellar(trivial_on(4)),
        bary_of_trivial(3),
    ]:
        assert s.local_h() == oracle_local_h(s)


def test_local_h_requires_simplex_base():
    hexagon = SimplicialComplex(
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")]
    )
    s = Subdivision.trivial(hexagon)
    with pytest.raises(BaseNotSimplexError):
        s.local_h()


# -- the face sum of _local_h against Stanley's sum over subsets ---------------


def test_local_h_face_sum_matches_the_table_route_and_the_naive_oracle(sd_sources):
    names = set()
    for name, s in subdivisions_of(sd_sources):
        if s.base_is_simplex:
            want = table_local_h(s._face_counts(), len(s.base.vertices))
            assert s.local_h() == want == oracle_local_h(s), name
            names.add(name)
    assert {"broken_stellar_triangle", "sd bary_stellar_triangle", "sd corpus19"} <= names


@pytest.mark.parametrize("n", range(1, 12))
def test_local_h_face_sum_on_the_simplex(n):
    s = trivial_on(n)
    assert s.local_h() == table_local_h(s._face_counts(), n) == ZERO
    if n <= 8:  # the naive scan takes every pair of the 2^n carriers
        assert oracle_local_h(s) == ZERO


def test_bary_local_h_face_sum_matches_the_table_route(monkeypatch, sd_sources):
    face_sum, routes = subdivisions._local_h, []

    def both(counts, n):  # bary_local_h's chain counts through both routes
        routes.append((face_sum(counts, n), table_local_h(counts, n)))
        return routes[-1][0]

    monkeypatch.setattr(subdivisions, "_local_h", both)
    sources = [s for _, s in sd_sources if isinstance(s, Subdivision) and s.base_is_simplex]
    for s in sources + [trivial_on(n) for n in range(1, 12)]:
        s.bary_local_h()
    assert len(routes) > 40
    assert [got for got, want in routes if got != want] == []


def irregular(s):
    """Some restriction over a nonempty vertex set S is not of dimension |S|-1."""
    verts = s.base.vertices
    return any(
        s.restriction_complex(face).dim != k - 1
        for k in range(1, len(verts) + 1)
        for face in combinations(verts, k)
    )


def stellar_with_carriers(changes):
    """The stellar triangle with some carriers replaced."""
    s = stellar_facet(trivial_on(3))
    return Subdivision(s.base, s.total, {**s.carrier, **changes})


IRREGULAR = {
    "broken_stellar_triangle": lambda: serialize.subdivision_from_obj(
        serialize.load_json(str(FIXTURES / "broken_stellar_triangle.json"))
    ),
    "edge_moved_off_its_carrier": lambda: stellar_with_carriers({("v1", "z1"): ("v2",)}),
    "interior_vertex_collapsed": lambda: stellar_with_carriers({
        ("z1",): ("v1",), ("v1", "z1"): ("v1",),
        ("v2", "z1"): ("v1", "v2"), ("v3", "z1"): ("v1", "v3"),
    }),
    "void": lambda: Subdivision(simplex("ab"), VOID, {}),
    "empty": lambda: Subdivision(simplex("ab"), EMPTY, {}),
}


def test_local_h_takes_the_table_route_exactly_on_irregular_counts(monkeypatch, sd_sources):
    table, calls = subdivisions._h_table, []

    def counted(counts, n):
        calls.append(n)
        return table(counts, n)

    monkeypatch.setattr(subdivisions, "_h_table", counted)
    cases = [(name, make()) for name, make in IRREGULAR.items()]
    cases += [(name, s) for name, s in subdivisions_of(sd_sources) if s.base_is_simplex]
    cases += [("corruption", s) for s in single_carrier_corruptions(trivial_on(3))]
    taken = set()
    for name, s in cases:
        calls.clear()
        s.local_h()
        assert bool(calls) == irregular(s), name
        if calls:
            taken.add(name)
    assert set(IRREGULAR) | {"corruption"} <= taken
    assert not taken & {"stellar_triangle", "corpus19", "sd corpus19"}


def test_local_h_reads_no_table_on_regular_counts(monkeypatch, sd_sources):
    def refuse(counts, n):
        raise AssertionError("the table route was taken")

    members = [random_subdivision(seed, 5, seed % 7)[0] for seed in range(20)]
    members += [s for _, s in subdivisions_of(sd_sources) if s.base_is_simplex]
    regular = [s for s in members if not irregular(s)]
    assert len(regular) > 50
    monkeypatch.setattr(subdivisions, "_h_table", refuse)
    for s in regular:
        s.local_h()
        s.bary_local_h()


def test_local_gamma_examples():
    assert bary_of_trivial(3).local_gamma().gammas == (0, 1)
    assert push_then_stellar(trivial_on(4)).local_gamma().gammas == (0, 1, -2)
    assert trivial_on(4).local_gamma().gammas == (0, 0, 0)


def test_h_via_locality_examples():
    s = bary_of_trivial(3)
    assert s.h_via_locality() == Polynomial([1, 4, 1])
    assert s.h_via_locality() == s.total.h_polynomial()

    stellar_bary = sd_subdivision(stellar_facet(trivial_on(3)))
    assert stellar_bary.h_via_locality() == Polynomial([1, 10, 7])


def test_h_via_locality_trivial_of_pure_base():
    for base in [
        simplex_boundary("1234"),
        SimplicialComplex([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                           ("5", "6"), ("1", "6")]),
    ]:
        s = Subdivision.trivial(base)
        assert s.h_via_locality() == base.h_polynomial()


def test_local_h_symmetry_properties():
    for s in [
        stellar_facet(trivial_on(3)),
        push_then_stellar(trivial_on(4)),
        bary_of_trivial(4),
    ]:
        d = len(s.base.vertices)
        ell = s.local_h().padded(d)
        assert ell == tuple(reversed(ell))
        assert ell[0] == 0
        assert ell[1] >= 0
        if s.is_quasi_geometric().holds:
            assert all(c >= 0 for c in ell)


def test_carrier_totality_enforced():
    base = simplex("12")
    with pytest.raises(ValueError):
        Subdivision(base, base, {("1",): ("1",), ("2",): ("2",)})
    with pytest.raises(ValueError):
        Subdivision(
            base,
            base,
            {("1",): ("1",), ("2",): ("2",), ("1", "2"): ("1", "2"),
             ("9",): ("1",)},
        )


def test_carrier_faces_are_checked_not_repaired():
    s = stellar_facet(trivial_on(3))
    carrier = dict(s.carrier)
    carrier[("z1", "v1")] = carrier.pop(("v1", "z1"))
    with pytest.raises(ValueError, match=re.escape("('z1', 'v1')")):
        Subdivision(s.base, s.total, carrier)
    for bad in [("v3", "v1"), ["v1", "v3"]]:
        carrier = dict(s.carrier)
        carrier[("v1", "z1")] = bad
        with pytest.raises(ValueError, match=re.escape(f"carrier {bad} of ('v1', 'z1')")):
            Subdivision(s.base, s.total, carrier)


def test_a_bad_carrier_names_a_face_that_has_it():
    s = stellar_facet(trivial_on(3))
    carrier = dict(s.carrier)
    carrier[("v1", "z1")] = ()
    with pytest.raises(ValueError, match=re.escape("face ('v1', 'z1') has an empty carrier")):
        Subdivision(s.base, s.total, carrier)
    interior = {g for g, c in s.carrier.items() if len(c) == 3}
    carrier = {g: ("v1", "v9") if g in interior else c for g, c in s.carrier.items()}
    with pytest.raises(ValueError, match=r"carrier \('v1', 'v9'\) of (.*) is not") as info:
        Subdivision(s.base, s.total, carrier)
    named = re.search(r"of (\(.*\)) is", str(info.value)).group(1)
    assert named in {str(g) for g in interior}


def oracle_subset_h_table(s):
    """Each face counted into every superset of its carrier, one face at a time."""
    verts = s.base.vertices
    full = (1 << len(verts)) - 1
    counts = {m: {} for m in range(full + 1)}
    for g, c in s.carrier.items():
        cmask = sum(1 << verts.index(v) for v in c)
        free = sub = full ^ cmask
        while True:
            bucket = counts[cmask | sub]
            bucket[len(g)] = bucket.get(len(g), 0) + 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return {
        m: h_from_f([1] + [b.get(n, 0) for n in range(1, max(b, default=0) + 1)])
        for m, b in counts.items()
    }


def subdivisions_of(sources):
    """Each subdivision source and the barycentric subdivision of each source
    that has carriers."""
    for name, source in sources:
        if isinstance(source, Subdivision):
            yield name, source
        if source.carrier is not None:
            yield f"sd {name}", sd_subdivision(source)


def test_subset_h_table_matches_the_per_face_loop(sd_sources):
    compared = 0
    for name, s in subdivisions_of(sd_sources):
        if s.base_is_simplex:
            verts = s.base.vertices
            for m, h in oracle_subset_h_table(s).items():
                assert s.subset_h([v for i, v in enumerate(verts) if m >> i & 1]) == h, name
            compared += 1
    assert compared > 50


def test_subset_h_matches_restriction_complex():
    s = push_then_stellar(trivial_on(4))
    for k in range(5):
        for sub in combinations(s.base.vertices, k):
            got = s.subset_h(sub)
            want = s.restriction_complex(sub).h_polynomial()
            assert got == want


# -- boundary h of each restriction against the complex-building oracle -----


def two_vertex_moves(s):
    """Every subdivision that differs from s in the carriers of two vertices.
    A restriction can then hold as many faces as a simplex, one of full size
    among them, with a face outside it."""
    bases = sorted(s.base.nonempty_faces())
    for g, h in combinations(sorted(g for g in s.carrier if len(g) == 1), 2):
        for c, e in product(bases, bases):
            if c != s.carrier[g] and e != s.carrier[h]:
                yield f"{g}->{c},{h}->{e}", Subdivision(s.base, s.total, {**s.carrier, g: c, h: e})


def boundary_h_inputs(sd_sources):
    """(name, subdivision) pairs: the corpus members, every subdivision in
    ``sd_sources`` and its sd, the carrier mutants of 100 corpus seeds, and
    the simplex on 3 vertices with two vertex carriers moved."""
    for seed in range(100):
        member, _ = random_subdivision(seed, CORPUS_MAX_D, seed % (CORPUS_MAX_STEPS + 1))
        yield f"corpus{seed}", member
    yield from subdivisions_of(sd_sources)
    yield from carrier_mutants(range(100))
    yield from two_vertex_moves(trivial_on(3))


def outcome(query, s, face):
    """The value of a query, or the type and message of what it raised."""
    try:
        return query(s, face)
    except Exception as exc:
        return type(exc), str(exc)


def test_subset_boundary_h_matches_the_oracle(sd_sources):
    kinds = Counter()
    for name, s in boundary_h_inputs(sd_sources):
        for face in sorted(s.base.nonempty_faces()):
            want = outcome(oracle_boundary_h, s, face)
            assert outcome(Subdivision.subset_boundary_h, s, face) == want, (name, face)
            k = s.restriction_complex(face)
            if isinstance(want, tuple):
                kinds[want[0]] += 1
            elif k is s.total:
                kinds["total"] += 1
            else:
                kinds["simplex" if [len(g) for g in k.facets] == [len(face)] else "members"] += 1
    # every branch and both refusals are exercised
    assert set(kinds) == {"simplex", "total", "members", NotPureError, RidgeInThreeFacetsError}


def test_verify_all_reads_the_same_with_the_oracle_boundary_h(monkeypatch, sd_sources):
    inputs = list(boundary_h_inputs(sd_sources))
    reports = [verify_all(s).to_json() for _, s in inputs]
    monkeypatch.setattr(Subdivision, "subset_boundary_h", oracle_boundary_h)
    for (name, s), report in zip(inputs, reports):
        assert verify_all(s).to_json() == report, name
    assert any(not r["all_match"] for r in reports)


def test_subset_queries_refuse_a_face_outside_the_base():
    s = stellar_facet(trivial_on(3))
    hexagon = Subdivision.trivial(
        SimplicialComplex([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")])
    )
    cases = [(s, ("v1", "zz")), (s, ("zz",)), (s, ("zz", "v1")), (hexagon, ("1", "3"))]
    for t, face in cases:
        message = re.escape(f"{tuple(sorted(face))} is not a base face")
        for query in (t.subset_h, t.subset_boundary_h, t.restriction):
            if query == t.subset_h and t is hexagon:
                continue  # subset_h needs a simplex base
            with pytest.raises(ValueError, match=message):
                query(face)
    # repeated or unsorted labels of a base face name that face
    assert s.subset_h(("v2", "v1", "v1")) == s.subset_h(("v1", "v2"))
    assert s.subset_boundary_h(("v2", "v1", "v1")) == s.subset_boundary_h(("v1", "v2"))
    assert s.subset_boundary_h(()) == ZERO and s.subset_h(()) == Polynomial([1])


# -- label-set oracles for every carrier query ------------------------------


def oracle_members(s, face):
    fs = set(face)
    return {g for g, c in s.carrier.items() if set(c) <= fs}


def oracle_union(s, face):
    out = set()
    for v in face:
        out |= set(s.carrier[(v,)])
    return out


def _by_size(faces):
    return sorted(faces, key=lambda f: (len(f), f))


def oracle_quasi_geometric(s):
    base_faces = _by_size(s.base.nonempty_faces())
    for e in _by_size(s.carrier):
        if len(e) < 2:
            continue
        u = oracle_union(s, e)
        for f in base_faces:
            if len(f) < len(e) and u <= set(f):
                return False, (e, f)
    return True, None


def oracle_vertex_induced(s):
    base_faces = _by_size(s.base.nonempty_faces())
    for e in _by_size(s.carrier):
        u, c = oracle_union(s, e), set(s.carrier[e])
        for f in base_faces:
            if u <= set(f) and not c <= set(f):
                return False, (e, f)
    return True, None


def oracle_monotone(s):
    return all(
        set(s.carrier[g[:i] + g[i + 1 :]]) <= set(c)
        for g, c in s.carrier.items()
        for i in range(len(g))
        if len(g) >= 2
    )


def assert_matches_oracles(s):
    span = set().union(*s.carrier.values())
    for face in s.base.all_faces():
        assert set(s.restriction_members(face)) == oracle_members(s, face)
        want = SimplicialComplex.from_faces(oracle_members(s, face) | {()})
        got = s.restriction_complex(face)
        assert got == want
        assert got.faces_by_dim() == want.faces_by_dim()  # == reads facets only
        assert (got is s.total) == (bool(s.carrier) and span <= set(face))
    for got, want in [
        (s.is_quasi_geometric(), oracle_quasi_geometric(s)),
        (s.is_vertex_induced(), oracle_vertex_induced(s)),
    ]:
        assert (got.holds, got.witness) == want
    assert s.validate().monotone == oracle_monotone(s)


def unrepaired_pushes(seed):
    """Random stellar subdivisions and bare ridge pushes of a 3- or 4-simplex."""
    rng = random.Random(seed)
    s = trivial_on(rng.choice([4, 5]))
    for _ in range(3):
        ridges = pushable_ridges(s)
        if ridges and rng.random() < 0.7:
            s = push_ridge(s, rng.choice(ridges))
        else:
            s = stellar_facet(s, rng.choice(sorted(s.total.facets)))
    return s


def single_carrier_corruptions(s):
    """Every subdivision that differs from s in exactly one carrier."""
    base_faces = sorted(s.base.nonempty_faces())
    for g in sorted(s.carrier):
        for c in base_faces:
            if c != s.carrier[g]:
                carrier = dict(s.carrier)
                carrier[g] = c
                yield Subdivision(s.base, s.total, carrier)


def test_carrier_queries_match_oracles_on_random_members():
    for seed in range(12):
        s, _ = random_subdivision(seed, 5, 4)
        assert_matches_oracles(s)
        assert_matches_oracles(sd_subdivision(s))


def test_carrier_queries_match_oracles_on_sd_sources(sd_sources):
    for name, s in subdivisions_of(sd_sources):
        if name.startswith("sd "):
            assert_matches_oracles(s)


def test_carrier_queries_match_oracles_on_unrepaired_pushes():
    verdicts = set()
    for seed in range(12):
        s = unrepaired_pushes(seed)
        assert_matches_oracles(s)
        verdicts.add(s.is_quasi_geometric().holds)
    assert verdicts == {True, False}


def test_carrier_queries_match_oracles_on_non_simplex_bases():
    hexagon = SimplicialComplex(
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")]
    )
    two_triangles = SimplicialComplex([("a", "b", "c"), ("b", "c", "d")])
    glued = stellar_facet(Subdivision.trivial(two_triangles))
    cases = [
        Subdivision.trivial(hexagon),
        stellar_facet(Subdivision.trivial(hexagon)),
        Subdivision.trivial(simplex_boundary("1234")),
        stellar_facet(Subdivision.trivial(simplex_boundary("1234"))),
        glued,
    ]
    cases += list(single_carrier_corruptions(glued))[::5]
    for s in cases:
        assert_matches_oracles(s)


def test_carrier_queries_match_oracles_on_corrupted_carriers():
    monotone = set()
    for s in single_carrier_corruptions(trivial_on(3)):
        assert_matches_oracles(s)
        monotone.add(s.validate().monotone)
    assert monotone == {True, False}


def test_vertex_induced_holds_when_a_carrier_lies_inside_its_union():
    # every base face that holds the union of the vertex carriers holds a
    # carrier inside that union too, so such a face does not fail
    broken = serialize.subdivision_from_obj(
        serialize.load_json(str(FIXTURES / "broken_stellar_triangle.json"))
    )
    t = trivial_on(3)
    shrunk = Subdivision(t.base, t.total, {**t.carrier, ("v1", "v2"): ("v1",)})
    for s, e in [(broken, ("v1", "z1")), (shrunk, ("v1", "v2"))]:
        assert set(s.carrier[e]) < oracle_union(s, e)
        assert s.is_vertex_induced().holds
        assert oracle_vertex_induced(s) == (True, None)


def test_restriction_over_every_carrier_is_the_total():
    s = push_then_stellar(trivial_on(4))
    assert s.restriction_complex(s.base.vertices) is s.total
    assert s.restriction_complex((*s.base.vertices, "nope")) is s.total
    assert s.restriction(s.base.vertices) == s
    for k in range(4):
        for face in combinations(s.base.vertices, k):
            assert s.restriction_complex(face) is not s.total


@pytest.mark.parametrize("total", [VOID, EMPTY])
def test_restriction_with_no_carrier_is_the_empty_complex(total):
    s = Subdivision(simplex("ab"), total, {})
    for face in [(), ("a",), ("a", "b")]:
        got = s.restriction_complex(face)
        assert got == EMPTY and got.faces_by_dim() == EMPTY.faces_by_dim()
        assert got.faces_by_dim() != VOID.faces_by_dim()


@pytest.mark.parametrize("total", [VOID, EMPTY], ids=["void", "empty"])
def test_bary_local_h_with_no_carrier_is_the_local_h(total):
    s = Subdivision(simplex("ab"), total, {})  # sd of no faces has no faces
    assert s.bary_local_h() == s.local_h()


def test_restriction_members_ignores_labels_outside_the_base():
    s = stellar_facet(trivial_on(3))
    assert s.restriction_members(("v1", "v2", "nope")) == s.restriction_members(("v1", "v2"))


# -- the incidence pass of validate against the restriction-by-restriction oracle


WEAK_BALL_FAILURES = {
    "nonvoid",
    "dimension",
    "pure",
    "pseudomanifold",
    "betti-ball",
    "boundary-betti-sphere",
    "interior-condition",
}


def test_validate_matches_the_oracle_on_sd_sources_and_fixtures(sd_sources):
    checked = 0
    for name, s in subdivisions_of(sd_sources):
        assert s.validate() == oracle_validate(s), name
        checked += 1
    for path in sorted(FIXTURES.glob("*.json")):
        obj = serialize.load_json(str(path))
        if serialize.detect_kind(obj) == "subdivision":
            s = serialize.subdivision_from_obj(obj)
            assert s.validate() == oracle_validate(s), path.stem
            checked += 1
    assert checked > 60


def test_validate_matches_the_oracle_on_carrier_mutants():
    seen = {True: set(), False: set()}
    kinds = Counter()
    for name, mutant in carrier_mutants(range(60)):
        report = mutant.validate()
        assert report == oracle_validate(mutant), name
        monotone = "monotone" in name
        assert report.monotone is monotone, name  # every corpus member is monotone
        # is_monotone's own walk, on a copy whose cache validate has not filled
        assert Subdivision(mutant.base, mutant.total, mutant.carrier).is_monotone() is monotone
        kinds[monotone, report.valid] += 1
        seen[monotone].update(f for c in report.failures() for f in c.failures)
    assert kinds[True, False] > 100 and kinds[False, False] > 100
    # each check fails on mutants of both kinds, with monotone carriers too
    assert seen[True] == seen[False] == WEAK_BALL_FAILURES


def test_validate_matches_the_oracle_on_mutants_of_sd_and_the_simplex():
    sources = [sd_subdivision(random_subdivision(seed, 4, 3)[0]) for seed in range(4)]
    sources += [trivial_on(n) for n in range(2, 6)] + [bary_of_trivial(n) for n in range(2, 5)]
    rng = random.Random(5)
    for i, source in enumerate(sources):
        for monotone in (True, False):
            for _ in range(3):
                mutant = mutate_carrier(source, rng, monotone)
                if mutant is not None:
                    assert mutant.validate() == oracle_validate(mutant), (i, monotone)


def test_validate_reads_one_incidence_pass_and_is_monotone_does_not():
    s = random_subdivision(7, 5, 6)[0]
    assert s.is_monotone() and "inc" not in s._cache
    first = s.validate()
    columns = s._cache["inc"][0]
    assert s.validate() == first and s._cache["inc"][0] is columns
