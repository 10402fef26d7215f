from collections import Counter

import pytest
from conftest import oracle_monotone

from localh.complexes import SimplicialComplex, subsets
from localh.constructions import (
    InvalidTargetError,
    OpStep,
    OpWord,
    apply_step,
    join_subdivided_edge,
    push_ridge,
    push_then_stellar,
    pushable_ridges,
    random_subdivision,
    realize_local_h,
    replay,
    stellar_facet,
    trivial_on,
)
from localh.polynomials import Polynomial, geometric_block
from localh.posets import sd_subdivision
from localh.subdivisions import Subdivision


def test_stellar_examples():
    s = stellar_facet(trivial_on(3))
    assert s.local_h() == Polynomial([0, 1, 1])
    assert s.validate().valid

    twice = stellar_facet(s)
    assert twice.local_h() == Polynomial([0, 2, 2])

    edge = stellar_facet(trivial_on(2))
    assert edge.total == SimplicialComplex([("v1", "z1"), ("v2", "z1")])
    assert edge.local_h() == Polynomial([0, 1])


def test_stellar_effect_formula():
    s = trivial_on(3)
    for _ in range(3):
        before = s.local_h()
        s = stellar_facet(s)
        assert s.local_h() - before == geometric_block(1, 2)
        assert s.validate().valid


def test_stellar_errors():
    with pytest.raises(ValueError):
        stellar_facet(trivial_on(3), ("v1", "v2"))  # not a facet
    with pytest.raises(ValueError):
        stellar_facet(trivial_on(1))  # facet is a vertex


def test_push_example():
    s = push_ridge(trivial_on(4), ("v1", "v2", "v3"))
    assert len(s.total.facets) == 2
    assert s.local_h() == Polynomial([0, 0, -1])
    assert s.validate().valid


def test_push_preconditions():
    with pytest.raises(ValueError):
        push_ridge(trivial_on(3), ("v1", "v2"))  # base too small
    s = stellar_facet(trivial_on(4))
    # ridge whose carrier is the whole base has codimension zero, not one
    bad = next(g for g, c in s.carrier.items() if len(g) == 3 and len(c) == 4)
    with pytest.raises(ValueError):
        push_ridge(s, bad)
    # a ridge that is itself a facet of the total cannot be coned over
    ridge = ("v1", "v2", "v3")
    carrier = {g: g for g in subsets(ridge) if g}
    flat = Subdivision(trivial_on(4).base, SimplicialComplex([ridge]), carrier)
    with pytest.raises(ValueError, match="is a facet of the total complex"):
        push_ridge(flat, ridge)


def test_join_examples():
    padded = join_subdivided_edge(trivial_on(2))
    assert padded.local_h() == Polynomial()
    assert padded.validate().valid

    s = join_subdivided_edge(stellar_facet(trivial_on(3)))
    assert s.local_h() == Polynomial([0, 0, 1, 1])
    assert s.validate().valid
    assert s.is_quasi_geometric().holds


def test_join_effect_is_shift():
    for seed in range(4):
        s, _ = random_subdivision(seed, 3, 3)
        before = s.local_h()
        after = join_subdivided_edge(s)
        assert after.local_h() == before.shifted(1)


def test_push_then_stellar_examples():
    fig = push_then_stellar(trivial_on(4), ("v1", "v2", "v3"))
    assert fig.local_h() == Polynomial([0, 1, 0, 1])
    assert fig.is_quasi_geometric().holds
    assert fig.validate().valid

    twice = push_then_stellar(fig)
    assert twice.local_h() == Polynomial([0, 2, 0, 2])
    assert twice.is_quasi_geometric().holds
    assert twice.validate().valid


def test_push_then_stellar_auto_picks_valid_ridge():
    s = join_subdivided_edge(trivial_on(2))
    ridges = pushable_ridges(s)
    assert ridges
    result = push_then_stellar(s)
    assert result.validate().valid


def all_carrier_ridges(s):
    """Codimension-one faces with codimension-one carriers, filtered from
    every carrier: the oracle of ``pushable_ridges``."""
    d = len(s.base.vertices)
    return sorted(g for g, c in s.carrier.items() if len(g) == d - 1 and len(c) == d - 1)


@pytest.mark.parametrize("d_max", [5, 6, 7])
def test_search_members_have_monotone_carriers(d_max):
    # o1, o3 and l32 keep carriers monotone; search's sd records rely on it
    for seed in range(200):
        s, _ = random_subdivision(seed, d_max, 6)
        assert oracle_monotone(s), seed


@pytest.mark.parametrize("d_max", [5, 6, 7])
def test_pushable_ridges_equals_the_all_carrier_filter_on_every_step(d_max):
    for seed in range(200):
        word = random_subdivision(seed, d_max, 6)[1]
        s = trivial_on(word.seed_vertices)
        for step in word.steps:
            assert pushable_ridges(s) == all_carrier_ridges(s), (seed, step)
            s = apply_step(s, step)


def test_pushable_ridges_on_small_simplices():
    # on one vertex the only face of codimension one is the empty face
    for n in range(1, 5):
        s = trivial_on(n)
        assert pushable_ridges(s) == all_carrier_ridges(s)


def test_realize_examples():
    point = realize_local_h([0, 0])
    assert point.local_h() == Polynomial()
    assert len(point.base.vertices) == 1

    fig = realize_local_h([0, 1, 0, 1, 0])
    assert fig.local_h().padded(4) == (0, 1, 0, 1, 0)
    assert fig.is_quasi_geometric().holds

    s = realize_local_h([0, 2, 3, 2, 0])
    assert s.local_h().padded(4) == (0, 2, 3, 2, 0)
    assert s.validate().valid


def test_realize_d2_subdivides_edge():
    for m in range(4):
        s = realize_local_h([0, m, 0])
        assert s.total.f_vector() == (1, m + 2, m + 1)


def test_realize_rejects_bad_targets():
    for bad in ([1, 0], [0, 1], [0, -1, 0], [0, 1, 2, 0], [0]):
        with pytest.raises(InvalidTargetError):
            realize_local_h(bad)


def test_random_subdivision_deterministic():
    a, word_a = random_subdivision(7, 5, 5)
    b, word_b = random_subdivision(7, 5, 5)
    assert word_a == word_b
    assert a == b
    assert replay(word_a) == a


def test_random_subdivision_zero_steps():
    s, word = random_subdivision(0, 4, 0)
    assert s.local_h() == Polynomial()
    assert word.steps == ()


def test_random_subdivision_properties():
    for seed in range(8):
        s, word = random_subdivision(seed, 5, 5)
        d = len(s.base.vertices)
        assert d <= 5
        ell = s.local_h().padded(d)
        assert ell == tuple(reversed(ell))
        assert all(c >= 0 for c in ell)
        assert s.is_quasi_geometric().holds


def test_stellar_and_join_preserve_quasi_geometric():
    for seed in range(6):
        s, _ = random_subdivision(seed, 4, 3)
        assert s.is_quasi_geometric().holds
        assert stellar_facet(s).is_quasi_geometric().holds
        assert join_subdivided_edge(s).is_quasi_geometric().holds
        if len(s.base.vertices) >= 4 and pushable_ridges(s):
            assert push_then_stellar(s).is_quasi_geometric().holds


def test_replay_with_sd_step():
    word = OpWord(3, (OpStep("o1", "auto"), OpStep("sd")))
    s = replay(word)
    assert s == sd_subdivision(stellar_facet(trivial_on(3)))


def test_apply_step_rejects_unknown():
    with pytest.raises(ValueError):
        apply_step(trivial_on(2), OpStep("o9"))


def test_realize_self_check_guard():
    # the self-check must recompute from the definition, so a correct build
    # cannot raise; exercise a few larger targets
    for target in ([0, 3, 3, 0], [0, 1, 2, 2, 1, 0], [0, 0, 1, 0, 0]):
        s = realize_local_h(target)
        assert s.local_h().padded(len(target) - 1) == tuple(target)


@pytest.fixture
def checked_builds(monkeypatch):
    """Route every ``Subdivision._built`` through the checked constructor too:
    the total closed from its facets by ``SimplicialComplex`` and the carrier
    map checked by ``Subdivision.__init__``.  Base, facets, face levels and
    carrier must agree.  Returns a list that grows by one per build compared."""
    built, count = Subdivision._built.__func__, []

    def checked(cls, base, total, carrier):
        s = built(cls, base, total, carrier)
        oracle = Subdivision(base, SimplicialComplex(s.total.facets), dict(carrier))
        assert s.base == oracle.base
        assert s.total.facets == oracle.total.facets
        assert s.total.faces_by_dim() == oracle.total.faces_by_dim()
        assert s.carrier == oracle.carrier
        count.append(1)
        return s

    monkeypatch.setattr(Subdivision, "_built", classmethod(checked))
    return count


@pytest.mark.parametrize("d_max", [5, 6, 7])
def test_ops_build_what_the_checked_route_builds_on_random_words(checked_builds, d_max):
    ops = Counter()
    for seed in range(200):
        _, word = random_subdivision(seed, d_max, 6)
        ops.update(step.op for step in word.steps)
    assert set(ops) == {"o1", "o3", "l32"}  # l32 builds a push, then a stellar
    assert len(checked_builds) == 200 + ops["o1"] + ops["o3"] + 2 * ops["l32"]


def test_ops_build_what_the_checked_route_builds_on_realizations(checked_builds):
    for d in range(1, 12):
        realize_local_h([0] + [1] * (d - 1) + [0])
    assert len(checked_builds) > 11


@pytest.mark.parametrize(
    "word, builds",
    [
        (OpWord(4, (OpStep("l32", "auto"),)), 3),
        (OpWord(4, (OpStep("o2", "v1,v2,v3"),)), 2),
        (OpWord(3, (OpStep("o1", "auto"), OpStep("sd"), OpStep("o3"), OpStep("o1", "auto"))), 4),
    ],
)
def test_ops_build_what_the_checked_route_builds_on_op_words(checked_builds, word, builds):
    replay(word)
    assert len(checked_builds) == builds  # the seed, then each op but sd


def test_stellar_sorts_fresh_apexes_past_nine(checked_builds):
    s = trivial_on(3)
    for _ in range(10):
        s = stellar_facet(s)
    # "z10" sorts before "z9", so appending the apex would leave this unsorted
    assert ("v2", "z10", "z9") in s.total.facets
    assert len(checked_builds) == 11
