import os
import pathlib
import re
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from localh.complexes import (
    EMPTY,
    VOID,
    NotPureError,
    RidgeInThreeFacetsError,
    SimplicialComplex,
    VoidComplexError,
    _closure,
    betti_from_columns,
    gf2_rank,
    simplex,
    simplex_boundary,
)
from localh.polynomials import ONE, Polynomial
from localh.subdivisions import Subdivision

HEXAGON = SimplicialComplex(
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")]
)


def naive_closure(facets):
    """Independent oracle: all faces including the empty one."""
    out = set()
    for f in facets:
        for k in range(len(f) + 1):
            out.update(combinations(sorted(f), k))
    return out


def naive_gf2_rank(rows, width):
    """Independent oracle: dense row reduction over nested lists."""
    mat = [[(r >> j) & 1 for j in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def sorted_pivot_gf2_rank(rows):
    """Second oracle: reduce each row against every pivot, largest first."""
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
    return len(pivots)


@st.composite
def gf2_matrices(draw):
    """A width and up to 40 rows, some of them XORs of earlier rows."""
    width = draw(st.integers(1, 64))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        if rows and draw(st.booleans()):
            row = 0
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4)):
                row ^= earlier
        else:
            row = draw(st.integers(0, 2**width - 1))
        rows.append(row)
    return width, rows


@given(gf2_matrices())
def test_gf2_rank_matches_naive(matrix):
    width, rows = matrix
    pivots = {}
    rank = gf2_rank(rows, pivots)
    assert rank == naive_gf2_rank(rows, width) == sorted_pivot_gf2_rank(rows)
    assert rank == len(pivots)
    assert all(p.bit_length() - 1 == top for top, p in pivots.items())


def naive_betti(k):
    """Reduced Betti numbers from dense ranks of every boundary map, no clearing."""
    by_size = {}
    for f in naive_closure(k.facets):
        by_size.setdefault(len(f), []).append(f)
    top = max(by_size)
    ranks = {}
    for n in range(1, top + 1):
        row = {f: i for i, f in enumerate(sorted(by_size[n - 1]))}
        cols = [sum(1 << row[sub] for sub in combinations(f, n - 1)) for f in by_size[n]]
        ranks[n] = naive_gf2_rank(cols, len(row))
    return tuple(len(by_size[n]) - ranks[n] - ranks.get(n + 1, 0) for n in range(1, top + 1))


complexes_on_seven_vertices = st.one_of(
    st.lists(
        st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=7),
        min_size=1,
        max_size=8,
    ).map(SimplicialComplex.from_faces),
    st.integers(2, 7).map(lambda n: simplex_boundary("abcdefg"[:n])),
    st.integers(2, 4).map(
        lambda n: simplex_boundary("abcd"[:n]).join(simplex_boundary("efg"))
    ),
)


@given(complexes_on_seven_vertices)
def test_betti_with_clearing_matches_naive_ranks(k):
    assert k.betti_z2() == naive_betti(k)


@given(complexes_on_seven_vertices, st.randoms(use_true_random=False))
def test_clearing_helper_gives_betti_z2_in_any_face_order(k, rng):
    # number each dimension's faces in a shuffled order: clearing needs only
    # that one numbering serves a dimension as rows and as columns
    index, levels = {(): 0}, []
    for dim in range(k.dim + 1):
        faces = sorted(k.faces(dim))
        rng.shuffle(faces)
        index.update((f, i) for i, f in enumerate(faces))
        columns = [sum(1 << index[sub] for sub in combinations(f, dim)) for f in faces]
        ids = list(range(len(faces)))
        rng.shuffle(ids)
        levels.append((ids, columns))
    assert betti_from_columns(levels) == k.betti_z2() == naive_betti(k)


def test_faces_examples():
    assert sorted(simplex("123").faces(1)) == [("1", "2"), ("1", "3"), ("2", "3")]
    assert len(HEXAGON.faces(0)) == 6
    assert VOID.faces(0) == frozenset()
    assert VOID.faces(-1) == frozenset()
    assert simplex("12").faces(-1) == frozenset({()})


def test_void_vs_empty():
    assert VOID.is_void
    assert not EMPTY.is_void
    assert EMPTY.dim == -1
    assert VOID.dim is None
    assert EMPTY.f_vector() == (1,)
    assert EMPTY.h_polynomial() == ONE
    with pytest.raises(VoidComplexError):
        VOID.f_vector()


def test_facet_domination_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex([("1", "2"), ("1",)])


def test_from_faces_keeps_maximal():
    k = SimplicialComplex.from_faces([("1",), ("1", "2"), ("2",), ()])
    assert k.facets == frozenset({("1", "2")})


def naive_maximal(faces):
    """Oracle: the quadratic maximal-member scan, largest faces first."""
    by_size = {}
    for f in {tuple(sorted(set(f))) for f in faces}:
        by_size.setdefault(len(f), set()).add(f)
    maximal = []
    for size in sorted(by_size, reverse=True):
        for f in sorted(by_size[size]):
            if not any(set(f) <= set(g) for g in maximal):
                maximal.append(f)
    return frozenset(maximal)


# face families that need not be downward closed, the empty face included
face_families = st.lists(
    st.sets(st.sampled_from("abcdefg"), max_size=7), max_size=10
).map(lambda fs: [tuple(sorted(f)) for f in fs])


@given(face_families)
def test_closure_matches_naive_scans(faces):
    k = SimplicialComplex.from_faces(faces)
    assert k.facets == naive_maximal(faces)
    assert k.all_faces() == naive_closure(faces)
    assert k.nonempty_faces() == naive_closure(faces) - {()}
    family = set(faces)
    inner = [f for f in family if any(set(f) < set(g) for g in family)]
    if inner:
        with pytest.raises(ValueError, match=re.escape(f"facet {min(inner)} is contained")):
            SimplicialComplex(faces)
    else:
        assert SimplicialComplex(faces) == k


def all_subsets_closure(faces):
    """Oracle: the closure that adds every subset of each kept face, largest
    faces first, keeping a face only if no earlier kept face holds it."""
    kept, table = [], {}
    for f in sorted(faces, key=len, reverse=True):
        if f in table.get(len(f) - 1, ()):
            continue
        kept.append(f)
        for k in range(len(f) + 1):
            table.setdefault(k - 1, set()).update(combinations(f, k))
    return kept, table


def assert_closure_matches_all_subsets(faces):
    kept, table = _closure(faces)
    want_kept, want_table = all_subsets_closure(faces)
    assert sorted(kept) == sorted(want_kept)
    assert table == want_table


@given(face_families)
def test_level_closure_matches_all_subsets(faces):
    assert_closure_matches_all_subsets(faces)


@pytest.mark.parametrize("faces", [[], [()], [(), ()], [("a",), ("a",)], [("a", "b"), ("a",), ()]])
def test_level_closure_matches_all_subsets_on_small_families(faces):
    assert_closure_matches_all_subsets(faces)


def test_level_closure_matches_all_subsets_on_totals_and_restrictions(sd_sources):
    families = 0
    for name, source in sd_sources:
        if not isinstance(source, Subdivision):
            continue
        assert_closure_matches_all_subsets(list(source.total.facets))
        assert_closure_matches_all_subsets(sorted(source.total.all_faces()))
        if name.startswith("corpus"):
            for face in source.base.all_faces():
                assert_closure_matches_all_subsets([(), *source.restriction_members(face)])
                families += 1
    assert families > 200


def test_f_vector_examples():
    stellar = SimplicialComplex([("1", "2", "z"), ("1", "3", "z"), ("2", "3", "z")])
    assert stellar.f_vector() == (1, 4, 6, 3)
    assert simplex("1").f_vector() == (1, 1)
    assert naive_closure(stellar.facets) == stellar.all_faces() | {()}  # oracle
    assert stellar.all_faces() == naive_closure(stellar.facets)


def test_h_polynomial_examples():
    assert HEXAGON.h_polynomial() == Polynomial([1, 4, 1])
    # cone over the hexagon: h unchanged
    cone = HEXAGON.join(simplex("c"))
    assert cone.h_polynomial() == HEXAGON.h_polynomial()


def test_h_sum_counts_facets_when_pure():
    for k in [simplex("1234"), HEXAGON, simplex_boundary("1234")]:
        total = sum(k.h_polynomial().coeffs)
        assert total == len(k.facets)


def test_link_examples():
    t = simplex("123")
    assert t.link(("1",)) == simplex("23")
    assert t.link(("1", "2", "3")) == EMPTY
    assert t.link(()) == t
    with pytest.raises(ValueError):
        t.link(("9",))


def test_link_h_in_simplex_and_boundary():
    full = simplex("12345")
    bd = full.boundary()
    for size in (1, 2, 3):
        face = tuple("12345"[:size])
        assert full.link(face).h_polynomial() == ONE
        want = Polynomial([1] * (5 - size))  # 1 + x + ... + x^(d-|F|-1)
        assert bd.link(face).h_polynomial() == want


def test_join_examples():
    edge = simplex("12")
    assert edge.join(simplex("p")) == simplex("12p")
    path_a = SimplicialComplex([("1", "m"), ("2", "m")])
    path_b = SimplicialComplex([("3", "n"), ("4", "n")])
    joined = path_a.join(path_b)
    assert joined.f_vector()[4] == 4
    assert edge.join(EMPTY) == edge
    with pytest.raises(ValueError):
        edge.join(simplex("1"))


def test_boundary_examples():
    assert simplex("123").boundary() == SimplicialComplex(
        [("1", "2"), ("1", "3"), ("2", "3")]
    )
    assert HEXAGON.boundary() == VOID
    # single point: boundary is the empty complex, two points: void
    assert simplex("1").boundary() == EMPTY
    assert SimplicialComplex([("1",), ("2",)]).boundary() == VOID


def test_boundary_errors():
    impure = SimplicialComplex([("1", "2", "3"), ("4", "5")])
    with pytest.raises(NotPureError):
        impure.boundary()
    three_sheets = SimplicialComplex(
        [("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5")]
    )
    with pytest.raises(RidgeInThreeFacetsError):
        three_sheets.boundary()


# Two ridges in three facets each: ab and cd.  The boundary of the complex,
# and the boundary h of a restriction to it on both routes of
# ``subset_boundary_h`` (the members, and the total over every carrier),
# must each name the least one.
THREE_SHEETS_SCRIPT = """
from localh.complexes import SimplicialComplex, canonical_face, simplex
from localh.subdivisions import Subdivision
facets = ["abc", "abd", "abe", "cdx", "cdy", "cdz"]
k = SimplicialComplex(facets)
full = canonical_face("abcdexyz")
with_q = SimplicialComplex([*facets, "q"])
carried = {g: ("q",) if g == ("q",) else full for g in with_q.nonempty_faces()}
calls = [
    k.boundary,
    lambda: Subdivision(simplex("abcdexyzq"), with_q, carried).subset_boundary_h(full),
    lambda: Subdivision(simplex(full), k, dict.fromkeys(k.nonempty_faces(), full))
    .subset_boundary_h(full),
]
for call in calls:
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_a_ridge_in_three_facets_is_named_least_under_every_hash_seed():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", THREE_SHEETS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert outputs == {"face ('a', 'b') lies in 3 facets\n" * 3}


def test_betti_examples():
    assert simplex("123").betti_z2() == (0, 0, 0)
    assert HEXAGON.betti_z2() == (0, 1)
    assert SimplicialComplex([("1",), ("2",)]).betti_z2() == (1,)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_betti_of_simplices_and_spheres(k):
    labels = [str(i) for i in range(k + 1)]
    assert simplex(labels).betti_z2() == (0,) * (k + 1)
    sphere = simplex_boundary(labels)
    want = tuple(1 if i == k - 1 else 0 for i in range(k))
    assert sphere.betti_z2() == want


def test_boundary_of_ball_is_closed():
    ball = SimplicialComplex([("1", "2", "3"), ("2", "3", "4")])
    assert ball.boundary().boundary() == VOID


small_complexes = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=3),
    min_size=1,
    max_size=5,
).map(SimplicialComplex.from_faces)


@given(small_complexes)
def test_closure_matches_naive_oracle(k):
    assert k.all_faces() == naive_closure(k.facets)


@given(small_complexes)
def test_h_sum_equals_facets_on_pure(k):
    if k.is_pure and not k.is_void:
        assert sum(k.h_polynomial().coeffs) == len(k.facets)


@given(small_complexes)
def test_cone_preserves_h(k):
    if not k.is_void:
        assert k.join(simplex("z")).h_polynomial() == k.h_polynomial()
