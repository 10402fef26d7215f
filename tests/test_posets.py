import math
import pathlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from test_permstats import zhang_recurrence

from localh import serialize
from localh.complexes import SimplicialComplex, simplex
from localh.constructions import random_subdivision, stellar_facet, trivial_on
from localh.permstats import derangement_recurrence
from localh.polynomials import ZERO, Polynomial, gamma_extract
from localh.posets import (
    AbPolynomial,
    CdPolynomial,
    FacePoset,
    NotExpressible,
    UngradedPosetError,
    ab_index,
    boundary_poset,
    cd_extract,
    cd_word_degree,
    ek_difference,
    face_id,
    face_poset,
    flag_vectors,
    sd_complex,
    sd_subdivision,
)
from localh.subdivisions import BaseNotSimplexError, Subdivision, _ordered_partitions

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

HEXAGON = SimplicialComplex(
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")]
)
PATH2 = SimplicialComplex([("a", "m"), ("b", "m")])

SQUARE_CELL = FacePoset(
    elements=(
        ("v1", 0), ("v2", 0), ("v3", 0), ("v4", 0),
        ("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1),
        ("c", 2),
    ),
    covers=(
        ("v1", "e1"), ("v2", "e1"),
        ("v2", "e2"), ("v3", "e2"),
        ("v3", "e3"), ("v4", "e3"),
        ("v4", "e4"), ("v1", "e4"),
        ("e1", "c"), ("e2", "c"), ("e3", "c"), ("e4", "c"),
    ),
)


def test_face_poset_counts():
    edge = face_poset(simplex("12"))
    assert len(edge.elements) == 3
    assert len(edge.covers) == 2

    tri = face_poset(simplex("123"))
    assert len(tri.elements) == 7
    # each edge covers 2 vertices, the triangle covers 3 edges
    assert len(tri.covers) == 9

    hexp = face_poset(HEXAGON)
    assert len(hexp.elements) == 12
    assert len(hexp.covers) == 12


def test_gradedness_enforced():
    with pytest.raises(UngradedPosetError, match=r"cover \(a, b\) goes from dimension 0 to 2"):
        FacePoset((("a", 0), ("b", 2)), (("a", "b"),))
    with pytest.raises(UngradedPosetError, match="minimal element a has dimension 1"):
        FacePoset((("a", 1),), ())  # maximal chain does not start at dimension 0


def chain_walk_is_graded(elements, covers):
    """Gradedness by walking every maximal chain from a minimal element."""
    dims = dict(elements)
    if any(dims[up] <= dims[lo] for lo, up in covers):
        return False
    up = {e: sorted(hi for lo, hi in covers if lo == e) for e in dims}
    has_lower = {hi for _, hi in covers}
    stack = [(e,) for e in dims if e not in has_lower]
    while stack:
        chain = stack.pop()
        if not up[chain[-1]]:
            if [dims[e] for e in chain] != list(range(len(chain))):
                return False
        stack.extend(chain + (nxt,) for nxt in up[chain[-1]])
    return True


@st.composite
def cover_sets(draw):
    """Elements on consecutive levels 0..3 joined by covers between
    neighbouring levels, where an element sometimes gets no cover from below
    and sometimes one cover skips or repeats a level: about half the draws
    are graded."""
    dims = [0]
    for step in draw(st.lists(st.integers(0, 1), max_size=6)):
        dims.append(min(dims[-1] + step, 3))
    elements = tuple((f"x{i}", d) for i, d in enumerate(dims))
    covers = set()
    for b, db in elements:
        below = [a for a, da in elements if da == db - 1]
        if below and draw(st.integers(0, 9)):
            lower = draw(st.lists(st.sampled_from(below), min_size=1, max_size=2))
            covers.update((a, b) for a in lower)
    jumps = [(a, b) for a, da in elements for b, db in elements if a != b and db != da + 1]
    if jumps and not draw(st.integers(0, 3)):
        covers.add(draw(st.sampled_from(jumps)))
    return elements, tuple(sorted(covers))


@given(cover_sets())
def test_local_gradedness_check_matches_the_chain_walk(poset):
    elements, covers = poset
    if chain_walk_is_graded(elements, covers):
        FacePoset(elements, covers)
    else:
        with pytest.raises(UngradedPosetError):
            FacePoset(elements, covers)


def test_sd_examples():
    tri = sd_complex(face_poset(simplex("123")))
    assert tri.f_vector() == (1, 7, 12, 6)

    edge = sd_complex(face_poset(simplex("12")))
    assert edge.f_vector() == (1, 3, 2)

    square = sd_complex(SQUARE_CELL)
    assert len(square.facets) == 8
    assert square.f_vector() == (1, 9, 16, 8)


def test_sd_subdivision_examples():
    s = sd_subdivision(trivial_on(3))
    assert s.local_h() == Polynomial([0, 1, 1])
    assert s.validate().valid

    stellar = sd_subdivision(stellar_facet(trivial_on(3)))
    assert stellar.local_h() == Polynomial([0, 7, 7])


def test_sd_restriction_commutes():
    s = trivial_on(3)
    bary = sd_subdivision(s)
    for face in [("v1",), ("v1", "v2"), ("v1", "v2", "v3")]:
        assert bary.restriction(face) == sd_subdivision(s.restriction(face))


def test_sd_requires_carriers():
    with pytest.raises(ValueError, match="carriers are required"):
        sd_subdivision(SQUARE_CELL)
    p = face_poset(trivial_on(2))
    p.carrier["v1"] = ("v3",)
    with pytest.raises(ValueError, match="not a base face"):
        sd_subdivision(p)


# -- Subdivision.bary_local_h against the built barycentric subdivision ---------


def test_bary_local_h_matches_the_built_sd(sd_sources):
    names = set()
    for name, source in sd_sources:
        if isinstance(source, FacePoset):
            continue
        built = sd_subdivision(source)
        if not built.base_is_simplex:
            with pytest.raises(BaseNotSimplexError):
                source.bary_local_h()
            continue
        assert source.bary_local_h() == built.local_h(), name
        names.add(name)
    assert {"bary_stellar_triangle", "simplex5", "corpus19"} <= names


def test_bary_local_h_matches_the_built_sd_on_the_corpus(corpus_summaries):
    bary = [m for m in corpus_summaries if m.bary]
    assert len(bary) == 100
    assert [m.seed for m in bary if m.chain_local_h != m.local_h] == []


@pytest.mark.parametrize("n", range(1, 12))
def test_bary_local_h_of_the_simplex_is_the_derangement_polynomial(n):
    # past the S_9 bound where the bary-local-h identity record skips
    got = trivial_on(n).bary_local_h()
    assert got == derangement_recurrence(n) == zhang_recurrence(n)[n]


@pytest.mark.parametrize("m", range(1, 7))
def test_chain_weights_count_the_chains_topped_by_the_full_face(m):
    vertices = tuple(f"v{i}" for i in range(1, m + 1))
    chains = sd_complex(face_poset(simplex(vertices))).nonempty_faces()
    top = face_id(vertices)
    for k in range(1, m + 1):
        topped = sum(1 for c in chains if len(c) == k and top in c)
        assert _ordered_partitions(m, k) == topped, (m, k)


# -- the chain DP against the maximal-chain walk -------------------------------


def maximal_chains(p):
    """Every maximal chain, by a stack walk up the covers from each minimal element."""
    up = {e: sorted(hi for lo, hi in p.covers if lo == e) for e, _ in p.elements}
    has_lower = {hi for _, hi in p.covers}
    minimal = sorted(e for e, _ in p.elements if e not in has_lower)
    chains = []
    stack = [(e,) for e in reversed(minimal)]
    while stack:
        chain = stack.pop()
        ups = up[chain[-1]]
        if not ups:
            chains.append(chain)
        else:
            stack.extend(chain + (nxt,) for nxt in reversed(ups))
    return chains


def oracle_sd_complex(p):
    """The order complex generated, and closed, from the maximal chains."""
    return SimplicialComplex(maximal_chains(p) if p.elements else [()])


def oracle_sd_carrier(p, total):
    """Each chain's carrier, read off its element of highest dimension."""
    return {
        chain: p.carrier[max(chain, key=lambda e: p.dims[e])]
        for chain in total.nonempty_faces()
    }


def assert_same_complex(got, want):
    assert got == want
    assert got.facets == want.facets
    assert got.faces_by_dim() == want.faces_by_dim()


def test_order_complex_matches_the_chain_walk(sd_sources):
    for name, source in sd_sources:
        p = face_poset(source) if isinstance(source, Subdivision) else source
        want = oracle_sd_complex(p)
        assert_same_complex(sd_complex(p), want)
        if p.carrier is None:
            assert name in ("hexagon_poset", "square_poset")
            continue
        s = sd_subdivision(source)
        assert_same_complex(s.total, want)
        assert s.carrier == oracle_sd_carrier(p, want), name


def test_order_complex_of_the_empty_poset():
    p = FacePoset((), ())
    assert_same_complex(sd_complex(p), oracle_sd_complex(p))


def test_flag_vectors_hexagon():
    f, h = flag_vectors(face_poset(HEXAGON))
    assert f[frozenset()] == 1
    assert f[frozenset({1})] == 6
    assert f[frozenset({2})] == 6
    assert f[frozenset({1, 2})] == 12
    assert h[frozenset({1, 2})] == 1
    assert h[frozenset()] == 1


def test_flag_vectors_path():
    f, h = flag_vectors(face_poset(PATH2))
    assert f[frozenset({1, 2})] == 4
    assert h[frozenset({1, 2})] == 0


def test_flag_sums_give_sd_h():
    for poset, complex_ in [
        (face_poset(HEXAGON), HEXAGON),
        (face_poset(PATH2), PATH2),
        (face_poset(simplex("123")), simplex("123")),
        (SQUARE_CELL, None),
    ]:
        d = poset.rank
        _, h = flag_vectors(poset)
        sd_h = sd_complex(poset).h_polynomial().padded(d)
        for i in range(d + 1):
            total = sum(v for s, v in h.items() if len(s) == i)
            assert total == sd_h[i]


def walk_flag_vectors(p):
    """Flag f and h by visiting every chain, and h by a 3^n submask sum."""
    d = p.rank
    order, dimlist, above = p._above_masks()
    f_mask = {0: 1}

    def visit(i, mask):
        f_mask[mask] = f_mask.get(mask, 0) + 1
        m = above[i]
        while m:
            j = (m & -m).bit_length() - 1
            visit(j, mask | (1 << dimlist[j]))
            m &= m - 1

    for i in range(len(order)):
        visit(i, 1 << dimlist[i])

    def to_set(mask):
        return frozenset(k + 1 for k in range(d) if mask & (1 << k))

    h = {}
    for sm in range(1 << d):
        total = 0
        sub = sm
        while True:
            sign = -1 if (sm.bit_count() - sub.bit_count()) % 2 else 1
            total += sign * f_mask.get(sub, 0)
            if sub == 0:
                break
            sub = (sub - 1) & sm
        h[to_set(sm)] = total
    return {to_set(m): f_mask.get(m, 0) for m in range(1 << d)}, h


def simplicial_flag_f(k: SimplicialComplex) -> dict[frozenset, int]:
    """Flag f of a simplicial complex's face poset in closed form: a chain
    with dimensions s_1 < ... < s_j ending at a face of dimension s_j is an
    ordered partition of that face's vertices into blocks of sizes
    s_1 + 1, s_2 - s_1, ..., s_j - s_(j-1)."""
    fv = k.f_vector()
    d = len(fv) - 1
    out = {}
    for mask in range(1 << d):
        dims = [i for i in range(d) if mask >> i & 1]
        count = fv[dims[-1] + 1] * math.factorial(dims[-1] + 1) if dims else 1
        for lo, hi in zip([-1, *dims], dims):
            count //= math.factorial(hi - lo)
        out[frozenset(i + 1 for i in dims)] = count
    return out


def order_complex_difference(p: FacePoset) -> Polynomial:
    """h of the order complex minus h of its simplicial boundary."""
    order = sd_complex(p)
    rim = order.boundary()
    return order.h_polynomial() - (ZERO if rim.is_void else rim.h_polynomial())


def fixture_posets():
    return [
        serialize.poset_from_obj(serialize.load_json(str(path)))
        for path in sorted(FIXTURES.glob("*_poset.json"))
    ]


def sd_simplex_poset(d: int) -> FacePoset:
    return face_poset(sd_subdivision(trivial_on(d)).total)


@st.composite
def corpus_restrictions(draw):
    """The face poset of a restriction of a corpus member to a base face
    with at most four vertices."""
    seed = draw(st.integers(0, 99))
    s, _ = random_subdivision(seed, 5, seed % 7)
    k = draw(st.integers(1, min(len(s.base.vertices), 4)))
    face = draw(st.sampled_from(list(combinations(s.base.vertices, k))))
    return face_poset(s.restriction_complex(face))


def test_flag_vectors_match_the_chain_walk_on_fixtures_and_sd_simplices():
    posets = [face_poset(HEXAGON), face_poset(PATH2), SQUARE_CELL, *fixture_posets()]
    posets += [sd_simplex_poset(d) for d in range(1, 6)]
    for p in posets:
        assert flag_vectors(p) == walk_flag_vectors(p)


@pytest.mark.parametrize("d", range(1, 7))
def test_flag_f_of_sd_simplex_matches_the_closed_form(d):
    total = sd_subdivision(trivial_on(d)).total
    f, h = flag_vectors(face_poset(total))
    assert f == simplicial_flag_f(total)
    assert sum(h.values()) == f[frozenset(range(1, d + 1))]


@settings(max_examples=50, deadline=None)
@given(corpus_restrictions())
def test_flag_route_matches_the_chain_walk_and_order_complex_on_restrictions(p):
    assert flag_vectors(p) == walk_flag_vectors(p)
    assert ek_difference(p).difference == order_complex_difference(p)


def test_ek_difference_matches_the_order_complex_on_fixtures_and_simplices():
    posets = [face_poset(HEXAGON), face_poset(PATH2), SQUARE_CELL, *fixture_posets()]
    posets += [sd_simplex_poset(d) for d in range(1, 5)]
    posets += [face_poset(simplex("abcdef"[:n])) for n in range(1, 7)]
    for p in posets:
        assert ek_difference(p).difference == order_complex_difference(p)


def test_ab_index_examples():
    assert dict(ab_index(face_poset(HEXAGON)).coeffs) == {
        "aa": 1, "ab": 5, "ba": 5, "bb": 1,
    }
    assert dict(ab_index(face_poset(PATH2)).coeffs) == {"aa": 1, "ab": 1, "ba": 2}


def test_ab_substitution_gives_sd_h():
    for poset in [face_poset(HEXAGON), face_poset(PATH2), SQUARE_CELL]:
        psi = ab_index(poset)
        assert psi.at_a_equals_one() == sd_complex(poset).h_polynomial()


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


def expand_cd_word(word: str) -> list[str]:
    return list(CdPolynomial.from_dict(cd_word_degree(word), {word: 1}).expand_ab().as_dict())


def gaussian_cd_extract(psi: AbPolynomial) -> CdPolynomial | None:
    """cd-form by Gaussian elimination over the rationals on the 2^n x Fib(n+1)
    system of cd-word expansions; None when there is none."""
    words = cd_words(psi.degree)
    ab_words = sorted({w for cw in words for w in expand_cd_word(cw)} | set(psi.as_dict()))
    row_index = {w: i for i, w in enumerate(ab_words)}
    aug = [[Fraction(0)] * (len(words) + 1) for _ in ab_words]
    for j, cw in enumerate(words):
        for w in expand_cd_word(cw):
            aug[row_index[w]][j] += 1
    for w, c in psi.coeffs:
        aug[row_index[w]][-1] = Fraction(c)
    pivot_cols = []
    r = 0
    for c in range(len(words)):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    solution = dict.fromkeys(words, Fraction(0))
    for i, c in enumerate(pivot_cols):
        solution[words[c]] = aug[i][-1]
    if any(v.denominator != 1 for v in solution.values()):
        return None
    candidate = CdPolynomial.from_dict(psi.degree, {w: int(v) for w, v in solution.items()})
    return candidate if candidate.expand_ab() == psi else None


def ce_coefficient(psi: AbPolynomial, word: str) -> int:
    """Coefficient of a c/e-word in 2^n psi, from a = (c+e)/2, b = (c-e)/2."""
    return sum(
        c * (-1) ** sum(x == "b" and y == "e" for x, y in zip(w, word))
        for w, c in psi.coeffs
    )


def has_odd_e_run(word: str) -> bool:
    return any(len(run) % 2 for run in word.split("c"))


def test_cd_words():
    assert cd_words(0) == [""]
    assert cd_words(2) == ["cc", "d"]
    assert len(cd_words(6)) == 13  # Fibonacci growth


@st.composite
def cd_polynomials(draw, max_degree=7):
    degree = draw(st.integers(0, max_degree))
    coeffs = draw(st.dictionaries(st.sampled_from(cd_words(degree)), st.integers(-9, 9)))
    return CdPolynomial.from_dict(degree, coeffs)


@st.composite
def ab_polynomials(draw, max_degree=7):
    """A cd-polynomial's expansion plus a few random ab-words, which usually
    leaves no cd-form."""
    cd = draw(cd_polynomials(max_degree))
    words = st.text("ab", min_size=cd.degree, max_size=cd.degree)
    noise = draw(st.dictionaries(words, st.integers(-9, 9), max_size=3))
    return cd.expand_ab() - AbPolynomial.from_dict(cd.degree, noise)


@settings(deadline=None)
@given(cd_polynomials())
def test_cd_extract_recovers_every_cd_polynomial(cd):
    psi = cd.expand_ab()
    assert cd_extract(psi) == cd == gaussian_cd_extract(psi)


@settings(deadline=None)
@given(ab_polynomials())
def test_cd_extract_matches_gaussian_elimination(psi):
    got = cd_extract(psi)
    want = gaussian_cd_extract(psi)
    if want is not None:
        assert got == want
        return
    assert isinstance(got, NotExpressible)
    witness = got.residual
    assert len(witness) == psi.degree and set(witness) <= {"c", "e"}
    assert has_odd_e_run(witness) and ce_coefficient(psi, witness) != 0
    n = psi.degree
    for u in range(1 << n):
        word = "".join("ce"[u >> (n - 1 - i) & 1] for i in range(n))
        if word == witness:
            break
        assert not has_odd_e_run(word) or ce_coefficient(psi, word) == 0


def test_cd_extract_hexagon():
    result = cd_extract(ab_index(face_poset(HEXAGON)))
    assert isinstance(result, CdPolynomial)
    assert dict(result.coeffs) == {"cc": 1, "d": 4}
    assert result.expand_ab() == ab_index(face_poset(HEXAGON))


def test_cd_extract_difference_at_degree_two():
    psi = AbPolynomial.from_dict(2, {"ab": 1, "ba": 1})
    result = cd_extract(psi)
    assert isinstance(result, CdPolynomial)
    assert dict(result.coeffs) == {"d": 1}


def test_cd_extract_not_expressible():
    # ab - ba = ((c+e)(c-e) - (c-e)(c+e))/4 = (ec - ce)/2
    psi = AbPolynomial.from_dict(2, {"ab": 1, "ba": -1})
    result = cd_extract(psi)
    assert isinstance(result, NotExpressible)
    assert result.residual == "ce"
    assert has_odd_e_run(result.residual)
    assert ce_coefficient(psi, result.residual) == -2


def test_ek_difference_path():
    result = ek_difference(PATH2)
    assert dict(result.ab.coeffs) == {"ab": 1, "ba": 1}
    assert isinstance(result.cd, CdPolynomial)
    assert dict(result.cd.coeffs) == {"d": 1}
    assert result.difference == Polynomial([0, 2])
    # standard basis: 2x = 2 * x(1+x)^0; the cd coefficient of the degree-two
    # letter is 1, which the scaled relation in test_cd_gamma_relation covers
    assert gamma_extract(result.difference, 2).gammas == (0, 2)
    assert not result.closed


def test_ek_difference_sd_of_stellar():
    stellar = SimplicialComplex(
        [("1", "2", "z"), ("1", "3", "z"), ("2", "3", "z")]
    )
    result = ek_difference(stellar)
    assert result.difference == Polynomial([0, 6, 6])
    assert isinstance(result.cd, CdPolynomial)
    assert result.cd.is_nonnegative
    x = Polynomial([0, 1])
    one_plus_x = Polynomial([1, 1])
    assert result.cd.evaluate(one_plus_x, 2 * x) == result.difference


def test_ek_difference_degenerate_point():
    result = ek_difference(simplex("a"))
    assert result.ab.coeffs == ()
    assert isinstance(result.cd, CdPolynomial)
    assert result.cd.coeffs == ()
    assert result.difference == ZERO


def test_ek_difference_closed_sphere():
    result = ek_difference(face_poset(HEXAGON))
    assert result.closed
    assert result.ab == ab_index(face_poset(HEXAGON))
    assert isinstance(result.cd, CdPolynomial)
    assert result.cd.evaluate(Polynomial([1, 1]), Polynomial([0, 2])) == result.difference


def test_ek_difference_square_cell():
    result = ek_difference(SQUARE_CELL)
    assert not result.closed
    assert result.ab.coeffs == ()
    assert result.difference == ZERO


def test_ek_difference_carries_the_ab_index():
    for source in [PATH2, SQUARE_CELL, face_poset(HEXAGON)]:
        p = source if isinstance(source, FacePoset) else face_poset(source)
        assert ek_difference(source).ab_index == ab_index(p)


def test_ek_difference_ab_substitution_consistency():
    for source in [PATH2, simplex("ab"), SQUARE_CELL]:
        result = ek_difference(source)
        p = source if isinstance(source, FacePoset) else face_poset(source)
        assert result.ab.at_a_equals_one() == result.difference == order_complex_difference(p)


def test_cd_gamma_relation():
    # substituting 1+x for c and 2x for the degree-two letter turns word
    # counts into gamma coordinates scaled by powers of two
    result = ek_difference(
        SimplicialComplex([("1", "2", "z"), ("1", "3", "z"), ("2", "3", "z")])
    )
    d = result.degree
    gamma = gamma_extract(result.difference, d)
    by_d_count = {}
    for w, c in result.cd.coeffs:
        by_d_count[w.count("d")] = by_d_count.get(w.count("d"), 0) + c
    for k, g in enumerate(gamma.gammas):
        assert g == by_d_count.get(k, 0) * 2**k


def closure_boundary_poset(p):
    """The rim's order ideal through a transitive closure of the covers."""
    d = p.rank
    count = {e: 0 for e, _ in p.elements}
    for lo, up in p.covers:
        if p.dims[lo] == d - 2 and p.dims[up] == d - 1:
            count[lo] += 1
    keep = {e for e, dim in p.elements if dim == d - 2 and count[e] == 1}
    frontier = set(keep)
    while frontier:
        frontier = {lo for lo, up in p.covers if up in frontier} - keep
        keep |= frontier
    return keep or None


def test_boundary_poset_is_the_order_ideal_of_the_rim():
    sources = [
        PATH2,
        simplex("abc"),
        simplex("abcde"),
        HEXAGON,
        stellar_facet(trivial_on(4)).total,
        sd_subdivision(stellar_facet(trivial_on(3))).total,
    ]
    posets = [face_poset(s) for s in sources] + [SQUARE_CELL]
    for p in posets:
        got = boundary_poset(p)
        want = closure_boundary_poset(p)
        if want is None:
            assert got is None
            continue
        assert {e for e, _ in got.elements} == want
        assert got.elements == tuple(x for x in p.elements if x[0] in want)
        assert got.covers == tuple(
            c for c in p.covers if c[0] in want and c[1] in want
        )
