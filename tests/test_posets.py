import pytest

from localh.complexes import SimplicialComplex, simplex
from localh.constructions import stellar_facet, trivial_on
from localh.polynomials import ZERO, Polynomial, gamma_extract
from localh.posets import (
    AbPolynomial,
    CdPolynomial,
    FacePoset,
    NotExpressible,
    UngradedPosetError,
    ab_index,
    cd_extract,
    cd_words,
    ek_difference,
    face_poset,
    flag_vectors,
    sd_complex,
    sd_subdivision,
)

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
    with pytest.raises(UngradedPosetError):
        FacePoset((("a", 0), ("b", 2)), (("a", "b"),))
    with pytest.raises(UngradedPosetError):
        FacePoset((("a", 1),), ())  # maximal chain does not start at dimension 0


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
    with pytest.raises(ValueError):
        sd_subdivision(SQUARE_CELL)


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


def test_ab_index_examples():
    assert dict(ab_index(face_poset(HEXAGON)).coeffs) == {
        "aa": 1, "ab": 5, "ba": 5, "bb": 1,
    }
    assert dict(ab_index(face_poset(PATH2)).coeffs) == {"aa": 1, "ab": 1, "ba": 2}


def test_ab_substitution_gives_sd_h():
    for poset in [face_poset(HEXAGON), face_poset(PATH2), SQUARE_CELL]:
        psi = ab_index(poset)
        assert psi.at_a_equals_one() == sd_complex(poset).h_polynomial()


def test_cd_words():
    assert cd_words(0) == [""]
    assert cd_words(2) == ["cc", "d"]
    assert len(cd_words(6)) == 13  # Fibonacci growth


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
    result = cd_extract(AbPolynomial.from_dict(2, {"ab": 1, "ba": -1}))
    assert isinstance(result, NotExpressible)
    assert result.residual in {"ab", "ba"}


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
        assert result.ab.at_a_equals_one() == result.difference


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
