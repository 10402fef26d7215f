from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from localh.polynomials import (
    ONE,
    ZERO,
    GammaVector,
    NotSymmetricError,
    Polynomial,
    gamma_compose,
    gamma_extract,
    geometric_block,
    h_from_f,
    is_unimodal,
)

ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(ints, max_size=6).map(Polynomial)


def excedance_histogram_derangements(d):
    """Independent oracle: brute-force excedance counts over derangements."""
    counts = [0] * (d + 1)
    for perm in permutations(range(1, d + 1)):
        if any(perm[i] == i + 1 for i in range(d)):
            continue
        counts[sum(1 for i in range(d) if perm[i] > i + 1)] += 1
    return Polynomial(counts)


def test_mul_binomial_square():
    p = Polynomial([1, 1])
    assert p * p == Polynomial([1, 2, 1])


def test_sub_h_difference():
    assert Polynomial([1, 10, 7]) - Polynomial([1, 4, 1]) == Polynomial([0, 6, 6])


def test_mul_identity():
    p = Polynomial([3, 0, -2, 5])
    assert p * ONE == p
    assert ONE * p == p


def test_trim_and_degree():
    assert Polynomial([0, 1, 0, 0]).coeffs == (0, 1)
    assert Polynomial().degree is None
    assert Polynomial([0]).degree is None
    assert Polynomial([5]).degree == 0
    assert str(ZERO) == "0"


def test_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial([1.0, 2])


def test_geometric_block():
    assert geometric_block(1, 3) == Polynomial([0, 1, 1, 1])
    assert geometric_block(1, 0) == ZERO
    assert geometric_block(0, 2) == Polynomial([1, 1, 1])
    with pytest.raises(ValueError):
        geometric_block(-1, 2)


def test_is_symmetric_derangement_oracle():
    d3 = excedance_histogram_derangements(3)
    assert d3 == Polynomial([0, 1, 1])
    assert d3.is_symmetric(3)


def test_is_symmetric_cases():
    assert Polynomial([0, 1, 0, 1]).is_symmetric(4)
    assert not Polynomial([1, 2]).is_symmetric(2)
    with pytest.raises(ValueError):
        Polynomial([1, 1, 1]).is_symmetric(1)


def test_gamma_extract_examples():
    assert gamma_extract(Polynomial([0, 7, 7]), 3).gammas == (0, 7)
    assert gamma_extract(Polynomial([0, 1, 0, 1]), 4).gammas == (0, 1, -2)
    assert gamma_extract(ZERO, 2).gammas == (0, 0)


def test_gamma_extract_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError):
        gamma_extract(Polynomial([1, 2]), 2)


def test_gamma_compose_examples():
    assert gamma_compose(GammaVector((0, 1, -2), 4)) == Polynomial([0, 1, 0, 1])
    assert gamma_compose(GammaVector((1,), 0)) == ONE
    assert gamma_compose(GammaVector((0, 7), 3)) == Polynomial([0, 7, 7])


@given(st.lists(ints, min_size=1, max_size=4), st.integers(0, 3))
def test_gamma_round_trip(gammas, extra):
    d = 2 * (len(gammas) - 1) + extra % 2
    g = GammaVector(tuple(gammas) + (0,) * ((d // 2 + 1) - len(gammas)), d)
    p = gamma_compose(g)
    assert gamma_extract(p, d) == g


def test_h_from_f_examples():
    assert h_from_f((1,)) == ONE
    # the solid triangle, the boundary of a triangle, the octahedron
    assert h_from_f((1, 3, 3, 1)) == ONE
    assert h_from_f((1, 3, 3)) == Polynomial([1, 1, 1])
    assert h_from_f((1, 6, 12, 8)) == Polynomial([1, 3, 3, 1])


def test_unimodal_examples():
    assert is_unimodal((0, 1, 1, 0))
    assert not is_unimodal((0, 1, 0, 1, 0))
    assert is_unimodal(())
    assert is_unimodal((2,))
    assert is_unimodal((1, 2, 3))
    assert is_unimodal((3, 2, 1))


@given(st.lists(st.integers(-5, 5), max_size=7))
def test_unimodal_matches_pivot_definition(values):
    brute = any(
        all(values[i] <= values[i + 1] for i in range(s))
        and all(values[i] >= values[i + 1] for i in range(s, len(values) - 1))
        for s in range(max(len(values), 1))
    )
    assert is_unimodal(values) == brute


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_padded():
    assert Polynomial([0, 7, 7]).padded(3) == (0, 7, 7, 0)
    with pytest.raises(ValueError):
        Polynomial([1, 1, 1]).padded(1)
