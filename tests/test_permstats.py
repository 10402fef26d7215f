import math

import pytest

from localh.permstats import (
    EnumerationBoundError,
    derangement_enum,
    derangement_recurrence,
    eulerian_polynomial,
)
from localh.polynomials import ONE, ZERO, Polynomial, gamma_extract, is_unimodal


def test_eulerian_examples():
    assert eulerian_polynomial(3) == Polynomial([1, 4, 1])
    assert eulerian_polynomial(1) == ONE
    assert eulerian_polynomial(4) == Polynomial([1, 11, 11, 1])


def test_eulerian_counts_sum_to_factorial():
    for d in range(7):
        assert sum(eulerian_polynomial(d).coeffs) == math.factorial(d)


def test_derangement_examples():
    assert derangement_enum(0) == ONE
    assert derangement_enum(1) == ZERO
    assert derangement_enum(3) == Polynomial([0, 1, 1])
    assert derangement_enum(4) == Polynomial([0, 1, 7, 1])


def test_derangement_counts():
    # number of derangements: 1, 0, 1, 2, 9, 44, 265
    for d, count in enumerate([1, 0, 1, 2, 9, 44, 265]):
        assert sum(derangement_enum(d).coeffs) == count


def test_recurrence_examples():
    assert derangement_recurrence(2) == Polynomial([0, 1])
    assert derangement_recurrence(3) == Polynomial([0, 1, 1])
    assert derangement_recurrence(4) == Polynomial([0, 1, 7, 1])


@pytest.mark.parametrize("d", range(9))
def test_recurrence_matches_enumeration(d):
    assert derangement_recurrence(d) == derangement_enum(d)


@pytest.mark.parametrize("d", range(9))
def test_derangement_symmetric_unimodal_gamma_nonneg(d):
    p = derangement_recurrence(d)
    assert p.is_symmetric(d)
    assert is_unimodal(p.padded(d))
    assert gamma_extract(p, d).is_nonnegative


def zhang_recurrence(n):
    """Derangement polynomials by Zhang's excedance recurrence,
    d_n = x[(n-1) d_{n-1} + (1-x) d'_{n-1}] + (n-1) x d_{n-2},
    with d_0 = 1 and d_1 = 0: a route independent of the one in permstats."""
    x, one_minus_x = Polynomial([0, 1]), Polynomial([1, -1])
    out = [ONE, ZERO]
    for m in range(2, n + 1):
        prev = out[-1]
        derivative = Polynomial([i * c for i, c in enumerate(prev.coeffs)][1:])
        out.append(x * ((m - 1) * prev + one_minus_x * derivative) + (m - 1) * x * out[-2])
    return out[: n + 1]


def test_zhang_recurrence_matches_the_derangement_recurrence():
    for n, p in enumerate(zhang_recurrence(20)):
        assert p == derangement_recurrence(n), n


def test_zhang_recurrence_is_gamma_nonnegative():
    for n, p in enumerate(zhang_recurrence(30)):
        assert gamma_extract(p, n).is_nonnegative, n


def test_bound_guard():
    with pytest.raises(EnumerationBoundError):
        derangement_enum(10)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        derangement_recurrence(-1)
    with pytest.raises(ValueError):
        eulerian_polynomial(-1)
