"""Permutation statistics: Eulerian polynomials via descents and derangement
polynomials via excedances, plus the boundary-difference recurrence for the
latter.

Enumeration and recurrence are deliberately separate code paths so that they
can check each other.  Exhaustive enumeration is capped at S_9 (``ENUM_BOUND``);
the recurrence has no bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

from .polynomials import ONE, Polynomial, geometric_block

ENUM_BOUND = 9


class EnumerationBoundError(ValueError):
    """Raised when an exhaustive enumeration would exceed ``ENUM_BOUND``."""


def _check_bound(d: int):
    if d < 0:
        raise ValueError("order must be nonnegative")
    if d > ENUM_BOUND:
        raise EnumerationBoundError(f"enumeration over S_{d} exceeds the bound {ENUM_BOUND}")


@lru_cache(maxsize=None)
def eulerian_polynomial(d: int) -> Polynomial:
    """Descent-count generating polynomial over all permutations of 1..d."""
    _check_bound(d)
    counts = [0] * max(d, 1)
    for perm in permutations(range(1, d + 1)):
        descents = sum(1 for k in range(d - 1) if perm[k] > perm[k + 1])
        counts[descents] += 1
    total = sum(counts)
    assert total == math.factorial(d)
    return Polynomial(counts)


@lru_cache(maxsize=None)
def derangement_enum(d: int) -> Polynomial:
    """Excedance generating polynomial over the fixed-point-free permutations of 1..d."""
    _check_bound(d)
    if d == 0:
        return ONE
    counts = [0] * (d + 1)
    for perm in permutations(range(1, d + 1)):
        if any(perm[i] == i + 1 for i in range(d)):
            continue
        exc = sum(1 for i in range(d) if perm[i] > i + 1)
        counts[exc] += 1
    return Polynomial(counts)


@lru_cache(maxsize=None)
def derangement_recurrence(d: int) -> Polynomial:
    """The same polynomial built bottom-up from binomially weighted blocks.

    Order 0 is 1 by convention; for d >= 1 the polynomial is the sum over
    k < d-1 of C(d, k) times the order-k polynomial times x + ... + x^(d-1-k).
    """
    if d < 0:
        raise ValueError("order must be nonnegative")
    if d == 0:
        return ONE
    total = Polynomial()
    for k in range(d - 1):
        total = total + math.comb(d, k) * (
            derangement_recurrence(k) * geometric_block(1, d - 1 - k)
        )
    return total
