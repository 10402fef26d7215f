"""Permutation statistics: Eulerian polynomials via descents and derangement
polynomials via excedances, plus the boundary-difference recurrence for the
latter.

Enumeration and recurrence are deliberately separate code paths so that they
can check each other.  Exhaustive enumeration is capped (default 9, override
with the LOCALH_MAX_ENUM environment variable, hard ceiling 12).
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

from .polynomials import ONE, Polynomial, geometric_block

DEFAULT_ENUM_BOUND = 9
HARD_ENUM_CEILING = 12
ENUM_BOUND_ENV = "LOCALH_MAX_ENUM"


class EnumerationBoundError(ValueError):
    """Raised when an exhaustive enumeration would exceed the configured bound."""


def enumeration_bound() -> int:
    raw = os.environ.get(ENUM_BOUND_ENV)
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise EnumerationBoundError(
            f"{ENUM_BOUND_ENV}={raw!r} is not an integer"
        ) from None
    if bound > HARD_ENUM_CEILING:
        raise EnumerationBoundError(
            f"{ENUM_BOUND_ENV}={bound} exceeds the hard ceiling {HARD_ENUM_CEILING}"
        )
    return bound


def _check_bound(d: int):
    if d < 0:
        raise ValueError("order must be nonnegative")
    bound = enumeration_bound()
    if d > bound:
        raise EnumerationBoundError(
            f"enumeration over S_{d} exceeds the bound {bound}; "
            f"raise {ENUM_BOUND_ENV} (hard ceiling {HARD_ENUM_CEILING})"
        )


def permutations_lex(n: int):
    """Yield the permutations of 1..n in lexicographic order.

    Uses the in-place successor algorithm: find the longest descending
    suffix, swap its predecessor with the smallest larger suffix entry,
    reverse the suffix.
    """
    perm = list(range(1, n + 1))
    yield tuple(perm)
    while True:
        i = n - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = reversed(perm[i + 1 :])
        yield tuple(perm)


@lru_cache(maxsize=None)
def eulerian_polynomial(d: int) -> Polynomial:
    """Descent-count generating polynomial over all permutations of 1..d."""
    _check_bound(d)
    counts = [0] * max(d, 1)
    for perm in permutations_lex(d):
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
    for perm in permutations_lex(d):
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
