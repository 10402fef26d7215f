"""Exact integer univariate polynomials and the symmetry/gamma/unimodality toolkit.

A polynomial is a dense tuple of integer coefficients in ascending degree,
trailing zeros trimmed; the empty tuple is the zero polynomial.  All
arithmetic uses Python integers, so it is exact and cannot overflow.  No
floating point appears anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class NotSymmetricError(ValueError):
    """Raised when a gamma expansion is requested for a non-symmetric polynomial."""


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    for c in out:
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Polynomial:
    """Immutable integer polynomial in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative exponent")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def padded(self, d: int) -> tuple[int, ...]:
        """Coefficients 0..d as a tuple of length d+1."""
        if len(self.coeffs) > d + 1:
            raise ValueError(f"degree {self.degree} exceeds pad length {d}")
        return self.coeffs + (0,) * (d + 1 - len(self.coeffs))

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def is_symmetric(self, d: int) -> bool:
        """True iff coefficient i equals coefficient d-i for 0 <= i <= d."""
        if self.coeffs and len(self.coeffs) - 1 > d:
            raise ValueError(f"degree {self.degree} exceeds symmetry bound {d}")
        c = self.padded(d)
        return all(c[i] == c[d - i] for i in range(d + 1))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def geometric_block(lo: int, hi: int) -> Polynomial:
    """x^lo + x^(lo+1) + ... + x^hi; the zero polynomial when hi < lo."""
    if lo < 0:
        raise ValueError("lo must be nonnegative")
    if hi < lo:
        return ZERO
    return Polynomial((0,) * lo + (1,) * (hi - lo + 1))


@dataclass(frozen=True)
class GammaVector:
    """Coordinates of a symmetric polynomial in the basis x^k (1+x)^(d-2k)."""

    gammas: tuple[int, ...]
    degree_bound: int

    @property
    def is_nonnegative(self) -> bool:
        return all(g >= 0 for g in self.gammas)


def h_from_f(f: Sequence[int]) -> Polynomial:
    """h-polynomial of an f-vector (f_-1, f_0, ..., f_(d-1)) by the
    alternating binomial transform."""
    d = len(f) - 1
    return Polynomial(
        sum((-1) ** (i - j) * math.comb(d - j, i - j) * f[j] for j in range(i + 1))
        for i in range(d + 1)
    )


def _gamma_basis(k: int, d: int) -> Polynomial:
    """The basis element x^k (1+x)^(d-2k)."""
    n = max(d - 2 * k, 0)
    return Polynomial((0,) * k + tuple(math.comb(n, i) for i in range(n + 1)))


def gamma_compose(g: GammaVector) -> Polynomial:
    """Expand gamma coordinates back into a polynomial; inverse of gamma_extract."""
    total = ZERO
    for k, gk in enumerate(g.gammas):
        if gk:
            total = total + gk * _gamma_basis(k, g.degree_bound)
    return total


def gamma_extract(p: Polynomial, d: int) -> GammaVector:
    """Unique gamma coordinates of a polynomial symmetric about d/2.

    Works by triangular elimination: the coefficient of x^k in the running
    remainder is gamma_k, whose basis multiple is then subtracted.
    """
    if not p.is_symmetric(d):
        raise NotSymmetricError(f"{p} is not symmetric with center {d}/2")
    gammas = []
    rem = p
    for k in range(d // 2 + 1):
        gk = rem.coefficient(k)
        gammas.append(gk)
        if gk:
            rem = rem - gk * _gamma_basis(k, d)
    if rem:
        raise NotSymmetricError(f"gamma elimination left a nonzero remainder {rem}")
    return GammaVector(tuple(gammas), d)


def is_unimodal(values: Sequence[int]) -> bool:
    """True iff the sequence weakly rises then weakly falls."""
    falling = False
    for prev, cur in zip(values, values[1:]):
        if cur < prev:
            falling = True
        elif cur > prev and falling:
            return False
    return True
