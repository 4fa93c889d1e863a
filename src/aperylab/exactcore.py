"""Exact arithmetic substrate: big integers, reduced rationals, truncated power series.

Python's native int is already an arbitrary-precision signed integer and
fractions.Fraction keeps rationals normalized (lowest terms, positive
denominator), so both serve directly as the exact substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

__all__ = [
    "PowerSeries",
    "series_arctanh",
    "series_inv_sqrt_one_minus_x2",
    "series_mul",
]


@dataclass(frozen=True)
class PowerSeries:
    """Dense rational power series truncated at a fixed order.

    coeffs[k] is the coefficient of x^k; len(coeffs) is the truncation order.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return series_mul(self, other)


def series_arctanh(order: int) -> PowerSeries:
    """arctanh(x) = sum_{m>=0} x^(2m+1)/(2m+1), truncated at the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = tuple(Fraction(1, k) if k % 2 else Fraction(0) for k in range(order))
    return PowerSeries(coeffs)


def series_inv_sqrt_one_minus_x2(order: int) -> PowerSeries:
    """1/sqrt(1-x^2) = sum_{k>=0} binom(2k,k)/4^k x^(2k), truncated."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = tuple(
        Fraction(comb(k, k // 2), 4 ** (k // 2)) if k % 2 == 0 else Fraction(0)
        for k in range(order)
    )
    return PowerSeries(coeffs)


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order of the operands."""
    if a.order != b.order:
        raise ValueError(f"mismatched orders: {a.order} != {b.order}")
    n = a.order
    out = [Fraction(0)] * n
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j in range(n - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] += ca * cb
    return PowerSeries(tuple(out))
