"""Truncated power series as (nums, den): the coefficient of x^k is nums[k]/den.

Sums stay in plain ints, as in the identity verifiers; the Fraction series
these replace are the tests' oracles.
"""

from __future__ import annotations

from math import comb, lcm


def series_arctanh(order: int) -> tuple[list[int], int]:
    """arctanh(x) = sum_m x^(2m+1)/(2m+1), truncated, over the lcm of the odd k < order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    den = lcm(*range(1, order, 2))
    return [den // k if k % 2 else 0 for k in range(order)], den


def series_inv_sqrt_one_minus_x2(order: int) -> tuple[list[int], int]:
    """1/sqrt(1-x^2) = sum_k binom(2k,k)/4^k x^(2k), truncated, over 4^((order-1)//2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    top = (order - 1) // 2
    return [comb(k, k // 2) << 2 * (top - k // 2) if k % 2 == 0 else 0
            for k in range(order)], 4 ** top


def series_mul(a: tuple[list[int], int], b: tuple[list[int], int]) -> tuple[list[int], int]:
    """Cauchy product truncated at the common order of the operands, over the
    product of their denominators."""
    (xs, da), (ys, db) = a, b
    if len(xs) != len(ys):
        raise ValueError(f"mismatched orders: {len(xs)} != {len(ys)}")
    n = len(xs)
    out = [0] * n
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys[: n - i]):
                out[i + j] += x * y
    return out, da * db
