"""Exact combinatorial identities, verified term by term over index ranges.

Each verifier returns an IdentityOutcome: on success it carries a small spot
value (index, lhs, rhs) for reporting; on failure it carries the first
counterexample.  The two long recurrences are the certificates that annihilate
both sides of the hardest identities, checked numerically over the range.

The rational verifiers sum in plain ints: each call puts its values over one
common denominator, keeps integer numerators through the O(n^2) binomial
sums, and forms a Fraction only for the spot or counterexample it reports.
The O_k and O2_k values come from one walk of sequences.harmonic_walk,
their numerators scaled to the last step's odd denominator, squared, times a
power of 4; t_n comes from one walk of t_values.  The lemma2.1 and thm3.2
families build both sides' numerators in one helper each (_lemma21_sides,
_thm32_sums), which the identity and its certificate both read.  gf_oracle
multiplies exactcore's integer series.  eq22_congruence reads its binomials
off the factorial table it is handed, the one its prime's sweep task owns.
The Fraction sums and series these replace, and binom(x, n) for eq31's rhs,
are the tests' oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod
from typing import NamedTuple, Union

from .exactcore import series_arctanh, series_inv_sqrt_one_minus_x2, series_mul
from .modring import FactorialTable
from .sequences import harmonic_walk, t_closed_form, t_values

Value = Union[int, Fraction]


class IdentityOutcome(NamedTuple):
    ok: bool
    n: int
    lhs: Value
    rhs: Value
    modulus: int | None = None


def _fail(n: int, lhs: Value, rhs: Value, modulus: int | None = None) -> IdentityOutcome:
    return IdentityOutcome(False, n, lhs, rhs, modulus)


def _harmonic_numerators(count: int) -> tuple[list[int], list[int], int]:
    """O_k^2 and O2_k for k < count, from one harmonic walk, as integer
    numerators over one denominator q = d^2, with d = lcm(1, 3, ..., 2 count - 3)
    the walk's last odd denominator: the walk's O_k = o / d_k and
    O2_k = o2 / d_k^2 are scaled by d / d_k and its square."""
    walk = [(d, o, o2) for _, _, _, d, o, o2, _ in islice(harmonic_walk(), count)]
    top = walk[-1][0]
    scales = [top // d for d, _, _ in walk]
    return ([(o * s) ** 2 for (_, o, _), s in zip(walk, scales)],
            [o2 * s * s for (_, _, o2), s in zip(walk, scales)], top * top)


def _weighted_d(count: int, sign: int) -> tuple[list[int], int]:
    """(binom(2k,k)/(4 sign)^k) D_k for k < count, sign = +1 or -1, as integer
    numerators over one denominator 4^(count-1) q."""
    squares, o2s, q = _harmonic_numerators(count)
    top = count - 1
    nums = [
        comb(2 * k, k) * sign ** k * (sq - o2) << 2 * (top - k)
        for k, (sq, o2) in enumerate(zip(squares, o2s))
    ]
    return nums, q << 2 * top


def _lemma21_sides(count: int) -> tuple[list[int], list[int], int]:
    """s_n = (binom(2n,n)/4^n) D_n for n < count, and its alternating binomial
    transform sum_k binom(n,k) (-1)^k s_k: the two sides of lemma21_identity,
    as integer numerators over their one denominator."""
    s, den = _weighted_d(count, 1)
    transform = [
        sum(comb(n, k) * (-1) ** k * s[k] for k in range(n + 1)) for n in range(count)
    ]
    return s, transform, den


def lemma21_identity(max_n: int) -> IdentityOutcome:
    """sum_k binom(n,k)(-1)^k (binom(2k,k)/4^k) D_k = (binom(2n,n)/4^n) D_n.

    This also says the weighted sequence is its own alternating binomial
    transform (self-inverse).
    """
    s, transform, den = _lemma21_sides(max_n + 1)
    for n, (lhs, rhs) in enumerate(zip(transform, s)):
        if lhs != rhs:
            return _fail(n, Fraction(lhs, den), Fraction(rhs, den))
    n = min(2, max_n)
    return IdentityOutcome(True, n, Fraction(transform[n], den), Fraction(s[n], den))


def order4_certificate(max_n: int) -> IdentityOutcome:
    """The 4-term recurrence annihilating both sides of the lemma21 identity:

    8(n+1)(n+2)(n+3) S(n+3) - 12(n+1)(n+2)(2n+3) S(n+2)
      + 2(n+1)(12n^2+24n+13) S(n+1) - (2n+1)^3 S(n) = 0.
    """
    *sides, den = _lemma21_sides(max_n + 4)
    for vals in sides:
        for n in range(max_n + 1):
            res = (
                8 * (n + 1) * (n + 2) * (n + 3) * vals[n + 3]
                - 12 * (n + 1) * (n + 2) * (2 * n + 3) * vals[n + 2]
                + 2 * (n + 1) * (12 * n * n + 24 * n + 13) * vals[n + 1]
                - (2 * n + 1) ** 3 * vals[n]
            )
            if res != 0:
                return _fail(n, Fraction(res, den), Fraction(0))
    return IdentityOutcome(True, max_n, Fraction(0), Fraction(0))


def eq21_identity(max_n: int) -> IdentityOutcome:
    """sum_k binom(n,k) binom(n+k,k) (binom(2k,k)/(-4)^k) D_k = 0 for odd n."""
    s, den = _weighted_d(max_n + 1, -1)
    spot = None
    for n in range(1, max_n + 1, 2):
        lhs = sum(comb(n, k) * comb(n + k, k) * s[k] for k in range(n + 1))
        if lhs != 0:
            return _fail(n, Fraction(lhs, den), Fraction(0))
        if spot is None:
            spot = (n, Fraction(0), Fraction(0))
    return IdentityOutcome(True, *spot)


def eq22_congruence(p: int, table: FactorialTable) -> IdentityOutcome:
    """binom((p-1)/2 + k, 2k) = binom(2k,k)/(-16)^k (mod p^2), k = 1..(p-1)/2.

    Every factorial index is below p, so both binomials are units read off the
    unit and inverse-unit rows of the given factorial table for p, at any
    p^e with e >= 2 (a sweep passes its prime's table).  Every product is
    reduced mod p^2, which divides the table's modulus.
    """
    m = p * p
    half = (p - 1) // 2
    if table.p != p or table.e < 2:
        raise ValueError(f"need a table for p = {p} at e >= 2, got p = {table.p}, e = {table.e}")
    table.extend(p - 1)
    unit, inv = table.unit, table.inv_unit
    inv_m16 = pow(-16, -1, m)
    w = 1
    spot = None
    for k in range(1, half + 1):
        w = w * inv_m16 % m
        lhs = unit[half + k] * inv[2 * k] % m * inv[half - k] % m
        rhs = unit[2 * k] * inv[k] % m * inv[k] % m * w % m
        if lhs != rhs:
            return _fail(k, lhs, rhs, m)
        if spot is None:
            spot = (k, lhs, rhs)
    if spot is None:
        spot = (0, 1, 1)
    return IdentityOutcome(True, *spot, modulus=m)


def eq31_identity(max_n: int, trials: int = 20, seed: int = 20240811) -> IdentityOutcome:
    """sum_k binom(n,k)(-1)^k/(x-k) = (-1)^n / ((x-n) binom(x,n)) at random
    rational x outside {0, ..., n}.

    For x = a/b both sides lie over P = prod_{i<=n} (a - ib): the lhs
    numerator is b sum_k binom(n,k)(-1)^k P/(a - kb), the rhs numerator
    (-1)^n b^(n+1) n!.
    """
    rng = random.Random(seed)
    spot = None
    for n in range(max_n + 1):
        sign_n_fact = (-1) ** n * factorial(n)
        for _ in range(trials):
            while True:
                x = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                if not (x.denominator == 1 and 0 <= x <= n):
                    break
            a, b = x.numerator, x.denominator
            factors = [a - k * b for k in range(n + 1)]
            den = prod(factors)
            lhs = b * sum(comb(n, k) * (-1) ** k * (den // f) for k, f in enumerate(factors))
            rhs = sign_n_fact * b ** (n + 1)
            if lhs != rhs:
                return _fail(n, Fraction(lhs, den), Fraction(rhs, den))
            if spot is None:
                spot = (n, Fraction(lhs, den), Fraction(rhs, den))
    return IdentityOutcome(True, *spot)


def thm31_dual(max_n: int) -> IdentityOutcome:
    """t_n by recurrence equals the (2n+1)! central-binomial sum, exactly."""
    spot = None
    for n, lhs in zip(range(max_n + 1), t_values()):
        rhs = t_closed_form(n)
        if lhs != rhs:
            return _fail(n, lhs, rhs)
        if n == min(6, max_n):
            spot = (n, lhs, lhs)
    return IdentityOutcome(True, *spot)


def _thm32_sums(ns: range) -> tuple[list[int], list[int], int]:
    """For n in ns, sum_{k=0}^{2n+1} binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) w_k
    with w_k = O2_k, and with w_k = O_k^2: the two weighted sides of
    thm32_identity, from one harmonic walk, as integer numerators over their
    one denominator 4^(2K+1) q for K = ns[-1]."""
    count = 2 * ns[-1] + 2
    squares, o2s, q = _harmonic_numerators(count)
    top = count - 1
    weights = [comb(2 * k, k) ** 2 * (-1) ** k << 2 * (top - k) for k in range(count)]
    o2s = [c * w for c, w in zip(weights, o2s)]
    squares = [c * w for c, w in zip(weights, squares)]
    sums = ([], [])
    for n in ns:
        binoms = [comb(2 * n + 1 + k, 2 * k) for k in range(2 * n + 2)]
        for out, ws in zip(sums, (o2s, squares)):
            out.append(sum(b * w for b, w in zip(binoms, ws)))
    return *sums, q << 2 * top


def thm32_harmonic_sum(n: int) -> Fraction:
    """sum_{k=0}^{2n+1} binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) O2_k,
    the series whose negative (2n+1)!^2 multiple is t_n^2."""
    o2_sums, _, den = _thm32_sums(range(n, n + 1))
    return Fraction(o2_sums[0], den)


def _thm32_neg_squares(count: int) -> tuple[list[int], int]:
    """-(t_n / (2n+1)!)^2 for n < count, the other side of thm32_harmonic_sum,
    as integer numerators over (2 count - 1)!^2."""
    top = factorial(2 * count - 1)
    return [
        -(t * (top // factorial(2 * n + 1))) ** 2 for n, t in zip(range(count), t_values())
    ], top * top


def thm32_identity(max_n: int) -> IdentityOutcome:
    """t_n^2 = -(2n+1)!^2 sum_k binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) w_k,
    for both weights w_k = sum 1/(2i-1)^2 and w_k = (sum 1/(2i-1))^2."""
    o2_sums, square_sums, den = _thm32_sums(range(max_n + 1))
    spot = None
    for n, t, *sums in zip(range(max_n + 1), t_values(), o2_sums, square_sums):
        lhs = t ** 2
        f2 = factorial(2 * n + 1) ** 2
        for s in sums:
            if lhs * den != -f2 * s:
                return _fail(n, lhs, Fraction(-f2 * s, den))
        if n == min(2, max_n):
            spot = (n, Fraction(sums[0], den), -Fraction(lhs, f2))
    return IdentityOutcome(True, *spot)


def order5_certificate(max_n: int) -> IdentityOutcome:
    """The 5-term recurrence annihilating both sides of the thm32 identity."""
    count = max_n + 5
    o2_sums, _, o2_den = _thm32_sums(range(count))
    for vals, den in ((o2_sums, o2_den), _thm32_neg_squares(count)):
        for n in range(max_n + 1):
            res = (
                4 * (n + 4) ** 2 * (2 * n + 7) ** 2 * (2 * n + 9) ** 2
                * (4 * n + 9) * (75 + 72 * n + 16 * n * n) * vals[n + 4]
                - (2 * n + 7) ** 2
                * (6913575 + 17355348 * n + 18370228 * n ** 2 + 10658464 * n ** 3
                   + 3670400 * n ** 4 + 751872 * n ** 5 + 84992 * n ** 6
                   + 4096 * n ** 7) * vals[n + 3]
                + (4 * n + 11)
                * (18889425 + 56173260 * n + 72583012 * n ** 2 + 53324832 * n ** 3
                   + 24399376 * n ** 4 + 7128000 * n ** 5 + 1299328 * n ** 6
                   + 135168 * n ** 7 + 6144 * n ** 8) * vals[n + 2]
                - 8 * (n + 2) ** 2
                * (1254375 + 3543600 * n + 4277038 * n ** 2 + 2861712 * n ** 3
                   + 1146240 * n ** 4 + 274560 * n ** 5 + 36352 * n ** 6
                   + 2048 * n ** 7) * vals[n + 1]
                + 16 * (n + 1) ** 2 * (n + 2) ** 2 * (2 * n + 3) ** 2
                * (4 * n + 13) * (163 + 104 * n + 16 * n * n) * vals[n]
            )
            if res != 0:
                return _fail(n, Fraction(res, den), Fraction(0))
    return IdentityOutcome(True, max_n, Fraction(0), Fraction(0))


def gf_oracle(max_n: int) -> IdentityOutcome:
    """(2n+1)! [x^(2n+1)] arctanh(x)/sqrt(1-x^2) equals t_n from the recurrence."""
    order = 2 * max_n + 2
    nums, den = series_mul(series_arctanh(order), series_inv_sqrt_one_minus_x2(order))
    spot = None
    for n, rhs in zip(range(max_n + 1), t_values()):
        lhs = factorial(2 * n + 1) * nums[2 * n + 1]
        if lhs != rhs * den:
            return _fail(n, Fraction(lhs, den), rhs)
        if n == min(1, max_n):
            spot = (n, lhs // den, rhs)
    return IdentityOutcome(True, *spot)
