"""Bernoulli and Euler numbers, classical quotients, and the p-adic Gamma function.

The checks need only a few residues of these numbers, and read them off
harmonic sums (checks): B_{p-3} mod p and the bracket
B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3) mod p^2 off H_{p-1} mod p^4, and E_{p-3}
mod p off Lehmer's sum of k^-2 over k <= p/4.  Here E_{p-3} mod p is that
sum only as gamma_quarter_closed_form's own route (euler_pm3_mod).

p B_{p-1} mod p^2 is not computed here: a prime's checks read it as
(p-1)! + p by Glaisher's congruence, off the factorial table they already
hold, and the power sum of k^(p-1) over k < p is its oracle in the tests.

The exact Bernoulli table, from the defining recurrence over Fraction, stays:
it answers where the harmonic congruence does not hold (p = 5, B_2 and B_6).
Faulhaber's power sums for B_n mod p^2, the Euler-number recurrence in Z/pZ,
the Fermat quotients and (p-1)! mod p^2 by its own product are oracles only,
and live in the tests.
Gamma_p mod p^e is the product definition taken by blocks of p factors, in
about p e + e^3 log2(p^(e-1)) steps rather than p^e; the factor-by-factor
product stays in the tests as its oracle, and the quarter-value closed form is
checked against both.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .modring import NotPIntegral, Residue

GAMMA_STEP_LIMIT = 2_000_000

_BERN: list[Fraction] = [Fraction(1)]


def bernoulli_table(n_max: int) -> list[Fraction]:
    """B_0..B_n by B_0 = 1 and sum_{k<n} binom(n,k) B_k = 0 for n >= 2."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    while len(_BERN) <= n_max:
        idx = len(_BERN)
        n = idx + 1
        s = Fraction(_BERN[0])
        if idx >= 2:
            s += n * _BERN[1]
        # odd-index terms beyond B_1 vanish and are skipped
        s += sum(comb(n, k) * _BERN[k] for k in range(2, idx, 2))
        _BERN.append(-s / n)
    return _BERN[: n_max + 1]


def bernoulli(n: int) -> Fraction:
    return bernoulli_table(n)[n]


def euler_pm3_mod(p: int) -> int:
    """E_{p-3} mod p for p >= 5 by Lehmer's congruence (Ann. of Math. 39, 1938)

        sum_{k <= p/4} 1/k^2 = (-1)^((p-1)/2) 4 E_{p-3}  (mod p).
    """
    if p < 5:
        raise ValueError("need p >= 5")
    s = sum(pow(k, -2, p) for k in range(1, p // 4 + 1))
    sign = -1 if (p - 1) // 2 % 2 else 1
    return sign * s * pow(4, -1, p) % p


def _block_poly(p: int, e: int, m: int) -> list[int]:
    """prod_{0<i<p} (jp + i) mod p^e as its coefficients of j^0..j^(e-1).

    The coefficient of j^k is p^k times an elementary symmetric sum of
    1..p-1, so the terms of degree e and up vanish mod p^e.
    """
    c = [1] + [0] * (e - 1)  # in T = jp: multiply by (T + i), truncated
    for i in range(1, p):
        for k in range(e - 1, 0, -1):
            c[k] = (c[k] * i + c[k - 1]) % m
        c[0] = c[0] * i % m
    return [ck * p ** k % m for k, ck in enumerate(c)]


def _shift(f: list[int], t: int, m: int) -> list[int]:
    """The coefficients of f(a + t), by repeated synthetic division."""
    g = list(f)
    for i in range(len(g) - 1):
        for k in range(len(g) - 2, i - 1, -1):
            g[k] = (g[k] + t * g[k + 1]) % m
    return g


def _mul(f: list[int], g: list[int], m: int) -> list[int]:
    """f g truncated to the degrees of f."""
    return [sum(f[i] * g[k - i] for i in range(k + 1)) % m for k in range(len(f))]


def padic_gamma(x: Fraction, p: int, e: int) -> Residue:
    """Gamma_p(x) mod p^e from the definition product, taken by blocks.

    Gamma_p(n) = (-1)^n prod_{k<n, p!|k} k, and continuity gives
    Gamma_p(x) = Gamma_p(n) mod p^e for n = x mod p^e, so the product over the
    least nonnegative residue of x is exact at this precision.  At p = 2 the
    units mod 4 multiply to -1, so Gamma_2(n + 4) = -Gamma_2(n) (mod 4);
    there n = x mod 2^(e+1).

    With n - 1 = J p + s the product is J full blocks
    block(j) = prod_{0<i<p} (jp + i) and a partial block of s factors.
    block(j) is a polynomial in j whose j^k coefficient carries p^k, and so is
    G_L(a) = prod_{j<L} block(a + j); truncated below degree e it is exact mod
    p^e.  G_J(0) is composed over the bits of J from G_2L(a) = G_L(a) G_L(a + L)
    and G_(L+1)(a) = G_L(a) block(a + L).  That costs p e steps for block(j)
    and about e^3 per bit of J < p^(e-1), not the p^e of the plain product;
    the GAMMA_STEP_LIMIT cap bounds that count.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} is not {p}-integral", -1)
    steps = p * e + e ** 3 * (e - 1) * p.bit_length()
    if steps > GAMMA_STEP_LIMIT:
        # at e = 1 the count is p alone
        hint = ("use smaller precision" if e > 1 and p <= GAMMA_STEP_LIMIT
                else "no precision fits at this p")
        raise ValueError(
            f"gamma cost cap: about {steps} product steps at p = {p}, e = {e} "
            f"exceed {GAMMA_STEP_LIMIT}; {hint}"
        )
    m = p ** e
    period = 2 * m if p == 2 else m
    n = x.numerator * pow(x.denominator, -1, period) % period
    v = 1
    if n:
        blocks, s = divmod(n - 1, p)
        if blocks:
            block = _block_poly(p, e, m)
            g, length = [1] + [0] * (e - 1), 0
            for bit in bin(blocks)[2:]:
                g, length = _mul(g, _shift(g, length, m), m), 2 * length
                if bit == "1":
                    g, length = _mul(g, _shift(block, length, m), m), length + 1
            v = g[0]
        base = blocks * p
        for i in range(1, s + 1):
            v = v * (base + i) % m
    if n % 2:
        v = -v % m
    return Residue(v, p, e)


def gamma_quarter_closed_form(p: int) -> Residue:
    """Gamma_p(1/4)^4 mod p^3 by the Euler-number closed form.

    4 | p-1:  -(1/2^(p-1)) binom((p-1)/2,(p-1)/4)^2 (1 - (p^2/2) E_{p-3})
    4 | p-3:  2^(p-3) (16 + 32p + (48 - 8 E_{p-3}) p^2) binom((p-3)/2,(p-3)/4)^(-2)
    """
    if p <= 3:
        raise ValueError("need p > 3")
    m = p ** 3
    ep3 = euler_pm3_mod(p)
    if p % 4 == 1:
        b = comb((p - 1) // 2, (p - 1) // 4)
        val = (
            -pow(2, -(p - 1), m)
            * b * b
            * (1 - p * p * pow(2, -1, m) * ep3)
        )
    else:
        b = comb((p - 3) // 2, (p - 3) // 4)
        val = (
            pow(2, p - 3, m)
            * (16 + 32 * p + (48 - 8 * ep3) * p * p)
            * pow(b, -2, m)
        )
    return Residue(val, p, 3)
