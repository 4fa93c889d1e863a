"""Independent routes that only the tests use, as oracles for the fast kernels."""

from fractions import Fraction
from functools import lru_cache
from math import comb

from aperylab.identities import IdentityOutcome, _fail
from aperylab.modring import PadicFactored, Residue


@lru_cache(maxsize=None)
def apery_a_exact(n: int) -> int:
    """A_n = sum_k binom(n,k)^2 binom(n+k,k)^2."""
    if n < 0:
        raise ValueError("need n >= 0")
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


@lru_cache(maxsize=None)
def apery_aprime_exact(n: int) -> int:
    """A'_n = sum_k binom(n,k)^2 binom(n+k,k)."""
    if n < 0:
        raise ValueError("need n >= 0")
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


_EULER_MOD: dict[int, list[int]] = {}


def euler_mod(n: int, p: int) -> Residue:
    """E_n mod p via E_{2m} = -sum_{k=1}^m binom(2m,2k) E_{2m-2k}, odd-index zero."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n % 2:
        return Residue(0, p, 1)
    table = _EULER_MOD.setdefault(p, [1])
    while 2 * (len(table) - 1) < n:
        m = len(table)
        s = sum(comb(2 * m, 2 * k) * table[m - k] for k in range(1, m + 1))
        table.append(-s % p)
    return Residue(table[n // 2], p, 1)


def fermat_quotient(a: int, p: int) -> Residue:
    """q_p(a) = (a^(p-1) - 1)/p as a residue mod p."""
    if a % p == 0:
        raise ValueError(f"{p} divides {a}")
    t = pow(a, p - 1, p * p)
    return Residue((t - 1) // p, p, 1)


def wilson_side(p: int) -> Residue:
    """(p-1)! mod p^2, the factorial side of (p-1)! = p B_{p-1} - p (mod p^2)."""
    m = p * p
    v = 1
    for i in range(2, p):
        v = v * i % m
    return Residue(v, p, 2)


def factored_factorial(n: int, p: int, e: int) -> PadicFactored:
    """n! as p^v * unit mod p^e; v is the Legendre valuation."""
    if n < 0:
        raise ValueError("need n >= 0")
    m = p ** e
    v, u = 0, 1
    for i in range(2, n + 1):
        while i % p == 0:
            i //= p
            v += 1
        u = u * i % m
    return PadicFactored(v, Residue(u, p, e))


def factored_binomial(n: int, k: int, p: int, e: int) -> PadicFactored:
    """binom(n, k) as p^v * unit mod p^e, exact for any size of n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return factored_factorial(n, p, e) / (
        factored_factorial(k, p, e) * factored_factorial(n - k, p, e)
    )


def gamma_product(x, p: int, e: int) -> Residue:
    """Gamma_p(x) mod p^e as the definition product, one factor at a time:
    Gamma_p(n) = (-1)^n prod_{k<n, p!|k} k for n = x mod p^e.  O(p^e) steps."""
    x = Fraction(x)
    m = p ** e
    n = x.numerator * pow(x.denominator, -1, m) % m
    v = 1
    for k in range(1, n):
        if k % p:
            v = v * k % m
    if n % 2:
        v = -v % m
    return Residue(v, p, e)


def eq22_comb(p: int) -> IdentityOutcome:
    """identities.eq22_congruence with each binomial a big-integer math.comb."""
    m = p * p
    half = (p - 1) // 2
    inv_m16 = pow(-16, -1, m)
    w = 1
    spot = None
    for k in range(1, half + 1):
        w = w * inv_m16 % m
        lhs = comb(half + k, 2 * k) % m
        rhs = comb(2 * k, k) * w % m
        if lhs != rhs:
            return _fail(k, lhs, rhs, m)
        if spot is None:
            spot = (k, lhs, rhs)
    if spot is None:
        spot = (0, 1, 1)
    return IdentityOutcome(True, *spot, modulus=m)
