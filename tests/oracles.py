"""Independent routes that only the tests use, as oracles for the fast kernels."""

from fractions import Fraction
from math import comb

from aperylab.identities import IdentityOutcome, _fail
from aperylab.modring import Residue


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
