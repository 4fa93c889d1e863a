"""Independent routes that only the tests use, as oracles for the fast kernels."""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from aperylab.identities import IdentityOutcome, _fail
from aperylab.modring import FactorialTable, NotPIntegral, Residue, reduce_rat
from aperylab.sequences import SeqId, t_values
from aperylab.special import bernoulli


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


def apery_mod(sid: SeqId, n: int, p: int, e: int) -> int:
    """Least residue of A_n or A'_n mod p^e, summed term by term in plain ints.

    Each term is p^v * unit, read off the factorial table:
      A:  binom(n,k)^2 binom(n+k,k)^2 = ((n+k)! / (k!^2 (n-k)!))^2,
      A': binom(n,k)^2 binom(n+k,k)   = n! (n+k)! / (k!^3 (n-k)!^2);
    terms with v >= e vanish mod p^e and are skipped.
    """
    sid = SeqId(sid)
    if sid not in (SeqId.A, SeqId.APRIME):
        raise ValueError(f"apery_mod evaluates A and Aprime, not {sid.value}")
    if n < 0:
        raise ValueError("need n >= 0")
    table = FactorialTable(p, e)
    table.extend(2 * n)
    m = table.modulus
    ppow = [p ** v for v in range(e)]
    val, unit, inv = table.val, table.unit, table.inv_unit
    # rows indexed by n + k, k and n - k for k = 0..n
    rows = zip(val[n : 2 * n + 1], unit[n : 2 * n + 1], val, inv, val[n::-1], inv[n::-1])
    acc = 0
    if sid is SeqId.A:
        for v_nk, u_nk, v_k, iu_k, v_d, iu_d in rows:
            v = 2 * (v_nk - 2 * v_k - v_d)
            if v < e:
                u = u_nk * iu_k % m * iu_k % m * iu_d % m
                acc += ppow[v] * (u * u % m)
        return acc % m
    vn = val[n]
    for v_nk, u_nk, v_k, iu_k, v_d, iu_d in rows:
        v = vn + v_nk - 3 * v_k - 2 * v_d
        if v < e:
            u = u_nk * iu_k % m * iu_k % m * iu_k % m * iu_d % m * iu_d % m
            acc += ppow[v] * u
    return acc % m * unit[n] % m


@lru_cache(maxsize=None)
def central_sums(p: int, e: int) -> tuple[int, int, int, int]:
    """(S, S_O, S_O2, S_OO) = sum_k c_k (1, O_k, O2_k, O_k^2) mod p^e over
    k = 1..(p-1)/2, with c_k = binom(2k,k)^3 / 64^k rolled by
    binom(2k,k) = binom(2k-2,k-1) 2(2k-1)/k and each 1/k, 1/(2k-1) a modular
    inversion: the oracle of checks._central_sums, which reads a factorial
    table."""
    m = p ** e
    inv64 = pow(64, -1, m)
    c = w64 = 1
    o = o2 = 0
    s = s_o = s_o2 = s_oo = 0
    for k in range(1, (p - 1) // 2 + 1):
        c = c * 2 * (2 * k - 1) % m * pow(k, -1, m) % m
        w64 = w64 * inv64 % m
        inv = pow(2 * k - 1, -1, m)
        o = (o + inv) % m
        o2 = (o2 + inv * inv) % m
        t = c * c % m * c % m * w64 % m
        to = t * o % m
        s, s_o, s_o2, s_oo = s + t, s_o + to, s_o2 + t * o2, s_oo + to * o
    return s % m, s_o % m, s_o2 % m, s_oo % m


def c_coeffs(m: int) -> tuple[int, int]:
    """The integer pair (C_m, C'_m) weighting the p^(3r) B_{p-3} corrections.

    C_m  = sum_k binom(m,k)^2 binom(m+k,k)^2 ((m-k)^2 - 2km^2)
    C'_m = sum_k binom(m,k)^2 binom(m+k,k) (2(m-k)^2 - 3m^2(m-k) - 2k^2 m)
    """
    if m < 1:
        raise ValueError("need m >= 1")
    big = sum(
        comb(m, k) ** 2 * comb(m + k, k) ** 2 * ((m - k) ** 2 - 2 * k * m * m)
        for k in range(m + 1)
    )
    prime = sum(
        comb(m, k) ** 2
        * comb(m + k, k)
        * (2 * (m - k) ** 2 - 3 * m * m * (m - k) - 2 * k * k * m)
        for k in range(m + 1)
    )
    return big, prime


def _conj22_weight(m: int) -> Fraction:
    wm = sum(
        comb(m, k) * comb(m - 1, k - 1) * comb(m + k - 1, k - 1)
        for k in range(1, m + 1)
    )
    return Fraction(5, 3) * m ** 3 * wm


# The paper's tabulated constants of the conj2.5 family, m = 1..6.
REFERENCE_CM = {1: 1, 2: 1, 3: -17, 4: -703, 5: -21499, 6: -628145}

# The lift weights as sums over binomials and the tabulated c_m, one per
# weighted Lift row; conj2.5's is defined for the m in REFERENCE_CM only.
LIFT_WEIGHTS = {
    "liu_a": lambda m: Fraction(2, 3) * c_coeffs(m)[0],
    "liu_aprime": lambda m: Fraction(1, 3) * c_coeffs(m)[1],
    "conj2.2": _conj22_weight,
    "conj2.3": lambda m: c_coeffs(m)[1],
    "conj2.4": lambda m: 2 * c_coeffs(m)[0],
    "conj2.5": lambda m: Fraction(2, 3) * m ** 3 * REFERENCE_CM[m],
}


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


def pb_pm1_mod(p: int) -> int:
    """p B_{p-1} mod p^2 for an odd prime p, as sum_{k<p} k^(p-1) (Faulhaber)."""
    m = p * p
    return sum(pow(k, p - 1, m) for k in range(1, p)) % m


def bernoulli_mod_p2(n: int, p: int) -> int:
    """B_n mod p^2 by Faulhaber's formula, B_n = (sum_{k<p} k^n mod p^3) / p:
    the oracle of the harmonic route to B_{p-3} and the bracket (checks).

    The power sum is p B_n + (n/2) p^2 B_{n-1} + (n(n-1)/6) p^3 B_{n-2} plus
    terms divisible by p^3, so the route holds for p >= 5 and even n with
    p - 1 dividing neither n nor n - 2 (which rules out n = 0, 2).  Elsewhere
    (at p = 5, where B_2 and B_6 are asked for) the exact table answers.
    """
    if p < 5 or n % 2 or n % (p - 1) == 0 or (n - 2) % (p - 1) == 0:
        return reduce_rat(bernoulli(n), p, 2).value
    m = p ** 3
    return sum(pow(k, n, m) for k in range(1, p)) % m // p


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


@dataclass(frozen=True)
class PadicFactored:
    """A value p^valuation * unit, the unit kept as a residue coprime to p.

    The valuation may go negative mid-computation (quotients); conversion to a
    plain residue requires valuation >= 0.
    """

    valuation: int
    unit: Residue

    def __mul__(self, other: "PadicFactored") -> "PadicFactored":
        return PadicFactored(self.valuation + other.valuation, self.unit * other.unit)

    def __truediv__(self, other: "PadicFactored") -> "PadicFactored":
        return PadicFactored(self.valuation - other.valuation, self.unit * other.unit.inv())

    def __pow__(self, k: int) -> "PadicFactored":
        return PadicFactored(self.valuation * k, self.unit ** k)


def to_residue(x: PadicFactored) -> Residue:
    """p^valuation * unit as a residue (zero once the valuation reaches e)."""
    if x.valuation < 0:
        raise NotPIntegral(
            f"not p-integral: valuation {x.valuation}", x.valuation
        )
    r = x.unit
    if x.valuation >= r.e:
        return Residue(0, r.p, r.e)
    return r * r.p ** x.valuation


# n! and binom(n, k) read off the val, unit and inv_unit rows of a
# FactorialTable, the rows that apery_pair_mod, _central_sums and
# eq22_congruence read.

def table_factorial(table: FactorialTable, n: int) -> PadicFactored:
    if n < 0:
        raise ValueError("need n >= 0")
    table.extend(n)
    return PadicFactored(table.val[n], Residue(table.unit[n], table.p, table.e))


def table_binomial(table: FactorialTable, n: int, k: int) -> PadicFactored:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    table.extend(n)
    m = table.modulus
    v = table.val[n] - table.val[k] - table.val[n - k]
    u = table.unit[n] * table.inv_unit[k] % m * table.inv_unit[n - k] % m
    return PadicFactored(v, Residue(u, table.p, table.e))


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
    Gamma_p(n) = (-1)^n prod_{k<n, p!|k} k for n = x mod p^e.  O(p^e) steps.
    Odd p only: x mod 4 does not fix Gamma_2(x) mod 4."""
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


# ---------------------------------------------------------------------------
# The identity verifiers and t's closed form summed in Fraction arithmetic,
# term by term: the oracles of identities' integer-numerator sums.  They sum
# O_k and O2_k themselves (odd_harmonics), apart from the program's harmonic
# walk, and read odd_harmonics, t_values and comb through this module, so a
# test that patches one of them here, and its counterpart in identities,
# shifts both routes alike.

def t_closed_form(n: int) -> Fraction:
    """(2n+1)! sum_{k=0}^n binom(2k,k) / (4^k (2(n-k)+1)); equals t_n."""
    if n < 0:
        raise ValueError("need n >= 0")
    s = sum(Fraction(comb(2 * k, k), 4 ** k * (2 * (n - k) + 1)) for k in range(n + 1))
    return factorial(2 * n + 1) * s


def odd_harmonics(count: int) -> list[tuple[Fraction, Fraction]]:
    """(O_k, O2_k) for k < count, O_k = sum_{i<=k} 1/(2i-1) and
    O2_k = sum_{i<=k} 1/(2i-1)^2, summed term by term."""
    o = o2 = Fraction(0)
    out = [(o, o2)]
    for j in range(1, 2 * count - 2, 2):
        o, o2 = o + Fraction(1, j), o2 + Fraction(1, j * j)
        out.append((o, o2))
    return out


def _weighted_d(count: int, base: int) -> list[Fraction]:
    """(binom(2k,k)/base^k) D_k for k < count."""
    return [
        Fraction(comb(2 * k, k), base ** k) * (o * o - o2)
        for k, (o, o2) in enumerate(odd_harmonics(count))
    ]


def _lemma21_sides(count: int) -> tuple[list[Fraction], list[Fraction]]:
    """s_n = (binom(2n,n)/4^n) D_n for n < count, and its alternating binomial
    transform sum_k binom(n,k) (-1)^k s_k: the two sides of lemma21_identity."""
    s = _weighted_d(count, 4)
    transform = [sum(comb(n, k) * (-1) ** k * s[k] for k in range(n + 1)) for n in range(count)]
    return s, transform


def lemma21_identity(max_n: int) -> IdentityOutcome:
    """sum_k binom(n,k)(-1)^k (binom(2k,k)/4^k) D_k = (binom(2n,n)/4^n) D_n.

    This also says the weighted sequence is its own alternating binomial
    transform (self-inverse).
    """
    s, transform = _lemma21_sides(max_n + 1)
    for n, (lhs, rhs) in enumerate(zip(transform, s)):
        if lhs != rhs:
            return _fail(n, lhs, rhs)
    n = min(2, max_n)
    return IdentityOutcome(True, n, transform[n], s[n])


def order4_certificate(max_n: int) -> IdentityOutcome:
    """The 4-term recurrence annihilating both sides of the lemma21 identity:

    8(n+1)(n+2)(n+3) S(n+3) - 12(n+1)(n+2)(2n+3) S(n+2)
      + 2(n+1)(12n^2+24n+13) S(n+1) - (2n+1)^3 S(n) = 0.
    """
    for vals in _lemma21_sides(max_n + 4):
        for n in range(max_n + 1):
            res = (
                8 * (n + 1) * (n + 2) * (n + 3) * vals[n + 3]
                - 12 * (n + 1) * (n + 2) * (2 * n + 3) * vals[n + 2]
                + 2 * (n + 1) * (12 * n * n + 24 * n + 13) * vals[n + 1]
                - (2 * n + 1) ** 3 * vals[n]
            )
            if res != 0:
                return _fail(n, res, Fraction(0))
    return IdentityOutcome(True, max_n, Fraction(0), Fraction(0))


def eq21_identity(max_n: int) -> IdentityOutcome:
    """sum_k binom(n,k) binom(n+k,k) (binom(2k,k)/(-4)^k) D_k = 0 for odd n."""
    s = _weighted_d(max_n + 1, -4)
    spot = None
    for n in range(1, max_n + 1, 2):
        lhs = sum(comb(n, k) * comb(n + k, k) * s[k] for k in range(n + 1))
        if lhs != 0:
            return _fail(n, lhs, Fraction(0))
        if spot is None:
            spot = (n, lhs, Fraction(0))
    return IdentityOutcome(True, *spot)


def generalized_binomial(x: Fraction, n: int) -> Fraction:
    """binom(x, n) = x(x-1)...(x-n+1)/n! for rational x."""
    num = Fraction(1)
    for i in range(n):
        num *= x - i
    return num / factorial(n)


def generalized_binomial_product(x: Fraction, n: int) -> Fraction:
    """binom(x, n) = x(x-1)...(x-n+1)/n! for rational x = a/b: the integer
    prod_{i<n} (a - ib) over b^n n!."""
    a, b = x.numerator, x.denominator
    return Fraction(prod(a - i * b for i in range(n)), b ** n * factorial(n))


def eq31_identity(max_n: int, trials: int = 20, seed: int = 20240811) -> IdentityOutcome:
    """sum_k binom(n,k)(-1)^k/(x-k) = (-1)^n / ((x-n) binom(x,n)) at random
    rational x outside {0, ..., n}."""
    rng = random.Random(seed)
    spot = None
    for n in range(max_n + 1):
        for _ in range(trials):
            while True:
                x = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                if not (x.denominator == 1 and 0 <= x <= n):
                    break
            lhs = sum(comb(n, k) * (-1) ** k / (x - k) for k in range(n + 1))
            rhs = (-1) ** n / ((x - n) * generalized_binomial(x, n))
            if lhs != rhs:
                return _fail(n, lhs, rhs)
            if spot is None:
                spot = (n, lhs, rhs)
    return IdentityOutcome(True, *spot)


def thm31_dual(max_n: int) -> IdentityOutcome:
    """t_n by recurrence equals the (2n+1)! central-binomial sum, exactly."""
    spot = None
    for n, lhs in zip(range(max_n + 1), t_values()):
        rhs = t_closed_form(n)
        if rhs.denominator != 1 or lhs != rhs:
            return _fail(n, lhs, rhs)
        if n == min(6, max_n):
            spot = (n, lhs, int(rhs))
    return IdentityOutcome(True, *spot)


def _thm32_sums(ns: range) -> tuple[list[Fraction], list[Fraction]]:
    """For n in ns, sum_{k=0}^{2n+1} binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) w_k
    with w_k = O2_k, and with w_k = O_k^2: the two weighted sides of
    thm32_identity."""
    o2s, squares = [], []
    for k, (o, o2) in enumerate(odd_harmonics(2 * ns[-1] + 2)):
        c = Fraction(comb(2 * k, k) ** 2, (-4) ** k)
        o2s.append(c * o2)
        squares.append(c * o * o)
    sums = ([], [])
    for n in ns:
        binoms = [comb(2 * n + 1 + k, 2 * k) for k in range(2 * n + 2)]
        for out, ws in zip(sums, (o2s, squares)):
            out.append(sum(b * w for b, w in zip(binoms, ws)))
    return sums


def thm32_harmonic_sum(n: int) -> Fraction:
    """sum_{k=0}^{2n+1} binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) O2_k,
    the series whose negative (2n+1)!^2 multiple is t_n^2."""
    return _thm32_sums(range(n, n + 1))[0][0]


def _thm32_neg_squares(count: int) -> list[Fraction]:
    """-(t_n / (2n+1)!)^2 for n < count, the other side of thm32_harmonic_sum."""
    return [-Fraction(t, factorial(2 * n + 1)) ** 2 for n, t in zip(range(count), t_values())]


def thm32_identity(max_n: int) -> IdentityOutcome:
    """t_n^2 = -(2n+1)!^2 sum_k binom(2n+1+k,2k) binom(2k,k)^2 (-4)^(-k) w_k,
    for both weights w_k = sum 1/(2i-1)^2 and w_k = (sum 1/(2i-1))^2."""
    o2_sums, square_sums = _thm32_sums(range(max_n + 1))
    spot = None
    for n, t, *sums in zip(range(max_n + 1), t_values(), o2_sums, square_sums):
        lhs = t ** 2
        f2 = factorial(2 * n + 1) ** 2
        for s in sums:
            rhs = -f2 * s
            if lhs != rhs:
                return _fail(n, lhs, rhs)
        if n == min(2, max_n):
            spot = (n, sums[0], -Fraction(lhs, f2))
    return IdentityOutcome(True, *spot)


def order5_certificate(max_n: int) -> IdentityOutcome:
    """The 5-term recurrence annihilating both sides of the thm32 identity."""
    count = max_n + 5
    for vals in (_thm32_sums(range(count))[0], _thm32_neg_squares(count)):
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
                return _fail(n, res, Fraction(0))
    return IdentityOutcome(True, max_n, Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# Truncated power series with Fraction coefficients, and gf_oracle read off
# their product: the oracles of exactcore's integer-numerator series.

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


def gf_oracle(max_n: int) -> IdentityOutcome:
    """(2n+1)! [x^(2n+1)] arctanh(x)/sqrt(1-x^2) equals t_n from the recurrence."""
    order = 2 * max_n + 2
    product = series_mul(series_arctanh(order), series_inv_sqrt_one_minus_x2(order))
    spot = None
    for n, rhs in zip(range(max_n + 1), t_values()):
        lhs = factorial(2 * n + 1) * product.coefficient(2 * n + 1)
        if lhs != rhs:
            return _fail(n, lhs, rhs)
        if n == min(1, max_n):
            spot = (n, int(lhs), rhs)
    return IdentityOutcome(True, *spot)
