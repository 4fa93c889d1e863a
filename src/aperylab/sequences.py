"""Integer and harmonic sequences, exact and modular.

Exact evaluators return big integers or fractions: A, A' and t by their
three-term recurrences, rolled over two values (t_values walks t_0, t_1, ...
for the verifiers and the per-prime checks that read them in turn), with t's
closed form as a second route, summed as one integer numerator over 4^n.
The harmonic family H, O, O2 rolls the same way through harmonic_family, and
D = O^2 - O2 is formed where it is read; neither keeps a value between calls.
The identity verifiers rescale that walk's O and O2 to integer numerators
over a common denominator of their own.  apery_neighbours caches
(S_{m-1}, S_m) for S = A, A', which the lift weights and c_coeffs read:
C_m = m^3 (A_{m-1} - 17 A_m) / 12, C'_m = m^3 (A'_{m-1} - 2 A'_m).
seq_mod evaluates residues in O(n) steps without the exact value:
apery_pair_mod for the Apery sums, the division-free recurrence for t, one
inverse per term for the harmonic family, each term scaled by the largest
power of p up to the largest denominator; C and C' reduce c_coeffs.
apery_pair_mod gives A_n and A'_n together from one pass over the factorial
table it is handed (a sweep's prime task owns one), the two summands sharing
one unit that is reduced once per term, and each sum reduced once at the end.
The O(n^2) direct sums for A and A', the earlier two-pass apery_mod and the
binomial sums for C and C' live in the tests, as the oracles that
apery_pair_mod, the recurrences and c_coeffs are checked against.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import factorial, lcm

from .modring import FactorialTable, NotPIntegral, Residue


class SeqId(str, Enum):
    A = "A"
    APRIME = "Aprime"
    T = "t"
    H = "H"
    OODD = "O"
    OODD2 = "O2"
    D = "D"
    CBIG = "C"
    CPRIME = "Cprime"


# ---------------------------------------------------------------------------
# exact evaluators

def apery_a_recurrence(n: int) -> int:
    """A_n by (n+1)^3 A_{n+1} = (2n+1)(17n(n+1)+5) A_n - n^3 A_{n-1}, A_0=1, A_1=5."""
    if n < 0:
        raise ValueError("need n >= 0")
    a, b = 1, 5
    for i in range(1, n):
        a, b = b, ((2 * i + 1) * (17 * i * (i + 1) + 5) * b - i ** 3 * a) // (i + 1) ** 3
    return b if n else a


def apery_aprime_recurrence(n: int) -> int:
    """A'_n by (n+1)^2 A'_{n+1} = (11n(n+1)+3) A'_n + n^2 A'_{n-1}, A'_0=1, A'_1=3."""
    if n < 0:
        raise ValueError("need n >= 0")
    a, b = 1, 3
    for i in range(1, n):
        a, b = b, ((11 * i * (i + 1) + 3) * b + i ** 2 * a) // (i + 1) ** 2
    return b if n else a


def t_values(modulus: int = 0):
    """t_0, t_1, ... by t_{n+1} = (8n^2+12n+5) t_n - 4n^2 (2n+1)^2 t_{n-1},
    t_0=1, t_1=5, holding two values at a time; reduced mod `modulus` if given."""
    a, b = 1, 5
    yield a
    for i in count(1):
        yield b
        a, b = b, (8 * i * i + 12 * i + 5) * b - 4 * i * i * (2 * i + 1) ** 2 * a
        if modulus:
            b %= modulus


def t_exact(n: int) -> int:
    """t_n, rolled from t_values."""
    if n < 0:
        raise ValueError("need n >= 0")
    return next(islice(t_values(), n, None))


def t_closed_form(n: int) -> Fraction:
    """(2n+1)! sum_{k=0}^n binom(2k,k) / (4^k (2(n-k)+1)); equals t_n.  Summed
    as the integer sum_k binom(2k,k) 4^(n-k) ((2n+1)!/(2(n-k)+1)) over 4^n,
    whose terms are taken over the lcm l of 1, 3, ..., 2n+1 and then scaled
    by (2n+1)!/l."""
    if n < 0:
        raise ValueError("need n >= 0")
    l = lcm(*range(1, 2 * n + 2, 2))
    num, central = 0, 1  # central = binom(2k, k)
    for k in range(n + 1):
        num += central * (l // (2 * (n - k) + 1)) << 2 * (n - k)
        central = central * (4 * k + 2) // (k + 1)
    return Fraction(num * (factorial(2 * n + 1) // l), 4 ** n)


@lru_cache(maxsize=None)
def apery_neighbours(sid: SeqId, m: int) -> tuple[int, int]:
    """(S_{m-1}, S_m) for S = A or A' by `sid`, m >= 1, from the recurrences;
    the lift weights and c_coeffs read these two values."""
    if m < 1:
        raise ValueError("need m >= 1")
    walk = apery_a_recurrence if SeqId(sid) is SeqId.A else apery_aprime_recurrence
    return walk(m - 1), walk(m)


def c_coeffs(m: int) -> tuple[int, int]:
    """The integer pair (C_m, C'_m) weighting the p^(3r) B_{p-3} corrections.

    C_m  = m^3 (A_{m-1} - 17 A_m) / 12
    C'_m = m^3 (A'_{m-1} - 2 A'_m)
    """
    a_prev, a = apery_neighbours(SeqId.A, m)
    b_prev, b = apery_neighbours(SeqId.APRIME, m)
    return m ** 3 * (a_prev - 17 * a) // 12, m ** 3 * (b_prev - 2 * b)


def harmonic_family():
    """(H_n, O_n, O2_n) for n = 0, 1, ..., holding one tuple at a time, with
    O_n = sum 1/(2i-1) and O2_n = sum 1/(2i-1)^2.  D_n = O_n^2 - O2_n is left
    to the reader: rolled along, each step would add two fractions whose
    denominators both grow with n, where the walk adds only 1/i-sized terms."""
    h = o = o2 = Fraction(0)
    yield h, o, o2
    for i in count(1):
        inv = Fraction(1, 2 * i - 1)
        h += Fraction(1, i)
        o += inv
        o2 += inv * inv
        yield h, o, o2


def harmonic_values(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(H_n, O_n, O2_n, D_n), with D_n = O_n^2 - O2_n, read off harmonic_family."""
    if n < 0:
        raise ValueError("need n >= 0")
    h, o, o2 = next(islice(harmonic_family(), n, None))
    return h, o, o2, o * o - o2


def seq_exact(sid: SeqId, n: int):
    """Exact value of the sequence: int for A, A', t, C; Fraction for the rest."""
    sid = SeqId(sid)
    if sid is SeqId.A:
        return apery_a_recurrence(n)
    if sid is SeqId.APRIME:
        return apery_aprime_recurrence(n)
    if sid is SeqId.T:
        return t_exact(n)
    if sid is SeqId.CBIG:
        return c_coeffs(n)[0]
    if sid is SeqId.CPRIME:
        return c_coeffs(n)[1]
    h, o, o2, d = harmonic_values(n)
    return {SeqId.H: h, SeqId.OODD: o, SeqId.OODD2: o2, SeqId.D: d}[sid]


# ---------------------------------------------------------------------------
# modular evaluators

def apery_pair_mod(n: int, table: FactorialTable) -> tuple[int, int]:
    """Least residues (A_n, A'_n) mod p^e, for the p and e of `table`, from one
    pass over its rows n + k, k and n - k, which it extends to 2n.

    Both summands are p^v * unit and share u = U[n+k] IU[k]^2 IU[n-k], the
    unit of (n+k)! / (k!^2 (n-k)!) = binom(n+k,k) binom(n,k), of valuation w:
      A:  binom(n,k)^2 binom(n+k,k)^2 = p^(2w) u^2,
      A': binom(n,k)^2 binom(n+k,k)   = p^(v[n] + w - v[k] - v[n-k]) U[n] u IU[k] IU[n-k].
    A term with v >= e vanishes mod p^e and is skipped.  u is reduced once per
    k; the sums are reduced once, at the end (A' after the factor U[n]).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    table.extend(2 * n)
    p, e, m = table.p, table.e, table.modulus
    ppow = [p ** v for v in range(e)]
    val, unit, inv = table.val, table.unit, table.inv_unit
    vn = val[n]
    # rows indexed by n + k, k and n - k for k = 0..n
    rows = zip(val[n : 2 * n + 1], unit[n : 2 * n + 1], val, inv, val[n::-1], inv[n::-1])
    acc_a = acc_b = 0
    for v_nk, u_nk, v_k, iu_k, v_d, iu_d in rows:
        w = v_nk - 2 * v_k - v_d
        v = vn + w - v_k - v_d
        # v = 2 v(binom(n,k)) + v(binom(n+k,k)) <= 2w: an A term survives
        # only where the A' term does
        if v < e:
            u = u_nk * iu_k * iu_k * iu_d % m
            acc_b += ppow[v] * u * iu_k * iu_d
            if 2 * w < e:
                acc_a += ppow[2 * w] * u * u
    return acc_a % m, acc_b % m * unit[n] % m


def seq_mod(sid: SeqId, n: int, p: int, e: int) -> Residue:
    """Residue of the exact sequence value mod p^e, computed modularly."""
    sid = SeqId(sid)
    if n < 0:
        raise ValueError("need n >= 0")
    if sid in (SeqId.A, SeqId.APRIME):
        return Residue(apery_pair_mod(n, FactorialTable(p, e))[sid is SeqId.APRIME], p, e)
    if sid is SeqId.T:
        return Residue(next(islice(t_values(p ** e), n, None)), p, e)
    if sid in (SeqId.CBIG, SeqId.CPRIME):
        return Residue(c_coeffs(n)[sid is SeqId.CPRIME], p, e)
    # 1/d over d = 1..n for H, else d = 1, 3, ..., 2n - 1, each term scaled to
    # p^v / d, with p^v the largest power of p up to the largest d
    step, top = (1, n) if sid is SeqId.H else (2, 2 * n - 1)
    v = 0
    while p ** (v + 1) <= top:
        v += 1
    m = p ** (e + 2 * v)
    s1 = s2 = 0  # the sums of p^v / d and of its square
    for k in range(v + 1):
        # the d = p^k d' with p not dividing d' (d' odd where d is), as p^(v-k) / d'
        u1 = u2 = 0
        for d in range(1, top // p ** k + 1, step):
            if d % p:
                inv = pow(d, -1, m)
                u1, u2 = u1 + inv, u2 + inv * inv
        s1, s2 = s1 + p ** (v - k) * u1, s2 + p ** (2 * (v - k)) * u2
    value = {SeqId.H: s1, SeqId.OODD: s1, SeqId.OODD2: s2, SeqId.D: s1 * s1 - s2}[sid] % m
    scale = p ** (v if sid in (SeqId.H, SeqId.OODD) else 2 * v)
    if value % scale:
        # then v >= 1, and p itself is the first denominator that p divides
        raise NotPIntegral(f"denominator {p} divisible by {p}", -1)
    return Residue(value // scale, p, e)
