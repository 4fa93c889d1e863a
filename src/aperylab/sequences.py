"""Integer and harmonic sequences, exact and modular.

Exact evaluators return big integers or fractions: A, A' and t by their
three-term recurrences, rolled over two values (t_values walks t_0, t_1, ...
for the verifiers and the per-prime checks that read them in turn), with t's
closed form as a second route, summed as one integer numerator over 4^n.
harmonic_walk is the one exact walk of the harmonic sums: H_k, the sum of
1/j^2, O_k and O2_k as integer numerators over running lcm denominators,
and, where asked, the four central sums sum_j binom(2j,j)^3/64^j (1, O_j,
O2_j, O_j^2).  harmonic_values forms the Fractions H_n, O_n, O2_n and
D_n = O_n^2 - O2_n once, off the walk's n-th step.  The identity verifiers
scale the walk's O and O2 numerators to the last step's denominator, and a
sweep's exact harmonic walk (checks) reduces the walk at each prime's p // 4
and (p - 1)/2.  apery_values is the one exact walk
of A or A'; apery_neighbours reads (S_{n-1}, S_n) off it for the exact
outputs, and a sweep's exact pass (checks) reads it and t_values() in
increasing n, reducing each value at the primes that read it.  Each
Apery sequence's three-term recurrence is stated once, as its row (k, c) of
RECURRENCES, which apery_values walks exactly and apery_walk_mod mod p^e.
C and C' are data rows (S, b, d) for n^3 (S_{n-1} + b S_n) / d:
C_n = n^3 (A_{n-1} - 17 A_n) / 12, C'_n = n^3 (A'_{n-1} - 2 A'_n).
seq_mod evaluates residues in O(n) steps without the exact value:
apery_pair_mod for the Apery sums and for C and C' (both neighbours off one
table, one digit longer where p divides d), the division-free recurrence for
t, one inverse per term for the harmonic family, each term scaled by the
largest power of p up to the largest denominator.
apery_pair_mod gives A_n and A'_n together from one pass over the factorial
table it is handed (a sweep's prime task owns one), the two summands sharing
one unit that is reduced once per term, and each sum reduced once at the end.
apery_walk_mod gives S_0..S_N of one sequence from one walk of its
recurrence mod p^e, carried over the unit denominator unit(n!)^k with the
digits lost at each multiple of p tracked; a prime task reads the indices
that the exact pass does not hand it this way, and leaves a lone large
index to apery_pair_mod.
The O(n^2) direct sums for A and A', the earlier two-pass apery_mod and the
binomial sums for C and C' live in the tests, as the oracles that
apery_pair_mod, apery_walk_mod and the recurrences are checked against.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, count, islice
from math import factorial, gcd, lcm

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

def t_values(modulus: int = 0):
    """t_0, t_1, ... by t_{n+1} = (8n^2+12n+5) t_n - 4n^2 (2n+1)^2 t_{n-1},
    t_0=1, t_1=5, holding two values at a time; reduced mod `modulus` if given."""
    a, b = (1 % modulus, 5 % modulus) if modulus else (1, 5)
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


# The three-term recurrence of each Apery sequence S, as a row (k, c):
#   (i+1)^k S_{i+1} = c(i) S_i + (-i)^k S_{i-1},   S_{-1} = 0, S_0 = 1,
# with c = (c3, c2, c1, c0) the coefficients of c(i) = c3 i^3 + c2 i^2 + c1 i + c0
# (van der Poorten, "A proof that Euler missed", Math. Intelligencer 1, 1979).
# The last term's sign is (-1)^k: minus for A, plus for A'.  For A,
# c(i) = (2i+1)(17i(i+1)+5); for A', c(i) = 11i(i+1)+3.
RECURRENCES = {SeqId.A: (3, (34, 51, 27, 5)), SeqId.APRIME: (2, (0, 11, 11, 3))}


def apery_values(sid: SeqId):
    """S_0, S_1, ... for S = A or A' by `sid`, by its row of RECURRENCES,
    holding two values at a time:
      (i+1)^3 A_{i+1} = (2i+1)(17i(i+1)+5) A_i - i^3 A_{i-1},
      (i+1)^2 A'_{i+1} = (11i(i+1)+3) A'_i + i^2 A'_{i-1}."""
    k, (c3, c2, c1, c0) = RECURRENCES[SeqId(sid)]
    a, b = 0, 1
    yield b
    for i in count():
        a, b = b, ((((c3 * i + c2) * i + c1) * i + c0) * b + (-i) ** k * a) // (i + 1) ** k
        yield b


def apery_neighbours(sid: SeqId, n: int) -> tuple[int, int]:
    """(S_{n-1}, S_n) for S = A or A' by `sid`, n >= 0, with S_{-1} = 0, read
    off apery_values."""
    if n < 0:
        raise ValueError("need n >= 0")
    return tuple(islice(chain((0,), apery_values(sid)), n, n + 2))


# C and C' as rows (S, b, d) for n^3 (S_{n-1} + b S_n) / d, n >= 1
C_ROWS = {SeqId.CBIG: (SeqId.A, -17, 12), SeqId.CPRIME: (SeqId.APRIME, -2, 1)}


def harmonic_walk(central: bool = False):
    """For k = 0, 1, ...: (l, h, q, d, o, o2, sums), the harmonic sums to k as
    integer numerators over running lcm denominators,

        H_k = h / l,   sum_{j<=k} 1/j^2 = q / l^2,   O_k = o / d,   O2_k = o2 / d^2,

    with l = lcm(1, ..., k) and d = lcm(1, 3, ..., 2k - 1).  A step rescales
    the numerators by the prime that an lcm gains where k or 2k - 1 is a
    prime power, then adds l / k, (l / k)^2, d / (2k - 1) and its square:
    big integers meet only small ones.  With `central`, sums is the central
    sums sum_{j<=k} c_j (1, O_j, O2_j, O_j^2), c_j = binom(2j,j)^3 / 64^j, as
    numerators over 64^k (1, d, d^2, d^2); else None.  Those take three
    products of big integers per step, so they cost far more than the rest."""
    l = l2 = d = d2 = b = 1  # l^2, d^2 and binom(2k, k)^3
    h = q = o = o2 = s = s_o = s_o2 = s_oo = 0
    sums = (0, 0, 0, 0) if central else None
    yield l, h, q, d, o, o2, sums
    for k in count(1):
        g = k // gcd(l, k)
        if g > 1:
            l, l2, h, q = l * g, l2 * g * g, h * g, q * g * g
        h += l // k
        q += l2 // (k * k)
        j = 2 * k - 1
        g = j // gcd(d, j)
        if g > 1:
            d, d2, o, o2 = d * g, d2 * g * g, o * g, o2 * g * g
            if central:
                s_o, s_o2, s_oo = s_o * g, s_o2 * g * g, s_oo * g * g
        o += d // j
        o2 += d2 // (j * j)
        if central:
            b = b * (2 * j) ** 3 // k ** 3
            bo = b * o
            s, s_o = (s << 6) + b, (s_o << 6) + bo
            s_o2, s_oo = (s_o2 << 6) + b * o2, (s_oo << 6) + bo * o
            sums = s, s_o, s_o2, s_oo
        yield l, h, q, d, o, o2, sums


def harmonic_values(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(H_n, O_n, O2_n, D_n), with D_n = O_n^2 - O2_n, from the n-th step of
    harmonic_walk: three Fractions, each formed once."""
    if n < 0:
        raise ValueError("need n >= 0")
    l, h, _, d, o, o2, _ = next(islice(harmonic_walk(), n, None))
    o, o2 = Fraction(o, d), Fraction(o2, d * d)
    return Fraction(h, l), o, o2, o * o - o2


def seq_exact(sid: SeqId, n: int):
    """Exact value of the sequence: int for A, A', t, C; Fraction for the rest."""
    sid = SeqId(sid)
    if sid in (SeqId.A, SeqId.APRIME):
        return apery_neighbours(sid, n)[1]
    if sid is SeqId.T:
        return t_exact(n)
    if sid in C_ROWS:
        if n < 1:
            raise ValueError("need n >= 1")
        seq, b, d = C_ROWS[sid]
        prev, cur = apery_neighbours(seq, n)
        return n ** 3 * (prev + b * cur) // d
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


def apery_walk_mod(sid: SeqId, n: int, table: FactorialTable) -> list[int]:
    """Least residues S_0, ..., S_n mod p^e of S = A or A' by `sid`, for the p
    and e of `table`, from one walk of the sequence's row (k, c) of
    RECURRENCES, the recurrence that apery_values walks exactly.

    The walk carries y_i = S_i unit(i!)^k, whose recurrence has no division
    but by p: with s the unit part of i,
      p^(kt) y_{i+1} = c(i) y_i + (-i s)^k y_{i-1},
    where p^t || i + 1.  Each division costs kt digits, k v_p(n!) in all, so
    the walk starts mod p^(e + k v_p(n!)) and drops to the precision it still
    needs at each multiple of p.  S_i = y_i IU[i]^k is read off the table's
    rows, which this extends to n: no inversion per step.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    table.extend(n)
    p, m, val, inv = table.p, table.modulus, table.val, table.inv_unit
    k, (c3, c2, c1, c0) = RECURRENCES[SeqId(sid)]
    work = m * p ** (k * val[n])
    prev, cur, s = 0, 1, 1  # y_{i-1}, y_i and the unit part of i
    out = [1]
    for i in range(n):
        y = ((((c3 * i + c2) * i + c1) * i + c0) * cur + (-i * s) ** k * prev) % work
        s = i + 1
        if s % p == 0:
            # exact: y_{i+1} p^(kt) is known mod `work`, which p^(kt) divides
            drop = p ** (k * (val[i + 1] - val[i]))
            y, work = y // drop, work // drop
            while s % p == 0:
                s //= p
        prev, cur = cur, y
        out.append(y % m * inv[i + 1] ** k % m)
    return out


def seq_mod(sid: SeqId, n: int, p: int, e: int) -> Residue:
    """Residue of the exact sequence value mod p^e, computed modularly."""
    sid = SeqId(sid)
    least = 1 if sid in C_ROWS else 0
    if n < least:
        raise ValueError(f"need n >= {least}")
    if sid in (SeqId.A, SeqId.APRIME):
        return Residue(apery_pair_mod(n, FactorialTable(p, e))[sid is SeqId.APRIME], p, e)
    if sid is SeqId.T:
        return Residue(next(islice(t_values(p ** e), n, None)), p, e)
    if sid in C_ROWS:
        seq, b, d = C_ROWS[sid]
        # d = p^x d' with p prime to d' (x = 1 for C at p = 3): both neighbours
        # are read off one table x digits longer, and p^x divides out exactly
        x = 0
        while d % p == 0:
            d, x = d // p, x + 1
        table = FactorialTable(p, e + x)
        i = seq is SeqId.APRIME
        prev, cur = apery_pair_mod(n - 1, table)[i], apery_pair_mod(n, table)[i]
        value = n ** 3 * (prev + b * cur) % table.modulus // p ** x
        return Residue(value * pow(d, -1, p ** e), p, e)
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
