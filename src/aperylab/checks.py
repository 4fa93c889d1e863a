"""Executable registry of every congruence and identity check, plus sweeps.

Each check computes both sides of one stated congruence over Z/p^e Z and
records a structured CheckResult.  Conjecture-status checks never abort a
sweep; a failing instance is reported as a refutation.  Sweeps are pure and
deterministic: worker count never changes verdicts or ordering.

Every registry row is one of three specs: a Lift (an m, r congruence between
two Apery values), an AtPrime (a congruence at one prime under its
hypotheses), or an Identity (exact identity verifiers).  A Lift's weight is
data too, (a, b, d) for m^3 (a S_{m-1} + b S_m) / d with S its A or A'; for
conj2.5 that is (2/3) m^3 c_m with c_m = (17 A_{m-1} - A_m) / 12, any m.  It
is read mod p^2 from the task's own S_{m-1} and S_m, with no exact value.

A sweep runs each fixed-range identity as one task and each prime as one
task, which covers every selected Lift and AtPrime row, every (m, r) and the
per-prime identity.  Its rows read one _PrimeValues, which computes each
value they share once, at its first use, and keeps nothing past the task.
Before the tasks are dealt out, the sweep collects each prime's read set
once (_prime_reads): every value that the prime's rows read, of the value
kinds of _KINDS, one row each.  These are A, A' and t at the indices that
the rows name as data (Lift.reads, AtPrime.reads), and the harmonic pair
(H_{p-1}, Lehmer's sum) and the four central sums at (p - 1)/2, where a
weighted Lift, or an AtPrime row that reads .euler or .central, applies.  A
row of _KINDS names the kind's exact walk (apery_values, t_values() or
harmonic_walk), its reduction at a prime, the task's own route, and the
costs of each.  One function plans every kind from the read sets and the
tasks' precision alone (_plan_kinds): the bound up to which one exact walk
costs less than the tasks' own routes, by one cost estimate, which prices
those routes by the rule below; one walk of harmonic_walk carries both
harmonic kinds, with the central sums only where a row reads them.  One
function walks each chosen kind once, in increasing n (_walk_kinds), and
hands each task its values mod p^e_max, and its read set, inside the task
tuple.
A task owns the prime's one factorial table, at the largest precision the
rows need, and hands it to the kernels, pure functions of what they are
given: for the A_n and A'_n of its read set that were not handed, one
apery_walk_mod walk per sequence, to its largest such index below p^2 - 1,
and one apery_pair_mod pass for each such index at or above p^2 - 1, where
a walk would run past p^2 for one read; where they were not handed, the four
central-binomial harmonic sums from one pass and H_{p-1} with Lehmer's sum
from another; and eq2.2's binomials.
p B_{p-1} = (p-1)! + p (mod p^2) by Glaisher's congruence is read off it.  No
table outlives its task.  t_0..t_p come from one walk where no t_n is
handed.  B_{p-3} mod p and the bracket mod p^2 are read off H_{p-1} mod p^4
(for p >= 7; the exact B_2 and B_6 at p = 5), E_{p-3} mod p off Lehmer's
sum, and Gamma_p(1/4)^4 is taken once.  run_check runs the same evaluator
on one row, with nothing handed, from that row's read set.
A conj2.5 record carries its prime's residue of c_m, read off the record's
difference, so the CRT recovery (cm_recovery) reads the sweep's own values;
recover_cm reads those of a sweep of the conj2.5 row alone.

A sweep with N > 1 workers deals its tasks round-robin into N stripes.  It
runs the first stripe itself and forks one child per other stripe, which
inherits its tasks, handed residues included, and pickles its results back
through a pipe; the earliest failing task's
exception is raised, as with one worker.  A sweep with one worker, or on a
platform without os.fork, runs its tasks in-process and loads no pickle.
The records and the registry rows are immutable typing.NamedTuples;
._replace(...) gives an edited copy.
"""

from __future__ import annotations

import os
from contextlib import suppress
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice, product
from math import comb, gcd
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from . import identities, special
from .modring import FactorialTable, PrimeInfo, prime_info, primes_in_range, reduce_rat
from .sequences import (
    RECURRENCES, SeqId, apery_pair_mod, apery_values, apery_walk_mod, harmonic_walk, t_values,
)
from .special import bernoulli, gamma_quarter_closed_form, padic_gamma

SIZE_CAP_ENV = "APERY_LAB_SIZE_CAP"
DEFAULT_SIZE_CAP = 100_000


class Status(str, Enum):
    THEOREM = "theorem"
    LEMMA = "lemma"
    CONJECTURE = "conjecture"


class SkipCheck(Exception):
    """Raised inside a runner when the check does not apply or exceeds a cap."""


class CheckResult(NamedTuple):
    check: str
    p: Optional[int]
    m: Optional[int]
    r: Optional[int]
    modulus: Optional[int]
    lhs: Union[int, Fraction, None]
    rhs: Union[int, Fraction, None]
    verdict: str
    skip_reason: Optional[str] = None
    sign: Optional[str] = None
    # conj2.5 only: c_m mod p for the CRT recovery, or why p gives none
    recovery: Union[int, str, None] = None


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise SkipCheck(reason)


def _parity_sign(p: int) -> int:
    return -1 if (p - 1) // 2 % 2 else 1


# ---------------------------------------------------------------------------
# shared kernels

def _central_sums(table: FactorialTable) -> tuple[int, int, int, int]:
    """(S, S_O, S_O2, S_OO) = sum_k c_k (1, O_k, O2_k, O_k^2) mod p^e, for the
    p and e of `table`, over k = 1..(p-1)/2, where c_k = binom(2k,k)^3 / 64^k,
    O_k = sum_{i<=k} 1/(2i-1) and O2_k = sum_{i<=k} 1/(2i-1)^2.

    Every factorial index is below p, so each is a unit read off the table's
    rows, which this extends to p - 1: binom(2k,k) = U[2k] IU[k]^2 and
    1/(2k-1) = U[2k-2] IU[2k-1], with no inversion per k.

    For the full-range statements summed to p-1: a term with (p-1)/2 < k < p
    carries p^3 from the cubed central binomial and at worst p^-1 (weight O)
    or p^-2 (weights O2, O^2), so those terms vanish at e <= 2 and e <= 1
    respectively and the half sum already equals the full sum.
    """
    p = table.p
    table.extend(p - 1)
    m, unit, inv = table.modulus, table.unit, table.inv_unit
    inv64 = pow(64, -1, m)
    w64 = 1
    o = o2 = 0
    s = s_o = s_o2 = s_oo = 0
    for k in range(1, (p - 1) // 2 + 1):
        c = unit[2 * k] * inv[k] % m * inv[k] % m
        w64 = w64 * inv64 % m
        i = unit[2 * k - 2] * inv[2 * k - 1] % m
        o = (o + i) % m
        o2 = (o2 + i * i) % m
        t = c * c % m * c % m * w64 % m
        to = t * o % m
        s, s_o, s_o2, s_oo = s + t, s_o + to, s_o2 + t * o2, s_oo + to * o
    return s % m, s_o % m, s_o2 % m, s_oo % m


def _harmonic_sums(table: FactorialTable) -> tuple[int, int]:
    """(H_{p-1} mod p^e, sum_{k<=p/4} 1/k^2 mod p), for the p and e of
    `table`, with 1/k = U[k-1] IU[k] read off the table's rows, which this
    extends to p - 1: one product per k, summed in C, with no inversion.

    They give B_{p-3}, the bracket and E_{p-3} (see _PrimeValues): for
    p >= 7, H_{p-1} = -p^2 (B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3)) (mod p^4)
    (Glaisher; Z.-H. Sun, Discrete Appl. Math. 105, 2000), and Lehmer's sum
    is (-1)^((p-1)/2) 4 E_{p-3} (mod p) (Ann. of Math. 39, 1938).
    """
    p = table.p
    table.extend(p - 1)
    unit, inv = table.unit, table.inv_unit
    h = sum(map(mul, unit[: p - 1], inv[1:p])) % table.modulus
    quarter = list(map(mul, unit[: p // 4], inv[1 : p // 4 + 1]))
    return h, sum(map(mul, quarter, quarter)) % p


def _walk_cost(sid: SeqId, n: int, p: int, e: int) -> float:
    """The estimated cost of apery_walk_mod(sid, n) mod p^e (0 for n < 0),
    counted in apery_pair_mod terms, of which a read of n takes n + 1.  A
    walk step costs about k/2 terms, with k the exponent of the sequence's
    row of RECURRENCES (3 for A, 2 for A'), plus one per 1000 bits of its
    modulus, whose width falls from e + k v_p(n!) digits of p to e along a
    walk to n."""
    k = RECURRENCES[sid][0]
    return n * (k / 2 + (e + k * n / (p - 1) / 2) * p.bit_length() / 1000) if n >= 0 else 0


# ---------------------------------------------------------------------------
# the values at one prime

class _PrimeValues:
    """The values the rows at one prime p read, each taken at its first use and
    kept only as long as this object.  A value of a kind of _KINDS (A_n, A'_n,
    t_n, the harmonic pair (H_{p-1}, Lehmer's sum) and the four central sums)
    is first looked up in `handed`, the residues of the sweep's exact pass,
    and else taken off the kind's task route, once.  The task's read set
    (_prime_reads) holds every value the rows read.  For the routes it owns
    the prime's one factorial table, FactorialTable(p, e_max), and hands it
    to the kernels: of the reads of A and A' that were not handed, those
    below p^2 - 1 from one walk per sequence (apery_walk_mod) to the largest
    of them, and those at or above it from the pair (apery_pair_mod), once
    per index (walk_or_pair);
    t_0..t_p mod p^e_max from one walk; the four central sums from one pass
    (_central_sums) and the harmonic pair from another (_harmonic_sums).
    Besides: p B_{p-1} from its entry (p-1)!, the per-prime identity and
    Gamma_p(1/4)^4 mod p.  B_{p-3} mod p, the bracket mod p^2 and E_{p-3}
    mod p are read off the harmonic pair, with no power sum.  The single
    central binomials of thm2.1i, lemma2.4, lemma2.6, thm3.3_tquarter and
    lemma2.5's closed form come from math.comb instead.  A row reduces what
    it reads to its own modulus.  The kernels and FactorialTable are looked
    up in this module when called, so a patched one is used.  The size cap
    is read from APERY_LAB_SIZE_CAP when the object is made."""

    def __init__(self, pi: PrimeInfo, e_max: int, handed: Optional[dict] = None) -> None:
        self.p, self.klass, self.rep = pi.p, pi.klass, pi.rep
        self.e_max = e_max
        self.cap = _size_cap()
        # {(kind, n): value mod p^e_max}, handed by the sweep's exact pass
        # (_walk_kinds) or kept from a route
        self.values = dict(handed or {})
        # the end of each sequence's walk, which _prime_results sets from the
        # reads of A and A' in the read set that were not handed
        self.reach: dict[SeqId, int] = {}
        self._walks: dict[SeqId, list[int]] = {}
        self._pairs: dict[int, tuple[int, int]] = {}

    def value(self, kind, n: int):
        """The value of `kind` at n mod p^e_max: handed, or off the kind's
        task route (_KINDS) at its first read."""
        got = self.values.get((kind, n))
        if got is None:
            got = self.values[kind, n] = _KINDS[kind].route(self, kind, n)
        return got

    def walk_or_pair(self, sid: SeqId, n: int) -> int:
        """A_n or A'_n mod p^e_max by the task's own routes.  An index below
        p^2 - 1 is read off the sequence's one walk (apery_walk_mod), taken at
        its first such read to its reach, the largest read below p^2 - 1 that
        was not handed; an index at or above p^2 - 1 off apery_pair_mod,
        whose first read of n takes both."""
        if n < self.p * self.p - 1:
            if sid not in self._walks:
                self._walks[sid] = apery_walk_mod(sid, self.reach[sid], self.table)
            return self._walks[sid][n]
        if n not in self._pairs:
            self._pairs[n] = apery_pair_mod(n, self.table)
        return self._pairs[n][sid is SeqId.APRIME]

    @cached_property
    def table(self) -> FactorialTable:
        """The prime's one FactorialTable(p, e_max), its rows extended to p - 1."""
        table = FactorialTable(self.p, self.e_max)
        table.extend(self.p - 1)
        return table

    @cached_property
    def _t_walk(self) -> list[int]:
        """t_0..t_p mod p^e_max, from one t_values(p^e_max) walk."""
        return list(islice(t_values(self.p ** self.e_max), self.p + 1))

    @property
    def central_sums(self) -> tuple[int, int, int, int]:
        """(S, S_O, S_O2, S_OO) mod p^e_max (see _central_sums)."""
        return self.value(CENTRAL, (self.p - 1) // 2)

    @property
    def harmonic(self) -> tuple[int, int]:
        """(H_{p-1} mod p^e_max, sum_{k<=p/4} 1/k^2 mod p)."""
        return self.value(SeqId.H, (self.p - 1) // 2)

    @cached_property
    def bracket(self) -> int:
        """B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3) mod p^2, for p >= 5: -H_{p-1}/p^2,
        read off H_{p-1} mod p^4 (every row that reads it has e_max >= 4), for
        p >= 7; at p = 5, where that congruence fails, from the exact B_2, B_6."""
        p, q = self.p, self.p * self.p
        if p == 5:
            return reduce_rat(bernoulli(6) / 6 - bernoulli(2), 5, 2).value
        return -(self.harmonic[0] // q) % q

    @cached_property
    def b3(self) -> int:
        """B_{p-3} mod p, as 3 times the bracket (Kummer: B_{2p-4}/(2p-4) =
        B_{p-3}/(p-3) (mod p))."""
        return 3 * self.bracket % self.p

    @cached_property
    def euler(self) -> int:
        """E_{p-3} mod p, p >= 5, by Lehmer's congruence
        sum_{k<=p/4} 1/k^2 = (-1)^((p-1)/2) 4 E_{p-3} (mod p)."""
        p = self.p
        return _parity_sign(p) * self.harmonic[1] * pow(4, -1, p) % p

    @cached_property
    def pb(self) -> int:
        """p B_{p-1} mod p^2, as (p-1)! + p by Glaisher's congruence; every
        row that reads it is stated mod p^2, so e_max >= 2 here."""
        m = self.p * self.p
        return (self.table.unit[self.p - 1] + self.p) % m

    @cached_property
    def gamma4(self) -> int:
        """Gamma_p(1/4)^4 mod p, from padic_gamma at e = 1: fewer than p factors."""
        return pow(padic_gamma(Fraction(1, 4), self.p, 1).value, 4, self.p)


# ---------------------------------------------------------------------------
# the value kinds of a sweep's exact pass

# The harmonic walk gives two kinds, each read at (p - 1)/2: the harmonic
# pair (H_{p-1}, Lehmer's sum), keyed SeqId.H, and the central sums, keyed
# CENTRAL, whose walk hands the pair too.
CENTRAL = "central"


def _reduce_value(got: dict, kind, step: int, n: int, p: int, e: int) -> None:
    """S_n mod p^e for S = A, A' or t, read at n."""
    got[kind, n] = step % p ** e


def _reduce_harmonic(got: dict, kind, step: tuple, k: int, p: int, e: int) -> None:
    """The step k of harmonic_walk at p: at k = p // 4, Lehmer's sum mod p,
    kept in got until k = (p - 1)/2; there the harmonic pair, with
    H_{p-1} = O_k + H_k / 2 mod p^e, and the central sums mod p^e where the
    step carries them (see _central_sums).  Every denominator there is prime
    to p."""
    l, h, q, d, o, o2, sums = step
    if k == p // 4:
        got[kind, k] = q * pow(l, -2, p) % p
        return
    m = p ** e
    inv_d = pow(d, -1, m)
    got[SeqId.H, k] = ((o % m * inv_d + h % m * pow(2 * l, -1, m)) % m, got.pop((kind, p // 4)))
    if sums:
        w, inv_d2 = pow(64, -k, m), inv_d * inv_d % m
        s, s_o, s_o2, s_oo = (v % m * w % m for v in sums)
        got[CENTRAL, k] = (s, s_o * inv_d % m, s_o2 * inv_d2 % m, s_oo * inv_d2 % m)


class _Kind(NamedTuple):
    """A value kind of a sweep's exact pass: its exact walk from index 0, the
    reduction of a step at a prime into the prime's handed values, the
    task's own route where nothing is handed, and their costs in
    apery_pair_mod terms.  Step i of the walk costs 1 + 2 growth i / 1000,
    and its reduction 1 + 2 reduce_growth i / 1000.  The task's own pass
    costs own * p terms for the kind's reads at p, one coefficient per kind;
    with no own, the task walks the reads of A or A' below p^2 - 1 to the
    largest (_walk_cost) and pairs the others, n + 1 terms for a read of n.
    With quarter, the walk also stops at each prime's p // 4."""

    walk: Callable
    reduce: Callable
    route: Callable
    growth: float
    reduce_growth: float
    own: Optional[float] = None
    quarter: bool = False


# The growths were fitted to exact walks to 3000 and 10^4, on a 2-vCPU Xeon
# with Python 3.11: those of A, A' and t took 23 / 269, 9.5 / 90 and
# 27 / 398 ms, and a pair term 0.75-1.4 us.  A divides by the two-digit
# (i+1)^3 past i = 1023, A' and t by nothing that wide.  Walks to a few
# hundred take about half of this estimate.  The harmonic walk to 1500 and
# 4986 took 9 / 77 ms, and 154 / 1930 ms with its central products.  Its
# steps multiply big integers and its reductions do not: those of the
# central walk took 15 / 52 / 174 us at k = 153 / 1500 / 4986.  A task's own
# harmonic pass costs, per unit of p, the table rows to p - 1 (0.35 us a row
# at p = 9973, if no other read builds them), _harmonic_sums (0.15 us) and,
# with the central sums, _central_sums (0.8 us); its t walk, of p + 1 terms,
# costs 1 per unit of p.
_KINDS = {
    SeqId.A: _Kind(lambda: apery_values(SeqId.A), _reduce_value,
                   _PrimeValues.walk_or_pair, 2.7, 2.7),
    SeqId.APRIME: _Kind(lambda: apery_values(SeqId.APRIME), _reduce_value,
                        _PrimeValues.walk_or_pair, 0.9, 0.9),
    SeqId.T: _Kind(lambda: t_values(), _reduce_value,
                   lambda at, kind, n: at._t_walk[n], 4.0, 4.0, 1.0),
    SeqId.H: _Kind(lambda: harmonic_walk(), _reduce_harmonic,
                   lambda at, kind, n: _harmonic_sums(at.table), 3.0, 8.0, 0.5, True),
    CENTRAL: _Kind(lambda: harmonic_walk(central=True), _reduce_harmonic,
                   lambda at, kind, n: _central_sums(at.table), 75.0, 16.0, 1.3, True),
}


# ---------------------------------------------------------------------------
# m, r lift congruences: one data row each

def _require_mr(m: int, r: int) -> None:
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m = {m}, r = {r}")


class Lift(NamedTuple):
    """A congruence between A_hi and A_lo (A or A' by `sid`) mod p^(3r + extra),
    where hi = m p^r + shift and lo = m p^(r-1) + shift, for p > p_above:

        A_hi = A_lo + C p^(3r),   or   A_hi - A_lo = C p^(3r) for a difference row,

    with C = w_m B.  For weight = (a, b, d) the weight is
    w_m = m^3 (a S_{m-1} + b S_m) / d, with S the row's own sequence; no
    weight means no correction.  B is B_{p-3}, or the bracket
    B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3) when `bracket` is set.  The record is
    (A_hi, A_lo + C p^(3r)), or (A_hi - A_lo, C p^(3r)).  C is needed only
    mod p^extra: w_m is taken mod p^2 from the task's S_{m-1} and S_m, d
    being a unit there (d divides 18 and p > 3); B_{p-3} is read mod p, for
    its rows have extra = 1, and the bracket mod p^2, for its rows have
    extra = 2.  A weighted row reads B, and so the harmonic pair at
    (p - 1)/2 (_prime_reads).
    """

    sid: SeqId
    shift: int
    extra: int
    p_above: int = 3
    weight: Optional[tuple[int, int, int]] = None
    bracket: bool = False
    difference: bool = False

    def reads(self, p: int, m: int, r: int, cap: int) -> tuple[int, ...]:
        """The indices of S the row reads at p, m, r: hi and lo, then m - 1
        and m for a weight; SkipCheck where the row does not apply or hi
        passes the size cap."""
        _require_mr(m, r)
        if p <= self.p_above:
            raise SkipCheck(f"requires p > {self.p_above}")
        hi, lo = m * p ** r + self.shift, m * p ** (r - 1) + self.shift
        if hi > cap:
            raise SkipCheck(f"size cap: index {hi} exceeds {cap}")
        return (hi, lo, m - 1, m) if self.weight else (hi, lo)

    def __call__(self, at: _PrimeValues, m: int, r: int):
        p = at.p
        hi, lo, *weight_at = self.reads(p, m, r, at.cap)
        modulus = p ** (3 * r + self.extra)
        lhs, base = at.value(self.sid, hi) % modulus, at.value(self.sid, lo) % modulus
        if self.difference:
            lhs, base = (lhs - base) % modulus, 0
        corr = 0
        if self.weight:
            a, b, d = self.weight
            q = p * p
            prev, cur = (at.value(self.sid, n) for n in weight_at)
            w = m ** 3 * (a * prev + b * cur)
            w = w * pow(d, -1, q) % q
            corr = w * (at.bracket if self.bracket else at.b3) * p ** (3 * r) % modulus
        return modulus, lhs, (base + corr) % modulus, None


# ---------------------------------------------------------------------------
# prime-indexed congruences: one data row each

class AtPrime(NamedTuple):
    """A congruence at one prime p, stated mod p^e for p > p_above and, when
    klass is set, p = klass (mod 4).  A row may read one sequence value,
    `seq` = (sid, c, d) for S_n with n = (p + c) / d, where S is A' or t,
    and says whether it reads the central sums (`central`) or E_{p-3}
    (`euler`), the harmonic walk's values.  sides(at, p^e[, S_n]) reads the
    prime's other values from `at` and returns (lhs, rhs), or
    (lhs, rhs, sign) for a check that records which sign held; the row
    reduces both sides mod p^e."""

    e: int
    sides: Callable
    p_above: int = 2
    klass: Optional[int] = None
    seq: Optional[tuple[SeqId, int, int]] = None
    central: bool = False
    euler: bool = False

    def reads(self, p: int, klass: int) -> tuple[tuple[SeqId, int], ...]:
        """The (sid, n) the row reads at p of class klass mod 4; SkipCheck
        where the row does not apply."""
        if p <= self.p_above:
            raise SkipCheck(f"requires p > {self.p_above}")
        if self.klass is not None and klass != self.klass:
            raise SkipCheck(f"requires p = {self.klass} (mod 4)")
        if self.seq is None:
            return ()
        sid, c, d = self.seq
        return ((sid, (p + c) // d),)

    def __call__(self, at: _PrimeValues):
        values = [at.value(*read) for read in self.reads(at.p, at.klass)]
        modulus = at.p ** self.e
        lhs, rhs, *sign = self.sides(at, modulus, *values)
        return modulus, lhs % modulus, rhs % modulus, sign[0] if sign else None


def _x_side(at: _PrimeValues, modulus: int) -> int:
    """4x^2 - 2p - p^2/(4x^2) mod p^3 for p = x^2 + 4y^2 = 1 (mod 4)."""
    p, x = at.p, at.rep[0]
    return 4 * x * x - 2 * p - p * p * pow(4 * x * x, -1, modulus)


def _b_side(at: _PrimeValues, modulus: int, k: int) -> int:
    """p^2 / (k b^2) mod `modulus` for b = binom((p-3)/2, (p-3)/4), p = 3
    (mod 4), where k is prime to p or divides p^2: at p = 3, p^2/3 = 3
    exactly, while 3 is not invertible mod 27."""
    p = at.p
    b, g = comb((p - 3) // 2, (p - 3) // 4), gcd(k, p * p)
    return p * p // g * pow(k // g * b * b, -1, modulus)


def _eq13(at, modulus, ap):
    # A'_1 = 3 is divisible by p but not p^2, so the statement needs p > 3;
    # mod p^2, _x_side is 4x^2 - 2p
    return ap, _x_side(at, modulus) if at.klass == 1 else 0


def _thm21i(at, modulus, ap):
    return ap, _b_side(at, modulus, 3)


def _thm21ii(at, modulus, ap):
    p, x = at.p, at.rep[0]
    _, _, _, s_oo = at.central_sums
    rhs = (
        _x_side(at, modulus)
        + 3 * p * p * x * x * at.euler
        + p * p * pow(2, -1, modulus) * s_oo
    )
    return ap, rhs


def _lemma23(at, modulus, ap):
    # sum_k c_k (1 - p O_k + (p^2/2)(O_k^2 - 3 O2_k)), split by linearity
    p = at.p
    s, s_o, s_o2, s_oo = at.central_sums
    rhs = 1 + s - p * s_o + p * p * pow(2, -1, modulus) * (s_oo - 3 * s_o2)
    return ap, rhs


def _lemma24(at, modulus):
    # the k = 0 term, then k = 1..(p-1)/2 from the central pass: for
    # (p-1)/2 < k < p, p divides binom(2k,k) once and its cube vanishes mod p^3
    lhs = 1 + at.central_sums[0]
    return lhs, _x_side(at, modulus) if at.klass == 1 else _b_side(at, modulus, -4)


def _lemma25(at, modulus):
    p, limit = at.p, special.GAMMA_STEP_LIMIT
    # padic_gamma no longer needs this cap (its block route costs O(p) here);
    # the skip stays so that the records at p >= 127, which the benchmark
    # oracle and the golden hashes encode, do not move.
    _require(modulus <= limit, f"gamma cost cap: {p}^3 exceeds {limit} steps")
    g = padic_gamma(Fraction(1, 4), p, 3)
    return (g ** 4).value, gamma_quarter_closed_form(p).value


def _lemma26(at, modulus):
    p = at.p
    b = comb((p - 1) // 2, (p - 1) // 4)
    lhs = (
        pow(2, -(p - 1), modulus)
        * b % modulus * b % modulus
        * (1 - p * p * pow(2, -1, modulus) * at.euler)
    )
    return lhs, _x_side(at, modulus)


def _lemma27a(at, modulus):
    # the factor p means Gamma_p(1/4)^4 is needed only mod p
    p = at.p
    _, lhs, _, _ = at.central_sums
    if at.klass == 1:
        return lhs, 0
    return lhs, -p * pow(12, -1, modulus) * at.gamma4


def _lemma27b(at, modulus):
    p = at.p
    _, _, lhs, _ = at.central_sums
    if at.klass == 1:
        return lhs, pow(2, -1, p) * at.gamma4 * at.euler
    return lhs, -pow(16, -1, p) * at.gamma4


def _conj21(at, modulus):
    p, x = at.p, at.rep[0]
    _, _, _, lhs = at.central_sums
    return lhs, 2 * pow(3, -1, p) * x * x * at.euler


def _thm33_tp(at, modulus, t):
    p = at.p
    return t, (1 + 4 * _parity_sign(p)) * p * p


def _thm33_tpm1(at, modulus, t):
    p = at.p
    rhs = _parity_sign(p) * (2 * p + pow(2, p, modulus) - 2 + at.pb * at.pb)
    return t, rhs


def _thm33_half(c, at, modulus, t):
    # t_{(p-1)/2} for c = 1, t_{(p+1)/2} for c = 3
    p = at.p
    return t, at.pb - c * p + pow(2, p - 1, modulus) - 1


def _thm33_tquarter(at, modulus, t):
    p = at.p
    lhs = t % p
    binv = pow(comb((p - 1) // 2, (p - 3) // 4), -1, p)
    if lhs == binv:
        return lhs, binv, "+"
    if lhs == -binv % p:
        return lhs, -binv, "-"
    return lhs, binv, None


# ---------------------------------------------------------------------------
# registry

class Identity(NamedTuple):
    """Names of `identities` verifiers, run in turn on n <= max_n, or on each
    swept prime p when max_n is None."""

    verifiers: tuple[str, ...]
    max_n: Optional[int] = None


class CheckDef(NamedTuple):
    name: str
    status: Status
    runner: Union[Lift, AtPrime, Identity]


def _defs() -> dict:
    theorem, lemma, conjecture = Status.THEOREM, Status.LEMMA, Status.CONJECTURE
    a, aprime = SeqId.A, SeqId.APRIME
    # the AtPrime rows' reads, (S, c, d) for S_n at n = (p + c) / d
    half, t = (aprime, -1, 2), SeqId.T
    rows = [
        ("beukers_a", theorem, Lift(a, -1, 0)),
        ("beukers_aprime", theorem, Lift(aprime, -1, 0)),
        ("liu_a", theorem, Lift(a, 0, 1, weight=(1, -17, 18))),
        ("liu_aprime", theorem, Lift(aprime, 0, 1, weight=(1, -2, 3))),
        ("eq1.3", theorem, AtPrime(2, _eq13, p_above=3, seq=half)),
        ("thm2.1i", theorem, AtPrime(3, _thm21i, klass=3, seq=half)),
        ("thm2.1ii", theorem,
         AtPrime(3, _thm21ii, klass=1, seq=half, central=True, euler=True)),
        ("lemma2.3", lemma, AtPrime(3, _lemma23, seq=half, central=True)),
        ("lemma2.4", lemma, AtPrime(3, _lemma24, central=True)),
        ("lemma2.5", lemma, AtPrime(3, _lemma25, p_above=3)),
        ("lemma2.6", lemma, AtPrime(3, _lemma26, klass=1, euler=True)),
        ("lemma2.7a", lemma, AtPrime(2, _lemma27a, p_above=3, central=True)),
        ("lemma2.7b", lemma, AtPrime(1, _lemma27b, p_above=3, central=True, euler=True)),
        ("conj2.1", conjecture, AtPrime(1, _conj21, klass=1, central=True, euler=True)),
        ("conj2.2", conjecture, Lift(aprime, -1, 1, weight=(2, 1, 3), difference=True)),
        ("conj2.3", conjecture, Lift(aprime, 0, 2, weight=(1, -2, 1), bracket=True)),
        ("conj2.4", conjecture,
         Lift(a, 0, 2, p_above=5, weight=(1, -17, 6), bracket=True, difference=True)),
        ("conj2.5", conjecture, Lift(a, -1, 1, weight=(17, -1, 18), difference=True)),
        ("thm3.3_tp", theorem, AtPrime(3, _thm33_tp, seq=(t, 0, 1))),
        ("thm3.3_tpm1", theorem, AtPrime(2, _thm33_tpm1, seq=(t, -1, 1))),
        ("thm3.3_thalf", theorem, AtPrime(2, partial(_thm33_half, 1), seq=(t, -1, 2))),
        ("thm3.3_thalfp1", theorem, AtPrime(2, partial(_thm33_half, 3), seq=(t, 1, 2))),
        ("thm3.3_tquarter", theorem, AtPrime(1, _thm33_tquarter, klass=3, seq=(t, -3, 4))),
        ("id_lemma2.1", theorem, Identity(("lemma21_identity", "order4_certificate"), 100)),
        ("id_eq2.1", theorem, Identity(("eq21_identity",), 99)),
        ("id_eq2.2", theorem, Identity(("eq22_congruence",))),
        ("id_eq3.1", theorem, Identity(("eq31_identity",), 30)),
        ("id_thm3.1", theorem, Identity(("thm31_dual",), 200)),
        ("id_thm3.2", theorem, Identity(("thm32_identity", "order5_certificate"), 40)),
        ("id_gf", theorem, Identity(("gf_oracle",), 15)),
    ]
    return {name: CheckDef(name, *rest) for name, *rest in rows}


CHECKS = _defs()


# ---------------------------------------------------------------------------
# execution

def _identity_result(name: str, p: Optional[int], verifiers, *args) -> CheckResult:
    """Runs the verifiers in turn on args and records the first failing
    outcome, or the first outcome when all hold.  Each is looked up in
    identities when it runs, so a wrapped or patched verifier is the one
    called."""
    outs = []
    for v in verifiers:
        outs.append(getattr(identities, v)(*args))
        if not outs[-1].ok:
            break
    out = outs[-1] if not outs[-1].ok else outs[0]
    return CheckResult(
        name, p, out.n, None, out.modulus, out.lhs, out.rhs,
        "pass" if out.ok else "fail",
    )


def _size_cap() -> int:
    return int(os.environ.get(SIZE_CAP_ENV, DEFAULT_SIZE_CAP))


def _e_max(rows, r_list) -> int:
    """The largest precision the rows at one prime need: 3r + extra for a
    Lift row, e for an AtPrime row, 2 for the per-prime identity, which
    reads the task's table mod p^2."""
    return max([3 * r + row.extra for row in rows if isinstance(row, Lift) for r in r_list]
               + [row.e for row in rows if isinstance(row, AtPrime)]
               + [2 for row in rows if isinstance(row, Identity)], default=1)


def _prime_reads(rows, p: int, m_list, r_list, cap: int) -> dict:
    """The read set of a prime task: {kind: indices} for every value of a
    kind of _KINDS that the rows read at p.  These are A or A' at a Lift
    row's indices for each m and r (Lift.reads), A' or t at an AtPrime row's
    (AtPrime.reads), and, at (p - 1)/2, the harmonic pair (SeqId.H) where a
    weighted Lift row or an AtPrime row that reads .euler applies, and the
    central sums (CENTRAL) where one that reads .central applies.  A row, or
    an (m, r) of a Lift row, that is skipped at p reads nothing."""
    half, reads = (p - 1) // 2, {}
    for row in rows:
        if isinstance(row, Lift):
            ns = set()
            for m, r in product(m_list, r_list):
                try:
                    ns.update(row.reads(p, m, r, cap))
                except SkipCheck:
                    pass
            if ns:
                reads.setdefault(row.sid, set()).update(ns)
                if row.weight:
                    reads.setdefault(SeqId.H, set()).add(half)
        elif isinstance(row, AtPrime):
            with suppress(SkipCheck):
                for kind, n in row.reads(p, p % 4):
                    reads.setdefault(kind, set()).add(n)
                for kind in (CENTRAL,) * row.central + (SeqId.H,) * row.euler:
                    reads.setdefault(kind, set()).add(half)
    return reads


def _prime_results(names: Sequence[str], p: int, m_list, r_list,
                   handed: Optional[dict] = None, reads: Optional[dict] = None,
                   ) -> list[CheckResult]:
    """The records of the named prime-indexed rows at one prime, each a
    verdict or a skip, in the given row order, then m and r in list order
    for a Lift row.  The rows share one _PrimeValues at the largest precision
    they need (_e_max), so each value is computed once; `handed` holds the
    values mod p^e_max that the sweep's exact pass read for them, and
    `reads` the task's read set (_prime_reads), which is collected here
    where it is not given.  Each sequence's walk ends here at its largest
    read below p^2 - 1 that was not handed (-1 for none); walk_or_pair pairs
    the reads at or above p^2 - 1.  A conj2.5 record also carries the
    prime's residue of c_m for the recovery."""
    rows = [(name, CHECKS[name].runner) for name in names]
    e_max = _e_max([row for _, row in rows], r_list)
    at = _PrimeValues(prime_info(p), e_max, handed)
    if reads is None:
        reads = _prime_reads([row for _, row in rows], p, m_list, r_list, at.cap)
    at.reach = {sid: max((n for n in left if n < p * p - 1), default=-1)
                for sid in (SeqId.A, SeqId.APRIME)
                if (left := {n for n in reads.get(sid, ()) if (sid, n) not in at.values})}
    out = []
    for name, row in rows:
        if isinstance(row, Identity):
            out.append(_identity_result(name, p, row.verifiers, p, at.table))
            continue
        lift = isinstance(row, Lift)
        for m, r in product(m_list, r_list) if lift else [(None, None)]:
            try:
                modulus, lhs, rhs, sign = row(at, m, r) if lift else row(at)
                res = CheckResult(name, p, m, r, modulus, lhs, rhs,
                                  "pass" if lhs == rhs else "fail", None, sign)
            except SkipCheck as sk:
                res = CheckResult(name, p, m, r, None, None, None, "skip", str(sk))
            if name == "conj2.5":
                res = res._replace(recovery=_cm_residue(at, res))
            out.append(res)
    return out


def fixed_range(name: str) -> bool:
    """Whether the check is an identity over a fixed n range, run without a prime."""
    row = CHECKS[name].runner
    return isinstance(row, Identity) and row.max_n is not None


def run_check(
    name: str,
    p: Optional[int] = None,
    m: Optional[int] = None,
    r: Optional[int] = None,
    max_n: Optional[int] = None,
) -> CheckResult:
    """Evaluate one registered check and return the structured outcome.  A
    prime-indexed row runs through the same per-prime evaluator as a sweep."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    row = CHECKS[name].runner
    if fixed_range(name):
        n = max_n if max_n is not None else row.max_n
        return _identity_result(name, None, row.verifiers, n)
    if isinstance(row, Lift) and (m is None or r is None):
        raise ValueError(f"check {name} requires parameters m and r")
    if p is None:
        raise ValueError(f"check {name} requires parameter p")
    return _prime_results([name], p, [m], [r])[0]


def _run_task(task) -> list[CheckResult]:
    """A task is (name,) for a fixed-range identity, or (names, p, m_list,
    r_list, handed, reads) for the prime-indexed rows at one prime."""
    if len(task) == 1:
        return [run_check(*task)]
    return _prime_results(*task)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset and cgroup cpusets narrow it), else the CPU
    count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_stripe(tasks, first: int, step: int):
    """(None, batches) for tasks[first::step], or (i, exc) for the first
    task i that raises exc, counted in the whole task list."""
    batches = []
    for i in range(first, len(tasks), step):
        try:
            batches.append(_run_task(tasks[i]))
        except Exception as exc:
            return i, exc
    return None, batches


def _stripe_child(tasks, first: int, step: int, pipe, out) -> None:
    """The body of a forked child: run tasks[first::step], pickle the
    outcome to out and exit, never returning into the parent's frames."""
    code = 1
    try:
        import pickle

        pipe.close()  # the parent's read end, so a dead parent breaks the write
        with out:
            out.write(pickle.dumps(_run_stripe(tasks, first, step)))
        code = 0
    finally:
        os._exit(code)


def _run_stripes(tasks, workers: int) -> list[list[CheckResult]]:
    """Each task's records, in task order, from `workers` stripes run at once.

    Stripe k is tasks[k::workers]: stripe 0 runs here, each other one in a
    forked child that pickles its outcome back through a pipe.  Each stripe
    stops at its first failing task, and the exception of the earliest
    failing task of all is raised, so a sweep fails as it does in-process.
    Every child is reaped before this returns, and killed first if it is
    still running (after an interrupt, or a sibling that died).  Fork copies
    only the calling thread, so the caller must run no other.
    """
    import pickle
    import signal

    children = {}  # pid: (its first task, the read end of its pipe)
    try:
        for first in range(1, workers):
            rfd, wfd = os.pipe()
            pipe = open(rfd, "rb")
            with open(wfd, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _stripe_child(tasks, first, workers, pipe, out)
            children[pid] = first, pipe
        outcomes = [_run_stripe(tasks, 0, workers)]
        for pid, (first, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise RuntimeError(
                    f"sweep worker {pid} (stripe {first}) exited with status {status}")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(i, exc) for i, exc in outcomes if i is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    batches = [None] * len(tasks)
    for first, (_, stripe) in enumerate(outcomes):
        batches[first::workers] = stripe
    return batches


def _prime_list(primes) -> list[int]:
    """The primes of a (lo, hi) range, or of an iterable, each once, ascending.
    A tuple of two ints is always a range: (5, 11) is 5, 7, 11, while
    [5, 11] is 5, 11."""
    if isinstance(primes, tuple) and len(primes) == 2 and all(
        isinstance(v, int) for v in primes
    ):
        return [pi.p for pi in primes_in_range(*primes)]
    return sorted({int(p) for p in primes})


def _plan_kinds(reads: dict, e: int) -> dict:
    """The plan of the exact pass of a sweep's prime tasks, from their read
    sets alone: plan[kind][n] lists the primes whose tasks are handed the
    value of `kind` at n (_walk_kinds).  reads[p] is the read set of p's
    task (_prime_reads), and e the tasks' precision (_e_max), at which the
    tasks' own walks are priced.  Where any prime reads the central sums,
    every harmonic read is one of them, so one walk carries both kinds.

    Each kind is walked to the read that minimises one cost estimate (see
    _Kind): the exact walk to it, one reduction for each read up to it, and
    the tasks' own routes for the reads above it.  Those routes are priced
    as the task takes them (walk_or_pair), by what handing each read saves:
    n + 1 terms for a read of n at or above p^2 - 1, the task's whole walk
    (_walk_cost, for A and A') or pass (own * p) at its top read below
    p^2 - 1, and nothing at the others.  So a sweep over many primes walks
    its reads of size m p exactly, and a lone large prime, or a read of
    size m p^2, keeps the task's routes."""
    if any(CENTRAL in got for got in reads.values()):
        reads = {p: {CENTRAL if kind is SeqId.H else kind: ns for kind, ns in got.items()}
                 for p, got in reads.items()}
    plan = {}
    for kind, row in _KINDS.items():
        # saved[p, n]: what handing the read n saves p's task, whose own
        # routes pair a read at or above p^2 - 1 and take one walk or pass
        # to the top read below it
        saved = {}
        for p, got in reads.items():
            ns = sorted(got.get(kind, ()))
            saved.update(((p, n), 0.0 if n < p * p - 1 else n + 1.0) for n in ns)
            below = [n for n in ns if n < p * p - 1]
            if below:
                own = row.own * p if row.own else _walk_cost(kind, below[-1], p, e)
                saved[p, below[-1]] = own
        total = sum(saved.values())
        best, bound, reduced = total, -1, 0.0
        events = sorted((n, p) for p, n in saved)
        for i, (n, p) in enumerate(events):
            total -= saved[p, n]
            reduced += 1 + 2 * row.reduce_growth * n / 1000
            if i + 1 < len(events) and events[i + 1][0] == n:
                continue
            cost = (n + 1) * (1 + row.growth * n / 1000) + reduced + total
            if cost < best:
                best, bound = cost, n
        readers: dict[int, list[int]] = {}
        for n, p in events:
            if n <= bound:
                readers.setdefault(n, []).append(p)
        if readers:
            plan[kind] = readers
    return plan


def _walk_kinds(plan: dict, e: int) -> dict:
    """{p: {(kind, n): value mod p^e}} for each prime p of plan[kind][n], from
    one exact walk of each planned kind (_KINDS), in increasing n, to its
    largest read, each step reduced at the primes that read it (and, for a
    harmonic kind, at those whose p // 4 it is)."""
    out: dict = {}
    for kind, readers in plan.items():
        row, stops = _KINDS[kind], {}
        for n, ps in readers.items():
            for p in ps:
                for k in (p // 4, n) if row.quarter else (n,):
                    stops.setdefault(k, []).append(p)
        for k, step in enumerate(islice(row.walk(), max(readers) + 1)):
            for p in stops.get(k, ()):
                row.reduce(out.setdefault(p, {}), kind, step, k, p, e)
    return out


def sweep(
    names: Iterable[str],
    primes,
    m_list: Sequence[int] = (1,),
    r_list: Sequence[int] = (1,),
    jobs: int = 1,
) -> list[CheckResult]:
    """Run the cross product of checks, primes, and parameters.

    primes is a (lo, hi) range or an iterable of primes, each run once; a
    tuple of two ints is read as a range, so pass [5, 11] for just 5 and 11.
    Each fixed-range identity is one task; then each prime is one task,
    which covers every selected Lift, AtPrime and per-prime Identity row and
    every (m, r).  Results come back in canonical order (registry order,
    then p, then m and r in list order), independent of the worker count.
    At most min(jobs, usable CPUs, tasks) workers run, this process and
    one forked child per worker after the first (see _run_stripes).
    """
    wanted = set(names)
    unknown = wanted - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    plist = _prime_list(primes)
    m_list, r_list = tuple(m_list), tuple(r_list)

    fixed = [name for name in CHECKS if name in wanted and fixed_range(name)]
    at_prime = tuple(name for name in CHECKS if name in wanted and name not in fixed)
    # the fixed-range identities are the largest tasks, so they go first
    tasks = [(name,) for name in fixed]
    if at_prime:
        rows, cap = [CHECKS[name].runner for name in at_prime], _size_cap()
        reads = {p: _prime_reads(rows, p, m_list, r_list, cap) for p in plist}
        e = _e_max(rows, r_list)
        handed = _walk_kinds(_plan_kinds(reads, e), e)
        tasks.extend((at_prime, p, m_list, r_list, handed.get(p, {}), reads[p]) for p in plist)

    workers = min(jobs, usable_cpus(), len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        batches = [_run_task(t) for t in tasks]
    else:
        batches = _run_stripes(tasks, workers)
    # a stable sort by registry position keeps each row's p, m, r order
    rank = {name: i for i, name in enumerate(CHECKS)}
    return sorted((res for batch in batches for res in batch), key=lambda res: rank[res.check])


# ---------------------------------------------------------------------------
# CRT recovery of the conj2.5 constants

class CrtAccumulator:
    """Combines residues modulo pairwise coprime primes into one value."""

    def __init__(self) -> None:
        self.residues: list[tuple[int, int]] = []
        self.modulus = 1
        self.value = 0

    def add(self, modulus: int, value: int) -> None:
        if gcd(modulus, self.modulus) != 1:
            raise ValueError(f"modulus {modulus} not coprime to {self.modulus}")
        t = (value - self.value) * pow(self.modulus, -1, modulus) % modulus
        self.value += self.modulus * t
        self.modulus *= modulus
        self.residues.append((modulus, value % modulus))

    def symmetric(self) -> int:
        v = self.value % self.modulus
        return v - self.modulus if 2 * v > self.modulus else v


def _cm_residue(at: _PrimeValues, res: CheckResult) -> Union[int, str]:
    """c_m mod p from a conj2.5 record at one prime (see recover_cm), or the
    reason p gives no residue.  The record's lhs is the difference
    A_hi - A_lo mod p^(3r+1): that fixes its divisibility by p^(3r) and the
    quotient mod p.  No weight is read, so this stays a route to c_m apart
    from the row's closed form.  A skipped record gives its own reason,
    except that p | m is reported ahead of a size-cap skip."""
    p, m, r = at.p, res.m, res.r
    skip = res.skip_reason or ""
    cap = skip.startswith("size cap")
    try:
        _require(not skip or cap, skip)
        _require(m % p != 0, "p divides m")
        _require(not cap, skip)
        b = at.b3
        _require(b != 0, "B_{p-3} = 0 (mod p)")
        q, rem = divmod(res.lhs, p ** (3 * r))
        _require(rem == 0, f"difference not divisible by p^{3 * r}")
    except SkipCheck as sk:
        return str(sk)
    return q * 3 * pow(2 * m ** 3 % p * b % p, -1, p) % p


def cm_recovery(
    m: int,
    r: int,
    residues: Iterable[tuple[int, Union[int, str]]],
) -> tuple[int, dict]:
    """CRT-combines per-prime residues of c_m, given as (p, residue or skip
    reason) pairs, e.g. the `recovery` of a sweep's conj2.5 records, to the
    symmetric representative, with a report."""
    acc = CrtAccumulator()
    skipped: list[tuple[int, str]] = []
    for p, got in residues:
        if isinstance(got, str):
            skipped.append((p, got))
        else:
            acc.add(p, got)
    value = acc.symmetric()
    report = {
        "m": m,
        "r": r,
        "residues": list(acc.residues),
        "modulus": acc.modulus,
        "value": value,
        "odd": value % 2 != 0,
        "skipped": skipped,
    }
    return value, report


def recover_cm(
    m: int,
    primes,
    r: int = 1,
) -> tuple[int, dict]:
    """Per-prime recovery of the constant c_m from the conj2.5 row,

        A_{mp^r - 1} - A_{mp^(r-1) - 1} = (2/3) m^3 c_m p^(3r) B_{p-3}  (mod p^(3r+1)),

    CRT-combined by cm_recovery to the symmetric representative.  primes is
    read as in sweep: a tuple of two ints is a (lo, hi) range."""
    _require_mr(m, r)
    results = sweep(["conj2.5"], primes, [m], [r])
    return cm_recovery(m, r, [(res.p, res.recovery) for res in results])
