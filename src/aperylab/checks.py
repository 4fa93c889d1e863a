"""Executable registry of every congruence and identity check, plus sweeps.

Each check computes both sides of one stated congruence over Z/p^e Z and
records a structured CheckResult.  Conjecture-status checks never abort a
sweep; a failing instance is reported as a refutation.  Sweeps are pure and
deterministic: worker count never changes verdicts or ordering.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Iterable, Optional, Sequence, Union

from . import identities
from .modring import PrimeInfo, prime_info, primes_in_range, reduce_rat
from .sequences import (
    SeqId,
    apery_mod,
    c_coeffs,
    factorial_table,
    seq_mod,
)
from .special import (
    bernoulli_mod_p2,
    euler_pm3_mod,
    gamma_quarter_closed_form,
    padic_gamma,
    pb_pm1_mod,
)

SIZE_CAP_ENV = "APERY_LAB_SIZE_CAP"
DEFAULT_SIZE_CAP = 100_000

# Tabulated reference constants for the conj2.5 family, m = 1..6.
REFERENCE_CM = {1: 1, 2: 1, 3: -17, 4: -703, 5: -21499, 6: -628145}

DEFAULT_IDENTITY_RANGES = {
    "id_lemma2.1": 100,
    "id_eq2.1": 99,
    "id_eq3.1": 30,
    "id_thm3.1": 200,
    "id_thm3.2": 40,
    "id_gf": 15,
}


class Status(str, Enum):
    THEOREM = "theorem"
    LEMMA = "lemma"
    CONJECTURE = "conjecture"


@dataclass(frozen=True)
class CheckConfig:
    size_cap: int = DEFAULT_SIZE_CAP
    gamma_step_limit: int = 2_000_000


def default_config() -> CheckConfig:
    return CheckConfig(size_cap=int(os.environ.get(SIZE_CAP_ENV, DEFAULT_SIZE_CAP)))


class SkipCheck(Exception):
    """Raised inside a runner when the check does not apply or exceeds a cap."""


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class CheckDef:
    name: str
    status: Status
    kind: str  # "congruence" | "identity" | "prime_identity"
    # congruence: a callable (pi, m, r, cfg) -> (modulus, lhs, rhs, sign);
    # identity kinds: the names of the identities verifiers to run in turn
    runner: Union[Callable, tuple[str, ...]]

    @property
    def takes_mr(self) -> bool:
        return isinstance(self.runner, Lift)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise SkipCheck(reason)


def _parity_sign(p: int) -> int:
    return -1 if (p - 1) // 2 % 2 else 1


# ---------------------------------------------------------------------------
# shared kernels

def _central_cubed_terms(p: int, e: int):
    """(binom(2k,k)^3 / 64^k, O_k, O2_k) mod p^e for k = 1..(p-1)/2, where
    O_k = sum_{i<=k} 1/(2i-1) and O2_k = sum_{i<=k} 1/(2i-1)^2.

    For the full-range statements summed to p-1: a term with (p-1)/2 < k < p
    carries p^3 from the cubed central binomial and at worst p^-1 (weight O)
    or p^-2 (weights O2, O^2), so those terms vanish at e <= 2 and e <= 1
    respectively and the half sum already equals the full sum.
    """
    m = p ** e
    inv64 = pow(64, -1, m)
    c = w64 = 1
    o = o2 = 0
    for k in range(1, (p - 1) // 2 + 1):
        c = c * 2 * (2 * k - 1) % m * pow(k, -1, m) % m
        w64 = w64 * inv64 % m
        inv = pow(2 * k - 1, -1, m)
        o = (o + inv) % m
        o2 = (o2 + inv * inv) % m
        yield c * c % m * c % m * w64 % m, o, o2


def _gamma_quarter_pow4(p: int, e: int, cfg: CheckConfig) -> int:
    """Gamma_p(1/4)^4 mod p^e, from the product definition when affordable."""
    if p ** e <= cfg.gamma_step_limit:
        g = padic_gamma(Fraction(1, 4), p, e, cfg.gamma_step_limit).value
        return (g ** 4).value
    if e > 3:
        raise SkipCheck(f"gamma cost cap: {p}^{e} exceeds {cfg.gamma_step_limit} steps")
    return gamma_quarter_closed_form(p).value % p ** e


# ---------------------------------------------------------------------------
# m, r lift congruences: one data row each

def _no_correction(m: int) -> int:
    return 0


def _bernoulli_p3(p: int) -> int:
    return bernoulli_mod_p2(p - 3, p)


def _bernoulli_bracket(p: int) -> int:
    """B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3) mod p^2."""
    m = p * p
    return (
        bernoulli_mod_p2(2 * p - 4, p) * pow(2 * p - 4, -1, m)
        - 2 * bernoulli_mod_p2(p - 3, p) * pow(p - 3, -1, m)
    ) % m


def _conj22_weight(m: int) -> Fraction:
    wm = sum(
        comb(m, k) * comb(m - 1, k - 1) * comb(m + k - 1, k - 1)
        for k in range(1, m + 1)
    )
    return Fraction(5, 3) * m ** 3 * wm


def _reference_cm(m: int) -> int:
    _require(m in REFERENCE_CM, f"no tabulated reference c_m for m = {m}")
    return REFERENCE_CM[m]


@dataclass(frozen=True)
class Lift:
    """A congruence between A_hi and A_lo (A or A' by `sid`) mod p^(3r + extra),
    where hi = m p^r + shift and lo = m p^(r-1) + shift, for p > p_above:

        A_hi = A_lo + C p^(3r),   or   A_hi - A_lo = C p^(3r) for a difference row,

    with C = weight(m) * bern(p); a zero weight means no correction.  The
    record is (A_hi, A_lo + C p^(3r)), or (A_hi - A_lo, C p^(3r)).  The
    weight is taken before the size cap, so a weight may skip (conj2.5 for an
    m without a tabulated c_m); bern(p) is taken only for a task that runs.
    Since extra <= 2 and every weight is p-integral for p > 3, C is needed
    only mod p^2: bern(p) is that residue.
    """

    sid: SeqId
    shift: int
    extra: int
    p_above: int = 3
    weight: Callable[[int], Union[int, Fraction]] = _no_correction
    bern: Callable[[int], int] = _bernoulli_p3
    difference: bool = False

    def _sides(self, p: int, m: int, r: int, cfg: CheckConfig) -> tuple[int, int, int]:
        """(e, lhs, base) with lhs = A_hi, base = A_lo mod p^e, or for a
        difference row lhs = A_hi - A_lo, base = 0.  Skips past the size cap."""
        hi, lo = m * p ** r + self.shift, m * p ** (r - 1) + self.shift
        _require(hi <= cfg.size_cap, f"size cap: index {hi} exceeds {cfg.size_cap}")
        e = 3 * r + self.extra
        a_hi, a_lo = apery_mod(self.sid, hi, p, e), apery_mod(self.sid, lo, p, e)
        if self.difference:
            return e, (a_hi - a_lo) % p ** e, 0
        return e, a_hi, a_lo

    def __call__(self, pi: PrimeInfo, m: int, r: int, cfg: CheckConfig):
        p = pi.p
        _require(p > self.p_above, f"requires p > {self.p_above}")
        w = self.weight(m)
        e, lhs, base = self._sides(p, m, r, cfg)
        modulus = p ** e
        corr = 0
        if w:
            corr = reduce_rat(w, p, 2).value * self.bern(p) * p ** (3 * r) % modulus
        return modulus, lhs, (base + corr) % modulus, None


# ---------------------------------------------------------------------------
# prime-indexed congruence runners: each returns (modulus, lhs, rhs, sign)

def _run_eq13(pi, m, r, cfg):
    # A'_1 = 3 is divisible by p but not p^2, so the statement needs p > 3.
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.APRIME, (p - 1) // 2, p, 2).value
    if pi.klass == 1:
        x = pi.rep[0]
        rhs = (4 * x * x - 2 * p) % modulus
    else:
        rhs = 0
    return modulus, lhs, rhs, None


def _run_thm21i(pi, m, r, cfg):
    _require(pi.klass == 3, "requires p = 3 (mod 4)")
    p = pi.p
    modulus = p ** 3
    lhs = seq_mod(SeqId.APRIME, (p - 1) // 2, p, 3).value
    if p == 3:
        # p^2/3 = 3 exactly; 3 is not invertible mod 27
        rhs = 3 % modulus
    else:
        b = comb((p - 3) // 2, (p - 3) // 4)
        rhs = p * p * pow(3, -1, modulus) % modulus * pow(b, -2, modulus) % modulus
    return modulus, lhs, rhs, None


def _run_thm21ii(pi, m, r, cfg):
    _require(pi.klass == 1, "requires p = 1 (mod 4)")
    p = pi.p
    modulus = p ** 3
    x = pi.rep[0]
    ep3 = euler_pm3_mod(p)
    s = sum(t * o * o for t, o, _ in _central_cubed_terms(p, 1)) % p
    lhs = seq_mod(SeqId.APRIME, (p - 1) // 2, p, 3).value
    rhs = (
        4 * x * x
        - 2 * p
        - p * p * pow(4 * x * x, -1, modulus)
        + 3 * p * p * x * x * ep3
        + p * p * pow(2, -1, modulus) * s
    ) % modulus
    return modulus, lhs, rhs, None


def _run_lemma23(pi, m, r, cfg):
    p = pi.p
    modulus = p ** 3
    lhs = seq_mod(SeqId.APRIME, (p - 1) // 2, p, 3).value
    inv2 = pow(2, -1, modulus)
    rhs = 1 + sum(
        t * (1 - p * o + p * p * inv2 * (o * o - 3 * o2))
        for t, o, o2 in _central_cubed_terms(p, 3)
    )
    return modulus, lhs, rhs % modulus, None


def _run_lemma24(pi, m, r, cfg):
    p = pi.p
    modulus = p ** 3
    table = factorial_table(p, 3)
    table.extend(2 * (p - 1))
    val, unit, inv = table.val, table.unit, table.inv_unit
    inv64 = pow(64, -1, modulus)
    acc, w = 0, 1
    for k in range(p):
        # binom(2k,k) = (2k)!/k!^2; once p divides it, its cube vanishes mod p^3
        if val[2 * k] == 2 * val[k]:
            u = unit[2 * k] * inv[k] % modulus * inv[k] % modulus
            acc += u * u % modulus * u % modulus * w
        w = w * inv64 % modulus
    if pi.klass == 1:
        x = pi.rep[0]
        rhs = (4 * x * x - 2 * p - p * p * pow(4 * x * x, -1, modulus)) % modulus
    else:
        b = comb((p - 3) // 2, (p - 3) // 4)
        rhs = -p * p * pow(4, -1, modulus) * pow(b, -2, modulus) % modulus
    return modulus, acc % modulus, rhs, None


def _run_lemma25(pi, m, r, cfg):
    p = pi.p
    _require(p > 3, "requires p > 3")
    _require(
        p ** 3 <= cfg.gamma_step_limit,
        f"gamma cost cap: {p}^3 exceeds {cfg.gamma_step_limit} steps",
    )
    modulus = p ** 3
    g = padic_gamma(Fraction(1, 4), p, 3, cfg.gamma_step_limit).value
    return modulus, (g ** 4).value, gamma_quarter_closed_form(p).value, None


def _run_lemma26(pi, m, r, cfg):
    _require(pi.klass == 1, "requires p = 1 (mod 4)")
    p = pi.p
    modulus = p ** 3
    x = pi.rep[0]
    ep3 = euler_pm3_mod(p)
    b = comb((p - 1) // 2, (p - 1) // 4)
    lhs = (
        pow(2, -(p - 1), modulus)
        * b % modulus * b % modulus
        * (1 - p * p * pow(2, -1, modulus) * ep3)
    ) % modulus
    rhs = (4 * x * x - 2 * p - p * p * pow(4 * x * x, -1, modulus)) % modulus
    return modulus, lhs, rhs, None


def _run_lemma27a(pi, m, r, cfg):
    p = pi.p
    _require(p > 3, "requires p > 3")
    modulus = p * p
    lhs = sum(t * o for t, o, _ in _central_cubed_terms(p, 2)) % modulus
    if pi.klass == 1:
        rhs = 0
    else:
        g4 = _gamma_quarter_pow4(p, 2, cfg)
        rhs = -p * pow(12, -1, modulus) * g4 % modulus
    return modulus, lhs, rhs, None


def _run_lemma27b(pi, m, r, cfg):
    p = pi.p
    _require(p > 3, "requires p > 3")
    lhs = sum(t * o2 for t, _, o2 in _central_cubed_terms(p, 1)) % p
    g4 = _gamma_quarter_pow4(p, 1, cfg)
    if pi.klass == 1:
        rhs = pow(2, -1, p) * g4 * euler_pm3_mod(p) % p
    else:
        rhs = -pow(16, -1, p) * g4 % p
    return p, lhs, rhs, None


def _run_conj21(pi, m, r, cfg):
    _require(pi.klass == 1, "requires p = 1 (mod 4)")
    p = pi.p
    x = pi.rep[0]
    lhs = sum(t * o * o for t, o, _ in _central_cubed_terms(p, 1)) % p
    rhs = 2 * pow(3, -1, p) * x * x * euler_pm3_mod(p) % p
    return p, lhs, rhs, None


def _run_thm33_tp(pi, m, r, cfg):
    p = pi.p
    modulus = p ** 3
    lhs = seq_mod(SeqId.T, p, p, 3).value
    rhs = (1 + 4 * _parity_sign(p)) * p * p % modulus
    return modulus, lhs, rhs, None


def _run_thm33_tpm1(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, p - 1, p, 2).value
    pb = pb_pm1_mod(p)
    rhs = _parity_sign(p) * (2 * p + pow(2, p, modulus) - 2 + pb * pb) % modulus
    return modulus, lhs, rhs, None


def _run_thm33_thalf(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, (p - 1) // 2, p, 2).value
    rhs = (pb_pm1_mod(p) - p + pow(2, p - 1, modulus) - 1) % modulus
    return modulus, lhs, rhs, None


def _run_thm33_thalfp1(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, (p + 1) // 2, p, 2).value
    rhs = (pb_pm1_mod(p) - 3 * p + pow(2, p - 1, modulus) - 1) % modulus
    return modulus, lhs, rhs, None


def _run_thm33_tquarter(pi, m, r, cfg):
    _require(pi.klass == 3, "requires p = 3 (mod 4)")
    p = pi.p
    lhs = seq_mod(SeqId.T, (p - 3) // 4, p, 1).value
    binv = pow(comb((p - 1) // 2, (p - 3) // 4), -1, p)
    if lhs == binv:
        return p, lhs, binv, "+"
    if lhs == -binv % p:
        return p, lhs, -binv % p, "-"
    return p, lhs, binv, None


# ---------------------------------------------------------------------------
# registry

def _defs() -> dict:
    theorem, lemma, conjecture = Status.THEOREM, Status.LEMMA, Status.CONJECTURE
    a, aprime, bracket = SeqId.A, SeqId.APRIME, _bernoulli_bracket
    rows = [
        ("beukers_a", theorem, "congruence", Lift(a, -1, 0)),
        ("beukers_aprime", theorem, "congruence", Lift(aprime, -1, 0)),
        ("liu_a", theorem, "congruence",
         Lift(a, 0, 1, weight=lambda m: Fraction(2, 3) * c_coeffs(m)[0])),
        ("liu_aprime", theorem, "congruence",
         Lift(aprime, 0, 1, weight=lambda m: Fraction(1, 3) * c_coeffs(m)[1])),
        ("eq1.3", theorem, "congruence", _run_eq13),
        ("thm2.1i", theorem, "congruence", _run_thm21i),
        ("thm2.1ii", theorem, "congruence", _run_thm21ii),
        ("lemma2.3", lemma, "congruence", _run_lemma23),
        ("lemma2.4", lemma, "congruence", _run_lemma24),
        ("lemma2.5", lemma, "congruence", _run_lemma25),
        ("lemma2.6", lemma, "congruence", _run_lemma26),
        ("lemma2.7a", lemma, "congruence", _run_lemma27a),
        ("lemma2.7b", lemma, "congruence", _run_lemma27b),
        ("conj2.1", conjecture, "congruence", _run_conj21),
        ("conj2.2", conjecture, "congruence",
         Lift(aprime, -1, 1, weight=_conj22_weight, difference=True)),
        ("conj2.3", conjecture, "congruence",
         Lift(aprime, 0, 2, weight=lambda m: c_coeffs(m)[1], bern=bracket)),
        ("conj2.4", conjecture, "congruence",
         Lift(a, 0, 2, p_above=5, weight=lambda m: 2 * c_coeffs(m)[0], bern=bracket,
              difference=True)),
        ("conj2.5", conjecture, "congruence",
         Lift(a, -1, 1, weight=lambda m: Fraction(2, 3) * m ** 3 * _reference_cm(m),
              difference=True)),
        ("thm3.3_tp", theorem, "congruence", _run_thm33_tp),
        ("thm3.3_tpm1", theorem, "congruence", _run_thm33_tpm1),
        ("thm3.3_thalf", theorem, "congruence", _run_thm33_thalf),
        ("thm3.3_thalfp1", theorem, "congruence", _run_thm33_thalfp1),
        ("thm3.3_tquarter", theorem, "congruence", _run_thm33_tquarter),
        # identity rows name their verifiers, run in turn on max_n (or p)
        ("id_lemma2.1", theorem, "identity", ("lemma21_identity", "order4_certificate")),
        ("id_eq2.1", theorem, "identity", ("eq21_identity",)),
        ("id_eq2.2", theorem, "prime_identity", ("eq22_congruence",)),
        ("id_eq3.1", theorem, "identity", ("eq31_identity",)),
        ("id_thm3.1", theorem, "identity", ("thm31_dual",)),
        ("id_thm3.2", theorem, "identity", ("thm32_identity", "order5_certificate")),
        ("id_gf", theorem, "identity", ("gf_oracle",)),
    ]
    return {name: CheckDef(name, *rest) for name, *rest in rows}


CHECKS = _defs()


# ---------------------------------------------------------------------------
# execution

def _identity_result(name: str, p: Optional[int], verifiers, arg: int) -> CheckResult:
    """Runs the verifiers in turn and records the first failing outcome, or
    the first outcome when all hold.  Each is looked up in identities when it
    runs, so a wrapped or patched verifier is the one called."""
    outs = []
    for v in verifiers:
        outs.append(getattr(identities, v)(arg))
        if not outs[-1].ok:
            break
    out = outs[-1] if not outs[-1].ok else outs[0]
    return CheckResult(
        name, p, out.n, None, out.modulus, out.lhs, out.rhs,
        "pass" if out.ok else "fail",
    )


def run_check(
    name: str,
    p: Union[int, PrimeInfo, None] = None,
    m: Optional[int] = None,
    r: Optional[int] = None,
    cfg: Optional[CheckConfig] = None,
    max_n: Optional[int] = None,
) -> CheckResult:
    """Evaluate one registered check and return the structured outcome."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    cd = CHECKS[name]
    cfg = cfg or default_config()

    if cd.kind == "identity":
        n = max_n if max_n is not None else DEFAULT_IDENTITY_RANGES[name]
        return _identity_result(name, None, cd.runner, n)

    pi = p if isinstance(p, PrimeInfo) else prime_info(p)

    if cd.kind == "prime_identity":
        return _identity_result(name, pi.p, cd.runner, pi.p)

    if cd.takes_mr and (m is None or r is None):
        raise ValueError(f"check {name} requires parameters m and r")
    try:
        modulus, lhs, rhs, sign = cd.runner(pi, m, r, cfg)
    except SkipCheck as sk:
        return CheckResult(
            name, pi.p, m if cd.takes_mr else None, r if cd.takes_mr else None,
            None, None, None, "skip", str(sk),
        )
    verdict = "pass" if lhs == rhs else "fail"
    return CheckResult(
        name, pi.p, m if cd.takes_mr else None, r if cd.takes_mr else None,
        modulus, lhs, rhs, verdict, None, sign,
    )


def _run_task(packed) -> CheckResult:
    (name, p, m, r, max_n), cfg = packed
    return run_check(name, p, m, r, cfg=cfg, max_n=max_n)


def _prime_list(primes) -> list[int]:
    if isinstance(primes, tuple) and len(primes) == 2 and all(
        isinstance(v, int) for v in primes
    ):
        return [pi.p for pi in primes_in_range(*primes)]
    out = []
    for p in primes:
        out.append(p.p if isinstance(p, PrimeInfo) else int(p))
    return sorted(out)


def sweep(
    names: Iterable[str],
    primes,
    m_list: Sequence[int] = (1,),
    r_list: Sequence[int] = (1,),
    jobs: int = 1,
    cfg: Optional[CheckConfig] = None,
    identity_ranges: Optional[dict] = None,
) -> list[CheckResult]:
    """Run the cross product of checks, primes, and parameters.

    Results come back in canonical order (registry order, then p, m, r),
    independent of the worker count.  At most min(jobs, CPU count, tasks)
    worker processes are started.
    """
    cfg = cfg or default_config()
    wanted = set(names)
    unknown = wanted - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    plist = _prime_list(primes)
    ranges = dict(DEFAULT_IDENTITY_RANGES)
    if identity_ranges:
        ranges.update(identity_ranges)

    tasks = []
    for name, cd in CHECKS.items():
        if name not in wanted:
            continue
        if cd.kind == "identity":
            tasks.append((name, None, None, None, ranges[name]))
        elif cd.kind == "prime_identity":
            tasks.extend((name, p, None, None, None) for p in plist)
        elif cd.takes_mr:
            tasks.extend(
                (name, p, m, r, None)
                for p in plist
                for m in m_list
                for r in r_list
            )
        else:
            tasks.extend((name, p, None, None, None) for p in plist)

    packed = [(t, cfg) for t in tasks]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [_run_task(pk) for pk in packed]
    chunk = max(1, len(packed) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, packed, chunksize=chunk))


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


def recover_cm(
    m: int,
    primes,
    r: int = 1,
    cfg: Optional[CheckConfig] = None,
) -> tuple[int, dict]:
    """Per-prime recovery of the constant c_m from the conj2.5 row,

        A_{mp^r - 1} - A_{mp^(r-1) - 1} = (2/3) m^3 c_m p^(3r) B_{p-3}  (mod p^(3r+1)),

    CRT-combined to the symmetric representative.  The difference is only
    needed mod p^(3r+1): that fixes its divisibility by p^(3r) and the
    quotient mod p."""
    cfg = cfg or default_config()
    row = CHECKS["conj2.5"].runner
    acc = CrtAccumulator()
    skipped: list[tuple[int, str]] = []
    for p in _prime_list(primes):
        try:
            _require(p > row.p_above, f"requires p > {row.p_above}")
            _require(m % p != 0, "p divides m")
            _, diff, _ = row._sides(p, m, r, cfg)
            b = row.bern(p) % p
            _require(b != 0, "B_{p-3} = 0 (mod p)")
            q, rem = divmod(diff, p ** (3 * r))
            _require(rem == 0, f"difference not divisible by p^{3 * r}")
        except SkipCheck as sk:
            skipped.append((p, str(sk)))
            continue
        acc.add(p, q * 3 * pow(2 * m ** 3 % p * b % p, -1, p) % p)
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
    if value % 2 == 0:
        # both symmetric candidates are reported rather than guessing parity
        alt = value - acc.modulus if value > 0 else value + acc.modulus
        report["alternatives"] = [value, alt]
    return value, report
