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
from .modring import (
    PrimeInfo,
    prime_info,
    primes_in_range,
    reduce_rat,
    residue,
    to_residue,
)
from .sequences import (
    SeqId,
    apery_mod,
    c_coeffs,
    factorial_table,
    seq_mod,
)
from .special import (
    bernoulli,
    euler_mod,
    gamma_quarter_closed_form,
    padic_gamma,
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
    eq31_trials: int = 20
    eq31_seed: int = 20240811


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
    runner: Callable
    takes_mr: bool = False


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise SkipCheck(reason)


def _cap(index: int, cfg: CheckConfig) -> None:
    _require(index <= cfg.size_cap, f"size cap: index {index} exceeds {cfg.size_cap}")


def _parity_sign(p: int) -> int:
    return -1 if (p - 1) // 2 % 2 else 1


# ---------------------------------------------------------------------------
# shared kernels

def _half_sum_central_cubed(p: int, e: int, weight: str) -> int:
    """sum_{k=1}^{(p-1)/2} binom(2k,k)^3 / 64^k * w_k mod p^e.

    w_k is O_k, O2_k or O_k^2 with O_k = sum 1/(2i-1), O2_k = sum 1/(2i-1)^2.
    For the full-range statements summed to p-1: a term with (p-1)/2 < k < p
    carries p^3 from the cubed central binomial and at worst p^-1 (w = O) or
    p^-2 (w = O2, O^2) from the weight, so those terms vanish at e <= 2 and
    e <= 1 respectively and the half sum already equals the full sum.
    """
    m = p ** e
    c = 1
    inv64 = pow(64, -1, m)
    w64 = 1
    o = o2 = 0
    acc = 0
    for k in range(1, (p - 1) // 2 + 1):
        c = c * 2 * (2 * k - 1) % m * pow(k, -1, m) % m
        w64 = w64 * inv64 % m
        inv = pow(2 * k - 1, -1, m)
        o = (o + inv) % m
        o2 = (o2 + inv * inv) % m
        if weight == "O":
            w = o
        elif weight == "O2":
            w = o2
        else:
            w = o * o % m
        acc = (acc + c * c % m * c % m * w64 % m * w) % m
    return acc


def _gamma_quarter_pow4(p: int, e: int, cfg: CheckConfig) -> int:
    """Gamma_p(1/4)^4 mod p^e, from the product definition when affordable."""
    if p ** e <= cfg.gamma_step_limit:
        g = padic_gamma(Fraction(1, 4), p, e, cfg.gamma_step_limit).value
        return (g ** 4).value
    if e > 3:
        raise SkipCheck(f"gamma cost cap: {p}^{e} exceeds {cfg.gamma_step_limit} steps")
    return gamma_quarter_closed_form(p).value % p ** e


# ---------------------------------------------------------------------------
# congruence runners: each returns (modulus, lhs, rhs, sign)

def _run_beukers_a(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r - 1, m * p ** (r - 1) - 1
    _cap(hi, cfg)
    e = 3 * r
    return p ** e, apery_mod(SeqId.A, hi, p, e), apery_mod(SeqId.A, lo, p, e), None


def _run_beukers_aprime(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r - 1, m * p ** (r - 1) - 1
    _cap(hi, cfg)
    e = 3 * r
    return (
        p ** e,
        apery_mod(SeqId.APRIME, hi, p, e),
        apery_mod(SeqId.APRIME, lo, p, e),
        None,
    )


def _run_liu_a(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r, m * p ** (r - 1)
    _cap(hi, cfg)
    e = 3 * r + 1
    modulus = p ** e
    corr = Fraction(2, 3) * c_coeffs(m)[0] * p ** (3 * r) * bernoulli(p - 3)
    rhs = (apery_mod(SeqId.A, lo, p, e) + reduce_rat(corr, p, e).value) % modulus
    return modulus, apery_mod(SeqId.A, hi, p, e), rhs, None


def _run_liu_aprime(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r, m * p ** (r - 1)
    _cap(hi, cfg)
    e = 3 * r + 1
    modulus = p ** e
    corr = Fraction(1, 3) * c_coeffs(m)[1] * p ** (3 * r) * bernoulli(p - 3)
    rhs = (apery_mod(SeqId.APRIME, lo, p, e) + reduce_rat(corr, p, e).value) % modulus
    return modulus, apery_mod(SeqId.APRIME, hi, p, e), rhs, None


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
    ep3 = euler_mod(p - 3, p).value
    s = _half_sum_central_cubed(p, 1, "Osq")
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
    inv64 = pow(64, -1, modulus)
    c = 1
    w64 = 1
    o = o2 = 0
    acc = 1
    for k in range(1, (p - 1) // 2 + 1):
        c = c * 2 * (2 * k - 1) % modulus * pow(k, -1, modulus) % modulus
        w64 = w64 * inv64 % modulus
        inv = pow(2 * k - 1, -1, modulus)
        o = (o + inv) % modulus
        o2 = (o2 + inv * inv) % modulus
        bracket = (1 - p * o + p * p * inv2 % modulus * ((o * o - 3 * o2) % modulus)) % modulus
        acc = (acc + c * c % modulus * c % modulus * w64 % modulus * bracket) % modulus
    return modulus, lhs, acc, None


def _run_lemma24(pi, m, r, cfg):
    p = pi.p
    modulus = p ** 3
    table = factorial_table(p, 3)
    inv64 = residue(64, p, 3).inv()
    acc = residue(0, p, 3)
    w = residue(1, p, 3)
    for k in range(p):
        if k:
            w = w * inv64
        acc = acc + to_residue(table.binomial(2 * k, k) ** 3) * w
    if pi.klass == 1:
        x = pi.rep[0]
        rhs = (4 * x * x - 2 * p - p * p * pow(4 * x * x, -1, modulus)) % modulus
    else:
        b = comb((p - 3) // 2, (p - 3) // 4)
        rhs = -p * p * pow(4, -1, modulus) * pow(b, -2, modulus) % modulus
    return modulus, acc.value, rhs, None


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
    ep3 = euler_mod(p - 3, p).value
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
    lhs = _half_sum_central_cubed(p, 2, "O")
    if pi.klass == 1:
        rhs = 0
    else:
        g4 = _gamma_quarter_pow4(p, 2, cfg)
        rhs = -p * pow(12, -1, modulus) * g4 % modulus
    return modulus, lhs, rhs, None


def _run_lemma27b(pi, m, r, cfg):
    p = pi.p
    _require(p > 3, "requires p > 3")
    lhs = _half_sum_central_cubed(p, 1, "O2")
    g4 = _gamma_quarter_pow4(p, 1, cfg)
    if pi.klass == 1:
        rhs = pow(2, -1, p) * g4 * euler_mod(p - 3, p).value % p
    else:
        rhs = -pow(16, -1, p) * g4 % p
    return p, lhs, rhs, None


def _run_conj21(pi, m, r, cfg):
    _require(pi.klass == 1, "requires p = 1 (mod 4)")
    p = pi.p
    x = pi.rep[0]
    lhs = _half_sum_central_cubed(p, 1, "Osq")
    rhs = 2 * pow(3, -1, p) * x * x * euler_mod(p - 3, p).value % p
    return p, lhs, rhs, None


def _run_conj22(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r - 1, m * p ** (r - 1) - 1
    _cap(hi, cfg)
    e = 3 * r + 1
    modulus = p ** e
    wm = sum(
        comb(m, k) * comb(m - 1, k - 1) * comb(m + k - 1, k - 1)
        for k in range(1, m + 1)
    )
    lhs = (apery_mod(SeqId.APRIME, hi, p, e) - apery_mod(SeqId.APRIME, lo, p, e)) % modulus
    corr = Fraction(5, 3) * m ** 3 * wm * p ** (3 * r) * bernoulli(p - 3)
    return modulus, lhs, reduce_rat(corr, p, e).value, None


def _bernoulli_bracket(p: int) -> Fraction:
    return bernoulli(2 * p - 4) / (2 * p - 4) - 2 * bernoulli(p - 3) / (p - 3)


def _run_conj23(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    p = pi.p
    hi, lo = m * p ** r, m * p ** (r - 1)
    _cap(hi, cfg)
    e = 3 * r + 2
    modulus = p ** e
    corr = c_coeffs(m)[1] * p ** (3 * r) * _bernoulli_bracket(p)
    rhs = (apery_mod(SeqId.APRIME, lo, p, e) + reduce_rat(corr, p, e).value) % modulus
    return modulus, apery_mod(SeqId.APRIME, hi, p, e), rhs, None


def _run_conj24(pi, m, r, cfg):
    _require(pi.p > 5, "requires p > 5")
    p = pi.p
    hi, lo = m * p ** r, m * p ** (r - 1)
    _cap(hi, cfg)
    e = 3 * r + 2
    modulus = p ** e
    lhs = (apery_mod(SeqId.A, hi, p, e) - apery_mod(SeqId.A, lo, p, e)) % modulus
    corr = 2 * c_coeffs(m)[0] * p ** (3 * r) * _bernoulli_bracket(p)
    return modulus, lhs, reduce_rat(corr, p, e).value, None


def _run_conj25(pi, m, r, cfg):
    _require(pi.p > 3, "requires p > 3")
    _require(m in REFERENCE_CM, f"no tabulated reference c_m for m = {m}")
    p = pi.p
    hi, lo = m * p ** r - 1, m * p ** (r - 1) - 1
    _cap(hi, cfg)
    e = 3 * r + 1
    modulus = p ** e
    lhs = (apery_mod(SeqId.A, hi, p, e) - apery_mod(SeqId.A, lo, p, e)) % modulus
    corr = Fraction(2, 3) * m ** 3 * REFERENCE_CM[m] * p ** (3 * r) * bernoulli(p - 3)
    return modulus, lhs, reduce_rat(corr, p, e).value, None


def _run_thm33_tp(pi, m, r, cfg):
    p = pi.p
    modulus = p ** 3
    lhs = seq_mod(SeqId.T, p, p, 3).value
    rhs = (1 + 4 * _parity_sign(p)) * p * p % modulus
    return modulus, lhs, rhs, None


def _pb_pm1(p: int) -> int:
    return reduce_rat(p * bernoulli(p - 1), p, 2).value


def _run_thm33_tpm1(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, p - 1, p, 2).value
    pb = _pb_pm1(p)
    rhs = _parity_sign(p) * (2 * p + pow(2, p, modulus) - 2 + pb * pb) % modulus
    return modulus, lhs, rhs, None


def _run_thm33_thalf(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, (p - 1) // 2, p, 2).value
    rhs = (_pb_pm1(p) - p + pow(2, p - 1, modulus) - 1) % modulus
    return modulus, lhs, rhs, None


def _run_thm33_thalfp1(pi, m, r, cfg):
    p = pi.p
    modulus = p * p
    lhs = seq_mod(SeqId.T, (p + 1) // 2, p, 2).value
    rhs = (_pb_pm1(p) - 3 * p + pow(2, p - 1, modulus) - 1) % modulus
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
# identity runners

def _run_id_lemma21(cfg, max_n):
    out = identities.lemma21_identity(max_n)
    if not out.ok:
        return out
    cert = identities.order4_certificate(max_n)
    return out if cert.ok else cert


def _run_id_eq21(cfg, max_n):
    return identities.eq21_identity(max_n)


def _run_id_eq31(cfg, max_n):
    return identities.eq31_identity(max_n, cfg.eq31_trials, cfg.eq31_seed)


def _run_id_thm31(cfg, max_n):
    return identities.thm31_dual(max_n)


def _run_id_thm32(cfg, max_n):
    out = identities.thm32_identity(max_n)
    if not out.ok:
        return out
    cert = identities.order5_certificate(max_n)
    return out if cert.ok else cert


def _run_id_gf(cfg, max_n):
    return identities.gf_oracle(max_n)


def _run_id_eq22(pi, cfg):
    return identities.eq22_congruence(pi.p)


# ---------------------------------------------------------------------------
# registry

def _defs() -> dict:
    rows = [
        ("beukers_a", Status.THEOREM, "congruence", _run_beukers_a, True),
        ("beukers_aprime", Status.THEOREM, "congruence", _run_beukers_aprime, True),
        ("liu_a", Status.THEOREM, "congruence", _run_liu_a, True),
        ("liu_aprime", Status.THEOREM, "congruence", _run_liu_aprime, True),
        ("eq1.3", Status.THEOREM, "congruence", _run_eq13, False),
        ("thm2.1i", Status.THEOREM, "congruence", _run_thm21i, False),
        ("thm2.1ii", Status.THEOREM, "congruence", _run_thm21ii, False),
        ("lemma2.3", Status.LEMMA, "congruence", _run_lemma23, False),
        ("lemma2.4", Status.LEMMA, "congruence", _run_lemma24, False),
        ("lemma2.5", Status.LEMMA, "congruence", _run_lemma25, False),
        ("lemma2.6", Status.LEMMA, "congruence", _run_lemma26, False),
        ("lemma2.7a", Status.LEMMA, "congruence", _run_lemma27a, False),
        ("lemma2.7b", Status.LEMMA, "congruence", _run_lemma27b, False),
        ("conj2.1", Status.CONJECTURE, "congruence", _run_conj21, False),
        ("conj2.2", Status.CONJECTURE, "congruence", _run_conj22, True),
        ("conj2.3", Status.CONJECTURE, "congruence", _run_conj23, True),
        ("conj2.4", Status.CONJECTURE, "congruence", _run_conj24, True),
        ("conj2.5", Status.CONJECTURE, "congruence", _run_conj25, True),
        ("thm3.3_tp", Status.THEOREM, "congruence", _run_thm33_tp, False),
        ("thm3.3_tpm1", Status.THEOREM, "congruence", _run_thm33_tpm1, False),
        ("thm3.3_thalf", Status.THEOREM, "congruence", _run_thm33_thalf, False),
        ("thm3.3_thalfp1", Status.THEOREM, "congruence", _run_thm33_thalfp1, False),
        ("thm3.3_tquarter", Status.THEOREM, "congruence", _run_thm33_tquarter, False),
        ("id_lemma2.1", Status.THEOREM, "identity", _run_id_lemma21, False),
        ("id_eq2.1", Status.THEOREM, "identity", _run_id_eq21, False),
        ("id_eq2.2", Status.THEOREM, "prime_identity", _run_id_eq22, False),
        ("id_eq3.1", Status.THEOREM, "identity", _run_id_eq31, False),
        ("id_thm3.1", Status.THEOREM, "identity", _run_id_thm31, False),
        ("id_thm3.2", Status.THEOREM, "identity", _run_id_thm32, False),
        ("id_gf", Status.THEOREM, "identity", _run_id_gf, False),
    ]
    return {
        name: CheckDef(name, status, kind, runner, takes_mr)
        for name, status, kind, runner, takes_mr in rows
    }


CHECKS = _defs()


# ---------------------------------------------------------------------------
# execution

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
        out = cd.runner(cfg, max_n if max_n is not None else DEFAULT_IDENTITY_RANGES[name])
        return CheckResult(
            name, None, out.n, None, out.modulus, out.lhs, out.rhs,
            "pass" if out.ok else "fail",
        )

    pi = p if isinstance(p, PrimeInfo) else prime_info(p)

    if cd.kind == "prime_identity":
        out = cd.runner(pi, cfg)
        return CheckResult(
            name, pi.p, out.n, None, out.modulus, out.lhs, out.rhs,
            "pass" if out.ok else "fail",
        )

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
    """Per-prime recovery of the constant c_m from

        A_{mp^r - 1} - A_{mp^(r-1) - 1} = (2/3) m^3 c_m p^(3r) B_{p-3}  (mod p^(3r+1)),

    CRT-combined to the symmetric representative.  The difference is only
    needed mod p^(3r+1): that fixes its divisibility by p^(3r) and the
    quotient mod p."""
    cfg = cfg or default_config()
    acc = CrtAccumulator()
    skipped: list[tuple[int, str]] = []
    for p in _prime_list(primes):
        if p <= 3:
            skipped.append((p, "requires p > 3"))
            continue
        if m % p == 0:
            skipped.append((p, "p divides m"))
            continue
        hi = m * p ** r - 1
        if hi > cfg.size_cap:
            skipped.append((p, f"size cap: index {hi} exceeds {cfg.size_cap}"))
            continue
        b = reduce_rat(bernoulli(p - 3), p, 1).value
        if b == 0:
            skipped.append((p, "B_{p-3} = 0 (mod p)"))
            continue
        e = 3 * r + 1
        lo = m * p ** (r - 1) - 1
        diff = (apery_mod(SeqId.A, hi, p, e) - apery_mod(SeqId.A, lo, p, e)) % p ** e
        q, rem = divmod(diff, p ** (3 * r))
        if rem:
            skipped.append((p, f"difference not divisible by p^{3 * r}"))
            continue
        c = q * 3 * pow(2 * m ** 3 % p * b % p, -1, p) % p
        acc.add(p, c)
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
