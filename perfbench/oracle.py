"""Independent checker for the JSON records of `aperylab verify`.

Nothing here imports aperylab.  The expected record set comes from this
file's own prime sieve and its copy of the catalogue's hypotheses; the
Apery numbers A_n, A'_n and t_n come from their three-term recurrences;
Bernoulli and Euler numbers come from sympy.  A record that does not match
counts as one failed operation.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt
from typing import Optional

# Size cap on exact indices and Gamma_p product steps, as the catalogue
# states them (README of the package).
SIZE_CAP = 2000
GAMMA_STEP_LIMIT = 2_000_000

# The paper's odd constants c_1..c_6 of conjecture 2.5.
PAPER_CM = {1: 1, 2: 1, 3: -17, 4: -703, 5: -21499, 6: -628145}

# Primes per run whose E_{p-3} is taken from sympy (the seed picks them);
# sympy's euler(n) costs up to 0.3 s at n = 600.
EULER_SAMPLE = 4


@dataclass(frozen=True)
class Hyp:
    """Hypotheses of one check: the modulus exponent as e = a*r + b (or a
    constant for checks without r), the least prime, the class mod 4, and the
    index that the size cap applies to (mp^r + shift), if any."""

    kind: str  # "congruence" | "identity" | "prime_identity"
    e: tuple[int, int] = (0, 0)
    min_p: int = 3
    klass: Optional[int] = None
    takes_mr: bool = False
    cap_shift: Optional[int] = None
    gamma_cap: bool = False


# Registry order is the canonical record order.
CATALOGUE = {
    "beukers_a": Hyp("congruence", (3, 0), 5, takes_mr=True, cap_shift=-1),
    "beukers_aprime": Hyp("congruence", (3, 0), 5, takes_mr=True, cap_shift=-1),
    "liu_a": Hyp("congruence", (3, 1), 5, takes_mr=True, cap_shift=0),
    "liu_aprime": Hyp("congruence", (3, 1), 5, takes_mr=True, cap_shift=0),
    "eq1.3": Hyp("congruence", (0, 2), 5),
    "thm2.1i": Hyp("congruence", (0, 3), klass=3),
    "thm2.1ii": Hyp("congruence", (0, 3), klass=1),
    "lemma2.3": Hyp("congruence", (0, 3)),
    "lemma2.4": Hyp("congruence", (0, 3)),
    "lemma2.5": Hyp("congruence", (0, 3), 5, gamma_cap=True),
    "lemma2.6": Hyp("congruence", (0, 3), klass=1),
    "lemma2.7a": Hyp("congruence", (0, 2), 5),
    "lemma2.7b": Hyp("congruence", (0, 1), 5),
    "conj2.1": Hyp("congruence", (0, 1), klass=1),
    "conj2.2": Hyp("congruence", (3, 1), 5, takes_mr=True, cap_shift=-1),
    "conj2.3": Hyp("congruence", (3, 2), 5, takes_mr=True, cap_shift=0),
    "conj2.4": Hyp("congruence", (3, 2), 7, takes_mr=True, cap_shift=0),
    "conj2.5": Hyp("congruence", (3, 1), 5, takes_mr=True, cap_shift=-1),
    "thm3.3_tp": Hyp("congruence", (0, 3)),
    "thm3.3_tpm1": Hyp("congruence", (0, 2)),
    "thm3.3_thalf": Hyp("congruence", (0, 2)),
    "thm3.3_thalfp1": Hyp("congruence", (0, 2)),
    "thm3.3_tquarter": Hyp("congruence", (0, 1), klass=3),
    "id_lemma2.1": Hyp("identity"),
    "id_eq2.1": Hyp("identity"),
    "id_eq2.2": Hyp("prime_identity", (0, 2)),
    "id_eq3.1": Hyp("identity"),
    "id_thm3.1": Hyp("identity"),
    "id_thm3.2": Hyp("identity"),
    "id_gf": Hyp("identity"),
}


@dataclass(frozen=True)
class Spec:
    """What one `verify` invocation was asked for."""

    checks: tuple[str, ...]
    primes: tuple[int, int]
    m: tuple[int, ...] = (1,)
    r: tuple[int, ...] = (1,)


def odd_primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [p for p in range(max(lo, 3), hi + 1) if sieve[p] and p % 2]


def expected_records(spec: Spec) -> list[tuple[tuple, bool]]:
    """[(key, is_skip)] in canonical order; key = (check, p, m, r)."""
    plist = odd_primes(*spec.primes)
    out = []
    for name, h in CATALOGUE.items():
        if name not in spec.checks:
            continue
        if h.kind == "identity":
            out.append(((name, None, None, None), False))
            continue
        for p in plist:
            base_skip = p < h.min_p or (h.klass is not None and p % 4 != h.klass)
            if h.gamma_cap:
                base_skip = base_skip or p ** 3 > GAMMA_STEP_LIMIT
            if not h.takes_mr:
                out.append(((name, p, None, None), base_skip))
                continue
            for m in spec.m:
                for r in spec.r:
                    skip = base_skip
                    if name == "conj2.5":
                        skip = skip or m not in PAPER_CM
                    skip = skip or m * p ** r + h.cap_shift > SIZE_CAP
                    out.append(((name, p, m, r), skip))
    return out


# ---------------------------------------------------------------------------
# independent values

class Values:
    """Exact values from recurrences and sympy, memoized across records."""

    def __init__(self) -> None:
        # Imported here, not at the top: a child's peak RSS on Linux starts
        # from its parent's at fork, so the timing process stays small.
        import sympy

        self._sympy = sympy
        self._a = [1, 5]
        self._ap = [1, 3]
        self._t = [1, 5]
        self._bern: dict[int, Fraction] = {}
        self._euler: dict[int, int] = {}

    def a(self, n: int) -> int:
        s = self._a
        while len(s) <= n:
            i = len(s) - 1
            q, rem = divmod((2 * i + 1) * (17 * i * i + 17 * i + 5) * s[i] - i ** 3 * s[i - 1],
                            (i + 1) ** 3)
            if rem:
                raise ArithmeticError(f"A recurrence not integral at {i + 1}")
            s.append(q)
        return s[n]

    def ap(self, n: int) -> int:
        s = self._ap
        while len(s) <= n:
            i = len(s) - 1
            q, rem = divmod((11 * i * i + 11 * i + 3) * s[i] + i * i * s[i - 1], (i + 1) ** 2)
            if rem:
                raise ArithmeticError(f"A' recurrence not integral at {i + 1}")
            s.append(q)
        return s[n]

    def t(self, n: int) -> int:
        s = self._t
        while len(s) <= n:
            i = len(s) - 1
            s.append((8 * i * i + 12 * i + 5) * s[i] - 4 * i * i * (2 * i + 1) ** 2 * s[i - 1])
        return s[n]

    def bernoulli(self, n: int) -> Fraction:
        if n not in self._bern:
            b = self._sympy.bernoulli(n)
            self._bern[n] = Fraction(int(b.p), int(b.q))
        return self._bern[n]

    def euler(self, n: int, p: int) -> int:
        if n not in self._euler:
            self._euler[n] = int(self._sympy.euler(n))
        return self._euler[n] % p


def _red(q: Fraction, p: int, e: int) -> int:
    m = p ** e
    if q.denominator % p == 0:
        raise ArithmeticError(f"{q} is not {p}-integral")
    return q.numerator * pow(q.denominator, -1, m) % m


def _x_of(p: int) -> int:
    """x > 0 odd with p = x^2 + 4y^2."""
    for y in range(1, isqrt(p // 4) + 1):
        x = isqrt(p - 4 * y * y)
        if x * x == p - 4 * y * y:
            return x
    raise ArithmeticError(f"{p} has no representation x^2 + 4y^2")


def _c_pair(m: int) -> tuple[int, int]:
    """(C_m, C'_m) from their defining sums."""
    big = sum(comb(m, k) ** 2 * comb(m + k, k) ** 2 * ((m - k) ** 2 - 2 * k * m * m)
              for k in range(m + 1))
    prime = sum(comb(m, k) ** 2 * comb(m + k, k)
                * (2 * (m - k) ** 2 - 3 * m * m * (m - k) - 2 * k * k * m)
                for k in range(m + 1))
    return big, prime


@lru_cache(maxsize=None)
def _half_sums(p: int, e: int) -> tuple[int, int, int]:
    """sum_{k=1}^{(p-1)/2} binom(2k,k)^3/64^k * w_k mod p^e for
    w = O_k, O2_k, O_k^2, with exact central binomials."""
    mod = p ** e
    inv64 = pow(64, -1, mod)
    c, w64 = 1, 1
    o = o2 = Fraction(0)
    acc = [0, 0, 0]
    for k in range(1, (p - 1) // 2 + 1):
        c = c * 2 * (2 * k - 1) // k
        w64 = w64 * inv64 % mod
        o += Fraction(1, 2 * k - 1)
        o2 += Fraction(1, (2 * k - 1) ** 2)
        base = c ** 3 * w64
        for i, w in enumerate((o, o2, o * o)):
            acc[i] = (acc[i] + base * _red(w, p, e)) % mod
    return acc[0], acc[1], acc[2]


def _gamma_quarter_pow4_mod_p(p: int) -> int:
    """Gamma_p(1/4)^4 mod p: (-1)^n (n-1)! for n = 1/4 mod p, n < p."""
    n = pow(4, -1, p)
    g = factorial(n - 1) % p
    if n % 2:
        g = -g % p
    return pow(g, 4, p)


def _sign(p: int) -> int:
    return -1 if (p - 1) // 2 % 2 else 1


def expected_sides(v: Values, name: str, p: int, m, r, with_euler: bool):
    """(lhs, rhs) of a congruence record, either side None where this checker
    has no independent route (or the route needs E_{p-3} outside the sample)."""
    lhs = rhs = None
    if name in ("beukers_a", "beukers_aprime", "conj2.2", "conj2.5"):
        seq = v.a if name in ("beukers_a", "conj2.5") else v.ap
        hi, lo = m * p ** r - 1, m * p ** (r - 1) - 1
        mod = p ** (3 * r + (0 if name.startswith("beukers") else 1))
        if name.startswith("beukers"):
            return seq(hi) % mod, seq(lo) % mod
        lhs = (seq(hi) - seq(lo)) % mod
        if name == "conj2.5":
            corr = Fraction(2, 3) * m ** 3 * PAPER_CM[m]
        else:
            wm = sum(comb(m, k) * comb(m - 1, k - 1) * comb(m + k - 1, k - 1)
                     for k in range(1, m + 1))
            corr = Fraction(5, 3) * m ** 3 * wm
        return lhs, _red(corr * p ** (3 * r) * v.bernoulli(p - 3), p, 3 * r + 1)
    if name in ("liu_a", "liu_aprime", "conj2.3", "conj2.4"):
        seq = v.a if name in ("liu_a", "conj2.4") else v.ap
        hi, lo = m * p ** r, m * p ** (r - 1)
        e = 3 * r + (1 if name.startswith("liu") else 2)
        mod = p ** e
        cm, cpm = _c_pair(m)
        if name.startswith("liu"):
            corr = Fraction(2, 3) * cm if name == "liu_a" else Fraction(1, 3) * cpm
            corr *= v.bernoulli(p - 3)
        else:
            bracket = (v.bernoulli(2 * p - 4) / (2 * p - 4)
                       - 2 * v.bernoulli(p - 3) / (p - 3))
            corr = (cpm if name == "conj2.3" else 2 * cm) * bracket
        corr_res = _red(corr * p ** (3 * r), p, e)
        if name == "conj2.4":
            return (seq(hi) - seq(lo)) % mod, corr_res
        return seq(hi) % mod, (seq(lo) + corr_res) % mod

    half = (p - 1) // 2
    if name in ("eq1.3", "thm2.1i", "thm2.1ii", "lemma2.3"):
        e = 2 if name == "eq1.3" else 3
        mod = p ** e
        lhs = v.ap(half) % mod
        if name == "eq1.3":
            rhs = (4 * _x_of(p) ** 2 - 2 * p) % mod if p % 4 == 1 else 0
        elif name == "thm2.1i":
            b = comb((p - 3) // 2, (p - 3) // 4)
            rhs = 3 if p == 3 else p * p * pow(3 * b * b, -1, mod) % mod
        elif name == "thm2.1ii" and with_euler:
            x2 = _x_of(p) ** 2
            s = _half_sums(p, 1)[2]
            rhs = (4 * x2 - 2 * p - p * p * pow(4 * x2, -1, mod)
                   + 3 * p * p * x2 * v.euler(p - 3, p)
                   + p * p * pow(2, -1, mod) * s) % mod
        return lhs, rhs
    if name in ("lemma2.4", "lemma2.6", "lemma2.5"):
        mod = p ** 3
        if p % 4 == 1:
            x2 = _x_of(p) ** 2
            target = (4 * x2 - 2 * p - p * p * pow(4 * x2, -1, mod)) % mod
        if name == "lemma2.4":
            inv64 = pow(64, -1, mod)
            c, acc = 1, 1
            for k in range(1, p):
                c = c * 2 * (2 * k - 1) // k
                acc = (acc + c ** 3 * pow(inv64, k, mod)) % mod
            if p % 4 == 3:
                b = comb((p - 3) // 2, (p - 3) // 4)
                target = -p * p * pow(4 * b * b, -1, mod) % mod
            return acc, target
        if not with_euler:
            return None, (target if name == "lemma2.6" else None)
        ep3 = v.euler(p - 3, p)
        if p % 4 == 1:
            b = comb((p - 1) // 2, (p - 1) // 4)
            val = pow(2, -(p - 1), mod) * b * b * (1 - p * p * pow(2, -1, mod) * ep3) % mod
            if name == "lemma2.6":
                return val, target
            return None, -val % mod
        b = comb((p - 3) // 2, (p - 3) // 4)
        return None, (pow(2, p - 3, mod) * (16 + 32 * p + (48 - 8 * ep3) * p * p)
                      * pow(b, -2, mod)) % mod
    if name in ("lemma2.7a", "lemma2.7b", "conj2.1"):
        e = 2 if name == "lemma2.7a" else 1
        mod = p ** e
        so, so2, sosq = _half_sums(p, e)
        if name == "lemma2.7a":
            rhs = 0 if p % 4 == 1 else -p * pow(12, -1, mod) * _gamma_quarter_pow4_mod_p(p) % mod
            return so, rhs
        if name == "lemma2.7b":
            g4 = _gamma_quarter_pow4_mod_p(p)
            if p % 4 == 3:
                return so2, -pow(16, -1, p) * g4 % p
            return so2, (pow(2, -1, p) * g4 * v.euler(p - 3, p) % p if with_euler else None)
        rhs = 2 * pow(3, -1, p) * _x_of(p) ** 2 * v.euler(p - 3, p) % p if with_euler else None
        return sosq, rhs
    if name.startswith("thm3.3_"):
        pb = _red(p * v.bernoulli(p - 1), p, 2)
        p2 = p * p
        if name == "thm3.3_tp":
            return v.t(p) % p ** 3, (1 + 4 * _sign(p)) * p2 % p ** 3
        if name == "thm3.3_tpm1":
            return v.t(p - 1) % p2, _sign(p) * (2 * p + pow(2, p, p2) - 2 + pb * pb) % p2
        if name == "thm3.3_thalf":
            return v.t(half) % p2, (pb - p + pow(2, p - 1, p2) - 1) % p2
        if name == "thm3.3_thalfp1":
            return v.t(half + 1) % p2, (pb - 3 * p + pow(2, p - 1, p2) - 1) % p2
        return v.t((p - 3) // 4) % p, None  # tquarter: rhs depends on the sign
    raise KeyError(name)


# ---------------------------------------------------------------------------
# checking a captured output

def _as_value(text):
    return None if text is None else Fraction(text)


class Checker:
    """Checks outputs of one spec; values are memoized across calls."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.expected = expected_records(spec)
        self.values = Values()
        uses_euler = {"thm2.1ii", "lemma2.5", "lemma2.6", "lemma2.7b", "conj2.1"}
        pool = sorted({k[1] for k, skip in self.expected
                       if not skip and k[0] in uses_euler})
        self.euler_primes = frozenset(
            random.Random(seed).sample(pool, min(EULER_SAMPLE, len(pool))))
        self._verdicts: dict[str, Optional[str]] = {}

    def check(self, stdout: bytes) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for one captured stdout."""
        problems: list[str] = []
        records: dict[tuple, dict] = {}
        order: list[tuple] = []
        extra = 0
        for n, line in enumerate(stdout.decode().splitlines(), 1):
            try:
                rec = json.loads(line)
                key = (rec["check"], rec["p"], rec["m"], rec["r"])
            except (ValueError, KeyError, TypeError):
                problems.append(f"line {n}: not a record: {line[:80]!r}")
                extra += 1
                continue
            h = CATALOGUE.get(rec["check"])
            if h is not None and h.kind != "congruence":
                # the m column of an identity record is its spot index
                key = key[:2] + (None, None)
            if key in records:
                problems.append(f"duplicate record {key}")
                extra += 1
                continue
            records[key] = rec
            order.append(key)
        expected_keys = [k for k, _ in self.expected]
        known = set(expected_keys)
        unexpected = [k for k in order if k not in known]
        for k in unexpected:
            problems.append(f"unexpected record {k}")
        if [k for k in order if k in known] != [k for k in expected_keys if k in records]:
            problems.append("records are not in canonical order")
            extra += 1
        failed = extra + len(unexpected)
        for key, skip in self.expected:
            rec = records.get(key)
            if rec is None:
                problems.append(f"missing record {key}")
                failed += 1
                continue
            why = self.check_record(rec, skip)
            if why:
                problems.append(f"{key}: {why}")
                failed += 1
        return len(self.expected), failed, problems

    def check_record(self, rec: dict, skip: bool) -> Optional[str]:
        line = json.dumps(rec, sort_keys=True)
        if line not in self._verdicts:
            try:
                self._verdicts[line] = self._check_record(rec, skip)
            except (ValueError, TypeError, ZeroDivisionError, ArithmeticError) as exc:
                self._verdicts[line] = f"malformed record: {exc!r}"
        return self._verdicts[line]

    def _check_record(self, rec: dict, skip: bool) -> Optional[str]:
        name, p, m, r = rec["check"], rec["p"], rec["m"], rec["r"]
        h = CATALOGUE[name]
        if skip:
            if rec["verdict"] != "skip" or not rec["skip_reason"]:
                return f"expected a skip, got verdict {rec['verdict']}"
            if (rec["modulus"], rec["lhs"], rec["rhs"]) != (None, None, None):
                return "a skip carries values"
            return None
        if rec["verdict"] != "pass":
            return f"verdict {rec['verdict']} ({rec['skip_reason']})"
        lhs, rhs = _as_value(rec["lhs"]), _as_value(rec["rhs"])
        if lhs is None or lhs != rhs:
            return f"lhs {rec['lhs']} != rhs {rec['rhs']}"
        if h.kind == "identity":
            if rec["modulus"] is not None or not isinstance(m, int):
                return "identity record without a spot index or with a modulus"
            return self._check_identity(name, m, lhs, rhs)
        e = h.e[0] * (r or 0) + h.e[1]
        if rec["modulus"] != p ** e:
            return f"modulus {rec['modulus']} != {p}^{e}"
        if not (lhs.denominator == 1 and 0 <= lhs < p ** e):
            return f"lhs {rec['lhs']} is not a least residue mod {p}^{e}"
        if h.kind == "prime_identity":
            mod = p * p
            want = (comb((p - 1) // 2 + m, 2 * m) % mod,
                    comb(2 * m, m) * pow(-16, -m, mod) % mod)
            if not 1 <= m <= (p - 1) // 2 or (lhs, rhs) != want:
                return f"eq2.2 at k = {m}: want {want}"
            return None
        want_l, want_r = expected_sides(self.values, name, p, m, r, p in self.euler_primes)
        if want_l is not None and lhs != want_l:
            return f"lhs {rec['lhs']}, independent value {want_l}"
        if want_r is not None and rhs != want_r:
            return f"rhs {rec['rhs']}, independent value {want_r}"
        if name == "thm3.3_tquarter":
            binv = pow(comb((p - 1) // 2, (p - 3) // 4), -1, p)
            if (rec["sign"], rhs) not in (("+", binv), ("-", -binv % p)):
                return f"sign {rec['sign']} with rhs {rec['rhs']}, binom^-1 = {binv}"
        return None

    def _check_identity(self, name: str, n: int, lhs: Fraction, rhs: Fraction) -> Optional[str]:
        v = self.values
        if name in ("id_thm3.1", "id_gf"):
            want = v.t(n)
            return None if lhs == want else f"spot t_{n} = {want}"
        if name == "id_thm3.2":
            want = -Fraction(v.t(n), factorial(2 * n + 1)) ** 2
            return None if rhs == want else f"spot -(t_{n}/(2n+1)!)^2 = {want}"
        if name == "id_lemma2.1":
            o = sum(Fraction(1, 2 * i - 1) for i in range(1, n + 1))
            o2 = sum(Fraction(1, (2 * i - 1) ** 2) for i in range(1, n + 1))
            want = Fraction(comb(2 * n, n), 4 ** n) * (o * o - o2)
            return None if rhs == want else f"spot binom(2n,n)/4^n D_n = {want}"
        if name == "id_eq2.1":
            return None if lhs == 0 else "odd transform is not 0"
        return None


# ---------------------------------------------------------------------------
# recovery lines and the checker's own test

def check_recovery(stderr: bytes, spec: Spec) -> list[str]:
    """The conj2.5 recovery lines on stderr must give the paper's c_m."""
    if "conj2.5" not in spec.checks:
        return []
    found = {int(m): int(c) for m, c in
             re.findall(r"conj2\.5 recovery m=(\d+): c_\d+ = (-?\d+)", stderr.decode())}
    return [f"recovery of c_{m}: got {found.get(m)}, paper {PAPER_CM[m]}"
            for m in spec.m if m in PAPER_CM and found.get(m) != PAPER_CM[m]]


def mutations(stdout: bytes, seed: int) -> list[tuple[str, bytes]]:
    """Two corrupted copies of a passing output: one lhs shifted by p^(e-1),
    and one record dropped.  The seed picks the records."""
    lines = stdout.decode().splitlines(keepends=True)
    rng = random.Random(seed)
    congruent = [i for i, line in enumerate(lines)
                 if (rec := json.loads(line))["verdict"] == "pass" and rec["p"] is not None]
    i = rng.choice(congruent)
    rec = json.loads(lines[i])
    mod, p = rec["modulus"], rec["p"]
    rec["lhs"] = str((int(rec["lhs"]) + mod // p) % mod)
    shifted = lines[:i] + [json.dumps(rec, separators=(",", ":")) + "\n"] + lines[i + 1:]
    j = rng.randrange(len(lines))
    dropped = lines[:j] + lines[j + 1:]
    return [(f"lhs of line {i + 1} shifted by {p}^(e-1)", "".join(shifted).encode()),
            (f"line {j + 1} dropped", "".join(dropped).encode())]


def checker_catches(checker: Checker, stdout: bytes, seed: int) -> list[str]:
    """Problems with the checker itself: each mutation must fail a record."""
    out = []
    for what, data in mutations(stdout, seed):
        _, failed, _ = checker.check(data)
        if failed == 0:
            out.append(f"checker passed a corrupted output ({what})")
    return out
