"""Acceptance suite: every top-level criterion at its stated range, exactly.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (run pytest -s to see
them all).  All comparisons are exact equalities of residues or rationals;
there are no tolerances anywhere.
"""

import subprocess
import sys
from fractions import Fraction

from aperylab.checks import recover_cm, run_check, sweep
from aperylab.identities import (
    eq21_identity,
    eq22_congruence,
    eq31_identity,
    gf_oracle,
    lemma21_identity,
    order4_certificate,
    order5_certificate,
    thm31_dual,
    thm32_harmonic_sum,
    thm32_identity,
)
from aperylab.modring import FactorialTable, primes_in_range

SMALL_PRIMES = [5, 7, 11, 13]


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _clean(results, expect_skips=0):
    """True when nothing failed and the skip count matches expectation."""
    fails = [r for r in results if r.verdict == "fail"]
    skips = [r for r in results if r.verdict == "skip"]
    return not fails and len(skips) == expect_skips


def test_criterion_01_thm21i_to_500():
    results = sweep(["thm2.1i"], (3, 499))
    class3 = sum(1 for pi in primes_in_range(3, 499) if pi.klass == 3)
    passed = [r for r in results if r.verdict == "pass"]
    spot = run_check("thm2.1i", 7)
    ok = (
        len(passed) == class3
        and not any(r.verdict == "fail" for r in results)
        and (spot.lhs, spot.rhs) == (147, 147)
    )
    _criterion(1, "thm2.1i exact mod p^3 for all p = 3 (mod 4), p < 500", ok)


def test_criterion_02_eq13_to_500():
    results = sweep(["eq1.3"], (3, 499))
    spot = run_check("eq1.3", 13)
    # the lone skip is p = 3, where A'_1 = 3 is not divisible by 9
    ok = _clean(results, expect_skips=1) and (spot.lhs, spot.rhs) == (10, 10)
    _criterion(2, "eq1.3 exact mod p^2 for all primes 3 < p < 500", ok)


def test_criterion_03_thm21ii_to_300():
    results = sweep(["thm2.1ii"], (3, 299))
    class1 = sum(1 for pi in primes_in_range(3, 299) if pi.klass == 1)
    ok = (
        not any(r.verdict == "fail" for r in results)
        and sum(r.verdict == "pass" for r in results) == class1
    )
    _criterion(3, "thm2.1ii exact mod p^3 for all p = 1 (mod 4), p < 300", ok)


def test_criterion_04_thm33_all_five_to_200():
    names = ["thm3.3_tp", "thm3.3_tpm1", "thm3.3_thalf", "thm3.3_thalfp1",
             "thm3.3_tquarter"]
    results = sweep(names, (3, 200))
    class1 = sum(1 for pi in primes_in_range(3, 200) if pi.klass == 1)
    quarter = [r for r in results if r.check == "thm3.3_tquarter"]
    ok = (
        _clean(results, expect_skips=class1)  # tquarter skips class-1 primes
        and all(r.sign in "+-" for r in quarter if r.verdict == "pass")
        and run_check("thm3.3_thalf", 5).lhs == 14
        and run_check("thm3.3_tpm1", 5).lhs == 6
        and run_check("thm3.3_tp", 5).lhs == 0
    )
    _criterion(4, "all five thm3.3 congruences for odd p <= 200, signs recorded", ok)


def test_criterion_05_lemma24_lemma26_to_500():
    res24 = sweep(["lemma2.4"], (3, 499))
    res26 = sweep(["lemma2.6"], (3, 499))
    class3 = sum(1 for pi in primes_in_range(3, 499) if pi.klass == 3)
    ok = _clean(res24) and _clean(res26, expect_skips=class3)
    _criterion(5, "lemma2.4 and lemma2.6 exact mod p^3 for applicable p < 500", ok)


def test_criterion_06_lemma25_lemma27_definition_oracle():
    results = sweep(["lemma2.5", "lemma2.7a", "lemma2.7b"], (5, 47))
    spot = run_check("lemma2.5", 7)
    ok = _clean(results) and (spot.lhs, spot.rhs) == (127, 127)
    _criterion(
        6, "lemma2.5 and lemma2.7 for 5 <= p <= 47 with definition-based Gamma_p", ok
    )


def test_criterion_07_beukers():
    results = sweep(
        ["beukers_a", "beukers_aprime"], SMALL_PRIMES, m_list=[1, 2, 3], r_list=[1, 2]
    )
    spot = run_check("beukers_aprime", 5, 1, 1)
    ok = (
        _clean(results)
        and all(r.modulus == r.p ** (3 * r.r) for r in results)
        and (spot.lhs, spot.rhs, spot.modulus) == (1, 1, 125)
    )
    _criterion(7, "beukers congruences mod p^3r, p in {5,7,11,13}, m <= 3, r <= 2", ok)


def test_criterion_08_liu():
    results = sweep(
        ["liu_a", "liu_aprime"], SMALL_PRIMES, m_list=[1, 2, 3], r_list=[1, 2]
    )
    ok = _clean(results) and all(r.modulus == r.p ** (3 * r.r + 1) for r in results)
    _criterion(8, "liu congruences mod p^(3r+1), p in {5,7,11,13}, m <= 3, r <= 2", ok)


def test_criterion_09_recover_cm():
    expected = {1: 1, 2: 1, 3: -17, 4: -703, 5: -21499, 6: -628145}
    got = {m: recover_cm(m, [5, 7, 11, 13, 17, 19, 23])[0] for m in range(1, 7)}
    ok = got == expected and all(v % 2 for v in got.values())
    _criterion(9, "CRT over p in {5..23} recovers c_1..c_6 exactly", ok)


def test_criterion_10_conjectures_supported():
    res21 = sweep(["conj2.1"], (3, 299))
    class1 = sum(1 for pi in primes_in_range(3, 299) if pi.klass == 1)
    res_mr = sweep(
        ["conj2.2", "conj2.3", "conj2.4"], SMALL_PRIMES, m_list=[1, 2, 3], r_list=[1]
    )
    # conj2.4 skips p = 5, everything else applies
    ok = (
        not any(r.verdict == "fail" for r in res21)
        and sum(r.verdict == "pass" for r in res21) == class1
        and _clean(res_mr, expect_skips=3)
    )
    _criterion(10, "conj2.1..conj2.4 supported with zero refuted instances", ok)


def test_criterion_11_identity_suites():
    checks = [
        lemma21_identity(100).ok,
        order4_certificate(100).ok,
        eq21_identity(99).ok,
        all(eq22_congruence(pi.p, FactorialTable(pi.p, 2)).ok for pi in primes_in_range(3, 500)),
        eq31_identity(30, trials=20).ok,
        thm31_dual(200).ok,
        thm32_identity(40).ok,
        order5_certificate(40).ok,
        gf_oracle(15).ok,
    ]
    tabulated = (
        thm32_harmonic_sum(1) == Fraction(-25, 36)
        and thm32_harmonic_sum(2) == -Fraction(89, 120) ** 2
        and thm32_harmonic_sum(3) == -Fraction(381, 560) ** 2
        and lemma21_identity(3).lhs == Fraction(1, 4)
    )
    _criterion(11, "exact identity suites over their full stated ranges",
               all(checks) and tabulated)


def test_criterion_12_deterministic_output():
    cmd = [sys.executable, "-m", "aperylab", "verify", "--checks", "all",
           "--format", "json"]
    one = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, check=True)
    two = subprocess.run(cmd + ["--jobs", "2"], capture_output=True, check=True)
    ok = one.stdout == two.stdout and len(one.stdout) > 0
    _criterion(12, "verify --checks all output is byte-identical across --jobs", ok)
