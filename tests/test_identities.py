"""Exact identity verifiers and their recurrence certificates."""

from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aperylab import identities, sequences
from aperylab.checks import CHECKS, Identity, run_check
from aperylab.modring import FactorialTable, primes_in_range
from aperylab.identities import (
    eq21_identity,
    eq22_congruence,
    eq31_identity,
    gf_oracle,
    lemma21_identity,
    order4_certificate,
    order5_certificate,
    thm31_dual,
    thm32_identity,
)
from oracles import eq22_comb, generalized_binomial_product


def test_lemma21_identity_and_spot():
    out = lemma21_identity(60)
    assert out.ok
    assert out.n == 2 and out.lhs == Fraction(1, 4) == out.rhs


def test_order4_certificate():
    assert order4_certificate(40).ok


def test_eq21_vanishes_for_odd_n():
    out = eq21_identity(59)
    assert out.ok and out.lhs == 0


def test_eq22_spot_p5():
    # k = 1: binom(3,2) = 3 and 2/(-16) = -1/8 = 3 (mod 25)
    out = eq22_congruence(5, FactorialTable(5, 2))
    assert out.ok and out.modulus == 25
    assert out.n == 1 and out.lhs == 3 == out.rhs


def test_eq22_up_to_100():
    for p in (3, 7, 11, 13, 97):
        assert eq22_congruence(p, FactorialTable(p, 2)).ok


def test_eq22_table_rows_match_comb():
    for pi in primes_in_range(3, 399):
        assert eq22_congruence(pi.p, FactorialTable(pi.p, 2)) == eq22_comb(pi.p), pi.p


def test_eq22_reads_a_given_table_at_any_precision():
    # a sweep hands eq2.2 its prime's table, at p^e_max; the products are
    # reduced mod p^2 all the same
    for pi in primes_in_range(3, 399):
        for e in (2, 3, 5):
            table = FactorialTable(pi.p, e)
            assert eq22_congruence(pi.p, table) == eq22_comb(pi.p), (pi.p, e)
    with pytest.raises(ValueError, match="e >= 2"):
        eq22_congruence(7, FactorialTable(7, 1))
    with pytest.raises(ValueError, match="p = 7"):
        eq22_congruence(7, FactorialTable(11, 2))


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_eq22_fails_when_a_table_row_is_shifted(p):
    class ShiftedTable(FactorialTable):
        # (h+1)! shifted by p, h = (p-1)/2: the lhs numerator at k = 1 only
        def extend(self, n):
            super().extend(n)
            h = (self.p - 1) // 2
            self.unit[h + 1] = (self.unit[h + 1] + self.p) % self.modulus

    assert eq22_congruence(p, FactorialTable(p, 2)).ok
    out = eq22_congruence(p, ShiftedTable(p, 2))
    assert not out.ok and out.n == 1


def test_generalized_binomial():
    assert generalized_binomial_product(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial_product(Fraction(7), 3) == 35
    assert generalized_binomial_product(Fraction(-1, 2), 1) == Fraction(-1, 2)


def test_eq31_fixed_spot():
    # n = 2, x = 1/2: both sides equal 16/3
    x = Fraction(1, 2)
    lhs = sum(
        [Fraction(1) / (x - 0), -2 / (x - 1), Fraction(1) / (x - 2)], Fraction(0)
    )
    rhs = 1 / ((x - 2) * generalized_binomial_product(x, 2))
    assert lhs == rhs == Fraction(16, 3)


def test_eq31_randomized():
    assert eq31_identity(12, trials=6, seed=99).ok
    assert eq31_identity(12, trials=6, seed=99) == eq31_identity(12, trials=6, seed=99)


def test_thm31_dual_route():
    out = thm31_dual(50)
    assert out.ok and out.lhs == 3555578025


def test_thm32_identity_and_tabulated_values():
    out = thm32_identity(12)
    assert out.ok
    assert out.n == 2
    assert out.lhs == -Fraction(89, 120) ** 2 == out.rhs


def test_order5_certificate():
    assert order5_certificate(8).ok


def test_gf_oracle():
    out = gf_oracle(15)
    assert out.ok and out.lhs == 5


# The rational verifiers against the Fraction sums they replaced.  An
# outcome's lhs and rhs must match in type as well as value: the CLI prints
# an int and a Fraction differently.
DEFAULT_MAX_N = {
    v: cd.runner.max_n for cd in CHECKS.values()
    if isinstance(cd.runner, Identity) and cd.runner.max_n is not None
    for v in cd.runner.verifiers
}
RATIONAL_VERIFIERS = [
    "lemma21_identity", "order4_certificate", "eq21_identity", "eq31_identity",
    "thm31_dual", "thm32_identity", "order5_certificate", "gf_oracle",
]


def _typed(out):
    return out, type(out.lhs), type(out.rhs)


@pytest.mark.parametrize("name", RATIONAL_VERIFIERS)
def test_verifier_matches_fraction_oracle(name):
    for max_n in [*range(1, 13), DEFAULT_MAX_N[name]]:
        assert _typed(getattr(identities, name)(max_n)) == _typed(
            getattr(oracles, name)(max_n)
        ), max_n


def test_thm32_harmonic_sum_matches_fraction_oracle():
    for n in range(13):
        assert identities.thm32_harmonic_sum(n) == oracles.thm32_harmonic_sum(n)


def test_t_closed_form_matches_fraction_oracle():
    for n in range(301):
        assert sequences.t_closed_form(n) == oracles.t_closed_form(n), n


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-200, max_value=200, max_denominator=60),
       st.integers(0, 30))
def test_generalized_binomial_matches_fraction_oracle(x, n):
    got = generalized_binomial_product(x, n)
    assert type(got) is Fraction and got == oracles.generalized_binomial(x, n)


# Perturbations: shift one value a verifier reads, in identities and in the
# oracles alike.  The row must turn from pass to fail, and every verifier of
# the row must report what its Fraction oracle reports under the same shift.

def _both(name, fake):
    return [(identities, name, fake), (oracles, name, fake)]


def _shifted_t(index):
    def t_values(modulus=0):
        for n, t in enumerate(sequences.t_values(modulus)):
            yield t + 1 if n == index else t
    return _both("t_values", t_values)


def _shifted_o(index):
    # O_index moves by 1/d, d = lcm(1, 3, ..., 2 index - 1) its step's
    # denominator: on the walk's numerator, and on the oracles' own sums
    def harmonic_walk(central=False):
        for k, (l, h, q, d, o, o2, sums) in enumerate(sequences.harmonic_walk(central)):
            yield l, h, q, d, o + (k == index), o2, sums

    def odd_harmonics(count, real=oracles.odd_harmonics):
        values = real(count)
        if index < count:
            o, o2 = values[index]
            values[index] = o + Fraction(1, lcm(*range(1, 2 * index, 2))), o2
        return values

    return [(identities, "harmonic_walk", harmonic_walk),
            (oracles, "odd_harmonics", odd_harmonics)]


def _shifted_comb(at):
    def shifted(n, k):
        return comb(n, k) + ((n, k) == at)
    return _both("comb", shifted)


@pytest.mark.parametrize("row, patches", [
    ("id_lemma2.1", _shifted_o(5)),
    ("id_eq2.1", _shifted_o(4)),
    ("id_eq3.1", _shifted_comb((3, 1))),
    ("id_thm3.1", _shifted_t(7)),
    ("id_thm3.2", _shifted_t(3)),
    ("id_thm3.2", _shifted_o(6)),
], ids=["lemma2.1-O5", "eq2.1-O4", "eq3.1-summand", "thm3.1-t7", "thm3.2-t3",
        "thm3.2-O6"])
def test_identity_row_fails_when_a_value_is_shifted(monkeypatch, row, patches):
    spec = CHECKS[row].runner
    assert run_check(row).verdict == "pass"
    for module, name, fake in patches:
        monkeypatch.setattr(module, name, fake)
    res = run_check(row)
    assert res.verdict == "fail"
    expected = [getattr(oracles, v)(spec.max_n) for v in spec.verifiers]
    assert [_typed(getattr(identities, v)(spec.max_n)) for v in spec.verifiers] == [
        _typed(out) for out in expected
    ]
    first = next(out for out in expected if not out.ok)
    assert _typed(first)[1:] == (type(res.lhs), type(res.rhs))
    assert (res.m, res.lhs, res.rhs) == (first.n, first.lhs, first.rhs)
