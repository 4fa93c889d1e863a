"""Exact identity verifiers and their recurrence certificates."""

from fractions import Fraction

import pytest

from aperylab import identities
from aperylab.modring import FactorialTable, primes_in_range
from aperylab.identities import (
    eq21_identity,
    eq22_congruence,
    eq31_identity,
    generalized_binomial,
    gf_oracle,
    lemma21_identity,
    order4_certificate,
    order5_certificate,
    thm31_dual,
    thm32_identity,
)
from oracles import eq22_comb


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
    out = eq22_congruence(5)
    assert out.ok and out.modulus == 25
    assert out.n == 1 and out.lhs == 3 == out.rhs


def test_eq22_up_to_100():
    for p in (3, 7, 11, 13, 97):
        assert eq22_congruence(p).ok


def test_eq22_table_rows_match_comb():
    for pi in primes_in_range(3, 399):
        assert eq22_congruence(pi.p) == eq22_comb(pi.p), pi.p


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_eq22_fails_when_a_table_row_is_shifted(monkeypatch, p):
    class ShiftedTable(FactorialTable):
        # (h+1)! shifted by p, h = (p-1)/2: the lhs numerator at k = 1 only
        def extend(self, n):
            super().extend(n)
            h = (self.p - 1) // 2
            self.unit[h + 1] = (self.unit[h + 1] + self.p) % self.modulus

    assert eq22_congruence(p).ok
    monkeypatch.setattr(identities, "FactorialTable", ShiftedTable)
    out = eq22_congruence(p)
    assert not out.ok and out.n == 1


def test_generalized_binomial():
    assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial(Fraction(7), 3) == 35
    assert generalized_binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)


def test_eq31_fixed_spot():
    # n = 2, x = 1/2: both sides equal 16/3
    x = Fraction(1, 2)
    lhs = sum(
        [Fraction(1) / (x - 0), -2 / (x - 1), Fraction(1) / (x - 2)], Fraction(0)
    )
    rhs = 1 / ((x - 2) * generalized_binomial(x, 2))
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
