"""Bernoulli/Euler numbers, quotients, and the p-adic Gamma function."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperylab import special
from aperylab.cli import main
from aperylab.modring import (
    FactorialTable,
    NotPIntegral,
    primes_in_range,
    quadratic_rep,
    reduce_rat,
)
from aperylab.sequences import seq_mod, SeqId
from aperylab.special import (
    bernoulli,
    bernoulli_table,
    euler_pm3_mod,
    gamma_quarter_closed_form,
    padic_gamma,
)

from oracles import (
    bernoulli_mod_p2,
    euler_mod,
    fermat_quotient,
    gamma_product,
    pb_pm1_mod,
    table_binomial,
    to_residue,
    wilson_side,
)

try:
    import sympy
except ImportError:  # sympy is only a third, optional oracle
    sympy = None

PRIMES_BELOW_700 = [pi.p for pi in primes_in_range(3, 699)]


def test_bernoulli_small_values():
    table = bernoulli_table(10)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[3] == 0
    assert table[4] == Fraction(-1, 30)
    assert table[10] == Fraction(5, 66)


def test_bernoulli_defining_relation():
    table = bernoulli_table(40)
    for n in range(2, 41):
        assert sum(comb(n, k) * table[k] for k in range(n)) == 0


def test_bernoulli_odd_indices_vanish():
    table = bernoulli_table(25)
    assert all(table[n] == 0 for n in range(3, 26, 2))


def test_euler_mod_values():
    assert euler_mod(2, 7).value == 6
    assert euler_mod(4, 7).value == 5
    assert euler_mod(1, 11).value == 0
    assert euler_mod(6, 103).value == (-61) % 103
    assert euler_mod(8, 101).value == 1385 % 101


def test_fermat_quotient():
    assert fermat_quotient(2, 5).value == 3
    assert fermat_quotient(2, 3).value == 1
    assert fermat_quotient(1, 13).value == 0
    with pytest.raises(ValueError):
        fermat_quotient(10, 5)


def test_wilson_side():
    assert wilson_side(5).value == 24
    assert wilson_side(3).value == 2
    assert wilson_side(7).value == 720 % 49


def test_wilson_bernoulli_consistency():
    # (p-1)! = p B_{p-1} - p (mod p^2), exact-rational path vs factorial path
    for pi in primes_in_range(3, 200):
        p = pi.p
        lhs = wilson_side(p).value
        rhs = (reduce_rat(p * bernoulli(p - 1), p, 2).value - p) % (p * p)
        assert lhs == rhs, p


def test_lehmer_euler_matches_recurrence():
    for p in PRIMES_BELOW_700[1:]:
        assert euler_pm3_mod(p) == euler_mod(p - 3, p).value, p
    with pytest.raises(ValueError):
        euler_pm3_mod(3)


def test_pb_pm1_matches_exact_and_quotient_oracles():
    for p in PRIMES_BELOW_700:
        m = p * p
        got = pb_pm1_mod(p)
        assert got == reduce_rat(p * bernoulli(p - 1), p, 2).value, p
        # k^(p-1) = 1 + p q_p(k) (mod p^2), summed over k < p
        quotients = sum(fermat_quotient(k, p).value for k in range(1, p))
        assert got == (p - 1 + p * quotients) % m, p
        # Glaisher: (p-1)! = p B_{p-1} - p (mod p^2)
        assert got == (wilson_side(p).value + p) % m, p


def test_faulhaber_bernoulli_matches_table():
    # p = 5 takes the exact table (B_2 and B_6); p = 7, 11 are the first
    # primes on the power-sum route
    for p in (pi.p for pi in primes_in_range(5, 399)):
        for n in (p - 3, 2 * p - 4):
            assert bernoulli_mod_p2(n, p) == reduce_rat(bernoulli(n), p, 2).value, (p, n)


def test_faulhaber_power_sum_misses_b2_at_p5():
    # why p = 5 takes the table: at n = p - 3 = 2 the power sum also carries
    # (n/2) p^2 B_1, which does not vanish mod p^3
    power_sum = sum(pow(k, 2, 125) for k in range(1, 5)) % 125 // 5
    assert power_sum != reduce_rat(bernoulli(2), 5, 2).value


@pytest.mark.skipif(sympy is None, reason="needs sympy")
@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PRIMES_BELOW_700[1:]))
def test_fast_special_values_match_sympy(p):
    assert euler_pm3_mod(p) == int(sympy.euler(p - 3)) % p
    pb = sympy.Rational(p) * sympy.bernoulli(p - 1)
    assert pb_pm1_mod(p) == int(pb.p) * pow(int(pb.q), -1, p * p) % (p * p)
    for n in (p - 3, 2 * p - 4):
        b = sympy.bernoulli(n)
        assert bernoulli_mod_p2(n, p) == int(b.p) * pow(int(b.q), -1, p * p) % (p * p)


def test_von_staudt_clausen_poles():
    for pi in primes_in_range(5, 200):
        p = pi.p
        reduce_rat(bernoulli(p - 3), p, 1)  # p-integral, must not raise
        with pytest.raises(NotPIntegral):
            reduce_rat(bernoulli(p - 1), p, 1)


def test_padic_gamma_trivial_values():
    for p, e in ((5, 2), (7, 3), (11, 1)):
        assert padic_gamma(Fraction(1), p, e).value == p ** e - 1
        assert padic_gamma(Fraction(0), p, e).value == 1


def test_padic_gamma_quarter_spot():
    g = padic_gamma(Fraction(1, 4), 7, 3)
    assert (g ** 4).value == 127


def test_padic_gamma_rejects_non_integral():
    with pytest.raises(NotPIntegral):
        padic_gamma(Fraction(1, 5), 5, 2)


def test_padic_gamma_cost_cap(capsys):
    # 127^3 factors were past the cap of the plain product; the block route
    # takes about 127 * 3 + 27 * 14 steps
    assert 127 ** 3 > special.GAMMA_STEP_LIMIT
    g4 = padic_gamma(Fraction(1, 4), 127, 3) ** 4
    assert g4.value == gamma_quarter_closed_form(127).value
    assert main(["gamma", "--x", "1/4", "--p", "127", "--e", "3", "--pow", "4"]) == 0
    assert capsys.readouterr().out == f"{g4.value}\n"
    # e = 40 at p = 3: 3 * 40 + 40^3 * 39 * 2 steps
    with pytest.raises(ValueError, match="smaller precision"):
        padic_gamma(Fraction(1, 4), 3, 40)


def test_padic_gamma_precision_tower():
    for pi in primes_in_range(3, 47):
        p = pi.p
        v3 = padic_gamma(Fraction(1, 4), p, 3).value
        v2 = padic_gamma(Fraction(1, 4), p, 2).value
        v1 = padic_gamma(Fraction(1, 4), p, 1).value
        assert v3 % (p * p) == v2 and v2 % p == v1
        assert v3 == gamma_product(Fraction(1, 4), p, 3).value, p


GAMMA_ARGS = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 4), Fraction(1, 3),
              Fraction(2, 5), Fraction(-7, 2), Fraction(9, 7)]


def test_padic_gamma_matches_definition_product():
    # every odd p <= 113 and e <= 5 whose product has at most 2 * 10^6 factors
    cases = 0
    for p in (pi.p for pi in primes_in_range(3, 113)):
        for e in range(1, 6):
            if p ** e > 2_000_000:
                break
            for x in GAMMA_ARGS:
                if x.denominator % p:
                    assert padic_gamma(x, p, e).value == gamma_product(x, p, e).value, (x, p, e)
                    cases += 1
    assert cases == 817


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 31]),
    st.integers(1, 4),
    st.integers(-500, 500),
    st.integers(1, 60),
)
def test_padic_gamma_matches_definition_product_at_random_rationals(p, e, num, den):
    x = Fraction(num, den)
    assume(x.denominator % p and p ** e <= 10 ** 5)
    assert padic_gamma(x, p, e).value == gamma_product(x, p, e).value


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_padic_gamma_tower_and_functional_equation_at_e9(p):
    m = p ** 9
    xs = [x for x in GAMMA_ARGS if x.denominator % p] + [Fraction(p), Fraction(-3 * p, 2)]
    for x in xs:
        g = padic_gamma(x, p, 9).value
        for e in range(1, 9):
            assert padic_gamma(x, p, e).value == g % p ** e, (x, e)
        # Gamma_p(x + 1) = -x Gamma_p(x), or -Gamma_p(x) when p | x
        factor = -1 if x.numerator % p == 0 else -reduce_rat(x, p, 9).value
        assert padic_gamma(x + 1, p, 9).value == factor * g % m, x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_gamma_matches_unreduced_product_at_integers(p):
    # Gamma_p(x) = (-1)^x prod_{k<x, p !| k} k, taken with no reduction of x:
    # at p = 2 the units mod 4 multiply to -1, so x mod 4 does not fix the
    # value mod 4 (oracles.gamma_product reduces x mod p^e, and cannot judge)
    for x in range(1, 41):
        want = (-1) ** x * prod(k for k in range(1, x) if k % p)
        for e in range(1, 7):
            assert padic_gamma(Fraction(x), p, e).value == want % p ** e, (x, e)


def test_padic_gamma_quarter_matches_closed_form_past_the_old_cap():
    # lemma2.5 still skips these primes; this is the evidence for lifting that
    for pi in primes_in_range(127, 1999):
        p = pi.p
        g4 = padic_gamma(Fraction(1, 4), p, 3) ** 4
        assert g4.value == gamma_quarter_closed_form(p).value, p


def test_gamma_closed_form_matches_definition():
    for pi in primes_in_range(5, 47):
        p = pi.p
        defn = (gamma_product(Fraction(1, 4), p, 3) ** 4).value
        assert gamma_quarter_closed_form(p).value == defn, p


def test_gamma_closed_form_spot():
    assert gamma_quarter_closed_form(7).value == 127


def test_gamma_closed_form_requires_p_gt_3():
    with pytest.raises(ValueError):
        gamma_quarter_closed_form(3)


def test_cornacchia():
    assert quadratic_rep(5) == (1, 1)
    assert quadratic_rep(13) == (3, 1)
    assert quadratic_rep(29) == (5, 1)
    with pytest.raises(ValueError):
        quadratic_rep(7)


def test_half_harmonic_vs_fermat_quotient():
    # H_{(p-1)/2} = -2 q_p(2) (mod p)
    for pi in primes_in_range(3, 500):
        p = pi.p
        lhs = seq_mod(SeqId.H, (p - 1) // 2, p, 1).value
        assert lhs == (-2 * fermat_quotient(2, p).value) % p, p


def test_central_binomial_sums_vs_fermat_quotient():
    # sum_{k<=(p-1)/2} binom(2k,k)/(4^k k) = sum_{k<=p-1} = 2 q_p(2) (mod p)
    for pi in primes_in_range(3, 500):
        p = pi.p
        table = FactorialTable(p, 1)
        inv4 = pow(4, -1, p)
        w = 1
        half = full = 0
        for k in range(1, p):
            w = w * inv4 % p
            term = to_residue(table_binomial(table, 2 * k, k)).value * w % p * pow(k, -1, p) % p
            full = (full + term) % p
            if k == (p - 1) // 2:
                half = full
        target = 2 * fermat_quotient(2, p).value % p
        assert half == full == target, p
