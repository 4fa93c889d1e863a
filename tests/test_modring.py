"""Residues, factored factorials and binomials, prime enumeration."""

import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperylab.modring import (
    FactorialTable,
    NotPIntegral,
    Residue,
    prime_info,
    primes_in_range,
    reduce_rat,
)

from oracles import (
    PadicFactored,
    factored_binomial,
    factored_factorial,
    table_binomial,
    table_factorial,
    to_residue,
)

PRIMES = [3, 5, 7, 11, 13, 17, 97]


def test_primes_in_range_enumeration():
    infos = primes_in_range(3, 13)
    assert [pi.p for pi in infos] == [3, 5, 7, 11, 13]
    assert [pi.klass for pi in infos] == [3, 1, 3, 3, 1]


def test_primes_in_range_empty():
    assert primes_in_range(14, 16) == []


def test_quadratic_representation():
    assert prime_info(13).rep == (3, 1)
    assert prime_info(5).rep == (1, 1)
    assert prime_info(29).rep == (5, 1)
    assert prime_info(7).rep is None


def test_rep_invariants_up_to_500():
    for pi in primes_in_range(3, 500):
        if pi.klass == 1:
            x, y = pi.rep
            assert x % 2 == 1 and x > 0 and y > 0
            assert x * x + 4 * y * y == pi.p
        else:
            assert pi.rep is None


def test_prime_info_rejects_composites():
    with pytest.raises(ValueError):
        prime_info(15)
    with pytest.raises(ValueError):
        prime_info(2)


def test_mod_inv_examples():
    assert Residue(6, 5, 2).inv().value == 21
    assert Residue(1, 7, 3).inv().value == 1
    assert Residue(16, 7, 3).inv().value == 193
    assert 16 * 193 % 343 == 1


def test_mod_inv_non_unit():
    with pytest.raises(ValueError, match="not invertible"):
        Residue(35, 7, 2).inv()


@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 10**6))
def test_mod_inv_involution(p, e, a):
    if a % p == 0:
        a += 1
    x = Residue(a, p, e)
    assert x.inv().inv() == x


def test_residue_rejects_mixed_moduli():
    with pytest.raises(ValueError, match="mixed moduli"):
        Residue(1, 5, 2) + Residue(1, 7, 2)
    with pytest.raises(ValueError, match="mixed moduli"):
        Residue(1, 5, 2) * Residue(1, 5, 3)


def test_residue_arithmetic_basics():
    a = Residue(20, 7, 2)
    assert (a + 30).value == 1
    assert (a - 21).value == 48
    assert (3 * a).value == 60 % 49
    assert (-a).value == 29
    assert (a ** 0).value == 1
    assert int(a) == 20


def test_factored_factorial_examples():
    f = factored_factorial(4, 5, 2)
    assert f.valuation == 0 and f.unit.value == 24
    assert factored_factorial(9, 5, 2).valuation == 1
    f = factored_factorial(10, 5, 2)
    assert f.valuation == 2 and f.unit.value == 2


def legendre(n, p):
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


@settings(max_examples=60)
@given(st.integers(0, 10**4), st.sampled_from(PRIMES))
def test_factored_factorial_valuation_is_legendre(n, p):
    assert factored_factorial(n, p, 2).valuation == legendre(n, p)


@settings(max_examples=40)
@given(st.integers(1, 2000), st.sampled_from(PRIMES), st.integers(1, 3))
def test_incremental_factorial_matches_fresh(n, p, e):
    table = FactorialTable(p, e)
    inc = table_factorial(table, n)
    v, u = split_p(n, p, e)
    step = table_factorial(table, n - 1) * PadicFactored(v, Residue(u, p, e))
    fresh = factored_factorial(n, p, e)
    assert inc.valuation == step.valuation == fresh.valuation
    assert inc.unit == step.unit == fresh.unit


def test_factored_binomial_examples():
    b = factored_binomial(6, 3, 7, 3)
    assert (b.valuation, b.unit.value) == (0, 20)
    b = factored_binomial(10, 5, 7, 3)
    assert (b.valuation, b.unit.value) == (1, 36)
    b = factored_binomial(12, 0, 7, 2)
    assert (b.valuation, b.unit.value) == (0, 1)


def test_factored_binomial_rejects_bad_k():
    with pytest.raises(ValueError):
        factored_binomial(3, 4, 5, 1)


@settings(max_examples=40)
@given(st.integers(0, 300), st.integers(0, 300), st.sampled_from([3, 7, 13]), st.integers(1, 3))
def test_binomial_reconstruction(n, k, p, e):
    if k > n:
        n, k = k, n
    b = factored_binomial(n, k, p, e)
    assert b.valuation >= 0
    back = b * factored_factorial(k, p, e) * factored_factorial(n - k, p, e)
    full = factored_factorial(n, p, e)
    assert back.valuation == full.valuation and back.unit == full.unit


def test_to_residue_examples():
    assert to_residue(PadicFactored(1, Residue(36, 7, 3))).value == 252
    assert to_residue(PadicFactored(3, Residue(2, 7, 3))).value == 0
    assert to_residue(PadicFactored(0, Residue(1, 7, 3))).value == 1


def test_to_residue_negative_valuation():
    with pytest.raises(NotPIntegral):
        to_residue(PadicFactored(-1, Residue(2, 5, 2)))


def test_reduce_rat_examples():
    assert reduce_rat(Fraction(-1, 6), 5, 2).value == 4
    assert reduce_rat(0, 5, 2).value == 0
    with pytest.raises(NotPIntegral) as exc:
        reduce_rat(Fraction(-1, 30), 5, 2)
    assert exc.value.valuation == -1


def test_not_p_integral_survives_pickling():
    # a forked sweep stripe pickles its exception back to the parent
    exc = pickle.loads(pickle.dumps(NotPIntegral("denominator 5 divisible by 5", -1)))
    assert type(exc) is NotPIntegral
    assert (str(exc), exc.valuation) == ("denominator 5 divisible by 5", -1)


def test_reduce_rat_names_sizes_not_digits():
    # a numerator of 5000 digits is past the 4300 that Python formats by default
    with pytest.raises(NotPIntegral, match="5000-digit numerator over a 2-digit") as exc:
        reduce_rat(Fraction(10 ** 4999 + 1, 75), 5, 2)
    assert exc.value.valuation == -2


@settings(max_examples=60)
@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.sampled_from(PRIMES),
    st.integers(1, 3),
)
def test_reduce_rat_matches_direct_reduction(num, den, p, e):
    q = Fraction(num, den)
    m = p ** e
    if q.denominator % p == 0:
        with pytest.raises(NotPIntegral):
            reduce_rat(q, p, e)
    else:
        got = reduce_rat(q, p, e)
        assert got.value * q.denominator % m == q.numerator % m


def split_p(x, p, e):
    """x > 0 as (v, unit mod p^e) with x = p^v * unit."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x % p ** e


@settings(max_examples=80)
@given(
    st.integers(0, 1500),
    st.integers(0, 1500),
    st.sampled_from([3, 5, 7, 11, 13, 31, 149]),
    st.integers(1, 7),
    st.lists(st.integers(0, 1500), max_size=3),
)
def test_table_binomial_matches_comb(n, k, p, e, steps):
    if k > n:
        n, k = k, n
    table = FactorialTable(p, e)
    # grow the rows in several extensions, as a sweep does
    for s in steps:
        table.extend(s)
    b = table_binomial(table, n, k)
    assert (b.valuation, b.unit.value) == split_p(comb(n, k), p, e)
    m = p ** e
    assert all(u * iu % m == 1 for u, iu in zip(table.unit, table.inv_unit))
