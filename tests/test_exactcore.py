"""Exact substrate: rationals, series, and the generating-function oracle.

The Fraction series live in tests/oracles.py; exactcore's integer-numerator
series are checked against them coefficient by coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperylab import exactcore, identities
from aperylab.cli import main
from aperylab.sequences import t_exact
from oracles import (
    PowerSeries,
    series_arctanh,
    series_inv_sqrt_one_minus_x2,
    series_mul,
)


def test_rat_reduce_examples():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(0, 7) == Fraction(0, 1)
    q = Fraction(-89, -120)
    assert (q.numerator, q.denominator) == (89, 120)
    assert q * -120 == -89


def test_rat_reduce_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_arctanh_coefficients():
    s = series_arctanh(4)
    assert list(s.coeffs) == [0, 1, 0, Fraction(1, 3)]
    assert list(series_arctanh(1).coeffs) == [0]
    assert series_arctanh(6).coefficient(5) == Fraction(1, 5)


def test_inv_sqrt_coefficients():
    s = series_inv_sqrt_one_minus_x2(6)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == Fraction(1, 2)
    assert s.coefficient(4) == Fraction(3, 8)
    assert s.coefficient(1) == 0 and s.coefficient(3) == 0


def test_series_mul_spots():
    order = 8
    prod = series_mul(series_arctanh(order), series_inv_sqrt_one_minus_x2(order))
    assert prod.coefficient(1) == 1
    assert prod.coefficient(3) == Fraction(5, 6)


def test_series_mul_identity_element():
    order = 7
    one = PowerSeries(tuple([Fraction(1)] + [Fraction(0)] * (order - 1)))
    a = series_arctanh(order)
    assert series_mul(a, one) == a


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(series_arctanh(3), series_arctanh(4))
    with pytest.raises(ValueError, match="mismatched orders"):
        exactcore.series_mul(exactcore.series_arctanh(3), exactcore.series_arctanh(4))


def test_integer_series_match_fraction_oracle():
    for order in range(1, 65):
        ints = (exactcore.series_arctanh(order), exactcore.series_inv_sqrt_one_minus_x2(order))
        fracs = (series_arctanh(order), series_inv_sqrt_one_minus_x2(order))
        for fast, slow in (*zip(ints, fracs), (exactcore.series_mul(*ints), series_mul(*fracs))):
            nums, den = fast
            assert [Fraction(c, den) for c in nums] == list(slow.coeffs), order


def test_gf_fails_when_an_arctanh_numerator_is_bumped(monkeypatch, capsys):
    # x^7/7 gains 1/den: (2n+1)! [x^(2n+1)] of the product moves for n >= 3
    def bumped(order):
        nums, den = exactcore.series_arctanh(order)
        if order > 7:
            nums[7] += 1
        return nums, den

    assert identities.gf_oracle(15).ok
    monkeypatch.setattr(identities, "series_arctanh", bumped)
    out = identities.gf_oracle(15)
    assert not out.ok and out.n == 3
    assert main(["verify", "--checks", "id_gf", "--primes", "3..3", "--format", "csv"]) == 1
    records = capsys.readouterr()
    assert records.out.splitlines()[1].split(",")[7] == "fail"
    assert "id_gf [theorem]: FAILED (0 pass, 1 fail, 0 skip)" in records.err
    assert main(["identity", "--name", "gf"]) == 1
    assert capsys.readouterr().out.startswith("gf: FAIL at n = 3: ")


def test_generating_function_matches_recurrence():
    order = 32
    prod = series_mul(series_arctanh(order), series_inv_sqrt_one_minus_x2(order))
    fact = 1
    for n in range(16):
        fact *= (2 * n) * (2 * n + 1) if n else 1
        assert fact * prod.coefficient(2 * n + 1) == t_exact(n)


small_ints = st.integers(min_value=-2**31, max_value=2**31)
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_reduction_idempotent(num, den):
    q = Fraction(num, den)
    assert Fraction(q.numerator, q.denominator) == q
    assert q.denominator > 0


@given(small_ints, small_ints, small_ints)
def test_integer_arithmetic_matches_word_size(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(
    st.lists(st.fractions(max_denominator=8), min_size=1, max_size=8),
    st.lists(st.fractions(max_denominator=8), min_size=1, max_size=8),
)
def test_series_product_is_truncated_convolution(xs, ys):
    n = max(len(xs), len(ys))
    xs = xs + [Fraction(0)] * (n - len(xs))
    ys = ys + [Fraction(0)] * (n - len(ys))
    prod = series_mul(PowerSeries(tuple(xs)), PowerSeries(tuple(ys)))
    for k in range(n):
        assert prod.coefficient(k) == sum(xs[i] * ys[k - i] for i in range(k + 1))
