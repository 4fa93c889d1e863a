"""Sequence evaluators: tabulated values, dual routes, modular paths."""

from fractions import Fraction
from itertools import islice, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aperylab import checks, sequences
from aperylab.modring import FactorialTable, NotPIntegral, reduce_rat
from aperylab.sequences import (
    SeqId,
    apery_neighbours,
    apery_pair_mod,
    apery_walk_mod,
    harmonic_values,
    harmonic_walk,
    seq_exact,
    seq_mod,
    t_closed_form,
    t_exact,
)

import oracles
from oracles import apery_a_exact, apery_aprime_exact

A_VALUES = [1, 5, 73, 1445, 33001, 819005, 21460825]
APRIME_VALUES = [1, 3, 19, 147, 1251, 11253, 104959]
T_VALUES = [1, 5, 89, 3429, 230481, 23941125, 3555578025]


def test_tabulated_values():
    assert [apery_a_exact(n) for n in range(7)] == A_VALUES
    assert [apery_aprime_exact(n) for n in range(7)] == APRIME_VALUES
    assert [t_exact(n) for n in range(7)] == T_VALUES


def test_sum_and_recurrence_agree():
    # the walk gives (S_{n-1}, S_n), with S_{-1} = 0
    for n in range(101):
        for sid, exact in ((SeqId.A, apery_a_exact), (SeqId.APRIME, apery_aprime_exact)):
            assert apery_neighbours(sid, n) == (exact(n - 1) if n else 0, exact(n)), (sid, n)


def test_recurrences_reject_negative_index():
    for n in (-1, -2, -5):
        for sid in (SeqId.A, SeqId.APRIME):
            with pytest.raises(ValueError, match="need n >= 0"):
                apery_neighbours(sid, n)
            with pytest.raises(ValueError, match="need n >= 0"):
                seq_exact(sid, n)


def test_seq_exact_matches_direct_sums():
    for n in range(301):
        assert seq_exact(SeqId.A, n) == apery_a_exact(n)
        assert seq_exact(SeqId.APRIME, n) == apery_aprime_exact(n)


def test_t_closed_form_small():
    assert t_closed_form(0) == 1
    assert t_closed_form(1) == 5
    assert t_closed_form(2) == 89


def test_t_dual_route():
    for n in range(81):
        q = t_closed_form(n)
        assert q.denominator == 1 and q == t_exact(n)


def c_pair(m):
    return seq_exact(SeqId.CBIG, m), seq_exact(SeqId.CPRIME, m)


def test_c_coeffs():
    assert c_pair(1) == (-7, -5)
    assert c_pair(2) == (-824, -280)
    assert c_pair(7) == (-283311265195, -652953665)
    for sid in (SeqId.CBIG, SeqId.CPRIME):
        with pytest.raises(ValueError, match="need n >= 1"):
            seq_exact(sid, 0)
        with pytest.raises(ValueError, match="need n >= 1"):
            seq_mod(sid, 0, 5, 2)


def test_c_coeffs_match_binomial_sums():
    # C_m = m^3 (A_{m-1} - 17 A_m) / 12 and C'_m = m^3 (A'_{m-1} - 2 A'_m)
    for m in range(1, 201):
        assert c_pair(m) == oracles.c_coeffs(m), m


@pytest.mark.parametrize("sid, walked, value", [
    (SeqId.CBIG, SeqId.A, -283311265195),
    (SeqId.CPRIME, SeqId.APRIME, -652953665),
])
def test_seq_exact_c_walks_its_own_sequence_once(monkeypatch, sid, walked, value):
    calls = []
    real = sequences.apery_neighbours

    def recorded(s, n):
        calls.append((SeqId(s), n))
        return real(s, n)

    monkeypatch.setattr(sequences, "apery_neighbours", recorded)
    assert seq_exact(sid, 7) == value
    assert calls == [(walked, 7)]


def test_harmonic_walk_matches_fraction_sums_across_lcm_rescales():
    # the walk's numerators over its running lcm denominators against sums
    # of fractions.  l = lcm(1..k) gains a prime at k = 9, 25, 27, 49, 81,
    # 121, 125 and 243, and d = lcm(1, 3, ..., 2k-1) at 2k - 1 = those
    h = q = o = o2 = Fraction(0)
    sums = [Fraction(0)] * 4
    gains = {}
    prev = None
    for k, step in enumerate(islice(harmonic_walk(central=True), 251)):
        l, hn, qn, d, on, o2n, central = step
        if k:
            h, q = h + Fraction(1, k), q + Fraction(1, k * k)
            o, o2 = o + Fraction(1, 2 * k - 1), o2 + Fraction(1, (2 * k - 1) ** 2)
            c = Fraction(comb(2 * k, k) ** 3, 64 ** k)
            for i, w in enumerate((1, o, o2, o * o)):
                sums[i] += c * w
            gains[k] = (l // prev[0], d // prev[3])
        assert (Fraction(hn, l), Fraction(qn, l * l)) == (h, q), k
        assert (Fraction(on, d), Fraction(o2n, d * d)) == (o, o2), k
        dens = (64 ** k, 64 ** k * d, 64 ** k * d * d, 64 ** k * d * d)
        assert [Fraction(n, den) for n, den in zip(central, dens)] == sums, k
        prev = step
    for n, prime in ((9, 3), (25, 5), (27, 3), (49, 7), (81, 3), (121, 11), (125, 5), (243, 3)):
        assert gains[n][0] == prime, n
        assert gains[(n + 1) // 2][1] == prime, n
    # the plain walk is the central one without its sums
    plain = list(islice(harmonic_walk(), 251))
    assert [s[:6] for s in plain] == [s[:6] for s in islice(harmonic_walk(True), 251)]
    assert {s[6] for s in plain} == {None}


def test_harmonic_values():
    assert harmonic_values(0) == (0, 0, 0, 0)
    assert harmonic_values(1) == (1, 1, 1, 0)
    h, o, o2, d = harmonic_values(2)
    assert (h, o, o2) == (Fraction(3, 2), Fraction(4, 3), Fraction(10, 9))
    assert d == Fraction(2, 3) == o * o - o2


@pytest.mark.parametrize("sid", [SeqId.H, SeqId.OODD, SeqId.OODD2, SeqId.D])
def test_exact_harmonic_value_forms_three_fractions(monkeypatch, sid):
    # seq_exact reads the walk's n-th step once and forms H_n, O_n and O2_n
    # from it, three Fractions in all, not three per step
    n, made = 300, []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(sequences, "Fraction", counted)
    got = seq_exact(sid, n)
    assert len(made) == 3
    o, o2 = oracles.odd_harmonics(n + 1)[n]
    h = sum(Fraction(1, k) for k in range(1, n + 1))
    assert got == {SeqId.H: h, SeqId.OODD: o, SeqId.OODD2: o2, SeqId.D: o * o - o2}[sid]


def test_seq_mod_spot_values():
    assert seq_mod(SeqId.APRIME, 3, 7, 3).value == 147
    assert seq_mod(SeqId.T, 5, 5, 3).value == 0
    assert seq_mod(SeqId.D, 2, 7, 1).value == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_seq_mod_matches_exact_reduction(p):
    for e in (1, 2, 3):
        m = p ** e
        for n in range(51):
            assert seq_mod(SeqId.A, n, p, e).value == apery_a_exact(n) % m
            assert seq_mod(SeqId.APRIME, n, p, e).value == apery_aprime_exact(n) % m
            assert seq_mod(SeqId.T, n, p, e).value == t_exact(n) % m
        for n in range(0, min(50, p - 1)):
            h = harmonic_values(n)[0]
            got = seq_mod(SeqId.H, n, p, e).value
            assert got * h.denominator % m == h.numerator % m
        # odd-denominator sums stay p-integral only up to (p-1)/2
        for n in range(0, min(50, (p - 1) // 2 + 1)):
            _, o, o2, d = harmonic_values(n)
            for sid, q in ((SeqId.OODD, o), (SeqId.OODD2, o2), (SeqId.D, d)):
                got = seq_mod(sid, n, p, e).value
                assert got * q.denominator % m == q.numerator % m


def test_seq_mod_rejects_p_in_denominator():
    with pytest.raises(NotPIntegral):
        seq_mod(SeqId.H, 5, 5, 1)
    with pytest.raises(NotPIntegral):
        seq_mod(SeqId.OODD, 3, 5, 2)  # term 1/5 at i = 3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_harmonic_seq_mod_matches_reduced_exact_value(p):
    # past n = p - 1 (H) and (p - 1)/2 (O, O2, D) a term has p in its
    # denominator, and such terms may cancel: H_6 = 49/20 is 2 mod 9; n < 200
    # reaches p^2 and p^3 in a denominator for p = 3 and 5
    for n in range(200):
        for sid, q in zip((SeqId.H, SeqId.OODD, SeqId.OODD2, SeqId.D), harmonic_values(n)):
            for e in (1, 2, 3):
                try:
                    want = reduce_rat(q, p, e).value
                except NotPIntegral:
                    with pytest.raises(NotPIntegral, match=f"divisible by {p}"):
                        seq_mod(sid, n, p, e)
                else:
                    assert seq_mod(sid, n, p, e).value == want, (sid, n, e)
    assert seq_mod(SeqId.H, 6, 3, 2).value == 2


def test_seq_mod_does_not_format_a_large_non_integral_value():
    # H_10000 is not 3-integral, and its numerator has past the 4300 digits
    # that Python formats by default: the error names the term, not the value
    with pytest.raises(NotPIntegral, match="denominator 3 divisible by 3"):
        seq_mod(SeqId.H, 10000, 3, 2)


def test_harmonic_seq_mod_reads_no_exact_value(monkeypatch):
    # the harmonic route is modular through and through: no exact value, no
    # reduction of one, also where p divides a denominator
    def refuse(*args):
        raise AssertionError("exact route called")

    for name in ("seq_exact", "harmonic_values", "reduce_rat"):
        monkeypatch.setattr(sequences, name, refuse, raising=False)
    assert seq_mod(SeqId.H, 6, 3, 2).value == 2
    with pytest.raises(NotPIntegral, match="denominator 3 divisible by 3"):
        seq_mod(SeqId.D, 20000, 3, 3)


def test_seq_mod_reduces_c_coeffs():
    # p = 3 divides C's denominator 12: its neighbours are read a digit longer
    for n in range(1, 120):
        c, c_prime = oracles.c_coeffs(n)
        for p, e in product((3, 5, 7, 11, 13), (1, 2, 3, 4)):
            assert seq_mod(SeqId.CBIG, n, p, e).value == c % p ** e, (n, p, e)
            assert seq_mod(SeqId.CPRIME, n, p, e).value == c_prime % p ** e, (n, p, e)
    assert seq_mod(SeqId.CBIG, 7, 3, 3).value == 26


def test_c_seq_mod_reads_no_exact_walk(monkeypatch):
    # C and C' read both neighbours off one apery_pair_mod table, in O(n)
    def refuse(*args):
        raise AssertionError("exact walk called")

    monkeypatch.setattr(sequences, "apery_neighbours", refuse, raising=False)
    assert seq_mod(SeqId.CBIG, 20000, 3, 2).value == 1
    assert seq_mod(SeqId.CPRIME, 20000, 100003, 1).value == 66593


def test_seq_exact_dispatch():
    assert seq_exact(SeqId.A, 5) == 819005
    assert seq_exact(SeqId.T, 4) == 230481
    assert seq_exact(SeqId.CPRIME, 1) == -5
    assert seq_exact(SeqId.D, 2) == Fraction(2, 3)
    assert seq_exact("H", 2) == Fraction(3, 2)


KERNEL_PRIMES = [3, 5, 7, 11, 13, 31, 149]


@st.composite
def kernel_cases(draw, max_n, primes=KERNEL_PRIMES, max_e=7):
    """(n, p, e) with n <= max_n (a bound, or a function of p) drawn at large,
    or next to a multiple of p^2 or p^3, where the factorial valuations of
    n, n + k and n - k jump."""
    p = draw(st.sampled_from(primes))
    e = draw(st.integers(1, max_e))
    if callable(max_n):
        max_n = max_n(p)
    near = sorted({
        j * p ** k + d
        for k in (2, 3)
        for j in range(1, max_n // p ** k + 2)
        for d in (-1, 0, 1)
        if 0 <= j * p ** k + d <= max_n
    })
    anywhere = st.integers(0, max_n)
    n = draw(st.one_of(st.sampled_from(near), anywhere) if near else anywhere)
    return n, p, e


@settings(max_examples=150, deadline=None)
@given(kernel_cases(1500))
@example((1500, 149, 7))
@example((2 * 31 ** 2 - 1, 31, 7))
@example((3 ** 6, 3, 7))
def test_apery_mod_matches_recurrence(case):
    n, p, e = case
    m = p ** e
    assert seq_mod(SeqId.A, n, p, e).value == seq_exact(SeqId.A, n) % m
    assert seq_mod(SeqId.APRIME, n, p, e).value == seq_exact(SeqId.APRIME, n) % m


@settings(max_examples=60, deadline=None)
@given(kernel_cases(300))
def test_apery_mod_matches_direct_sum(case):
    n, p, e = case
    m = p ** e
    assert seq_mod(SeqId.A, n, p, e).value == apery_a_exact(n) % m
    assert seq_mod(SeqId.APRIME, n, p, e).value == apery_aprime_exact(n) % m


def test_seq_mod_rejects_negative_index():
    with pytest.raises(ValueError, match="need n >= 0"):
        seq_mod(SeqId.A, -1, 5, 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_apery_pair_mod_matches_oracles_everywhere(p):
    # every n up to 3p^2 + 4, past the multiples of p^2 where n + k carries
    # and n - k borrows twice, at every precision the lift rows read
    top = 3 * p * p + 4
    exact = [(seq_exact(SeqId.A, n), seq_exact(SeqId.APRIME, n)) for n in range(top + 1)]
    for e in range(1, 9):
        m = p ** e
        table = FactorialTable(p, e)
        for n, (a, b) in enumerate(exact):
            got = apery_pair_mod(n, table)
            assert got == (a % m, b % m), (n, e)
            assert got == (oracles.apery_mod(SeqId.A, n, p, e),
                           oracles.apery_mod(SeqId.APRIME, n, p, e)), (n, e)


@settings(max_examples=120, deadline=None)
@given(kernel_cases(lambda p: 4 * p ** 3, primes=[3, 5], max_e=8))
@example((4 * 5 ** 3, 5, 8))
@example((2 * 3 ** 3 - 1, 3, 8))
def test_apery_pair_mod_matches_oracles_past_p_cubed(case):
    n, p, e = case
    m = p ** e
    got = apery_pair_mod(n, FactorialTable(p, e))
    assert got == (seq_exact(SeqId.A, n) % m, seq_exact(SeqId.APRIME, n) % m)
    assert got == (oracles.apery_mod(SeqId.A, n, p, e), oracles.apery_mod(SeqId.APRIME, n, p, e))


def test_apery_pair_mod_rejects_negative_index():
    with pytest.raises(ValueError, match="need n >= 0"):
        apery_pair_mod(-1, FactorialTable(5, 2))


# each walk's end, past p and p^2; at p = 3 past 27 and 81 too, where v_p(n!)
# steps by 3 and 4
WALK_ENDS = {3: 90, 5: 60, 7: 60, 11: 130, 13: 180, 31: 1000}
# the direct sums cost over a minute to n = 1000, so past this index the
# walk is held against apery_pair_mod alone
DIRECT_SUMS_UP_TO = 200


@pytest.mark.parametrize("p", sorted(WALK_ENDS))
def test_apery_walk_mod_matches_oracles_everywhere(p):
    top = WALK_ENDS[p]
    exact = {SeqId.A: apery_a_exact, SeqId.APRIME: apery_aprime_exact}
    for e in range(1, 9):
        m = p ** e
        walks = {sid: apery_walk_mod(sid, top, FactorialTable(p, e)) for sid in exact}
        for sid, walk in walks.items():
            assert len(walk) == top + 1
            for n in range(min(top, DIRECT_SUMS_UP_TO) + 1):
                assert walk[n] == exact[sid](n) % m, (sid, n, e)
        table = FactorialTable(p, e)
        for n in range(top + 1):
            assert apery_pair_mod(n, table) == (walks[SeqId.A][n], walks[SeqId.APRIME][n]), (n, e)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_apery_walk_mod_ends_anywhere(p):
    # a walk to any end N, 0 and 1 included, is the prefix of a longer one:
    # its start precision e + k v_p(N!) is set by N alone.  A table already
    # extended past N gives the same values.
    top = WALK_ENDS[p]
    for sid in (SeqId.A, SeqId.APRIME):
        for e in (1, 3, 8):
            full = apery_walk_mod(sid, top, FactorialTable(p, e))
            for n in sorted({0, 1, p - 1, p, p + 1, p * p - 1, p * p, p * p + 1, 27, 81}):
                if n <= top:
                    assert apery_walk_mod(sid, n, FactorialTable(p, e)) == full[: n + 1], (sid, n, e)
            table = FactorialTable(p, e)
            table.extend(3 * top)
            assert apery_walk_mod(sid, top // 2, table) == full[: top // 2 + 1]
            assert len(table.val) == 3 * top + 1


def test_both_walks_and_the_walk_cost_read_the_recurrence_row(monkeypatch):
    # each Apery recurrence is stated once, as its row of RECURRENCES: with
    # A's row set to that of A', the exact walk, the walk mod p^e and the planner's
    # walk cost all take A for A'
    def routes(sid):
        return (list(islice(sequences.apery_values(sid), 50)),
                apery_walk_mod(sid, 60, FactorialTable(7, 3)),
                checks._walk_cost(sid, 60, 7, 3))

    a, aprime = routes(SeqId.A), routes(SeqId.APRIME)
    assert all(x != y for x, y in zip(a, aprime))
    monkeypatch.setitem(sequences.RECURRENCES, SeqId.A, sequences.RECURRENCES[SeqId.APRIME])
    assert routes(SeqId.A) == aprime


def test_apery_walk_mod_rejects_negative_index():
    with pytest.raises(ValueError, match="need n >= 0"):
        apery_walk_mod(SeqId.A, -1, FactorialTable(5, 2))
