"""Check registry behavior: spot results, skips, ordering, determinism, CRT."""

import gc
import os
import signal
import time
import weakref
from fractions import Fraction
from itertools import islice, product
from math import comb

import pytest

from aperylab import checks, identities, sequences, special
from aperylab.checks import (
    CENTRAL,
    CHECKS,
    CrtAccumulator,
    Identity,
    Lift,
    Status,
    cm_recovery,
    recover_cm,
    run_check,
    sweep,
)
from aperylab.identities import IdentityOutcome
from aperylab.modring import (
    FactorialTable,
    NotPIntegral,
    Residue,
    prime_info,
    primes_in_range,
    reduce_rat,
)
from aperylab.sequences import (
    SeqId,
    apery_neighbours,
    apery_pair_mod,
    apery_walk_mod,
    harmonic_values,
    seq_exact,
    seq_mod,
    t_values,
)

from oracles import (
    LIFT_WEIGHTS,
    REFERENCE_CM,
    apery_aprime_exact,
    bernoulli_mod_p2,
    central_sums,
    euler_mod,
    pb_pm1_mod,
)


def shifted_table(index):
    """A stand-in for FactorialTable whose unit-row entry at index(p) is
    moved by p when the table is extended over it."""

    class Shifted(FactorialTable):
        def extend(self, n):
            start = len(self.unit)
            super().extend(n)
            i = index(self.p)
            if start <= i <= n:
                self.unit[i] = (self.unit[i] + self.p) % self.modulus

    return Shifted


def shift_apery(monkeypatch, shift, first=lambda q: 0,
                routes=("apery_walk_mod", "apery_pair_mod", "_walk_kinds")):
    """Moves every Apery value a prime task reads at an index n >= first(p)
    by shift(p, e) mod p^e, on the named routes of checks: the walk of one
    sequence (apery_walk_mod), the pair at one index (apery_pair_mod) and the
    A and A' residues that a sweep's exact pass hands its tasks
    (_walk_kinds).  Returns the calls made to them as (route, n), n the
    walk's end, the pair's index or the pass's largest read."""
    calls = []
    real_walk, real_pair = checks.apery_walk_mod, checks.apery_pair_mod
    real_kinds = checks._walk_kinds

    def moved(v, n, q, e):
        return (v + shift(q, e)) % q ** e if n >= first(q) else v

    def walk(sid, n, table):
        calls.append(("apery_walk_mod", n))
        return [moved(v, i, table.p, table.e)
                for i, v in enumerate(real_walk(sid, n, table))]

    def pair(n, table):
        calls.append(("apery_pair_mod", n))
        return tuple(moved(v, n, table.p, table.e) for v in real_pair(n, table))

    def kinds(plan, e):
        calls.append(("_walk_kinds", max((n for ns in plan.values() for n in ns), default=-1)))
        return {
            q: {(kind, n): moved(v, n, q, e) if kind in (SeqId.A, SeqId.APRIME) else v
                for (kind, n), v in values.items()}
            for q, values in real_kinds(plan, e).items()
        }

    for route, fake in (("apery_walk_mod", walk), ("apery_pair_mod", pair),
                        ("_walk_kinds", kinds)):
        if route in routes:
            monkeypatch.setattr(checks, route, fake)
    return calls


def shift_harmonic(monkeypatch, central=None, harmonic=None):
    """Moves the harmonic values a prime task reads on both routes of checks:
    the central sums by central(q, e, sums), and (H_{p-1} mod p^e, Lehmer's
    sum mod p) by harmonic(q, e, values), on the task's own passes
    (_central_sums, _harmonic_sums) and on the residues of a sweep's exact
    harmonic walk (_walk_kinds)."""
    def keep(q, e, values):
        return values

    central, harmonic = central or keep, harmonic or keep
    real_central, real_harmonic = checks._central_sums, checks._harmonic_sums
    real_kinds = checks._walk_kinds
    moves = {SeqId.H: harmonic, CENTRAL: central}

    def kinds(plan, e):
        return {
            q: {(kind, n): moves[kind](q, e, v) if kind in moves else v
                for (kind, n), v in values.items()}
            for q, values in real_kinds(plan, e).items()
        }

    monkeypatch.setattr(checks, "_central_sums",
                        lambda table: central(table.p, table.e, real_central(table)))
    monkeypatch.setattr(checks, "_harmonic_sums",
                        lambda table: harmonic(table.p, table.e, real_harmonic(table)))
    monkeypatch.setattr(checks, "_walk_kinds", kinds)


def plan_of(names, primes, m_list, r_list):
    """(plan, e_max) of the exact pass of a sweep of the named prime rows over
    a list of primes, planned from their read sets as the sweep plans it."""
    rows = [CHECKS[name].runner for name in names]
    e = checks._e_max(rows, r_list)
    reads = {p: checks._prime_reads(rows, p, m_list, r_list, checks._size_cap())
             for p in primes}
    return checks._plan_kinds(reads, e), e


def test_registry_shape():
    assert len(CHECKS) == 30
    assert CHECKS["thm2.1i"].status is Status.THEOREM
    assert CHECKS["lemma2.4"].status is Status.LEMMA
    assert CHECKS["conj2.5"].status is Status.CONJECTURE


def test_thm21i_spot():
    res = run_check("thm2.1i", 7)
    assert (res.modulus, res.lhs, res.rhs, res.verdict) == (343, 147, 147, "pass")


def test_thm21i_at_p3():
    res = run_check("thm2.1i", 3)
    assert (res.modulus, res.lhs, res.rhs, res.verdict) == (27, 3, 3, "pass")


def test_eq13_spots():
    res = run_check("eq1.3", 13)
    assert (res.lhs, res.rhs, res.modulus) == (10, 10, 169)
    res = run_check("eq1.3", 7)
    assert (res.lhs, res.rhs) == (0, 0)
    assert run_check("eq1.3", 3).verdict == "skip"


def test_thm33_spots():
    assert run_check("thm3.3_thalf", 5).lhs == 14
    assert run_check("thm3.3_tpm1", 5).lhs == 6
    res = run_check("thm3.3_tp", 5)
    assert res.lhs == 0 and res.modulus == 125


def test_thm33_tquarter_signs_recorded():
    plus = run_check("thm3.3_tquarter", 7)
    minus = run_check("thm3.3_tquarter", 11)
    assert plus.verdict == "pass" and plus.sign == "+"
    assert minus.verdict == "pass" and minus.sign == "-"
    assert run_check("thm3.3_tquarter", 5).verdict == "skip"


def test_thm33_tquarter_squared_form():
    for pi in primes_in_range(3, 200):
        if pi.klass != 3:
            continue
        p = pi.p
        t = seq_mod(SeqId.T, (p - 3) // 4, p, 1).value
        small = comb((p - 3) // 2, (p - 3) // 4)
        big = comb((p - 1) // 2, (p - 3) // 4)
        assert t * t % p == pow(4 * small * small, -1, p)
        assert t * t % p == pow(big * big, -1, p)


def test_beukers_spot_and_modulus_law():
    res = run_check("beukers_aprime", 5, 1, 1)
    assert apery_aprime_exact(4) == 1251
    assert (res.lhs, res.rhs, res.modulus) == (1, 1, 125)
    assert run_check("beukers_a", 5, 1, 2).modulus == 5 ** 6
    assert run_check("liu_a", 5, 1, 1).modulus == 5 ** 4
    assert run_check("liu_a", 5, 1, 2).modulus == 5 ** 7
    assert run_check("conj2.3", 7, 1, 1).modulus == 7 ** 5


def test_size_cap_skip(monkeypatch):
    monkeypatch.setenv(checks.SIZE_CAP_ENV, "50")
    res = run_check("beukers_a", 11, 1, 2)
    assert res.verdict == "skip" and "size cap" in res.skip_reason


def test_default_size_cap_reaches_r2(monkeypatch):
    # index 47^2 - 1 = 2208 lies above the old cap of 2000
    monkeypatch.delenv(checks.SIZE_CAP_ENV, raising=False)
    res = run_check("beukers_a", 47, 1, 2)
    assert res.verdict == "pass"
    assert res.lhs == seq_exact(SeqId.A, 2208) % 47 ** 6


LIFT_CHECKS = [
    "beukers_a", "beukers_aprime", "liu_a", "liu_aprime",
    "conj2.2", "conj2.3", "conj2.4", "conj2.5",
]


@pytest.mark.parametrize("name", LIFT_CHECKS)
@pytest.mark.parametrize("p, m", [(7, 1), (11, 2), (13, 3)])
def test_lift_checks_fail_when_kernel_is_perturbed(monkeypatch, name, p, m):
    # the task walks its r = 1 indices or reads them by pair, as costs
    # decide, so both routes are moved
    assert run_check(name, p, m, 1).verdict == "pass"
    hi = m * p - 1  # the smaller of the two r = 1 upper indices, m p - 1 and m p
    shift_apery(monkeypatch, lambda q, e: q ** (e - 1), lambda q: hi)
    assert run_check(name, p, m, 1).verdict == "fail"


@pytest.mark.parametrize("name", LIFT_CHECKS)
@pytest.mark.parametrize("p, m", [(17, 1), (19, 2)])
def test_r2_lift_checks_fail_when_pair_kernel_is_perturbed(monkeypatch, name, p, m):
    # at r = 2 the upper index m p^2 + shift is one large read, which the
    # task leaves to apery_pair_mod; only that route is moved
    assert run_check(name, p, m, 2).verdict == "pass"
    hi = m * p * p - 1
    calls = shift_apery(monkeypatch, lambda q, e: q ** (e - 1), lambda q: hi,
                        routes=("apery_pair_mod",))
    assert run_check(name, p, m, 2).verdict == "fail"
    assert ("apery_pair_mod", hi) in calls or ("apery_pair_mod", hi + 1) in calls


def test_central_sums_match_exact_sums():
    # sum_k binom(2k,k)^3/64^k (1, O_k, O2_k, O_k^2) over k = 1..(p-1)/2 against
    # exact fractions, at every precision a task asks for: 3r + 2 = 8 at r = 2
    for pi in primes_in_range(3, 59):
        p = pi.p
        exact = [Fraction(0)] * 4
        for k in range(1, (p - 1) // 2 + 1):
            _, o, o2, _ = harmonic_values(k)
            c = Fraction(comb(2 * k, k) ** 3, 64 ** k)
            for i, w in enumerate((1, o, o2, o * o)):
                exact[i] += c * w
        for e in range(1, 9):
            want = tuple(reduce_rat(q, p, e).value for q in exact)
            assert checks._central_sums(FactorialTable(p, e)) == want, (p, e)


def test_central_sums_match_pow_oracle():
    # the table route against the rolled binomial with two inversions per k
    for pi in primes_in_range(3, 399):
        for e in (1, 2, 3, 5, 8):
            got = checks._central_sums(FactorialTable(pi.p, e))
            assert got == central_sums(pi.p, e), (pi.p, e)


def test_glaisher_pb_matches_power_sum():
    # p B_{p-1} = (p-1)! + p (mod p^2), read off a table at p^2 and at p^5
    for pi in primes_in_range(3, 1999):
        want = pb_pm1_mod(pi.p)
        for e in (2, 5):
            assert checks._PrimeValues(prime_info(pi.p), e).pb == want, (pi.p, e)


def test_lemma24_sum_matches_exact():
    # the full k < p sum, including the terms that p divides
    for pi in primes_in_range(3, 59):
        p = pi.p
        exact = sum(Fraction(comb(2 * k, k) ** 3, 64 ** k) for k in range(p))
        assert run_check("lemma2.4", p).lhs == reduce_rat(exact, p, 3).value


@pytest.mark.parametrize(
    "name, p",
    [
        ("thm2.1ii", 13), ("conj2.1", 13),  # stated for p = 1 (mod 4) only
        ("lemma2.3", 13), ("lemma2.3", 11),
        ("lemma2.7a", 13), ("lemma2.7a", 11),
        ("lemma2.7b", 13), ("lemma2.7b", 11),
        ("lemma2.4", 11), ("lemma2.4", 13),
    ],
)
def test_central_sum_checks_fail_when_pass_is_perturbed(monkeypatch, name, p):
    # each sum moves by p^(d-1), the top p-adic digit that the row reads;
    # thm2.1ii reads S_OO only mod p, through p^2 S_OO mod p^3
    digits = {"thm2.1ii": 1, "lemma2.3": 3, "lemma2.4": 3, "lemma2.7a": 2,
              "lemma2.7b": 1, "conj2.1": 1}[name]
    assert run_check(name, p).verdict == "pass"
    real = checks._central_sums

    def shifted(table):
        q, e = table.p, table.e
        return tuple((v + q ** (digits - 1)) % q ** e for v in real(table))

    monkeypatch.setattr(checks, "_central_sums", shifted)
    assert run_check(name, p).verdict == "fail"


CENTRAL_ROWS = ["thm2.1ii", "lemma2.3", "lemma2.4", "lemma2.7a", "lemma2.7b", "conj2.1"]


@pytest.mark.parametrize(
    "which, failing",
    [
        (0, {"lemma2.3", "lemma2.4"}),  # S
        (1, {"lemma2.3", "lemma2.7a"}),  # S_O
        (2, {"lemma2.3", "lemma2.7b"}),  # S_O2
        (3, {"thm2.1ii", "lemma2.3", "conj2.1"}),  # S_OO
    ],
)
def test_central_rows_read_exactly_their_sums(monkeypatch, which, failing):
    # one set of central sums per prime, off the sweep's harmonic walk or the
    # task's pass, feeds all six rows; shifting one of its four sums by 1
    # fails exactly the rows that read that sum
    def shifted(q, e, sums):
        sums = list(sums)
        sums[which] = (sums[which] + 1) % q ** e
        return tuple(sums)

    shift_harmonic(monkeypatch, central=shifted)
    got = sweep(CENTRAL_ROWS, [11, 13, 17, 19, 29])
    assert len(got) == 6 * 5
    for res in got:
        if res.verdict != "skip":
            assert res.verdict == ("fail" if res.check in failing else "pass"), res
    assert {res.check for res in got if res.verdict == "fail"} == failing


@pytest.mark.parametrize(
    "name, p",
    [
        ("thm2.1ii", 13), ("lemma2.6", 13), ("conj2.1", 13), ("lemma2.7b", 13),
        ("lemma2.5", 13), ("lemma2.5", 11),
    ],
)
def test_euler_checks_fail_when_euler_value_is_perturbed(monkeypatch, name, p):
    assert run_check(name, p).verdict == "pass"
    real = special.euler_pm3_mod

    def shifted(q):
        return (real(q) + 1) % q

    # the rows read E_{p-3} off Lehmer's sum, which moving by 1 moves E by
    # +-1/4; lemma2.5 reads it inside special.gamma_quarter_closed_form
    shift_harmonic(monkeypatch, harmonic=lambda q, e, v: (v[0], (v[1] + 1) % q))
    monkeypatch.setattr(special, "euler_pm3_mod", shifted)
    assert run_check(name, p).verdict == "fail"


@pytest.mark.parametrize("name", ["thm3.3_tpm1", "thm3.3_thalf", "thm3.3_thalfp1"])
@pytest.mark.parametrize("p", [11, 13])
def test_thm33_checks_fail_when_pb_value_is_perturbed(monkeypatch, name, p):
    # p B_{p-1} is (p-1)! + p off the task's table: moving U[p-1] by p moves it by p
    assert run_check(name, p).verdict == "pass"
    monkeypatch.setattr(checks, "FactorialTable", shifted_table(lambda q: q - 1))
    assert run_check(name, p).verdict == "fail"


def test_prime_sweep_fails_when_eq22_table_row_is_shifted(monkeypatch):
    # id_eq2.2 reads the task's table: (h+1)! with h = (p-1)/2 is the lhs
    # numerator at k = 1 only
    primes = [5, 7, 13, 101]
    assert all(r.verdict == "pass" for r in sweep(["id_eq2.2", "thm3.3_tp"], primes))
    monkeypatch.setattr(checks, "FactorialTable", shifted_table(lambda q: (q - 1) // 2 + 1))
    got = sweep(["id_eq2.2", "thm3.3_tp"], primes)
    assert [(r.check, r.p, r.m, r.verdict) for r in got if r.check == "id_eq2.2"] == [
        ("id_eq2.2", q, 1, "fail") for q in primes
    ]
    assert all(r.verdict == "pass" for r in got if r.check == "thm3.3_tp")


@pytest.mark.parametrize(
    "name, p",
    [
        ("eq1.3", 7), ("eq1.3", 13), ("thm2.1i", 7), ("thm2.1i", 19),
        ("thm2.1ii", 13), ("thm2.1ii", 17), ("lemma2.3", 11), ("lemma2.3", 13),
        ("thm3.3_tp", 11), ("thm3.3_tp", 13),
        ("thm3.3_tpm1", 11), ("thm3.3_tpm1", 13),
        ("thm3.3_thalf", 11), ("thm3.3_thalf", 13),
        ("thm3.3_thalfp1", 11), ("thm3.3_thalfp1", 13),
        # not 23: there the shifted t_{(p-3)/4} is the other accepted sign
        ("thm3.3_tquarter", 7), ("thm3.3_tquarter", 11), ("thm3.3_tquarter", 19),
    ],
)
def test_prime_checks_fail_when_seq_value_is_perturbed(monkeypatch, name, p):
    # the t rows read t_0..t_p from one t_values walk, the others A'_{(p-1)/2}
    # from the walk of A' (apery_walk_mod), and each Apery route is moved;
    # either value is shifted by p^(e-1) at the row's precision e
    assert run_check(name, p).verdict == "pass"
    if name.startswith("thm3.3"):
        real_t = checks.t_values

        def walk(modulus):
            return ((t + modulus // p) % modulus for t in real_t(modulus))

        monkeypatch.setattr(checks, "t_values", walk)
    else:
        shift_apery(monkeypatch, lambda q, e: q ** (e - 1))
    assert run_check(name, p).verdict == "fail"


@pytest.mark.parametrize(
    "name, p",
    [
        ("lemma2.5", 11), ("lemma2.5", 13),
        ("lemma2.7a", 11), ("lemma2.7a", 19),  # Gamma_p enters only for p = 3 (mod 4)
        ("lemma2.7b", 11), ("lemma2.7b", 13),
    ],
)
def test_gamma_checks_fail_when_gamma_value_is_perturbed(monkeypatch, name, p):
    assert run_check(name, p).verdict == "pass"
    real = checks.padic_gamma

    def shifted(x, q, e):
        return Residue(real(x, q, e).value + q ** (e - 1), q, e)

    monkeypatch.setattr(checks, "padic_gamma", shifted)
    assert run_check(name, p).verdict == "fail"


def test_lemma27a_past_the_old_gamma_budget():
    # 1423 = 3 (mod 4) and 1423^2 > GAMMA_STEP_LIMIT: Gamma_p(1/4) mod p suffices
    assert 1423 ** 2 > special.GAMMA_STEP_LIMIT
    res = run_check("lemma2.7a", 1423)
    assert res.verdict == "pass" and res.modulus == 1423 ** 2


@pytest.mark.parametrize("name", ["liu_a", "liu_aprime", "conj2.3", "conj2.4", "conj2.5"])
@pytest.mark.parametrize("p, m", [(11, 1), (13, 2)])
def test_lift_checks_fail_when_bernoulli_value_is_perturbed(monkeypatch, name, p, m):
    assert run_check(name, p, m, 1).verdict == "pass"
    # B is read off H_{p-1} = -p^2 bracket: a shift by p^2 p^(e - 3r - 1)
    # moves the bracket by p^(e - 3r - 1), the least shift the correction
    # term can still see, and B_{p-3} = 3 bracket (mod p) with it
    delta = p ** (CHECKS[name].runner.extra + 1)
    shift_harmonic(monkeypatch, harmonic=lambda q, e, v: ((v[0] + delta) % q ** e, v[1]))
    assert run_check(name, p, m, 1).verdict == "fail"


def in_process_stripes(started):
    """A stand-in for checks._run_stripes that records the stripe count in
    `started` and runs every task in-process, in task order."""

    def run_stripes(tasks, workers):
        started.append(workers)
        return [checks._run_task(t) for t in tasks]

    return run_stripes


@pytest.mark.parametrize(
    "jobs, cpus, primes, workers",
    [
        (10**6, 4, (3, 30), 4),  # 9 tasks: bounded by the CPU count
        (3, 4, (3, 30), 3),
        (10**6, None, (3, 30), None),  # unknown CPU count: one process
        (8, 4, (3, 5), 2),  # bounded by the task count
        (8, 4, (3, 3), None),  # a single task runs in-process
    ],
)
def test_sweep_bounds_workers(monkeypatch, jobs, cpus, primes, workers):
    # usable_cpus reads the CPU count where the platform has no affinity mask
    started = []
    monkeypatch.setattr(checks, "_run_stripes", in_process_stripes(started))
    monkeypatch.delattr(checks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
    got = sweep(["thm3.3_tp"], primes, jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert got == sweep(["thm3.3_tp"], primes, jobs=1)


def test_sweep_bounds_workers_by_the_affinity_mask(monkeypatch):
    # four CPUs, of which this process may run on one (as under taskset -c 0)
    started = []
    monkeypatch.setattr(checks, "_run_stripes", in_process_stripes(started))
    monkeypatch.setattr(checks.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert checks.usable_cpus() == 1
    got = sweep(["thm3.3_tp"], (3, 30), jobs=4)
    assert started == []
    assert got == sweep(["thm3.3_tp"], (3, 30), jobs=1)


def no_child_left():
    # waitpid raises ChildProcessError only once this process has no child
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def faulty_eq22(monkeypatch, fault):
    """Patches eq2.2's verifier (identities.eq22_congruence) to call fault(p)
    first, in this process and in every child forked from it; id_eq2.2 runs
    it at every p, inside the prime's task."""
    real = identities.eq22_congruence

    def eq22_congruence(p, table):
        fault(p)
        return real(p, table)

    monkeypatch.setattr(identities, "eq22_congruence", eq22_congruence)


# 3..30 is nine tasks.  With two stripes 3, 7, 13, 19, 29 run in this process
# and 5, 11, 17, 23 in the child; with three 3, 11, 19 run here.
@pytest.mark.parametrize("bad", [(11, 13), (7, 11)])
def test_sweep_raises_the_earliest_failing_task_at_any_jobs(monkeypatch, bad):
    def fault(p):
        if p in bad:
            raise ValueError(f"planted fault at p = {p}")

    faulty_eq22(monkeypatch, fault)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 4)
    for jobs in (1, 2, 3):
        with pytest.raises(ValueError) as exc:
            sweep(["id_eq2.2"], (3, 30), jobs=jobs)
        assert str(exc.value) == f"planted fault at p = {bad[0]}"
        no_child_left()


def test_sweep_names_the_exit_status_of_a_dead_child(monkeypatch):
    parent = os.getpid()

    def fault(p):
        if p == 11 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    faulty_eq22(monkeypatch, fault)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 4)
    with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL}"):
        sweep(["id_eq2.2"], (3, 30), jobs=2)
    no_child_left()


def test_sweep_interrupted_in_its_own_stripe_kills_the_children(monkeypatch):
    parent = os.getpid()

    def fault(p):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still at work

    faulty_eq22(monkeypatch, fault)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 4)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep(["id_eq2.2"], (3, 30), jobs=3)
    assert time.monotonic() - t0 < 30
    no_child_left()


def test_sweep_re_raises_not_p_integral_from_a_child(monkeypatch):
    # 11 is in the child's stripe at two workers; its NotPIntegral, message
    # and valuation, comes back through the pipe
    parent = os.getpid()

    def fault(p):
        if p == 11 and os.getpid() != parent:
            raise NotPIntegral(f"planted at p = {p}", -2)

    faulty_eq22(monkeypatch, fault)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 4)
    with pytest.raises(NotPIntegral) as exc:
        sweep(["id_eq2.2"], (3, 30), jobs=2)
    assert (str(exc.value), exc.value.valuation) == ("planted at p = 11", -2)
    no_child_left()


def test_sweep_without_fork_runs_in_process(monkeypatch):
    want = sweep(["thm3.3_tp", "eq1.3"], (3, 30), jobs=1)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 4)
    monkeypatch.delattr(checks.os, "fork")
    assert sweep(["thm3.3_tp", "eq1.3"], (3, 30), jobs=4) == want


# one of each record and registry row type, with a field to assign; each is
# made when its test runs, so a fault on the prime path fails that test
# rather than the collection of this module
FROZEN_RECORDS = [
    pytest.param(lambda: CHECKS["beukers_a"], "name", id="CheckDef"),
    pytest.param(lambda: CHECKS["liu_a"].runner, "weight", id="Lift"),
    pytest.param(lambda: CHECKS["thm2.1i"].runner, "e", id="AtPrime"),
    pytest.param(lambda: CHECKS["id_gf"].runner, "max_n", id="Identity"),
    pytest.param(lambda: run_check("thm2.1i", 7), "verdict", id="CheckResult"),
    pytest.param(lambda: prime_info(13), "klass", id="PrimeInfo"),
    pytest.param(lambda: IdentityOutcome(True, 1, 5, 5), "ok", id="IdentityOutcome"),
]


@pytest.mark.parametrize("make, field", FROZEN_RECORDS)
def test_records_and_rows_are_immutable(make, field):
    # a sweep's rows and records are shared values: none may be edited in place
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == before


def _per_row(names, primes, m_list, r_list):
    """The canonical order of a sweep, one run_check call per record."""
    out = []
    for name in names:
        lift = isinstance(CHECKS[name].runner, Lift)
        for p in primes:
            if lift:
                out.extend(run_check(name, p, m, r) for m in m_list for r in r_list)
            else:
                out.append(run_check(name, p))
    return out


# every row that runs at a prime: all but the fixed-range identities
PRIME_ROWS = [
    name for name, cd in CHECKS.items()
    if not (isinstance(cd.runner, Identity) and cd.runner.max_n is not None)
]


@pytest.mark.parametrize(
    "names, jobs",
    [
        pytest.param(LIFT_CHECKS, 1, id="1"),
        pytest.param(LIFT_CHECKS, 2, id="2"),
        pytest.param(PRIME_ROWS, 1, id="prime-rows-1"),
        pytest.param(PRIME_ROWS, 2, id="prime-rows-2"),
    ],
)
def test_lift_sweep_matches_per_row_run_check(monkeypatch, names, jobs):
    # m and r unsorted on purpose: the task keeps the given list order.  In
    # the sweep every row at p reads its values at the largest precision of
    # all of them; run_check reads at the row's own.
    started = []
    monkeypatch.setattr(checks, "_run_stripes", in_process_stripes(started))
    monkeypatch.setattr(checks, "usable_cpus", lambda: 2)
    primes = [pi.p for pi in primes_in_range(3, 60)]
    assert {3, 5} <= set(primes) and {p % 4 for p in primes} == {1, 3}
    got = sweep(names, (3, 60), m_list=[3, 1, 7], r_list=[2, 1], jobs=jobs)
    assert started == ([] if jobs == 1 else [2])
    assert got == _per_row(names, primes, [3, 1, 7], [2, 1])
    assert {r.verdict for r in got} == {"pass", "skip"}


def test_prime_task_reads_each_value_once(monkeypatch):
    # per sweep: one exact walk of A, of A' and of t, and one harmonic walk
    # with its central sums, whose residues mod p^e_max are handed to the
    # tasks; per prime: one factorial table, at e_max, which id_eq2.2 reads
    # too; no Apery walk or pair, no t walk and no harmonic pass of its own,
    # and Gamma_p(1/4) mod p at most once
    calls = []
    tables = []
    real_init = FactorialTable.__init__

    def counted_init(table, p, e):
        tables.append((p, e))
        real_init(table, p, e)

    monkeypatch.setattr(FactorialTable, "__init__", counted_init)

    def counted(kernel):
        real = getattr(checks, kernel)

        def wrapper(*args):
            calls.append((kernel, *args))
            return real(*args)

        monkeypatch.setattr(checks, kernel, wrapper)

    for kernel in ("apery_values", "t_values", "_walk_kinds",
                   "apery_walk_mod", "apery_pair_mod", "_central_sums", "_harmonic_sums",
                   "padic_gamma"):
        counted(kernel)
    primes = [pi.p for pi in primes_in_range(3, 60)]
    sweep(PRIME_ROWS, (3, 60), m_list=[1, 2], r_list=[1])
    # the exact walks: apery_values takes the sid, t_values no modulus
    assert sorted(c[1] for c in calls if c[0] == "apery_values") == [SeqId.A, SeqId.APRIME]
    assert [c for c in calls if c[0] == "t_values"] == [("t_values",)]
    assert not [c for c in calls if c[0] in ("apery_walk_mod", "apery_pair_mod")]
    # one exact pass, at e_max = 3r + 2 = 5, from conj2.3 and conj2.4 at
    # r = 1: A, A', t and the harmonic walk with its central sums, whose
    # values every prime reads at (p - 1)/2
    walks = [c[1:] for c in calls if c[0] == "_walk_kinds"]
    assert [(list(plan), e) for plan, e in walks] == [
        ([SeqId.A, SeqId.APRIME, SeqId.T, CENTRAL], 5)]
    assert sorted(q for ps in walks[0][0][CENTRAL].values() for q in ps) == primes
    assert not [c for c in calls if c[0] in ("_central_sums", "_harmonic_sums")]
    for q in primes:
        assert [t for t in tables if t[0] == q] == [(q, 5)], q
        assert calls.count(("padic_gamma", Fraction(1, 4), q, 1)) <= 1
    assert any(c[0] == "padic_gamma" and c[3] == 1 for c in calls)


def test_prime_task_tables_die_with_their_task(monkeypatch):
    # each prime task builds one table, at 3r = 6, for lemma2.3's central
    # sums, and no cache keeps it (beukers_a reads the sweep's exact pass)
    made = []
    real_init = FactorialTable.__init__

    def tracked_init(table, p, e):
        real_init(table, p, e)
        made.append((p, e, weakref.ref(table)))

    monkeypatch.setattr(FactorialTable, "__init__", tracked_init)
    sweep(["beukers_a", "lemma2.3"], [5, 7], r_list=[2])
    gc.collect()
    assert [(p, e) for p, e, _ in made] == [(5, 6), (7, 6)]
    assert [ref() for *_, ref in made] == [None, None]


def test_no_check_reduces_a_value_that_is_not_p_integral():
    # the check path inverts a Lift weight's d, which divides 18, mod p^2
    # only at p > 3, and takes Gamma_p only at 1/4 for odd p; so no
    # NotPIntegral leaves a sweep, and verify's errors all exit 2
    lifts = [cd.runner for cd in CHECKS.values() if isinstance(cd.runner, Lift)]
    assert all(row.p_above >= 3 for row in lifts)
    assert all(18 % row.weight[2] == 0 for row in lifts if row.weight)
    got = sweep(list(CHECKS), (3, 13), m_list=[1, 2, 3, 5, 6], r_list=[1, 2])
    assert {res.verdict for res in got} == {"pass", "skip"}


def test_prime_sweep_fails_when_euler_value_is_perturbed(monkeypatch):
    # the rows share one E_{p-3} per prime, off Lehmer's sum; each must still
    # see the shift
    names, primes = ["thm2.1ii", "lemma2.6", "lemma2.7b", "conj2.1"], [13, 17, 29]
    assert all(r.verdict == "pass" for r in sweep(names, primes))
    shift_harmonic(monkeypatch, harmonic=lambda q, e, v: (v[0], (v[1] + 1) % q))
    got = sweep(names, primes)
    assert len(got) == 4 * 3
    assert all(r.verdict == "fail" for r in got)


def test_lift_sweep_under_size_cap_matches_per_row_run_check(monkeypatch):
    # at p = 7 the cap of 200 passes every r = 1 index and skips 7 * 7^2 - 1
    monkeypatch.setenv(checks.SIZE_CAP_ENV, "200")
    got = sweep(LIFT_CHECKS, [5, 7, 11], m_list=[3, 1, 7], r_list=[2, 1])
    assert got == _per_row(LIFT_CHECKS, [5, 7, 11], [3, 1, 7], [2, 1])
    at7 = [r for r in got if r.p == 7 and r.check == "beukers_a"]
    assert {r.verdict for r in at7} == {"pass", "skip"}
    assert any("size cap" in (r.skip_reason or "") for r in at7)


def test_lift_task_reads_each_value_once(monkeypatch):
    # one precision per prime, one exact walk per sequence per sweep, in each
    # task at most one walk per sequence and each pair index once for both
    # sequences; B off one exact harmonic walk, read at every prime
    apery_calls, pass_calls, tasks = [], [], []
    real_walk, real_pair = checks.apery_walk_mod, checks.apery_pair_mod
    real_kinds = checks._walk_kinds
    real_values = checks._PrimeValues

    def walk(sid, n, table):
        apery_calls.append((sid, table.p, table.e))
        return real_walk(sid, n, table)

    def pair(n, table):
        apery_calls.append((n, table.p, table.e))
        return real_pair(n, table)

    def refuse(table):
        raise AssertionError(f"a harmonic pass at p = {table.p}")

    def kinds(plan, e):
        pass_calls.append((plan, e))
        return real_kinds(plan, e)

    def values(pi, e_max, handed):
        tasks.append((pi.p, e_max))
        return real_values(pi, e_max, handed)

    monkeypatch.setattr(checks, "apery_walk_mod", walk)
    monkeypatch.setattr(checks, "apery_pair_mod", pair)
    monkeypatch.setattr(checks, "_harmonic_sums", refuse)
    monkeypatch.setattr(checks, "_walk_kinds", kinds)
    monkeypatch.setattr(checks, "_PrimeValues", values)
    primes = [pi.p for pi in primes_in_range(7, 40)]
    sweep(LIFT_CHECKS, (7, 40), m_list=[1, 2], r_list=[1, 2])
    assert [(list(plan), e) for plan, e in pass_calls] == [
        ([SeqId.A, SeqId.APRIME, SeqId.H], 8)]
    assert tasks == [(q, 8) for q in primes]
    assert len(apery_calls) == len(set(apery_calls))
    assert {(q, e) for _, q, e in apery_calls} <= {(q, 8) for q in primes}
    assert pass_calls[0][0][SeqId.H] == {(q - 1) // 2: [q] for q in primes}


def test_lift_sweep_fails_when_kernel_is_perturbed(monkeypatch):
    primes, m_list = [7, 11, 13], [1, 2, 3]
    assert all(r.verdict == "pass" for r in sweep(LIFT_CHECKS, primes, m_list=m_list))
    # each task reads its values mod p^5, the largest r = 1 precision, off
    # the sweep's exact pass or its own routes; a shift by q^2 is still seen
    # mod p^3, the least one.  The upper indices m q - 1 and m q are at least
    # q - 1; the lower ones, m - 1 and m, not.
    shift_apery(monkeypatch, lambda q, e: q * q, lambda q: q - 1)
    got = sweep(LIFT_CHECKS, primes, m_list=m_list)
    assert len(got) == 8 * 3 * 3
    assert all(r.verdict == "fail" for r in got)


# the rows of the benchmark's primes workload (perfbench/run.py)
PRIMES_WORKLOAD_ROWS = [
    "eq1.3", "thm2.1i", "thm2.1ii", "lemma2.3", "lemma2.4", "lemma2.5", "lemma2.6",
    "lemma2.7a", "lemma2.7b", "conj2.1", "thm3.3_tp", "thm3.3_tpm1", "thm3.3_thalf",
    "thm3.3_thalfp1", "thm3.3_tquarter", "id_eq2.2",
]


def test_r1_lift_and_prime_rows_read_no_pair(monkeypatch):
    # every r = 1 index and A'_{(p-1)/2} comes off the walks: apery_pair_mod
    # is never called
    lifts = sweep(LIFT_CHECKS, (7, 40), m_list=range(1, 7), r_list=[1])
    rows = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))

    def refuse(n, table):
        raise AssertionError(f"apery_pair_mod({n}) at p = {table.p}")

    monkeypatch.setattr(checks, "apery_pair_mod", refuse)
    got = sweep(LIFT_CHECKS, (7, 40), m_list=range(1, 7), r_list=[1])
    assert got == lifts and {res.verdict for res in got} == {"pass"}
    got = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))
    assert got == rows and {res.verdict for res in got} == {"pass", "skip"}


def test_r2_sweep_pairs_only_upper_indices(monkeypatch):
    # over a range of m the lower indices m p + shift and the weights' m - 1
    # and m come off the walks; apery_pair_mod reads only upper indices
    # m p^2 + shift, which start at p^2 - 1, where the exact pass does not
    # hand them
    calls = []
    real = checks.apery_pair_mod

    def pair(n, table):
        calls.append((n, table.p))
        return real(n, table)

    monkeypatch.setattr(checks, "apery_pair_mod", pair)
    got = sweep(LIFT_CHECKS, (7, 60), m_list=[1, 2, 3], r_list=[2])
    assert {res.verdict for res in got} == {"pass"}
    assert calls and all(n >= q * q - 1 for n, q in calls)


@pytest.mark.parametrize("names, primes, m_list, r_list", [
    pytest.param(LIFT_CHECKS, (7, 100), [1, 2, 3], [2], id="lifts-r2"),
    pytest.param(LIFT_CHECKS, (5, 40), [1, 2, 3], [1, 2], id="lifts-r12"),
    pytest.param(list(CHECKS), (9973, 9973), range(1, 7), [1], id="all-9973"),
])
def test_task_walks_below_p2_and_pairs_at_and_above(monkeypatch, names, primes, m_list, r_list):
    # a task walks each of A and A' once, to its largest read below p^2 - 1
    # that the exact pass does not hand, and pairs exactly the reads at or
    # above p^2 - 1 that it does not hand
    walks, pairs, handed = [], [], {}
    real_walk, real_pair, real_kinds = (
        checks.apery_walk_mod, checks.apery_pair_mod, checks._walk_kinds)

    def walk(sid, n, table):
        walks.append((table.p, sid, n))
        return real_walk(sid, n, table)

    def pair(n, table):
        pairs.append((table.p, n))
        return real_pair(n, table)

    def kinds(plan, e):
        handed.update(real_kinds(plan, e))
        return handed

    monkeypatch.setattr(checks, "apery_walk_mod", walk)
    monkeypatch.setattr(checks, "apery_pair_mod", pair)
    monkeypatch.setattr(checks, "_walk_kinds", kinds)
    got = sweep(names, primes, m_list=m_list, r_list=r_list)
    assert {res.verdict for res in got} - {"skip"} == {"pass"}
    rows, want_walks, want_pairs = [CHECKS[name].runner for name in names], [], []
    for p in [pi.p for pi in primes_in_range(*primes)]:
        reads = checks._prime_reads(rows, p, m_list, r_list, checks._size_cap())
        upper = set()
        for sid in (SeqId.A, SeqId.APRIME):
            left = {n for n in reads.get(sid, ()) if (sid, n) not in handed.get(p, {})}
            below = {n for n in left if n < p * p - 1}
            if below:
                want_walks.append((p, sid, max(below)))
            upper |= left - below
        want_pairs.extend((p, n) for n in upper)
    assert sorted(walks) == sorted(want_walks)
    assert sorted(pairs) == sorted(want_pairs)
    assert walks or pairs
    assert bool(pairs) == (2 in r_list)


def task_route(sid, p, e, top):
    """S_0..S_top mod p^e by the routes a prime task takes on its own."""
    if sid is SeqId.T:
        return list(islice(t_values(p ** e), top + 1))
    return apery_walk_mod(sid, top, FactorialTable(p, e))


@pytest.mark.parametrize("sid", [SeqId.A, SeqId.APRIME, SeqId.T])
def test_exact_pass_matches_the_task_walks_past_27_and_81_at_p3(sid):
    # v_3(n!) jumps by 3 at 27 and by 4 at 81, where the walks mod 3^e
    # divide the most digits out
    for e in range(1, 9):
        got = checks._walk_kinds({sid: {n: [3] for n in range(101)}}, e)
        assert [got[3][sid, n] for n in range(101)] == task_route(sid, 3, e, 100), e


@pytest.mark.parametrize("e", range(1, 9))
def test_exact_pass_matches_the_task_routes_next_to_p_and_p2(e):
    # the Lift reads m p^r + shift for m <= 12 and r <= 2, each with its
    # neighbours (so the r = 2 lower indices m p + shift too), and the
    # weights' m - 1 and m, up to e = 3r + 2 = 8; one pass serves every prime
    primes = [5, 7, 11, 13]
    reads = {p: {m * p ** r + s for m in range(1, 13) for r in (1, 2) for s in (-1, 0, 1)}
             | set(range(13)) for p in primes}
    readers = {}
    for p in primes:
        for n in reads[p]:
            readers.setdefault(n, []).append(p)
    got = checks._walk_kinds({SeqId.A: readers, SeqId.APRIME: readers}, e)
    for p in primes:
        assert set(got[p]) == {(sid, n) for sid in (SeqId.A, SeqId.APRIME) for n in reads[p]}
        table = FactorialTable(p, e)
        for sid in (SeqId.A, SeqId.APRIME):
            walk = apery_walk_mod(sid, 12 * p * p + 1, table)
            assert all(got[p][sid, n] == walk[n] for n in reads[p]), (p, sid)
        for n in (p - 1, p, p * p - 1, p * p, p * p + 1, 12 * p * p):
            assert apery_pair_mod(n, table) == (got[p][SeqId.A, n], got[p][SeqId.APRIME, n])


def test_exact_pass_hands_t_at_a_quarter():
    # thm3.3_tquarter reads t_{(p-3)/4}: t_0 at p = 3, t_1 at p = 7
    plan, e_max = plan_of(["thm3.3_tquarter"], [3, 7], [1], [1])
    assert (plan, e_max) == ({SeqId.T: {0: [3], 1: [7]}}, 1)
    for e in range(1, 9):
        got = checks._walk_kinds(plan, e)
        assert got == {3: {(SeqId.T, 0): task_route(SeqId.T, 3, e, 0)[0]},
                       7: {(SeqId.T, 1): task_route(SeqId.T, 7, e, 1)[1]}}


def test_sweeps_at_small_primes_read_only_the_exact_pass(monkeypatch):
    # with the tasks' own Apery and t routes refused, the lift rows and the
    # primes workload's rows at p <= 60 pass as before: every read is handed
    lifts = sweep(LIFT_CHECKS, (5, 60), m_list=range(1, 7), r_list=[1])
    rows = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))
    real_t = checks.t_values

    def refuse(*args):
        raise AssertionError(f"a task's own route read {args}")

    def t_values(modulus=0):
        if modulus:
            refuse(modulus)
        return real_t()

    monkeypatch.setattr(checks, "apery_walk_mod", refuse)
    monkeypatch.setattr(checks, "apery_pair_mod", refuse)
    monkeypatch.setattr(checks, "t_values", t_values)
    got = sweep(LIFT_CHECKS, (5, 60), m_list=range(1, 7), r_list=[1])
    assert got == lifts and {res.verdict for res in got} == {"pass", "skip"}
    got = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))
    assert got == rows and {res.verdict for res in got} == {"pass", "skip"}


def test_lone_large_prime_keeps_the_task_walk(monkeypatch):
    # an exact walk to m p costs O((m p)^2) bits: at p = 9973 and m <= 6 the
    # task's walks mod p^5 cost less, while p <= 10^4 at m = 1 takes the pass
    # for every read, and the harmonic walk for every B
    assert plan_of(LIFT_CHECKS, [9973], range(1, 7), [1]) == ({}, 5)
    primes = [pi.p for pi in primes_in_range(3, 10 ** 4)]
    plan, _ = plan_of(LIFT_CHECKS, primes, [1], [1])
    assert {kind: max(readers) for kind, readers in plan.items()} == {
        SeqId.A: 9973, SeqId.APRIME: 9973, SeqId.H: 4986}
    calls = []
    real = checks.apery_walk_mod

    def walk(sid, n, table):
        calls.append((sid, n, table.p))
        return real(sid, n, table)

    def refuse(sid):
        raise AssertionError(f"exact walk of {sid}")

    monkeypatch.setattr(checks, "apery_walk_mod", walk)
    monkeypatch.setattr(checks, "apery_values", refuse)
    got = sweep(["beukers_a"], [9973], m_list=range(1, 7))
    assert calls == [(SeqId.A, 6 * 9973 - 1, 9973)]
    assert [res.verdict for res in got] == ["pass"] * 6


def test_every_value_a_prime_task_reads_is_in_its_read_set(monkeypatch):
    # a task reads each value, handed or off its own route, through
    # _PrimeValues.value, and each is in the read set that the sweep, or
    # run_check, planned it from (_prime_reads); so every A or A' read that
    # reaches the task's walk or pair has a planned reach.  At 9973 nothing
    # is handed, and run_check hands nothing anywhere.
    names = [name for name in CHECKS if not checks.fixed_range(name)]
    m_list, r_list, cap = [1, 2, 3], [1, 2], checks._size_cap()
    read, routed = [], []
    real_value = checks._PrimeValues.value

    def value(at, kind, n):
        read.append((at.p, kind, n))
        return real_value(at, kind, n)

    monkeypatch.setattr(checks._PrimeValues, "value", value)
    for sid in (SeqId.A, SeqId.APRIME):
        row = checks._KINDS[sid]

        def walk_or_pair(at, kind, n, route=row.route):
            assert kind in at.reach, (at.p, kind, n)
            routed.append((at.p, kind, n))
            return route(at, kind, n)

        monkeypatch.setitem(checks._KINDS, sid, row._replace(route=walk_or_pair))

    def assert_planned(p, rows, m_list, r_list):
        planned = {(kind, n) for kind, ns in
                   checks._prime_reads(rows, p, m_list, r_list, cap).items() for n in ns}
        assert {(kind, n) for _, kind, n in read} <= planned, (p, rows, m_list, r_list)
        read.clear()

    for p in (5, 7, 13, 9973):
        assert {res.verdict for res in sweep(names, [p], m_list, r_list)} - {"skip"} == {"pass"}
        assert {q for q, *_ in read} == {p}
        assert_planned(p, [CHECKS[name].runner for name in names], m_list, r_list)
        for name in names:
            row = CHECKS[name].runner
            for m, r in product(m_list, r_list) if isinstance(row, Lift) else [(None, None)]:
                assert run_check(name, p, m, r).verdict in ("pass", "skip")
                assert_planned(p, [row], [m], [r])
    assert {p for p, *_ in routed} == {5, 7, 13, 9973}
    assert (9973, SeqId.APRIME, 4986) in routed


PRIMES_7_3000 = [pi.p for pi in primes_in_range(7, 3000)]


def harmonic_handed(primes, e):
    """The harmonic walk's residues mod p^e, central sums included, for the
    given primes, each read at (p - 1)/2."""
    readers = {}
    for p in primes:
        readers.setdefault((p - 1) // 2, []).append(p)
    return checks._walk_kinds({CENTRAL: readers}, e)


def test_harmonic_walk_matches_the_task_passes():
    # all six values, off one exact walk and off each task's own passes over
    # its table, at every precision from 3 up to a task's 3r + 2 = 8
    for e in range(3, 9):
        walked = harmonic_handed(PRIMES_7_3000, e)
        for p in PRIMES_7_3000:
            table = FactorialTable(p, e)
            got, half = walked[p], (p - 1) // 2
            assert set(got) == {(SeqId.H, half), (CENTRAL, half)}, (p, e)
            assert got[CENTRAL, half] == checks._central_sums(table), (p, e)
            assert got[SeqId.H, half] == checks._harmonic_sums(table), (p, e)
            if e == 4:
                values = checks._PrimeValues(prime_info(p), e, got)
                own = checks._PrimeValues(prime_info(p), e)
                assert (values.b3, values.bracket, values.euler) == (
                    own.b3, own.bracket, own.euler), p


def faulhaber_bracket(p):
    """B_{2p-4}/(2p-4) - 2 B_{p-3}/(p-3) mod p^2 off the Faulhaber oracle."""
    q = p * p
    return (bernoulli_mod_p2(2 * p - 4, p) * pow(2 * p - 4, -1, q)
            - 2 * bernoulli_mod_p2(p - 3, p) * pow(p - 3, -1, q)) % q


def test_harmonic_routes_match_the_bernoulli_and_euler_oracles():
    # B_{p-3} mod p and the bracket mod p^2 against Faulhaber's power sums,
    # and E_{p-3} mod p against Lehmer's pow route and, to 400, the Euler
    # recurrence; each read off the walk and off the task's passes
    walked = harmonic_handed(PRIMES_7_3000, 4)
    for p in PRIMES_7_3000:
        bracket = faulhaber_bracket(p)
        euler = special.euler_pm3_mod(p)
        if p < 400:
            assert euler == euler_mod(p - 3, p).value, p
        for handed in (walked[p], None):
            at = checks._PrimeValues(prime_info(p), 4, handed)
            assert at.b3 == bernoulli_mod_p2(p - 3, p) % p, p
            assert at.bracket == bracket, p
            assert at.euler == euler, p


def test_bernoulli_values_at_p5_are_exact():
    # the congruence for H_{p-1} mod p^4 fails at p = 5: its bracket reads 2,
    # the exact B_6/6 - B_2 reads 17; B_{p-3} and the bracket come from the
    # exact table there, whatever is handed
    assert -(checks._harmonic_sums(FactorialTable(5, 4))[0] // 25) % 25 == 2
    assert faulhaber_bracket(5) == 17
    for handed in (harmonic_handed([5], 4)[5], None):
        at = checks._PrimeValues(prime_info(5), 4, handed)
        assert (at.b3, at.bracket) == (bernoulli_mod_p2(2, 5) % 5, 17)
        assert at.euler == euler_mod(2, 5).value


def test_sweeps_at_small_primes_read_only_the_harmonic_walk(monkeypatch):
    # with the tasks' own harmonic passes refused, the lift rows and the
    # primes workload's rows at p <= 60 pass as before: B_{p-3}, the bracket,
    # E_{p-3} and the central sums are handed (p = 5 reads the exact B_2, B_6)
    lifts = sweep(LIFT_CHECKS, (5, 60), m_list=range(1, 7), r_list=[1])
    rows = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))

    def refuse(table):
        raise AssertionError(f"a task's own harmonic pass at p = {table.p}")

    monkeypatch.setattr(checks, "_central_sums", refuse)
    monkeypatch.setattr(checks, "_harmonic_sums", refuse)
    got = sweep(LIFT_CHECKS, (5, 60), m_list=range(1, 7), r_list=[1])
    assert got == lifts and {res.verdict for res in got} == {"pass", "skip"}
    got = sweep(PRIMES_WORKLOAD_ROWS, (3, 60))
    assert got == rows and {res.verdict for res in got} == {"pass", "skip"}


# the rows that read B_{p-3}, the bracket or E_{p-3}
HARMONIC_ROWS = ["liu_a", "conj2.3", "conj2.5", "thm2.1ii", "lemma2.7b", "conj2.1"]


def test_lone_large_prime_keeps_the_task_harmonic_pass(monkeypatch):
    # one exact walk to (p-1)/2 = 4986, with its central products, costs far
    # more than one task's passes at p = 9973; and rows that read no harmonic
    # value plan no walk at all
    assert plan_of(HARMONIC_ROWS, [9973], [1], [1]) == ({}, 5)
    primes = [pi.p for pi in primes_in_range(3, 300)]
    for names in (["beukers_a", "beukers_aprime"], [n for n in CHECKS if n.startswith("thm3.3")]):
        plan, _ = plan_of(names, primes, [1, 2], [1])
        assert not {SeqId.H, CENTRAL} & set(plan), names

    def refuse(central=False):
        raise AssertionError("exact harmonic walk")

    monkeypatch.setattr(checks, "harmonic_walk", refuse)
    got = sweep(HARMONIC_ROWS, [9973])
    assert [res.verdict for res in got] == ["pass"] * 6
    got = sweep(["beukers_a", "beukers_aprime", "thm3.3_tp"], (3, 300), m_list=[1, 2])
    assert {res.verdict for res in got} == {"pass", "skip"}


AT_PRIME_NAMES = [name for name in CHECKS if not checks.fixed_range(name)]
THM33_ROWS = [name for name in CHECKS if name.startswith("thm3.3")]


@pytest.mark.parametrize("names, primes, m_list, r_list, e_max, ends", [
    (AT_PRIME_NAMES, (3, 300), [1, 2, 3], [1], 5,
     {SeqId.A: 879, SeqId.APRIME: 879, SeqId.T: 293, CENTRAL: 146}),
    (AT_PRIME_NAMES, (3, 1000), [1, 2], [1], 5,
     {SeqId.A: 1994, SeqId.APRIME: 1994, SeqId.T: 997, CENTRAL: 498}),
    (AT_PRIME_NAMES, (3, 40), [1, 2, 7], [1, 2], 8,
     {SeqId.A: 2738, SeqId.APRIME: 3703, SeqId.T: 37, CENTRAL: 18}),
    (AT_PRIME_NAMES, (9973, 9973), [1], [1], 5, {}),
    (LIFT_CHECKS, (9973, 9973), range(1, 7), [1], 5, {}),
    (HARMONIC_ROWS, (9973, 9973), [1], [1], 5, {}),
    # the last few primes below 10^4, on either side of the count at which
    # each kind's walk starts to cost less than the tasks' own routes
    (CENTRAL_ROWS, (8677, 10000), [1], [1], 3, {SeqId.APRIME: 4986}),
    (CENTRAL_ROWS, (8219, 10000), [1], [1], 3, {SeqId.APRIME: 4986, CENTRAL: 4986}),
    (["lemma2.6", "conj2.3"], (9871, 10000), [1], [1], 5, {SeqId.APRIME: 9973}),
    (["lemma2.6", "conj2.3"], (9811, 10000), [1], [1], 5, {SeqId.APRIME: 9973, SeqId.H: 4986}),
    (THM33_ROWS, (9733, 10000), [1], [1], 3, {}),
    (THM33_ROWS, (9533, 10000), [1], [1], 3, {SeqId.T: 9973}),
    (["beukers_a", "beukers_aprime"], (9811, 10000), [1, 2], [1], 3, {SeqId.APRIME: 19945}),
    (["beukers_a", "beukers_aprime"], (9679, 10000), [1, 2], [1], 3, {SeqId.APRIME: 19945}),
    (["beukers_a", "beukers_aprime"], (9677, 10000), [1, 2], [1], 3,
     {SeqId.A: 19945, SeqId.APRIME: 19945}),
], ids=["all-300", "all-1000", "all-40-r2", "all-9973", "lifts-9973", "harmonic-9973",
        "central-150", "central-200", "euler-12", "euler-20", "t-30", "t-50",
        "lifts-20", "lifts-35", "lifts-36"])
def test_plan_walks_each_kind_to_its_recorded_end(names, primes, m_list, r_list, e_max, ends):
    # the recorded plans of --checks all, of lone large primes and of the
    # last 12 to 200 primes below 10^4, which pin each kind's cost constants;
    # every prime reads the central sums at (p - 1)/2 up to the walk's end
    plist = [pi.p for pi in primes_in_range(*primes)]
    plan, e = plan_of(names, plist, m_list, r_list)
    assert e == e_max
    assert {kind: max(readers) for kind, readers in plan.items()} == ends
    if CENTRAL in plan:
        assert plan[CENTRAL] == {(q - 1) // 2: [q] for q in plist if q <= 2 * ends[CENTRAL] + 1}


def _shift_int(v, n, p, e):
    # an index n >= p - 1 moves by p^2, which each lift row sees at r = 1
    return (v + p * p) % p ** e if n >= p - 1 else v


# for each kind: rows that read it, and a shift of its value that each of
# them sees
KIND_SHIFTS = {
    SeqId.A: (["beukers_a", "liu_a", "conj2.4", "conj2.5"], _shift_int),
    SeqId.APRIME: (["beukers_aprime", "liu_aprime", "conj2.2", "conj2.3"], _shift_int),
    SeqId.T: (THM33_ROWS, lambda v, n, p, e: (v + 1) % p ** e),
    SeqId.H: (["liu_a", "conj2.3", "conj2.5", "lemma2.6"],
              lambda v, n, p, e: ((v[0] + p * p) % p ** e, (v[1] + 1) % p)),
    CENTRAL: (CENTRAL_ROWS, lambda v, n, p, e: tuple((s + 1) % p ** e for s in v)),
}


@pytest.mark.parametrize("route", ["walk", "task"])
@pytest.mark.parametrize("kind", list(KIND_SHIFTS), ids=str)
def test_sweep_fails_when_one_kind_is_perturbed(monkeypatch, kind, route):
    # each kind's values, moved either on the sweep's exact walk (_walk_kinds)
    # with the plan handing it to every prime, or on the task's own route
    # (_KINDS[kind].route) with nothing handed, fail every record that
    # reads them
    names, shift = KIND_SHIFTS[kind]
    primes, m_list = [11, 13, 19, 29], [1, 2]
    before = sweep(names, primes, m_list=m_list)
    assert {res.verdict for res in before} - {"skip"} == {"pass"}
    if route == "walk":
        plan, _ = plan_of(names, primes, m_list, [1])
        assert {q for ps in plan[kind].values() for q in ps} == set(primes)
        real = checks._walk_kinds

        def walked(plan, e):
            return {q: {(k, n): shift(v, n, q, e) if k == kind else v
                        for (k, n), v in values.items()}
                    for q, values in real(plan, e).items()}

        monkeypatch.setattr(checks, "_walk_kinds", walked)
    else:
        row = checks._KINDS[kind]

        def own(at, k, n):
            return shift(row.route(at, k, n), n, at.p, at.e_max)

        monkeypatch.setitem(checks._KINDS, kind, row._replace(route=own))
        monkeypatch.setattr(checks, "_plan_kinds", lambda *args: {})
    got = sweep(names, primes, m_list=m_list)
    assert [res.verdict == "skip" for res in got] == [res.verdict == "skip" for res in before]
    assert {res.verdict for res in got} - {"skip"} == {"fail"}
    assert {res.check for res in got if res.verdict == "fail"} == set(names)


@pytest.mark.parametrize("r", [1, 2])
def test_recovery_from_sweep_matches_recover_cm(r):
    # m = 5 and 7 meet p | m; m = 7 has no tabulated c_m and passes at every p > 3
    primes = [pi.p for pi in primes_in_range(3, 23)]
    got = sweep(["conj2.5"], (3, 23), m_list=[1, 3, 5, 7], r_list=[r])
    for m in (1, 3, 5, 7):
        residues = [(res.p, res.recovery) for res in got if res.m == m]
        assert cm_recovery(m, r, residues) == recover_cm(m, primes, r)
    assert all(res.verdict == "pass" for res in got if res.m == 7 and res.p > 3)
    assert recover_cm(3, primes, r)[0] == -17


def test_gamma_cap_skip(monkeypatch):
    monkeypatch.setattr(special, "GAMMA_STEP_LIMIT", 100)
    res = run_check("lemma2.5", 11)
    assert res.verdict == "skip" and "gamma cost cap" in res.skip_reason


def test_lemma27_closed_form_fallback(monkeypatch):
    # lemma2.7b needs Gamma_p(1/4)^4 only mod p: p = 7 steps fit a budget of 10
    monkeypatch.setattr(special, "GAMMA_STEP_LIMIT", 10)
    res = run_check("lemma2.7b", 7)
    assert res.verdict == "pass"


def test_conj24_requires_p_gt_5():
    assert run_check("conj2.4", 5, 1, 1).verdict == "skip"
    assert run_check("conj2.4", 7, 1, 1).verdict == "pass"


def test_conj25_passes_past_the_tabulated_m():
    # m = 7 has no tabulated c_m; the closed form (17 A_6 - A_7) / 12 serves
    for p in (5, 11, 13, 17, 19, 23, 29):
        assert run_check("conj2.5", p, 7, 1).verdict == "pass", p


def test_lemma23_ties_factored_machinery():
    results = sweep(["lemma2.3"], (3, 300))
    assert all(r.verdict == "pass" for r in results)


def test_mr_checks_require_params():
    with pytest.raises(ValueError):
        run_check("beukers_a", 7)


@pytest.mark.parametrize("m, r", [(0, 1), (-1, 1), (1, 0), (5, 0)])
def test_lift_rejects_m_r_below_one(m, r):
    with pytest.raises(ValueError, match="need m >= 1 and r >= 1"):
        run_check("liu_a", 5, m, r)
    with pytest.raises(ValueError, match="need m >= 1 and r >= 1"):
        recover_cm(m, [5, 7, 11], r)


def test_sweep_ordering_and_determinism():
    names = ["thm2.1i", "beukers_a", "eq1.3"]
    first = sweep(names, (3, 30), m_list=[1, 2], r_list=[1])
    second = sweep(names, (3, 30), m_list=[1, 2], r_list=[1])
    assert first == second
    parallel = sweep(names, (3, 30), m_list=[1, 2], r_list=[1], jobs=2)
    assert first == parallel
    # registry order, then p, then m
    keys = [(r.check, r.p, r.m) for r in first]
    beukers = [k for k in keys if k[0] == "beukers_a"]
    assert beukers == sorted(beukers, key=lambda k: (k[1], k[2]))
    assert keys.index(("beukers_a", 3, 1)) < keys.index(("eq1.3", 3, None))
    assert keys.index(("eq1.3", 3, None)) < keys.index(("thm2.1i", 3, None))


def test_sweep_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        sweep(["nope"], (3, 10))


def test_fixed_range_identities_are_the_id_rows_but_eq22():
    # the identities that run on n <= max_n with no prime; id_eq2.2 runs per prime
    fixed = [name for name in CHECKS if checks.fixed_range(name)]
    assert fixed == ["id_lemma2.1", "id_eq2.1", "id_eq3.1", "id_thm3.1", "id_thm3.2", "id_gf"]
    assert not checks.fixed_range("id_eq2.2") and not checks.fixed_range("conj2.5")


def test_sweep_accepts_explicit_prime_list():
    res = sweep(["thm3.3_tp"], [13, 5, 7])
    assert [r.p for r in res] == [5, 7, 13]


def test_two_ints_in_a_tuple_are_a_range():
    # a tuple of two ints is read as (lo, hi); a list names the primes
    assert [r.p for r in sweep(["thm3.3_tp"], [5, 11])] == [5, 11]
    assert [r.p for r in sweep(["thm3.3_tp"], (5, 11))] == [5, 7, 11]
    assert recover_cm(1, [5, 11])[1]["modulus"] == 5 * 11
    assert recover_cm(1, (5, 11))[1]["modulus"] == 5 * 7 * 11


def test_repeated_prime_runs_once():
    assert [r.p for r in sweep(["thm3.3_tp"], [5, 5, 7])] == [5, 7]
    value, report = recover_cm(1, [5, 5, 7, 11])
    assert (value, report) == recover_cm(1, [5, 7, 11])
    assert report["modulus"] == 5 * 7 * 11


@pytest.mark.parametrize("name", ["eq1.3", "id_eq2.2"])
def test_prime_row_requires_p(name):
    with pytest.raises(ValueError, match=f"check {name} requires parameter p"):
        run_check(name)


def test_crt_accumulator():
    acc = CrtAccumulator()
    acc.add(5, 3)
    acc.add(7, 4)
    assert acc.modulus == 35 and acc.value % 5 == 3 and acc.value % 7 == 4
    with pytest.raises(ValueError):
        acc.add(25, 1)


def test_crt_symmetric_representative():
    acc = CrtAccumulator()
    acc.add(5, 4)
    acc.add(7, 6)
    assert acc.symmetric() == -1


def test_recover_cm_small():
    primes = [5, 7, 11, 13, 17, 19, 23]
    value, report = recover_cm(1, primes)
    assert value == 1 and report["odd"]
    value, report = recover_cm(3, primes)
    assert value == -17
    assert report["modulus"] == 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert len(report["residues"]) == 7


def test_recover_cm_skips_p_dividing_m():
    value, report = recover_cm(5, [5, 7, 11, 13, 17, 19, 23])
    assert value == -21499
    assert (5, "p divides m") in report["skipped"]


def test_recovery_skip_reasons_keep_their_order(monkeypatch):
    # the record's p > 3 skip comes first, then p | m, then its size-cap skip:
    # at m = 21, 3 divides m, and every index m p - 1 is past a cap of 30
    monkeypatch.setenv(checks.SIZE_CAP_ENV, "30")
    _, report = recover_cm(21, [3, 5, 7])
    assert report["skipped"] == [
        (3, "requires p > 3"), (5, "size cap: index 104 exceeds 30"), (7, "p divides m"),
    ]


# c_7..c_12, recovered by CRT over the primes 5..199 and not tabulated
RECOVERED_CM = {
    7: -18289445, 8: -536223935, 9: -15869694815, 10: -474140997499,
    11: -14291638744657, 12: -434239298847217,
}


def test_recovered_cm_holds_at_held_out_primes():
    for m, c in RECOVERED_CM.items():
        assert recover_cm(m, (5, 199))[0] == c
    got = sweep(["conj2.5"], (211, 397), m_list=range(7, 13))
    assert len(got) == 192
    assert all(res.recovery == RECOVERED_CM[res.m] % res.p for res in got)
    assert all(res.verdict == "pass" for res in got)


def test_recover_cm_at_r2():
    value, report = recover_cm(3, [5, 7, 11, 13, 17, 19, 23], r=2)
    assert value == -17 and report["r"] == 2


WEIGHTED_LIFTS = ["liu_a", "liu_aprime", "conj2.2", "conj2.3", "conj2.4", "conj2.5"]


def exact_weight(row, m):
    """The row's weight m^3 (a S_{m-1} + b S_m) / d from the exact walk."""
    a, b, d = row.weight
    prev, cur = apery_neighbours(row.sid, m)
    return Fraction(m ** 3 * (a * prev + b * cur), d)


@pytest.mark.parametrize("name", WEIGHTED_LIFTS)
def test_lift_weight_matches_binomial_sums(name):
    row = CHECKS[name].runner
    assert len(row.weight) == 3 and all(type(v) is int for v in row.weight)
    for m in REFERENCE_CM if name == "conj2.5" else range(1, 201):
        assert exact_weight(row, m) == LIFT_WEIGHTS[name](m), m
    if name == "conj2.5":
        # past the paper's table: (2/3) m^3 c_m at the recovered c_7..c_12
        for m, c in RECOVERED_CM.items():
            assert exact_weight(row, m) == Fraction(2, 3) * m ** 3 * c, m


def test_lift_weights_read_no_exact_walk(monkeypatch):
    # the weights are read mod p^2 off the task's own modular values: with
    # every exact walk refused and the sweep's exact passes planning none,
    # every record still passes
    def refuse(*args):
        raise AssertionError("exact walk called")

    for module in (sequences, checks):
        for walk in ("apery_neighbours", "apery_values", "t_values", "harmonic_walk"):
            monkeypatch.setattr(module, walk, refuse, raising=False)
    monkeypatch.setattr(checks, "_plan_kinds", lambda *args: {})
    got = sweep(WEIGHTED_LIFTS, [11, 13, 17, 19], m_list=[1, 2, 7], r_list=[1, 2])
    assert [res.verdict for res in got] == ["pass"] * 144


@pytest.mark.parametrize("name", WEIGHTED_LIFTS)
def test_lift_sweep_fails_when_weight_is_perturbed(monkeypatch, name):
    def run():
        return sweep([name], [11, 13, 17, 19], m_list=[1, 2, 7], r_list=[1, 2])

    assert [res.verdict for res in run()] == ["pass"] * 24
    row = CHECKS[name].runner
    a, b, d = row.weight
    monkeypatch.setitem(
        checks.CHECKS, name, CHECKS[name]._replace(runner=row._replace(weight=(a + 1, b, d)))
    )
    assert [res.verdict for res in run()] == ["fail"] * 24


def test_recovery_reads_the_difference_not_the_weight(monkeypatch):
    # the recovery is a route to c_m apart from the row's closed form: with
    # the weight perturbed the records fail, and the recovered c_3 stays -17
    row = CHECKS["conj2.5"]
    perturbed = row._replace(runner=row.runner._replace(weight=(18, -1, 18)))
    monkeypatch.setitem(checks.CHECKS, "conj2.5", perturbed)
    got = sweep(["conj2.5"], (5, 23), m_list=[3], r_list=[1, 2])
    assert [res.verdict for res in got] == ["fail"] * 14
    for r in (1, 2):
        residues = [(res.p, res.recovery) for res in got if res.r == r]
        assert cm_recovery(3, r, residues)[0] == -17
