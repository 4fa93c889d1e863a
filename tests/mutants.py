"""A mutation gate: each mutant below, applied to a copy of src/, must make
the tests it names fail.

A mutant is (name, file under src/, exact old text, new text, test ids).
The runner first runs every named test against an unchanged copy of src/,
where all must pass.  Then, for each mutant, it copies src/ into a temporary
directory, replaces the old text, which must occur exactly once, and runs
the mutant's tests against that copy with pytest.  The gate fails if the
old text of a mutant is not found once, if the unchanged copy fails a test,
or if a mutant survives: all its tests pass.  Any other outcome of pytest
on a mutant, an error while collecting included, kills it.  Run it from the repository
root, with pytest installed; names on the command line run only the mutants
whose names contain one of them:

    python tests/mutants.py
    python tests/mutants.py read central

It uses only the standard library and pytest, and runs the named tests once
per mutant, so it is not part of the Tier-1 command.  EQUIVALENT lists the
mutants that change no result, only cost, apart; they are not run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS_PY = "aperylab/checks.py"
SEQUENCES_PY = "aperylab/sequences.py"
MODRING_PY = "aperylab/modring.py"
SPECIAL_PY = "aperylab/special.py"
IDENTITIES_PY = "aperylab/identities.py"
EXACTCORE_PY = "aperylab/exactcore.py"
T = "tests/test_checks.py::"
GOLDEN = "tests/test_golden.py::test_fixed_sweep_output_bytes"
PLAN = T + "test_plan_walks_each_kind_to_its_recorded_end"
READ_SET = T + "test_every_value_a_prime_task_reads_is_in_its_read_set"
WALK_OR_PAIR = T + "test_task_walks_below_p2_and_pairs_at_and_above"
S = "tests/test_sequences.py::"
WALK_ORACLES = S + "test_apery_walk_mod_matches_oracles_everywhere"
SUM_AND_RECURRENCE = S + "test_sum_and_recurrence_agree"
PAIR_ORACLES = S + "test_apery_pair_mod_matches_oracles_everywhere"
GAMMA_PRODUCT = "tests/test_special.py::test_padic_gamma_matches_definition_product"

MUTANTS = [
    # the harmonic walk's reduction at a prime (_reduce_harmonic)
    ("lehmer-sum-plus-one", CHECKS_PY,
     "got[kind, k] = q * pow(l, -2, p) % p",
     "got[kind, k] = (q * pow(l, -2, p) + 1) % p",
     [T + "test_harmonic_walk_matches_the_task_passes", GOLDEN]),
    ("harmonic-2l-as-l", CHECKS_PY,
     "h % m * pow(2 * l, -1, m)",
     "h % m * pow(l, -1, m)",
     [T + "test_harmonic_walk_matches_the_task_passes", GOLDEN]),
    ("central-64-to-1-k", CHECKS_PY,
     "pow(64, -k, m)",
     "pow(64, 1 - k, m)",
     [T + "test_harmonic_walk_matches_the_task_passes", GOLDEN]),
    # the Apery and t walks' reduction at a prime (_reduce_value)
    ("reduce-value-mod-p-e-1", CHECKS_PY,
     "got[kind, n] = step % p ** e",
     "got[kind, n] = step % p ** (e - 1)",
     [T + "test_exact_pass_matches_the_task_routes_next_to_p_and_p2", GOLDEN]),
    # the plan of the sweep's exact pass (_plan_kinds)
    ("no-harmonic-fold-into-central", CHECKS_PY,
     "if any(CENTRAL in got for got in reads.values()):",
     "if False:",
     [PLAN, T + "test_prime_task_reads_each_value_once"]),
    ("walk-bound-exclusive", CHECKS_PY,
     "if n <= bound:",
     "if n < bound:",
     [PLAN]),
    ("central-growth-7.5", CHECKS_PY,
     "75.0, 16.0, 1.3, True",
     "7.5, 16.0, 1.3, True",
     [PLAN]),
    # a task's values (_PrimeValues.value)
    ("value-ignores-handed", CHECKS_PY,
     "self.values = dict(handed or {})",
     "self.values = {}",
     [T + "test_sweeps_at_small_primes_read_only_the_exact_pass"]),
    # a prime task's read set (_prime_reads)
    ("no-at-prime-reads", CHECKS_PY,
     "for kind, n in row.reads(p, p % 4):",
     "for kind, n in row.reads(p, p % 4)[:0]:",
     [READ_SET, PLAN]),
    ("no-harmonic-read-for-a-weight", CHECKS_PY,
     "if row.weight:",
     "if False:",
     [READ_SET, T + "test_lone_large_prime_keeps_the_task_walk"]),
    ("central-read-as-euler", CHECKS_PY,
     "(CENTRAL,) * row.central + (SeqId.H,) * row.euler",
     "(CENTRAL,) * row.euler + (SeqId.H,) * row.euler",
     [READ_SET, PLAN]),
    # a task's route for A and A': walk below p^2 - 1, pair at and above
    # (_PrimeValues.walk_or_pair), as _plan_kinds prices it
    ("walk-up-to-p2", CHECKS_PY,
     "if n < self.p * self.p - 1:",
     "if n < self.p * self.p:",
     [WALK_OR_PAIR]),
    ("pair-read-saves-nothing", CHECKS_PY,
     "0.0 if n < p * p - 1 else n + 1.0",
     "0.0 if n < p * p - 1 else 0.0",
     [PLAN]),
    ("walk-saving-at-first-read", CHECKS_PY,
     "saved[p, below[-1]] = own",
     "saved[p, below[0]] = own",
     [PLAN]),
    # the task's walk of A or A' mod p^e (sequences.apery_walk_mod)
    ("walk-start-one-digit-short", SEQUENCES_PY,
     "work = m * p ** (k * val[n])",
     "work = m // p * p ** (k * val[n])",
     [WALK_ORACLES]),
    ("walk-divides-p-k-for-p-kt", SEQUENCES_PY,
     "drop = p ** (k * (val[i + 1] - val[i]))",
     "drop = p ** k",
     [WALK_ORACLES]),
    ("walk-unit-part-keeps-p", SEQUENCES_PY,
     "            while s % p == 0:\n                s //= p\n",
     "",
     [WALK_ORACLES]),
    # the one recurrence row of each Apery sequence (RECURRENCES), which the
    # exact walk and the walk mod p^e both read: the direct sums and the
    # pair are the routes apart from it
    ("recurrence-a-coefficient", SEQUENCES_PY,
     "(34, 51, 27, 5)",
     "(34, 51, 26, 5)",
     [WALK_ORACLES, SUM_AND_RECURRENCE]),
    ("recurrence-aprime-coefficient", SEQUENCES_PY,
     "(0, 11, 11, 3)",
     "(0, 11, 12, 3)",
     [WALK_ORACLES, SUM_AND_RECURRENCE]),
    ("recurrence-a-exponent", SEQUENCES_PY,
     "SeqId.A: (3, ",
     "SeqId.A: (2, ",
     [WALK_ORACLES, SUM_AND_RECURRENCE]),
    # the pair of A_n and A'_n mod p^e (sequences.apery_pair_mod)
    ("pair-one-guard", SEQUENCES_PY,
     "        if v < e:\n",
     "        if 2 * w < e:\n",
     [PAIR_ORACLES]),
    ("pair-aprime-drops-iu-d", SEQUENCES_PY,
     "acc_b += ppow[v] * u * iu_k * iu_d",
     "acc_b += ppow[v] * u * iu_k",
     [PAIR_ORACLES]),
    # the exact walks of t and of the harmonic sums (sequences)
    ("t-coefficient-4", SEQUENCES_PY,
     "(8 * i * i + 12 * i + 5)",
     "(8 * i * i + 12 * i + 4)",
     [S + "test_t_dual_route"]),
    ("harmonic-walk-h-not-rescaled", SEQUENCES_PY,
     "l, l2, h, q = l * g, l2 * g * g, h * g, q * g * g",
     "l, l2, h, q = l * g, l2 * g * g, h, q * g * g",
     [S + "test_harmonic_walk_matches_fraction_sums_across_lcm_rescales"]),
    # the harmonic family mod p^e (sequences.seq_mod)
    ("seq-mod-scale-p-v", SEQUENCES_PY,
     "m = p ** (e + 2 * v)",
     "m = p ** (e + v)",
     [S + "test_harmonic_seq_mod_matches_reduced_exact_value"]),
    # a task's central pass and p B_{p-1} (checks)
    ("central-binomial-one-inverse", CHECKS_PY,
     "c = unit[2 * k] * inv[k] % m * inv[k] % m",
     "c = unit[2 * k] * inv[k] % m",
     [T + "test_central_sums_match_pow_oracle"]),
    ("pb-minus-p", CHECKS_PY,
     "(self.table.unit[self.p - 1] + self.p) % m",
     "(self.table.unit[self.p - 1] - self.p) % m",
     [T + "test_glaisher_pb_matches_power_sum"]),
    # eq2.2 off a task's table (identities.eq22_congruence)
    ("eq22-mod-table-modulus", IDENTITIES_PY,
     "    m = p * p\n    half = (p - 1) // 2\n",
     "    m = table.modulus\n    half = (p - 1) // 2\n",
     ["tests/test_identities.py::test_eq22_reads_a_given_table_at_any_precision"]),
    # the inverse-unit row of a factorial table (modring.FactorialTable.extend),
    # read by eq2.2 against math.comb
    ("table-inverse-row-shifted", MODRING_PY,
     "reversed(stripped[1:])",
     "reversed(stripped[:-1])",
     ["tests/test_identities.py::test_eq22_table_rows_match_comb"]),
    # the digit count of a NotPIntegral message (modring._digits)
    ("digits-no-carry", MODRING_PY,
     "return k + (abs(x) >= 10 ** k)",
     "return k",
     ["tests/test_modring.py::test_reduce_rat_names_sizes_not_digits"]),
    # the integer series of the generating-function oracle (exactcore)
    ("series-over-4-top-plus-1", EXACTCORE_PY,
     "for k in range(order)], 4 ** top",
     "for k in range(order)], 4 ** (top + 1)",
     ["tests/test_exactcore.py::test_integer_series_match_fraction_oracle"]),
    # Gamma_p by blocks (special.padic_gamma)
    ("gamma-shift-minus", SPECIAL_PY,
     "g[k] = (g[k] + t * g[k + 1]) % m",
     "g[k] = (g[k] - t * g[k + 1]) % m",
     [GAMMA_PRODUCT]),
    ("gamma-block-unscaled", SPECIAL_PY,
     "return [ck * p ** k % m for k, ck in enumerate(c)]",
     "return [ck % m for k, ck in enumerate(c)]",
     [GAMMA_PRODUCT]),
    # the forked stripes of a sweep (_run_stripes)
    ("stripes-raise-first-stripe-error", CHECKS_PY,
     "raise min(failed, key=lambda f: f[0])[1]",
     "raise failed[0][1]",
     [T + "test_sweep_raises_the_earliest_failing_task_at_any_jobs"]),
    ("stripes-exit-status-unchecked", CHECKS_PY,
     "if status != 0:",
     "if False:",
     [T + "test_sweep_names_the_exit_status_of_a_dead_child"]),
    ("stripes-concatenated", CHECKS_PY,
     "    batches = [None] * len(tasks)\n"
     "    for first, (_, stripe) in enumerate(outcomes):\n"
     "        batches[first::workers] = stripe\n"
     "    return batches\n",
     "    return [batch for _, stripe in outcomes for batch in stripe]\n",
     [GOLDEN + "_at_two_jobs"]),
]

# Mutants that change no output, only cost, so no test can kill them; they
# are listed, not run.
EQUIVALENT = [
    # the walk keeps its start precision: every value is still exact mod p^e
    ("walk-modulus-not-dropped", SEQUENCES_PY,
     "y, work = y // drop, work // drop",
     "y, work = y // drop, work"),
]


def _pytest(src: Path, tests, quiet: bool = True) -> int:
    """pytest's exit code for `tests` run against the package in `src`; its
    output is shown only where not `quiet`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run([sys.executable, "-c", "import aperylab; print(aperylab.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"aperylab is imported from {where.strip()}, not from {src}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env,
                          capture_output=quiet).returncode


def _copy(tmp: str, mutant=None) -> Path:
    """A copy of src/ under tmp, with the mutant's old text replaced; None
    if the old text does not occur exactly once."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant:
        _, path, old, new, _ = mutant
        text = (src / path).read_text()
        if text.count(old) != 1:
            return None
        (src / path).write_text(text.replace(old, new))
    return src


def main(names) -> int:
    mutants = [mu for mu in MUTANTS if not names or any(n in mu[0] for n in names)]
    bad = []
    tests = sorted({t for mu in mutants for t in mu[4]})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy(tmp), tests, quiet=False) != 0:
            print("the unchanged copy of src/ fails a named test", flush=True)
            return 1
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy(tmp, mutant)
            if src is None:
                outcome = "stale: its old text does not occur exactly once"
            else:
                # the unchanged copy passed these tests, so any failure,
                # a collection error included, is the mutant's
                outcome = "killed" if _pytest(src, mutant[4]) else "survived"
        print(f"{mutant[0]}: {outcome}", flush=True)
        if outcome != "killed":
            bad.append(mutant[0])
    print(f"{len(mutants) - len(bad)} of {len(mutants)} mutants killed", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
