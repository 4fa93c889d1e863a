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
per mutant, so it is not part of the Tier-1 command.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS_PY = "aperylab/checks.py"
T = "tests/test_checks.py::"
GOLDEN = "tests/test_golden.py::test_fixed_sweep_output_bytes"
PLAN = T + "test_plan_walks_each_kind_to_its_recorded_end"
READ_SET = T + "test_every_value_a_prime_task_reads_is_in_its_read_set"

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
