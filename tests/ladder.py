"""A digest ladder: each row of ladder.json is one `aperylab` command with the
exit code and the sha256 digests of the stdout and stderr it must give.

The rows reach past the golden sweeps of test_golden.py, to where the
sweep's routes act: a value handed by the exact pass against a task's own
route near p = 10^4, the pair at n >= p^2 - 1, the r = 2 upper index and
m up to 6.  The runner runs every row from the package under src/, one at a
time, and fails if any row's exit code or digests differ.  With --update it
rewrites ladder.json from the commands below instead; a change that moves
records on purpose updates its rows and names each one.  Run it from any
directory, with the standard library alone:

    python tests/ladder.py
    python tests/ladder.py --update

It takes about 20 s on one core (2-vCPU Xeon, Python 3.11), so it is not
part of the Tier-1 command.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = Path(__file__).resolve().parent / "ladder.json"

LIFTS = "beukers_a,beukers_aprime,liu_a,liu_aprime,conj2.2,conj2.3,conj2.4,conj2.5"
PRIME_ROWS = ("eq1.3,thm2.1i,thm2.1ii,lemma2.3,lemma2.4,lemma2.5,lemma2.6,lemma2.7a,"
              "lemma2.7b,conj2.1,thm3.3_tp,thm3.3_tpm1,thm3.3_thalf,thm3.3_thalfp1,"
              "thm3.3_tquarter,id_eq2.2")
T_ROWS = "thm3.3_tp,thm3.3_tpm1,thm3.3_thalf,thm3.3_thalfp1,thm3.3_tquarter,eq1.3,thm2.1i"
CENTRAL_ROWS = "thm2.1ii,lemma2.3,lemma2.4,lemma2.7a,lemma2.7b,conj2.1,conj2.3"


def _verify(*args: str) -> list[str]:
    return ["verify", *args]


def _workload(checks: str, primes: str, m: str, jobs: int) -> list[str]:
    # as perfbench/run.py runs its workloads
    return _verify("--checks", checks, "--primes", primes, "--m", m, "--r", "1",
                   "--jobs", str(jobs), "--format", "json")


COMMANDS = [
    # the byte comparisons of the CI workflow (same_bytes), at --jobs 1
    _verify("--checks", "conj2.5", "--m", "1..6", "--primes", "5..23", "--jobs", "1"),
    _verify("--checks", LIFTS, "--primes", "5..40", "--m", "1..3", "--r", "1,2", "--jobs", "1"),
    _verify("--checks", LIFTS, "--primes", "5..60", "--m", "1..12", "--jobs", "1"),
    _verify("--checks", LIFTS, "--primes", "5..400", "--m", "1..6", "--jobs", "1"),
    _verify("--checks", T_ROWS, "--primes", "9901..9973", "--jobs", "1"),
    _verify("--checks", CENTRAL_ROWS, "--primes", "5..60", "--m", "1", "--r", "1,2",
            "--jobs", "1"),
    _verify("--checks", "thm3.3_tpm1,thm3.3_thalf,thm3.3_thalfp1,lemma2.3,id_eq2.2",
            "--primes", "3..200", "--jobs", "1"),
    _verify("--checks", "id_eq2.2", "--primes", "3..200", "--jobs", "1"),
    _verify("--checks", "all", "--primes", "3..1000", "--m", "1..2", "--jobs", "1"),
    _verify("--checks", "all", "--primes", "3..3000", "--m", "1", "--jobs", "1"),
    _verify("--checks", "liu_a,conj2.3,conj2.5,thm2.1ii,lemma2.7b,conj2.1",
            "--primes", "9949..9973", "--jobs", "1"),
    _verify("--checks", "all", "--primes", "9973..9973", "--m", "1..6", "--jobs", "1"),
    _verify("--checks", LIFTS, "--primes", "5..100", "--m", "1..3", "--r", "2", "--jobs", "1"),
    _verify("--checks", "beukers_a,beukers_aprime", "--primes", "9631..10000", "--m", "1,2",
            "--jobs", "1"),
    # the four benchmark workloads (perfbench/run.py)
    _workload(LIFTS, "5..150", "1..6", 1),
    _workload(PRIME_ROWS, "3..600", "1..1", 1),
    _workload("all", "3..300", "1..3", 1),
    _workload("all", "3..300", "1..3", 2),
    # the widest sweeps: every row to 10^4, m to 6, and r = 2
    _verify("--checks", "all", "--primes", "3..10000", "--jobs", "1"),
    _verify("--checks", LIFTS, "--m", "1..6", "--primes", "3..3000"),
    _verify("--checks", LIFTS, "--primes", "5..300", "--m", "1", "--r", "2"),
    # the exact sequences
    ["seq", "--name", "A", "--n", "3000"],
    ["seq", "--name", "Aprime", "--n", "3000"],
    ["seq", "--name", "H", "--n", "3000"],
]


def run(argv: list[str]) -> dict:
    """The row of one command: its argv, exit code and output digests."""
    env = {k: v for k, v in os.environ.items() if k != "APERY_LAB_SIZE_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-m", "aperylab", *argv], env=env,
                          capture_output=True, check=False)
    return {"argv": argv, "exit": done.returncode,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(done.stderr).hexdigest()}


def main(args: list[str]) -> int:
    update = args == ["--update"]
    if args and not update:
        print(__doc__)
        return 2
    rows = [{"argv": argv} for argv in COMMANDS] if update else json.loads(LADDER.read_text())
    got, bad, start = [], 0, time.perf_counter()
    for want in rows:
        t0 = time.perf_counter()
        row = run(want["argv"])
        got.append(row)
        ok = update or row == want
        bad += not ok
        print(f"{'ok' if ok else 'DIFFERS'} {time.perf_counter() - t0:6.2f} s  "
              f"aperylab {' '.join(row['argv'])}", flush=True)
    if update:
        LADDER.write_text("[\n" + ",\n".join(json.dumps(row) for row in got) + "\n]\n")
    print(f"{len(rows) - bad} of {len(rows)} rows {'written' if update else 'agree'}, "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
