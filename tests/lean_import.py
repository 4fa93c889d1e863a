"""Checks that a sweep loads no process pool and no `dataclasses`.

Run it as a script, `python tests/lean_import.py`, so that only the modules
that `python -c pass` loads precede it.  It imports whichever `aperylab` is
on the path: the source tree under PYTHONPATH=src, or an installed package.
It runs `verify --checks all --primes 3..30 --format json` at `--jobs 1`,
in-process, and then at `--jobs 2`, which forks one child where `os.fork`
exists (the sweep is told it has two usable CPUs, so it forks on a machine
with one too).  It exits 1, naming them, if either run loaded a module of
LEAN_FORBIDDEN past start-up.  Some interpreters load `threading` at
start-up, so each run is compared with the modules loaded at start-up.
"""

import sys

START = set(sys.modules)

import io  # noqa: E402  (loaded at start-up by every interpreter)

LEAN_FORBIDDEN = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
ARGV = ["verify", "--checks", "all", "--primes", "3..30", "--format", "json", "--jobs"]


def loaded_past_start(jobs: str) -> list[str]:
    from aperylab import checks
    from aperylab.cli import main

    checks.usable_cpus = lambda: 2
    streams = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()
    try:
        code = main(ARGV + [jobs])
    finally:
        sys.stdout, sys.stderr = streams
    if code != 0:
        raise SystemExit(f"verify --jobs {jobs} exited {code}")
    return sorted(set(sys.modules) - START)


def main() -> int:
    for jobs in ("1", "2"):
        new = loaded_past_start(jobs)
        bad = [m for m in new if any(m == f or m.startswith(f + ".") for f in LEAN_FORBIDDEN)]
        if bad:
            print(f"a --jobs {jobs} sweep loaded {', '.join(bad)}", file=sys.stderr)
            return 1
    print(f"{len(new)} modules past start-up at --jobs 1 and --jobs 2, "
          f"none of {', '.join(LEAN_FORBIDDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
