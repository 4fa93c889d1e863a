"""Checks that a `--jobs 1` sweep loads no process pool and no `dataclasses`.

Run it as a script, `python tests/lean_import.py`, so that only the modules
that `python -c pass` loads precede it.  It imports whichever `aperylab` is
on the path: the source tree under PYTHONPATH=src, or an installed package.
It runs `verify --checks all --primes 3..30 --jobs 1 --format json` and
exits 1, naming them, if any module of LEAN_FORBIDDEN was loaded past
start-up.
"""

import sys

START = set(sys.modules)

import io  # noqa: E402  (loaded at start-up by every interpreter)

LEAN_FORBIDDEN = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
ARGV = ["verify", "--checks", "all", "--primes", "3..30", "--jobs", "1", "--format", "json"]


def loaded_past_start() -> list[str]:
    from aperylab.cli import main

    streams = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()
    try:
        code = main(ARGV)
    finally:
        sys.stdout, sys.stderr = streams
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    return sorted(set(sys.modules) - START)


def main() -> int:
    new = loaded_past_start()
    bad = [m for m in new if any(m == f or m.startswith(f + ".") for f in LEAN_FORBIDDEN)]
    if bad:
        print(f"a --jobs 1 sweep loaded {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"{len(new)} modules past start-up, none of {', '.join(LEAN_FORBIDDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
