"""Shows that the benchmark's checker can fail, and that BENCHMARK.json
names exactly the metrics and workloads that run.py and tracer.py report.

    python3 perfbench/selftest.py

Runs one small `aperylab verify` sweep over every check, confirms that the
checker passes it, then corrupts it one record at a time: every passing
congruence record with its lhs shifted by p^(e-1), and every record dropped
in turn.  Each corrupted copy must be reported with at least one failed
operation.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

import oracle
import run
import tracer

SMALL = run.Workload((), (3, 60), (1, 2), 1)


def check_manifest() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != dict(run.END_TO_END):
        problems.append(f"end_to_end {e2e} != run.py {dict(run.END_TO_END)}")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layer != dict(tracer.METRICS):
        problems.append(f"per_layer differs from tracer.METRICS: "
                        f"{sorted(set(layer) ^ set(dict(tracer.METRICS)))}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"workloads {names} != run.py {list(run.WORKLOADS)}")
    if tuple(oracle.CATALOGUE) != tracer.CHECK_NAMES:
        problems.append("oracle.CATALOGUE and tracer.CHECK_NAMES list different checks")
    return problems


def check_mutations() -> list[str]:
    run.BUILD.mkdir(exist_ok=True)
    with TemporaryDirectory(dir=run.BUILD) as tmp:
        child = run.Runner(Path(tmp)).cli(SMALL.argv(), "selftest")
    if child.code:
        return [f"verify exited {child.code}"]
    checker = oracle.Checker(SMALL.spec(), seed=0)
    attempted, failed, why = checker.check(child.stdout)
    if failed or attempted != child.stdout.count(b"\n"):
        return [f"clean output: attempted {attempted}, failed {failed}: {why[:3]}"]
    problems = []
    lines = child.stdout.decode().splitlines(keepends=True)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        corrupted = []
        if rec["verdict"] == "pass" and rec["p"] is not None:
            mod = rec["modulus"]
            rec["lhs"] = str((int(rec["lhs"]) + mod // rec["p"]) % mod)
            shifted = json.dumps(rec, separators=(",", ":")) + "\n"
            corrupted.append(("lhs shifted", lines[:i] + [shifted] + lines[i + 1:]))
        corrupted.append(("dropped", lines[:i] + lines[i + 1:]))
        for what, copy in corrupted:
            if checker.check("".join(copy).encode())[1] == 0:
                problems.append(f"line {i + 1} {what}: not caught")
    for seed in range(5):
        problems += oracle.checker_catches(checker, child.stdout, seed)
    print(f"{len(lines)} records, each corrupted in turn", file=sys.stderr)
    return problems


def main() -> int:
    problems = check_manifest() + check_mutations()
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
