"""Benchmark of cold `aperylab verify` runs.

    python3 perfbench/run.py --workload lifts --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout.  Each timed round starts the
`aperylab` console entry point as a fresh process (cold caches, as a user
pays them) and reads the wall time, the CPU and the peak RSS of that process
and its workers from wait4().  Rounds repeat until --seconds have passed and
the medians are reported.  After the timed rounds every distinct stdout is
checked by perfbench/oracle.py, which does not use the program.  With
--trace 1 the workload runs once more under perfbench/tracer.py and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of stdout is the result; the line before it holds the run's
metadata.  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 15
# Every child must end before this many seconds into the run.
DEADLINE_S = 170.0

LIFT_CHECKS = ("beukers_a", "beukers_aprime", "liu_a", "liu_aprime",
               "conj2.2", "conj2.3", "conj2.4", "conj2.5")
PRIME_CHECKS = ("eq1.3", "thm2.1i", "thm2.1ii", "lemma2.3", "lemma2.4", "lemma2.5",
                "lemma2.6", "lemma2.7a", "lemma2.7b", "conj2.1", "thm3.3_tp",
                "thm3.3_tpm1", "thm3.3_thalf", "thm3.3_thalfp1", "thm3.3_tquarter",
                "id_eq2.2")


@dataclass(frozen=True)
class Workload:
    checks: tuple[str, ...]  # empty: all
    primes: tuple[int, int]
    m: tuple[int, int]
    jobs: int
    reference: str | None = None  # workload whose stdout must be byte-identical

    def argv(self) -> list[str]:
        return ["verify", "--checks", ",".join(self.checks) or "all",
                "--primes", "%d..%d" % self.primes, "--m", "%d..%d" % self.m,
                "--r", "1", "--jobs", str(self.jobs), "--format", "json"]

    def spec(self) -> oracle.Spec:
        return oracle.Spec(self.checks or tuple(oracle.CATALOGUE), self.primes,
                           tuple(range(self.m[0], self.m[1] + 1)), (1,))


WORKLOADS = {
    "lifts": Workload(LIFT_CHECKS, (5, 150), (1, 6), 1),
    "primes": Workload(PRIME_CHECKS, (3, 600), (1, 1), 1),
    "all-j1": Workload((), (3, 300), (1, 3), 1),
    "all-j2": Workload((), (3, 300), (1, 3), 2, reference="all-j1"),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Builds the checkout once and starts its console entry point."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        src = ROOT / "src"
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, func = scripts["aperylab"].split(":")
        self.env = {k: v for k, v in os.environ.items() if k != "APERY_LAB_SIZE_CAP"}
        self.env["PYTHONPATH"] = str(src)
        # The launcher pip would generate for the console script.
        self.launcher = BUILD / "bin" / "aperylab"
        self.launcher.parent.mkdir(parents=True, exist_ok=True)
        text = (f"import sys\nfrom {module} import {func}\n"
                f"if __name__ == '__main__':\n    sys.exit({func}())\n")
        if not self.launcher.is_file() or self.launcher.read_text() != text:
            self.launcher.write_text(text)
        # bytecode next to the sources, as an installed package has it
        built = subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "aperylab")],
                               env=self.env, stdout=subprocess.DEVNULL,
                               timeout=self._left())
        if built.returncode:
            raise BenchError("compileall failed")

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def run(self, argv: list[str], name: str) -> Child:
        """One fresh process; wall from spawn to exit, CPU and RSS of it and
        every worker it reaped."""
        out, err = self.tmp / f"{name}.out", self.tmp / f"{name}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            killer = threading.Timer(self._left(), os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise BenchError(f"{name} killed at the {DEADLINE_S:.0f} s deadline")
        return Child(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode,
                     out.read_bytes(), err.read_bytes())

    def cli(self, args: list[str], name: str) -> Child:
        return self.run([str(self.launcher), *args], name)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "pyproject.toml"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def reference_stdout(runner: Runner, name: str, digest: str) -> bytes:
    """Stdout of the reference workload for this source tree; computed once
    per checkout and kept under .bench_build."""
    path = BUILD / "reference" / f"{name}-{digest[:16]}.out"
    if not path.is_file():
        child = runner.cli(WORKLOADS[name].argv(), f"reference-{name}")
        if child.code:
            raise BenchError(f"reference workload {name} exited {child.code}")
        store_reference(name, digest, child.stdout)
    return path.read_bytes()


def store_reference(name: str, digest: str, stdout: bytes) -> None:
    path = BUILD / "reference" / f"{name}-{digest[:16]}.out"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_bytes(stdout)
    tmp.replace(path)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    if not (ROOT / "src" / "aperylab" / "cli.py").is_file():
        raise BenchError(f"no aperylab source tree under {ROOT}")
    digest = source_digest()
    BUILD.mkdir(exist_ok=True)
    with TemporaryDirectory(dir=BUILD) as tmp:
        runner = Runner(Path(tmp))

        setup = []
        for _ in range(SETUP_RUNS):
            child = runner.cli(["seq", "--name", "t", "--n", "4"], "setup")
            if child.code or child.stdout != b"230481\n":
                raise BenchError(f"`aperylab seq --name t --n 4` printed {child.stdout!r}")
            setup.append(child.wall_s)

        rounds: list[Child] = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < seconds:
            rounds.append(runner.cli(w.argv(), f"round{len(rounds)}"))

        # everything below is outside the timed region
        traced = None
        if trace:
            metrics_path = Path(tmp) / "trace.json"
            traced = runner.run([str(HERE / "tracer.py"), str(metrics_path), *w.argv()], "trace")
            layer = json.loads(metrics_path.read_text()) if traced.code == 0 else {}
        ref = reference_stdout(runner, w.reference, digest) if w.reference else None

    spec = w.spec()
    checker = oracle.Checker(spec, seed)
    problems: list[str] = []  # records that failed, counted in `failed`
    whole: list[str] = []  # faults of an output as a whole: the run is not correct
    attempted = failed = 0
    verdicts: dict[bytes, tuple[int, int, list[str]]] = {}
    for i, r in enumerate(rounds):
        if r.stdout not in verdicts:
            verdicts[r.stdout] = checker.check(r.stdout)
        a, f, why = verdicts[r.stdout]
        attempted += a
        failed += f
        problems += [f"round {i}: {p}" for p in why]
        if r.code:
            whole.append(f"round {i}: exit code {r.code}")
        whole += [f"round {i}: {p}" for p in oracle.check_recovery(r.stderr, spec)]
        if ref is not None and r.stdout != ref:
            whole.append(f"round {i}: stdout differs from {w.reference}")
    first = rounds[0].stdout
    if verdicts[first][1] == 0:
        whole += oracle.checker_catches(checker, first, seed)
        if any(v.reference == name for v in WORKLOADS.values()):
            store_reference(name, digest, first)
    if traced is not None and (traced.code or traced.stdout != first):
        whole.append("traced stdout differs from the untraced run")

    walls = [r.wall_s for r in rounds]
    if trace:
        layer.update({
            "cli.stdout_bytes": len(traced.stdout),
            "trace.wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - statistics.median(walls),
        })
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in tracer.METRICS}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    meta = {
        "workload": name, "argv": ["aperylab", *w.argv()], "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": digest,
        "rounds": len(rounds), "round_wall_s": walls,
        "round_cpu_s": [r.cpu_s for r in rounds], "setup_s": setup,
        "stdout_sha256": sorted({hashlib.sha256(r.stdout).hexdigest() for r in rounds}),
        "euler_oracle_primes": sorted(checker.euler_primes),
        "attempted": attempted, "failed": failed, "problems": (whole + problems)[:20],
    }
    result = {"correct": not whole, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result


def summary(name: str, result: dict) -> str:
    cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
    return (f"{name}: attempted {result['attempted']} failed {result['failed']} "
            f"correct {result['correct']}; " + ", ".join(cells))


def run_all(args) -> int:
    """Every workload in its own process, one summary line each."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        for line in done.stderr.splitlines():
            if not line.startswith(f"{name}: attempted"):
                print(line, file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"] and results[name]["failed"] == 0
        print(summary(name, results[name]))
    print(json.dumps(results))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    try:
        meta, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for p in meta["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(summary(args.workload, result), file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
