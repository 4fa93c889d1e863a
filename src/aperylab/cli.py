"""Command-line front end: congruence sweeps, sequence values, identity suites,
and p-adic Gamma evaluation.

Records go to stdout (one JSON object per line, CSV, or an aligned table);
progress, skip diagnostics, and summaries go to stderr.  Exit codes: 0 all
requested checks hold, 1 a theorem failed or a conjecture instance was
refuted, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import isqrt

from .checks import (
    CHECKS,
    CheckResult,
    Identity,
    Status,
    cm_recovery,
    fixed_range,
    run_check,
    sweep,
    usable_cpus,
)
from .modring import NotPIntegral, is_odd_prime, primes_in_range
from .sequences import C_ROWS, SeqId, seq_exact, seq_mod
from .special import padic_gamma

RECORD_FIELDS = ("check", "p", "m", "r", "modulus", "lhs", "rhs",
                 "verdict", "skip_reason", "sign")

IDENTITY_NAMES = {
    name[3:]: name for name, cd in CHECKS.items() if isinstance(cd.runner, Identity)
}


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        v = int(text)
        return v, v
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} range: {text!r}") from None


def _parse_int_list(text: str, what: str) -> list[int]:
    """A list `a,b,...` or range `a..b` of distinct values, each at least 1,
    in first-occurrence order."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"selects no value: {text!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {min(values)}")
    return list(dict.fromkeys(values))  # a repeated value runs once


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _prime(text: str) -> int:
    v = _positive_int(text)
    if v != 2 and not is_odd_prime(v):
        raise argparse.ArgumentTypeError(f"must be a prime, got {v}")
    return v


def _render_value(value, modulus, balanced: bool):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    v = int(value)
    if balanced and modulus and 2 * v > modulus:
        v -= modulus
    return str(v)


def record_dict(res: CheckResult, balanced: bool = False) -> dict:
    return {
        "check": res.check,
        "p": res.p,
        "m": res.m,
        "r": res.r,
        "modulus": res.modulus,
        "lhs": _render_value(res.lhs, res.modulus, balanced),
        "rhs": _render_value(res.rhs, res.modulus, balanced),
        "verdict": res.verdict,
        "skip_reason": res.skip_reason,
        "sign": res.sign,
    }


def _emit(results, fmt: str, balanced: bool, out) -> None:
    rows = [record_dict(r, balanced) for r in results]
    if fmt == "json":
        # one encoder for every row; json.dumps with separators builds one per call
        encode = json.JSONEncoder(separators=(",", ":")).encode
        for row in rows:
            out.write(encode(row) + "\n")
    elif fmt == "csv":
        out.write(",".join(RECORD_FIELDS) + "\n")
        for row in rows:
            out.write(
                ",".join("" if row[f] is None else str(row[f]) for f in RECORD_FIELDS)
                + "\n"
            )
    else:
        widths = {
            f: max([len(f)] + [len(str(row[f])) for row in rows if row[f] is not None])
            for f in RECORD_FIELDS
        }
        out.write("  ".join(f.ljust(widths[f]) for f in RECORD_FIELDS).rstrip() + "\n")
        for row in rows:
            cells = ["" if row[f] is None else str(row[f]) for f in RECORD_FIELDS]
            out.write(
                "  ".join(c.ljust(widths[f]) for f, c in zip(RECORD_FIELDS, cells)).rstrip()
                + "\n"
            )


def _summarize(results, err) -> int:
    """Per-check summary on stderr; exit code 0/1."""
    failed = False
    by_check: dict[str, list[CheckResult]] = {}
    for r in results:
        by_check.setdefault(r.check, []).append(r)
    for name, rs in by_check.items():
        npass = sum(1 for r in rs if r.verdict == "pass")
        nfail = sum(1 for r in rs if r.verdict == "fail")
        nskip = sum(1 for r in rs if r.verdict == "skip")
        status = CHECKS[name].status
        if status is Status.CONJECTURE:
            tag = "REFUTED instance found" if nfail else "supported"
        else:
            tag = "FAILED" if nfail else "ok"
        err.write(f"{name} [{status.value}]: {tag} "
                  f"({npass} pass, {nfail} fail, {nskip} skip)\n")
        failed = failed or nfail > 0
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.checks.strip().lower() == "all":
        names = list(CHECKS)
    else:
        names = [c.strip().lower() for c in args.checks.split(",") if c.strip()]
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown checks: {', '.join(unknown)}\n"
                f"valid names: {', '.join(CHECKS)}"
            )
        if not names:
            raise argparse.ArgumentTypeError("argument --checks: names no check")
    try:
        plist = [pi.p for pi in primes_in_range(*args.primes)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"argument --primes: {exc}") from None
    # only the fixed-range identities run without a prime
    if not all(map(fixed_range, names)) and not plist:
        lo, hi = args.primes
        raise ValueError(f"argument --primes: no odd prime in {lo}..{hi}")
    # the sweep's ValueErrors (the gamma cost cap) are main's exit 2; no check
    # reduces a value that is not p-integral, so no NotPIntegral leaves it
    results = sweep(names, plist, m_list=args.m, r_list=args.r, jobs=args.jobs)
    _emit(results, args.format, args.balanced, sys.stdout)
    code = _summarize(results, sys.stderr)
    if "conj2.5" in names:
        # each conj2.5 record carries its prime's residue of c_m
        residues = {(res.p, res.m, res.r): res.recovery for res in results
                    if res.check == "conj2.5"}
        # a plain --r 1 run keeps its recovery lines free of an r tag
        show_r = args.r != [1]
        for m in args.m:
            for r in args.r:
                r_tag = f" at r={r}" if show_r else ""
                value, report = cm_recovery(m, r, [(p, residues[p, m, r]) for p in plist])
                if report["modulus"] == 1:
                    # no prime gave a residue, so there is no value to report
                    n = len(report["skipped"])
                    sys.stderr.write(
                        f"conj2.5 recovery m={m}: no residue{r_tag} "
                        f"({n} prime{'' if n == 1 else 's'} skipped)\n"
                    )
                    continue
                parts = ", ".join(f"{v} (mod {p})" for p, v in report["residues"])
                sys.stderr.write(
                    f"conj2.5 recovery m={m}: c_{m} = {value}{r_tag} "
                    f"(mod {report['modulus']}; {parts}); odd={report['odd']}\n"
                )
    return code


def cmd_seq(args) -> int:
    sid = SeqId(args.name)
    least = 1 if sid in C_ROWS else 0
    if args.n < least:
        raise argparse.ArgumentTypeError(f"argument --n: need n >= {least}, got {args.n}")
    if args.mod is not None:
        p, e = _odd_prime_power(args.mod)
        # a value that is not p-integral raises NotPIntegral: main's exit 1
        print(seq_mod(sid, args.n, p, e).value)
        return 0
    # exact values pass Python's default 4300-digit int-to-str limit
    # (A_n from n = 2813 on); print them whole
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    print(_render_value(seq_exact(sid, args.n), None, False))
    return 0


def _odd_prime_power(mod: int) -> tuple[int, int]:
    if mod >= 3 and mod % 2:
        # the least factor of mod is a prime p; mod must be a power of it
        p = next((q for q in range(3, isqrt(mod) + 1, 2) if mod % q == 0), mod)
        e = 1
        while p ** e < mod:
            e += 1
        if p ** e == mod:
            return p, e
    raise argparse.ArgumentTypeError(f"argument --mod: need an odd prime power, got {mod}")


def cmd_identity(args) -> int:
    name = IDENTITY_NAMES[args.name]
    max_n = args.max_n
    if max_n is not None and max_n < 1:
        raise argparse.ArgumentTypeError("--max-n must be >= 1")
    if not fixed_range(name):
        # the free parameter is the prime bound
        bound = max_n if max_n is not None else 500
        if bound < 3:
            raise argparse.ArgumentTypeError(
                "--max-n must be >= 3 for eq2.2 (it bounds the primes)")
        results = [
            run_check(name, pi.p) for pi in primes_in_range(3, bound)
        ]
        ok = all(r.verdict == "pass" for r in results)
        print(f"{args.name}: {'PASS' if ok else 'FAIL'} (primes <= {bound})")
        if not ok:
            bad = next(r for r in results if r.verdict != "pass")
            print(f"  counterexample at p = {bad.p}, k = {bad.m}: "
                  f"{bad.lhs} != {bad.rhs} (mod {bad.modulus})")
        return 0 if ok else 1
    res = run_check(name, max_n=max_n)
    shown = max_n if max_n is not None else CHECKS[name].runner.max_n
    if res.verdict == "pass":
        lhs = _render_value(res.lhs, None, False)
        print(f"{args.name}: PASS (n <= {shown}); spot n = {res.m}: value {lhs}")
        return 0
    print(f"{args.name}: FAIL at n = {res.m}: "
          f"{_render_value(res.lhs, None, False)} != {_render_value(res.rhs, None, False)}")
    return 1


def cmd_gamma(args) -> int:
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational: {args.x!r}") from None
    try:
        value = padic_gamma(x, args.p, args.e) ** args.pow
    except NotPIntegral:
        raise  # main's exit 1
    except ValueError as exc:  # the cost guard: a precision out of reach
        raise argparse.ArgumentTypeError(f"argument --e: {exc}") from None
    print(value.value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperylab",
        description="verify supercongruences and identities for the Apery-style sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run congruence checks over a prime range")
    v.add_argument("--checks", default="all",
                   help="comma list of check names, or 'all'")
    v.add_argument("--primes", default="3..50", metavar="LO..HI",
                   type=lambda s: _parse_range(s, "prime"),
                   help="prime range, e.g. 3..200 (default 3..50)")
    v.add_argument("--m", default="1..2", metavar="LIST",
                   type=lambda s: _parse_int_list(s, "m"),
                   help="m values, e.g. 1,2 or 1..3 (default 1..2)")
    v.add_argument("--r", default="1", metavar="LIST",
                   type=lambda s: _parse_int_list(s, "r"),
                   help="r values (default 1)")
    v.add_argument("--jobs", type=_positive_int, default=usable_cpus(),
                   help="parallel workers, at most the usable CPUs and the task "
                        "count (default: available parallelism)")
    v.add_argument("--format", choices=("table", "json", "csv"), default="table")
    v.add_argument("--balanced", action="store_true",
                   help="print symmetric residue representatives")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("seq", help="print one sequence value")
    s.add_argument("--name", required=True, choices=[sid.value for sid in SeqId])
    s.add_argument("--n", required=True, type=int)
    s.add_argument("--mod", type=int, default=None,
                   help="odd prime power modulus for a residue instead")
    s.set_defaults(fn=cmd_seq)

    i = sub.add_parser("identity", help="verify one exact identity up to max-n")
    i.add_argument("--name", required=True, choices=sorted(IDENTITY_NAMES))
    i.add_argument("--max-n", type=int, default=None)
    i.set_defaults(fn=cmd_identity)

    g = sub.add_parser("gamma", help="evaluate the p-adic Gamma function at a rational")
    g.add_argument("--x", required=True, help="rational argument, e.g. 1/4")
    g.add_argument("--p", required=True, type=_prime)
    g.add_argument("--e", type=_positive_int, default=3)
    g.add_argument("--pow", type=int, default=1)
    g.set_defaults(fn=cmd_gamma)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["gamma"] and "--x" in argv[:-1]:
        # argparse takes a value such as -7/2 for a flag; bind it to --x
        i = argv.index("--x")
        if not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--x={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotPIntegral as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (argparse.ArgumentTypeError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())
