"""CLI surface: record formats, exit codes, flag handling."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aperylab
from aperylab import checks, special
from aperylab.cli import main
from aperylab.sequences import SeqId, apery_neighbours

EXPECTED_JSON_LINE = (
    '{"check":"thm2.1i","p":7,"m":null,"r":null,"modulus":343,'
    '"lhs":"147","rhs":"147","verdict":"pass","skip_reason":null,"sign":null}'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_exact_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--checks", "thm2.1i", "--primes", "7..7", "--format", "json"
    )
    assert code == 0
    assert out == EXPECTED_JSON_LINE + "\n"


def test_verify_formats_carry_identical_data(capsys):
    args = ("verify", "--checks", "eq1.3", "--primes", "3..20")
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, table_out, _ = run_cli(capsys, *args, "--format", "table")
    json_rows = [json.loads(line) for line in json_out.splitlines()]
    csv_lines = csv_out.splitlines()
    header = csv_lines[0].split(",")
    csv_rows = [dict(zip(header, line.split(","))) for line in csv_lines[1:]]
    assert len(json_rows) == len(csv_rows) == len(table_out.splitlines()) - 1
    for jrow, crow in zip(json_rows, csv_rows):
        for field in header:
            jval = "" if jrow[field] is None else str(jrow[field])
            assert jval == crow[field]


def test_verify_balanced_representatives(capsys):
    _, plain, _ = run_cli(
        capsys, "verify", "--checks", "thm3.3_tp", "--primes", "7..7",
        "--format", "json",
    )
    _, balanced, _ = run_cli(
        capsys, "verify", "--checks", "thm3.3_tp", "--primes", "7..7",
        "--format", "json", "--balanced",
    )
    # t_7 = -3 * 49 = 196 (mod 343), balanced form -147
    assert json.loads(plain)["lhs"] == "196"
    assert json.loads(balanced)["lhs"] == "-147"


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "thm9.9")
    assert code == 2 and "unknown checks" in err


def test_verify_conjecture_summary(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--checks", "conj2.1", "--primes", "5..13", "--format", "json"
    )
    assert code == 0
    assert "conj2.1 [conjecture]: supported" in err


def test_verify_conj25_recovery_table(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--checks", "conj2.5", "--primes", "5..23",
        "--m", "1..3", "--format", "json",
    )
    assert code == 0
    assert "c_3 = -17" in err


def test_verify_recovery_follows_r(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--checks", "conj2.5", "--primes", "5..23",
        "--m", "1..3", "--r", "2", "--format", "json",
    )
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith("conj2.5 recovery")]
    assert len(lines) == 3 and all("r=2" in line for line in lines)
    assert lines[2].startswith("conj2.5 recovery m=3: c_3 = -17 ")


@pytest.mark.parametrize(
    "primes, r, lines",
    [
        # p = 5 divides m = 5; p = 3 is below conj2.5's p > 3
        ("5..5", "1", ["conj2.5 recovery m=5: no residue (1 prime skipped)"]),
        ("3..3", "1", ["conj2.5 recovery m=5: no residue (1 prime skipped)"]),
        ("3..5", "1,2", ["conj2.5 recovery m=5: no residue at r=1 (2 primes skipped)",
                         "conj2.5 recovery m=5: no residue at r=2 (2 primes skipped)"]),
    ],
)
def test_verify_recovery_without_a_residue_reports_no_value(capsys, primes, r, lines):
    code, _, err = run_cli(
        capsys, "verify", "--checks", "conj2.5", "--primes", primes, "--m", "5", "--r", r,
    )
    assert code == 0
    assert [line for line in err.splitlines() if line.startswith("conj2.5 recovery")] == lines
    assert "c_5 =" not in err


def test_verify_runs_a_repeated_m_or_r_value_once(capsys):
    args = ("verify", "--checks", "conj2.5,liu_a", "--primes", "3..30",
            "--format", "csv")
    repeated = run_cli(capsys, *args, "--m", "1,1,3", "--r", "2,1,2")
    distinct = run_cli(capsys, *args, "--m", "1,3", "--r", "2,1")
    assert repeated == distinct
    assert "liu_a [theorem]: ok (32 pass, 0 fail, 4 skip)" in distinct[2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--checks", "eq1.3", "--primes", "5..7", "--jobs", jobs])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "--jobs" in err


@pytest.mark.parametrize(
    "checks, flag, value",
    [
        ("liu_a", "--r", "0"),  # m p^(r-1) would be a float index
        ("liu_a", "--m", "0"),
        ("beukers_a", "--m", "-1"),
        ("beukers_a", "--r", "0..2"),
        ("eq1.3", "--m", "1,0"),
    ],
)
def test_verify_rejects_m_r_below_one(capsys, checks, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--checks", checks, "--primes", "5..5", "--m", "5",
              flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and f"argument {flag}: must be >= 1" in err


@pytest.mark.parametrize("flag, value", [("--m", "5..3"), ("--r", "3..1")])
def test_verify_rejects_an_empty_m_or_r(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--checks", "liu_a", "--primes", "5..13", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: selects no value" in err


@pytest.mark.parametrize("checks", ["eq1.3", "liu_a", "id_eq2.2", "id_gf,eq1.3"])
def test_verify_rejects_a_prime_range_without_primes(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--checks", checks, "--primes", "24..28")
    assert code == 2 and out == ""
    assert "argument --primes: no odd prime in 24..28" in err


def test_verify_fixed_range_identity_runs_without_primes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--checks", "id_gf", "--primes", "24..28", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert "id_gf [theorem]: ok (1 pass, 0 fail, 0 skip)" in err


def test_verify_rejects_an_empty_check_list(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", ",")
    assert code == 2 and out == "" and "argument --checks" in err


def test_seq_values(capsys):
    assert run_cli(capsys, "seq", "--name", "t", "--n", "4")[1] == "230481\n"
    assert run_cli(capsys, "seq", "--name", "A", "--n", "5")[1] == "819005\n"
    out = run_cli(capsys, "seq", "--name", "Aprime", "--n", "3", "--mod", "343")[1]
    assert out == "147\n"
    assert run_cli(capsys, "seq", "--name", "D", "--n", "2")[1] == "2/3\n"
    # H_6 = 49/20: the 3s of the terms 1/3 and 1/6 cancel
    assert run_cli(capsys, "seq", "--name", "H", "--n", "6", "--mod", "9")[1] == "2\n"


@pytest.mark.parametrize("name, n", [("A", "-1"), ("Aprime", "-2")])
def test_seq_negative_index_exits_2(capsys, name, n):
    code, out, err = run_cli(capsys, "seq", "--name", name, "--n", n)
    assert code == 2 and out == "" and "need n >= 0" in err


def test_seq_prints_values_past_the_str_digit_limit(capsys):
    # A_3000 has 4588 digits, past Python's default limit of 4300
    code, out, _ = run_cli(capsys, "seq", "--name", "A", "--n", "3000")
    digits = out.strip()
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert code == 0 and len(digits) == 4588
    assert value == apery_neighbours(SeqId.A, 3000)[1]


@pytest.mark.parametrize("name, n", [("t", 8000), ("H", 8000)])
def test_seq_t_runs_in_small_memory(name, n):
    # t_n and the harmonic family are rolled, not kept for every index.  The
    # run is started from a small intermediate parent, since a child's
    # ru_maxrss (KB on Linux) also counts the RSS its parent had when forked.
    script = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-m', 'aperylab', 'seq', '--name', '{name}',"
        f" '--n', '{n}'], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = dict(os.environ)
    src = str(Path(aperylab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, check=True)
    assert int(done.stdout) / 1024 < 60


def test_jobs_1_sweep_loads_no_pool_or_dataclasses():
    # a fresh interpreter, so that only the modules `python -c pass` loads
    # precede the import; tests/lean_import.py names any module it rejects
    env = dict(os.environ)
    src = str(Path(aperylab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = Path(__file__).with_name("lean_import.py")
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith(
        "at --jobs 1 and --jobs 2, none of concurrent.futures, multiprocessing, "
        "dataclasses, inspect\n"
    )


def test_seq_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--name", "nope", "--n", "1"])
    assert exc.value.code == 2


def test_seq_bad_modulus_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--name", "A", "--n", "3", "--mod", "15")
    assert code == 2 and "prime power" in err


def test_seq_bad_modulus_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "seq", "--name", "A", "--n", "5", "--mod", "12")
    assert (code, out) == (2, "")
    assert err == "argument --mod: need an odd prime power, got 12\n"


@pytest.mark.parametrize("name, n, least", [("C", "0", 1), ("Cprime", "-3", 1), ("A", "-1", 0)])
def test_seq_bad_index_names_the_flag(capsys, name, n, least):
    code, out, err = run_cli(capsys, "seq", "--name", name, "--n", n)
    assert (code, out) == (2, "")
    assert err == f"argument --n: need n >= {least}, got {n}\n"


def test_seq_non_integral_residue_exits_1(capsys):
    code, _, err = run_cli(capsys, "seq", "--name", "H", "--n", "5", "--mod", "5")
    assert code == 1 and "divisible" in err


def test_verify_sweep_error_exits_2(capsys, monkeypatch):
    # a ValueError raised inside the sweep is a usage error, with its message
    monkeypatch.setattr(special, "GAMMA_STEP_LIMIT", 5)
    code, out, err = run_cli(capsys, "verify", "--checks", "lemma2.7b", "--primes", "11..11",
                             "--jobs", "1")
    assert (code, out) == (2, "")
    assert err.startswith("gamma cost cap: about 11 product steps at p = 11, e = 1")


def test_verify_sweep_error_exits_2_at_two_jobs(capsys, monkeypatch):
    # 11 runs in this process and 13 in a forked child, and both fail; the
    # earlier task's error is reported, as at --jobs 1
    monkeypatch.setattr(special, "GAMMA_STEP_LIMIT", 5)
    monkeypatch.setattr(checks, "usable_cpus", lambda: 2)
    started = []
    real = checks._run_stripes
    monkeypatch.setattr(checks, "_run_stripes",
                        lambda tasks, workers: started.append(workers) or real(tasks, workers))
    argv = ("verify", "--checks", "lemma2.7b", "--primes", "11..13", "--jobs")
    one = run_cli(capsys, *argv, "1")
    two = run_cli(capsys, *argv, "2")
    assert started == [2]
    assert two == one
    code, out, err = two
    assert (code, out) == (2, "")
    assert err.startswith("gamma cost cap: about 11 product steps at p = 11, e = 1")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_identity_pass_with_spot(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "lemma2.1", "--max-n", "20")
    assert code == 0
    assert "PASS" in out and "1/4" in out


@pytest.mark.parametrize("name, line", [
    ("lemma2.1", "lemma2.1: PASS (n <= 100); spot n = 2: value 1/4"),
    ("eq2.1", "eq2.1: PASS (n <= 99); spot n = 1: value 0/1"),
    ("eq2.2", "eq2.2: PASS (primes <= 500)"),
    ("eq3.1", "eq3.1: PASS (n <= 30); spot n = 0: value 12/1"),
    ("thm3.1", "thm3.1: PASS (n <= 200); spot n = 6: value 3555578025"),
    ("thm3.2", "thm3.2: PASS (n <= 40); spot n = 2: value -7921/14400"),
    ("gf", "gf: PASS (n <= 15); spot n = 1: value 5"),
])
def test_identity_default_range_output(capsys, name, line):
    # the exact stdout of every identity command at its default range
    code, out, err = run_cli(capsys, "identity", "--name", name)
    assert (code, out, err) == (0, line + "\n", "")


def test_identity_thm31(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "thm3.1", "--max-n", "40")
    assert code == 0 and "PASS" in out


def test_identity_eq22_prime_bound(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "eq2.2", "--max-n", "60")
    assert code == 0 and "PASS" in out


def test_identity_rejects_bad_max_n(capsys):
    code, _, _ = run_cli(capsys, "identity", "--name", "thm3.1", "--max-n", "0")
    assert code == 2


def test_gamma_command(capsys):
    code, out, _ = run_cli(
        capsys, "gamma", "--x", "1/4", "--p", "7", "--e", "3", "--pow", "4"
    )
    assert code == 0 and out == "127\n"
    # Gamma_2(5) = -(1 * 3) = 1 (mod 4): x mod 4 alone does not fix the value
    assert run_cli(capsys, "gamma", "--x", "5", "--p", "2", "--e", "2") == (0, "1\n", "")


def test_gamma_non_integral_exits_1(capsys):
    code, _, _ = run_cli(capsys, "gamma", "--x", "1/5", "--p", "5", "--e", "2")
    assert code == 1


@pytest.mark.parametrize("x", [["--x", "-7/2"], ["--x=-7/2"]])
def test_gamma_negative_argument(capsys, x):
    code, out, _ = run_cli(capsys, "gamma", *x, "--p", "101", "--e", "3")
    assert code == 0 and out == "643713\n"


@pytest.mark.parametrize("flag, argv", [
    ("--p", ["--p", "9"]),
    ("--e", ["--p", "7", "--e", "0"]),
    ("--e", ["--p", "7", "--e", "-1"]),
])
def test_gamma_rejects_bad_p_or_e(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--x", "1/4", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}: " in captured.err


def test_gamma_cost_guard_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gamma", "--x", "1/4", "--p", "7", "--e", "1000000")
    assert code == 2 and out == ""
    assert err.startswith("argument --e: gamma cost cap")


def test_gamma_cost_guard_past_every_precision(capsys):
    # at e = 1 the cost is the p-step block pass itself: no --e helps
    code, out, err = run_cli(capsys, "gamma", "--x", "1/4", "--p", "2000003", "--e", "1")
    assert code == 2 and out == ""
    assert err.startswith("argument --e: gamma cost cap: about 2000003 product steps")
    assert "smaller precision" not in err


def test_invalid_prime_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--checks", "eq1.3", "--primes", "50..3")
    assert code == 2


@pytest.mark.parametrize("checks", ["eq1.3", "id_gf"])
@pytest.mark.parametrize("primes", ["50..3", "2..50"])
def test_invalid_prime_range_names_the_flag(capsys, checks, primes):
    code, out, err = run_cli(capsys, "verify", "--checks", checks, "--primes", primes)
    lo, hi = primes.split("..")
    assert (code, out) == (2, "")
    assert err == f"argument --primes: need 3 <= lo <= hi, got [{lo}, {hi}]\n"


# perfbench/tracer.py imports each of these layers by name (its LAYERS), so
# none of them may go, even one whose code has moved, until that list changes.
@pytest.mark.parametrize(
    "layer", ["cli", "checks", "sequences", "special", "modring", "identities", "exactcore"]
)
def test_traced_layer_imports(layer):
    assert importlib.import_module(f"aperylab.{layer}").__name__ == f"aperylab.{layer}"
