"""Byte gates: the output of fixed sweeps must not change.

The mixed sweep covers every check at r = 1 and 2, including the conj2.5
records at m = 7, past the paper's tabulated c_1..c_6, which pass through
the closed form c_m = (17 A_{m-1} - A_m) / 12, and the c_m recovery lines on
stderr.  The large-prime sweep runs every check that reads
E_{p-3}, p B_{p-1}, B_{p-3} or B_{2p-4} up to p = 400, far past the p = 5
Bernoulli fallback.  A refactor has to reproduce these bytes exactly; a
deliberate change of the records has to update the hashes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import aperylab
from aperylab.checks import SIZE_CAP_ENV

ARGV = ["verify", "--checks", "all", "--primes", "3..40", "--m", "1,2,7",
        "--r", "1,2", "--format", "json", "--jobs", "1"]
STDOUT_SHA256 = "62b988e429c24e2311a554b7a580e5d0a9b5b6ad36e43a9e66f35c6084e5a50e"
STDERR_SHA256 = "b011351e7a1301384c6bd931b30cc2529aab5e556a07c73735ae87d680f91502"

LARGE_ARGV = ["verify", "--checks",
              "thm2.1ii,lemma2.5,lemma2.6,lemma2.7b,conj2.1,thm3.3_tpm1,thm3.3_thalf,"
              "thm3.3_thalfp1,liu_a,liu_aprime,conj2.3,conj2.4,conj2.5",
              "--primes", "3..400", "--m", "1,2", "--r", "1", "--format", "json",
              "--jobs", "1"]
LARGE_STDOUT_SHA256 = "93bb0a49a6c885ef9ea725eb582d9a9058dfaa8ab58c9a16154f2fec21de97e2"
LARGE_STDERR_SHA256 = "c39531774341beecc9477f956be8dc4e634577f0de558686571bd11a2a1cf91c"


def _verify(argv):
    env = dict(os.environ)
    env.pop(SIZE_CAP_ENV, None)
    src = str(Path(aperylab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "aperylab", *argv],
                          capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()
    return done, [json.loads(line) for line in done.stdout.splitlines()]


def test_fixed_sweep_output_bytes():
    done, records = _verify(ARGV)
    assert len(records) == 710
    assert sum(r["verdict"] == "skip" for r in records) == 86
    conj25_m7 = [r for r in records if r["check"] == "conj2.5" and r["m"] == 7 and r["p"] > 3]
    assert len(conj25_m7) == 20 and all(r["verdict"] == "pass" for r in conj25_m7)
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256
    assert hashlib.sha256(done.stderr).hexdigest() == STDERR_SHA256


def test_fixed_sweep_output_bytes_at_two_jobs():
    # the forked stripes (one in this process, one in a forked child)
    # through every row type give the same bytes
    done, records = _verify(ARGV[:-1] + ["2"])
    assert len(records) == 710
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256
    assert hashlib.sha256(done.stderr).hexdigest() == STDERR_SHA256


def test_large_prime_sweep_output_bytes():
    done, records = _verify(LARGE_ARGV)
    assert len(records) == 1386
    assert sum(r["verdict"] == "skip" for r in records) == 182
    assert hashlib.sha256(done.stdout).hexdigest() == LARGE_STDOUT_SHA256
    assert hashlib.sha256(done.stderr).hexdigest() == LARGE_STDERR_SHA256
