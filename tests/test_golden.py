"""Byte gate: the output of a fixed mixed sweep must not change.

The sweep covers every check at r = 1 and 2, including the m = 7 rows that
conj2.5 skips for want of a tabulated reference constant, and the c_m
recovery lines on stderr.  A refactor of the registry has to reproduce these
bytes exactly; a deliberate change of the records has to update the hashes.
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
STDOUT_SHA256 = "741603c77a54c8c943bb556d16e231bceff6581914537630e56c73cf52b78f26"
STDERR_SHA256 = "a64cc6336b26fb50d13d5cfc65442179cf74d66b2128a0abd4e17d8d4e305da9"


def test_fixed_sweep_output_bytes():
    env = dict(os.environ)
    env.pop(SIZE_CAP_ENV, None)
    src = str(Path(aperylab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "aperylab", *ARGV],
                          capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(records) == 710
    assert sum(r["verdict"] == "skip" for r in records) == 106
    assert any(r["check"] == "conj2.5" and r["m"] == 7
               and "no tabulated reference" in r["skip_reason"] for r in records)
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256
    assert hashlib.sha256(done.stderr).hexdigest() == STDERR_SHA256
