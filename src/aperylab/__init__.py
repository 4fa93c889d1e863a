"""Exact verification suite for Apery-number supercongruences and p-adic identities."""

from .checks import (
    CHECKS,
    CheckResult,
    CrtAccumulator,
    Status,
    recover_cm,
    run_check,
    sweep,
)
from .modring import (
    FactorialTable,
    NotPIntegral,
    PrimeInfo,
    Residue,
    prime_info,
    primes_in_range,
    reduce_rat,
)
from .sequences import SeqId, seq_exact, seq_mod
from .special import (
    bernoulli,
    bernoulli_table,
    gamma_quarter_closed_form,
    padic_gamma,
)

__version__ = "0.1.0"
