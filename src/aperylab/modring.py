"""Odd primes and arithmetic in Z/p^e Z, with p-valuations kept explicit.

Residue refuses arithmetic across different moduli.  FactorialTable keeps i!
as p^v * unit in rows of valuations, units and inverse units per p^e, which
the kernels read directly: a p-divisible binomial is exact mod p^e at O(1).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional, Union


class NotPIntegral(ValueError):
    """A rational with p in its denominator cannot be reduced mod p^e."""

    def __init__(self, message: str, valuation: int) -> None:
        super().__init__(message)
        self.valuation = valuation

    def __reduce__(self):
        # pickling an exception passes back only its args, here the message
        return type(self), (self.args[0], self.valuation)


# ---------------------------------------------------------------------------
# primes

def primes_up_to(hi: int) -> list[int]:
    """All primes <= hi by sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, flag in enumerate(sieve) if flag]


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    for q in range(3, isqrt(p) + 1, 2):
        if p % q == 0:
            return False
    return True


def quadratic_rep(p: int) -> tuple[int, int]:
    """(x, y) with p = x^2 + 4y^2, x odd positive, y positive.

    Exists and is unique for every prime p = 1 (mod 4); found by exhaustive
    search over odd x <= sqrt(p).  Only x^2 is ever used downstream, so the
    sign of x is normalized positive.
    """
    if p % 4 != 1:
        raise ValueError(f"{p} is not 1 (mod 4)")
    for x in range(1, isqrt(p) + 1, 2):
        rest = p - x * x
        if rest % 4 == 0:
            y = isqrt(rest // 4)
            if y > 0 and 4 * y * y == rest:
                return x, y
    raise ValueError(f"no representation p = x^2 + 4y^2 found for {p}")


class PrimeInfo(NamedTuple):
    """A verified odd prime with its class mod 4 and, for class 1, p = x^2 + 4y^2."""

    p: int
    klass: int
    rep: Optional[tuple[int, int]]


def prime_info(p: int) -> PrimeInfo:
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    klass = p % 4
    rep = quadratic_rep(p) if klass == 1 else None
    return PrimeInfo(p, klass, rep)


def primes_in_range(lo: int, hi: int) -> list[PrimeInfo]:
    """The odd primes in [lo, hi] with class and quadratic representation."""
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    out = []
    for p in primes_up_to(hi):
        if p >= lo and p % 2:
            out.append(prime_info(p))
    return out


# ---------------------------------------------------------------------------
# residues

class Residue:
    """An element of Z/p^e Z that remembers (p, e) and refuses mixed arithmetic."""

    __slots__ = ("value", "p", "e", "modulus")

    def __init__(self, value: int, p: int, e: int) -> None:
        self.p = p
        self.e = e
        self.modulus = p ** e
        self.value = value % self.modulus

    def _other_value(self, other: Union["Residue", int]) -> int:
        if isinstance(other, Residue):
            if (other.p, other.e) != (self.p, self.e):
                raise ValueError(
                    f"mixed moduli: {self.p}^{self.e} vs {other.p}^{other.e}"
                )
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value + v, self.p, self.e)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value - v, self.p, self.e)

    def __rsub__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(v - self.value, self.p, self.e)

    def __mul__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v, self.p, self.e)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.p, self.e)

    def __pow__(self, k: int):
        try:
            return Residue(pow(self.value, k, self.modulus), self.p, self.e)
        except ValueError:
            raise ValueError(
                f"not invertible: {self.value} mod {self.p}^{self.e}"
            ) from None

    def inv(self) -> "Residue":
        return self ** -1

    def __eq__(self, other) -> bool:
        if isinstance(other, Residue):
            return (self.p, self.e, self.value) == (other.p, other.e, other.value)
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.p}^{self.e})"


# ---------------------------------------------------------------------------
# rational reduction and factorial tables

def _digits(x: int) -> int:
    """The decimal digits of |x|, counted without str(), which stops at 4300."""
    k = int((abs(x).bit_length() - 1) * 0.3010299956639812) + 1  # log10(2)
    return k + (abs(x) >= 10 ** k)


def reduce_rat(q: Union[Fraction, int], p: int, e: int) -> Residue:
    """A p-integral rational reduced mod p^e; else NotPIntegral, naming sizes."""
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    v = 0
    while den % p == 0:
        den //= p
        v += 1
    if v:
        raise NotPIntegral(
            f"not p-integral: a {_digits(num)}-digit numerator over a "
            f"{_digits(q.denominator)}-digit denominator has p-valuation {-v}", -v)
    return Residue(num * pow(den, -1, p ** e), p, e)


class FactorialTable:
    """Factored factorials for one modulus p^e, built incrementally.

    Three rows are kept as plain ints: the Legendre valuation of i!, its unit
    part with every factor p stripped, and the inverse of that unit.  The
    inverse row costs one modular inversion per extension and is then filled
    backwards, so a binomial off the rows is O(1) and long binomial sums run
    in linear time.
    """

    def __init__(self, p: int, e: int) -> None:
        self.p = p
        self.e = e
        self.modulus = p ** e
        self.val = [0]
        self.unit = [1]
        self.inv_unit = [1]

    def extend(self, n: int) -> None:
        """Make the rows cover 0..n."""
        start = len(self.val)
        if n < start:
            return
        p, m = self.p, self.modulus
        v, u = self.val[-1], self.unit[-1]
        stripped = []
        for i in range(start, n + 1):
            while i % p == 0:
                i //= p
                v += 1
            u = u * i % m
            stripped.append(i)
            self.val.append(v)
            self.unit.append(u)
        # IU[i-1] = IU[i] * (i with p stripped), from IU[n] = U[n]^-1 down
        iu = pow(u, -1, m)
        inv = [iu]
        for s in reversed(stripped[1:]):
            iu = iu * s % m
            inv.append(iu)
        inv.reverse()
        self.inv_unit.extend(inv)
