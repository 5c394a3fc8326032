"""Solovay-Strassen compositeness testing driven by an external bit supply.

Witnesses are drawn from fixed-width bit chunks by rejection sampling so
that they are exactly uniform over [2, n-2] and every consumed bit
(including rejected chunks) is accounted for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream
from .errors import BitSourceExhaustedError, ValidationError


@dataclass(frozen=True)
class SSVerdict:
    number: int
    verdict: str  # "composite" | "probably_prime"
    witnesses_used: int
    bits_consumed: int


@dataclass(frozen=True)
class HarnessResult:
    limit: int
    max_witnesses: int
    verdicts: tuple[SSVerdict, ...]
    total_bits_consumed: int
    total_witnesses: int

    @property
    def all_composite(self) -> bool:
        return all(v.verdict == "composite" for v in self.verdicts)

    def entries(self):
        """The ``consume-ss`` report's ``(key, value)`` lines."""
        yield "report", "consume-ss"
        yield "limit", self.limit
        yield "max_witnesses", self.max_witnesses
        yield "numbers_tested", len(self.verdicts)
        for v in self.verdicts:
            yield f"ss.{v.number}.verdict", v.verdict
            yield f"ss.{v.number}.witnesses_used", v.witnesses_used
            yield f"ss.{v.number}.bits_consumed", v.bits_consumed
        yield "total_bits_consumed", self.total_bits_consumed
        yield "total_witnesses", self.total_witnesses
        yield "all_composite", self.all_composite


class BitSource:
    """Sequential reader over a BitStream with consumption accounting.

    ``take(k)`` returns the next k bits as an integer, first bit drawn as
    the most significant, read from the stream's packed bytes.
    """

    def __init__(self, stream: BitStream):
        self._packed = stream.packed
        self._n = len(stream)
        self._pos = 0

    @property
    def bits_consumed(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._n - self._pos

    def take(self, k: int) -> int:
        if k < 0:
            raise ValidationError("cannot take a negative number of bits")
        if self._pos + k > self._n:
            raise BitSourceExhaustedError(f"bit source exhausted: wanted {k} bits, {self.bits_remaining} left")
        pos = self._pos
        skip = pos % 8
        chunk = np.unpackbits(self._packed[pos // 8 : (pos + k + 7) // 8], bitorder="little")
        # repacked most significant bit first, the k bits end in -k % 8 zeros
        value = int.from_bytes(np.packbits(chunk[skip : skip + k]).tobytes(), "big") >> -k % 8
        self._pos += k
        return value


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1 by quadratic-reciprocity reduction."""
    if n < 1 or n % 2 == 0:
        raise ValidationError(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def solovay_strassen(n: int, source: BitSource, max_witnesses: int) -> SSVerdict:
    """Probabilistic compositeness test of n with witnesses from ``source``.

    A witness a fails when gcd(a, n) > 1 or a^((n-1)/2) != (a/n) mod n;
    any failing witness proves n composite. After ``max_witnesses`` passing
    witnesses n is declared probably prime (error probability <=
    2^-max_witnesses). Even n > 2 are composite outright and n = 3 has no
    admissible witnesses, so both settle without consuming bits.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    if max_witnesses < 1:
        raise ValidationError("max_witnesses must be >= 1")
    if n % 2 == 0:
        return SSVerdict(n, "composite", witnesses_used=0, bits_consumed=0)
    if n == 3:
        return SSVerdict(n, "probably_prime", witnesses_used=0, bits_consumed=0)

    start = source.bits_consumed
    width = (n - 3).bit_length()
    exponent = (n - 1) // 2
    witnesses = 0
    while witnesses < max_witnesses:
        value = source.take(width)
        if value > n - 4:
            continue  # rejected chunk; bits still count
        a = value + 2
        witnesses += 1
        if math.gcd(a, n) != 1:
            return SSVerdict(n, "composite", witnesses, source.bits_consumed - start)
        j = jacobi(a, n)
        if pow(a, exponent, n) != j % n:
            return SSVerdict(n, "composite", witnesses, source.bits_consumed - start)
    return SSVerdict(n, "probably_prime", witnesses, source.bits_consumed - start)


# The sieve takes 9 bytes per number below the limit (an int64 and a bool).
# Past this limit that outgrows the byte count numpy can size, and np.arange
# raises ValueError, or returns an empty array, instead of MemoryError.
_MAX_LIMIT = np.iinfo(np.intp).max // 9


def carmichael_numbers(limit: int) -> list[int]:
    """All Carmichael numbers below ``limit`` by Korselt's criterion:
    squarefree composite n with p - 1 dividing n - 1 for every prime
    factor p. Each ``limit``'s list is computed once; every call returns a
    fresh copy."""
    if limit < 3:
        raise ValidationError(f"limit must be >= 3, got {limit}")
    if limit > _MAX_LIMIT:
        raise ValidationError(f"limit {limit} exceeds {_MAX_LIMIT}, the largest sieve numpy can size")
    return list(_carmichael_tuple(limit))


@functools.cache
def _carmichael_tuple(limit: int) -> tuple[int, ...]:
    # p - 1 | n - 1 with p | n forces n / p > p, so every prime factor of a
    # Carmichael number n < limit is at most isqrt(limit - 1); a cofactor
    # left in ``rest`` after these primes are divided out fails the test.
    rest = np.arange(limit, dtype=np.int64)
    korselt = np.ones(limit, dtype=bool)
    korselt[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if rest[p] != p:
            continue  # composite: its prime factors already divided it out
        korselt[p] = False
        rest[p::p] //= p
        squarefree = rest[p::p] % p != 0
        korselt[p::p] &= squarefree & ((np.arange(p, limit, p) - 1) % (p - 1) == 0)
    return tuple(np.flatnonzero(korselt & (rest == 1)).tolist())


def carmichael_harness(limit: int, source: BitSource, max_witnesses: int) -> HarnessResult:
    """Test every Carmichael number below ``limit`` against one shared bit
    source, in ascending order. Exhaustion mid-run propagates with the index
    of the number that could not be finished."""
    if max_witnesses < 1:
        raise ValidationError("max_witnesses must be >= 1")
    verdicts: list[SSVerdict] = []
    numbers = carmichael_numbers(limit)
    for index, n in enumerate(numbers):
        try:
            verdicts.append(solovay_strassen(n, source, max_witnesses))
        except BitSourceExhaustedError as exc:
            raise BitSourceExhaustedError(
                f"bit source exhausted at number {n} (index {index} of {len(numbers)})"
            ) from exc
    return HarnessResult(
        limit=limit,
        max_witnesses=max_witnesses,
        verdicts=tuple(verdicts),
        total_bits_consumed=sum(v.bits_consumed for v in verdicts),
        total_witnesses=sum(v.witnesses_used for v in verdicts),
    )
