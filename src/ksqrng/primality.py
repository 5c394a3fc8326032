"""Solovay-Strassen compositeness testing driven by an external bit supply.

Witnesses are drawn from fixed-width bit chunks by rejection sampling so
that they are exactly uniform over [2, n-2] and every consumed bit
(including rejected chunks) is accounted for.
"""

from __future__ import annotations

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
    verdicts: tuple[SSVerdict, ...]
    total_bits_consumed: int
    total_witnesses: int

    @property
    def all_composite(self) -> bool:
        return all(v.verdict == "composite" for v in self.verdicts)


class BitSource:
    """Sequential reader over a BitStream with consumption accounting.

    ``take(k)`` returns the next k bits as an integer, first bit drawn as
    the most significant.
    """

    def __init__(self, stream: BitStream):
        self._bits = stream.bits
        self._pos = 0

    @property
    def bits_consumed(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._bits.size - self._pos

    def take(self, k: int) -> int:
        if k < 0:
            raise ValidationError("cannot take a negative number of bits")
        if self._pos + k > self._bits.size:
            raise BitSourceExhaustedError(
                f"bit source exhausted: wanted {k} bits, {self.bits_remaining} left",
                bits_consumed=self._pos,
            )
        value = 0
        for b in self._bits[self._pos : self._pos + k]:
            value = (value << 1) | int(b)
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
        try:
            value = source.take(width)
        except BitSourceExhaustedError as exc:
            raise BitSourceExhaustedError(
                f"bit source exhausted while testing {n}",
                bits_consumed=source.bits_consumed - start,
                witnesses_used=witnesses,
            ) from exc
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


def carmichael_numbers(limit: int) -> list[int]:
    """All Carmichael numbers below ``limit`` by Korselt's criterion:
    squarefree composite n with p - 1 dividing n - 1 for every prime
    factor p."""
    if limit < 3:
        raise ValidationError(f"limit must be >= 3, got {limit}")
    if limit <= 4:
        return []
    spf = np.arange(limit, dtype=np.int64)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            untouched = sl == np.arange(p * p, limit, p)
            sl[untouched] = p

    found = []
    for n in range(4, limit):
        if spf[n] == n:
            continue  # prime
        m = n
        squarefree = True
        korselt = True
        n_factors = 0
        while m > 1:
            p = int(spf[m])
            m //= p
            n_factors += 1
            if m % p == 0:
                squarefree = False
                break
            if (n - 1) % (p - 1) != 0:
                korselt = False
                break
        if squarefree and korselt and n_factors >= 2:
            found.append(n)
    return found


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
                f"bit source exhausted at number {n} (index {index} of {len(numbers)})",
                bits_consumed=exc.bits_consumed,
                witnesses_used=exc.witnesses_used,
            ) from exc
    return HarnessResult(
        verdicts=tuple(verdicts),
        total_bits_consumed=sum(v.bits_consumed for v in verdicts),
        total_witnesses=sum(v.witnesses_used for v in verdicts),
    )
