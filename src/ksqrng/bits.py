"""Symbol and bit streams: the ternary outcome trace with its frequencies,
binary bit sequences packed eight bits to a byte in the bit file's body
layout, and the simulated unbiased bit source, with the seed and integer
checks every seeded entry point shares."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a bool, a float or other non-integer raises."""
    try:
        if isinstance(value, bool):  # a truthy flag must not become a count or a seed
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed: int) -> int:
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    return seed


def small_uints(values, top: int, what: str) -> tuple[np.ndarray, int]:
    """``values``, integers or bools in [0, top], checked before the cast to a
    1-D uint8 array, and their maximum (0 when there are none); a uint8
    array costs one pass and no copy."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    high = int(arr.max()) if arr.ndim == 1 and arr.size and kind in "biu" else 0
    if arr.ndim != 1 or arr.size and (kind not in "biu" or high > top or (kind == "i" and arr.min() < 0)):
        raise ValidationError(f"{what} must be 1-D integers in [0, {top}], got {arr.dtype} of shape {arr.shape}")
    return arr.astype(np.uint8, copy=False), high


_COUNT_SLICE = 1 << 16  # symbols per discard comparison: a 64 KiB bool temporary


class RawStream:
    """Ordered ternary symbol trace with its tallies."""

    __slots__ = ("symbols", "n0", "n1", "n_discard")

    def __init__(self, symbols):
        arr, high = small_uints(symbols, 2, "symbol trace")
        arr.setflags(write=False)
        self.symbols = arr
        # count_nonzero of a uint8 array needs no temporary; only a trace
        # that holds a discard (its maximum is 2) pays for comparisons, one
        # slice at a time, so no temporary grows with the trace
        self.n_discard = 0
        if high == 2:
            for i in range(0, arr.size, _COUNT_SLICE):
                self.n_discard += int(np.count_nonzero(arr[i : i + _COUNT_SLICE] == 2))
        self.n1 = int(np.count_nonzero(arr)) - self.n_discard
        self.n0 = arr.size - self.n1 - self.n_discard

    def __len__(self):
        return self.symbols.size

    def __eq__(self, other):
        return isinstance(other, RawStream) and np.array_equal(self.symbols, other.symbols)

    def __repr__(self):
        return f"RawStream(n={len(self)}, n0={self.n0}, n1={self.n1}, n_discard={self.n_discard})"


@dataclass(frozen=True)
class Outcomes:
    """Symbol counts of a trace, p0 and p1 conditioned on the binary
    (non-discard) outcomes, so they sum to 1, p_discard over all trials, and
    their binomial standard errors (NaN where a denominator is zero)."""

    n0: int
    n1: int
    n_discard: int
    p0: float
    p1: float
    p_discard: float
    p0_stderr: float
    p1_stderr: float
    p_discard_stderr: float

    @classmethod
    def of(cls, stream: RawStream, **fields):
        """The outcome block of ``stream``; a subclass takes its own
        ``fields`` beside it."""
        n0, n1, nd = stream.n0, stream.n1, stream.n_discard
        nb = n0 + n1
        n = nb + nd
        nan = float("nan")
        p0 = n0 / nb if nb else nan
        p1 = n1 / nb if nb else nan
        se_binary = math.sqrt(p0 * p1 / nb) if nb else nan
        pd = nd / n if n else nan
        se_discard = math.sqrt(pd * (1.0 - pd) / n) if n else nan
        return cls(
            n0=n0,
            n1=n1,
            n_discard=nd,
            p0=p0,
            p1=p1,
            p_discard=pd,
            p0_stderr=se_binary,
            p1_stderr=se_binary,
            p_discard_stderr=se_discard,
            **fields,
        )


class BitStream:
    """Immutable sequence of bits in the bit file's body layout: ``packed``
    holds them eight to a byte, least significant bit first, with zero
    padding in the final byte. ``BitStream(bits)`` packs a 0/1 sequence."""

    __slots__ = ("packed", "_n")

    def __init__(self, bits):
        arr = small_uints(bits, 1, "bit sequence")[0]
        self._set(np.packbits(arr, bitorder="little"), arr.size)

    @classmethod
    def from_packed(cls, packed: np.ndarray, n_bits: int) -> BitStream:
        """The stream held by ``packed``, a uint8 array of exactly
        ceil(n_bits / 8) bytes with zero padding; neither is checked."""
        stream = cls.__new__(cls)
        stream._set(packed, n_bits)
        return stream

    def _set(self, packed: np.ndarray, n_bits: int) -> None:
        packed.setflags(write=False)
        self.packed = packed
        self._n = n_bits

    @property
    def bits(self) -> np.ndarray:
        """A fresh copy of the bits unpacked, one 0/1 uint8 each."""
        return np.unpackbits(self.packed, count=self._n, bitorder="little")

    def __len__(self):
        return self._n

    def __eq__(self, other):
        # zero padding makes equal streams equal bytes
        return isinstance(other, BitStream) and self._n == other._n and np.array_equal(self.packed, other.packed)

    def __repr__(self):
        return f"BitStream(length={len(self)})"


def random_bits(seed: int, n_bits: int) -> BitStream:
    """Seeded unbiased bit source: ceil(n_bits / 8) counter-based generator
    bytes, the bits past ``n_bits`` in the final one cleared."""
    seed = _check_seed(seed)
    n_bits = _integer(n_bits, "n_bits")
    if n_bits < 0:
        raise ValidationError("n_bits must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = np.frombuffer(bytearray(gen.bytes((n_bits + 7) // 8)), dtype=np.uint8)
    if n_bits % 8:
        raw[-1] &= (1 << n_bits % 8) - 1
    return BitStream.from_packed(raw, n_bits)
