"""Binary bit sequences and the simulated unbiased source."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def small_uints(values, top: int, what: str) -> np.ndarray:
    """``values``, integers or bools in [0, top], checked before the cast to a
    read-only 1-D uint8 array; a uint8 array costs one pass and no copy."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if arr.ndim != 1 or arr.size and (kind not in "biu" or arr.max() > top or (kind == "i" and arr.min() < 0)):
        raise ValidationError(f"{what} must be 1-D integers in [0, {top}], got {arr.dtype} of shape {arr.shape}")
    arr = arr.astype(np.uint8, copy=False)
    arr.setflags(write=False)
    return arr


class BitStream:
    """Immutable sequence of bits stored one per byte (values 0/1)."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = small_uints(bits, 1, "bit sequence")

    def __len__(self):
        return self.bits.size

    def __eq__(self, other):
        return isinstance(other, BitStream) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"BitStream(length={len(self)})"


def random_bits(seed: int, n_bits: int) -> BitStream:
    """Seeded unbiased bit source (counter-based generator, byte expanded)."""
    if n_bits < 0:
        raise ValidationError("n_bits must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    n_bytes = (n_bits + 7) // 8
    raw = np.frombuffer(gen.bytes(n_bytes), dtype=np.uint8)
    return BitStream(np.unpackbits(raw, bitorder="little")[:n_bits])
