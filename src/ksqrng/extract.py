"""Von Neumann debiasing of the binary stream.

Disjoint consecutive pairs map (0,1) -> 0 and (1,0) -> 1; equal pairs and a
trailing unpaired bit are dropped. For independent identically biased input
bits the output is exactly unbiased.
"""

from __future__ import annotations

from .bits import BitStream, RawStream


def to_bits(stream: RawStream) -> BitStream:
    """Binary view of a symbol trace: discards removed, order preserved."""
    symbols = stream.symbols
    return BitStream(symbols[symbols != 2])


def von_neumann_extract(stream: BitStream) -> BitStream:
    bits = stream.bits
    end = len(bits) // 2 * 2
    a, b = bits[0:end:2], bits[1:end:2]
    return BitStream(a[a != b])


def expected_yield(p0: float) -> float:
    """Output bits per input bit for an independent source with
    zero-probability ``p0``: accepted pairs occur w.p. 2 p0 (1 - p0) and
    each consumes two input bits for one output bit."""
    return p0 * (1.0 - p0)
