"""Von Neumann debiasing of the binary stream.

Disjoint consecutive pairs map (0,1) -> 0 and (1,0) -> 1; equal pairs and a
trailing unpaired bit are dropped. For independent identically biased input
bits the output is exactly unbiased.

The pairs are read in fixed blocks of ``_BLOCK_PAIRS`` pairs, and each block
keeps its accepted first bits with ``np.compress``. Boolean-mask indexing
walks the runs of the mask, and von Neumann's mask keeps about half the pairs
in runs of about two, so ``a[a != b]`` is about 2.5x slower. ``np.compress``
builds an int64 index of the kept positions, 8 bytes per output bit, so a
whole-stream call would hold twice the stream; per block it holds one
block's. A first pass counts each block's accepted pairs, so the output is
allocated once at its final size and each block compresses into its slice.
Blocks are pair-aligned, so the output does not depend on the block size.
"""

from __future__ import annotations

import numpy as np

from .bits import BitStream, RawStream

_BLOCK_PAIRS = 1 << 16


def to_bits(stream: RawStream) -> BitStream:
    """Binary view of a symbol trace: discards removed, order preserved. A
    trace without discards is its own binary view, shared, not copied."""
    symbols = stream.symbols
    return BitStream(symbols if stream.n_discard == 0 else symbols[symbols != 2])


def _pair_blocks(bits: np.ndarray):
    """The first and second bits of each block of up to ``_BLOCK_PAIRS``
    disjoint pairs, as views; a trailing unpaired bit is in no block."""
    end = len(bits) // 2 * 2
    for start in range(0, end, 2 * _BLOCK_PAIRS):
        stop = min(start + 2 * _BLOCK_PAIRS, end)
        yield bits[start:stop:2], bits[start + 1 : stop : 2]


def von_neumann_extract(stream: BitStream) -> BitStream:
    bits = stream.bits
    sizes = [np.count_nonzero(a != b) for a, b in _pair_blocks(bits)]
    out = np.empty(sum(sizes), dtype=np.uint8)
    at = 0
    for (a, b), size in zip(_pair_blocks(bits), sizes):
        np.compress(a != b, a, out=out[at : at + size])
        at += size
    return BitStream(out)


def expected_yield(p0: float) -> float:
    """Output bits per input bit for an independent source with
    zero-probability ``p0``: accepted pairs occur w.p. 2 p0 (1 - p0) and
    each consumes two input bits for one output bit."""
    return p0 * (1.0 - p0)
