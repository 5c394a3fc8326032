"""Von Neumann debiasing of the binary stream.

Disjoint consecutive pairs map (0,1) -> 0 and (1,0) -> 1; equal pairs and a
trailing unpaired bit are dropped. For independent identically biased input
bits the output is exactly unbiased.

The kernel works on packed words, 64 pairs at a time, with no branch per
pair. A block of ``_BLOCK_PAIRS`` pairs is packed least significant bit
first, so one uint16 holds 8 pairs, pair j in bits 2j (its first bit) and
2j + 1. A table of all 2^16 such words, built once at import, gives each
word's accepted first bits, least significant first, and their count. Three
merge levels (``v_lo | v_hi << c_lo`` at uint16, uint32, then uint64) join 8
words into one field of at most 64 output bits per 64 pairs. The fields are
laid end to end in packed uint64 words: each field is ORed into the word its
offset falls in, and its carry into the next, with one
``np.bitwise_or.reduceat`` each; no shift reaches 64, and a field that
starts on a word boundary carries nothing. ``np.unpackbits`` then writes the
block's output bits into their slice of the output.

Each block is packed and counted once: its laid-out bytes and output size
are kept until every block is done, then the output is allocated once at
its exact size and each block's bytes are unpacked into their slice. Beyond
the output, a block holds its packed bytes, table lookups and fields: about
1.6 bytes per pair of the block at most, 0.4 MB at 2^18 pairs, whatever
the stream's length; the kept bytes hold at most one bit per pair, 1/16 of
the input's bytes. The tail of fewer than 64 pairs goes through
``np.compress``. Blocks hold whole 64-pair words, so the output does not
depend on the block size.
"""

from __future__ import annotations

import numpy as np

from .bits import BitStream, RawStream

_BLOCK_PAIRS = 1 << 18  # a multiple of 64
_WORD_BITS = 128  # the input bits behind one uint64 field


def _word_table() -> tuple[np.ndarray, np.ndarray]:
    """For each uint16 of 8 packed pairs, its accepted first bits, least
    significant first, and their count, both as uint8."""
    # one pair, first bit in bit 0: 01 (word 2) -> 0 and 10 (word 1) -> 1
    fields = np.array([0, 1, 0, 0], dtype=np.uint8)
    counts = np.array([0, 1, 1, 0], dtype=np.uint8)
    for _ in range(3):
        # twice the pairs: row is the high half, column the low half
        fields = (fields | fields[:, None] << counts).ravel()
        counts = (counts + counts[:, None]).ravel()
    return fields, counts


_FIELDS, _COUNTS = _word_table()


def to_bits(stream: RawStream) -> BitStream:
    """Binary view of a symbol trace: discards removed, order preserved. A
    trace without discards is its own binary view, shared, not copied."""
    symbols = stream.symbols
    return BitStream(symbols if stream.n_discard == 0 else symbols[symbols != 2])


def _word_blocks(bits: np.ndarray):
    """Each block of up to ``_BLOCK_PAIRS`` pairs in whole 64-pair words, as
    a view; the tail of fewer than 64 pairs is in no block."""
    end = len(bits) // _WORD_BITS * _WORD_BITS
    for start in range(0, end, 2 * _BLOCK_PAIRS):
        yield bits[start : min(start + 2 * _BLOCK_PAIRS, end)]


def _block_fields(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 64 pairs of ``block``, the accepted first bits as one uint64
    field, least significant first, and their count."""
    words = np.packbits(block, bitorder="little").view("<u2")  # 8 pairs per uint16
    v, c = _FIELDS.take(words), _COUNTS.take(words)
    for wide in (np.uint16, np.uint32, np.uint64):
        c_lo = c[0::2]
        v = v[0::2].astype(wide) | v[1::2].astype(wide) << c_lo
        c = c_lo + c[1::2]
    return v, c


def _laid_end_to_end(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The fields ``v`` of ``c`` bits each, one after another, as packed
    little-endian bytes."""
    starts = np.cumsum(c, dtype=np.int64) - c
    shift = (starts & 63).astype(np.uint64)
    low = v << shift
    # v >> (64 - shift) without a shift by 64: zero when shift is zero
    carry = v >> np.uint64(1) >> (np.uint64(63) - shift)
    # a field holds at most 64 bits, so consecutive fields start in the same
    # word or the next one, and every word up to the last start holds a start
    firsts = np.searchsorted(starts, np.arange(0, starts[-1] + 1, 64))
    out = np.zeros(len(firsts) + 1, dtype=np.uint64)
    out[:-1] = np.bitwise_or.reduceat(low, firsts)
    out[1:] |= np.bitwise_or.reduceat(carry, firsts)
    return out.astype("<u8", copy=False).view(np.uint8)


def von_neumann_extract(stream: BitStream) -> BitStream:
    bits = stream.bits
    laid, sizes = [], []
    for block in _word_blocks(bits):
        v, c = _block_fields(block)
        laid.append(_laid_end_to_end(v, c))
        sizes.append(int(c.sum()))
    tail = bits[len(bits) // _WORD_BITS * _WORD_BITS : len(bits) // 2 * 2]
    a, b = tail[0::2], tail[1::2]
    keep = a != b
    out = np.empty(sum(sizes) + np.count_nonzero(keep), dtype=np.uint8)
    at = 0
    for packed, size in zip(laid, sizes):
        out[at : at + size] = np.unpackbits(packed, count=size, bitorder="little")
        at += size
    np.compress(keep, a, out=out[at:])
    return BitStream(out)


def expected_yield(p0: float) -> float:
    """Output bits per input bit for an independent source with
    zero-probability ``p0``: accepted pairs occur w.p. 2 p0 (1 - p0) and
    each consumes two input bits for one output bit."""
    return p0 * (1.0 - p0)
