"""Von Neumann debiasing of the binary stream.

Disjoint consecutive pairs map (0,1) -> 0 and (1,0) -> 1; equal pairs and a
trailing unpaired bit are dropped. For independent identically biased input
bits the output is exactly unbiased.

The kernel works on the stream's packed bytes, 64 pairs at a time, with no
branch per pair. Packed least significant bit first, one uint16 holds 8
pairs, pair j in bits 2j (its first bit) and 2j + 1. A table of all 2^16
such words, built once at import, gives each word's accepted first bits,
least significant first, and their count. Three merge levels (``v_lo |
v_hi << c_lo`` at uint16, uint32, then uint64) join 8 words into one field
of at most 64 output bits per 64 pairs. The fields are laid end to end in
the packed uint64 output words: each field is ORed into the word its offset
falls in, and its carry into the next, with one ``np.bitwise_or.reduceat``
each; no shift reaches 64, and a field that starts on a word boundary
carries nothing.

The input is read in blocks of ``_BLOCK_PAIRS`` pairs, each a view of the
packed bytes, and each block's fields go straight into the output at the
offset where the block before ended. The output is allocated once, at one
bit per input pair (twice the expected output of a fair source), and its
used bytes are copied out at the end. Beyond it, a block holds its table
lookups and fields: about 1.3 bytes per pair of the block at most, 0.33
MB at 2^18 pairs, whatever the stream's length. The last block, with the
tail of fewer than 64 pairs, is copied and zero-padded to whole words, whose
padding pairs are equal and drop out. Blocks hold whole 64-pair words, so
the output does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitStream, Outcomes, RawStream

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
    """Binary view of a symbol trace, packed: discards removed, order
    preserved. A trace with discards makes one copy of its binary symbols
    before they are packed."""
    symbols = stream.symbols
    binary = symbols if stream.n_discard == 0 else symbols[symbols != 2]
    return BitStream.from_packed(np.packbits(binary, bitorder="little"), binary.size)


def _word_blocks(packed: np.ndarray, n_bits: int):
    """Each block of up to ``_BLOCK_PAIRS`` pairs of the packed stream, in
    whole 64-pair words: a view, except for a last block that ends past the
    last pair, which is a copy zero-padded to whole words, the unpaired
    last bit cleared; the padding pairs are 00, which drop out."""
    paired = n_bits // 2 * 2
    end = -(-paired // _WORD_BITS) * _WORD_BITS // 8
    step = _BLOCK_PAIRS // 4
    for start in range(0, end, step):
        stop = min(start + step, end)
        if 8 * stop <= paired:
            yield packed[start:stop]
            continue
        block = np.zeros(stop - start, dtype=np.uint8)
        used = (paired + 7) // 8 - start
        block[:used] = packed[start : start + used]
        if paired % 8:
            block[used - 1] &= (1 << paired % 8) - 1
        yield block


def _block_fields(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 64 pairs of the packed ``block``, the accepted first bits as one
    uint64 field, least significant first, and their count."""
    words = block.view("<u2")  # 8 pairs per uint16
    v, c = _FIELDS.take(words), _COUNTS.take(words)
    for wide in (np.uint16, np.uint32, np.uint64):
        c_lo = c[0::2]
        v = v[0::2].astype(wide) | v[1::2].astype(wide) << c_lo
        c = c_lo + c[1::2]
    return v, c


def _lay(v: np.ndarray, c: np.ndarray, out: np.ndarray, at: int) -> int:
    """OR the fields ``v`` of ``c`` bits each, one after another, into the
    packed words ``out`` from bit ``at``; the bit after the last field."""
    starts = np.cumsum(c, dtype=np.int64) - c + at
    shift = (starts & 63).astype(np.uint64)
    low = v << shift
    # v >> (64 - shift) without a shift by 64: zero when shift is zero
    carry = v >> np.uint64(1) >> (np.uint64(63) - shift)
    # a field holds at most 64 bits, so consecutive fields start in the same
    # word or the next one, and every word from the first start to the last
    # holds a start
    first = at >> 6
    firsts = np.searchsorted(starts, np.arange(64 * first, starts[-1] + 1, 64))
    out[first : first + len(firsts)] |= np.bitwise_or.reduceat(low, firsts)
    out[first + 1 : first + 1 + len(firsts)] |= np.bitwise_or.reduceat(carry, firsts)
    return int(starts[-1] + c[-1])


def von_neumann_extract(stream: BitStream) -> BitStream:
    packed, n = stream.packed, len(stream)
    # every 64 pairs give at most 64 bits, and the last field's carry may
    # reach one word past the last start
    out = np.zeros(n // _WORD_BITS + 2, dtype="<u8")
    at = 0
    for block in _word_blocks(packed, n):
        at = _lay(*_block_fields(block), out, at)
    return BitStream.from_packed(out.view(np.uint8)[: (at + 7) // 8].copy(), at)


@dataclass(frozen=True)
class ExtractReport:
    """The binary input bits of an extraction, its output bits and the
    input's zero fraction, :class:`Outcomes`'s p0 (NaN without binary
    input)."""

    input_bits: int
    output_bits: int
    input_zero_fraction: float

    @classmethod
    def of(cls, trace: RawStream, out: BitStream) -> ExtractReport:
        return cls(trace.n0 + trace.n1, len(out), Outcomes.of(trace).p0)

    def entries(self):
        """The ``extract`` report's ``(key, value)`` lines."""
        n_in, n_out = self.input_bits, self.output_bits
        yield "report", "extract"
        yield "input_bits", n_in
        yield "pairs", n_in // 2
        yield "accepted_pairs", n_out
        yield "dropped_trailing_bit", bool(n_in % 2)
        yield "output_bits", n_out
        yield "realized_yield", n_out / n_in if n_in else 0.0
        yield "input_zero_fraction", self.input_zero_fraction
        yield "expected_yield", expected_yield(self.input_zero_fraction)


def expected_yield(p0: float) -> float:
    """Output bits per input bit for an independent source with
    zero-probability ``p0``: accepted pairs occur w.p. 2 p0 (1 - p0) and
    each consumes two input bits for one output bit."""
    return p0 * (1.0 - p0)
