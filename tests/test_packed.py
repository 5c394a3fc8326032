"""The packed bit kernels against their byte-per-bit oracles.

Every property runs on every length 0-300 (each residue mod 8 and mod 64,
and the lengths either side of one and two words), on fair and biased
bits, and again on hypothesis-drawn streams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng import stats
from ksqrng.bits import BitStream, RawStream, random_bits
from ksqrng.extract import to_bits, von_neumann_extract
from ksqrng.primality import BitSource

LENGTHS = range(301)


def sweep():
    """One fair and one ones-biased stream of every length in LENGTHS."""
    rng = np.random.default_rng(2028)
    for n in LENGTHS:
        for p_one in (0.5, 0.9):
            yield (rng.random(n) < p_one).astype(np.uint8)


@hst.composite
def bit_arrays(draw, min_size=0):
    n = draw(hst.integers(min_size, 300))
    raw = draw(hst.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]


def check_stream(bits):
    stream = BitStream(bits)
    n = len(bits)
    assert len(stream) == n
    assert stream.packed.size == (n + 7) // 8
    assert np.array_equal(stream.bits, bits)
    if n % 8:
        assert stream.packed[-1] >> n % 8 == 0  # zero padding
    assert stream == BitStream(bits.tolist())
    assert stream != BitStream(np.r_[bits, 0])
    if n:
        assert stream != BitStream(bits ^ np.eye(1, n, n // 2, dtype=np.uint8)[0])


def pair_loop(bits):
    """The first bit of each unequal disjoint pair, one pair at a time."""
    return [bits[k] for k in range(0, len(bits) - 1, 2) if bits[k] != bits[k + 1]]


def row_words_oracle(bits, size, n_rows):
    """Each row's bits packed LSB-first into zero-padded uint64 words, one
    row per column, with one zero word below."""
    k = -(-size // 64)
    out = np.zeros((k + 1, n_rows), dtype=np.uint64)
    for r in range(n_rows):
        row = np.zeros(64 * k, dtype=np.uint8)
        row[:size] = bits[r * size : (r + 1) * size]
        out[:k, r] = np.packbits(row, bitorder="little").view("<u8")
    return out


def take_loop(bits, widths):
    """Each width's bits in turn as an integer, first bit most significant."""
    values, pos = [], 0
    for k in widths:
        value = 0
        for b in bits[pos : pos + k]:
            value = value << 1 | int(b)
        values.append(value)
        pos += k
    return values


class TestBitStream:
    def test_every_length(self):
        for bits in sweep():
            check_stream(bits)

    @given(bit_arrays())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, bits):
        check_stream(bits)

    def test_holds_one_bit_per_bit(self):
        stream = BitStream(np.ones(1 << 22, dtype=np.uint8))
        assert stream.packed.nbytes == 1 << 19
        assert random_bits(1, 1 << 22).packed.nbytes == 1 << 19

    def test_packed_is_read_only(self):
        with pytest.raises(ValueError):
            BitStream([1, 0, 1]).packed[0] = 0

    def test_input_stays_writable(self):
        # a BitStream keeps its packed copy, not the caller's array, which a
        # RawStream holds as it is and so freezes
        values = np.array([1, 0, 1], dtype=np.uint8)
        stream = BitStream(values)
        values[0] = 0
        assert stream.bits.tolist() == [1, 0, 1]
        RawStream(values)
        with pytest.raises(ValueError):
            values[0] = 1

    def test_random_bits_are_the_philox_bytes(self):
        for n in LENGTHS:
            gen = np.random.Generator(np.random.Philox(key=n))
            raw = np.frombuffer(gen.bytes((n + 7) // 8), dtype=np.uint8)
            stream = random_bits(n, n)
            assert np.array_equal(stream.bits, np.unpackbits(raw, bitorder="little")[:n])
            assert stream == BitStream(stream.bits)  # zero padding


class TestStatsKernels:
    @staticmethod
    def check(bits):
        stream = BitStream(bits)
        n = len(bits)
        words = stats._words(stream)
        assert stats._ones(words) == int(bits.sum())
        if n:
            assert stats._transitions(words, n) == int(np.count_nonzero(bits[1:] != bits[:-1]))
        if n >= 8:
            byte_vals = np.packbits(bits[: n // 8 * 8], bitorder="little")
            counts = np.bincount(byte_vals, minlength=256)
            freqs = counts[counts > 0] / (n // 8)
            assert stats.entropy_per_byte(stream) == float(-np.sum(freqs * np.log2(freqs)))
        for size in {1, 7, 8, 63, 64, 65, 128, max(n, 1)}:
            n_rows = n // size
            if n_rows:
                rows = bits[: n_rows * size].reshape(n_rows, size)
                assert stats._ones_per_row(stream, size, n_rows).tolist() == rows.sum(axis=1).tolist()

    def test_every_length(self):
        for bits in sweep():
            self.check(bits)

    @given(bit_arrays())
    @settings(max_examples=200, deadline=None)
    def test_drawn_streams(self, bits):
        self.check(bits)

    @given(bits=bit_arrays(min_size=1), size=hst.integers(1, 300), data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_row_words_at_any_size_and_offset(self, bits, size, data):
        # rows start at every bit offset r * size mod 64
        n_rows = data.draw(hst.integers(0, len(bits) // size))
        found = stats._row_words(BitStream(bits), size, n_rows)
        assert np.array_equal(found, row_words_oracle(bits, size, n_rows))

    def test_row_words_every_length(self):
        for bits in sweep():
            for size in (1, 5, 63, 64, 65, 100):
                n_rows = len(bits) // size
                found = stats._row_words(BitStream(bits), size, n_rows)
                assert np.array_equal(found, row_words_oracle(bits, size, n_rows))


class TestBitSource:
    @given(bits=bit_arrays(), widths=hst.lists(hst.integers(0, 70), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_take_matches_loop(self, bits, widths):
        widths = [k for k, end in zip(widths, np.cumsum(widths)) if end <= len(bits)]
        source = BitSource(BitStream(bits))
        assert [source.take(k) for k in widths] == take_loop(bits, widths)
        assert source.bits_consumed == sum(widths)
        assert source.bits_remaining == len(bits) - sum(widths)

    def test_every_length(self):
        for bits in sweep():
            widths = [17, 1, 64, 3, 9] * 8
            widths = [k for k, end in zip(widths, np.cumsum(widths)) if end <= len(bits)]
            source = BitSource(BitStream(bits))
            assert [source.take(k) for k in widths] == take_loop(bits, widths)


class TestExtractKernels:
    def test_to_bits_every_length(self):
        rng = np.random.default_rng(9)
        for n in LENGTHS:
            for p_discard in (0.0, 0.3):
                symbols = np.where(rng.random(n) < p_discard, 2, rng.integers(0, 2, n)).astype(np.uint8)
                assert np.array_equal(to_bits(RawStream(symbols)).bits, symbols[symbols != 2])

    @given(hst.lists(hst.integers(0, 2), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_to_bits_drops_discards(self, symbols):
        symbols = np.array(symbols, dtype=np.uint8)
        binary = to_bits(RawStream(symbols))
        assert binary == BitStream(symbols[symbols != 2])

    def test_von_neumann_every_length(self):
        for bits in sweep():
            assert von_neumann_extract(BitStream(bits)) == BitStream(pair_loop(bits.tolist()))

    def test_to_bits_with_discards_copies_the_binary_symbols_once(self):
        # the mask and the binary symbols, then their packed bytes
        n = 1 << 20
        symbols = np.random.default_rng(4).integers(0, 3, n, dtype=np.uint8)
        stream = RawStream(symbols)
        tracemalloc.start()
        try:
            to_bits(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_binary = n - stream.n_discard
        assert peak <= n + n_binary + n_binary // 8 + (1 << 16)
