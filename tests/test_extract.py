import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng import extract
from ksqrng.bits import BitStream, RawStream
from ksqrng.extract import expected_yield, to_bits, von_neumann_extract

bit_lists = hst.lists(hst.integers(min_value=0, max_value=1), max_size=400)


@hst.composite
def long_bit_arrays(draw):
    """Up to 2,175 bits: many 128-bit words (64 pairs each) and any tail."""
    n = draw(hst.integers(0, 17 * 128 - 1))
    raw = draw(hst.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]


BLOCK_BITS = 2 * extract._BLOCK_PAIRS
WORD_BITS = 128  # 64 pairs, one packed output field


def pair_loop(bits):
    """The first bit of each unequal disjoint pair, one pair at a time."""
    bits = list(bits)
    return [bits[k] for k in range(0, len(bits) - 1, 2) if bits[k] != bits[k + 1]]


def pairs(rng, accepted):
    """One pair per entry of ``accepted``: 01 or 10 where it is true, 00 or
    11 where it is false, the first bit drawn from ``rng``."""
    first = rng.integers(0, 2, len(accepted), dtype=np.uint8)
    return np.stack([first, first ^ np.asarray(accepted, dtype=np.uint8)], axis=1).ravel()


def assert_matches_pair_loop(bits):
    out = von_neumann_extract(BitStream(bits)).bits
    assert out.tolist() == pair_loop(np.asarray(bits).tolist())


class TestVonNeumann:
    def test_pair_mapping(self):
        out = von_neumann_extract(BitStream([0, 1, 1, 0, 0, 0, 1, 1]))
        assert list(out.bits) == [0, 1]

    def test_empty(self):
        assert len(von_neumann_extract(BitStream([]))) == 0

    def test_all_pairs_rejected(self):
        assert len(von_neumann_extract(BitStream([1, 1, 0, 0]))) == 0

    def test_trailing_bit_dropped(self):
        out = von_neumann_extract(BitStream([0, 1, 1]))
        assert list(out.bits) == [0]

    @given(bit_lists)
    @settings(max_examples=200, deadline=None)
    def test_output_never_longer_than_half(self, bits):
        assert len(von_neumann_extract(BitStream(bits))) <= len(bits) // 2

    @given(bit_lists)
    @settings(max_examples=200, deadline=None)
    def test_complement_symmetry(self, bits):
        stream = BitStream(bits)
        flipped = BitStream(1 - stream.bits)
        assert np.array_equal(
            von_neumann_extract(flipped).bits, 1 - von_neumann_extract(stream).bits
        )

    @given(bit_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_loop(self, bits):
        assert von_neumann_extract(BitStream(bits)).bits.tolist() == pair_loop(bits)

    @given(bits=long_bit_arrays(), block_words=hst.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_block_size_does_not_change_output(self, bits, block_words):
        # blocks of 1-9 whole 64-pair words, so most streams span blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extract, "_BLOCK_PAIRS", 64 * block_words)
            assert_matches_pair_loop(bits)

    @given(long_bit_arrays())
    @settings(max_examples=200, deadline=None)
    def test_long_streams_match_pair_loop(self, bits):
        assert_matches_pair_loop(bits)

    def test_word_table_matches_pair_loop(self):
        # every uint16 of 8 packed pairs, least significant bit first
        for word in range(1 << 16):
            accepted = pair_loop([word >> i & 1 for i in range(16)])
            assert extract._COUNTS[word] == len(accepted)
            assert extract._FIELDS[word] == sum(bit << i for i, bit in enumerate(accepted))

    @pytest.mark.parametrize("lead", range(65))
    def test_full_words_at_every_offset(self, lead):
        # a word with `lead` accepted pairs, then words whose 64 pairs are
        # all 10 or 01: each full field starts at bit `lead` mod 64 of an
        # output word, so at lead 0 (and 64) its carry must be empty. The
        # pairs are drawn: in strictly alternating words every full field is
        # the same, and a field ORed into its neighbour changes nothing
        rng = np.random.default_rng(lead)
        lead_word = pairs(rng, rng.permutation(np.arange(64) < lead))
        assert_matches_pair_loop(np.r_[lead_word, pairs(rng, np.ones(3 * 64, dtype=bool)), 1])

    def test_words_without_accepted_pairs(self):
        # words with no accepted pair, alone and between words with some,
        # whose fields then start in the same output word as the one before
        rng = np.random.default_rng(14)
        assert len(von_neumann_extract(BitStream(pairs(rng, np.zeros(4 * 64, dtype=bool))))) == 0
        counts = [37, 0, 0, 64, 0, 50, 0, 0, 0, 63, 0]
        accepted = np.concatenate([rng.permutation(np.arange(64) < c) for c in counts])
        assert_matches_pair_loop(pairs(rng, accepted))

    @pytest.mark.parametrize("words", [5, 9])
    @pytest.mark.parametrize("tail", [0, 1, 2, 126, 127])
    def test_tail_lengths_match_pair_loop(self, words, tail):
        bits = np.random.default_rng(words * 1000 + tail).integers(0, 2, words * WORD_BITS + tail, dtype=np.uint8)
        assert_matches_pair_loop(bits)

    @pytest.mark.parametrize("n", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2])
    def test_block_edges_match_pair_loop(self, n):
        # one block less a bit, one whole block, and one or two bits into
        # the next; the final bit pairs with no other at odd n
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        out = von_neumann_extract(BitStream(bits))
        assert out.bits.tolist() == pair_loop(bits.tolist())
        assert out.bits.flags.c_contiguous

    def test_multi_block_biased_input_matches_pair_loop(self):
        rng = np.random.default_rng(11)
        n = int(rng.integers(3 * BLOCK_BITS, 5 * BLOCK_BITS))
        bits = (rng.random(n) >= 0.7).astype(np.uint8)
        assert von_neumann_extract(BitStream(bits)).bits.tolist() == pair_loop(bits.tolist())

    def test_strided_stream_matches_pair_loop(self):
        # a non-contiguous view: every third bit of a longer array, over
        # several blocks, with a trailing unpaired bit
        whole = np.random.default_rng(12).integers(0, 2, 3 * (2 * BLOCK_BITS + 3), dtype=np.uint8)
        stream = BitStream(whole[1::3])
        assert not stream.bits.flags.c_contiguous
        assert len(stream) % 2 == 1
        assert von_neumann_extract(stream).bits.tolist() == pair_loop(stream.bits.tolist())

    def test_peak_is_output_plus_one_block(self):
        # the output and every block's laid-out output bytes (an eighth of
        # the output), then per block its packed words, table lookups and
        # fields; a whole-stream pass would hold the packed stream or its
        # fields beside the output
        bits = np.random.default_rng(13).integers(0, 2, 1 << 22, dtype=np.uint8)
        stream = BitStream(bits)
        tracemalloc.start()
        try:
            out = von_neumann_extract(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(out) + 9 * extract._BLOCK_PAIRS + (1 << 16)

    def test_not_idempotent(self):
        rng = np.random.default_rng(2)
        stream = BitStream(rng.integers(0, 2, 10_000, dtype=np.uint8))
        once = von_neumann_extract(stream)
        twice = von_neumann_extract(once)
        assert len(twice) < len(once)

    def test_unbiases_biased_source(self):
        rng = np.random.default_rng(7)
        bits = (rng.random(10_000_000) >= 0.7).astype(np.uint8)  # P(0) = 0.7
        out = von_neumann_extract(BitStream(bits))
        m = len(out)
        zero_freq = np.mean(out.bits == 0)
        assert abs(zero_freq - 0.5) < 3 * 0.5 / np.sqrt(m)
        assert abs(m / 10_000_000 - expected_yield(0.7)) < 0.01 * expected_yield(0.7)


class TestExpectedYield:
    def test_unbiased_maximum(self):
        assert expected_yield(0.5) == 0.25

    def test_published_bias(self):
        assert abs(expected_yield(0.536) - 0.24870) < 1e-5

    def test_degenerate(self):
        assert expected_yield(0.0) == 0.0
        assert expected_yield(1.0) == 0.0


class TestToBits:
    def test_discards_removed_order_preserved(self):
        stream = RawStream(np.array([0, 2, 1, 2, 0, 1], dtype=np.uint8))
        assert list(to_bits(stream).bits) == [0, 1, 0, 1]

    def test_all_discards(self):
        assert len(to_bits(RawStream(np.array([2, 2], dtype=np.uint8)))) == 0

    def test_trace_without_discards_is_not_copied(self):
        stream = RawStream(np.array([0, 1, 1, 0, 1], dtype=np.uint8))
        bits = to_bits(stream).bits
        assert np.shares_memory(bits, stream.symbols)
        assert bits.tolist() == [0, 1, 1, 0, 1]

    def test_trace_with_discards_is_copied(self):
        stream = RawStream(np.array([0, 1, 2, 0], dtype=np.uint8))
        assert not np.shares_memory(to_bits(stream).bits, stream.symbols)
