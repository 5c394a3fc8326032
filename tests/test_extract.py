import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng.bits import BitStream, RawStream
from ksqrng.extract import expected_yield, to_bits, von_neumann_extract

bit_lists = hst.lists(hst.integers(min_value=0, max_value=1), max_size=400)


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
        expected = []
        for k in range(0, len(bits) - 1, 2):
            if bits[k] != bits[k + 1]:
                expected.append(bits[k])
        assert von_neumann_extract(BitStream(bits)).bits.tolist() == expected

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
