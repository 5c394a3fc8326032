import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincc

from ksqrng.bits import BitStream, random_bits
from ksqrng.errors import ValidationError
from ksqrng.stats import (
    approximate_entropy,
    block_frequency,
    bucket_frequency,
    build_stats_report,
    entropy_per_byte,
    longest_run_of_ones,
    monobit,
    nist_subset,
    runs,
)


class TestEntropy:
    def test_all_zero(self):
        assert entropy_per_byte(BitStream([0] * 64)) == 0.0

    def test_uniform_bytes_exact(self):
        # every byte value once: exactly 8 bits per byte
        vals = np.arange(256, dtype=np.uint8)
        bits = np.unpackbits(vals, bitorder="little")
        assert entropy_per_byte(BitStream(bits)) == pytest.approx(8.0, abs=1e-12)

    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            entropy_per_byte(BitStream([0] * 7))

    def test_byte_permutation_invariance(self):
        bits = random_bits(5, 8 * 1000)
        reshaped = bits.bits.reshape(-1, 8)
        shuffled = reshaped[np.random.default_rng(0).permutation(1000)].ravel()
        assert entropy_per_byte(BitStream(shuffled)) == entropy_per_byte(bits)

    def test_unbiased_stream_close_to_eight(self):
        assert entropy_per_byte(random_bits(9, 10**7)) > 7.999


class TestMonobit:
    def test_worked_example(self):
        # cross-checked against an independent erfc evaluation of the
        # normalized partial sum: S = 2, s_obs = 2/sqrt(10)
        result = monobit(BitStream([1, 0, 1, 1, 0, 1, 0, 1, 0, 1]))
        assert result.p_value == pytest.approx(0.527089, abs=1e-5)

    def test_constant_stream_fails_hard(self):
        result = monobit(BitStream([0] * 100))
        assert result.p_value < 1e-20
        assert not result.passed


class TestBlockFrequency:
    def test_worked_example(self):
        # independent evaluation: blocks 011, 001, 101 give chi2 = 1,
        # p = igamc(3/2, 1/2)
        result = block_frequency(BitStream([0, 1, 1, 0, 0, 1, 1, 0, 1, 0]), block_size=3)
        assert result.statistic == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == pytest.approx(float(gammaincc(1.5, 0.5)), abs=1e-12)
        assert result.p_value == pytest.approx(0.801252, abs=1e-5)

    def test_not_applicable_when_undersized(self):
        result = block_frequency(BitStream([0, 1]), block_size=128)
        assert not result.applicable
        assert math.isnan(result.p_value)


class TestRuns:
    def test_worked_example(self):
        result = runs(BitStream([1, 0, 0, 1, 1, 0, 1, 0, 1, 1]))
        assert result.statistic == 7.0
        assert result.p_value == pytest.approx(0.147232, abs=1e-5)

    def test_precondition_failure_reports_zero(self):
        result = runs(BitStream([0] * 1000 + [1] * 10))
        assert result.p_value == 0.0
        assert not result.passed
        assert "precondition" in result.note


class TestLongestRun:
    def test_not_applicable_below_128(self):
        assert not longest_run_of_ones(BitStream([0, 1] * 50)).applicable

    def test_statistic_against_manual_chi_square(self):
        # SP 800-22 regimes: block length, class bounds, class probabilities
        regimes = {
            1024: (8, 1, 4, [0.2148, 0.3672, 0.2305, 0.1875]),
            6272: (128, 4, 9, [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]),
            750_000: (
                10_000, 10, 16, [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727]
            ),
        }
        # the source biased to ones has runs longer than the top class bound
        # in every regime
        rng = np.random.default_rng(17)
        streams = [random_bits(13, 1024)] + [
            BitStream((rng.random(n) < 0.9).astype(np.uint8)) for n in (6272, 750_000)
        ]
        for bits in streams:
            block, lo, hi, ref = regimes[len(bits)]
            result = longest_run_of_ones(bits)
            n_blocks = len(bits) // block
            longest = []
            for row in bits.bits[: n_blocks * block].reshape(n_blocks, block):
                best = cur = 0
                for v in row:
                    cur = cur + 1 if v else 0
                    best = max(best, cur)
                longest.append(best)
            nu = np.bincount(np.clip(longest, lo, hi) - lo, minlength=len(ref))
            expected = n_blocks * np.array(ref)
            chi2 = float(np.sum((nu - expected) ** 2 / expected))
            dof = len(ref) - 1
            assert result.statistic == pytest.approx(chi2, abs=1e-12)
            assert result.p_value == pytest.approx(
                float(gammaincc(dof / 2.0, chi2 / 2.0)), abs=1e-12
            )

    def test_long_one_blocks_fail(self):
        result = longest_run_of_ones(BitStream([1] * 10_000))
        assert not result.passed


class TestApproximateEntropy:
    def test_matches_bruteforce_oracle(self):
        def phi(stream, mm):
            n = len(stream)
            seq = "".join(map(str, stream.bits.tolist()))
            seq += seq[: mm - 1]
            counts = {}
            for i in range(n):
                key = seq[i : i + mm]
                counts[key] = counts.get(key, 0) + 1
            return math.fsum((c / n) * math.log(c / n) for c in counts.values())

        # each stream keeps its m applicable (n >= 2^(m+5)); m = 7, 8 and 15
        # are the last uint8, the first and the last uint16 window codes
        for n, ms in ((512, (1, 2, 3, 4)), (1 << 13, (7, 8)), (1 << 20, (15,))):
            bits = random_bits(31337, n)
            for m in ms:
                ap_en = phi(bits, m) - phi(bits, m + 1)
                chi2 = 2 * n * (math.log(2) - ap_en)
                expected_p = float(gammaincc(2 ** (m - 1), chi2 / 2))
                result = approximate_entropy(bits, m=m)
                assert result.applicable
                assert result.statistic == pytest.approx(chi2, abs=1e-9)
                assert result.p_value == pytest.approx(expected_p, abs=1e-12)

    def test_allocates_at_most_four_bytes_per_bit(self):
        # the wrapped bits (1 B/bit) and the uint16 window codes (2 B/bit);
        # counting them in one bincount widened the codes to 8 B/bit
        n = 1 << 20
        bits = random_bits(7, n)
        tracemalloc.start()
        try:
            result = approximate_entropy(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.applicable
        assert peak <= 4 * n

    def test_not_applicable_when_short(self):
        assert not approximate_entropy(random_bits(1, 1000), m=10).applicable

    def test_periodic_stream_fails(self):
        result = approximate_entropy(BitStream([0, 1] * 20_000), m=2)
        assert result.applicable
        assert not result.passed


class TestBattery:
    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            nist_subset(BitStream([0, 1] * 49))

    def test_reference_streams_pass_at_least_four_of_five(self):
        for seed in range(20):
            results = nist_subset(random_bits(1000 + seed, 10**6))
            assert all(t.applicable for t in results)
            assert sum(t.passed for t in results) >= 4, f"seed {seed}"

    def test_test_names_stable(self):
        names = [t.name for t in nist_subset(random_bits(0, 10**6))]
        assert names == [
            "monobit",
            "block_frequency",
            "runs",
            "longest_run_of_ones",
            "approximate_entropy",
        ]


class TestBucketFrequency:
    def test_constant_streams(self):
        stats = bucket_frequency(BitStream([0] * 1000), 100)
        assert stats.mean == 1.0 and stats.stddev == 0.0
        stats = bucket_frequency(BitStream([1] * 1000), 100)
        assert stats.mean == 0.0

    def test_single_bucket(self):
        stats = bucket_frequency(BitStream([0, 1] * 50), 100)
        assert stats.n_buckets == 1
        assert stats.stddev == 0.0

    def test_unbiased_stream_converges(self):
        stats = bucket_frequency(random_bits(55, 10**7), 10**4)
        assert stats.n_buckets == 1000
        sigma_bucket = math.sqrt(0.25 / 10**4)
        assert abs(stats.mean - 0.5) < 3 * sigma_bucket / math.sqrt(1000)
        assert abs(stats.stddev - sigma_bucket) < 0.1 * sigma_bucket

    def test_incomplete_trailing_bucket_excluded(self):
        bits = BitStream([0] * 100 + [1] * 37)
        stats = bucket_frequency(bits, 100)
        assert stats.n_buckets == 1
        assert stats.mean == 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            bucket_frequency(BitStream([0] * 10), 100)
        with pytest.raises(ValidationError):
            bucket_frequency(BitStream([0] * 10), 0)


class TestStatsReport:
    def test_report_assembly(self):
        report = build_stats_report(random_bits(3, 200_000), bucket_size=50_000)
        assert report.n_bits == 200_000
        assert report.bucket is not None
        assert report.bucket.n_buckets == 4
        assert len(report.tests) == 5

    def test_bucket_skipped_when_small(self):
        report = build_stats_report(random_bits(3, 1000), bucket_size=999302)
        assert report.bucket is None
