import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.special import gammaincc

from ksqrng import stats
from ksqrng.bits import BitStream, random_bits
from ksqrng.errors import ValidationError
from ksqrng.stats import (
    ALPHA,
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

# sources fair, biased to ones (long runs) and nearly constant
P_ONES = hst.sampled_from([0.5, 0.8, 0.97])
SEEDS = hst.integers(0, 2**32 - 1)


def biased_bits(seed, n, p_one):
    return BitStream((np.random.default_rng(seed).random(n) < p_one).astype(np.uint8))


def rows(bits, size):
    n_rows = len(bits) // size
    return bits.bits[: n_rows * size].reshape(n_rows, size)


def shift_or_counts(bits, m):
    """Circular (m+1)-bit window counts, each window read most significant
    bit first, built one code per bit by shift-or and counted by bincount."""
    n = len(bits)
    aug = np.concatenate([bits.bits, bits.bits[:m]])
    codes = np.zeros(n, dtype=np.min_scalar_type((2 << m) - 1))
    for j in range(m + 1):
        codes <<= 1
        codes |= aug[j : j + n]
    return np.bincount(codes, minlength=2 << m)


def longest_run_loop(bits, size, hi):
    """min(longest run of ones, hi) of each whole block, one bit at a time."""
    out = []
    for row in rows(bits, size).tolist():
        best = cur = 0
        for v in row:
            cur = cur + 1 if v else 0
            best = max(best, cur)
        out.append(min(best, hi))
    return out


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
        assert entropy_per_byte(BitStream([1, 0, 1, 1, 0, 0, 1, 0])) == 0.0  # one byte

    def test_byte_permutation_invariance(self):
        bits = random_bits(5, 8 * 1000)
        reshaped = bits.bits.reshape(-1, 8)
        shuffled = reshaped[np.random.default_rng(0).permutation(1000)].ravel()
        assert entropy_per_byte(BitStream(shuffled)) == entropy_per_byte(bits)

    def test_unbiased_stream_close_to_eight(self):
        assert entropy_per_byte(random_bits(9, 10**7)) > 7.999

    @pytest.mark.parametrize("extra_bits", [0, 7, 8, 15], ids=["even", "even+7", "odd", "odd+7"])
    @pytest.mark.parametrize("offset", [-2, 0], ids=["bytes", "pairs"])
    def test_matches_byte_counts_on_both_paths(self, offset, extra_bits):
        # just below the byte-pair threshold and at it, with an even and an
        # odd number of whole bytes (the odd one counted on its own) and
        # trailing bits that are ignored; a biased source so counts differ
        n = 8 * (stats._PAIR_COUNT_BYTES + offset) + extra_bits
        bits = BitStream((np.random.default_rng(extra_bits).random(n) < 0.3).astype(np.uint8))
        counts = np.bincount(bits.packed[: n // 8], minlength=256)
        freqs = counts[counts > 0] / (n // 8)
        assert entropy_per_byte(bits) == float(-np.sum(freqs * np.log2(freqs)))


class TestMonobit:
    def test_worked_example(self):
        # cross-checked against an independent erfc evaluation of the
        # normalized partial sum: S = 2, s_obs = 2/sqrt(10)
        result = monobit(BitStream([1, 0, 1, 1, 0, 1, 0, 1, 0, 1]))
        assert result.p_value == pytest.approx(0.527089, abs=1e-5)

    def test_single_bit(self):
        result = monobit(BitStream([1]))
        assert result.applicable
        assert result.p_value == pytest.approx(math.erfc(1 / math.sqrt(2.0)), abs=1e-15)

    def test_empty_stream_not_applicable(self):
        result = monobit(BitStream([]))
        assert not result.applicable and not result.passed
        assert result.note == "empty stream"

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

    def test_smallest_blocks(self):
        # one-bit blocks: every block is 0 or 1 away from 1/2 by 1/2, so chi2 = n
        result = block_frequency(BitStream([0, 1, 1, 0, 1]), block_size=1)
        assert result.statistic == 5.0
        assert result.p_value == pytest.approx(float(gammaincc(2.5, 2.5)), abs=1e-15)
        # exactly one block, balanced: chi2 = 0 and p = 1
        result = block_frequency(BitStream([0, 1] * 64), block_size=128)
        assert result.applicable
        assert (result.statistic, result.p_value) == (0.0, 1.0)

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValidationError, match="block_size must be >= 1"):
            block_frequency(BitStream([0, 1]), block_size=0)

    def test_not_applicable_when_undersized(self):
        result = block_frequency(BitStream([0, 1]), block_size=128)
        assert not result.applicable
        assert math.isnan(result.p_value)


class TestUnpackedFormulas:
    """Statistics equal their formulas on one byte per bit, with ``==``."""

    @settings(deadline=None, max_examples=60)
    @given(n=hst.integers(1, 5000), block_size=hst.integers(1, 700), seed=SEEDS, p_one=P_ONES)
    def test_block_frequency(self, n, block_size, seed, p_one):
        bits = biased_bits(seed, n, p_one)
        result = block_frequency(bits, block_size)
        if n < block_size:
            assert not result.applicable
            return
        pi = rows(bits, block_size).mean(axis=1)
        assert result.statistic == 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))

    @settings(deadline=None, max_examples=60)
    @given(n=hst.integers(1, 5000), bucket_size=hst.integers(1, 700), seed=SEEDS, p_one=P_ONES)
    def test_bucket_frequency(self, n, bucket_size, seed, p_one):
        bits = biased_bits(seed, n, p_one)
        if n < bucket_size:
            return
        zero_freq = 1.0 - rows(bits, bucket_size).mean(axis=1)
        result = bucket_frequency(bits, bucket_size)
        assert result.mean == float(zero_freq.mean())
        assert result.stddev == (float(zero_freq.std(ddof=1)) if zero_freq.size > 1 else 0.0)

    @settings(deadline=None, max_examples=60)
    @given(n=hst.integers(2, 5000), seed=SEEDS, p_one=P_ONES)
    def test_runs(self, n, seed, p_one):
        bits = biased_bits(seed, n, p_one)
        result = runs(bits)
        if result.note:
            assert result.p_value == 0.0
            return
        assert result.statistic == float(1 + np.count_nonzero(bits.bits[1:] != bits.bits[:-1]))

    @settings(deadline=None, max_examples=60)
    @given(n=hst.integers(1, 5000), seed=SEEDS, p_one=P_ONES)
    def test_monobit(self, n, seed, p_one):
        bits = biased_bits(seed, n, p_one)
        ones = int(bits.bits.sum())
        assert monobit(bits).statistic == abs(2 * ones - n) / math.sqrt(n)


class TestRuns:
    def test_worked_example(self):
        result = runs(BitStream([1, 0, 0, 1, 1, 0, 1, 0, 1, 1]))
        assert result.statistic == 7.0
        assert result.p_value == pytest.approx(0.147232, abs=1e-5)

    def test_two_bits(self):
        # v_obs = 2, |v_obs - 2 n pi (1 - pi)| = 1 and the denominator is 1
        result = runs(BitStream([0, 1]))
        assert result.statistic == 2.0
        assert result.p_value == pytest.approx(math.erfc(1.0), abs=1e-15)

    def test_one_bit_not_applicable(self):
        result = runs(BitStream([1]))
        assert not result.applicable and not result.passed
        assert math.isnan(result.p_value)

    def test_precondition_failure_reports_zero(self):
        result = runs(BitStream([0] * 1000 + [1] * 10))
        assert result.p_value == 0.0
        assert not result.passed
        assert "precondition" in result.note
        # at equality, |pi - 1/2| = 2 / sqrt(n) = 1/4 exactly, the precondition fails
        result = runs(BitStream([1] * 16 + [0] * 48))
        assert result.p_value == 0.0
        assert "precondition" in result.note


class TestLongestRun:
    def test_not_applicable_below_128(self):
        assert not longest_run_of_ones(BitStream([0, 1] * 50)).applicable

    def test_statistic_against_manual_chi_square(self):
        # SP 800-22 regimes: block length, class bounds, class probabilities
        regimes = {
            128: (8, 1, 4, [0.2148, 0.3672, 0.2305, 0.1875]),
            1024: (8, 1, 4, [0.2148, 0.3672, 0.2305, 0.1875]),
            6272: (128, 4, 9, [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]),
            750_000: (
                10_000, 10, 16, [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727]
            ),
        }
        # the source biased to ones has runs longer than the top class bound
        # in every regime
        rng = np.random.default_rng(17)
        streams = [random_bits(13, 128), random_bits(13, 1024)] + [
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

    @settings(deadline=None, max_examples=60)
    @given(
        regime=hst.sampled_from(stats._LONGEST_RUN_REGIMES),
        n_blocks=hst.integers(1, 6),
        seed=SEEDS,
        p_one=P_ONES,
    )
    def test_regime_classes_match_loop(self, regime, n_blocks, seed, p_one):
        _, size, _, (_, hi), _ = regime
        bits = biased_bits(seed, n_blocks * size + seed % size, p_one)
        assert stats._longest_runs(bits, size, n_blocks, hi).tolist() == longest_run_loop(bits, size, hi)

    @settings(deadline=None, max_examples=100)
    @given(size=hst.integers(1, 300), n_blocks=hst.integers(1, 8), hi=hst.integers(1, 140), seed=SEEDS, p_one=P_ONES)
    def test_runs_across_words_match_loop(self, size, n_blocks, hi, seed, p_one):
        # runs longer than a word, and blocks of any length
        bits = biased_bits(seed, n_blocks * size, p_one)
        assert stats._longest_runs(bits, size, n_blocks, hi).tolist() == longest_run_loop(bits, size, hi)

    @pytest.mark.parametrize("n", [128, 6272, 750_000])
    @pytest.mark.parametrize("p_one", [0.5, 0.97])
    def test_statistic_equals_loop_chi_square(self, n, p_one):
        bits = biased_bits(n, n, p_one)
        _, size, k, (lo, hi), ref = next(r for r in reversed(stats._LONGEST_RUN_REGIMES) if n >= r[0])
        nu = np.bincount(np.maximum(longest_run_loop(bits, size, hi), lo) - lo, minlength=k + 1)
        expected = (n // size) * np.asarray(ref)
        assert longest_run_of_ones(bits).statistic == float(np.sum((nu - expected) ** 2 / expected))

    def test_allocates_at_most_one_byte_per_bit(self):
        # the packed block rows, their padded words and one pass's shifted
        # words, about 0.5 B/bit at 10^4-bit blocks; a bool copy of the
        # blocks and one shifted AND of it took 2 B/bit
        n = 1 << 20
        bits = random_bits(7, n)
        tracemalloc.start()
        try:
            result = longest_run_of_ones(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.applicable
        assert peak <= n


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

    @settings(deadline=None, max_examples=60)
    @given(m=hst.integers(1, 17), extra=hst.integers(0, 4095), seed=SEEDS, p_one=P_ONES)
    @example(m=16, extra=0, seed=1, p_one=0.5)  # the applicability edge
    @example(m=17, extra=7, seed=2, p_one=0.97)  # one window per value
    def test_window_counts_match_shift_or(self, m, extra, seed, p_one):
        # n = 2^(m+5) + extra: the applicability edge and every residue mod 8
        bits = biased_bits(seed, (1 << (m + 5)) + extra, p_one)
        assert np.array_equal(stats._window_counts(bits, m), shift_or_counts(bits, m))

    def test_not_applicable_when_short(self):
        assert not approximate_entropy(random_bits(1, 1000), m=10).applicable

    def test_rejects_zero_pattern_length(self):
        with pytest.raises(ValidationError, match="m must be >= 1"):
            approximate_entropy(random_bits(1, 1 << 10), m=0)

    def test_periodic_stream_fails(self):
        result = approximate_entropy(BitStream([0, 1] * 20_000), m=2)
        assert result.applicable
        assert not result.passed


class TestBattery:
    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            nist_subset(BitStream([0, 1] * 49))
        with pytest.raises(ValidationError):
            nist_subset(random_bits(4, 99))
        assert len(nist_subset(random_bits(4, 100))) == 5

    @pytest.mark.parametrize(
        "test, special",
        [
            (monobit, "erfc"),
            (block_frequency, "gammaincc"),
            (runs, "erfc"),
            (longest_run_of_ones, "gammaincc"),
            (approximate_entropy, "gammaincc"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_pass_threshold_is_closed(self, monkeypatch, test, special):
        # a test passes at p == ALPHA and fails one double below it; the
        # p-value function is patched, since no stream hits 0.01 exactly
        import scipy.special

        bits = random_bits(0, 1 << 15)
        for p, passed in ((ALPHA, True), (float(np.nextafter(ALPHA, 0.0)), False)):
            monkeypatch.setattr(scipy.special, special, lambda *args: p)
            result = test(bits)
            assert (result.p_value, result.passed) == (p, passed)

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

    def test_one_bit_buckets(self):
        stats = bucket_frequency(BitStream([0, 1, 1, 0]), 1)
        assert (stats.n_buckets, stats.mean) == (4, 0.5)
        assert stats.stddev == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

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

    def test_one_whole_bucket(self):
        report = build_stats_report(random_bits(3, 1000), bucket_size=1000)
        assert report.bucket is not None
        assert report.bucket.n_buckets == 1

    def test_calls_each_timed_test_once(self, monkeypatch):
        # perfbench/run.py times these seven names and reports a span that
        # never fires as 0 s, so a kernel that bypassed one would look free
        names = (
            "entropy_per_byte",
            "monobit",
            "block_frequency",
            "runs",
            "longest_run_of_ones",
            "approximate_entropy",
            "bucket_frequency",
        )
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(stats, name, counting(name, getattr(stats, name)))
        stats.build_stats_report(random_bits(3, 1 << 16), bucket_size=1 << 14)
        assert calls == Counter(names)

    def test_bucket_skipped_when_small(self):
        report = build_stats_report(random_bits(3, 1000), bucket_size=999302)
        assert report.bucket is None
