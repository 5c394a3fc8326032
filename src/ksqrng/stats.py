"""Statistical validation of bit streams.

Implements Shannon entropy per byte, a five-test subset of the NIST SP
800-22 battery (frequency/monobit, block frequency, runs, longest run of
ones, approximate entropy) and bucketed zero-frequency analysis. Each SP
800-22 test computes that suite's statistic and p-value; a test passes when
p >= 0.01. Tests fed less data than they support report not-applicable
rather than a made-up p-value. ``scipy.special`` is imported inside the
tests that need it, so importing the package (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream
from .errors import ValidationError

ALPHA = 0.01
_COUNT_SLICE = 1 << 16  # window codes per bincount: 512 KiB once widened to int64

# (minimum stream length, block length, chi-square dof, run-length class
# bounds, reference class probabilities) per SP 800-22 longest-run regimes
_LONGEST_RUN_REGIMES = (
    (128, 8, 3, (1, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, 5, (4, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10000, 6, (10, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    passed: bool
    applicable: bool = True
    note: str = ""


@dataclass(frozen=True)
class BucketStats:
    mean: float
    stddev: float
    n_buckets: int


@dataclass(frozen=True)
class StatsReport:
    n_bits: int
    entropy_bits_per_byte: float
    tests: tuple[TestResult, ...]
    bucket_size: int
    bucket: BucketStats | None


def _not_applicable(name: str, note: str) -> TestResult:
    return TestResult(
        name=name,
        statistic=float("nan"),
        p_value=float("nan"),
        passed=False,
        applicable=False,
        note=note,
    )


def entropy_per_byte(stream: BitStream) -> float:
    """Shannon entropy of the empirical distribution of non-overlapping
    bytes, in bits per byte. Trailing bits short of a full byte are ignored."""
    n = len(stream)
    if n < 8:
        raise ValidationError("entropy per byte needs at least 8 bits")
    n_bytes = n // 8
    byte_vals = np.packbits(stream.bits[: n_bytes * 8], bitorder="little")
    counts = np.bincount(byte_vals, minlength=256)
    freqs = counts[counts > 0] / n_bytes
    return float(-np.sum(freqs * np.log2(freqs)))


def monobit(stream: BitStream) -> TestResult:
    """Frequency (monobit) test: partial sum of +/-1 steps against sqrt(n)."""
    n = len(stream)
    if n < 1:
        return _not_applicable("monobit", "empty stream")
    from scipy.special import erfc

    ones = int(np.count_nonzero(stream.bits))
    s_obs = abs(2 * ones - n) / math.sqrt(n)
    p = float(erfc(s_obs / math.sqrt(2.0)))
    return TestResult("monobit", s_obs, p, p >= ALPHA)


def block_frequency(stream: BitStream, block_size: int = 128) -> TestResult:
    """Block frequency test: chi-square of per-block one-fractions."""
    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    n = len(stream)
    n_blocks = n // block_size
    if n_blocks < 1:
        return _not_applicable("block_frequency", f"needs at least {block_size} bits")
    from scipy.special import gammaincc

    pi = stream.bits[: n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    p = float(gammaincc(n_blocks / 2.0, chi2 / 2.0))
    return TestResult("block_frequency", chi2, p, p >= ALPHA)


def runs(stream: BitStream) -> TestResult:
    """Runs test: total number of maximal same-bit runs against expectation.

    Per the suite convention, when the one-fraction precondition
    |pi - 1/2| >= 2/sqrt(n) fails the test reports p = 0."""
    n = len(stream)
    if n < 2:
        return _not_applicable("runs", "needs at least 2 bits")
    from scipy.special import erfc

    bits = stream.bits
    pi = float(np.count_nonzero(bits)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return TestResult("runs", float("nan"), 0.0, False, note="one-fraction precondition failed")
    v_obs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = float(erfc(num / den))
    return TestResult("runs", float(v_obs), p, p >= ALPHA)


def longest_run_of_ones(stream: BitStream) -> TestResult:
    """Longest-run-of-ones test with the standard block-size regimes."""
    n = len(stream)
    if n < _LONGEST_RUN_REGIMES[0][0]:
        return _not_applicable("longest_run_of_ones", "needs at least 128 bits")
    from scipy.special import gammaincc

    for min_n, m, k, (lo, hi), ref in reversed(_LONGEST_RUN_REGIMES):
        if n >= min_n:
            break
    n_blocks = n // m
    # in pass j (from 1) run[:, i] is true when bits i..i+j-1 are all ones, so
    # ``longest`` counts the lengths 1..hi some run reaches: min(longest run, hi)
    run = stream.bits[: n_blocks * m].reshape(n_blocks, m).astype(bool)
    longest = np.zeros(n_blocks, dtype=np.int64)
    for _ in range(hi):
        longest += run.any(axis=1)
        run = run[:, 1:] & run[:, :-1]
    classes = np.maximum(longest, lo) - lo
    nu = np.bincount(classes, minlength=k + 1)
    expected = n_blocks * np.asarray(ref)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestResult("longest_run_of_ones", chi2, p, p >= ALPHA)


def _phi(counts: np.ndarray, n: int) -> float:
    freqs = counts[counts > 0] / n
    return float(np.sum(freqs * np.log(freqs)))


def approximate_entropy(stream: BitStream, m: int = 10) -> TestResult:
    """Approximate entropy test comparing overlapping m- and (m+1)-bit
    pattern statistics. Applicable for n >= 2^(m+5)."""
    if m < 1:
        raise ValidationError("pattern length m must be >= 1")
    n = len(stream)
    if n < (1 << (m + 5)):
        return _not_applicable(
            "approximate_entropy", f"needs at least 2^{m + 5} bits for m={m}"
        )
    from scipy.special import gammaincc

    # circular (m+1)-bit window codes; an m-bit count sums its two extensions
    aug = np.concatenate([stream.bits, stream.bits[:m]])
    codes = np.zeros(n, dtype=np.min_scalar_type((2 << m) - 1))
    for j in range(m + 1):
        codes <<= 1
        codes |= aug[j : j + n]
    # bincount widens its input to int64, so count in slices, not all at once
    counts = np.zeros(2 << m, dtype=np.int64)
    for lo in range(0, n, _COUNT_SLICE):
        counts += np.bincount(codes[lo : lo + _COUNT_SLICE], minlength=2 << m)
    ap_en = _phi(counts.reshape(-1, 2).sum(axis=1), n) - _phi(counts, n)
    chi2 = 2.0 * n * (math.log(2.0) - ap_en)
    p = float(gammaincc(float(1 << (m - 1)), chi2 / 2.0))
    return TestResult("approximate_entropy", chi2, p, p >= ALPHA)


def nist_subset(stream: BitStream) -> list[TestResult]:
    """Run the five implemented SP 800-22 tests at their standard parameters."""
    if len(stream) < 100:
        raise ValidationError("the test battery needs at least 100 bits")
    return [
        monobit(stream),
        block_frequency(stream),
        runs(stream),
        longest_run_of_ones(stream),
        approximate_entropy(stream),
    ]


def bucket_frequency(stream: BitStream, bucket_size: int) -> BucketStats:
    """Mean and sample standard deviation of the per-bucket zero-frequency
    over complete buckets. A single bucket reports stddev 0."""
    if bucket_size < 1:
        raise ValidationError("bucket_size must be >= 1")
    n_buckets = len(stream) // bucket_size
    if n_buckets < 1:
        raise ValidationError(
            f"need at least one complete bucket of {bucket_size} bits, have {len(stream)}"
        )
    buckets = stream.bits[: n_buckets * bucket_size].reshape(n_buckets, bucket_size)
    zero_freq = 1.0 - buckets.mean(axis=1)
    stddev = float(zero_freq.std(ddof=1)) if n_buckets > 1 else 0.0
    return BucketStats(mean=float(zero_freq.mean()), stddev=stddev, n_buckets=n_buckets)


def binomial_bucket_stddev(bucket_size: int) -> float:
    """Expected per-bucket frequency spread for an unbiased source."""
    return math.sqrt(0.25 / bucket_size)


def build_stats_report(stream: BitStream, bucket_size: int) -> StatsReport:
    """Full statistics report: entropy, the test battery, and bucket
    analysis when at least one complete bucket is available."""
    entropy = entropy_per_byte(stream)
    tests = tuple(nist_subset(stream))
    bucket = bucket_frequency(stream, bucket_size) if len(stream) >= bucket_size else None
    return StatsReport(
        n_bits=len(stream),
        entropy_bits_per_byte=entropy,
        tests=tests,
        bucket_size=bucket_size,
        bucket=bucket,
    )
