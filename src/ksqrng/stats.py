"""Statistical validation of bit streams.

Implements Shannon entropy per byte, a five-test subset of the NIST SP
800-22 battery (frequency/monobit, block frequency, runs, longest run of
ones, approximate entropy) and bucketed zero-frequency analysis. Each SP
800-22 test computes that suite's statistic and p-value; a test passes when
p >= 0.01. Tests fed less data than they support report not-applicable
rather than a made-up p-value. ``scipy.special`` is imported inside the
tests that need it, so importing the package (and the CLI) does not load it.

Every kernel reads the stream's packed bytes (eight bits to a byte, least
significant first) or uint64 words of them, never one byte per bit: the
entropy is a bincount of the bytes; monobit, runs and the block and bucket
one-counts are ``np.bitwise_count`` popcounts of words (runs of each word
XORed with itself shifted by one bit, block counts as differences of
running counts at the block edges); the longest run is ``hi`` shift-AND
passes over each block's words; and the approximate-entropy window counts
are reshape-sums of bincounts of at most (m+8)-bit values read at byte
strides. They count the same integers as the byte-per-bit formulas, and
sum the same doubles in the same order, so every statistic is the same
double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream
from .errors import ValidationError

ALPHA = 0.01
_U64 = np.uint64

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
    binomial_stddev: float  # the spread an unbiased source would give


@dataclass(frozen=True)
class StatsReport:
    n_bits: int
    entropy_bits_per_byte: float
    tests: tuple[TestResult, ...]
    bucket_size: int
    bucket: BucketStats | None

    def entries(self):
        """The ``stats`` report's ``(key, value)`` lines."""
        yield "report", "stats"
        yield "n_bits", self.n_bits
        yield "entropy_bits_per_byte", self.entropy_bits_per_byte
        for t in self.tests:
            yield f"test.{t.name}.applicable", t.applicable
            yield f"test.{t.name}.statistic", t.statistic
            yield f"test.{t.name}.p_value", t.p_value
            yield f"test.{t.name}.pass", t.passed
            if t.note:
                yield f"test.{t.name}.note", t.note
        yield "bucket.size", self.bucket_size
        yield "bucket.applicable", self.bucket is not None
        if self.bucket is not None:
            yield "bucket.n_buckets", self.bucket.n_buckets
            yield "bucket.mean_zero_frequency", self.bucket.mean
            yield "bucket.stddev", self.bucket.stddev
            yield "bucket.binomial_stddev", self.bucket.binomial_stddev


def _not_applicable(name: str, note: str) -> TestResult:
    return TestResult(
        name=name,
        statistic=float("nan"),
        p_value=float("nan"),
        passed=False,
        applicable=False,
        note=note,
    )


def _words(stream: BitStream) -> np.ndarray:
    """The packed stream as uint64 words, bit j in bit j % 64 of word
    j // 64, zero-padded to whole words and followed by one zero word."""
    packed = stream.packed
    words = np.zeros(-(-packed.size // 8) + 1, dtype="<u8")
    words.view(np.uint8)[: packed.size] = packed
    return words


def _row_words(stream: BitStream, size: int, n_rows: int) -> np.ndarray:
    """The first ``n_rows * size`` bits as ``n_rows`` rows of uint64 words,
    one row per column: bit j of row r is bit j % 64 of word [j // 64, r],
    each row zero-padded to whole words and followed by one zero word.

    Word i of row r holds the 64 bits from bit r * size + 64 i: when size
    is a multiple of 64 that is a stream word, and otherwise a funnel shift
    of the two stream words it straddles, gathered for every row at once.
    With the rows along the last axis every step runs over all of them,
    however short a row is."""
    k = -(-size // 64)
    words = _words(stream)
    rows = np.zeros((k + 1, n_rows), dtype=_U64)
    if size % 64 == 0:
        rows[:k] = words[: n_rows * k].reshape(n_rows, k).T
        return rows
    starts = np.arange(n_rows, dtype=np.int64) * size
    at = np.arange(k)[:, None] + (starts >> 6)
    shift = (starts & 63).astype(_U64)
    low = words.take(at)
    low >>= shift
    # the next word's bits above the shift, without a shift by 64
    high = words[1:].take(at)
    high <<= _U64(1)
    high <<= _U64(63) - shift
    np.bitwise_or(low, high, out=rows[:k])
    rows[k - 1] &= _U64((1 << size % 64) - 1)
    return rows


def _ones(words: np.ndarray) -> int:
    """Number of ones in ``words``, by a popcount."""
    return int(np.bitwise_count(words).sum())


def _transitions(words: np.ndarray, n: int) -> int:
    """Number of bits that differ from the next one among the first ``n``
    (at least one) bits held in ``words``, which are zero past them."""
    # bit j of x is bit j xor bit j + 1; past the stream both are zero, so
    # only the last bit's xor with the padding is not a transition
    x = words[:-1] ^ (words[:-1] >> _U64(1) | words[1:] << _U64(63))
    last = int(words[(n - 1) >> 6]) >> (n - 1) % 64 & 1
    return _ones(x) - last


def _ones_per_row(stream: BitStream, size: int, n_rows: int) -> np.ndarray:
    """Number of ones in each of the first ``n_rows`` ``size``-bit blocks:
    the differences of the ones before each block edge, read from running
    word popcounts plus the popcount of the edge word's bits below it."""
    words = _words(stream)
    ahead = np.zeros(words.size + 1, dtype=np.int64)  # ones before word i
    np.cumsum(np.bitwise_count(words), dtype=np.int64, out=ahead[1:])
    edges = np.arange(n_rows + 1, dtype=np.int64) * size
    at = edges >> 6
    below = (_U64(1) << (edges & 63).astype(_U64)) - _U64(1)
    return np.diff(ahead[at] + np.bitwise_count(words[at] & below))


# From this many bytes entropy_per_byte counts byte pairs: their 2^16 bins
# cost about 40 us to clear and fold, and the pairs save about 0.3 ns per
# byte (timeit, 2-core x86-64: 193 -> 184 us at 2^17 bytes, 813 -> 669 us at
# 2^19, but 4 -> 47 us at 2,000)
_PAIR_COUNT_BYTES = 1 << 17


def entropy_per_byte(stream: BitStream) -> float:
    """Shannon entropy of the empirical distribution of non-overlapping
    bytes, in bits per byte. Trailing bits short of a full byte are ignored."""
    n = len(stream)
    if n < 8:
        raise ValidationError("entropy per byte needs at least 8 bits")
    n_bytes = n // 8
    body = stream.packed[:n_bytes]
    if n_bytes < _PAIR_COUNT_BYTES:
        counts = np.bincount(body, minlength=256)
    else:
        # bincount widens its input to intp, so count byte pairs: half as
        # many values, whose 2^16 bins fold back to each byte's 256
        pairs = np.bincount(body[: n_bytes & ~1].view("<u2"), minlength=1 << 16).reshape(256, 256)
        counts = pairs.sum(axis=0) + pairs.sum(axis=1)  # low bytes, then high bytes
        if n_bytes % 2:
            counts[body[-1]] += 1
    freqs = counts[counts > 0] / n_bytes
    return float(-np.sum(freqs * np.log2(freqs)))


def monobit(stream: BitStream) -> TestResult:
    """Frequency (monobit) test: partial sum of +/-1 steps against sqrt(n)."""
    n = len(stream)
    if n < 1:
        return _not_applicable("monobit", "empty stream")
    from scipy.special import erfc

    ones = _ones(_words(stream))
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

    pi = np.bitwise_count(_row_words(stream, block_size, n_blocks)).sum(axis=0) / block_size
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

    words = _words(stream)
    pi = float(_ones(words)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return TestResult("runs", float("nan"), 0.0, False, note="one-fraction precondition failed")
    v_obs = 1 + _transitions(words, n)
    num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = float(erfc(num / den))
    return TestResult("runs", float(v_obs), p, p >= ALPHA)


def _longest_runs(stream: BitStream, size: int, n_blocks: int, hi: int) -> np.ndarray:
    """min(longest run of ones, hi) in each of the first ``n_blocks``
    ``size``-bit blocks.

    After pass j (from 0) bit i of a row is set when its bits i..i+j are all
    ones, so ``longest`` counts the lengths 1..hi some run reaches. A shift
    carries bit 0 of the row's next word into bit 63, and a row's zero
    padding and spare word end a run at the row's end. Each pass writes
    into the same two buffers."""
    rows = _row_words(stream, size, n_blocks)
    now, after = rows[:-1], rows[1:]
    shifted, carry = np.empty_like(now), np.empty_like(now)
    longest = np.zeros(n_blocks, dtype=np.int64)
    for _ in range(hi):
        longest += rows.any(axis=0)
        np.right_shift(now, _U64(1), out=shifted)
        np.left_shift(after, _U64(63), out=carry)
        shifted |= carry
        now &= shifted
    return longest


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
    classes = np.maximum(_longest_runs(stream, m, n_blocks, hi), lo) - lo
    nu = np.bincount(classes, minlength=k + 1)
    expected = n_blocks * np.asarray(ref)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestResult("longest_run_of_ones", chi2, p, p >= ALPHA)


def _phi(counts: np.ndarray, n: int) -> float:
    freqs = counts[counts > 0] / n
    return float(np.sum(freqs * np.log(freqs)))


def _window_counts(stream: BitStream, m: int) -> np.ndarray:
    """Counts of the n circular (m+1)-bit windows, each read most
    significant bit first.

    The windows that start at bit 8j + s and end inside the stream come from
    one bincount per offset s = 0, w, 2w, ... below 8, where w = min(8,
    max(1, 18 - m)) holds a histogram to 2^max(18, m+1) bins: value j is
    bits 8j+s .. 8j+s+m+u-1 (u = min(w, 8 - s)) of the packed stream, first
    bit least significant, read from a little-endian int64 at byte j, and
    holds u windows; summing the histogram over the bits outside a window
    counts that window. The last windows, the m circular ones among them,
    are counted directly. Every window is counted at its code read least
    significant bit first, and the counts are then put in most significant
    first order, the order in which :func:`_phi` sums them."""
    n = len(stream)
    n_codes = 2 << m
    counts = np.zeros(n_codes, dtype=np.int64)
    packed = stream.packed
    # a window that starts in these bytes ends inside the stream, and the
    # int64 read at each ends inside ``packed``
    n_bytes = min((n - m) // 8, packed.size - 7)
    words = np.ndarray((n_bytes,), dtype="<i8", buffer=packed, strides=(1,))
    step = min(8, max(1, 18 - m))
    for s in range(0, 8, step):
        u = min(step, 8 - s)
        values = words >> s
        values &= (1 << (m + u)) - 1
        hist = np.bincount(values, minlength=1 << (m + u))
        del values  # before the histogram's halvings allocate
        for _ in range(u):
            # a window is the low m+1 bits of the histogram's index once the
            # bits below it are summed out, one halving at a time
            counts += hist.reshape(-1, n_codes).sum(axis=0)
            hist = hist[0::2] + hist[1::2]
    k = n - 8 * n_bytes
    last = np.unpackbits(packed[n_bytes:], count=k, bitorder="little")
    tail = np.r_[last, np.unpackbits(packed, count=m, bitorder="little")].astype(np.int64)
    codes = np.zeros(k, dtype=np.int64)
    for j in range(m + 1):
        codes |= tail[j : j + k] << j
    counts += np.bincount(codes, minlength=n_codes)
    index = np.arange(n_codes)
    reversed_index = np.zeros(n_codes, dtype=np.int64)
    for j in range(m + 1):
        reversed_index |= (index >> j & 1) << (m - j)
    return counts[reversed_index]


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

    counts = _window_counts(stream, m)
    # an m-bit count sums its two (m+1)-bit extensions
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
    over complete buckets, beside the binomial standard deviation of an
    unbiased source. A single bucket reports stddev 0."""
    if bucket_size < 1:
        raise ValidationError("bucket_size must be >= 1")
    n_buckets = len(stream) // bucket_size
    if n_buckets < 1:
        raise ValidationError(
            f"need at least one complete bucket of {bucket_size} bits, have {len(stream)}"
        )
    zero_freq = 1.0 - _ones_per_row(stream, bucket_size, n_buckets) / bucket_size
    stddev = float(zero_freq.std(ddof=1)) if n_buckets > 1 else 0.0
    return BucketStats(
        mean=float(zero_freq.mean()),
        stddev=stddev,
        n_buckets=n_buckets,
        binomial_stddev=math.sqrt(0.25 / bucket_size),
    )


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
