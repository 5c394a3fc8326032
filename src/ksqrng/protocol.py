"""End-to-end trial protocol: prepare ground state, rotate into the Sx
measurement frame, project, relax, read out, classify, emit a symbol.

Randomness is counter-based: trial ``i`` of a run with seed ``s`` owns words
[8i, 8i + 8) of the Philox(key=s) stream (8 words = 2 Philox blocks), so
trials are order-independent and a batch can be generated in chunks or
across workers with bit-identical results.

Per-trial word layout in noisy mode, consumed in order:

    0     thermal initialization
    1-2   gate amplitude error (Box-Muller pair, cosine branch used)
    3     Born-rule outcome sampling
    4-5   relaxation during readout
    6-7   IQ response noise (Box-Muller pair)

Ideal mode consumes only word 0 (Born sampling); noise and IQ synthesis are
bypassed entirely and classification is the identity on the projected level.

``run_trial`` computes every step of one trial with the qutrit linear
algebra from ``Generator.random`` uniforms. It is the independent reference
for the batch kernel, so it takes none of the kernel's shortcuts. The kernel
draws each chunk as raw 64-bit words; ``Generator.random`` would map a word
w to the uniform (w >> 11) 2^-53, so a fixed threshold on a uniform is a
fixed threshold on the word, computed once per run. The kernel decides most
trials by comparing words with such thresholds:

- a ground-state trial whose gate-error radius is below a cap and whose
  Born uniform lies outside the band that radius allows around 1/2 is level
  [u3 >= 1/2] at any gate angle, and relaxes to 0 when u4 < p_decay_10;
- a trial whose IQ noise uniform is below its level's bound, the uniform
  of the level's ``readout.decision_radii``, is classified as that level.

Only the other rows (3% and 0.05% of trials at the defaults) are turned
into the uniforms ``Generator.random`` gives; they take the per-trial Born
test and, where it cannot decide (1.2%), the exact path, which feeds the
same uniforms to the same ``readout`` steps as ``run_trial``, so every
symbol is the one computing every step would give. The bounds hold on the
float64 domain that ``readout.NoiseParams`` owns and enforces, so every
accepted noise model takes this one path.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .bits import small_uints
from .errors import ValidationError
from .qutrit import QutritState, apply_unitary, born_probabilities, measurement_unitary, rotation
from .readout import (
    IQPoint,
    NoiseParams,
    ReadoutLevel,
    _radius,
    _sample_levels,
    apply_relaxation,
    classify,
    decision_uniforms,
    gate_error,
    sample_level,
    synth_iq,
    thermal_init,
)

WORDS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = WORDS_PER_TRIAL // 4  # Philox emits 4 words per counter step
_CHUNK = 1 << 14  # trials per chunk: 1 MiB of words, 128 KiB per float temporary

# Margins of the early decisions in _batch_symbols. Each guarded value is a
# few float64 operations from its exact value, each off by at most 2^-53
# (1.1e-16) relative, so every margin is wider than the rounding by 10^6 or more.
_ABS_MARGIN = 1e-9  # on c^2 and c^2 + s^2, which lie in [0, 1]
_BORN_SLOPE = (math.pi / 4.0) * (1.0 + 1e-9)  # pi/4, widened for rounding in the bound

_COMPUTATIONAL_BASIS = (
    QutritState([1, 0, 0]),
    QutritState([0, 1, 0]),
    QutritState([0, 0, 1]),
)


class Symbol(IntEnum):
    ZERO = 0
    ONE = 1
    DISCARD = 2


def encode_symbol(level) -> Symbol:
    """Fixed outcome encoding: level 0 -> "0", level 1 -> "1", level 2 is
    the Sx = 0 trace and is discarded."""
    return Symbol(int(level))


@dataclass(frozen=True)
class TrialRecord:
    true_level: ReadoutLevel
    classified_level: ReadoutLevel
    iq: IQPoint | None
    symbol: Symbol


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")


@dataclass(frozen=True)
class ProtocolConfig:
    n_trials: int
    seed: int
    noise: NoiseParams = NoiseParams()
    ideal: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValidationError(f"n_trials must be >= 1, got {self.n_trials}")
        _check_seed(self.seed)


class RawStream:
    """Ordered ternary symbol trace with its tallies."""

    __slots__ = ("symbols", "n0", "n1", "n_discard")

    def __init__(self, symbols):
        arr = self.symbols = small_uints(symbols, 2, "symbol trace")
        self.n1 = int(np.count_nonzero(arr == 1))
        self.n_discard = int(np.count_nonzero(arr == 2))
        self.n0 = arr.size - self.n1 - self.n_discard

    def __len__(self):
        return self.symbols.size

    def __eq__(self, other):
        return isinstance(other, RawStream) and np.array_equal(self.symbols, other.symbols)

    def __repr__(self):
        return f"RawStream(n={len(self)}, n0={self.n0}, n1={self.n1}, n_discard={self.n_discard})"


def outcome_frequencies(n0: int, n1: int, n_discard: int) -> dict[str, float]:
    """p0 and p1 conditioned on the binary (non-discard) outcomes, so they sum
    to 1, p_discard over all trials, and their binomial standard errors
    (NaN where a denominator is zero)."""
    nb = n0 + n1
    n = nb + n_discard
    nan = float("nan")
    p0 = n0 / nb if nb else nan
    p1 = n1 / nb if nb else nan
    se_binary = math.sqrt(p0 * p1 / nb) if nb else nan
    pd = n_discard / n if n else nan
    se_discard = math.sqrt(pd * (1.0 - pd) / n) if n else nan
    return dict(
        p0=p0,
        p1=p1,
        p_discard=pd,
        p0_stderr=se_binary,
        p1_stderr=se_binary,
        p_discard_stderr=se_discard,
    )


@dataclass(frozen=True)
class BatchSummary:
    """Symbol counts of a batch with their :func:`outcome_frequencies`."""

    n_trials: int
    n0: int
    n1: int
    n_discard: int
    p0: float
    p1: float
    p_discard: float
    p0_stderr: float
    p1_stderr: float
    p_discard_stderr: float

    @classmethod
    def from_stream(cls, stream: RawStream) -> "BatchSummary":
        return cls(
            n_trials=len(stream),
            n0=stream.n0,
            n1=stream.n1,
            n_discard=stream.n_discard,
            **outcome_frequencies(stream.n0, stream.n1, stream.n_discard),
        )


class TrialRandom:
    """Sequential uniform source over one trial's fixed word budget.

    ``run_trial(config, TrialRandom(seed, i))`` reproduces trial ``i`` of
    ``run_batch`` exactly.
    """

    def __init__(self, seed: int, trial_index: int):
        _check_seed(seed)
        if trial_index < 0:
            raise ValidationError("trial_index must be nonnegative")
        bg = np.random.Philox(key=seed)
        bg.advance(_BLOCKS_PER_TRIAL * trial_index)
        self._gen = np.random.Generator(bg)
        self._remaining = WORDS_PER_TRIAL

    def random(self, size=None):
        try:
            n = 1 if size is None else operator.index(size)
        except TypeError:
            raise ValidationError(f"size must be an integer, got {size!r}") from None
        if not 0 <= n <= self._remaining:  # checked before the budget moves
            raise ValidationError(f"size {n} lies outside [0, {self._remaining}], the trial's unread word budget")
        self._remaining -= n
        return self._gen.random(size)


def run_trial(config: ProtocolConfig, rng) -> TrialRecord:
    """Run one protocol shot, drawing its words from ``rng`` in the order of
    the word table above."""
    if config.ideal:
        probs = born_probabilities(
            apply_unitary(measurement_unitary(), _COMPUTATIONAL_BASIS[0]),
            _COMPUTATIONAL_BASIS,
        )
        level = ReadoutLevel(int(sample_level(probs, rng.random())))
        return TrialRecord(
            true_level=level,
            classified_level=level,
            iq=None,
            symbol=encode_symbol(level),
        )

    noise = config.noise
    w = rng.random(WORDS_PER_TRIAL)
    initial = int(thermal_init(w[0], noise))
    theta = (np.pi / 2.0) * (1.0 + gate_error(w[1], w[2], noise))
    noisy_m = rotation("01", theta) @ rotation("12", theta)
    state = apply_unitary(noisy_m, _COMPUTATIONAL_BASIS[initial])
    projected = sample_level(born_probabilities(state, _COMPUTATIONAL_BASIS), w[3])
    relaxed = apply_relaxation(projected, w[4], w[5], noise)
    i, q = synth_iq(relaxed, w[6], w[7], noise)
    classified = ReadoutLevel(int(classify(i, q, noise)))
    return TrialRecord(
        true_level=ReadoutLevel(int(relaxed)),
        classified_level=classified,
        iq=IQPoint(float(i), float(q)),
        symbol=encode_symbol(classified),
    )


def _uniforms(words):
    """The float64 uniforms ``Generator.random`` makes of raw Philox words:
    each word's top 53 bits times 2^-53, so [0, 1 - 2^-53]."""
    return (words >> 11) * 2.0**-53


def _word_threshold(p) -> int:
    """The word T, in [0, 2^64], with ``_uniforms(w) < p`` exactly when
    ``w < T``: (w >> 11) 2^-53 < p iff (w >> 11) < ceil(p 2^53)."""
    return min(max(math.ceil(p * 2.0**53), 0), 1 << 53) << 11


_HALF_WORD = _word_threshold(0.5)
# A gate-error word below this has a uniform below 1 - 2^-9, so a Box-Muller
# radius below sqrt(18 ln 2) = 3.53; the other 0.2% of trials take the per-trial test.
_RADIUS_CAP_WORD = (1 << 64) - (1 << 55)


@dataclass(frozen=True)
class _WordBounds:
    """Thresholds on raw words that decide the common noisy trials, computed
    once per run from the noise model."""

    thermal: int  # an excited start iff w0 < thermal
    decay_10: int  # 1 -> 0 iff w4 < decay_10
    band: tuple[int, int]  # a ground trial with w1 below the cap, w3 outside [lo, hi) ...
    top: int  # ... and w3 below top is level [u3 >= 1/2]
    iq: np.ndarray  # per level L, w6 < iq[L] is classified as L
    iq_min: int

    @classmethod
    def of(cls, noise: NoiseParams) -> "_WordBounds":
        # A capped-radius trial's Born band is at most the band at the cap,
        # widened here by 1e-9 against rounding in _radius and counted in
        # 2^-53 steps plus one, so |u3 - 1/2| computed in float exceeds it
        # for every word outside [lo, hi).
        cap = float(_radius(_uniforms(np.uint64(_RADIUS_CAP_WORD - 1))))
        band = (_BORN_SLOPE * noise.gate_amp_error * cap + _ABS_MARGIN) * (1.0 + 1e-9)
        reach = math.ceil(band * 2.0**53) + 1
        top = _word_threshold(1.0 - _ABS_MARGIN)
        half = 1 << 52
        # One uniform step below each IQ bound covers expm1's rounding.
        iq = [_word_threshold(q - 2.0**-53) for q in decision_uniforms(noise)]
        return cls(
            thermal=_word_threshold(noise.p_thermal_1 + noise.p_thermal_2),
            decay_10=_word_threshold(noise.p_decay_10),
            band=(max(half - reach, 0) << 11, min((half + reach) << 11, top)),
            top=top,
            iq=np.array(iq, dtype=np.uint64),
            iq_min=min(iq),
        )


def _born_levels(initial, u_a, u_b, u, noise: NoiseParams):
    """Born levels from the gate error on ``u_a``, ``u_b`` and the uniform
    ``u``, for trials that start in level ``initial``."""
    theta = (np.pi / 2.0) * (1.0 + gate_error(u_a, u_b, noise))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    cc = c * c
    ss = s * s

    # Born probabilities are the squared entries of the initial level's
    # column of R01(theta) @ R12(theta), (c, s, 0) from the ground state.
    # Excited initial levels are rare, so sample every row from the ground
    # column and resample the exceptions. The rows are closed forms, so this
    # skips sample_level's probability check.
    levels = _sample_levels(cc, ss, u)
    idx = np.flatnonzero(initial == 1)  # column (s c, c^2, s)
    levels[idx] = _sample_levels((s[idx] * c[idx]) ** 2, cc[idx] ** 2, u[idx])
    idx = np.flatnonzero(initial == 2)  # column (s^2, c s, c)
    levels[idx] = _sample_levels(ss[idx] ** 2, (c[idx] * s[idx]) ** 2, u[idx])
    return levels


def _relaxed_levels(u, noise: NoiseParams):
    """Relaxed levels of the trials whose uniforms are the rows ``u``.

    The Born level from the ground state is [u3 >= c^2] + [u3 >= c^2 + s^2]
    with c^2 = cos^2(theta/2) = (1 - sin(pi e / 2)) / 2, so |c^2 - 1/2| <=
    (pi/4)|e| <= (pi/4) gate_amp_error r for the gate error e on radius r.
    A ground-state trial whose u3 lies outside that band, widened for
    rounding in the bound and in c^2, and below 1 - 1e-9 < c^2 + s^2 is
    level [u3 >= 1/2] at any angle; only the others take the exact path.
    """
    initial = thermal_init(u[:, 0], noise)
    u3 = u[:, 3]
    band = (_BORN_SLOPE * noise.gate_amp_error) * _radius(u[:, 1]) + _ABS_MARGIN
    projected = (u3 >= 0.5).astype(np.uint8)
    idx = np.flatnonzero((initial != 0) | (np.abs(u3 - 0.5) <= band) | (u3 > 1.0 - _ABS_MARGIN))
    if idx.size:
        rows = u[idx]
        projected[idx] = _born_levels(initial[idx], rows[:, 1], rows[:, 2], rows[:, 3], noise)
    return apply_relaxation(projected, u[:, 4], u[:, 5], noise)


def _batch_symbols(words: np.ndarray, noise: NoiseParams, bounds: _WordBounds) -> np.ndarray:
    """Symbols of the noisy trials whose raw word rows are ``words``.

    A ground-state trial with a capped gate radius and u3 outside the widest
    Born band is level [u3 >= 1/2] & [u4 >= p_decay_10], read off its words.
    The others take ``_relaxed_levels`` on their uniforms, which is the
    per-trial test of the same bound, so the trials that compute the
    rotation are the ones the bound cannot decide. A response whose noise
    uniform is below its level's ``bounds.iq`` is classified as that level;
    only the others are synthesised and classified.
    """
    w3 = words[:, 3]
    levels = ((w3 >= _HALF_WORD) & (words[:, 4] >= bounds.decay_10)).view(np.uint8)
    lo, hi = bounds.band
    idx = np.flatnonzero(
        (words[:, 0] < bounds.thermal)
        | (words[:, 1] >= _RADIUS_CAP_WORD)
        | ((w3 >= lo) & (w3 < hi))
        | (w3 >= bounds.top)
    )
    if idx.size:
        levels[idx] = _relaxed_levels(_uniforms(words[idx]), noise)

    w6 = words[:, 6]
    idx = np.flatnonzero(w6 >= bounds.iq_min)
    idx = idx[w6[idx] >= bounds.iq[levels[idx]]]
    if idx.size:
        u = _uniforms(words[idx, 6:])
        i, q = synth_iq(levels[idx], u[:, 0], u[:, 1], noise)
        levels[idx] = classify(i, q, noise)
    return levels


def run_batch(config: ProtocolConfig, workers: int = 1) -> tuple[RawStream, BatchSummary]:
    """Generate ``config.n_trials`` symbols.

    Output is bit-identical for identical configs regardless of ``workers``:
    randomness is addressed by absolute trial index, so how trials are split
    only decides who computes them. The trials are cut into ``_CHUNK``-trial
    chunks (sized so one chunk's words and temporaries stay in L2 cache), and
    ``min(workers, chunks)`` threads each take a contiguous run of chunks.
    A thread advances one Philox stream to its first trial and draws each
    chunk as raw words, releasing them before the next draw: a trial
    consumes exactly two counter blocks, so consecutive draws continue at
    the next trial. Word thresholds are computed once per call.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    n = config.n_trials
    out = np.empty(n, dtype=np.uint8)
    if config.ideal:
        # sample_level on the ideal Born triple, [u0 >= p0] + [u0 >= p0 + p1], on words
        p0, p1, _ = np.abs(measurement_unitary().matrix[:, 0]) ** 2
        t0, t01 = _word_threshold(p0), _word_threshold(p0 + p1)

        def symbols(words):
            w0 = words[:, 0]
            return (w0 >= t0).astype(np.uint8) + (w0 >= t01)

    else:
        bounds = _WordBounds.of(config.noise)

        def symbols(words):
            return _batch_symbols(words, config.noise, bounds)

    n_chunks = -(-n // _CHUNK)
    threads = min(workers, n_chunks)

    def fill(t):
        start = t * n_chunks // threads * _CHUNK
        stop = min(n, (t + 1) * n_chunks // threads * _CHUNK)
        bg = np.random.Philox(key=config.seed)
        bg.advance(_BLOCKS_PER_TRIAL * start)
        for lo in range(start, stop, _CHUNK):
            m = min(_CHUNK, stop - lo)
            words = bg.random_raw(WORDS_PER_TRIAL * m).reshape(m, WORDS_PER_TRIAL)
            out[lo : lo + m] = symbols(words)
            del words  # freed before the next draw: one chunk of words per thread

    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(threads)))

    stream = RawStream(out)
    return stream, BatchSummary.from_stream(stream)
