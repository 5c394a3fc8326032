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
algebra. It is the independent reference for the batch kernel, so it takes
none of the kernel's shortcuts. The kernel uses closed-form Born
probabilities and decides most noisy trials from bounds on their uniforms:

- a ground-state trial whose Born uniform lies farther from 1/2 than the
  largest shift of cos^2(theta/2) its gate-error radius allows has its
  level without the rotation being computed;
- a trial whose IQ noise radius is below its level's
  ``readout.decision_radii`` is classified as that level without its IQ
  point being synthesised.

Only the other trials (1.2% and 0.05% of them at the defaults) take the
exact path, which feeds the same words to the same ``readout`` steps as
``run_trial``, so every symbol is the one computing every step would give.
The bounds hold on the float64 domain that ``readout.NoiseParams`` owns and
enforces, so every accepted noise model takes this one path.
"""

from __future__ import annotations

import math
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
    decision_radii,
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
        n = 1 if size is None else int(size)
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


def _batch_symbols(words: np.ndarray, noise: NoiseParams, ideal_probs, iq_radii) -> np.ndarray:
    """Symbols of the trials whose word rows are ``words``; ``ideal_probs``
    is the ideal Born triple, or None in noisy mode, where ``iq_radii`` are
    the ``decision_radii`` of ``noise``."""
    if ideal_probs is not None:
        return sample_level(ideal_probs, words[:, 0])

    # Born level. From the ground state it is [u >= c^2] + [u >= c^2 + s^2]
    # with c^2 = cos^2(theta/2) = (1 - sin(pi e / 2)) / 2, so |c^2 - 1/2| <=
    # (pi/4)|e| <= (pi/4) gate_amp_error r for the gate error e on radius r.
    # A ground-state trial whose u lies outside that band, widened for
    # rounding in the bound and in c^2, and below 1 - 1e-9 < c^2 + s^2 is
    # level [u >= 1/2] at any angle; only the others take the exact path.
    initial = thermal_init(words[:, 0], noise)
    u = words[:, 3]
    band = (_BORN_SLOPE * noise.gate_amp_error) * _radius(words[:, 1]) + _ABS_MARGIN
    projected = (u >= 0.5).astype(np.uint8)
    idx = np.flatnonzero((initial != 0) | (np.abs(u - 0.5) <= band) | (u > 1.0 - _ABS_MARGIN))
    if idx.size:
        rows = words[idx]
        projected[idx] = _born_levels(initial[idx], rows[:, 1], rows[:, 2], rows[:, 3], noise)

    # Classified level: a response within iq_radii of its level's centre is
    # classified as that level, so only the others are synthesised.
    levels = apply_relaxation(projected, words[:, 4], words[:, 5], noise)
    idx = np.flatnonzero(noise.iq_sigma * _radius(words[:, 6]) >= iq_radii[levels])
    if idx.size:
        rows = words[idx]
        i, q = synth_iq(levels[idx], rows[:, 6], rows[:, 7], noise)
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
    chunk's words into one reused buffer: a trial consumes exactly two
    counter blocks, so consecutive draws continue at the next trial.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    n = config.n_trials
    out = np.empty(n, dtype=np.uint8)
    ideal_probs = np.abs(measurement_unitary().matrix[:, 0]) ** 2 if config.ideal else None
    iq_radii = decision_radii(config.noise)
    n_chunks = -(-n // _CHUNK)
    threads = min(workers, n_chunks)

    def fill(t):
        start = t * n_chunks // threads * _CHUNK
        stop = min(n, (t + 1) * n_chunks // threads * _CHUNK)
        bg = np.random.Philox(key=config.seed)
        bg.advance(_BLOCKS_PER_TRIAL * start)
        gen = np.random.Generator(bg)
        buf = np.empty((min(_CHUNK, stop - start), WORDS_PER_TRIAL))
        for lo in range(start, stop, _CHUNK):
            words = buf[: min(_CHUNK, stop - lo)]
            gen.random(out=words)
            out[lo : lo + len(words)] = _batch_symbols(words, config.noise, ideal_probs, iq_radii)

    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(threads)))

    stream = RawStream(out)
    return stream, BatchSummary.from_stream(stream)
