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

``run_trial`` computes one trial with the qutrit linear algebra and serves as
the independent reference for the closed-form Born probabilities of the
batch kernel; both feed the same words to the same ``readout`` steps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError
from .qutrit import QutritState, apply_unitary, born_probabilities, measurement_unitary, rotation
from .readout import (
    IQPoint,
    NoiseParams,
    ReadoutLevel,
    _sample_levels,
    apply_relaxation,
    classify,
    gate_error,
    sample_level,
    synth_iq,
    thermal_init,
)

WORDS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = WORDS_PER_TRIAL // 4  # Philox emits 4 words per counter step
_CHUNK = 1 << 14  # trials per chunk: 1 MiB of words, 128 KiB per float temporary

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
        arr = np.asarray(symbols, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValidationError("symbol trace must be one-dimensional")
        if arr.size and arr.max() > 2:
            raise ValidationError("symbol trace contains values outside {0, 1, 2}")
        arr.setflags(write=False)
        self.symbols = arr
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
        if n > self._remaining:
            raise ValidationError("trial word budget exhausted")
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


def _batch_symbols(words: np.ndarray, noise: NoiseParams, ideal_probs) -> np.ndarray:
    """Symbols of the trials whose word rows are ``words``; ``ideal_probs``
    is the ideal Born triple, or None in noisy mode."""
    if ideal_probs is not None:
        return sample_level(ideal_probs, words[:, 0])

    initial = thermal_init(words[:, 0], noise)
    theta = (np.pi / 2.0) * (1.0 + gate_error(words[:, 1], words[:, 2], noise))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    cc = c * c
    ss = s * s

    # Born probabilities are the squared entries of the initial level's
    # column of R01(theta) @ R12(theta), (c, s, 0) from the ground state.
    # Excited initial levels are rare, so sample every row from the ground
    # column and resample the exceptions. The rows are closed forms, so this
    # skips sample_level's probability check.
    u = words[:, 3]
    projected = _sample_levels(cc, ss, u)
    idx = np.flatnonzero(initial == 1)  # column (s c, c^2, s)
    projected[idx] = _sample_levels((s[idx] * c[idx]) ** 2, cc[idx] ** 2, u[idx])
    idx = np.flatnonzero(initial == 2)  # column (s^2, c s, c)
    projected[idx] = _sample_levels(ss[idx] ** 2, (c[idx] * s[idx]) ** 2, u[idx])

    relaxed = apply_relaxation(projected, words[:, 4], words[:, 5], noise)
    i, q = synth_iq(relaxed, words[:, 6], words[:, 7], noise)
    return classify(i, q, noise)


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
            out[lo : lo + len(words)] = _batch_symbols(words, config.noise, ideal_probs)

    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(threads)))

    stream = RawStream(out)
    return stream, BatchSummary.from_stream(stream)
