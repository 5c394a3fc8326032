"""End-to-end trial protocol: prepare ground state, rotate into the Sx
measurement frame, project, relax, read out, classify, emit a symbol.

A run with seed ``s`` has four column streams: column ``j`` is the
PCG64DXSM stream spawned from seed ``s`` with spawn key ``(j,)``, the same
stream as ``SeedSequence(s).spawn(4)[j]``. Column word ``j`` of noisy trial
``i`` is word ``i`` of column ``j``, reached with ``advance(i)``, so trials
are order-independent and a batch can be generated in chunks or across
workers with bit-identical results. ``_column_stream`` builds every column
stream, for ``run_batch`` and for its reference ``TrialRandom`` alike: it is
the one seam between the seed and the words.

A noisy trial reads eight uniforms u0-u7, two from each of its four column
words ``w``: the high half (w >> 32) 2^-32 and the low half
(w & (2^32 - 1)) 2^-32, so each uniform lies on the 2^-32 grid in
[0, 1 - 2^-32]. ``run_trial`` consumes them in the order u0-u7:

    column   high half                      low half
    0        u1 gate error, radius          u2 gate error, angle
    1        u3 Born-rule outcome           u0 thermal initialization
    2        u4 relaxation, first decay     u5 relaxation, second decay
    3        u6 IQ noise, radius            u7 IQ noise, angle

The gate error and the IQ noise are Box-Muller pairs (the gate error uses
the cosine branch), so their radius caps at sqrt(64 ln 2) = 6.66, where a
53-bit uniform reached 8.57.

Ideal mode prepares Sz = 0 and measures Sx, so its Born triple is exactly
(1/2, 1/2, 0) and each trial is one fair bit: ideal trial ``i`` is bit
``i mod 64``, least significant first, of word ``i // 64`` of column 0, so
64 trials share a word. Noise and IQ synthesis are bypassed entirely and
classification is the identity on the projected level. ``run_trial`` and
``run_batch`` both recompute the triple and refuse to run unless it is
(1/2, 1/2, 0), so a changed unitary cannot silently become a coin.

``run_trial`` computes every step of one noisy trial with the qutrit linear
algebra from ``TrialRandom`` uniforms. It is the independent reference for
the batch kernel, so it takes none of the kernel's shortcuts. The kernel
draws each chunk as raw 64-bit words. Every threshold on a uniform is a
multiple of 2^32 as a word threshold, computed once per run: a high-half
uniform is below p exactly when its word is below ceil(p 2^32) 2^32,
whatever the low half holds, and the low-half u0 exactly when its word
shifted left by 32 is. The kernel decides most trials by comparing words
with such thresholds:

- a ground-state trial whose gate-error radius is below a cap and whose
  Born uniform lies outside the band that radius allows around 1/2 is level
  [u3 >= 1/2] at any gate angle, and relaxes to 0 when u4 < p_decay_10;
- a trial whose IQ noise uniform is below ``readout.decision_uniform``, one
  bound for every level, is classified as its relaxed level.

Only the other trials (3.1% and 0.05% of trials at the defaults) are turned
into their uniforms and take the exact path, which feeds them to the same
``readout`` steps as ``run_trial``, so every symbol is the one computing
every step would give. The bounds hold on the
float64 domain that ``readout.NoiseParams`` owns and enforces, so every
accepted noise model takes this one path.

Words are drawn and compared per chunk of ``_CHUNK`` trials, but the
undecided rows, their trial indices and column words, are kept and resolved
once per block of ``_BLOCK`` chunks, so the exact path's few dozen numpy calls
run once per block, not once per chunk. Each symbol is still a function of
its trial's own words.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bits import Outcomes, RawStream, _check_seed, _integer
from .errors import ValidationError
from .qutrit import QutritState, apply_unitary, born_probabilities, measurement_unitary, rotation
from .readout import (
    NoiseParams,
    _radius,
    _sample_levels,
    apply_relaxation,
    classify,
    decision_uniform,
    gate_error,
    sample_level,
    synth_iq,
    thermal_init,
)

_COLUMNS = 4  # column streams, one word of each per noisy trial
# The half-word table: uniform k of a noisy trial is half h (0 high, 1 low) of
# its word in column j, (j, h) = _LAYOUT[k].
_LAYOUT = ((1, 1), (0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1))
_UNIFORMS = len(_LAYOUT)  # a noisy trial's uniforms, two per column word
_COLUMN_LENGTH = 1 << 128  # words per column stream: the period of PCG64DXSM
_CHUNK = 1 << 14  # trials per chunk: 512 KiB of words, 128 KiB per float temporary
_BLOCK = 8  # chunks per block: noisy mode resolves its undecided rows once per block

# Margins of the Born band in _WordBounds.of. Each guarded value is a
# few float64 operations from its exact value, each off by at most 2^-53
# (1.1e-16) relative, so every margin is wider than the rounding by 10^6 or more.
_ABS_MARGIN = 1e-9  # on c^2, which lies in [0, 1]
_BORN_SLOPE = (math.pi / 4.0) * (1.0 + 1e-9)  # pi/4, widened for rounding in the bound

_COMPUTATIONAL_BASIS = (
    QutritState([1, 0, 0]),
    QutritState([0, 1, 0]),
    QutritState([0, 0, 1]),
)


@dataclass(frozen=True)
class TrialRecord:
    true_level: int
    symbol: int  # the trace byte: the classified level


@dataclass(frozen=True)
class ProtocolConfig:
    n_trials: int
    seed: int
    noise: NoiseParams = NoiseParams()
    ideal: bool = False

    def __post_init__(self):
        # kept as Python ints: a trial index of 2^64 or more overflows numpy integers
        object.__setattr__(self, "n_trials", _integer(self.n_trials, "n_trials"))
        if self.n_trials < 1:
            raise ValidationError(f"n_trials must be >= 1, got {self.n_trials}")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if not isinstance(self.noise, NoiseParams):
            raise ValidationError(f"noise must be a NoiseParams, got {type(self.noise).__name__}")
        if not isinstance(self.ideal, (bool, np.bool_)):  # a truthy "false" would run the ideal protocol
            raise ValidationError(f"ideal must be a bool, got {type(self.ideal).__name__}")
        object.__setattr__(self, "ideal", bool(self.ideal))


@dataclass(frozen=True)
class BatchSummary(Outcomes):
    """The :class:`Outcomes` of a batch and its trial count."""

    n_trials: int


def _column_stream(seed: int, column: int, trial: int):
    """PCG64DXSM bit generator of column stream ``column`` whose next word
    is word ``trial`` of that column."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(column,))).advance(trial)


class TrialRandom:
    """Sequential uniform source over one trial's fixed budget of eight
    uniforms: u0-u7 of the module's half-word table, cut from the trial's
    word in each of the four column streams, or, for an ideal trial, its one
    fair bit from ``bit()``. The bit spends the whole budget, so a trial
    reads either its bit or its uniforms. Each word comes from a fresh
    ``_column_stream``, the stream builder ``run_batch`` reads too, so the
    two share one seam.

    ``run_trial(config, TrialRandom(seed, i))`` reproduces trial ``i`` of
    ``run_batch`` exactly.
    """

    def __init__(self, seed: int, trial_index: int):
        self._seed = _check_seed(seed)
        trial_index = _integer(trial_index, "trial_index")
        if trial_index < 0:
            raise ValidationError("trial_index must be nonnegative")
        if trial_index >= _COLUMN_LENGTH:
            raise ValidationError("trial_index must be below 2^128, the length of a column stream")
        self._trial = trial_index
        self._remaining = _UNIFORMS

    def random(self, size=None):
        n = 1 if size is None else _integer(size, "size")
        if not 0 <= n <= self._remaining:  # checked before the budget moves
            raise ValidationError(f"size {n} lies outside [0, {self._remaining}], the trial's unread uniform budget")
        first = _UNIFORMS - self._remaining
        self._remaining -= n
        picks = _LAYOUT[first : first + n]
        words = {j: _column_stream(self._seed, j, self._trial).random_raw() for j, _ in picks}
        u = np.array([_uniforms(np.uint64(words[j]))[h] for j, h in picks])
        return float(u[0]) if size is None else u

    def bit(self) -> int:
        """Ideal trial ``i``'s fair bit: bit ``i mod 64``, least significant
        first, of word ``i // 64`` of column 0."""
        if self._remaining != _UNIFORMS:  # checked before the budget moves
            raise ValidationError("bit() needs the trial's whole budget, and some of it was read")
        self._remaining = 0
        word = int(_column_stream(self._seed, 0, self._trial // 64).random_raw())
        return (word >> (self._trial % 64)) & 1


def _check_fair_triple() -> None:
    """Raise unless the ideal Born triple, computed from
    ``measurement_unitary()`` on the ground state, is (1/2, 1/2, 0) within
    1e-15, the case in which an ideal trial is one fair bit."""
    probs = born_probabilities(
        apply_unitary(measurement_unitary(), _COMPUTATIONAL_BASIS[0]),
        _COMPUTATIONAL_BASIS,
    )
    if not np.allclose(probs, (0.5, 0.5, 0.0), rtol=0.0, atol=1e-15):
        raise ValidationError(f"the ideal Born triple is {probs.tolist()}, not (1/2, 1/2, 0), so a trial is not a fair bit")


def run_trial(config: ProtocolConfig, rng) -> TrialRecord:
    """Run one protocol shot, drawing its uniforms u0-u7 from ``rng`` in
    order."""
    if config.ideal:
        _check_fair_triple()
        level = rng.bit()
        return TrialRecord(true_level=level, symbol=level)

    noise = config.noise
    w = rng.random(_UNIFORMS)
    initial = int(thermal_init(w[0], noise))
    theta = (np.pi / 2.0) * (1.0 + gate_error(w[1], w[2], noise))
    noisy_m = rotation("01", theta) @ rotation("12", theta)
    state = apply_unitary(noisy_m, _COMPUTATIONAL_BASIS[initial])
    projected = sample_level(born_probabilities(state, _COMPUTATIONAL_BASIS), w[3])
    relaxed = apply_relaxation(projected, w[4], w[5], noise)
    i, q = synth_iq(relaxed, w[6], w[7], noise)
    return TrialRecord(true_level=int(relaxed), symbol=int(classify(i, q, noise)))


def _uniforms(words):
    """The two uniforms of each raw PCG64DXSM word, high half first:
    (w >> 32) 2^-32 and (w & (2^32 - 1)) 2^-32, each in [0, 1 - 2^-32]."""
    return (words >> 32) * 2.0**-32, (words & 0xFFFFFFFF) * 2.0**-32


def _word_threshold(p) -> int:
    """The word T, a multiple of 2^32 in [0, 2^64], with a high-half uniform
    below ``p`` exactly when its word w < T, and a low-half one exactly when
    w << 32 < T: h 2^-32 < p iff h < ceil(p 2^32) for a 32-bit half h."""
    return min(max(math.ceil(p * 2.0**32), 0), 1 << 32) << 32


_HALF_WORD = _word_threshold(0.5)
# A gate-error word below this has a uniform below 1 - 2^-9, so a Box-Muller
# radius below sqrt(18 ln 2) = 3.53; the other 0.2% of trials take the exact path.
_RADIUS_CAP_WORD = (1 << 64) - (1 << 55)


@dataclass(frozen=True)
class _WordBounds:
    """Thresholds on raw column words that decide the common noisy trials,
    computed once per run from the noise model. Each is a multiple of 2^32,
    so it tests one half of a word whatever the other half holds. The word
    w_k holds u_k in its high half, and u0 is the low half of w3, which
    w3 << 32 moves up."""

    thermal: int  # u0 < p_thermal_1 + p_thermal_2 (an excited start) iff w3 << 32 < thermal
    decay_10: int  # u4 < p_decay_10 (1 -> 0) iff w4 < decay_10
    band: tuple[int, int]  # a ground trial with u1 below the cap and u3 outside [lo, hi) is level [u3 >= 1/2]
    iq: int  # a response with w6 < iq is classified as the relaxed level

    @classmethod
    def of(cls, noise: NoiseParams) -> "_WordBounds":
        # The ground state has p2 = 0, so its Born level is [u3 >= c^2] with
        # c^2 = cos^2(theta/2) = (1 - sin(pi e / 2)) / 2, and |c^2 - 1/2|
        # <= (pi/4)|e| <= (pi/4) gate_amp_error r for the gate error e on
        # Box-Muller radius r. Up to the radius cap this band lies inside the
        # band at the cap word, which _BORN_SLOPE and _ABS_MARGIN widen for
        # rounding in the bound and in c^2, a further 1e-9 for rounding in
        # _radius, and [lo, hi) holds in 2^-32 steps plus one. A ground trial
        # with u3 outside [lo, hi) is therefore level [u3 >= 1/2] at any gate angle.
        cap = float(_radius(_uniforms(np.uint64(_RADIUS_CAP_WORD))[0]))
        band = (_BORN_SLOPE * noise.gate_amp_error * cap + _ABS_MARGIN) * (1.0 + 1e-9)
        reach = math.ceil(band * 2.0**32) + 1
        half = 1 << 31
        # One uniform step below the IQ bound covers expm1's rounding.
        return cls(
            thermal=_word_threshold(noise.p_thermal_1 + noise.p_thermal_2),
            decay_10=_word_threshold(noise.p_decay_10),
            band=(max(half - reach, 0) << 32, min(half + reach, 1 << 32) << 32),
            iq=_word_threshold(decision_uniform(noise) - 2.0**-32),
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
    # column of R01(theta) @ R12(theta): (c, s, 0), (s c, c^2, s) and
    # (s^2, c s, c) from levels 0, 1 and 2. The columns are closed forms, so
    # this skips sample_level's probability check.
    ground = initial == 0
    level1 = initial == 1
    p0 = np.where(ground, cc, np.where(level1, (s * c) ** 2, ss**2))
    p2 = np.where(ground, 0.0, np.where(level1, ss, cc))
    return _sample_levels(p0, p2, u)


def _batch_symbols(words: list[np.ndarray], bounds: _WordBounds, first: int):
    """Levels of the noisy trials whose raw words are ``words``, one array
    per column stream, and the rows their word thresholds leave undecided.

    A ground-state trial with a capped gate radius and u3 outside the Born
    band of ``_WordBounds.of`` is level [u3 >= 1/2] at any gate angle, so
    its relaxed level is [u3 >= 1/2] & [u4 >= p_decay_10], read off its
    words. The other trials are the exact-tier rows. A response whose noise
    uniform is below ``bounds.iq``, one bound for every level, is classified
    as its relaxed level; the others are the IQ-tier rows. Each tier's rows
    are returned as [trial indices, column words...], indices counted from
    ``first`` for the first trial of ``words``: columns 0-2 (u0-u5) for the
    exact tier, column 3 (u6, u7) for the IQ tier. :func:`_resolve` computes
    their symbols.
    """
    w1, w3, w4, w6 = words  # w_k holds u_k in its high half; u0 is the low half of w3
    levels = ((w3 >= _HALF_WORD) & (w4 >= bounds.decay_10)).view(np.uint8)
    lo, hi = bounds.band
    exact = np.flatnonzero(((w3 << 32) < bounds.thermal) | (w1 >= _RADIUS_CAP_WORD) | ((w3 >= lo) & (w3 < hi)))
    iq = np.flatnonzero(w6 >= bounds.iq)
    return levels, ([exact + first, *(c[exact] for c in words[:3])], [iq + first, w6[iq]])


def _rows(tier):
    """One tier's rows of every chunk of a block, concatenated: their trial
    indices and the (high, low) uniforms of each of their column words."""
    index, *words = zip(*tier)
    return np.concatenate(index), [_uniforms(np.concatenate(w)) for w in words]


def _resolve(out: np.ndarray, pending: list, noise: NoiseParams) -> None:
    """Write into ``out`` the symbols of the undecided rows of
    ``pending``, the two row tiers ``_batch_symbols`` returned for each
    chunk of a block.

    The exact-tier rows take the exact steps on their uniforms: thermal
    start, gate rotation and Born sampling, relaxation. Then the IQ-tier
    rows synthesise and classify a response from the relaxed levels in
    ``out``, whichever tier wrote them.
    """
    exact, iq = zip(*pending)
    index, u = _rows(exact)
    if index.size:
        (u1, u2), (u3, u0), (u4, u5) = u
        projected = _born_levels(thermal_init(u0, noise), u1, u2, u3, noise)
        out[index] = apply_relaxation(projected, u4, u5, noise)
    index, u = _rows(iq)
    if index.size:
        ((u6, u7),) = u
        i, q = synth_iq(out[index], u6, u7, noise)
        out[index] = classify(i, q, noise)


def run_batch(config: ProtocolConfig, workers: int = 1) -> tuple[RawStream, BatchSummary]:
    """Generate ``config.n_trials`` symbols.

    Output is bit-identical for identical configs regardless of ``workers``:
    randomness is addressed by absolute trial index, so how trials are split
    only decides who computes them. The trials are cut into ``_CHUNK``-trial
    chunks (sized so one chunk's words and temporaries stay in L2 cache), and
    ``min(workers, chunks)`` threads each take a contiguous run of chunks.
    A thread starts one PCG64DXSM generator per column stream the mode reads
    (one ideal, four noisy) at the word of its first trial, and draws each chunk as a
    contiguous run of raw words from each, releasing them before the next
    draw, so consecutive draws continue at the next trial.

    In ideal mode a chunk draws the column-0 words that hold its trials'
    bits and expands them with ``np.unpackbits``. ``_CHUNK`` is a multiple
    of 64, so every chunk and every thread starts on a word; at any other
    chunk size a chunk that starts inside a word the chunk before it drew
    restarts the stream at that word. In noisy mode word thresholds are
    computed once per call, each chunk keeps the rows its thresholds leave
    undecided, and a thread resolves them once per block of ``_BLOCK``
    chunks, so each numpy call of the exact steps covers a block.
    """
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    n = config.n_trials
    if n > np.iinfo(np.intp).max:  # np.empty raises ValueError, not MemoryError, past it
        raise ValidationError(f"n_trials {n} exceeds {np.iinfo(np.intp).max}, the largest array numpy can index")
    out = np.empty(n, dtype=np.uint8)
    if config.ideal:
        _check_fair_triple()
    else:
        bounds = _WordBounds.of(config.noise)
    n_chunks = -(-n // _CHUNK)
    threads = min(workers, n_chunks)
    block = _BLOCK * _CHUNK

    def fill(t):
        start = t * n_chunks // threads * _CHUNK
        stop = min(n, (t + 1) * n_chunks // threads * _CHUNK)
        if config.ideal:
            gens = [_column_stream(config.seed, 0, start // 64)]
        else:
            gens = [_column_stream(config.seed, j, start) for j in range(_COLUMNS)]
        for first in range(start, stop, block):
            pending = []
            for lo in range(first, min(first + block, stop), _CHUNK):
                m = min(_CHUNK, stop - lo)
                if config.ideal:
                    skip = lo % 64
                    if skip and lo != start:  # the chunk before drew the word this one starts in
                        gens[0] = _column_stream(config.seed, 0, lo // 64)
                    words = gens[0].random_raw(-(-(skip + m) // 64)).astype("<u8", copy=False)
                    out[lo : lo + m] = np.unpackbits(words.view(np.uint8), bitorder="little")[skip : skip + m]
                else:
                    out[lo : lo + m], rows = _batch_symbols([bg.random_raw(m) for bg in gens], bounds, lo)
                    pending.append(rows)
            if pending:
                _resolve(out, pending, config.noise)

    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(threads)))

    stream = RawStream(out)
    return stream, BatchSummary.of(stream, n_trials=n)
