"""End-to-end trial protocol: prepare ground state, rotate into the Sx
measurement frame, project, relax, read out, classify, emit a symbol.

A run with seed ``s`` reads two streams. Its word stream is the PCG64DXSM
stream spawned from seed ``s`` with spawn key ``(0,)``, the same stream as
``SeedSequence(s).spawn(2)[0]``, reached at any word with ``advance``. Its
refinement stream is SplitMix64 (G. L. Steele, D. Lea, C. H. Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014) keyed by the first
64-bit word of ``SeedSequence(s, spawn_key=(1,)).generate_state``: word n
is a fixed mix of key + (n + 1) gamma modulo 2^64, so any word costs a few
integer operations. ``_word_stream`` and ``_refinement_key`` build them for
``run_batch`` and for its reference ``TrialRandom`` alike: they are the one
seam between the seed and the words. So trials are order-independent, and a
batch can be generated in chunks or across workers with bit-identical
results.

A noisy trial reads eight uniforms u0-u7, each h 2^-32 for a 32-bit integer
h, so each lies on the 2^-32 grid in [0, 1 - 2^-32]. Noisy trial ``i``'s
screen word is word ``i`` of the word stream; its refinement words r0, r1 and
r2 are words 3i, 3i + 1 and 3i + 2 of the refinement stream. The screen word
holds the leading bits, the screens, of the five uniforms that decide most
trials, and the refinement words hold the rest. Each uniform's bits, most
significant first, by bit range of each word (63 the top bit):

    uniform                        screen word   refinement word
    u0 thermal initialization      8-15          r1 40-63
    u1 gate error, radius          0-7           r1 16-39
    u2 gate error, angle           -             r0 32-63
    u3 Born-rule outcome           48-63         r1 0-15
    u4 relaxation, first decay     32-47         r2 0-15
    u5 relaxation, second decay    -             r0 0-31
    u6 IQ noise, radius            16-31         r2 16-31
    u7 IQ noise, angle             -             r2 32-63

``run_trial`` consumes them in the order u0-u7. The gate error and the IQ
noise are Box-Muller pairs (the gate error uses the cosine branch), so their
radius caps at sqrt(64 ln 2) = 6.66. Refinement counters wrap modulo 2^64, so
the refinement words of the first ceil(2^64 / 3) trials, about 6.1e18, are
distinct stream words; the word stream's 2^128 screen words never repeat.

Ideal mode prepares Sz = 0 and measures Sx, so its Born triple is exactly
(1/2, 1/2, 0) and each trial is one fair bit: ideal trial ``i`` is bit
``i mod 64``, least significant first, of word ``i // 64`` of the word
stream, so 64 trials share a word. Noise and IQ synthesis are bypassed
entirely and classification is the identity on the projected level.
``run_trial`` and ``run_batch`` both recompute the triple and refuse to run
unless it is (1/2, 1/2, 0), so a changed unitary cannot silently become a
coin.

``run_trial`` computes every step of one noisy trial with the qutrit linear
algebra from ``TrialRandom`` uniforms. It is the independent reference for
the batch kernel, so it takes none of the kernel's shortcuts. The kernel
draws each chunk's screen words only. A screen is the top of its uniform, so
a threshold p cuts a screen's values into cells wholly below p, cells wholly
at or above p, and at most one cell that straddles p. Each threshold is
turned into screen values once per run, and the kernel decides most trials
from the screens alone, drawing further bits only for trials that need them:
exact lazy sampling (D. E. Knuth, A. C. Yao, "The complexity of nonuniform
random number generation", 1976).

- a ground-state trial whose gate-error radius is below a cap and whose
  Born uniform lies outside the band that radius allows around 1/2 is level
  [u3 >= 1/2] at any gate angle, and relaxes to 0 when u4 < p_decay_10;
- a trial whose IQ noise uniform is below ``readout.decision_uniform``, one
  bound for every level, is classified as its relaxed level.

Only the trials whose screens leave these undecided (3.4% and 0.05% of
trials at the defaults) read their refinement words, computed for those rows
alone, and take the exact path, which feeds their uniforms to the same
``readout`` steps as ``run_trial``, so every symbol is the one computing
every step would give. The bounds hold on the float64 domain that
``readout.NoiseParams`` owns and enforces, so every accepted noise model
takes this one path.

Screen words are drawn and compared per chunk of ``_CHUNK`` trials, but the
undecided rows, their trial indices and screen words, are kept and resolved
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

_UNIFORMS = 8  # a noisy trial's uniforms, u0-u7
_STREAM_LENGTH = 1 << 128  # words of the word stream: the period of PCG64DXSM
_CHUNK = 1 << 15  # trials per chunk: 256 KiB of screen words, 64 KiB per screen lane
_BLOCK = 4  # chunks per block: noisy mode resolves its undecided rows once per block

# SplitMix64: word n of the stream keyed k is _mix(k + (n + 1) _GAMMA mod 2^64),
# where _mix multiplies by each of _MIX after an xor-shift by its shift
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MASK64 = (1 << 64) - 1
_REFINEMENT_WORDS = 3  # refinement words per noisy trial

# The bit table: uniform k's 32 bits are the fields (j, shift, width, at) of
# _FIELDS[k], bits [shift, shift + width) of word j landing at bits
# [at, at + width); word 0 is the trial's screen word, words 1-3 its
# refinement words r0-r2.
_FIELDS = (
    ((0, 8, 8, 24), (2, 40, 24, 0)),  # u0
    ((0, 0, 8, 24), (2, 16, 24, 0)),  # u1
    ((1, 32, 32, 0),),  # u2
    ((0, 48, 16, 16), (2, 0, 16, 0)),  # u3
    ((0, 32, 16, 16), (3, 0, 16, 0)),  # u4
    ((1, 0, 32, 0),),  # u5
    ((0, 16, 16, 16), (3, 16, 16, 0)),  # u6
    ((3, 32, 32, 0),),  # u7
)

# A screen word as four little-endian 16-bit lanes holds, from lane 0: the u0
# screen (high byte) and the u1 screen (low byte), then the u6, u4 and u3 screens.
_HALF_SCREEN = 1 << 15  # u3 >= 1/2 exactly when its 16-bit screen is
# A u1 screen below this has u1 < 1 - 2^-8, so a Box-Muller radius below
# sqrt(16 ln 2) = 3.33; the other 0.4% of trials take the exact path.
_CAP_SCREEN = 255

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


def _word_stream(seed: int, word: int):
    """PCG64DXSM generator of the run's word stream whose next word is word
    ``word``."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(0,))).advance(word)


def _refinement_key(seed: int) -> int:
    """The key of the run's SplitMix64 refinement stream."""
    return int(np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(1, np.uint64)[0])


def _splitmix64(key: int, n: int) -> int:
    """Word ``n`` of the SplitMix64 stream keyed ``key``, in Python ints."""
    z = (key + (n + 1) * _GAMMA) & _MASK64
    for shift, multiplier in _MIX:
        z = ((z ^ (z >> shift)) * multiplier) & _MASK64
    return z ^ (z >> 31)


def _refinement(key: int, index: np.ndarray, r: int) -> np.ndarray:
    """Refinement word ``r`` of the trials ``index``: SplitMix64 word
    3 i + r of the stream keyed ``key``, computed on uint64 arrays, which wrap
    modulo 2^64 as the counter does."""
    z = index.astype(np.uint64) * np.uint64(_REFINEMENT_WORDS * _GAMMA & _MASK64)
    z += np.uint64((key + (r + 1) * _GAMMA) & _MASK64)
    for shift, multiplier in _MIX:
        z = (z ^ (z >> shift)) * np.uint64(multiplier)
    return z ^ (z >> 31)


def _uniform(words, k: int):
    """Uniform u_k of the trials whose screen word and refinement words are
    ``words``, Python ints or uint64 arrays, cut as the bit table says."""
    h = 0
    for j, shift, width, at in _FIELDS[k]:
        h = h | (((words[j] >> shift) & ((1 << width) - 1)) << at)
    return h * 2.0**-32


class TrialRandom:
    """Sequential uniform source over one trial's fixed budget of eight
    uniforms: u0-u7 of the module's bit table, cut from the trial's screen
    word and its three refinement words, or, for an ideal trial, its one
    fair bit from ``bit()``. The bit spends the whole budget, so a trial
    reads either its bit or its uniforms. The screen word comes from a fresh
    ``_word_stream`` and the refinement words from ``_refinement_key``, the
    seams ``run_batch`` reads too, computed here in Python ints. A trial
    index runs up to 2^128 - 1, the length of the word stream; refinement
    counters wrap modulo 2^64.

    ``run_trial(config, TrialRandom(seed, i))`` reproduces trial ``i`` of
    ``run_batch`` exactly.
    """

    def __init__(self, seed: int, trial_index: int):
        self._seed = _check_seed(seed)
        trial_index = _integer(trial_index, "trial_index")
        if trial_index < 0:
            raise ValidationError("trial_index must be nonnegative")
        if trial_index >= _STREAM_LENGTH:
            raise ValidationError("trial_index must be below 2^128, the length of the word stream")
        self._trial = trial_index
        self._remaining = _UNIFORMS

    def random(self, size=None):
        n = 1 if size is None else _integer(size, "size")
        if not 0 <= n <= self._remaining:  # checked before the budget moves
            raise ValidationError(f"size {n} lies outside [0, {self._remaining}], the trial's unread uniform budget")
        first = _UNIFORMS - self._remaining
        self._remaining -= n
        key = _refinement_key(self._seed)
        words = [int(_word_stream(self._seed, self._trial).random_raw())]
        words += [_splitmix64(key, _REFINEMENT_WORDS * self._trial + r) for r in range(_REFINEMENT_WORDS)]
        u = np.array([_uniform(words, k) for k in range(first, first + n)], dtype=np.float64)
        return float(u[0]) if size is None else u

    def bit(self) -> int:
        """Ideal trial ``i``'s fair bit: bit ``i mod 64``, least significant
        first, of word ``i // 64`` of the word stream."""
        if self._remaining != _UNIFORMS:  # checked before the budget moves
            raise ValidationError("bit() needs the trial's whole budget, and some of it was read")
        self._remaining = 0
        word = int(_word_stream(self._seed, self._trial // 64).random_raw())
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


def _cut(p, bits: int) -> tuple[int, int]:
    """Screen values (A, B) that cut a uniform's top ``bits`` bits s at
    ``p``: the uniform is below ``p`` whatever its other bits when s < A,
    and at or above it when s >= B, with B - A in {0, 1}. A 32-bit uniform
    h 2^-32 is below p exactly when h < ceil(p 2^32), clamped to [0, 2^32],
    and s = h >> (32 - bits)."""
    t = min(max(math.ceil(p * 2.0**32), 0), 1 << 32)
    shift = 32 - bits
    return t >> shift, -(-t >> shift)


@dataclass(frozen=True)
class _WordBounds:
    """Thresholds on the screens of a screen word that decide the common
    noisy trials, computed once per run from the noise model, in screen
    units: each bounds a whole cell of uniforms, whatever the refinement
    words hold."""

    thermal: int  # a u0 screen below this may start excited (u0 < p_thermal_1 + p_thermal_2)
    decay_10: tuple[int, int]  # (A, B) of u4 against p_decay_10: 1 -> 0 below A, not from B
    band: tuple[int, int]  # a ground trial with u1 below the cap and u3 screen outside [lo, hi) is level [u3 >= 1/2]
    iq: int  # a response whose u6 screen is below this is classified as the relaxed level

    @classmethod
    def of(cls, noise: NoiseParams) -> "_WordBounds":
        # The ground state has p2 = 0, so its Born level is [u3 >= c^2] with
        # c^2 = cos^2(theta/2) = (1 - sin(pi e / 2)) / 2, and |c^2 - 1/2|
        # <= (pi/4)|e| <= (pi/4) gate_amp_error r for the gate error e on
        # Box-Muller radius r. Up to the radius cap this band lies inside the
        # band at the cap, which _BORN_SLOPE and _ABS_MARGIN widen for
        # rounding in the bound and in c^2, a further 1e-9 for rounding in
        # _radius, and [lo, hi) holds in 2^-16 steps plus one. A ground trial
        # with a u3 screen outside [lo, hi) is therefore level [u3 >= 1/2] at
        # any gate angle.
        cap = float(_radius(_CAP_SCREEN / 256.0))
        band = (_BORN_SLOPE * noise.gate_amp_error * cap + _ABS_MARGIN) * (1.0 + 1e-9)
        reach = math.ceil(band * 2.0**16) + 1
        # One 2^-32 step below the IQ bound covers expm1's rounding.
        return cls(
            thermal=_cut(noise.p_thermal_1 + noise.p_thermal_2, 8)[1],
            decay_10=_cut(noise.p_decay_10, 16),
            band=(max(_HALF_SCREEN - reach, 0), min(_HALF_SCREEN + reach, 1 << 16)),
            iq=_cut(decision_uniform(noise) - 2.0**-32, 16)[0],
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


def _batch_symbols(words: np.ndarray, bounds: _WordBounds, first: int):
    """Levels of the noisy trials whose screen words are ``words``, and the
    rows their screens leave undecided.

    A ground-state trial with a capped gate radius and u3 outside the Born
    band of ``_WordBounds.of`` is level [u3 >= 1/2] at any gate angle, so
    its relaxed level is [u3 >= 1/2] & [u4 >= p_decay_10], read off its
    screens. The other trials, and those whose u4 cell straddles
    p_decay_10, are the exact-tier rows. A response whose noise uniform is
    below ``bounds.iq``, one bound for every level, is classified as its
    relaxed level; the others are the IQ-tier rows. Each tier's rows are
    returned as [trial indices, screen words], indices counted from
    ``first`` for the first trial of ``words``. :func:`_resolve` computes
    their symbols.
    """
    # one contiguous array per 16-bit lane, so each comparison runs unstrided
    s01, s6, s4, s3 = words.astype("<u8", copy=False).view("<u2").reshape(-1, 4).T.copy()
    decay_lo, decay_hi = bounds.decay_10
    levels = ((s3 >= _HALF_SCREEN) & (s4 >= decay_hi)).view(np.uint8)
    lo, hi = bounds.band
    exact = np.flatnonzero(
        (s01 < bounds.thermal << 8)  # the u0 screen is s01's high byte
        | ((s01 & 0xFF) >= _CAP_SCREEN)
        | ((s3 >= lo) & (s3 < hi))
        | ((s4 >= decay_lo) & (s4 < decay_hi))
    )
    iq = np.flatnonzero(s6 >= bounds.iq)
    return levels, ([exact + first, words[exact]], [iq + first, words[iq]])


def _rows(tier):
    """One tier's rows of every chunk of a block, concatenated: their trial
    indices and screen words."""
    return (np.concatenate(c) for c in zip(*tier))


def _resolve(out: np.ndarray, pending: list, noise: NoiseParams, key: int) -> None:
    """Write into ``out`` the symbols of the undecided rows of
    ``pending``, the two row tiers ``_batch_symbols`` returned for each
    chunk of a block, whose refinement words are those of the stream keyed
    ``key``.

    The exact-tier rows read all three refinement words and take the exact
    steps on their uniforms: thermal start, gate rotation and Born sampling,
    relaxation. Then the IQ-tier rows, which need only r2, synthesise and
    classify a response from the relaxed levels in ``out``, whichever tier
    wrote them.
    """
    exact, iq = zip(*pending)
    index, screens = _rows(exact)
    if index.size:
        words = [screens, *(_refinement(key, index, r) for r in range(_REFINEMENT_WORDS))]
        u0, u1, u2, u3, u4, u5 = (_uniform(words, k) for k in range(6))
        projected = _born_levels(thermal_init(u0, noise), u1, u2, u3, noise)
        out[index] = apply_relaxation(projected, u4, u5, noise)
    index, screens = _rows(iq)
    if index.size:
        words = [screens, None, None, _refinement(key, index, 2)]
        i, q = synth_iq(out[index], _uniform(words, 6), _uniform(words, 7), noise)
        out[index] = classify(i, q, noise)


def run_batch(config: ProtocolConfig, workers: int = 1) -> tuple[RawStream, BatchSummary]:
    """Generate ``config.n_trials`` symbols.

    Output is bit-identical for identical configs regardless of ``workers``:
    randomness is addressed by absolute trial index, so how trials are split
    only decides who computes them. The trials are cut into ``_CHUNK``-trial
    chunks (sized so one chunk's words and temporaries stay in L2 cache), and
    ``min(workers, chunks)`` threads each take a contiguous run of chunks.
    A thread starts one PCG64DXSM generator on the word stream at the word
    of its first trial, and draws each chunk as a contiguous run of raw
    words, releasing them before the next draw, so consecutive draws
    continue at the next trial.

    In ideal mode a chunk draws the words that hold its trials' bits and
    expands them with ``np.unpackbits``. ``_CHUNK`` is a multiple of 64, so
    every chunk and every thread starts on a word; at any other chunk size a
    chunk that starts inside a word the chunk before it drew restarts the
    stream at that word. In noisy mode a chunk draws one screen word per
    trial; screen thresholds and the refinement key are computed once per
    call, each chunk keeps the rows its screens leave undecided, and a
    thread resolves them once per block of ``_BLOCK`` chunks, so each numpy
    call of the exact steps covers a block.
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
        key = _refinement_key(config.seed)
    n_chunks = -(-n // _CHUNK)
    threads = min(workers, n_chunks)
    block = _BLOCK * _CHUNK

    def fill(t):
        start = t * n_chunks // threads * _CHUNK
        stop = min(n, (t + 1) * n_chunks // threads * _CHUNK)
        gen = _word_stream(config.seed, start // 64 if config.ideal else start)
        for first in range(start, stop, block):
            pending = []
            for lo in range(first, min(first + block, stop), _CHUNK):
                m = min(_CHUNK, stop - lo)
                if config.ideal:
                    skip = lo % 64
                    if skip and lo != start:  # the chunk before drew the word this one starts in
                        gen = _word_stream(config.seed, lo // 64)
                    words = gen.random_raw(-(-(skip + m) // 64)).astype("<u8", copy=False)
                    out[lo : lo + m] = np.unpackbits(words.view(np.uint8), bitorder="little")[skip : skip + m]
                else:
                    out[lo : lo + m], rows = _batch_symbols(gen.random_raw(m), bounds, lo)
                    pending.append(rows)
            if pending:
                _resolve(out, pending, config.noise, key)

    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(threads)))

    stream = RawStream(out)
    return stream, BatchSummary.of(stream, n_trials=n)
