import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from ksqrng import bits, protocol
from ksqrng.bits import BitStream, Outcomes, RawStream, random_bits
from ksqrng.errors import ValidationError
from ksqrng.protocol import (
    ProtocolConfig,
    TrialRandom,
    run_batch,
    run_trial,
)
from ksqrng.qutrit import QutritState, Unitary3, born_probabilities, measurement_unitary, rotation, sx_eigenbasis
from ksqrng.readout import (
    NoiseParams,
    _radius,
    _sample_levels,
    apply_relaxation,
    classify,
    gate_error,
    synth_iq,
    thermal_init,
)


class TestRawStream:
    def test_counts_match_tallies(self):
        symbols = np.array([0, 1, 2, 0, 0, 1], dtype=np.uint8)
        stream = RawStream(symbols)
        assert (stream.n0, stream.n1, stream.n_discard) == (3, 2, 1)
        assert stream.n0 + stream.n1 + stream.n_discard == len(stream)

    def test_rejects_undefined_symbols(self):
        with pytest.raises(ValidationError):
            RawStream(np.array([0, 3], dtype=np.uint8))

    def test_tallies_allocate_at_most_one_slice(self):
        # the discards are counted one slice's bool temporary at a time; ones need none
        n = 1 << 20
        symbols = (np.arange(n) % 3).astype(np.uint8)
        tracemalloc.start()
        try:
            stream = RawStream(symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stream.n0, stream.n1, stream.n_discard) == (349526, 349525, 349525)
        assert peak <= bits._COUNT_SLICE + (1 << 12)

    def test_tallies_without_discards_allocate_nothing_per_trial(self):
        n = 1 << 20
        symbols = (np.arange(n) % 5 == 1).astype(np.uint8)
        tracemalloc.start()
        try:
            stream = RawStream(symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stream.n0, stream.n1, stream.n_discard) == (n - 209715, 209715, 0)
        assert peak <= 1 << 12


@pytest.mark.parametrize("stream_type, top", [(RawStream, 2), (BitStream, 1)], ids=["RawStream", "BitStream"])
class TestStreamValues:
    # a uint8 cast would wrap these into range (256 -> 0, 0.7 -> 0,
    # -255 -> 1) or raise OverflowError, so they are checked before it
    @pytest.mark.parametrize(
        "values",
        [np.array([256, 1]), np.array([0.7]), np.array([-255]), [256], [0, 1.0], np.array([1], dtype=object)],
        ids=["wraps", "float", "negative", "list-overflow", "list-float", "object"],
    )
    def test_rejects_before_cast(self, stream_type, top, values):
        with pytest.raises(ValidationError):
            stream_type(values)

    def test_rejects_above_top(self, stream_type, top):
        with pytest.raises(ValidationError):
            stream_type(np.array([top + 1], dtype=np.int64))

    def test_accepts_empty_bool_and_int(self, stream_type, top):
        assert len(stream_type([])) == 0
        assert stream_type([True, False]) == stream_type(np.array([1, 0], dtype=np.uint8))
        assert stream_type(np.arange(top + 1)) == stream_type(np.arange(top + 1, dtype=np.uint8))

    def test_repr(self, stream_type, top):
        expected = {RawStream: "RawStream(n=3, n0=1, n1=1, n_discard=1)", BitStream: "BitStream(length=3)"}
        assert repr(stream_type([0, 1, top])) == expected[stream_type]

    def test_uint8_input_is_not_copied(self, stream_type, top):
        # a RawStream holds the array itself; a BitStream packs it straight
        # into its n/8 bytes, with no byte-per-bit copy on the way
        values = np.zeros(1 << 20, dtype=np.uint8)
        tracemalloc.start()
        try:
            stream = stream_type(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.size // 8 + (1 << 16)
        if stream_type is RawStream:
            assert stream.symbols is values


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(n_trials=0, seed=1)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(n_trials=1, seed=-1)
        with pytest.raises(ValidationError):
            ProtocolConfig(n_trials=1, seed=2**64)
        ProtocolConfig(n_trials=1, seed=2**64 - 1)
        with pytest.raises(ValidationError, match="seed must fit in 64 bits"):
            random_bits(2**64, 16)
        with pytest.raises(ValidationError, match="seed must fit in 64 bits"):
            random_bits(-1, 16)
        random_bits(2**64 - 1, 16)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ProtocolConfig(n_trials=4096, seed=1.5),
            lambda: ProtocolConfig(n_trials=4096, seed=1.9),
            lambda: ProtocolConfig(n_trials=2.5, seed=1),
            lambda: TrialRandom(1.5, 0),
            lambda: TrialRandom(1, 2.5),
            lambda: TrialRandom(np.float64(1.0), 0),
            lambda: random_bits(1.5, 64),
            lambda: random_bits(1.9, 64),
            lambda: random_bits(1, 2.5),
            lambda: run_batch(ProtocolConfig(n_trials=1 << 16, seed=1), workers=1.5),
            lambda: run_batch(ProtocolConfig(n_trials=1 << 16, seed=1), workers=np.float64(2.0)),
        ],
        ids=[
            "seed-1.5",
            "seed-1.9",
            "trials-2.5",
            "trial-seed-1.5",
            "trial-index-2.5",
            "trial-seed-float64",
            "bits-seed-1.5",
            "bits-seed-1.9",
            "bits-count-2.5",
            "workers-1.5",
            "workers-float64",
        ],
    )
    def test_rejects_non_integer_seed_and_counts(self, make):
        # rejected before any draw: a float seed must not alias the integer
        # below it, nor a float count reach numpy as a TypeError
        with pytest.raises(ValidationError, match="must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: TrialRandom(1, -1), "trial_index must be nonnegative"),
            (lambda: random_bits(1, -1), "n_bits must be nonnegative"),
        ],
        ids=["trial-index", "bits-count"],
    )
    def test_rejects_negative_counts(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(ideal="false"), "ideal must be a bool, got str"),
            (dict(ideal=1), "ideal must be a bool, got int"),
            (dict(ideal=None), "ideal must be a bool, got NoneType"),
            (dict(noise=None), "noise must be a NoiseParams, got NoneType"),
            (dict(noise={}), "noise must be a NoiseParams, got dict"),
        ],
        ids=["ideal-str", "ideal-int", "ideal-none", "noise-none", "noise-dict"],
    )
    def test_rejects_mistyped_mode_and_noise(self, kw, message):
        # a truthy "false" must not run the ideal protocol, nor a missing
        # noise model fail later inside the kernel
        with pytest.raises(ValidationError, match=message):
            ProtocolConfig(n_trials=1, seed=1, **kw)

    def test_accepts_numpy_bool(self):
        config = ProtocolConfig(n_trials=64, seed=5, ideal=np.True_)
        assert config.ideal is True
        assert run_batch(config)[0] == run_batch(ProtocolConfig(n_trials=64, seed=5, ideal=True))[0]

    @pytest.mark.parametrize("n", [2**63, 10**30], ids=["2^63", "10^30"])
    def test_rejects_counts_numpy_cannot_index(self, n):
        # rejected before np.empty, which raises ValueError past 2^63 - 1
        with pytest.raises(ValidationError, match=f"n_trials {n} exceeds {2**63 - 1}"):
            run_batch(ProtocolConfig(n_trials=n, seed=1))

    def test_largest_indexable_count_is_out_of_memory(self):
        # 2^63 - 1 trials pass the count check; numpy refuses the 8 EiB at once
        with pytest.raises(MemoryError):
            run_batch(ProtocolConfig(n_trials=2**63 - 1, seed=1))

    def test_accepts_numpy_integers(self):
        config = ProtocolConfig(n_trials=np.int64(64), seed=np.uint64(5))
        assert run_batch(config, workers=np.int64(2))[0] == run_batch(ProtocolConfig(n_trials=64, seed=5))[0]
        assert random_bits(np.uint64(5), np.int64(64)) == random_bits(5, 64)
        assert np.array_equal(TrialRandom(np.int64(5), np.int64(3)).uniforms(), TrialRandom(5, 3).uniforms())


def spawned_words(seed):
    """The word stream of ``seed`` built through ``SeedSequence.spawn``, a
    second path to the seeding of ``protocol._word_stream``."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(2)[0])


def spawned_key(seed):
    """The refinement key of ``seed`` built through ``SeedSequence.spawn``, a
    second path to ``protocol._refinement_key``."""
    return int(np.random.SeedSequence(seed).spawn(2)[1].generate_state(1, np.uint64)[0])


# 3 WRAP = 2^64 - 1: from trial WRAP on, the refinement counters 3i + r + 1 cross 2^64
WRAP = 6148914691236517205


def splitmix(key, n):
    """Word n of the SplitMix64 stream keyed ``key`` (Steele, Lea and Flood,
    2014), in Python integers."""
    z = (key + (n + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


# the bit table: the fields of each uniform u0-u7, most significant first, as
# (word, top bit, low bit); word 0 is the screen word, words 1-3 the
# refinement words r0-r2
TABLE = (
    ((0, 15, 8), (2, 63, 40)),
    ((0, 7, 0), (2, 39, 16)),
    ((1, 63, 32),),
    ((0, 63, 48), (2, 15, 0)),
    ((0, 47, 32), (3, 15, 0)),
    ((1, 31, 0),),
    ((0, 31, 16), (3, 31, 16)),
    ((3, 63, 32),),
)
SCREEN_BITS = {k: fields[0][1] - fields[0][2] + 1 for k, fields in enumerate(TABLE) if fields[0][0] == 0}
TOP = 2**32 - 1


def cut(words, k):
    """The 32-bit integer of uniform k of a trial whose screen and refinement
    words are ``words``, in Python integers."""
    h = 0
    for j, top, low in TABLE[k]:
        width = top - low + 1
        h = (h << width) | ((words[j] >> low) & ((1 << width) - 1))
    return h


def trial_row(h):
    """The screen and refinement words of a trial whose uniforms u0-u7 are
    the 32-bit integers ``h``: ``cut`` inverted."""
    words = [0, 0, 0, 0]
    for k, fields in enumerate(TABLE):
        rest = 32
        for j, top, low in fields:
            width = top - low + 1
            rest -= width
            words[j] |= ((h[k] >> rest) & ((1 << width) - 1)) << low
    return words


def row_words(seed, trial):
    """Trial ``trial``'s screen word and refinement words: word ``trial`` of
    the spawned word stream, and SplitMix64 words 3 trial + r, r in 0-2, of
    the spawned key's stream."""
    screen = int(spawned_words(seed).advance(trial).random_raw())
    return [screen] + [splitmix(spawned_key(seed), 3 * trial + r) for r in range(3)]


def layout_uniforms(seed, trial):
    """u0-u7 of noisy trial ``trial``, cut from its words by the table."""
    words = row_words(seed, trial)
    return [cut(words, k) / 2**32 for k in range(8)]


class TestTrialRandom:
    def test_matches_contiguous_stream(self):
        # the screen word of trial i is word i of the word stream, a
        # contiguous PCG64DXSM stream spawned from the seed, and its
        # refinement words are words 3i to 3i + 2 of one SplitMix64 stream
        screens = spawned_words(77).random_raw(9).tolist()
        refinement = [splitmix(spawned_key(77), n) for n in range(27)]
        for i in range(9):
            words = [screens[i], *refinement[3 * i : 3 * i + 3]]
            assert TrialRandom(77, i).uniforms().tolist() == [cut(words, k) / 2**32 for k in range(8)]

    @pytest.mark.parametrize("offset", range(4))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=hst.integers(0, 2**64 - 1),
        block=hst.one_of(
            hst.integers(0, 1 << 18),
            hst.builds(lambda k, d: max(k * (protocol._CHUNK // 4) + d, 0), hst.integers(0, 64), hst.integers(-1, 0)),
            hst.integers(2**62, 2**126 - 1),  # trial indices of 2^64 and more, up to 2^128 - 1
        ),
    )
    # the trials WRAP - 1 to WRAP + 2, whose refinement counters cross 2^64,
    # and 2^64 + 4 to 2^64 + 7, whose indices wrap in the uint64 counter
    # arithmetic
    @example(seed=3, block=(WRAP - 1) // 4)
    @example(seed=3, block=2**62 + 1)
    def test_matches_philox_counter(self, offset, seed, block):
        # trial i = 4 * block + offset reads word i of the word stream, the
        # word at counter position advance(i), and refinement counters 3i to
        # 3i + 2 modulo 2^64, and serves u0-u7 in the table's order. The name
        # and the four offsets date from Philox columns, whose 4-word blocks
        # put each trial at position i % 4; the offsets keep every residue of
        # i mod 4 covered.
        trial = 4 * block + offset
        u = TrialRandom(seed, trial).uniforms()
        assert u.dtype == np.float64
        assert u.tolist() == layout_uniforms(seed, trial)

    def test_last_trial_of_the_word_stream(self):
        # the word stream is 2^128 words long, the period of PCG64DXSM: word
        # 2^128 would be word 0 again; refinement counters wrap at 2^64, so
        # trial 2^64 + 5 shares trial 5's refinement words, not its screen
        last = 2**128 - 1
        assert TrialRandom(3, last).uniforms().tolist() == layout_uniforms(3, last)
        assert spawned_words(3).advance(last).random_raw(2)[1] == spawned_words(3).random_raw()
        with pytest.raises(ValidationError, match="below 2\\^128"):
            TrialRandom(3, last + 1)
        near, far = row_words(3, 5), row_words(3, 2**64 + 5)
        assert near[1:] == far[1:] and near[0] != far[0]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("trial", [2**64 + 5, 2**128 - 1], ids=["2^64+5", "2^128-1"])
    def test_bit_at_large_trial_index(self, seed, trial):
        # the 64 trials of the word that holds ``trial`` are its bits, least
        # significant first, read from the spawned word stream advanced to it
        word = int(spawned_words(seed).advance(trial // 64).random_raw())
        base = trial - trial % 64
        bit = TrialRandom(seed, trial).bit()
        assert type(bit) is int and bit == (word >> (trial % 64)) & 1
        assert sum(TrialRandom(seed, base + k).bit() << k for k in range(64)) == word

    @pytest.mark.parametrize("trial", [1, 3, (1 << 14) - 1, 1 << 14, 3 * (1 << 14) + 5])
    def test_stream_started_mid_run_continues_it(self, trial):
        # a run_batch thread starts its word stream at its first trial; the
        # words must be those a stream from trial 0 reaches there
        whole = protocol._word_stream(2**64 - 1, 0).random_raw(trial + 9)
        assert np.array_equal(protocol._word_stream(2**64 - 1, trial).random_raw(9), whole[trial:])

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 2])
    def test_streams_are_distinct(self, seed):
        # a spawn-key mix-up would alias the word stream with the refinement
        # stream, or a stream of the seed with one of the next seed
        heads = set()
        for s in (seed, seed + 1):
            heads.add(protocol._word_stream(s, 0).random_raw(1 << 10).tobytes())
            heads.add(protocol._refinement(protocol._refinement_key(s), np.arange(1 << 10), 0).tobytes())
        assert len(heads) == 4


class TestRefinement:
    """The refinement words are SplitMix64 words, computed on uint64 arrays
    by ``_refinement`` for run_batch and TrialRandom alike."""

    @pytest.mark.parametrize(
        "key, words",
        [
            (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
            (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
        ],
        ids=["key-0", "key-1234567"],
    )
    def test_published_outputs(self, key, words):
        # the first outputs of SplitMix64 seeded with these states, as other
        # implementations publish them
        first = np.zeros(1, dtype=np.uint64)  # words 0, 1 and 2 are trial 0's r0, r1 and r2
        assert [int(protocol._refinement(key, first, r)[0]) for r in range(3)] == words
        assert [splitmix(key, n) for n in range(3)] == words

    @settings(max_examples=50, deadline=None)
    @given(
        key=hst.one_of(hst.integers(0, 2**64 - 1), hst.sampled_from([0, 2**64 - 1])),
        sampled=hst.lists(hst.integers(0, 2**63 - 1), max_size=8),
    )
    def test_vectorised_matches_python_ints(self, key, sampled):
        # trial 0, the last trial of the largest batch numpy can index, and
        # the trials whose counters 3i + r + 1 cross 2^64
        trials = [0, 1, 2**63 - 2, 2**63 - 1, WRAP - 1, WRAP, WRAP + 1, *sampled]
        index = np.array(trials, dtype=np.intp)
        for r in range(3):
            expected = [splitmix(key, 3 * i + r) for i in trials]
            assert protocol._refinement(key, index, r).tolist() == expected, r

    def test_key_is_spawn_key_one(self):
        for seed in (0, 77, 2**64 - 1):
            assert protocol._refinement_key(seed) == spawned_key(seed)


def cell_edges(t, bits):
    """Screen values one and two cells either side of a screen threshold, and
    the extreme screens."""
    near = {t + d for d in (-2, -1, 0, 1)} | {0, 2**bits - 1}
    return sorted(s for s in near if 0 <= s < 2**bits)


def cell_range(s, bits):
    """The smallest and largest uniform of screen cell ``s``."""
    shift = 32 - bits
    return (s << shift) / 2**32, (((s + 1) << shift) - 1) / 2**32


class TestRawWords:
    """run_batch decides trials on the screens of raw PCG64DXSM words with
    per-run thresholds; each must decide as the uniforms TrialRandom serves."""

    @pytest.mark.parametrize("trial", [0, 1, 12_345, (1 << 14) - 3])
    def test_uniforms_match_generator(self, trial):
        # the kernel's uniforms, from screen words drawn in consecutive
        # chunks and refinement words computed for the rows, are those the
        # table oracle serves for every trial of them
        expected = [layout_uniforms(2718, trial + k) for k in range(12)]
        bg = spawned_words(2718).advance(trial)
        screens = np.concatenate([bg.random_raw(5), bg.random_raw(7)])  # consecutive draws, as chunks are
        index = np.arange(trial, trial + 12)
        words = [screens, *(protocol._refinement(spawned_key(2718), index, r) for r in range(3))]
        for k in range(8):
            assert protocol._uniform(words, k).tolist() == [row[k] for row in expected], k

    def test_extreme_words(self):
        # all bits clear, all set, and only the screen word's bits set, which
        # gives each screened uniform 1 - 2^-bits and the others 0
        zero, ones = np.zeros(1, dtype=np.uint64), np.full(1, 2**64 - 1, dtype=np.uint64)
        for words, expected in (
            ([zero] * 4, [0.0] * 8),
            ([ones] * 4, [1.0 - 2.0**-32] * 8),
            ([ones, zero, zero, zero], [1.0 - 2.0 ** -SCREEN_BITS.get(k, 0) for k in range(8)]),
        ):
            assert [float(protocol._uniform(words, k)[0]) for k in range(8)] == expected

    @pytest.mark.parametrize(
        "p",
        [0.0, 1.0, 0.5, 3 * 2.0**-53, 1.0 - 2.0**-53, 5e-324, 0.072, 0.0016 + 0.0002, 0.5 + 0.499]
        + [3 * 2.0**-32, 1.0 - 2.0**-32, 3 * 2.0**-32 + 2.0**-53],
        ids=["0", "1", "half", "grid", "below-1", "subnormal", "decay", "thermal-sum", "thermal-0.999"]
        + ["grid-32", "below-1-32", "off-grid-32"],
    )
    def test_word_threshold_is_exact(self, p):
        # a screen below A has its whole cell below p, one at or above B its
        # whole cell at or above p, and at most one cell lies between
        for bits in (8, 16, 32):
            a, b = protocol._cut(p, bits)
            assert b - a in (0, 1) and 0 <= a <= b <= 2**bits
            for s in cell_edges(a, bits) + cell_edges(b, bits):
                low, high = cell_range(s, bits)
                assert (high < p) == (s < a) and (low >= p) == (s >= b), (bits, s)

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            dict(p_thermal_1=0.3, p_thermal_2=0.3, p_decay_10=1.0),
            dict(p_thermal_1=0.0, p_thermal_2=0.0, p_decay_10=0.0),
            dict(p_thermal_1=0.5, p_thermal_2=0.499, p_decay_10=2.0**-3),
            dict(iq_sigma=0.36, gate_amp_error=0.2),
            dict(iq_sigma=5e-324, gate_amp_error=0.0),
        ],
        ids=["defaults", "decay-1", "decay-0", "on-grid", "wide", "sigma-subnormal"],
    )
    def test_bounds_decide_as_uniforms(self, kw):
        noise = NoiseParams(**kw)
        bounds = protocol._WordBounds.of(noise)
        assert all(type(t) is int for t in (bounds.thermal, *bounds.decay_10, *bounds.band, bounds.iq))
        # exact: a u0 screen at or above the thermal bound is a ground start,
        # and the 1 -> 0 relaxation (u4) is decided outside its cut
        thermal = noise.p_thermal_1 + noise.p_thermal_2
        assert bounds.thermal == protocol._cut(thermal, 8)[1]
        assert bounds.decay_10 == protocol._cut(noise.p_decay_10, 16)
        for s in cell_edges(bounds.thermal, 8):
            assert (cell_range(s, 8)[0] >= thermal) == (s >= bounds.thermal)
        # early decisions: a u6 screen below the IQ bound is classified as
        # its level, for every level and every noise angle
        angles = np.linspace(0.0, 1.0 - 2.0**-32, 65)
        cells = [s for s in cell_edges(bounds.iq, 16) if s < bounds.iq]
        u = np.array([cell_range(s, 16)[1] for s in cells])[:, None]
        for level in range(3):
            assert np.all(classify(*synth_iq(level, u, angles, noise), noise) == level)
        # a capped u1 screen has a radius below the cap, and a u3 screen
        # outside the band has its whole cell outside the Born band there
        assert cell_range(protocol._CAP_SCREEN - 1, 8)[1] < protocol._CAP_SCREEN / 256
        lo, hi = bounds.band
        cap = _radius(protocol._CAP_SCREEN / 256)
        band = (protocol._BORN_SLOPE * noise.gate_amp_error) * cap + protocol._ABS_MARGIN
        for s in cell_edges(lo, 16) + cell_edges(hi, 16):
            if s < lo or s >= hi:
                low, high = cell_range(s, 16)
                assert high < 0.5 - band or low > 0.5 + band, s


class TestIdealMode:
    def test_analytic_born_probabilities(self):
        # probabilities entering the sampler are exactly (1/2, 1/2, 0) and
        # equal the Sx-basis Born probabilities of the ground state after
        # applying the basis permutation of the measurement rotation
        m = measurement_unitary().matrix
        probs = np.abs(m[:, 0]) ** 2
        assert np.allclose(probs, [0.5, 0.5, 0.0], atol=1e-12)
        sx_probs = born_probabilities(QutritState([1, 0, 0]), sx_eigenbasis())
        reordered = np.array([sx_probs[2], sx_probs[0], sx_probs[1]])
        assert np.allclose(probs, reordered, atol=1e-12)

    def test_no_discards_and_balanced(self):
        stream, summary = run_batch(ProtocolConfig(n_trials=1_000_000, seed=8, ideal=True))
        assert stream.n_discard == 0
        assert abs(summary.p0 - 0.5) < 0.0015  # binomial 3 sigma

    def test_starts_no_thread(self, monkeypatch):
        # three and a bit noisy chunks would start three pool threads on four
        # workers; an ideal run is one draw and one unpack on the calling thread
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("an ideal run started a thread pool")

        cfg = ProtocolConfig(n_trials=3 * (1 << 17) + 5, seed=9, ideal=True)
        serial = run_batch(cfg, workers=1)[0]
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", NoPool)
        assert run_batch(cfg, workers=4)[0] == serial

    def test_holds_output_and_drawn_words_only(self):
        # 1 B/trial of output and the 8-byte words that hold 64 trials each;
        # ideal runs have no discards, so RawStream's tallies allocate nothing
        # per trial. np.unpackbits allocates a fixed 5.4 kB beside its output
        # (numpy 2.4), hence 16 KiB of slack, where a second trace-sized
        # buffer would add 1 MiB
        n = (1 << 20) + 7
        cfg = ProtocolConfig(n_trials=n, seed=10, ideal=True)
        run_batch(cfg)
        tracemalloc.start()
        try:
            run_batch(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n + 8 * -(-n // 64) + 16 * 1024

    def test_run_trial_record(self):
        rec = run_trial(ProtocolConfig(n_trials=1, seed=3, ideal=True), TrialRandom(3, 0))
        assert rec.symbol == rec.true_level and type(rec.symbol) is int


class TestNoisyMode:
    def test_run_trial_symbol_consistency(self):
        # the symbol is the trace byte: 0 zero, 1 one, 2 discard. Level 2,
        # the Sx = 0 outcome, is the discard symbol; a trial that starts in
        # level 2 projects to it half the time. At the defaults 0.078% of
        # trials are discards, so the trials run until all three symbols are
        # seen, up to 2^14 (a seed's first 2^14 trials miss a discard with
        # odds of about 3e-6)
        for noise in (NoiseParams(), NoiseParams(p_thermal_1=0.0, p_thermal_2=0.99, p_decay_21=0.0)):
            cfg = ProtocolConfig(n_trials=1, seed=5, noise=noise)
            seen = set()
            for i in range(1 << 14):
                rec = run_trial(cfg, TrialRandom(5, i))
                assert type(rec.symbol) is int
                seen.add(rec.symbol)
                if len(seen) == 3:
                    break
            assert seen == {0, 1, 2}

    def test_bias_direction(self):
        # relaxation converts ones to zeros, so p0 > p1 at defaults
        _, summary = run_batch(ProtocolConfig(n_trials=1_000_000, seed=21))
        assert summary.p0 > summary.p1

    def test_discard_rate_below_tenth_percent(self):
        _, summary = run_batch(ProtocolConfig(n_trials=1_000_000, seed=22))
        assert summary.p_discard < 0.001

    def test_zero_frequency_near_calibration(self):
        _, summary = run_batch(ProtocolConfig(n_trials=1_000_000, seed=23))
        assert abs(summary.p0 - 0.536) < 0.005

    def test_no_relaxation_no_bias(self):
        noise = NoiseParams(p_decay_10=0.0, p_decay_21=0.0)
        _, summary = run_batch(ProtocolConfig(n_trials=1_000_000, seed=24, noise=noise))
        assert abs(summary.p0 - 0.5) < 0.0016


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = ProtocolConfig(n_trials=300_000, seed=31)
        a, _ = run_batch(cfg)
        b, _ = run_batch(cfg)
        assert a == b

    def test_neighbouring_seeds_decorrelated(self):
        a, _ = run_batch(ProtocolConfig(n_trials=100_000, seed=32))
        b, _ = run_batch(ProtocolConfig(n_trials=100_000, seed=33))
        differing = np.mean(a.symbols != b.symbols)
        assert 0.45 < differing < 0.55

    def test_worker_count_invariance(self):
        cfg = ProtocolConfig(n_trials=600_000, seed=34)  # spans several chunks
        one, _ = run_batch(cfg, workers=1)
        four, _ = run_batch(cfg, workers=4)
        assert np.array_equal(one.symbols, four.symbols)

    def test_batch_matches_scalar_reference(self):
        cfg = ProtocolConfig(n_trials=2000, seed=35)
        stream, _ = run_batch(cfg)
        for i in range(2000):
            rec = run_trial(cfg, TrialRandom(35, i))
            assert int(rec.symbol) == int(stream.symbols[i])

    def test_batch_matches_scalar_reference_ideal(self):
        cfg = ProtocolConfig(n_trials=1000, seed=36, ideal=True)
        stream, _ = run_batch(cfg)
        for i in range(1000):
            rec = run_trial(cfg, TrialRandom(36, i))
            assert int(rec.symbol) == int(stream.symbols[i])


class SerialPool:
    """A ``ThreadPoolExecutor`` stand-in that runs the jobs in this thread,
    one after another."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestChunking:
    @pytest.mark.parametrize(
        "kw",
        # at iq_sigma 0.36 and p_decay_10 0.4 every whole 2^10-trial chunk of these
        # runs holds exact-tier and IQ-tier rows (22 and 136 at least)
        [{}, dict(noise=NoiseParams(iq_sigma=0.36, p_decay_10=0.4))],
        ids=["noisy", "wide"],
    )
    @pytest.mark.parametrize("n", [1, (1 << 14) - 1, (1 << 14) + 1, 70_001])
    def test_chunk_size_invariance(self, monkeypatch, n, kw):
        # a thread resolves its chunks' undecided rows once per _RESOLVE_CHUNKS
        # chunks; these sizes put chunk, resolve-batch and thread edges at
        # different trials, or past the end of the run
        cfg = ProtocolConfig(n_trials=n, seed=41, **kw)
        words = protocol._word_stream(41, 0).random_raw(n)
        _, exact, iq = protocol._batch_symbols(protocol._lanes(words), protocol._WordBounds.of(cfg.noise))
        undecided = np.union1d(exact, iq)
        reference = None
        for chunk in (1 << 10, 1 << 14, 1 << 18):
            monkeypatch.setattr(protocol, "_CHUNK", chunk)
            for resolve_chunks in (1, 2, 3):
                monkeypatch.setattr(protocol, "_RESOLVE_CHUNKS", resolve_chunks)
                for workers in (1, 2, 3):
                    symbols = run_batch(cfg, workers=workers)[0].symbols
                    if reference is None:
                        reference = symbols
                    assert np.array_equal(symbols, reference), (chunk, resolve_chunks, workers)
            # every resolve batch and every thread starts on a chunk edge:
            # the trials on both sides of each, and the undecided rows nearest it
            edges = {0, n - 1}
            for boundary in range(chunk, n, chunk):
                edges |= {boundary - 1, boundary}
                at = np.searchsorted(undecided, boundary)
                edges |= {int(i) for i in undecided[max(at - 1, 0) : at + 1]}
            for i in sorted(edges):
                assert int(run_trial(cfg, TrialRandom(41, i)).symbol) == reference[i], (chunk, i)

    @pytest.mark.parametrize(
        "ideal, digest",
        [
            (False, "56591e61e77fce1a7626f4a2d73d3a215cb2c448df0f517d48e8f8157e840e5a"),
            (True, "45a4f9dca474789ad4b282c3eadc588d8c49d37819ff931b9e0c977cfb7e36b7"),
        ],
        ids=["noisy", "ideal"],
    )
    def test_pinned_symbol_digest(self, ideal, digest):
        stream, _ = run_batch(ProtocolConfig(n_trials=300_007, seed=271828, ideal=ideal), workers=2)
        assert hashlib.sha256(stream.symbols.tobytes()).hexdigest() == digest

    @settings(max_examples=20, deadline=None)
    @given(
        seed=hst.integers(0, 2**64 - 1),
        n=hst.integers(1, 320),
        workers=hst.integers(1, 3),
        data=hst.data(),
    )
    def test_ideal_layout_matches_bit_oracle(self, seed, n, workers, data):
        # ideal trial i is bit i % 64, least significant first, of word
        # i // 64 of the word stream, on runs of up to five words that end
        # on or inside a word
        cfg = ProtocolConfig(n_trials=n, seed=seed, ideal=True)
        symbols = run_batch(cfg, workers=workers)[0].symbols.tolist()
        words = [int(protocol._word_stream(seed, k).random_raw()) for k in range(-(-n // 64))]
        assert symbols == [(words[i // 64] >> (i % 64)) & 1 for i in range(n)]
        # run_trial at every word edge, the first words' trials and a sample
        checked = set(range(min(n, 130))) | {n - 1} | {i for lo in range(64, n, 64) for i in (lo - 1, lo)}
        checked |= set(data.draw(hst.lists(hst.integers(0, n - 1), max_size=16), label="sampled"))
        for i in sorted(checked):
            assert run_trial(cfg, TrialRandom(seed, i)).symbol == symbols[i], i

    @pytest.mark.parametrize("chunk", [960, 1 << 10, 1 << 15])
    def test_undecided_rows_on_both_sides_of_a_thread_split(self, monkeypatch, chunk):
        # 3 * chunk + 1234 trials, not a whole number of chunks: two threads
        # split them at chunk 2, three at chunks 1 and 2, and resolve batches
        # of one, two and three chunks end at chunks 1, 2 and 3 or at a
        # thread's end; undecided rows lie within a few trials on both sides
        # of every such edge. Every thread count and batch size, and chunk
        # sizes whose edges fall elsewhere, give one output
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        n = 3 * chunk + 1234
        cfg = ProtocolConfig(n_trials=n, seed=43)
        words = protocol._word_stream(43, 0).random_raw(n)
        _, exact, _ = protocol._batch_symbols(protocol._lanes(words), protocol._WordBounds.of(cfg.noise))
        for split in (chunk, 2 * chunk, 3 * chunk):
            assert np.any((exact >= split - 64) & (exact < split))
            assert np.any((exact >= split) & (exact < split + 64))
        reference = None
        for resolve_chunks in (1, 2, 3):
            monkeypatch.setattr(protocol, "_RESOLVE_CHUNKS", resolve_chunks)
            for workers in (1, 2, 3):
                symbols = run_batch(cfg, workers=workers)[0].symbols
                if reference is None:
                    reference = symbols
                assert np.array_equal(symbols, reference), (resolve_chunks, workers)
        monkeypatch.setattr(protocol, "_CHUNK", 1 << 14)
        assert np.array_equal(run_batch(cfg, workers=2)[0].symbols, reference)
        for i in exact[(exact >= chunk - 64) & (exact < 3 * chunk + 64)]:
            assert int(run_trial(cfg, TrialRandom(43, int(i))).symbol) == reference[i], i

    def test_threads_capped_at_chunk_count(self, monkeypatch):
        requested = []

        class RecordingPool(SerialPool):
            def __init__(self, max_workers):
                requested.append(max_workers)

        monkeypatch.setattr(protocol, "_CHUNK", 1 << 10)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
        cfg = ProtocolConfig(n_trials=3 * (1 << 10) - 5, seed=42)  # 3 chunks
        wide, _ = run_batch(cfg, workers=64)
        assert requested == [2]  # the calling thread takes the first run of chunks
        serial, _ = run_batch(cfg, workers=1)
        assert requested == [2]
        assert wide == serial

    def test_generation_holds_one_chunk_of_words_per_thread(self):
        # 1 B/trial of output and 1 B/trial of RawStream tallies, plus one
        # chunk of screen words per thread and its temporaries; each thread
        # draws four chunks, so words kept alive across later draws would
        # add up to three chunks per thread
        n = 8 * protocol._CHUNK
        cfg = ProtocolConfig(n_trials=n, seed=61)
        run_batch(cfg, workers=2)
        tracemalloc.start()
        try:
            run_batch(cfg, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = protocol._CHUNK * 8  # one screen word per trial
        temporaries = 2 * protocol._CHUNK * 8  # two 8-byte temporaries per trial of a chunk
        assert peak <= 2 * n + 2 * (chunk_bytes + temporaries)

    def test_held_rows_bounded_per_resolve_batch(self, monkeypatch):
        # p_thermal_1 = 0.5 sends half the trials to the exact tier, and at
        # gate_amp_error 0.5 the Born band holds [0, 1], so every row of a
        # resolve batch of _RESOLVE_CHUNKS chunks is held until the batch is
        # resolved. The threads run one after the other, so the peak is one
        # thread's batch: doubling n (from one batch per thread to two) adds
        # only the output and the RawStream tallies, at most 2 B/trial, not
        # the held rows or their temporaries. 2^15-trial chunks keep the
        # batch's temporaries small
        monkeypatch.setattr(protocol, "_CHUNK", 1 << 15)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", SerialPool)
        noise = NoiseParams(p_thermal_1=0.5, gate_amp_error=0.5)
        n = 2 * protocol._RESOLVE_CHUNKS * protocol._CHUNK
        peaks = []
        run_batch(ProtocolConfig(n_trials=n, seed=63, noise=noise), workers=2)
        for trials in (n, 2 * n):
            tracemalloc.start()
            try:
                run_batch(ProtocolConfig(n_trials=trials, seed=63, noise=noise), workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row_bytes = 16  # a held row's position and screen word
        assert peaks[0] > protocol._RESOLVE_CHUNKS * protocol._CHUNK * row_bytes  # a batch's rows were held
        assert peaks[1] - peaks[0] <= 2 * n + protocol._CHUNK * 2


def reference_symbols(words, noise):
    """The all-trials noisy kernel: every trial takes the gate rotation, Born
    sampling from its initial level's column, relaxation, IQ synthesis and
    classification, with nothing decided early."""
    initial = thermal_init(words[0], noise)
    theta = (np.pi / 2.0) * (1.0 + gate_error(words[1], words[2], noise))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    cc = c * c
    ss = s * s
    # columns of R01(theta) @ R12(theta): (c, s, 0), (s c, c^2, s), (s^2, c s, c)
    p0 = np.select([initial == 1, initial == 2], [(s * c) ** 2, ss**2], cc)
    p2 = np.select([initial == 1, initial == 2], [ss, cc], 0.0)
    projected = _sample_levels(p0, p2, words[3])
    relaxed = apply_relaxation(projected, words[4], words[5], noise)
    i, q = synth_iq(relaxed, words[6], words[7], noise)
    return classify(i, q, noise)


def trial_words(seed, n):
    """The uniforms u0-u7 of trials [0, n), one row per uniform, cut by the
    table from the spawned word stream's words and the refinement words
    (whose SplitMix64 TestRefinement pins to its published outputs)."""
    index = np.arange(n)
    words = [spawned_words(seed).random_raw(n)]
    words += [protocol._refinement(spawned_key(seed), index, r) for r in range(3)]
    rows = []
    for fields in TABLE:
        h = np.zeros(n, dtype=np.uint64)
        for j, top, low in fields:
            width = top - low + 1
            h = (h << np.uint64(width)) | ((words[j] >> np.uint64(low)) & np.uint64((1 << width) - 1))
        rows.append(h * 2.0**-32)
    return np.stack(rows)


# noise model keywords, and the SHA-256 of the 2^16 symbols run_batch writes for them at seed 52
EARLY_DECISION_CONFIGS = {
    "defaults": ({}, "ab3c9319be33d9ffe81f9fd5b72122311b290766a1ce8dbb26590011f54bb764"),
    "sigma-0.12": (dict(iq_sigma=0.12), "a728a439f93d5ad0b91b18556f734d3783731b825a398cb7bd0c42cfe8570797"),
    "sigma-0.36": (dict(iq_sigma=0.36), "b51fe0ca744fbecdaaba80b1a124f0d01dbd1f4e1730f3ccb3bc2f3f4b58b3ef"),
    "sigma-1": (dict(iq_sigma=1.0), "cb4070e3b37caf2618a831c15ea53e9410c7a11eca74efc60b6df86b1aec3e42"),
    "gate-0": (dict(gate_amp_error=0.0), "34cf09a2518d195ba432461ae9451f00528f3897247f9f8545584a3071e404cb"),
    "gate-0.2": (dict(gate_amp_error=0.2), "09a5074cc03351a4f7764113e6edd78c519e819be91f1eb12f0fc2871242dffd"),
    "thermal-0.3": (
        dict(p_thermal_1=0.3, p_thermal_2=0.3),
        "cabc7ea24934cfd6c0d4079267c332cf9dc4f17e8dc038f5bd5254449e70d914",
    ),
    # the edges of the float64 domain NoiseParams accepts
    "coord-ceiling": (
        dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e99),
        "a728a439f93d5ad0b91b18556f734d3783731b825a398cb7bd0c42cfe8570797",
    ),
    "sigma-ceiling": (dict(iq_sigma=1e100), "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31"),
    "gate-ceiling": (dict(gate_amp_error=1e100), "0a8fa4b987d9df1b8684225a017266e15b33031a4555ce99029a2388e0ad1dab"),
    "all-ceilings": (
        dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e100, gate_amp_error=1e100),
        "cd4df3f3ed4fa9d0198db99a76231de5a1ef9677b207170552ed8d4fe4b434d1",
    ),
    # half gaps of exactly 1e-100, and of exactly 1e-6 max|coord|
    "gap-floor": (
        dict(iq_centers=((1e-100, 0.0), (-1e-100, 0.0), (0.0, 1e-99)), iq_sigma=3e-101),
        "834a272f3cb58f8090bdd8a3cdabc3c83c2292f67b577b81af4dd022f7427423",
    ),
    "gap-per-coord": (
        dict(iq_centers=((1e6, 0.0), (1e6 - 2.0, 0.0), (-1e6, 0.0)), iq_sigma=0.3),
        "834a272f3cb58f8090bdd8a3cdabc3c83c2292f67b577b81af4dd022f7427423",
    ),
    # the ends of each word threshold in run_batch
    "decay10-0": (dict(p_decay_10=0.0), "4aaa9fe2c96a59231f9c9009a4035bc1293699233ca939942fba2d66b610361c"),
    "decay10-1": (dict(p_decay_10=1.0), "5f3f16c2b039375dba02148d945281b94981e37f29c76ee6bcd5dcfcd348e6d1"),
    "decay21-1": (
        dict(p_decay_21=1.0, p_thermal_1=0.3, p_thermal_2=0.3),
        "ad9458f0c1e7e36baa3ee9e9cf3e5766a7b6b59e427e31b5877b9060252799fb",
    ),
    "thermal-0.999": (
        dict(p_thermal_1=0.5, p_thermal_2=0.499),
        "c917bf85b21282a35da61278b294073289fef5e053b5283d08ac3ef7449b5826",
    ),
    # the Born band at the radius cap holds [0, 1]
    "band-covers-all": (dict(gate_amp_error=0.5), "7b39fc6b1db4c03759c38c4bd7832e65ecedce6944dab96708d37cc5084de0e3"),
    # R / sigma overflows, so every level's bound is 1
    "iq-bound-1": (dict(iq_sigma=5e-324), "a728a439f93d5ad0b91b18556f734d3783731b825a398cb7bd0c42cfe8570797"),
    # (R / sigma)^2 underflows
    "iq-bound-0": (
        dict(iq_centers=((1e-100, 0.0), (-1e-100, 0.0), (0.0, 1e-99)), iq_sigma=1e100),
        "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31",
    ),
}


class TestEarlyDecisions:
    """run_batch decides most noisy trials from bounds on their uniforms; it
    must write exactly the symbols of the all-trials kernel."""

    @pytest.mark.parametrize("thermal", [0.0, 0.3], ids=["cold", "thermal"])
    def test_reference_matches_run_trial(self, thermal):
        noise = NoiseParams(p_thermal_1=thermal, p_thermal_2=thermal, iq_sigma=0.36)
        cfg = ProtocolConfig(n_trials=1, seed=51, noise=noise)
        reference = reference_symbols(trial_words(51, 300), noise)
        for i in range(300):
            assert int(run_trial(cfg, TrialRandom(51, i)).symbol) == reference[i], i

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kw, digest", EARLY_DECISION_CONFIGS.values(), ids=EARLY_DECISION_CONFIGS)
    def test_matches_all_trials_reference(self, kw, digest):
        noise = NoiseParams(**kw)
        n = 1 << 16
        stream, _ = run_batch(ProtocolConfig(n_trials=n, seed=52, noise=noise), workers=2)
        assert np.array_equal(stream.symbols, reference_symbols(trial_words(52, n), noise))
        assert hashlib.sha256(stream.symbols.tobytes()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(
        coords=hst.lists(hst.floats(-4.0, 4.0), min_size=6, max_size=6),
        exponent=hst.integers(-100, 100),
        sigma=hst.floats(1e-3, 3.0),
        gate=hst.one_of(hst.floats(0.0, 2.0), hst.just(1e100)),
        seed=hst.integers(0, 2**64 - 1),
    )
    def test_matches_reference_on_random_noise(self, coords, exponent, sigma, gate, seed):
        scale = 10.0**exponent
        centres = [(coords[k] * scale, coords[k + 1] * scale) for k in (0, 2, 4)]
        try:
            noise = NoiseParams(iq_centers=centres, iq_sigma=sigma * scale, gate_amp_error=gate)
        except ValidationError:
            assume(False)
        stream, _ = run_batch(ProtocolConfig(n_trials=4096, seed=seed, noise=noise))
        assert np.array_equal(stream.symbols, reference_symbols(trial_words(seed, 4096), noise))


    @settings(max_examples=100, deadline=None)
    @given(name=hst.sampled_from(sorted(EARLY_DECISION_CONFIGS)), data=hst.data())
    def test_decided_trials_ignore_refinement(self, name, data):
        # a trial its screens decide gets the kernel's level from run_trial
        # whatever its refinement words hold; screens are drawn at and
        # beside each threshold as often as anywhere else
        noise = NoiseParams(**EARLY_DECISION_CONFIGS[name][0])
        bounds = protocol._WordBounds.of(noise)

        def screen(bits, *cuts):
            near = sorted({t + d for t in cuts for d in (-1, 0, 1)} & set(range(2**bits)))
            return data.draw(hst.one_of(hst.sampled_from(near), hst.integers(0, 2**bits - 1)))

        s0 = screen(8, bounds.thermal)
        s1 = screen(8, protocol._CAP_SCREEN)
        s3 = screen(16, *bounds.band, protocol._HALF_SCREEN)
        s4 = screen(16, *bounds.decay_10)
        s6 = screen(16, bounds.iq)
        word = s3 << 48 | s4 << 32 | s6 << 16 | s0 << 8 | s1
        levels, exact, iq = protocol._batch_symbols(protocol._lanes(np.array([word], dtype=np.uint64)), bounds)
        edges = hst.sampled_from([0, 2**64 - 1])
        refinement = data.draw(hst.lists(hst.one_of(edges, hst.integers(0, 2**64 - 1)), min_size=3, max_size=3))
        record = run_trial(ProtocolConfig(n_trials=1, seed=0, noise=noise), WordsRandom([word, *refinement]))
        if not exact.size:
            assert record.true_level == levels[0]
            if not iq.size:
                assert record.symbol == levels[0]


class WordStreamSource:
    """A ``_word_stream`` stand-in whose word stream holds the raw words
    ``words``, started at any word."""

    def __init__(self, words):
        self._words = np.array(words, dtype=np.uint64)

    def __call__(self, seed, word):
        return StreamWords(self._words[word:])


class StreamWords:
    """The unread words of one stand-in word stream."""

    def __init__(self, words):
        self._words = words

    def random_raw(self, size=None):
        n = 1 if size is None else size
        assert n <= self._words.size, "drew past the end of a stand-in word stream"
        words, self._words = self._words[:n], self._words[n:]
        return int(words[0]) if size is None else words


class RefinementSource:
    """A ``_refinement`` stand-in whose refinement word r of trial i is
    ``rows[i][r]``, whatever the key."""

    def __init__(self, rows):
        self._rows = np.array(rows, dtype=np.uint64).reshape(-1, 3)

    def __call__(self, key, index, r):
        return self._rows[index, r]


class WordsRandom:
    """A ``TrialRandom`` stand-in that serves the u0-u7 the table cuts from
    one trial's screen and refinement words."""

    def __init__(self, words):
        self._u = np.array([cut(words, k) / 2**32 for k in range(8)])

    def uniforms(self):
        return self._u


def tie_rows(base, k, threshold):
    """Word rows for the 32-bit uniforms ``base``, with uniform k's screen at
    threshold - 1 and at threshold of a screen threshold, its refinement
    bits at 0 and at all ones, and the screen beside it in the screen word
    at 0 and at its top, so a decision that reads a bit outside its screen
    fails."""
    bits = SCREEN_BITS[k]
    beside = {3: 4, 4: 6, 6: 0, 0: 1, 1: 0}[k]  # the screen in the bits below uniform k's (above, for u1)
    rows = []
    for screen in (threshold - 1, threshold):
        for rest in (0, 2 ** (32 - bits) - 1):
            for neighbour in (0, TOP):
                if 0 <= screen < 2**bits:
                    h = list(base)
                    h[k] = screen << (32 - bits) | rest
                    h[beside] = neighbour
                    rows.append(trial_row(h))
    return rows


class TestWordTies:
    """Every screen threshold decides as the uniform test it stands for, also
    at a tie: a row whose deciding screen is T - 1 or T gets the symbol that
    run_trial computes from the same words, whatever the bits below the
    screen hold."""

    @staticmethod
    def config(monkeypatch, rows, **cfg):
        """A config of ``len(rows)`` trials whose screen and refinement words,
        for ``run_batch`` and ``TrialRandom`` alike, are the rows ``rows``:
        trial i reads row i."""
        rows = np.array(rows, dtype=np.uint64)
        monkeypatch.setattr(protocol, "_word_stream", WordStreamSource(rows[:, 0]))
        monkeypatch.setattr(protocol, "_refinement", RefinementSource(rows[:, 1:]))
        return ProtocolConfig(n_trials=len(rows), seed=0, **cfg)

    def batch(self, monkeypatch, rows, **cfg):
        """The symbols ``run_batch`` writes for ``rows``, and those
        ``run_trial(config, TrialRandom(0, i))`` computes from them."""
        config = self.config(monkeypatch, rows, **cfg)
        expected = [int(run_trial(config, TrialRandom(0, i)).symbol) for i in range(len(rows))]
        return run_batch(config)[0].symbols.tolist(), expected

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            dict(gate_amp_error=0.0),
            dict(p_thermal_1=0.3, p_thermal_2=0.3, gate_amp_error=0.2, iq_sigma=0.36),
            # thermal and decay thresholds 0 and 2^32, every IQ screen but the top one early
            dict(p_thermal_1=0.0, p_thermal_2=0.0, p_decay_10=1.0, iq_sigma=5e-324),
            # decay threshold 0, a Born band of every u3 screen
            dict(p_decay_10=0.0, gate_amp_error=0.5),
            # an IQ bound of 6.4 cells, so the cell at the bound reaches past
            # the half gap: 50 sqrt(-2 ln(1 - 7 / 2^16)) = 0.73 > sqrt(2) / 2
            dict(iq_sigma=50.0),
        ],
        ids=["defaults", "gate-0", "wide", "p-0-1", "decay-0-band-all", "iq-cell"],
    )
    def test_noisy_thresholds(self, monkeypatch, kw):
        noise = NoiseParams(**kw)
        bounds = protocol._WordBounds.of(noise)
        lo, hi = bounds.band
        # 32-bit uniforms u0-u7: a ground start, no gate error, u3 = 3/4, no
        # relaxation and no IQ noise is level 1; u3 = 1/4 makes it level 0,
        # and a start in level 2 (u0 = 0, below p_thermal_1 + p_thermal_2) level 2
        level1 = [TOP, 0, 0, 3 << 30, TOP, TOP, 0, 0]
        level0 = level1[:3] + [1 << 30] + level1[4:]
        level2 = [0] + level1[1:]
        # the largest capped radius at gate angle pi puts c^2 above 1/2 and
        # at angle 0 below it, so u3 just outside the band, above or below,
        # is decided by a margin of one cell; past the cap it is not
        rim = (protocol._CAP_SCREEN << 24) - 1
        above = [TOP, rim, 1 << 31, min(hi, 2**16 - 1) << 16, TOP, TOP, 0, 0]
        below = [TOP, rim, 0, (max(lo, 1) << 16) - 1, TOP, TOP, 0, 0]
        # a gate error of 1 (radius 2, 1e-9 above, at angle 0) turns the
        # rotation by pi, so c^2 is about 1e-18 and a u3 anywhere in cell 0
        # but its first value is level 1
        flipped = [TOP, math.ceil(-math.expm1(-2.0) * 2**32), 0, 0, TOP, TOP, 0, 0]
        cases = {
            "thermal": tie_rows(level1, 0, bounds.thermal),
            "radius-cap": tie_rows(above, 1, protocol._CAP_SCREEN) + tie_rows(below, 1, protocol._CAP_SCREEN),
            "band-lo": tie_rows(level1, 3, lo) + tie_rows(below, 3, lo) + tie_rows(flipped, 3, lo),
            "half": tie_rows(level1, 3, protocol._HALF_SCREEN),
            "band-hi": tie_rows(level1, 3, hi) + tie_rows(above, 3, hi),
            "decay_10-lo": tie_rows(level1, 4, bounds.decay_10[0]),
            "decay_10-hi": tie_rows(level1, 4, bounds.decay_10[1]),
        }
        # IQ noise at angle 0 and toward each other centre of the defaults
        for level, base in enumerate((level0, level1, level2)):
            cases[f"iq-{level}"] = [
                row for eighth in (0, 1, 3, 5, 7) for row in tie_rows(base[:7] + [eighth << 29], 6, bounds.iq)
            ]
        if noise.p_thermal_1 + noise.p_thermal_2:  # with no thermal start there is no level-2 row
            cfg = self.config(monkeypatch, [trial_row(h) for h in (level0, level1, level2)], noise=noise)
            assert [run_trial(cfg, TrialRandom(0, i)).true_level for i in range(3)] == [0, 1, 2]
        for name, rows in cases.items():
            assert rows, name
            symbols, expected = self.batch(monkeypatch, rows, noise=noise)
            assert symbols == expected, name

    def test_top_without_rotation(self, monkeypatch):
        # a gate error of -1 turns the rotation off, so a ground start stays
        # level 0 even at the largest u3, 1 - 2^-32: its p2 is 0, so it is
        # never drawn as level 2, and its p0 is 1
        noise = NoiseParams(gate_amp_error=0.5)
        radius_2 = math.ceil(-math.expm1(-2.0) * 2**32)  # Box-Muller radius 2 (1e-9 above)
        row = trial_row([TOP, radius_2, 1 << 31, TOP, TOP, TOP, 0, 0])  # cos(2 pi u2) = -1
        assert self.batch(monkeypatch, [row], noise=noise) == ([0], [0])

    def test_chunk_without_undecided_rows(self, monkeypatch):
        # a ground start, no gate error, u3 = 3/4, no relaxation and no IQ
        # noise is decided on its screens, so its chunk computes no
        # refinement word and resolves no row
        def fail(*args):
            raise AssertionError("a refinement word, exact or IQ step ran on a chunk with no undecided row")

        cfg = self.config(monkeypatch, [trial_row([TOP, 0, 0, 3 << 30, TOP, TOP, 0, 0])])
        for name in ("_refinement", "_born_levels", "synth_iq"):
            monkeypatch.setattr(protocol, name, fail)
        assert run_batch(cfg)[0].symbols.tolist() == [1]

    def test_ideal_bit_order(self, monkeypatch):
        # the word stream holds the top bit of word 0 and the bottom bit of word 1,
        # so trials 63 and 64 alone are 1; a most-significant-first order or
        # an off-by-one word would set others
        monkeypatch.setattr(protocol, "_word_stream", WordStreamSource([1 << 63, 1, 0]))
        cfg = ProtocolConfig(n_trials=192, seed=0, ideal=True)
        expected = [int(i in (63, 64)) for i in range(192)]
        assert run_batch(cfg)[0].symbols.tolist() == expected
        assert [run_trial(cfg, TrialRandom(0, i)).symbol for i in range(192)] == expected

    @pytest.mark.parametrize(
        "unitary",
        [
            lambda: rotation("01", np.pi / 3.0),  # triple (3/4, 1/4, 0)
            lambda: rotation("01", np.pi / 2.0 + 1e-13) @ rotation("12", np.pi / 2.0 + 1e-13),  # 5e-14 off
            lambda: Unitary3(np.eye(3)[[0, 2, 1]]) @ measurement_unitary(),  # triple (1/2, 0, 1/2)
        ],
        ids=["third", "near", "discard"],
    )
    def test_ideal_rejects_unfair_unitary(self, monkeypatch, unitary):
        # an ideal trial is a fair bit only for the triple (1/2, 1/2, 0); a
        # changed measurement unitary must stop the run, not become a coin
        monkeypatch.setattr(protocol, "measurement_unitary", unitary)
        cfg = ProtocolConfig(n_trials=64, seed=0, ideal=True)
        with pytest.raises(ValidationError, match="not a fair bit"):
            run_trial(cfg, TrialRandom(0, 0))
        with pytest.raises(ValidationError, match="not a fair bit"):
            run_batch(cfg)


class TestSummary:
    def test_frequencies_and_errors(self):
        stream = RawStream(np.array([0] * 60 + [1] * 39 + [2], dtype=np.uint8))
        s = protocol.BatchSummary.of(stream, n_trials=len(stream), seed=0, ideal=False)
        assert (s.n_trials, s.n0, s.n1, s.n_discard) == (100, 60, 39, 1)
        assert s.p0 == 60 / 99
        assert s.p1 == 39 / 99
        assert s.p_discard == 0.01
        assert s.p0_stderr == s.p1_stderr == pytest.approx(np.sqrt(s.p0 * s.p1 / 99))
        assert s.p_discard_stderr == pytest.approx(np.sqrt(0.01 * 0.99 / 100))

    def test_discards_only(self):
        s = Outcomes.of(RawStream([2, 2]))
        assert (s.n0, s.n1, s.n_discard) == (0, 0, 2)
        assert all(math.isnan(v) for v in (s.p0, s.p1, s.p0_stderr, s.p1_stderr))
        assert (s.p_discard, s.p_discard_stderr) == (1.0, 0.0)

    def test_empty_trace(self):
        s = Outcomes.of(RawStream([]))
        assert (s.n0, s.n1, s.n_discard) == (0, 0, 0)
        assert all(math.isnan(v) for v in (s.p0, s.p1, s.p_discard, s.p0_stderr, s.p1_stderr, s.p_discard_stderr))
