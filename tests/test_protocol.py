import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ksqrng import protocol
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

    def test_tallies_allocate_at_most_one_byte_per_trial(self):
        # one bool temporary for the discards; ones need none
        n = 1 << 20
        symbols = (np.arange(n) % 3).astype(np.uint8)
        tracemalloc.start()
        try:
            stream = RawStream(symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stream.n0, stream.n1, stream.n_discard) == (349526, 349525, 349525)
        assert peak <= n + (1 << 12)

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
        values = np.zeros(4, dtype=np.uint8)
        stream = stream_type(values)
        assert (stream.symbols if stream_type is RawStream else stream.bits) is values


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
        assert np.array_equal(TrialRandom(np.int64(5), np.int64(3)).random(8), TrialRandom(5, 3).random(8))


def spawned_column(seed, j):
    """Column stream ``j`` of ``seed`` built through ``SeedSequence.spawn``,
    a second path to the seeding of ``protocol._column_stream``."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(4)[j])


# the half-word table: uniform k of a noisy trial is half LAYOUT[k][1] (0 high,
# 1 low) of the trial's word in column LAYOUT[k][0]
LAYOUT = ((1, 1), (0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1))
TOP_HALF = 2**32 - 1


def halves(word):
    """The two uniforms of a 64-bit word, high half first, in Python
    arithmetic."""
    return (word >> 32) / 2**32, (word & TOP_HALF) / 2**32


def layout_uniforms(seed, trial):
    """u0-u7 of noisy trial ``trial``: the halves of word ``trial`` of the
    four spawned columns, in the table's order."""
    words = [int(spawned_column(seed, j).advance(trial).random_raw()) for j in range(4)]
    return [halves(words[j])[h] for j, h in LAYOUT]


class TestTrialRandom:
    def test_budget_exhaustion(self):
        rng = TrialRandom(1, 0)
        rng.random(8)
        with pytest.raises(ValidationError):
            rng.random()

    def test_negative_size_leaves_budget(self):
        rng = TrialRandom(77, 1)
        with pytest.raises(ValidationError):
            rng.random(-3)
        with pytest.raises(ValidationError):
            rng.random(9)
        assert np.array_equal(rng.random(8), TrialRandom(77, 1).random(8))
        with pytest.raises(ValidationError):
            rng.random()

    @pytest.mark.parametrize("size", [2.5, np.float64(2.0), "2"], ids=["float", "float64", "str"])
    def test_non_integer_size_leaves_budget(self, size):
        rng = TrialRandom(0, 0)
        with pytest.raises(ValidationError):
            rng.random(size)
        assert np.array_equal(rng.random(np.int64(8)), TrialRandom(0, 0).random(8))

    def test_zero_size_draws_nothing(self):
        rng = TrialRandom(77, 2)
        assert rng.random(0).size == 0
        assert np.array_equal(rng.random(8), TrialRandom(77, 2).random(8))
        assert rng.random(0).size == 0

    def test_matches_contiguous_stream(self):
        # column word j of trial i is word i of column stream j, a contiguous
        # PCG64DXSM stream spawned from the seed, cut into the table's halves
        columns = [spawned_column(77, j).random_raw(9).tolist() for j in range(4)]
        for i in range(9):
            expected = [halves(columns[j][i])[h] for j, h in LAYOUT]
            assert TrialRandom(77, i).random(8).tolist() == expected

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
    def test_matches_philox_counter(self, offset, seed, block):
        # trial i = 4 * block + offset reads word i of each spawned column j,
        # the word at counter position advance(i), and serves u0-u7 in the
        # half-word table's order however the eight are split between two
        # calls. The name and the four offsets date from Philox columns, whose
        # 4-word blocks put each trial at position i % 4; PCG64DXSM has no
        # blocks, and the offsets keep every residue of i mod 4 covered.
        trial = 4 * block + offset
        expected = layout_uniforms(seed, trial)
        for k in range(9):
            rng = TrialRandom(seed, trial)
            head = [rng.random()] if k == 1 else rng.random(k).tolist()
            assert all(type(u) is float for u in head)
            assert head + rng.random(8 - k).tolist() == expected, k

    def test_last_trial_of_a_column(self):
        # a column stream is 2^128 words long, the period of PCG64DXSM:
        # word 2^128 would be word 0 again
        last = 2**128 - 1
        assert TrialRandom(3, last).random(8).tolist() == layout_uniforms(3, last)
        for j in (0, 3):
            assert spawned_column(3, j).advance(last).random_raw(2)[1] == spawned_column(3, j).random_raw()
        with pytest.raises(ValidationError, match="below 2\\^128"):
            TrialRandom(3, last + 1)

    def test_interleaved_sources_draw_their_own_words(self):
        a, b = TrialRandom(9, 5), TrialRandom(10, 6)
        drawn = {id(a): [], id(b): []}
        for rng in (a, b, b, a, a, b, a, b, b, a, b, a, a, b, a, b):
            drawn[id(rng)].append(rng.random())
        assert drawn[id(a)] == TrialRandom(9, 5).random(8).tolist()
        assert drawn[id(b)] == TrialRandom(10, 6).random(8).tolist()

    def test_bit_and_random_share_budget(self):
        # an ideal trial reads its bit, a noisy trial its uniforms; the bit
        # spends the whole budget, and a refused call leaves it as it was
        rng = TrialRandom(5, 70)
        bit = rng.bit()
        with pytest.raises(ValidationError):
            rng.random()
        with pytest.raises(ValidationError):
            rng.bit()
        rng = TrialRandom(5, 70)
        rng.random(1)
        with pytest.raises(ValidationError):
            rng.bit()
        assert np.array_equal(rng.random(7), TrialRandom(5, 70).random(8)[1:])
        rng = TrialRandom(5, 70)
        assert rng.random(0).size == 0
        assert rng.bit() == bit

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("trial", [2**64 + 5, 2**128 - 1], ids=["2^64+5", "2^128-1"])
    def test_bit_at_large_trial_index(self, seed, trial):
        # the 64 trials of the word that holds ``trial`` are its bits, least
        # significant first, read from the spawned column 0 advanced to it
        word = int(spawned_column(seed, 0).advance(trial // 64).random_raw())
        base = trial - trial % 64
        bit = TrialRandom(seed, trial).bit()
        assert type(bit) is int and bit == (word >> (trial % 64)) & 1
        assert sum(TrialRandom(seed, base + k).bit() << k for k in range(64)) == word

    @pytest.mark.parametrize("trial", [1, 3, (1 << 14) - 1, 1 << 14, 3 * (1 << 14) + 5])
    def test_stream_started_mid_column_continues_it(self, trial):
        # a run_batch thread starts its column streams at its first trial;
        # the words must be those a stream from trial 0 reaches there
        for column in (0, 3):
            whole = protocol._column_stream(2**64 - 1, column, 0).random_raw(trial + 9)
            assert np.array_equal(protocol._column_stream(2**64 - 1, column, trial).random_raw(9), whole[trial:])

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 2])
    def test_columns_are_distinct(self, seed):
        # a spawn-key mix-up would alias two columns of a seed, or a column
        # of the seed with one of the next seed
        heads = {
            protocol._column_stream(s, j, 0).random_raw(1 << 10).tobytes() for s in (seed, seed + 1) for j in range(4)
        }
        assert len(heads) == 8


def edge_words(threshold):
    """The raw words one word and one uniform step (2^32 words) either side
    of a word threshold, and the extreme words."""
    near = {threshold + d for d in (-(2**32) - 1, -(2**32), -1, 0, 1, 2**32 - 1, 2**32)} | {0, 2**64 - 1}
    return np.array(sorted(w for w in near if 0 <= w < 2**64), dtype=np.uint64)


def decides(words, threshold, p):
    """Whether ``threshold`` decides each half of ``words`` as its uniform
    against ``p``: w < T for the high half, w << 32 < T for the low half."""
    high, low = zip(*(halves(int(w)) for w in words))
    return np.array_equal(words < threshold, np.array(high) < p) and np.array_equal(
        (words << 32) < threshold, np.array(low) < p
    )


class TestRawWords:
    """run_batch draws raw PCG64DXSM words and compares them with per-run
    thresholds; each must decide as the uniform TrialRandom serves."""

    @pytest.mark.parametrize("trial", [0, 1, 12_345, (1 << 14) - 3])
    def test_uniforms_match_generator(self, trial):
        # the kernel's uniforms of each column, drawn in consecutive chunks,
        # are the halves the layout oracle serves for every trial of them
        expected = [layout_uniforms(2718, trial + k) for k in range(12)]
        for j in range(4):
            bg = spawned_column(2718, j).advance(trial)
            raw = np.concatenate([bg.random_raw(5), bg.random_raw(7)])  # consecutive draws, as chunks are
            for half, u in enumerate(protocol._uniforms(raw)):
                k = LAYOUT.index((j, half))
                assert u.tolist() == [row[k] for row in expected], (j, half)

    def test_extreme_words(self):
        high, low = protocol._uniforms(np.array([0, 2**64 - 1, TOP_HALF, 2**32], dtype=np.uint64))
        assert high.tolist() == [0.0, 1.0 - 2.0**-32, 0.0, 2.0**-32]
        assert low.tolist() == [0.0, 1.0 - 2.0**-32, 1.0 - 2.0**-32, 0.0]

    @pytest.mark.parametrize(
        "p",
        [0.0, 1.0, 0.5, 3 * 2.0**-53, 1.0 - 2.0**-53, 5e-324, 0.072, 0.0016 + 0.0002, 0.5 + 0.499]
        + [3 * 2.0**-32, 1.0 - 2.0**-32, 3 * 2.0**-32 + 2.0**-53],
        ids=["0", "1", "half", "grid", "below-1", "subnormal", "decay", "thermal-sum", "thermal-0.999"]
        + ["grid-32", "below-1-32", "off-grid-32"],
    )
    def test_word_threshold_is_exact(self, p):
        t = protocol._word_threshold(p)
        assert t % 2**32 == 0 and 0 <= t <= 2**64
        assert decides(edge_words(t), t, p)

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
        # exact: thermal excitation (u0, a low half) and 1 -> 0 relaxation (u4, a high half)
        for t, p in ((bounds.thermal, noise.p_thermal_1 + noise.p_thermal_2), (bounds.decay_10, noise.p_decay_10)):
            assert decides(edge_words(t), t, p)
        # early decisions: a word below the IQ bound is classified as its
        # level, for every level and every noise angle
        angles = np.linspace(0.0, 1.0 - 2.0**-32, 65)
        assert type(bounds.iq) is int
        words = edge_words(bounds.iq)
        u = protocol._uniforms(words[words < bounds.iq])[0][:, None]
        for level in range(3):
            assert np.all(classify(*synth_iq(level, u, angles, noise), noise) == level)
        lo, hi = bounds.band
        cap = protocol._uniforms(np.uint64(protocol._RADIUS_CAP_WORD))[0]
        band = (protocol._BORN_SLOPE * noise.gate_amp_error) * _radius(cap) + protocol._ABS_MARGIN
        words = np.concatenate([edge_words(lo), edge_words(hi)])
        u = protocol._uniforms(words[(words < lo) | (words >= hi)])[0]
        assert np.all(np.abs(u - 0.5) > band)
        assert all(t % 2**32 == 0 for t in (bounds.thermal, bounds.decay_10, lo, hi, bounds.iq))


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
        # runs holds exact-tier and IQ-tier rows (19 and 134 at least)
        [{}, dict(noise=NoiseParams(iq_sigma=0.36, p_decay_10=0.4)), dict(ideal=True)],
        ids=["noisy", "wide", "ideal"],
    )
    @pytest.mark.parametrize("n", [1, (1 << 14) - 1, (1 << 14) + 1, 70_001])
    def test_chunk_size_invariance(self, monkeypatch, n, kw):
        # undecided rows are resolved once per block of _BLOCK chunks within
        # a thread's trials, so blocks of 1, 3 and more chunks than the run
        # has put block edges at chunk edges, between them and past the end
        cfg = ProtocolConfig(n_trials=n, seed=41, **kw)
        reference = None
        for chunk in (1 << 10, 1 << 14, 1 << 18):
            monkeypatch.setattr(protocol, "_CHUNK", chunk)
            for block in (1, 3, 1 << 10):
                monkeypatch.setattr(protocol, "_BLOCK", block)
                for workers in (1, 2, 3):
                    symbols = run_batch(cfg, workers=workers)[0].symbols
                    if reference is None:
                        reference = symbols
                    assert np.array_equal(symbols, reference), (chunk, block, workers)
            edges = {0, n - 1}
            for boundary in range(chunk, n, chunk):
                edges |= {boundary - 1, boundary}
            for i in sorted(edges):
                assert int(run_trial(cfg, TrialRandom(41, i)).symbol) == reference[i], (chunk, i)

    @pytest.mark.parametrize(
        "ideal, digest",
        [
            (False, "029274948894ad04db86235433146d0997aa94b8ed19e0048a7985de9c5860b4"),
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
        chunk=hst.sampled_from([1, 63, 65, 16383]),
        workers=hst.integers(1, 3),
        data=hst.data(),
    )
    def test_ideal_layout_matches_bit_oracle(self, seed, chunk, workers, data):
        # ideal trial i is bit i % 64, least significant first, of word
        # i // 64 of column 0; at these chunk sizes a chunk, and a thread,
        # can start inside a word
        n = data.draw(hst.integers(1, 3 * chunk + 129), label="n_trials")
        cfg = ProtocolConfig(n_trials=n, seed=seed, ideal=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_CHUNK", chunk)
            symbols = run_batch(cfg, workers=workers)[0].symbols.tolist()
        words = [int(protocol._column_stream(seed, 0, k).random_raw()) for k in range(-(-n // 64))]
        assert symbols == [(words[i // 64] >> (i % 64)) & 1 for i in range(n)]
        # run_trial at every chunk edge, the first words' trials and a sample
        checked = set(range(min(n, 130))) | {n - 1} | {i for lo in range(chunk, n, chunk) for i in (lo - 1, lo)}
        checked |= set(data.draw(hst.lists(hst.integers(0, n - 1), max_size=16), label="sampled"))
        for i in sorted(checked):
            assert run_trial(cfg, TrialRandom(seed, i)).symbol == symbols[i], i

    def test_threads_capped_at_chunk_count(self, monkeypatch):
        requested = []

        class RecordingPool(SerialPool):
            def __init__(self, max_workers):
                requested.append(max_workers)

        monkeypatch.setattr(protocol, "_CHUNK", 1 << 10)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
        cfg = ProtocolConfig(n_trials=3 * (1 << 10) - 5, seed=42)  # 3 chunks
        wide, _ = run_batch(cfg, workers=64)
        assert requested == [3]
        serial, _ = run_batch(cfg, workers=1)
        assert requested == [3]
        assert wide == serial

    def test_generation_holds_one_chunk_of_words_per_thread(self):
        # 1 B/trial of output and 1 B/trial of RawStream tallies, plus one
        # chunk of raw words per thread and its temporaries; a chunk's words
        # kept alive across the next draw would add a chunk per thread
        n = 1 << 18
        cfg = ProtocolConfig(n_trials=n, seed=61)
        run_batch(cfg, workers=2)
        tracemalloc.start()
        try:
            run_batch(cfg, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = protocol._CHUNK * protocol._COLUMNS * 8  # one word of each column per trial
        temporaries = 2 * protocol._CHUNK * 8  # two 8-byte temporaries per trial of a chunk
        assert peak <= 2 * n + 2 * (chunk_bytes + temporaries)

    def test_held_rows_bounded_per_block(self, monkeypatch):
        # p_thermal_1 = 0.5 sends half the trials to the exact tier, and at
        # gate_amp_error 0.5 the Born band holds [0, 1], so every row is
        # held until its block is resolved. The threads run one after the
        # other, so the peak is one thread's block: doubling n (from one
        # block per thread to two) adds only the output and the RawStream
        # tallies, 2 B/trial, not the held rows or their float temporaries
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", SerialPool)
        noise = NoiseParams(p_thermal_1=0.5, gate_amp_error=0.5)
        n = 2 * protocol._BLOCK * protocol._CHUNK
        peaks = []
        run_batch(ProtocolConfig(n_trials=n, seed=63, noise=noise), workers=2)
        for trials in (n, 2 * n):
            tracemalloc.start()
            try:
                run_batch(ProtocolConfig(n_trials=trials, seed=63, noise=noise), workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes = protocol._CHUNK * protocol._COLUMNS * 8  # one word of each column per trial
        assert peaks[0] > protocol._BLOCK * chunk_bytes * 3 // 4  # a block's columns 0-2 were held
        assert peaks[1] - peaks[0] <= 2 * n + chunk_bytes // 4


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
    """The uniforms u0-u7 of trials [0, n), one row per uniform, cut from the
    words of the spawned columns in the half-word table's places."""
    words = [spawned_column(seed, j).random_raw(n) for j in range(4)]
    cut = [((w >> 32) * 2.0**-32, (w & TOP_HALF) * 2.0**-32) for w in words]
    return np.stack([cut[j][h] for j, h in LAYOUT])


# noise model keywords, and the SHA-256 of the 2^16 symbols run_batch writes for them at seed 52
EARLY_DECISION_CONFIGS = {
    "defaults": ({}, "ecb29edd2302ba694d56ac4316db5ebdf324de7d545a231554e9d2266ba296a8"),
    "sigma-0.12": (dict(iq_sigma=0.12), "60d87f0cf03581592e0598d0173a7ee1f59db8c32f37bc11921477fec09dc38d"),
    "sigma-0.36": (dict(iq_sigma=0.36), "3682516c338617b664c8f3c68fca13e6286589ef1bc38551125e661ac1413765"),
    "sigma-1": (dict(iq_sigma=1.0), "944a87b47128afe3a23808345ff0bf782f5b0061cfd489a0790e0944132b17c1"),
    "gate-0": (dict(gate_amp_error=0.0), "b9cf6a693215e6dfbb77387d1d283de7dfe314eb6af0605499cb006d17ff8abd"),
    "gate-0.2": (dict(gate_amp_error=0.2), "6d89fc3cc10ce54ebc7bb14cbf138fec9c2e156e60a4be8b36bf014b85b10ac9"),
    "thermal-0.3": (
        dict(p_thermal_1=0.3, p_thermal_2=0.3),
        "98539eae49f6ec859453eba88e43aca1b96ee43fd80cf662af6c6b6976ad3f6a",
    ),
    # the edges of the float64 domain NoiseParams accepts
    "coord-ceiling": (
        dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e99),
        "60d87f0cf03581592e0598d0173a7ee1f59db8c32f37bc11921477fec09dc38d",
    ),
    "sigma-ceiling": (dict(iq_sigma=1e100), "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31"),
    "gate-ceiling": (dict(gate_amp_error=1e100), "4c9300f3ac714585978558e8d2ba6e5d801fc170c64937540ed6ffa76aed1311"),
    "all-ceilings": (
        dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e100, gate_amp_error=1e100),
        "be4fb7d2e42f2a2156cc99e43dabc400d0af210297ba55296835d5f493711004",
    ),
    # half gaps of exactly 1e-100, and of exactly 1e-6 max|coord|
    "gap-floor": (
        dict(iq_centers=((1e-100, 0.0), (-1e-100, 0.0), (0.0, 1e-99)), iq_sigma=3e-101),
        "fb56e80d067a6a5e89ebe0041e26be86eb96fbfc12cd7da01f2e36cc34759f94",
    ),
    "gap-per-coord": (
        dict(iq_centers=((1e6, 0.0), (1e6 - 2.0, 0.0), (-1e6, 0.0)), iq_sigma=0.3),
        "fb56e80d067a6a5e89ebe0041e26be86eb96fbfc12cd7da01f2e36cc34759f94",
    ),
    # the ends of each word threshold in run_batch
    "decay10-0": (dict(p_decay_10=0.0), "881c9d5ce23c9f2fde0c2ccfc44a1aab47d3b72b5605a3a5082022af05345033"),
    "decay10-1": (dict(p_decay_10=1.0), "fe283c0309b7a2aba11bba09e8daee905060ff4169a8331a33dc1466b5ea206b"),
    "decay21-1": (
        dict(p_decay_21=1.0, p_thermal_1=0.3, p_thermal_2=0.3),
        "ba175d1ba0b02ff505fece8b1b0e78c8d9e077a10b0d9d3ec187e70c383581f4",
    ),
    "thermal-0.999": (
        dict(p_thermal_1=0.5, p_thermal_2=0.499),
        "e72f0a5e94b4e9328032a093ecce9056d6d5017757968ed48fc842d712e55f03",
    ),
    # the Born band at the radius cap holds [0, 1]
    "band-covers-all": (dict(gate_amp_error=0.5), "42d0208870abce59c285af4080763c786106015bf52d0cb629520ba71163b540"),
    # R / sigma overflows, so every level's bound is 1
    "iq-bound-1": (dict(iq_sigma=5e-324), "60d87f0cf03581592e0598d0173a7ee1f59db8c32f37bc11921477fec09dc38d"),
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


class ColumnSource:
    """A ``_column_stream`` stand-in whose column stream j holds the raw
    words ``columns[j]``, started at any trial."""

    def __init__(self, columns):
        self._columns = np.array(columns, dtype=np.uint64)

    def __call__(self, seed, column, trial):
        return ColumnWords(self._columns[column][trial:])


class ColumnWords:
    """The unread words of one stand-in column stream."""

    def __init__(self, words):
        self._words = words

    def random_raw(self, size=None):
        n = 1 if size is None else size
        assert n <= self._words.size, "drew past the end of a stand-in column"
        words, self._words = self._words[:n], self._words[n:]
        return int(words[0]) if size is None else words


def layout_row(halves):
    """The four column words that hold the 32-bit halves of u0-u7 in the
    half-word table's places."""
    words = [0, 0, 0, 0]
    for (j, h), half in zip(LAYOUT, halves):
        words[j] |= half << (32 * (1 - h))
    return words


def tie_rows(base, k, threshold):
    """Rows of column words for the halves ``base`` of u0-u7, with uniform k
    at the halves threshold - 1 and threshold of a word threshold, and the
    other half of its word at 0 and at 2^32 - 1."""
    assert threshold % 2**32 == 0
    column = LAYOUT[k][0]
    partner = next(m for m in range(8) if m != k and LAYOUT[m][0] == column)
    rows = []
    for h in ((threshold >> 32) - 1, threshold >> 32):
        for other in (0, TOP_HALF):
            if 0 <= h < 2**32:
                halves = list(base)
                halves[k], halves[partner] = h, other
                rows.append(layout_row(halves))
    return rows


class TestWordTies:
    """Every word threshold decides as the uniform test it stands for, also
    at a tie: a row whose deciding half is T - 1 or T gets the symbol that
    run_trial computes from the same words, whatever the other half of the
    word holds."""

    @staticmethod
    def config(monkeypatch, rows, **cfg):
        """A config of ``len(rows)`` trials whose column streams, for
        ``run_batch`` and ``TrialRandom`` alike, hold the raw word rows
        ``rows``: trial i reads row i."""
        monkeypatch.setattr(protocol, "_column_stream", ColumnSource(np.array(rows, dtype=np.uint64).T))
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
            # thermal and decay thresholds 0 and 2^64, every IQ word but the top one early
            dict(p_thermal_1=0.0, p_thermal_2=0.0, p_decay_10=1.0, iq_sigma=5e-324),
            # decay threshold 0, a Born band of [0, 2^64)
            dict(p_decay_10=0.0, gate_amp_error=0.5),
        ],
        ids=["defaults", "gate-0", "wide", "p-0-1", "decay-0-band-all"],
    )
    def test_noisy_thresholds(self, monkeypatch, kw):
        noise = NoiseParams(**kw)
        bounds = protocol._WordBounds.of(noise)
        lo, hi = bounds.band
        # halves of u0-u7: a ground start, no gate error, u3 = 3/4, no
        # relaxation and no IQ noise is level 1; u3 = 1/4 makes it level 0,
        # and a start in level 2 (u0 just below p_thermal_1 + p_thermal_2) level 2
        level1 = [TOP_HALF, 0, 0, 3 << 30, TOP_HALF, TOP_HALF, 0, 0]
        level0 = level1[:3] + [1 << 30] + level1[4:]
        level2 = [max((bounds.thermal >> 32) - 1, 0)] + level1[1:]
        cases = {
            "thermal": tie_rows(level1, 0, bounds.thermal),
            "radius-cap": tie_rows(level1, 1, protocol._RADIUS_CAP_WORD),
            "band-lo": tie_rows(level1, 3, lo),
            "half": tie_rows(level1, 3, protocol._HALF_WORD),
            "band-hi": tie_rows(level1, 3, hi),
            "decay_10": tie_rows(level1, 4, bounds.decay_10),
        }
        for level, base in enumerate((level0, level1, level2)):
            cases[f"iq-{level}"] = tie_rows(base, 6, bounds.iq)
        if bounds.thermal:  # with no thermal start there is no level-2 row
            cfg = self.config(monkeypatch, [layout_row(h) for h in (level0, level1, level2)], noise=noise)
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
        radius_2 = protocol._word_threshold(-math.expm1(-2.0)) >> 32  # Box-Muller radius 2 (1e-9 above)
        row = layout_row([TOP_HALF, radius_2, 1 << 31, TOP_HALF, TOP_HALF, TOP_HALF, 0, 0])  # cos(2 pi u2) = -1
        assert self.batch(monkeypatch, [row], noise=noise) == ([0], [0])

    def test_block_without_undecided_rows(self, monkeypatch):
        # a ground start, no gate error, u3 = 3/4, no relaxation and no IQ
        # noise is decided on its words, so its block resolves no row
        def fail(*args):
            raise AssertionError("an exact or IQ step ran on a block with no undecided row")

        monkeypatch.setattr(protocol, "_born_levels", fail)
        monkeypatch.setattr(protocol, "synth_iq", fail)
        cfg = self.config(monkeypatch, [layout_row([TOP_HALF, 0, 0, 3 << 30, TOP_HALF, TOP_HALF, 0, 0])])
        assert run_batch(cfg)[0].symbols.tolist() == [1]

    def test_ideal_bit_order(self, monkeypatch):
        # column 0 holds the top bit of word 0 and the bottom bit of word 1,
        # so trials 63 and 64 alone are 1; a most-significant-first order or
        # an off-by-one word would set others
        monkeypatch.setattr(protocol, "_column_stream", ColumnSource([[1 << 63, 1, 0]]))
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
        s = protocol.BatchSummary.of(stream, n_trials=len(stream))
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
