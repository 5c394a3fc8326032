import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ksqrng import protocol
from ksqrng.bits import BitStream
from ksqrng.errors import ValidationError
from ksqrng.protocol import (
    ProtocolConfig,
    RawStream,
    Symbol,
    TrialRandom,
    encode_symbol,
    run_batch,
    run_trial,
)
from ksqrng.qutrit import QutritState, born_probabilities, measurement_unitary, sx_eigenbasis
from ksqrng.readout import (
    NoiseParams,
    ReadoutLevel,
    _radius,
    _sample_levels,
    apply_relaxation,
    classify,
    decision_radii,
    gate_error,
    synth_iq,
    thermal_init,
)


class TestEncodeSymbol:
    def test_fixed_map(self):
        assert encode_symbol(ReadoutLevel.L0) is Symbol.ZERO
        assert encode_symbol(ReadoutLevel.L1) is Symbol.ONE
        assert encode_symbol(ReadoutLevel.L2) is Symbol.DISCARD


class TestRawStream:
    def test_counts_match_tallies(self):
        symbols = np.array([0, 1, 2, 0, 0, 1], dtype=np.uint8)
        stream = RawStream(symbols)
        assert (stream.n0, stream.n1, stream.n_discard) == (3, 2, 1)
        assert stream.n0 + stream.n1 + stream.n_discard == len(stream)

    def test_rejects_undefined_symbols(self):
        with pytest.raises(ValidationError):
            RawStream(np.array([0, 3], dtype=np.uint8))

    def test_tallies_allocate_at_most_two_bytes_per_trial(self):
        n = 1 << 20
        symbols = (np.arange(n) % 3).astype(np.uint8)
        tracemalloc.start()
        try:
            stream = RawStream(symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stream.n0, stream.n1, stream.n_discard) == (349526, 349525, 349525)
        assert peak <= 2 * n


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

    def test_matches_contiguous_stream(self):
        full = np.random.Generator(np.random.Philox(key=77)).random(40)
        for i in range(5):
            words = TrialRandom(77, i).random(8)
            assert np.array_equal(words, full[8 * i : 8 * i + 8])


def edge_words(threshold):
    """The raw words one word and one uniform step (2^11 words) either side
    of a word threshold, and the extreme words."""
    near = {threshold + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)} | {0, 2**64 - 1}
    return np.array(sorted(w for w in near if 0 <= w < 2**64), dtype=np.uint64)


class TestRawWords:
    """run_batch draws raw Philox words and compares them with per-run
    thresholds; each must decide as the uniform Generator.random gives."""

    @pytest.mark.parametrize("trial", [0, 1, 12_345, (1 << 14) - 3])
    def test_uniforms_match_generator(self, trial):
        def philox():
            bg = np.random.Philox(key=2718)
            bg.advance(protocol._BLOCKS_PER_TRIAL * trial)
            return bg

        bg = philox()
        raw = np.concatenate([bg.random_raw(8 * 5), bg.random_raw(8 * 7)])  # consecutive draws, as chunks are
        expected = np.random.Generator(philox()).random(8 * 12)
        assert np.array_equal(protocol._uniforms(raw).view(np.uint64), expected.view(np.uint64))

    def test_extreme_words(self):
        u = protocol._uniforms(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert u.tolist() == [0.0, 1.0 - 2.0**-53]

    @pytest.mark.parametrize(
        "p",
        [0.0, 1.0, 0.5, 3 * 2.0**-53, 1.0 - 2.0**-53, 5e-324, 0.072, 0.0016 + 0.0002, 0.5 + 0.499],
        ids=["0", "1", "half", "grid", "below-1", "subnormal", "decay", "thermal-sum", "thermal-0.999"],
    )
    def test_word_threshold_is_exact(self, p):
        t = protocol._word_threshold(p)
        words = edge_words(t)
        assert np.array_equal(words < t, protocol._uniforms(words) < p)

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
        # exact: thermal excitation and 1 -> 0 relaxation
        for t, p in ((bounds.thermal, noise.p_thermal_1 + noise.p_thermal_2), (bounds.decay_10, noise.p_decay_10)):
            words = edge_words(t)
            assert np.array_equal(words < t, protocol._uniforms(words) < p)
        # early decisions: every word decided early fails the float test for the exact path
        for level, t in enumerate(bounds.iq.tolist()):
            words = edge_words(t)
            u = protocol._uniforms(words[words < t])
            assert np.all(noise.iq_sigma * _radius(u) < decision_radii(noise)[level])
        lo, hi = bounds.band
        cap = protocol._uniforms(np.uint64(protocol._RADIUS_CAP_WORD - 1))
        band = (protocol._BORN_SLOPE * noise.gate_amp_error) * _radius(cap) + protocol._ABS_MARGIN
        words = np.concatenate([edge_words(lo), edge_words(hi)])
        u = protocol._uniforms(words[(words < lo) | ((words >= hi) & (words < bounds.top))])
        assert np.all((np.abs(u - 0.5) > band) & (u <= 1.0 - protocol._ABS_MARGIN))


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
        assert rec.iq is None
        assert rec.classified_level == rec.true_level
        assert rec.symbol == encode_symbol(rec.classified_level)


class TestNoisyMode:
    def test_run_trial_symbol_consistency(self):
        cfg = ProtocolConfig(n_trials=1, seed=5)
        for i in range(200):
            rec = run_trial(cfg, TrialRandom(5, i))
            assert rec.symbol == encode_symbol(rec.classified_level)
            assert rec.iq is not None

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


class TestChunking:
    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    @pytest.mark.parametrize("n", [1, (1 << 14) - 1, (1 << 14) + 1, 70_001])
    def test_chunk_size_invariance(self, monkeypatch, n, ideal):
        cfg = ProtocolConfig(n_trials=n, seed=41, ideal=ideal)
        reference = None
        for chunk in (1 << 10, 1 << 14, 1 << 18):
            monkeypatch.setattr(protocol, "_CHUNK", chunk)
            for workers in (1, 2, 3):
                symbols = run_batch(cfg, workers=workers)[0].symbols
                if reference is None:
                    reference = symbols
                assert np.array_equal(symbols, reference), (chunk, workers)
            edges = {0, n - 1}
            for boundary in range(chunk, n, chunk):
                edges |= {boundary - 1, boundary}
            for i in sorted(edges):
                assert int(run_trial(cfg, TrialRandom(41, i)).symbol) == reference[i], (chunk, i)

    @pytest.mark.parametrize(
        "ideal, digest",
        [
            (False, "c92f517a299f17baeb088d3fc206beb666c3f9b6be4beb2eeb9d729750048146"),
            (True, "ba3d285e2a747b21464aaf73dbe2947af01482f302707644f0be2a28a426e359"),
        ],
        ids=["noisy", "ideal"],
    )
    def test_pinned_symbol_digest(self, ideal, digest):
        stream, _ = run_batch(ProtocolConfig(n_trials=300_007, seed=271828, ideal=ideal), workers=2)
        assert hashlib.sha256(stream.symbols.tobytes()).hexdigest() == digest

    def test_threads_capped_at_chunk_count(self, monkeypatch):
        requested = []

        class SerialPool:
            """Records the pool size and runs the jobs in this thread."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(protocol, "_CHUNK", 1 << 10)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", SerialPool)
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
        chunk_bytes = protocol._CHUNK * protocol.WORDS_PER_TRIAL * 8
        assert peak <= 2 * n + 2 * (chunk_bytes + chunk_bytes // 4)


def reference_symbols(words, noise):
    """The all-trials noisy kernel: every trial takes the gate rotation, Born
    sampling from its initial level's column, relaxation, IQ synthesis and
    classification, with nothing decided early."""
    initial = thermal_init(words[:, 0], noise)
    theta = (np.pi / 2.0) * (1.0 + gate_error(words[:, 1], words[:, 2], noise))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    cc = c * c
    ss = s * s
    # columns of R01(theta) @ R12(theta): (c, s, 0), (s c, c^2, s), (s^2, c s, c)
    p0 = np.select([initial == 1, initial == 2], [(s * c) ** 2, ss**2], cc)
    p1 = np.select([initial == 1, initial == 2], [cc**2, (c * s) ** 2], ss)
    projected = _sample_levels(p0, p1, words[:, 3])
    relaxed = apply_relaxation(projected, words[:, 4], words[:, 5], noise)
    i, q = synth_iq(relaxed, words[:, 6], words[:, 7], noise)
    return classify(i, q, noise)


def trial_words(seed, n):
    return np.random.Generator(np.random.Philox(key=seed)).random((n, 8))


EARLY_DECISION_CONFIGS = {
    "defaults": {},
    "sigma-0.12": dict(iq_sigma=0.12),
    "sigma-0.36": dict(iq_sigma=0.36),
    "sigma-1": dict(iq_sigma=1.0),
    "gate-0": dict(gate_amp_error=0.0),
    "gate-0.2": dict(gate_amp_error=0.2),
    "thermal-0.3": dict(p_thermal_1=0.3, p_thermal_2=0.3),
    # the edges of the float64 domain NoiseParams accepts
    "coord-ceiling": dict(iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e99),
    "sigma-ceiling": dict(iq_sigma=1e100),
    "gate-ceiling": dict(gate_amp_error=1e100),
    "all-ceilings": dict(
        iq_centers=((1e100, 0.0), (0.0, 1e100), (-1e100, 0.0)), iq_sigma=1e100, gate_amp_error=1e100
    ),
    # half gaps of exactly 1e-100, and of exactly 1e-6 max|coord|
    "gap-floor": dict(iq_centers=((1e-100, 0.0), (-1e-100, 0.0), (0.0, 1e-99)), iq_sigma=3e-101),
    "gap-per-coord": dict(iq_centers=((1e6, 0.0), (1e6 - 2.0, 0.0), (-1e6, 0.0)), iq_sigma=0.3),
    # the ends of each word threshold in run_batch
    "decay10-0": dict(p_decay_10=0.0),
    "decay10-1": dict(p_decay_10=1.0),
    "decay21-1": dict(p_decay_21=1.0, p_thermal_1=0.3, p_thermal_2=0.3),
    "thermal-0.999": dict(p_thermal_1=0.5, p_thermal_2=0.499),
    "band-covers-all": dict(gate_amp_error=0.5),  # the Born band at the radius cap holds [0, 1]
    "iq-bound-1": dict(iq_sigma=5e-324),  # R / sigma overflows, so every level's bound is 1
    "iq-bound-0": dict(iq_centers=((1e-100, 0.0), (-1e-100, 0.0), (0.0, 1e-99)), iq_sigma=1e100),  # (R / sigma)^2 underflows
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
    @pytest.mark.parametrize("kw", EARLY_DECISION_CONFIGS.values(), ids=EARLY_DECISION_CONFIGS)
    def test_matches_all_trials_reference(self, kw):
        noise = NoiseParams(**kw)
        n = 1 << 16
        stream, _ = run_batch(ProtocolConfig(n_trials=n, seed=52, noise=noise), workers=2)
        assert np.array_equal(stream.symbols, reference_symbols(trial_words(52, n), noise))

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


class TestSummary:
    def test_frequencies_and_errors(self):
        stream = RawStream(np.array([0] * 60 + [1] * 39 + [2], dtype=np.uint8))
        from ksqrng.protocol import BatchSummary

        s = BatchSummary.from_stream(stream)
        assert s.n_trials == 100
        assert s.p0 == 60 / 99
        assert s.p1 == 39 / 99
        assert s.p_discard == 0.01
        assert s.p0_stderr == pytest.approx(np.sqrt(s.p0 * s.p1 / 99))
