import hashlib
import tracemalloc

import numpy as np
import pytest

from ksqrng import protocol
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
from ksqrng.readout import NoiseParams, ReadoutLevel


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

    def test_matches_contiguous_stream(self):
        full = np.random.Generator(np.random.Philox(key=77)).random(40)
        for i in range(5):
            words = TrialRandom(77, i).random(8)
            assert np.array_equal(words, full[8 * i : 8 * i + 8])


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
