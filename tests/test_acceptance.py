"""Acceptance gate: every criterion runs at its stated tolerance and emits
one pass/fail line. The summary test at the end replays the lines to the
terminal even under captured output (plain ``pytest -v``)."""

import math
import time

import numpy as np
import pytest

from ksqrng.bits import BitStream, random_bits
from ksqrng.certify import BOUND_HI, BOUND_LO, certified_fraction_final
from ksqrng.cli import run_cli
from ksqrng.errors import (
    BadMagicError,
    BadSymbolError,
    BadVersionError,
    NonzeroPaddingError,
    TruncatedFileError,
)
from ksqrng.extract import expected_yield, to_bits, von_neumann_extract
from ksqrng.formats import read_bits, read_trace, unpack_bits
from ksqrng.primality import BitSource, carmichael_harness, carmichael_numbers, jacobi
from ksqrng.protocol import ProtocolConfig, run_batch
from ksqrng.qutrit import measurement_unitary
from ksqrng.stats import bucket_frequency, entropy_per_byte, monobit, nist_subset, runs

NOISY_SEED = 20260810
IDEAL_SEED = 11
UNBIASED_SEED = 777
BUCKET_SIZE = 999302

_LINES = []


def _emit(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def noisy_run():
    t0 = time.perf_counter()
    stream, summary = run_batch(ProtocolConfig(n_trials=10**7, seed=NOISY_SEED), workers=4)
    return stream, summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def extracted_bits(noisy_run):
    stream, _, _ = noisy_run
    t0 = time.perf_counter()
    binary = to_bits(stream)
    out = von_neumann_extract(binary)
    return binary, out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def unbiased_100m():
    return random_bits(UNBIASED_SEED, 10**8)


def test_criterion_1_ideal_born_statistics():
    t0 = time.perf_counter()
    probs = np.abs(measurement_unitary().matrix[:, 0]) ** 2
    analytic_ok = bool(np.max(np.abs(probs - np.array([0.5, 0.5, 0.0]))) < 1e-12)
    stream, summary = run_batch(ProtocolConfig(n_trials=10**6, seed=IDEAL_SEED, ideal=True))
    elapsed = time.perf_counter() - t0
    ok = (
        analytic_ok
        and abs(summary.p0 - 0.5) <= 0.0015
        and stream.n_discard == 0
        and elapsed < 10.0
    )
    _emit(
        1,
        ok,
        f"analytic probs {np.round(probs, 15)}, p0={summary.p0:.6f} (band 0.5+-0.0015), "
        f"discards={stream.n_discard}, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_noise_calibration(noisy_run):
    stream, summary, elapsed = noisy_run
    ok = (
        abs(summary.p0 - 0.536) <= 0.005
        and summary.p_discard < 0.001
        and elapsed < 120.0
    )
    _emit(
        2,
        ok,
        f"p0={summary.p0:.6f} (band 0.536+-0.005), p_discard={summary.p_discard:.6f} < 0.001, "
        f"{elapsed:.1f}s < 120s ({10**7 / elapsed:.2e} trials/s, soft target 1e5/s per worker)",
    )


def test_criterion_3_certification_numbers():
    lo, hi = BOUND_LO, BOUND_HI
    sqrt_p0, sqrt_p1 = math.sqrt(0.536), math.sqrt(0.464)
    final = certified_fraction_final(0.95)
    ok = (
        abs(lo - 0.597614) <= 1e-6
        and abs(hi - 0.801784) <= 1e-6
        and lo <= sqrt_p0 <= hi
        and lo <= sqrt_p1 <= hi
        and abs(final - 0.9975) < 1e-9
    )
    _emit(
        3,
        ok,
        f"bounds=({lo:.6f}, {hi:.6f}), sqrt(0.536)={sqrt_p0:.5f} and sqrt(0.464)={sqrt_p1:.5f} "
        f"inside, certified_fraction_final(0.95)={final:.6f}",
    )


def test_criterion_4_extraction_unbiasedness(noisy_run, extracted_bits, unbiased_100m):
    _, summary, _ = noisy_run
    binary, out, elapsed = extracted_bits
    t0 = time.perf_counter()
    m = len(out)
    zero_freq = float(np.mean(out.bits == 0))
    freq_tol = 3 * 0.5 / math.sqrt(m)
    input_zero = float(np.mean(binary.bits == 0))
    realized = m / len(binary)
    expected = expected_yield(input_zero)
    bucket = bucket_frequency(unbiased_100m, BUCKET_SIZE)
    elapsed += time.perf_counter() - t0
    ok = (
        abs(zero_freq - 0.5) <= freq_tol
        and abs(realized - expected) <= 0.02 * expected
        and 3.5e-4 <= bucket.stddev <= 6.5e-4
        and abs(bucket.mean - 0.5) <= 0.0002
        and elapsed < 60.0
    )
    _emit(
        4,
        ok,
        f"m={m}, zero_freq={zero_freq:.6f} (band 0.5+-{freq_tol:.6f}), "
        f"yield={realized:.6f} vs p0(1-p0)={expected:.6f} (2% rel), "
        f"bucket stddev={bucket.stddev:.2e} in [3.5e-4, 6.5e-4] "
        f"(binomial 5.0e-4), bucket mean={bucket.mean:.6f}, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_entropy(unbiased_100m):
    t0 = time.perf_counter()
    entropy = entropy_per_byte(unbiased_100m)
    elapsed = time.perf_counter() - t0
    ok = entropy >= 7.9999 and elapsed < 300.0
    _emit(5, ok, f"entropy={entropy:.7f} bits/byte >= 7.9999 on 1e8 bits, {elapsed:.1f}s < 300s")


def test_criterion_6_nist_subset(extracted_bits):
    _, out, _ = extracted_bits
    t0 = time.perf_counter()
    assert len(out) >= 10**6
    results = nist_subset(out)
    n_pass = sum(t.passed for t in results)
    example_monobit = monobit(BitStream([1, 0, 1, 1, 0, 1, 0, 1, 0, 1])).p_value
    example_runs = runs(BitStream([1, 0, 0, 1, 1, 0, 1, 0, 1, 1])).p_value
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{t.name}={t.p_value:.4f}" for t in results)
    ok = (
        n_pass >= 4
        and abs(example_monobit - 0.527089) <= 1e-5
        and abs(example_runs - 0.147232) <= 1e-5
        and elapsed < 60.0
    )
    _emit(
        6,
        ok,
        f"{n_pass}/5 tests pass on {len(out)} extracted bits ({detail}); worked examples "
        f"monobit={example_monobit:.6f}, runs={example_runs:.6f}; {elapsed:.1f}s < 60s",
    )


def _factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_criterion_7_solovay_strassen_harness(extracted_bits):
    _, out, _ = extracted_bits
    t0 = time.perf_counter()

    numbers = carmichael_numbers(10**5)
    oracle = []
    for n in range(3, 10**5):
        factors = _factorize(n)
        if len(factors) >= 2 and all(k == 1 for k in factors.values()):
            if all((n - 1) % (p - 1) == 0 for p in factors):
                oracle.append(n)
    list_ok = numbers == oracle and len(numbers) == 16 and numbers[:3] == [561, 1105, 1729]

    harness = carmichael_harness(10**5, BitSource(out), max_witnesses=64)
    composite_ok = harness.all_composite and len(harness.verdicts) == 16

    jacobi_ok = True
    for n in range(1, 1000, 2):
        for a in range(n):
            factors = _factorize(n)
            expected = 1
            for p, k in factors.items():
                if a % p == 0:
                    expected = 0
                    break
                legendre = -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1
                expected *= legendre**k
            if jacobi(a, n) != expected:
                jacobi_ok = False
                break
        if not jacobi_ok:
            break

    elapsed = time.perf_counter() - t0
    ok = list_ok and composite_ok and jacobi_ok and elapsed < 60.0
    _emit(
        7,
        ok,
        f"carmichael list matches oracle ({len(numbers)} numbers, first {numbers[:3]}), "
        f"all composite within 64 witnesses using {harness.total_bits_consumed} pipeline bits, "
        f"jacobi exhaustive for odd n<1000: {'ok' if jacobi_ok else 'MISMATCH'}; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_8_determinism_and_formats(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "run.cfg"
    config.write_text("trials = 200000\nseed = 314159\n")

    def pipeline(tag, workers):
        trace = tmp_path / f"{tag}.trace"
        bits = tmp_path / f"{tag}.bits"
        reports = {name: tmp_path / f"{tag}.{name}.rpt" for name in ("gen", "cert", "ext", "stat")}
        assert run_cli(
            ["generate", "--config", str(config), "--out", str(trace),
             "--report", str(reports["gen"]), "--workers", str(workers)]
        ) == 0
        assert run_cli(["certify", "--in", str(trace), "--report", str(reports["cert"])]) == 0
        assert run_cli(
            ["extract", "--in", str(trace), "--out", str(bits), "--report", str(reports["ext"])]
        ) == 0
        assert run_cli(
            ["stats", "--in", str(bits), "--bucket", "10000", "--report", str(reports["stat"])]
        ) == 0
        return [trace.read_bytes(), bits.read_bytes()] + [
            reports[k].read_bytes() for k in ("gen", "cert", "ext", "stat")
        ]

    runs_equal = pipeline("a", 1) == pipeline("b", 1) == pipeline("c", 4)

    # format round trips
    trace_stream = read_trace(tmp_path / "a.trace")
    bit_stream = read_bits(tmp_path / "a.bits")
    round_trip_ok = (
        unpack_bits(bit_stream.packed.tobytes(), len(bit_stream)) == bit_stream
        and len(trace_stream) == 200000
    )

    # malformed inputs raise their distinct error classes
    import struct

    malformed_ok = True
    cases = [
        (b"WRONGMAG" + bytes([1]) + struct.pack("<Q", 0), BadMagicError),
        (b"KSQTRACE" + bytes([9]) + struct.pack("<Q", 0), BadVersionError),
        (b"KSQTRACE" + bytes([1]) + struct.pack("<Q", 4) + b"\x00", TruncatedFileError),
        (b"KSQTRACE" + bytes([1]) + struct.pack("<Q", 1) + b"\x05", BadSymbolError),
    ]
    for payload, expected_error in cases:
        bad = tmp_path / "malformed.trace"
        bad.write_bytes(payload)
        try:
            read_trace(bad)
            malformed_ok = False
        except expected_error:
            pass
        except Exception:
            malformed_ok = False
    bad_bits = tmp_path / "malformed.bits"
    bad_bits.write_bytes(b"KSQBITS1" + struct.pack("<Q", 3) + b"\xff")
    try:
        read_bits(bad_bits)
        malformed_ok = False
    except NonzeroPaddingError:
        pass

    elapsed = time.perf_counter() - t0
    ok = runs_equal and round_trip_ok and malformed_ok and elapsed < 60.0
    _emit(
        8,
        ok,
        f"byte-identical trace/bit/report files across reruns and worker counts: {runs_equal}; "
        f"round trips: {round_trip_ok}; malformed-input errors distinct: {malformed_ok}; "
        f"{elapsed:.1f}s < 60s",
    )


def test_acceptance_summary(capsys):
    with capsys.disabled():
        print("\n" + "\n".join(_LINES))
    assert len(_LINES) == 8
