"""Output checks, made apart from the package under test.

File headers are parsed here, symbol counts are recounted from the trace
bytes, p0 and the discard rate are compared with a closed-form expectation
from the noise parameters, the certification window and von Neumann
extraction are recomputed, the monobit statistic and entropy per byte are
recomputed with ``math``, and the Carmichael list and Solovay-Strassen
verdicts are re-derived by brute force. Nothing is compared against a
stored copy of earlier output.

The one call into ksqrng is the documented scalar reference,
``run_trial(config, TrialRandom(seed, i))``, used to spot-check trials of
the vectorized generator.

Every check returns a list of error strings; an empty list means it held.
"""

from __future__ import annotations

import functools
import math
import os
import random
import struct

import numpy as np
from scipy.special import ndtr

ALPHA = 0.01
BOUND_LO = math.sqrt(5.0 / 14.0)
BOUND_HI = 3.0 / math.sqrt(14.0)
SIGMAS = 6.0  # tolerance of the closed-form checks, in standard errors
SPOT_CHECKS = 16  # trials per pass compared with the scalar reference
REL_TOL = 1e-12

DEFAULT_NOISE = {
    "p_thermal_1": 0.0016,
    "p_thermal_2": 0.0002,
    "gate_amp_error": 0.005,
    "p_decay_10": 0.072,
    "p_decay_21": 0.14,
    "iq_sigma": 0.18,
    "iq_centers": ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
}


def _close(a, b, rel=REL_TOL) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _expect(errors: list, what: str, found, wanted, rel=REL_TOL) -> None:
    if isinstance(wanted, (bool, str, tuple)) or isinstance(found, (bool, str, tuple)):
        ok = type(found) is type(wanted) and found == wanted
    else:
        ok = _close(found, wanted, rel)
    if not ok:
        errors.append(f"{what}: found {found!r}, expected {wanted!r}")


# --- files and reports -----------------------------------------------------


def parse_report(path) -> dict:
    """``key = value`` lines, values typed: true/false, integers, floats,
    otherwise the raw string."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, raw = line.rstrip("\n").partition(" = ")
            if not sep:
                raise ValueError(f"{path}: malformed report line {line!r}")
            if raw in ("true", "false"):
                value = raw == "true"
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            out[key] = value
    return out


def read_trace_body(path, errors: list) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:9] != b"KSQTRACE\x01":
        errors.append(f"trace header {data[:9]!r} is not magic KSQTRACE + version 1")
    (count,) = struct.unpack("<Q", data[9:17])
    body = data[17:]
    if len(body) != count:
        errors.append(f"trace header says {count} symbols, body holds {len(body)}")
    return body


def read_bits_body(path, errors: list) -> tuple[int, bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"KSQBITS1":
        errors.append(f"bit file magic {data[:8]!r} is not KSQBITS1")
    (n_bits,) = struct.unpack("<Q", data[8:16])
    body = data[16:]
    if len(body) != (n_bits + 7) // 8:
        errors.append(f"bit file header says {n_bits} bits, body holds {len(body)} bytes")
    return n_bits, body


def symbol_counts(body: bytes, errors: list) -> tuple[int, int, int]:
    counts = (body.count(b"\x00"), body.count(b"\x01"), body.count(b"\x02"))
    if sum(counts) != len(body):
        errors.append(f"trace holds {len(body) - sum(counts)} bytes outside 0, 1, 2")
    return counts


# --- closed-form expectation -----------------------------------------------


def _confusion(centers, sigma: float) -> list[list[float]]:
    """P(nearest centre is j | true level i) for isotropic Gaussian IQ noise,
    integrated over the Voronoi cell of each centre (Simpson's rule along the
    I axis, exact Gaussian mass along Q)."""
    rows = []
    for ci in centers:
        u = np.linspace(ci[0] - 12.0 * sigma, ci[0] + 12.0 * sigma, 4001)
        weight = np.exp(-0.5 * ((u - ci[0]) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        simpson = np.ones_like(u)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        simpson *= (u[1] - u[0]) / 3.0
        row = []
        for j, cj in enumerate(centers):
            lo = np.full_like(u, -np.inf)
            hi = np.full_like(u, np.inf)
            inside = np.ones_like(u, dtype=bool)
            for k, ck in enumerate(centers):
                if k == j:
                    continue
                # |x - cj|^2 <= |x - ck|^2  <=>  a u + b v <= r
                a = 2.0 * (ck[0] - cj[0])
                b = 2.0 * (ck[1] - cj[1])
                r = ck[0] ** 2 + ck[1] ** 2 - cj[0] ** 2 - cj[1] ** 2
                if b > 0:
                    hi = np.minimum(hi, (r - a * u) / b)
                elif b < 0:
                    lo = np.maximum(lo, (r - a * u) / b)
                else:
                    inside &= a * u <= r
            mass = np.where(
                inside & (hi > lo),
                ndtr((hi - ci[1]) / sigma) - ndtr((lo - ci[1]) / sigma),
                0.0,
            )
            row.append(float(np.sum(simpson * weight * mass)))
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=256)
def _expected_symbols(noise_key: tuple) -> tuple[float, float, float]:
    noise = dict(noise_key)
    t1, t2 = noise["p_thermal_1"], noise["p_thermal_2"]
    # gate angle theta = pi/2 (1 + e), e ~ N(0, gate_amp_error^2);
    # with c = cos(theta/2), s = sin(theta/2): E[c^2] = E[s^2] = 1/2,
    # E[c^2 s^2] = (1 + k) / 8 and E[c^4] = E[s^4] = (3 - k) / 8,
    # where k = E[cos(pi e)] = exp(-pi^2 sigma^2 / 2)
    k = math.exp(-(math.pi * noise["gate_amp_error"]) ** 2 / 2.0)
    cs, c4 = (1.0 + k) / 8.0, (3.0 - k) / 8.0
    init = (1.0 - t1 - t2, t1, t2)
    # Born probabilities of each initial level's column of R01 R12
    born = ((0.5, 0.5, 0.0), (cs, c4, 0.5), (c4, cs, 0.5))
    projected = [sum(init[i] * born[i][lvl] for i in range(3)) for lvl in range(3)]
    d10, d21 = noise["p_decay_10"], noise["p_decay_21"]
    relax = ((1.0, 0.0, 0.0), (d10, 1.0 - d10, 0.0), (d21 * d10, d21 * (1.0 - d10), 1.0 - d21))
    relaxed = [sum(projected[i] * relax[i][lvl] for i in range(3)) for lvl in range(3)]
    confusion = _confusion(noise["iq_centers"], noise["iq_sigma"])
    return tuple(sum(relaxed[i] * confusion[i][s] for i in range(3)) for s in range(3))


def expected_symbols(noise: dict) -> tuple[float, float, float]:
    """Closed-form P(symbol 0), P(symbol 1), P(discard) for a noise model."""
    full = {**DEFAULT_NOISE, **noise}
    full["iq_centers"] = tuple(tuple(map(float, c)) for c in full["iq_centers"])
    return _expected_symbols(tuple(sorted(full.items())))


# --- generation ------------------------------------------------------------


def check_counts(counts, reported: dict) -> list[str]:
    errors: list[str] = []
    for key, value in zip(("n0", "n1", "n_discard"), counts):
        _expect(errors, key, reported[key], value)
    return errors


def check_frequencies(counts, reported: dict) -> list[str]:
    """Frequencies and standard errors, from the recounted symbols."""
    errors: list[str] = []
    n0, n1, nd = counts
    n, nb = n0 + n1 + nd, n0 + n1
    p0, p1, pd = n0 / nb, n1 / nb, nd / n
    se = math.sqrt(p0 * p1 / nb)
    for key, value in (
        ("p0", p0), ("p1", p1), ("p_discard", pd), ("p0_stderr", se), ("p1_stderr", se),
        ("p_discard_stderr", math.sqrt(pd * (1.0 - pd) / n)),
    ):
        _expect(errors, key, reported[key], value, rel=1e-9)
    return errors


def check_expectation(counts, noise: dict, ideal: bool) -> list[str]:
    """p0 within SIGMAS standard errors of its closed form; for the ideal
    protocol p0 = 1/2 and not one discard."""
    errors: list[str] = []
    n0, n1, nd = counts
    n, nb = n0 + n1 + nd, n0 + n1
    if ideal:
        q0, q2 = 0.5, 0.0
        if nd != 0:
            errors.append(f"ideal protocol produced {nd} discards")
    else:
        e0, e1, e2 = expected_symbols(noise)
        q0, q2 = e0 / (e0 + e1), e2
        sd = math.sqrt(n * q2 * (1.0 - q2))
        if abs(nd - n * q2) > SIGMAS * sd + SIGMAS:
            errors.append(f"{nd} discards, closed form expects {n * q2:.1f} +- {sd:.1f}")
    se = math.sqrt(q0 * (1.0 - q0) / nb)
    if abs(n0 / nb - q0) > SIGMAS * se:
        errors.append(f"p0 = {n0 / nb:.6f}, closed form expects {q0:.6f} +- {se:.2e}")
    return errors


def spot_check(body: bytes, seed: int, noise: dict, ideal: bool) -> list[str]:
    """Sampled trials against ``run_trial(config, TrialRandom(seed, i))``."""
    from ksqrng.protocol import ProtocolConfig, TrialRandom, run_trial
    from ksqrng.readout import NoiseParams

    config = ProtocolConfig(n_trials=len(body), seed=seed, noise=NoiseParams(**noise),
                            ideal=ideal)
    picks = random.Random(seed).sample(range(len(body)), min(SPOT_CHECKS, len(body)))
    errors = []
    for i in sorted(picks + [0, len(body) - 1]):
        symbol = int(run_trial(config, TrialRandom(seed, i)).symbol)
        if symbol != body[i]:
            errors.append(f"trial {i}: trace holds {body[i]}, scalar reference gives {symbol}")
    return errors


# --- certification and extraction ------------------------------------------


def check_certify(counts, reported: dict) -> list[str]:
    errors = check_frequencies(counts, reported)
    n0, n1, _ = counts
    p0, p1 = n0 / (n0 + n1), n1 / (n0 + n1)
    plus, minus = math.sqrt(p0), math.sqrt(p1)
    raw = 1.0 - 2.0 * abs(p0 - 0.5)
    for key, value in (
        ("overlap_plus", plus), ("overlap_minus", minus),
        ("bound_lo", BOUND_LO), ("bound_hi", BOUND_HI),
        ("certified_plus", BOUND_LO <= plus <= BOUND_HI),
        ("certified_minus", BOUND_LO <= minus <= BOUND_HI),
        ("certified_fraction_raw", raw),
        ("certified_fraction_final", 1.0 - (1.0 - raw) ** 2),
    ):
        _expect(errors, key, reported[key], value, rel=1e-9)
    return errors


def von_neumann(body: bytes) -> np.ndarray:
    """Own extraction: drop discards, pair consecutive bits, keep the first
    bit of each unequal pair."""
    symbols = np.frombuffer(body, dtype=np.uint8)
    binary = symbols[symbols != 2]
    even = binary[0 : binary.size - 1 : 2]
    odd = binary[1::2]
    return even[even != odd]


def check_bits(expected: np.ndarray, found: np.ndarray) -> list[str]:
    if found.shape != expected.shape:
        return [f"extracted {found.size} bits, own von Neumann pass gives {expected.size}"]
    diff = np.flatnonzero(found != expected)
    if diff.size:
        return [f"{diff.size} extracted bits differ from own von Neumann pass, "
                f"first at bit {int(diff[0])}"]
    return []


def check_yield(counts, out_bits: int, reported: dict) -> list[str]:
    errors: list[str] = []
    n0, n1, _ = counts
    nb = n0 + n1
    z = n0 / nb
    for key, value in (
        ("input_bits", nb), ("pairs", nb // 2), ("accepted_pairs", out_bits),
        ("dropped_trailing_bit", nb % 2 == 1), ("output_bits", out_bits),
        ("realized_yield", out_bits / nb), ("input_zero_fraction", z),
        ("expected_yield", z * (1.0 - z)),
    ):
        _expect(errors, key, reported[key], value, rel=1e-9)
    return errors


# --- statistics ------------------------------------------------------------


def check_stats(bits: np.ndarray, report: dict, bucket_size: int) -> list[str]:
    """``report`` holds n_bits, entropy_bits_per_byte, tests (list of dicts
    with name, statistic, p_value, passed, applicable) and, when a bucket
    was analysed, bucket_mean and bucket_n_buckets."""
    errors: list[str] = []
    n = int(bits.size)
    _expect(errors, "n_bits", report["n_bits"], n)
    ones = int(np.count_nonzero(bits))
    s_obs = abs(2 * ones - n) / math.sqrt(n)
    # entropy per byte is the same for either bit order inside a byte
    counts = np.bincount(np.packbits(bits[: n // 8 * 8]), minlength=256).tolist()
    total = n // 8
    entropy = -sum(c / total * math.log2(c / total) for c in counts if c)
    _expect(errors, "entropy_bits_per_byte", report["entropy_bits_per_byte"], entropy, rel=1e-9)
    tests = {t["name"]: t for t in report["tests"]}
    monobit = tests.get("monobit")
    if monobit is None:
        errors.append("monobit result missing")
    else:
        _expect(errors, "monobit statistic", monobit["statistic"], s_obs, rel=1e-9)
        _expect(errors, "monobit p_value", monobit["p_value"],
                math.erfc(s_obs / math.sqrt(2.0)), rel=1e-9)
    # the --gate rule: a test passes when p >= alpha, and the gate holds when
    # at most one applicable test fails
    for name, t in tests.items():
        if t["applicable"] and t["passed"] != (t["p_value"] >= ALPHA):
            errors.append(f"{name}: pass = {t['passed']} but p = {t['p_value']!r}")
        if not t["applicable"] and (t["passed"] or not math.isnan(t["p_value"])):
            errors.append(f"{name}: not applicable yet reports pass or a p-value")
    n_buckets = n // bucket_size
    if n_buckets:
        zero_mean = 1.0 - float(np.count_nonzero(bits[: n_buckets * bucket_size])) / (
            n_buckets * bucket_size
        )
        _expect(errors, "bucket.n_buckets", report.get("bucket_n_buckets"), n_buckets)
        _expect(errors, "bucket.mean_zero_frequency", report.get("bucket_mean"), zero_mean,
                rel=1e-9)
    elif report.get("bucket_n_buckets") is not None:
        errors.append("bucket analysed without one complete bucket")
    return errors


def gate_failures(report: dict) -> int:
    """Applicable battery tests that failed; ``stats --gate`` fails above 1."""
    return sum(1 for t in report["tests"] if t["applicable"] and not t["passed"])


# --- number theory ---------------------------------------------------------


@functools.lru_cache(maxsize=8)
def korselt(limit: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Carmichael numbers below ``limit`` with their prime factors, by trial
    division: composite, squarefree, and p - 1 | n - 1 for each prime p | n."""
    found = []
    for n in range(3, limit, 2):
        m, factors, p, ok = n, [], 3, True
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0 or (n - 1) % (p - 1):
                    ok = False
                    break
                factors.append(p)
            p += 2
        if not ok or not factors:
            continue
        if m > 1:
            if (n - 1) % (m - 1):
                continue
            factors.append(m)
        if len(factors) >= 2:
            found.append((n, tuple(factors)))
    return tuple(found)


def _euler_agrees(a: int, n: int, primes) -> bool:
    """Euler's criterion for n = prod(primes), with the Jacobi symbol taken
    as the product of Legendre symbols (each by Euler's criterion mod p)."""
    jacobi = 1
    for p in primes:
        jacobi *= -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1
    return pow(a, (n - 1) // 2, n) == jacobi % n


def replay_solovay_strassen(bits: np.ndarray, limit: int, max_witnesses: int) -> list[tuple]:
    """(number, verdict, witnesses used, bits consumed) for every Carmichael
    number below ``limit``, drawing witnesses the documented way: fixed-width
    chunks, first bit most significant, chunks above n - 4 rejected."""
    pos, out = 0, []
    for n, primes in korselt(limit):
        width = (n - 3).bit_length()
        start, used, verdict = pos, 0, "probably_prime"
        while used < max_witnesses:
            if pos + width > bits.size:
                raise ValueError(f"bit supply ran out at {n}")
            value = int("".join("1" if b else "0" for b in bits[pos : pos + width]), 2)
            pos += width
            if value > n - 4:
                continue
            a = value + 2
            used += 1
            if math.gcd(a, n) != 1 or not _euler_agrees(a, n, primes):
                verdict = "composite"
                break
        out.append((n, verdict, used, pos - start))
    return out


def check_harness(bits: np.ndarray, limit: int, max_witnesses: int, result: dict) -> list[str]:
    """``result`` holds verdicts (dicts with number, verdict, witnesses_used,
    bits_consumed), total_bits_consumed, total_witnesses, all_composite."""
    errors: list[str] = []
    verdicts = result["verdicts"]
    numbers = [v["number"] for v in verdicts]
    wanted = [n for n, _ in korselt(limit)]
    if numbers != wanted:
        errors.append(f"tested {numbers}, Korselt enumeration gives {wanted}")
    not_composite = [v["number"] for v in verdicts if v["verdict"] != "composite"]
    if not_composite:
        errors.append(f"not declared composite: {not_composite}")
    total = sum(v["bits_consumed"] for v in verdicts)
    _expect(errors, "total_bits_consumed", result["total_bits_consumed"], total)
    _expect(errors, "total_witnesses", result["total_witnesses"],
            sum(v["witnesses_used"] for v in verdicts))
    _expect(errors, "all_composite", result["all_composite"], not not_composite)
    if total > bits.size:
        errors.append(f"consumed {total} bits from a supply of {bits.size}")
    try:
        replay = replay_solovay_strassen(bits, limit, max_witnesses)
    except ValueError as exc:
        return errors + [str(exc)]
    found = [(v["number"], v["verdict"], v["witnesses_used"], v["bits_consumed"])
             for v in verdicts]
    if found != replay:
        errors.append(f"verdicts {found} differ from own replay {replay}")
    return errors


# --- whole operations ------------------------------------------------------


def _stats_from_report(rep: dict) -> dict:
    names = [k[len("test."):-len(".applicable")] for k in rep if k.endswith(".applicable")
             and k.startswith("test.")]
    tests = [
        {
            "name": name,
            "statistic": rep[f"test.{name}.statistic"],
            "p_value": rep[f"test.{name}.p_value"],
            "passed": rep[f"test.{name}.pass"],
            "applicable": rep[f"test.{name}.applicable"],
        }
        for name in names
    ]
    return {
        "n_bits": rep["n_bits"],
        "entropy_bits_per_byte": rep["entropy_bits_per_byte"],
        "tests": tests,
        "bucket_n_buckets": rep.get("bucket.n_buckets"),
        "bucket_mean": rep.get("bucket.mean_zero_frequency"),
    }


def _harness_from_report(rep: dict) -> dict:
    numbers = [int(k.split(".")[1]) for k in rep if k.endswith(".verdict")]
    return {
        "verdicts": [
            {
                "number": n,
                "verdict": rep[f"ss.{n}.verdict"],
                "witnesses_used": rep[f"ss.{n}.witnesses_used"],
                "bits_consumed": rep[f"ss.{n}.bits_consumed"],
            }
            for n in numbers
        ],
        "total_bits_consumed": rep["total_bits_consumed"],
        "total_witnesses": rep["total_witnesses"],
        "all_composite": rep["all_composite"],
    }


def check_pipeline(workdir: str, trials: int, seed: int, ideal: bool, bucket_size: int,
                   limit: int, max_witnesses: int) -> tuple[dict, dict]:
    """Check the files of one pipeline pass. Returns errors keyed by
    subcommand, and what the pass produced (output and analysed bits, stats
    gate failures)."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    errors = {name: [] for name in ("generate", "certify", "extract", "stats", "consume-ss")}
    produced: dict = {}

    def guarded(name, fn):
        try:
            fn(errors[name])
        except Exception as exc:  # a missing or malformed file fails the check
            errors[name].append(f"{type(exc).__name__}: {exc}")

    state: dict = {}

    def trace(errs):
        if "body" not in state:
            header_errors: list[str] = []
            body = read_trace_body(path("raw.trace"), header_errors)
            state["body"], state["counts"] = body, symbol_counts(body, header_errors)
            errs += header_errors
        return state["body"], state["counts"]

    def generate(errs):
        body, counts = trace(errs)
        rep = parse_report(path("gen.rpt"))
        for key, value in (("report", "generate"), ("trials", trials), ("seed", seed),
                           ("ideal", ideal)):
            _expect(errs, key, rep[key], value)
        if len(body) != trials:
            errs.append(f"trace holds {len(body)} trials, config asks for {trials}")
        errs += check_counts(counts, rep) + check_frequencies(counts, rep)
        errs += check_expectation(counts, {}, ideal)
        errs += spot_check(body, seed, {}, ideal)

    def certify(errs):
        counts = trace(errs)[1]
        rep = parse_report(path("cert.rpt"))
        errs += check_counts(counts, rep) + check_certify(counts, rep)

    def extract(errs):
        body, counts = trace(errs)
        own = von_neumann(body)
        n_bits, packed = read_bits_body(path("bits.ksq"), errs)
        found = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        if np.any(found[n_bits:]):
            errs.append("bit file padding is not zero")
        errs += check_bits(own, found[:n_bits])
        errs += check_yield(counts, int(own.size), parse_report(path("yield.rpt")))
        state["bits"] = own
        produced["output_bits"] = int(own.size)

    def stats(errs):
        report = _stats_from_report(parse_report(path("stats.rpt")))
        errs += check_stats(state["bits"], report, bucket_size)
        produced["analysed_bits"] = report["n_bits"]
        produced["gate_failures"] = gate_failures(report)

    def consume(errs):
        rep = parse_report(path("ss.rpt"))
        _expect(errs, "limit", rep["limit"], limit)
        _expect(errs, "max_witnesses", rep["max_witnesses"], max_witnesses)
        _expect(errs, "numbers_tested", rep["numbers_tested"], len(korselt(limit)))
        errs += check_harness(state["bits"], limit, max_witnesses, _harness_from_report(rep))

    for name, fn in (("generate", generate), ("certify", certify), ("extract", extract),
                     ("stats", stats), ("consume-ss", consume)):
        guarded(name, fn)
    return errors, produced


def check_sweep_config(payload: dict, seed: int, noise: dict, trials: int, bucket_size: int,
                       limit: int, max_witnesses: int) -> tuple[list[str], dict]:
    """Check one noise-sweep configuration's in-memory results."""
    errors: list[str] = []
    produced: dict = {}
    try:
        body = payload["symbols"]
        if len(body) != trials:
            errors.append(f"{len(body)} symbols for {trials} trials")
        counts = symbol_counts(body, errors)
        summary = dict(payload["summary"])
        _expect(errors, "n_trials", summary["n_trials"], trials)
        errors += check_counts(counts, summary) + check_frequencies(counts, summary)
        _expect(errors, "RawStream counts", tuple(payload["stream_counts"]), counts)
        errors += check_expectation(counts, noise, False)
        errors += spot_check(body, seed, noise, False)
        errors += check_certify(counts, payload["cert"])
        produced["certified"] = payload["cert"]["certified_plus"] and payload["cert"][
            "certified_minus"]
        own = von_neumann(body)
        found = np.frombuffer(payload["bits"], dtype=np.uint8)
        errors += check_bits(own, found)
        produced["output_bits"] = int(own.size)
        errors += check_stats(own, {**payload["stats"], "bucket_n_buckets": None},
                              bucket_size)
        produced["analysed_bits"] = payload["stats"]["n_bits"]
        produced["gate_failures"] = gate_failures(payload["stats"])
        errors += check_harness(own, limit, max_witnesses, payload["harness"])
    except Exception as exc:  # a malformed result fails the check
        errors.append(f"{type(exc).__name__}: {exc}")
    return errors, produced
