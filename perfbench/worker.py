"""Measured side of the benchmark.

Runs in a process of its own, started by ``run.py`` as
``python3 worker.py WORKLOAD WORKDIR SRC``, so that its peak RSS and set-up
time belong to the pipeline alone. Messages travel as pickles over its
standard input and output; anything the package prints goes to standard
error instead.
It imports ksqrng only inside :func:`serve`, after the set-up clock has
started. Timing is taken from outside the package, around calls into its
public functions; the package itself is not changed.

Messages from the parent (``run.py``):

    ("pass", seed, traced)            run one pipeline pass
    ("config", seed, params, traced)  run one noise-sweep configuration
    None                              exit

Each answer is a plain dict of numbers, strings and bytes, with the spans
the operation recorded and the host reference times taken just before it;
no ksqrng object crosses the pipe, so the parent's checks depend on nothing
the package pickles. With ``traced`` set, the package's public functions
record spans of their own for that operation.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager

NOISY_TRIALS = 1 << 23
IDEAL_TRIALS = 1 << 24
SWEEP_TRIALS = 1 << 16
WARMUP_TRIALS = 1 << 16
SS_LIMIT = 100000
SS_WITNESSES = 64
BUCKET_SIZE = 999302

# The README's calibrated run configuration, with trials and seed filled in
# per pass.
CALIBRATED_CONFIG = """\
trials = {trials}
seed = {seed}
ideal = false
p_thermal_1 = 0.0016
p_thermal_2 = 0.0002
gate_amp_error = 0.005
p_decay_10 = 0.072
p_decay_21 = 0.14
iq_sigma = 0.18
iq_center_0 = 1, 0
iq_center_1 = 0, 1
iq_center_2 = -1, 0
bucket_size = 999302
ss_limit = 100000
ss_witnesses = 64
"""

PIPELINES = {
    # workload: (trials per pass, generate flags)
    "noisy-pipeline": (NOISY_TRIALS, ["--workers", "2"]),
    "ideal-pipeline": (IDEAL_TRIALS, ["--ideal", "--workers", "1"]),
}
SUBCOMMANDS = ("generate", "certify", "extract", "stats", "consume-ss")


class Spans:
    """One record per timed call: [name, start, end, parent index, counts].
    Parent indices count from the first record since the last ``take``."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        counts: dict = {}
        index = len(self.records)
        record = [name, 0.0, 0.0, parent, counts]
        self.records.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield counts
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[list]:
        out, self.records = self.records, []
        return out


# --- in-package tracing (traced runs only) ---------------------------------


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _traced(spans: Spans, name: str, fn, count=None, alloc=False, faults=False):
    """Wrap ``fn`` so each call records a span; ``count(counts, args,
    result)`` fills the span's counters from the call's inputs and result."""

    def wrapper(*args, **kwargs):
        with spans.span(name) as counts:
            if alloc:
                tracemalloc.start()
            f0 = _minor_faults() if faults else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if faults:
                    counts["minor_faults"] = _minor_faults() - f0
                if alloc:
                    counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                count(counts, args, result)
        return result

    return wrapper


def _count_batch(counts, args, result):
    stream, _ = result
    counts["trials"] = len(stream)
    counts["discards"] = stream.n_discard


def _count_file(counts, args, result):
    counts["bytes"] = os.path.getsize(args[0])


def _count_vn(counts, args, result):
    counts["input_bits"] = len(args[0])
    counts["output_bits"] = len(result)


def _count_stats(counts, args, result):
    counts["n_bits"] = result.n_bits


def _count_harness(counts, args, result):
    counts["numbers_tested"] = len(result.verdicts)
    counts["witnesses"] = result.total_witnesses
    counts["bits_consumed"] = result.total_bits_consumed


class Instrumentation:
    """Swaps the package's public functions for span-recording wrappers in
    the modules that call them, and puts the originals back."""

    def __init__(self, ksq, spans: Spans):
        cli, protocol, formats = ksq["cli"], ksq["protocol"], ksq["formats"]
        certify, extract, stats, primality = (
            ksq["certify"], ksq["extract"], ksq["stats"], ksq["primality"]
        )
        plan = [
            # (span name, original, modules holding a reference, options)
            ("protocol.run_batch", protocol.run_batch, (protocol, cli),
             dict(count=_count_batch, alloc=True, faults=True)),
            ("formats.write_trace", formats.write_trace, (formats, cli), {}),
            ("formats.read_trace", formats.read_trace, (formats, cli),
             dict(count=_count_file, alloc=True)),
            ("formats.write_bits", formats.write_bits, (formats, cli), {}),
            ("formats.read_bits", formats.read_bits, (formats, cli), dict(count=_count_file)),
            ("certify.build_report", certify.build_report, (certify,), {}),
            ("extract.to_bits", extract.to_bits, (extract,), {}),
            ("extract.von_neumann", extract.von_neumann_extract, (extract,),
             dict(count=_count_vn)),
            ("stats.build_stats_report", stats.build_stats_report, (stats,),
             dict(count=_count_stats)),
            ("primality.carmichael_harness", primality.carmichael_harness, (primality, cli),
             dict(count=_count_harness)),
            ("primality.carmichael_numbers", primality.carmichael_numbers, (primality,), {}),
        ]
        for test in (
            "entropy_per_byte", "monobit", "block_frequency", "runs",
            "longest_run_of_ones", "approximate_entropy", "bucket_frequency",
        ):
            plan.append((f"stats.{test}", getattr(stats, test), (stats,), {}))
        self._patches = []
        for name, fn, modules, options in plan:
            wrapper = _traced(spans, name, fn, **options)
            for module in modules:
                attr = fn.__name__
                self._patches.append((module, attr, getattr(module, attr), wrapper))

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


# --- workloads -------------------------------------------------------------


def _import_ksqrng() -> dict:
    import ksqrng.certify
    import ksqrng.cli
    import ksqrng.extract
    import ksqrng.formats
    import ksqrng.primality
    import ksqrng.protocol
    import ksqrng.readout
    import ksqrng.stats

    return {
        name: getattr(ksqrng, name)
        for name in ("cli", "protocol", "readout", "formats", "certify", "extract",
                     "stats", "primality")
    }


def pipeline_argv(workload: str, workdir: str) -> list[tuple[str, list[str]]]:
    """The five subcommands of one pass, as a user's script would chain them."""
    _, gen_flags = PIPELINES[workload]
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    return [
        ("generate", ["generate", "--config", path("run.cfg"), "--out", path("raw.trace"),
                      "--report", path("gen.rpt")] + gen_flags),
        ("certify", ["certify", "--in", path("raw.trace"), "--report", path("cert.rpt")]),
        ("extract", ["extract", "--in", path("raw.trace"), "--out", path("bits.ksq"),
                     "--report", path("yield.rpt")]),
        ("stats", ["stats", "--in", path("bits.ksq"), "--report", path("stats.rpt")]),
        ("consume-ss", ["consume-ss", "--in", path("bits.ksq"), "--report", path("ss.rpt")]),
    ]


def pipeline_pass(ksq, spans: Spans, workload: str, workdir: str, seed: int,
                  trials: int) -> dict:
    with open(os.path.join(workdir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CALIBRATED_CONFIG.format(trials=trials, seed=seed))
    run_cli = ksq["cli"].run_cli
    codes = {}
    errors = {}
    with spans.span("pass"):
        for name, argv in pipeline_argv(workload, workdir):
            with spans.span("cli." + name):
                try:
                    codes[name] = run_cli(argv)
                except Exception as exc:  # a crash counts as a failed operation
                    codes[name] = None
                    errors[name] = f"{type(exc).__name__}: {exc}"
    return {"codes": codes, "errors": errors}


def sweep_config(ksq, spans: Spans, seed: int, params: dict) -> dict:
    """One calibration-study configuration through the library API, as in
    the README's "Library use": run_batch -> build_report -> to_bits /
    von_neumann_extract -> build_stats_report -> carmichael_harness."""
    protocol, readout = ksq["protocol"], ksq["readout"]
    certify, extract, stats, primality = (
        ksq["certify"], ksq["extract"], ksq["stats"], ksq["primality"]
    )
    config = protocol.ProtocolConfig(
        n_trials=SWEEP_TRIALS, seed=seed, noise=readout.NoiseParams(**params)
    )
    with spans.span("config"):
        with spans.span("api.run_batch"):
            stream, summary = protocol.run_batch(config)
        with spans.span("api.build_report"):
            cert = certify.build_report(stream)
        with spans.span("api.extract"):
            bits = extract.von_neumann_extract(extract.to_bits(stream))
        with spans.span("api.stats"):
            report = stats.build_stats_report(bits, BUCKET_SIZE)
        with spans.span("api.harness"):
            harness = primality.carmichael_harness(
                SS_LIMIT, primality.BitSource(bits), SS_WITNESSES
            )
    return {
        "symbols": stream.symbols.tobytes(),
        "stream_counts": (stream.n0, stream.n1, stream.n_discard),
        "summary": dataclasses.asdict(summary),
        "cert": dataclasses.asdict(cert),
        "bits": bits.bits.tobytes(),
        "stats": {
            "n_bits": report.n_bits,
            "entropy_bits_per_byte": report.entropy_bits_per_byte,
            "tests": [dataclasses.asdict(t) for t in report.tests],
        },
        "harness": {
            "verdicts": [dataclasses.asdict(v) for v in harness.verdicts],
            "total_bits_consumed": harness.total_bits_consumed,
            "total_witnesses": harness.total_witnesses,
            "all_composite": harness.all_composite,
        },
    }


def _warm_up(ksq, workload: str, workdir: str) -> None:
    """One small pass through the same calls, so lazy set-up (imports inside
    numpy and scipy, thread pools, allocator arenas) is paid before timing."""
    spans = Spans()
    if workload in PIPELINES:
        out = pipeline_pass(ksq, spans, workload, workdir, seed=1, trials=WARMUP_TRIALS)
        if any(code != 0 for code in out["codes"].values()):
            raise RuntimeError(f"warm-up pass failed: {out}")
    else:
        sweep_config(ksq, spans, seed=1, params={})


def _setup(workload: str, workdir: str):
    start = time.perf_counter()
    ksq = _import_ksqrng()
    _warm_up(ksq, workload, workdir)
    return ksq, time.perf_counter() - start


class HostReference:
    """A fixed piece of work that involves no ksqrng code: an interpreter
    loop and a numpy sine and sort over 64 Ki doubles. A shared host's speed
    can drift by 10-50% over tens of seconds, for every kind of work at
    once; the run's median time of this kernel measures that drift, and
    ``run.py`` scales its timings by it."""

    REPS = {"pass": 20, "config": 1}  # samples taken before each operation

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(1 << 16)

    def measure(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i & 7
        self._np.sin(self._x).sort()
        return time.perf_counter() - start


def serve(conn, workload: str, workdir: str) -> None:
    ksq, setup_s = _setup(workload, workdir)
    spans = Spans()
    instrumentation = Instrumentation(ksq, spans)
    reference = HostReference()
    conn.send({"setup_s": setup_s})
    while True:
        msg = conn.recv()
        if msg is None:
            break
        kind, traced = msg[0], msg[-1]
        reference_s = [reference.measure() for _ in range(HostReference.REPS[kind])]
        if traced:
            instrumentation.install()
        try:
            if kind == "pass":
                trials, _ = PIPELINES[workload]
                out = pipeline_pass(ksq, spans, workload, workdir, msg[1], trials)
            else:
                try:
                    out = sweep_config(ksq, spans, msg[1], msg[2])
                except Exception as exc:  # a crash counts as a failed operation
                    out = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if traced:
                instrumentation.remove()
        out["spans"] = spans.take()
        out["reference_s"] = reference_s
        out["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        conn.send(out)
    conn.close()


class Channel:
    """Pickled messages over a pair of binary pipes; ``recv`` raises
    EOFError once the other end has closed."""

    def __init__(self, reader, writer):
        self._reader, self._writer = reader, writer

    def send(self, obj) -> None:
        pickle.dump(obj, self._writer, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.flush()

    def recv(self):
        return pickle.load(self._reader)

    def close(self) -> None:
        try:
            self._writer.close()
        finally:
            self._reader.close()


def main(argv: list[str]) -> int:
    workload, workdir, src = argv
    sys.path.insert(0, src)
    # keep the pipe to run.py for messages; whatever else writes to
    # standard output lands on standard error
    writer = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    try:
        serve(Channel(sys.stdin.buffer, writer), workload, workdir)
    except (EOFError, BrokenPipeError):
        return 1  # run.py went away
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
