"""ksqrng benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload noisy-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a ksqrng checkout; the package is imported from
``src/``. Each pipeline pass and each round of the sweep runs in a fresh
worker process (``worker.py``, started with ``subprocess`` and waited for
on every path out); this process derives the inputs from
``--seed``, hands them over one operation at a time, checks every output
with ``checks.py`` outside the timed sections, and prints one JSON object as
the last line of standard output. A readable summary goes to standard error.

Every time and rate is scaled by REFERENCE_S over the run's median time of
``worker.HostReference``, a fixed kernel that runs no ksqrng code, so that
the host's own drift in speed cancels (see README.md); standard error shows
each metric both as reported and as measured.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: every other operation runs with span-recording wrappers
around the package's public functions, the rest run bare, and the
difference of their medians is the tracing overhead. The spans are written
once, at the end, to ``.perfbench/spans-<workload>.json``.

Exit codes: 0 when every operation ran (failures are counted in the
result), 1 when the worker died, 2 on bad arguments or when no ksqrng
source tree is found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

import worker

WORKLOADS = ("noisy-pipeline", "ideal-pipeline", "noise-sweep")
# Timings are reported as on a host where worker.HostReference takes this
# long: each is scaled by REFERENCE_S / (the run's median reference time).
REFERENCE_S = 0.004
MIN_SETUP_SAMPLES = 5  # worker starts per run; extra ones only set up and exit
OUT_DIR = ".perfbench"

# noise-sweep grid: p_decay_10 crosses the certification edge near 0.286
# (p0 = 9/14), iq_sigma moves IQ misclassification from about 1e-9 to 3%.
SWEEP_DECAY = tuple(round(0.02 * i, 2) for i in range(1, 21))  # 0.02 .. 0.40
SWEEP_SIGMA = (0.12, 0.18, 0.24, 0.30, 0.36)
SWEEP_GRID = tuple(
    {"p_decay_10": d, "iq_sigma": s} for d in SWEEP_DECAY for s in SWEEP_SIGMA
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "extracted_bits_per_s": "bit/s",
    "analysed_bits_per_s": "bit/s",
    "peak_rss_mb": "MB",
    "config_latency_p50_s": "s",
    "config_latency_p90_s": "s",
}

STATS_TESTS = (
    "entropy_per_byte", "monobit", "block_frequency", "runs", "longest_run_of_ones",
    "approximate_entropy", "bucket_frequency",
)
# per-layer metric: (unit, span name, how the value is taken from each call)
PER_LAYER = {
    "protocol.run_batch_s": ("s", "protocol.run_batch", "self"),
    "protocol.ns_per_trial": ("ns", "protocol.run_batch", "ns_per_trial"),
    "protocol.trials": ("count", "protocol.run_batch", "trials"),
    "protocol.discards": ("count", "protocol.run_batch", "discards"),
    "protocol.minor_faults": ("count", "protocol.run_batch", "minor_faults"),
    "protocol.peak_alloc_mb": ("MB", "protocol.run_batch", "peak_alloc_mb"),
    "formats.write_trace_s": ("s", "formats.write_trace", "self"),
    "formats.read_trace_s": ("s", "formats.read_trace", "self"),
    "formats.write_bits_s": ("s", "formats.write_bits", "self"),
    "formats.read_bits_s": ("s", "formats.read_bits", "self"),
    "formats.read_trace_mb_per_s": ("MB/s", "formats.read_trace", "mb_per_s"),
    "formats.read_trace_peak_alloc_mb": ("MB", "formats.read_trace", "peak_alloc_mb"),
    "certify.build_report_s": ("s", "certify.build_report", "self"),
    "extract.to_bits_s": ("s", "extract.to_bits", "self"),
    "extract.von_neumann_s": ("s", "extract.von_neumann", "self"),
    "extract.input_bits": ("count", "extract.von_neumann", "input_bits"),
    "extract.output_bits": ("count", "extract.von_neumann", "output_bits"),
    "extract.yield": ("ratio", "extract.von_neumann", "yield"),
    **{f"stats.{t}_s": ("s", f"stats.{t}", "self") for t in STATS_TESTS},
    "stats.n_bits": ("count", "stats.build_stats_report", "n_bits"),
    "primality.carmichael_numbers_s": ("s", "primality.carmichael_numbers", "self"),
    "primality.carmichael_harness_s": ("s", "primality.carmichael_harness", "self"),
    "primality.numbers_tested": ("count", "primality.carmichael_harness", "numbers_tested"),
    "primality.witnesses": ("count", "primality.carmichael_harness", "witnesses"),
    "primality.bits_consumed": ("count", "primality.carmichael_harness", "bits_consumed"),
    **{f"cli.{c}_s": ("s", f"cli.{c}", "self") for c in worker.SUBCOMMANDS},
    "trace.overhead_s": ("s", None, None),
    "host.reference_ms": ("ms", None, None),
}


class WorkerDied(Exception):
    """The worker process ended before answering."""


def derive_seed(workload: str, seed: int, *index: int) -> int:
    """A 64-bit seed of its own for every timed operation of a run."""
    text = "|".join(["ksqrng-perfbench", workload, str(seed), *map(str, index)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def self_times(spans: list) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def pipeline_failures(out: dict, errors: dict) -> dict[str, list[str]]:
    """The subcommands of a pass that failed, with their problems: a
    non-zero exit code, an exception, or a failed output check."""
    failures = {}
    for name in worker.SUBCOMMANDS:
        problems = list(errors[name])
        code = out["codes"].get(name)
        if code != 0:
            problems.insert(0, f"exit code {code} {out['errors'].get(name, '')}".rstrip())
        if problems:
            failures[name] = problems
    return failures


def _span(spans: list, name: str):
    return next(s for s in spans if s[0] == name)


class Run:
    """One benchmark run: set-up samples, operations, checks, tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: str,
                 src: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir, self.src = workdir, src
        import checks

        self.checks = checks
        self.attempted = self.failed = 0
        self.correct = True
        self.setup = []
        self.units = []  # per pass (pipelines) or per configuration (sweep)
        self.rounds = []  # sweep: configuration latencies of each whole round
        self.traced_spans = []
        self.peak_rss_kb = []  # one per worker process that ran operations
        self.reference_s = []  # host reference samples, taken before operations
        self.certified_seen = set()
        self.gate_failures = 0

    # -- processes --

    @contextmanager
    def _worker(self, work_dir: str):
        """A fresh worker process, writing its files under ``work_dir``: one
        set-up sample, then operations until the block ends. Yields the pipe
        to it and a dict that receives the worker's peak RSS."""
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(worker.__file__), self.workload, work_dir,
             self.src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        conn = worker.Channel(proc.stdout, proc.stdin)
        state = {"max_rss_kb": None}
        done = False
        try:
            self.setup.append(conn.recv()["setup_s"])
            yield conn, state
            conn.send(None)
            done = True
        except (EOFError, BrokenPipeError, ConnectionResetError, pickle.UnpicklingError):
            raise WorkerDied from None
        finally:
            if not done:  # an error or a signal: do not wait for the operation
                proc.kill()
            try:
                conn.close()
            except BrokenPipeError:
                pass
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if state["max_rss_kb"] is not None:
            self.peak_rss_kb.append(state["max_rss_kb"])

    def run(self) -> None:
        if self.workload == "noise-sweep":
            self._sweep()
        else:
            self._pipeline()
        while len(self.setup) < MIN_SETUP_SAMPLES:
            with self._worker(self._fresh_dir()):
                pass

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="worker-", dir=self.workdir)

    # -- workloads --

    def _pipeline(self) -> None:
        trials, _ = worker.PIPELINES[self.workload]
        ideal = self.workload == "ideal-pipeline"
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            seed = derive_seed(self.workload, self.seed, index)
            traced = self.trace and index % 2 == 0
            work_dir = self._fresh_dir()
            with self._worker(work_dir) as (conn, state):
                conn.send(("pass", seed, traced))
                out = conn.recv()
                state["max_rss_kb"] = out["max_rss_kb"]
            errors, produced = self.checks.check_pipeline(
                work_dir, trials, seed, ideal, worker.BUCKET_SIZE, worker.SS_LIMIT,
                worker.SS_WITNESSES)
            shutil.rmtree(work_dir)
            self.attempted += len(worker.SUBCOMMANDS)
            failures = pipeline_failures(out, errors)
            self.failed += len(failures)
            self.correct &= not any(errors.values())
            for name, problems in failures.items():
                print(f"FAILED pass {index} {name}: {'; '.join(problems)[:2000]}",
                      file=sys.stderr)
            self._record(out, traced, produced, not failures, "pass", "cli.generate",
                         "cli.extract", "cli.stats")
            index += 1

    def _sweep(self) -> None:
        deadline = time.perf_counter() + self.seconds
        rnd = 0
        while rnd == 0 or time.perf_counter() < deadline:
            latencies = []
            with self._worker(self._fresh_dir()) as (conn, state):
                for index, params in enumerate(SWEEP_GRID):
                    seed = derive_seed(self.workload, self.seed, rnd, index)
                    traced = self.trace and (rnd + index) % 2 == 0
                    conn.send(("config", seed, params, traced))
                    out = conn.recv()
                    state["max_rss_kb"] = out["max_rss_kb"]
                    self.attempted += 1
                    if "error" in out:
                        errors, produced = [out["error"]], {}
                    else:
                        errors, produced = self.checks.check_sweep_config(
                            out, seed, params, worker.SWEEP_TRIALS, worker.BUCKET_SIZE,
                            worker.SS_LIMIT, worker.SS_WITNESSES)
                        self.correct &= not errors
                    if errors:
                        self.failed += 1
                        print(f"FAILED round {rnd} config {params}: "
                              f"{'; '.join(errors)[:2000]}", file=sys.stderr)
                    else:
                        self.certified_seen.add(produced["certified"])
                    unit = self._record(out, traced, produced, not errors, "config",
                                        "api.run_batch", "api.extract", "api.stats")
                    if unit is not None:
                        latencies.append(unit["latency"])
            if len(latencies) == len(SWEEP_GRID):
                self.rounds.append(sum(latencies))
            rnd += 1
        if self.certified_seen != {True, False}:
            print(f"the grid gave certification verdicts {self.certified_seen}, "
                  "expected configurations on both sides of the window edge", file=sys.stderr)
            self.correct = False

    def _record(self, out, traced, produced, ok, top, first, last, stats):
        self.reference_s += out.get("reference_s", [])
        spans = out.get("spans") or []
        if traced:
            self.traced_spans.append(spans)
        if not ok or not spans:
            return None
        self.gate_failures += produced["gate_failures"] > 1
        span_top, span_first, span_last, span_stats = (
            _span(spans, n) for n in (top, first, last, stats))
        unit = {
            "traced": traced,
            "latency": span_top[2] - span_top[1],
            "extracted_bits_per_s": produced["output_bits"] / (span_last[2] - span_first[1]),
            "analysed_bits_per_s": produced["analysed_bits"] / (span_stats[2] - span_stats[1]),
        }
        self.units.append(unit)
        return unit

    # -- metrics --

    def host_scale(self) -> float:
        """Factor that turns this run's seconds into reference-host seconds."""
        return REFERENCE_S / statistics.median(self.reference_s)

    def end_to_end(self, scale: float) -> dict:
        units = [u for u in self.units if not u["traced"]]
        latencies = [u["latency"] for u in units]
        median = statistics.median
        walls = self.rounds if self.workload == "noise-sweep" else latencies
        p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
               if len(latencies) > 1 else latencies[0])
        values = {
            "setup_s": median(self.setup) * scale,
            "wall_s": median(walls) * scale,
            "extracted_bits_per_s": median(u["extracted_bits_per_s"] for u in units) / scale,
            "analysed_bits_per_s": median(u["analysed_bits_per_s"] for u in units) / scale,
            "peak_rss_mb": max(self.peak_rss_kb) * 1024 / 1e6,
            "config_latency_p50_s": median(latencies) * scale,
            "config_latency_p90_s": p90 * scale,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self, scale: float) -> dict:
        calls: dict[str, list] = {}
        for spans in self.traced_spans:
            for record, self_s in zip(spans, self_times(spans)):
                calls.setdefault(record[0], []).append((record, self_s))

        def value(kind, record, self_s):
            duration = record[2] - record[1]
            counts = record[4]
            if kind == "self":
                return self_s * scale
            if kind == "ns_per_trial":
                return duration / counts["trials"] * 1e9 * scale
            if kind == "peak_alloc_mb":
                return counts["peak_alloc_bytes"] / 1e6
            if kind == "mb_per_s":
                return counts["bytes"] / duration / 1e6 / scale
            if kind == "yield":
                return counts["output_bits"] / counts["input_bits"]
            return counts[kind]

        metrics = {}
        for name, (unit, span_name, kind) in PER_LAYER.items():
            if span_name is None:
                continue
            found = [value(kind, r, s) for r, s in calls.get(span_name, [])]
            # a layer the workload never calls did no work: 0
            metrics[name] = {"value": statistics.median(found) if found else 0.0, "unit": unit}
        traced = [u["latency"] for u in self.units if u["traced"]]
        bare = [u["latency"] for u in self.units if not u["traced"]]
        overhead = statistics.median(traced) - statistics.median(bare) if traced and bare else 0.0
        metrics["trace.overhead_s"] = {"value": overhead * scale, "unit": "s"}
        metrics["host.reference_ms"] = {"value": statistics.median(self.reference_s) * 1e3,
                                        "unit": "ms"}
        return metrics

    def write_spans(self, path: str) -> None:
        records = [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent,
             "counts": counts}
            for op, spans in enumerate(self.traced_spans)
            for name, start, end, parent, counts in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="ksqrng benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so every worker is stopped and waited for


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    args = _parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ksqrng", "__init__.py")):
        print("perfbench: run from the root of a ksqrng checkout (no src/ksqrng here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, src)
    try:
        run.run()
    except WorkerDied:
        print("perfbench: a worker process ended before answering", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.units:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    scale = run.host_scale()
    if args.trace:
        metrics, raw = run.per_layer(scale), run.per_layer(1.0)
        run.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
    else:
        metrics, raw = run.end_to_end(scale), run.end_to_end(1.0)
    latencies = [u["latency"] for u in run.units]
    quartiles = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
    print(f"{args.workload}: {len(run.units)} timed operations, {len(run.rounds)} whole rounds, "
          f"{run.gate_failures} with more than one battery test failing "
          f"(chance at alpha = 0.01)", file=sys.stderr)
    print(f"  latency per operation (s, as measured): min {min(latencies):.4g}, quartiles "
          + ", ".join(f"{q:.4g}" for q in quartiles) + f", max {max(latencies):.4g}",
          file=sys.stderr)
    print(f"  host reference {statistics.median(run.reference_s) * 1e3:.4g} ms (median of "
          f"{len(run.reference_s)}); timings scaled by {scale:.4g} to a "
          f"{REFERENCE_S * 1e3:g} ms reference host", file=sys.stderr)
    print(f"  {'metric':36s} {'reported':>12s} {'as measured':>12s}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:12.6g} {raw[name]['value']:12.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
