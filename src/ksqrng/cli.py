"""Command-line pipeline: generate -> certify -> extract -> stats -> consume-ss.

Exit codes: 0 success, 1 analysis failure (a --gate check did not hold, or
the bit supply ran out mid-analysis), 2 usage or configuration error, or
the run did not fit in memory, 3 I/O or file-parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import certify as certify_mod
from . import extract as extract_mod
from . import stats as stats_mod
from .config import load_config
from .errors import BitSourceExhaustedError, ConfigError, FormatError, ValidationError
from .formats import read_bits, read_trace, write_bits, write_trace
from .primality import BitSource, carmichael_harness
from .protocol import run_batch
from .reports import emit_report

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_BUCKET_SIZE = 999302
DEFAULT_SS_LIMIT = 100000
DEFAULT_SS_WITNESSES = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksqrng",
        description="Simulate and validate a contextuality-certified qutrit RNG pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run the protocol and write a trace file")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--report", help="write the generation report here instead of stdout")
    p.add_argument("--ideal", action="store_true", help="override noise: run the ideal protocol")
    p.add_argument("--workers", type=int, default=1, help="worker threads (output is identical)")

    p = sub.add_parser("certify", help="certification report from a trace file")
    p.add_argument("--in", dest="infile", required=True, help="input trace file")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--gate", action="store_true", help="exit 1 unless both outcomes certify")

    p = sub.add_parser("extract", help="debias a trace into a packed bit file")
    p.add_argument("--in", dest="infile", required=True, help="input trace file")
    p.add_argument("--out", required=True, help="output bit file")
    p.add_argument("--report", help="write the yield report here instead of stdout")

    p = sub.add_parser("stats", help="entropy, test battery and bucket analysis of a bit file")
    p.add_argument("--in", dest="infile", required=True, help="input bit file")
    p.add_argument("--bucket", type=int, default=DEFAULT_BUCKET_SIZE, help="bucket size in bits")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 if more than one applicable battery test fails",
    )

    p = sub.add_parser("consume-ss", help="Solovay-Strassen Carmichael harness over a bit file")
    p.add_argument("--in", dest="infile", required=True, help="input bit file")
    p.add_argument("--limit", type=int, default=DEFAULT_SS_LIMIT, help="test numbers below this")
    p.add_argument("--witnesses", type=int, default=DEFAULT_SS_WITNESSES, help="witnesses per number")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--gate", action="store_true", help="exit 1 unless every number is composite")

    return parser


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    if args.ideal:
        config = dataclasses.replace(config, ideal=True)
    stream, summary = run_batch(config, workers=args.workers)
    write_trace(stream, args.out)
    fields = dataclasses.asdict(summary)
    emit_report(
        [
            ("report", "generate"),
            ("trials", fields.pop("n_trials")),
            ("seed", config.seed),
            ("ideal", config.ideal),
            *fields.items(),
        ],
        args.report,
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    stream = read_trace(args.infile)
    report = certify_mod.build_report(stream)
    emit_report(
        [
            ("report", "certify"),
            ("n0", stream.n0),
            ("n1", stream.n1),
            ("n_discard", stream.n_discard),
            *dataclasses.asdict(report).items(),
        ],
        args.report,
    )
    if args.gate and not (report.certified_plus and report.certified_minus):
        print("gate failed: at least one outcome is not certified", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_extract(args) -> int:
    trace = read_trace(args.infile)
    binary = extract_mod.to_bits(trace)
    out = extract_mod.von_neumann_extract(binary)
    write_bits(out, args.out)
    n_in, n_out = len(binary), len(out)
    zero_fraction = trace.n0 / n_in if n_in else float("nan")
    emit_report(
        [
            ("report", "extract"),
            ("input_bits", n_in),
            ("pairs", n_in // 2),
            ("accepted_pairs", n_out),
            ("dropped_trailing_bit", bool(n_in % 2)),
            ("output_bits", n_out),
            ("realized_yield", n_out / n_in if n_in else 0.0),
            ("input_zero_fraction", zero_fraction),
            ("expected_yield", extract_mod.expected_yield(zero_fraction)),
        ],
        args.report,
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    bits = read_bits(args.infile)
    report = stats_mod.build_stats_report(bits, args.bucket)
    entries = [
        ("report", "stats"),
        ("n_bits", report.n_bits),
        ("entropy_bits_per_byte", report.entropy_bits_per_byte),
    ]
    for t in report.tests:
        entries.append((f"test.{t.name}.applicable", t.applicable))
        entries.append((f"test.{t.name}.statistic", t.statistic))
        entries.append((f"test.{t.name}.p_value", t.p_value))
        entries.append((f"test.{t.name}.pass", t.passed))
        if t.note:
            entries.append((f"test.{t.name}.note", t.note))
    entries.append(("bucket.size", report.bucket_size))
    entries.append(("bucket.applicable", report.bucket is not None))
    if report.bucket is not None:
        entries.append(("bucket.n_buckets", report.bucket.n_buckets))
        entries.append(("bucket.mean_zero_frequency", report.bucket.mean))
        entries.append(("bucket.stddev", report.bucket.stddev))
        entries.append(
            ("bucket.binomial_stddev", stats_mod.binomial_bucket_stddev(report.bucket_size))
        )
    emit_report(entries, args.report)
    if args.gate:
        applicable = [t for t in report.tests if t.applicable]
        failures = sum(1 for t in applicable if not t.passed)
        if failures > 1:
            print(f"gate failed: {failures} of {len(applicable)} tests failed", file=sys.stderr)
            return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_consume_ss(args) -> int:
    bits = read_bits(args.infile)
    result = carmichael_harness(args.limit, BitSource(bits), args.witnesses)
    entries = [
        ("report", "consume-ss"),
        ("limit", args.limit),
        ("max_witnesses", args.witnesses),
        ("numbers_tested", len(result.verdicts)),
    ]
    for v in result.verdicts:
        entries.append((f"ss.{v.number}.verdict", v.verdict))
        entries.append((f"ss.{v.number}.witnesses_used", v.witnesses_used))
        entries.append((f"ss.{v.number}.bits_consumed", v.bits_consumed))
    entries.append(("total_bits_consumed", result.total_bits_consumed))
    entries.append(("total_witnesses", result.total_witnesses))
    entries.append(("all_composite", result.all_composite))
    emit_report(entries, args.report)
    if args.gate and not result.all_composite:
        print("gate failed: some numbers were not declared composite", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "certify": _cmd_certify,
    "extract": _cmd_extract,
    "stats": _cmd_stats,
    "consume-ss": _cmd_consume_ss,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BitSourceExhaustedError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
