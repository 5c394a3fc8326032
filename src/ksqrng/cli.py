"""Command-line pipeline: generate -> certify -> extract -> stats -> consume-ss.

A subcommand calls the library, writes its output file and emits the
``entries()`` of the report dataclass it got; ``--gate`` reads its fields.

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
from .formats import emit_report, read_bits, read_trace, write_bits, write_trace
from .primality import BitSource, carmichael_harness
from .protocol import run_batch

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
    p.add_argument("--workers", type=int, default=1, help="worker threads for noisy generation (output is identical)")

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


def _finish(args, report, failure: str | None) -> int:
    """Emit ``report``; under ``--gate``, a ``failure`` fails the run."""
    emit_report(report.entries(), args.report)
    if failure is not None and args.gate:
        print(f"gate failed: {failure}", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    if args.ideal:
        config = dataclasses.replace(config, ideal=True)
    stream, summary = run_batch(config, workers=args.workers)
    write_trace(stream, args.out)
    return _finish(args, summary, None)


def _cmd_certify(args) -> int:
    report = certify_mod.build_report(read_trace(args.infile))
    certified = report.certified_plus and report.certified_minus
    return _finish(args, report, None if certified else "at least one outcome is not certified")


def _cmd_extract(args) -> int:
    trace = read_trace(args.infile)
    out = extract_mod.von_neumann_extract(extract_mod.to_bits(trace))
    write_bits(out, args.out)
    return _finish(args, extract_mod.ExtractReport.of(trace, out), None)


def _cmd_stats(args) -> int:
    report = stats_mod.build_stats_report(read_bits(args.infile), args.bucket)
    applicable = [t for t in report.tests if t.applicable]
    failures = sum(1 for t in applicable if not t.passed)
    failure = f"{failures} of {len(applicable)} tests failed" if failures > 1 else None
    return _finish(args, report, failure)


def _cmd_consume_ss(args) -> int:
    result = carmichael_harness(args.limit, BitSource(read_bits(args.infile)), args.witnesses)
    return _finish(args, result, None if result.all_composite else "some numbers were not declared composite")


_COMMANDS = {
    "generate": _cmd_generate,
    "certify": _cmd_certify,
    "extract": _cmd_extract,
    "stats": _cmd_stats,
    "consume-ss": _cmd_consume_ss,
}


# built once per process: parsing keeps no state between calls
_PARSER = _build_parser()


def run_cli(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
