import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ksqrng import cli
from ksqrng.cli import run_cli
from ksqrng.formats import read_bits, read_trace, write_bits, write_trace
from ksqrng.bits import BitStream, Outcomes, RawStream, random_bits


def parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("trials = 200000\nseed = 424242\n")
    return tmp_path, config


def test_import_leaves_scipy_unloaded():
    # generate, certify, extract and consume-ss never call scipy, and
    # scipy.special is most of the time `import ksqrng.cli` would take
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import sys, ksqrng.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestGenerate:
    def test_deterministic_across_runs_and_workers(self, workspace):
        tmp, config = workspace
        args = ["generate", "--config", str(config)]
        assert run_cli(args + ["--out", str(tmp / "a.trace"), "--report", str(tmp / "a.rpt")]) == 0
        assert run_cli(args + ["--out", str(tmp / "b.trace"), "--report", str(tmp / "b.rpt")]) == 0
        assert run_cli(
            args + ["--out", str(tmp / "c.trace"), "--report", str(tmp / "c.rpt"), "--workers", "4"]
        ) == 0
        a = (tmp / "a.trace").read_bytes()
        assert a == (tmp / "b.trace").read_bytes()
        assert a == (tmp / "c.trace").read_bytes()
        assert (tmp / "a.rpt").read_bytes() == (tmp / "c.rpt").read_bytes()

    def test_ideal_flag_overrides_noise(self, workspace):
        tmp, config = workspace
        trace = tmp / "ideal.trace"
        report = tmp / "ideal.rpt"
        assert run_cli(
            ["generate", "--config", str(config), "--out", str(trace), "--ideal", "--report", str(report)]
        ) == 0
        fields = parse_report(report)
        assert fields["ideal"] == "true"
        assert fields["n_discard"] == "0"

    def test_invalid_config_exits_2_and_names_key(self, workspace, capsys):
        tmp, config = workspace
        config.write_text("trials = 1000\nseed = 1\np_thermal_1 = 1.5\n")
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")])
        assert code == 2
        assert "p_thermal_1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["iq_center_0 = 1e160, 0", "iq_sigma = 1e300", "gate_amp_error = 1e308"],
        ids=["centre-1e160", "sigma-1e300", "gate-1e308"],
    )
    def test_noise_outside_float_domain_exits_2(self, workspace, capsys, line):
        tmp, config = workspace
        config.write_text(f"trials = 16384\nseed = 1\n{line}\n")
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ")
        assert not (tmp / "x.trace").exists()

    def test_zero_workers_exits_2(self, workspace, capsys):
        tmp, config = workspace
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace"), "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp / "x.trace").exists()

    def test_out_of_memory_exits_2(self, workspace, capsys, monkeypatch):
        tmp, config = workspace

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.09 TiB for an array")

        monkeypatch.setattr(cli, "run_batch", exhausted)
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")])
        assert code == 2
        assert capsys.readouterr().err == "out of memory: Unable to allocate 9.09 TiB for an array\n"
        assert not (tmp / "x.trace").exists()

    @pytest.mark.parametrize(
        "trials, message",
        [
            (2**63, f"invalid input: n_trials {2**63} exceeds {2**63 - 1}, the largest array numpy can index"),
            (2**63 - 1, "out of memory: "),
        ],
        ids=["2^63", "2^63-1"],
    )
    def test_unindexable_trial_count_exits_2(self, workspace, capsys, trials, message):
        tmp, config = workspace
        config.write_text(f"trials = {trials}\nseed = 1\n")
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not (tmp / "x.trace").exists()

    def test_config_not_utf8_exits_2(self, workspace, capsys):
        tmp, config = workspace
        config.write_bytes(b"trials = 1000\nseed = 1\n# \xff\n")
        code = run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and "UTF-8" in err[0]
        assert not (tmp / "x.trace").exists()

    def test_missing_config_file_exits_3(self, workspace):
        tmp, _ = workspace
        assert run_cli(["generate", "--config", str(tmp / "nope.cfg"), "--out", str(tmp / "x")]) == 3

    def test_report_to_stdout(self, workspace, capsys):
        tmp, config = workspace
        config.write_text("trials = 1000\nseed = 5\n")
        assert run_cli(["generate", "--config", str(config), "--out", str(tmp / "x.trace")]) == 0
        out = capsys.readouterr().out
        assert "report = generate" in out
        assert "p0 = " in out


class TestCertify:
    def test_ideal_pipeline_certifies(self, workspace):
        tmp, config = workspace
        trace = tmp / "t.trace"
        report = tmp / "c.rpt"
        run_cli(["generate", "--config", str(config), "--out", str(trace), "--ideal"])
        assert run_cli(["certify", "--in", str(trace), "--report", str(report), "--gate"]) == 0
        fields = parse_report(report)
        assert fields["p_discard"] == "0.0"
        assert fields["certified_plus"] == "true"
        assert fields["certified_minus"] == "true"

    def test_gate_fails_on_degenerate_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        write_trace(RawStream(np.zeros(1000, dtype=np.uint8)), trace)
        code = run_cli(["certify", "--in", str(trace), "--report", str(tmp_path / "r"), "--gate"])
        assert code == 1
        assert "gate failed" in capsys.readouterr().err

    @pytest.mark.parametrize("trials,seed", [(65536, 2), (65536, 7), (200000, 314159)])
    def test_frequencies_match_generate_report(self, tmp_path, trials, seed):
        config = tmp_path / "run.cfg"
        config.write_text(f"trials = {trials}\nseed = {seed}\n")
        trace = tmp_path / "t.trace"
        gen, cert = tmp_path / "gen.rpt", tmp_path / "cert.rpt"
        assert run_cli(["generate", "--config", str(config), "--out", str(trace), "--report", str(gen)]) == 0
        assert run_cli(["certify", "--in", str(trace), "--report", str(cert)]) == 0
        keys = [f.name for f in dataclasses.fields(Outcomes)]

        def outcome_lines(path):
            return [line for line in path.read_text().splitlines() if line.split(" = ")[0] in keys]

        assert [line.split(" = ")[0] for line in outcome_lines(gen)] == keys
        assert outcome_lines(gen) == outcome_lines(cert)

    def test_corrupt_trace_exits_3(self, tmp_path):
        bad = tmp_path / "corrupt.trace"
        bad.write_bytes(b"NOTATRACE")
        assert run_cli(["certify", "--in", str(bad)]) == 3


class TestExtract:
    def test_extract_writes_bits_and_report(self, workspace):
        tmp, config = workspace
        trace = tmp / "t.trace"
        bits = tmp / "t.bits"
        report = tmp / "e.rpt"
        run_cli(["generate", "--config", str(config), "--out", str(trace)])
        assert run_cli(["extract", "--in", str(trace), "--out", str(bits), "--report", str(report)]) == 0
        fields = parse_report(report)
        stream = read_bits(bits)
        assert int(fields["output_bits"]) == len(stream)
        assert int(fields["input_bits"]) == read_trace(trace).n0 + read_trace(trace).n1

        # binary bits 0 1 1: one pair accepted, the odd last bit dropped; the
        # report fields of this trace and the next are pinned in TestReportBytes
        write_trace(RawStream(np.array([0, 2, 1, 1], dtype=np.uint8)), trace)
        assert run_cli(["extract", "--in", str(trace), "--out", str(bits), "--report", str(report)]) == 0
        assert list(read_bits(bits).bits) == [0]

        # discards only: no output bits
        write_trace(RawStream(np.array([2, 2], dtype=np.uint8)), trace)
        assert run_cli(["extract", "--in", str(trace), "--out", str(bits), "--report", str(report)]) == 0
        assert len(read_bits(bits)) == 0

    def test_matches_library_extraction(self, workspace):
        from ksqrng.extract import to_bits, von_neumann_extract

        tmp, config = workspace
        trace = tmp / "t.trace"
        bits = tmp / "t.bits"
        run_cli(["generate", "--config", str(config), "--out", str(trace)])
        run_cli(["extract", "--in", str(trace), "--out", str(bits)])
        expected = von_neumann_extract(to_bits(read_trace(trace)))
        assert read_bits(bits) == expected


class TestStats:
    def test_stats_report(self, tmp_path):
        bits = tmp_path / "r.bits"
        write_bits(random_bits(99, 500_000), bits)
        report = tmp_path / "s.rpt"
        assert run_cli(
            ["stats", "--in", str(bits), "--bucket", "100000", "--report", str(report), "--gate"]
        ) == 0
        fields = parse_report(report)
        assert float(fields["entropy_bits_per_byte"]) > 7.99
        assert fields["bucket.applicable"] == "true"
        assert int(fields["bucket.n_buckets"]) == 5
        assert "test.monobit.p_value" in fields

    def test_gate_fails_on_pathological_bits(self, tmp_path, capsys):
        bits = tmp_path / "zeros.bits"
        write_bits(BitStream(np.zeros(100_000, dtype=np.uint8)), bits)
        code = run_cli(["stats", "--in", str(bits), "--report", str(tmp_path / "s.rpt"), "--gate"])
        assert code == 1
        assert "gate failed" in capsys.readouterr().err

    def test_gate_allows_one_failure(self, tmp_path, monkeypatch):
        from ksqrng import stats

        bits = tmp_path / "r.bits"
        write_bits(random_bits(99, 100_000), bits)  # every test passes on these bits

        def failing(stream):
            return stats.TestResult(name="forced", statistic=0.0, p_value=0.0, passed=False)

        args = ["stats", "--in", str(bits), "--report", str(tmp_path / "s.rpt"), "--gate"]
        monkeypatch.setattr(stats, "monobit", failing)
        assert run_cli(args) == 0
        monkeypatch.setattr(stats, "runs", failing)
        assert run_cli(args) == 1

    def test_undersized_bit_file_exits_2(self, tmp_path):
        bits = tmp_path / "tiny.bits"
        write_bits(BitStream([1, 0, 1]), bits)
        assert run_cli(["stats", "--in", str(bits), "--report", str(tmp_path / "r")]) == 2


class TestConsumeSS:
    def test_all_composite(self, tmp_path):
        bits = tmp_path / "r.bits"
        write_bits(random_bits(5, 10**6), bits)
        report = tmp_path / "ss.rpt"
        assert run_cli(
            [
                "consume-ss",
                "--in", str(bits),
                "--limit", "2000",
                "--witnesses", "32",
                "--report", str(report),
                "--gate",
            ]
        ) == 0
        fields = parse_report(report)
        assert fields["numbers_tested"] == "3"
        assert fields["all_composite"] == "true"
        assert fields["ss.561.verdict"] == "composite"

    def test_gate_fails_on_euler_liar(self, tmp_path, capsys):
        # ten zero bits make the one witness a = 2, an Euler liar for 561
        bits = tmp_path / "zeros.bits"
        write_bits(BitStream(np.zeros(10, dtype=np.uint8)), bits)
        report = tmp_path / "ss.rpt"
        code = run_cli(
            ["consume-ss", "--in", str(bits), "--limit", "562", "--witnesses", "1", "--report", str(report), "--gate"]
        )
        assert code == 1
        assert "gate failed" in capsys.readouterr().err
        fields = parse_report(report)
        assert fields["ss.561.verdict"] == "probably_prime"
        assert fields["all_composite"] == "false"

    def test_exhaustion_exits_1(self, tmp_path, capsys):
        bits = tmp_path / "few.bits"
        write_bits(BitStream([1, 0, 1]), bits)
        code = run_cli(["consume-ss", "--in", str(bits), "--limit", "2000"])
        assert code == 1
        assert "exhausted" in capsys.readouterr().err

    def test_bad_limit_exits_2(self, tmp_path):
        bits = tmp_path / "r.bits"
        write_bits(random_bits(5, 1000), bits)
        assert run_cli(["consume-ss", "--in", str(bits), "--limit", "2"]) == 2
        assert run_cli(["consume-ss", "--in", str(bits), "--limit", "100", "--witnesses", "0"]) == 2

    @pytest.mark.parametrize(
        "limit, message",
        [
            (2**59, "out of memory: "),
            (2**60 - 1, "invalid input: limit "),
            (2**60, "invalid input: limit "),
            (2**63 - 1, "invalid input: limit "),
            (2**63, "invalid input: limit "),
            (10**30, "invalid input: limit "),
        ],
        ids=["2^59", "2^60-1", "2^60", "2^63-1", "2^63", "10^30"],
    )
    def test_unsizable_limit_exits_2(self, tmp_path, capsys, limit, message):
        bits = tmp_path / "r.bits"
        write_bits(random_bits(5, 1000), bits)
        assert run_cli(["consume-ss", "--in", str(bits), "--limit", str(limit)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run_cli(["generate", "--frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["generate", "--frobnicate"], 2)], ids=["help", "bad-flag"])
    def test_main_exits_with_run_cli_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["ksqrng", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        capsys.readouterr()

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # one process's run of calls, a usage error and --help among them,
        # gives the exit codes, output and files of a fresh process per call
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
        config = tmp_path / "run.cfg"
        config.write_text("trials = 20000\nseed = 9\n")
        write_bits(random_bits(3, 5000), tmp_path / "in.bits")

        def calls(out):
            out.mkdir()
            return [
                ["generate", "--config", str(config), "--out", str(out / "a.trace"), "--report", str(out / "gen.rpt")],
                ["stats", "--in", str(tmp_path / "in.bits"), "--bucket", "0"],
                ["generate", "--config", str(config)],
                ["stats", "--in", str(tmp_path / "in.bits"), "--bucket", "1000", "--report", str(out / "stats.rpt")],
                ["--help"],
            ]

        shared = []
        for argv in calls(tmp_path / "shared"):
            shared.append((run_cli(argv), *capsys.readouterr()))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        fresh = []
        for argv in calls(tmp_path / "fresh"):
            done = subprocess.run([sys.executable, "-m", "ksqrng", *argv], env=env, capture_output=True, text=True)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert [call[0] for call in shared] == [0, 2, 2, 0, 0]
        assert shared == fresh
        files = sorted(path.name for path in (tmp_path / "shared").iterdir())
        assert files == ["a.trace", "gen.rpt", "stats.rpt"]
        for name in files:
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


BIASED_STATS_REPORT = """\
report = stats
n_bits = 1000
entropy_bits_per_byte = 5.855304285058291
test.monobit.applicable = true
test.monobit.statistic = 12.83884730028362
test.monobit.p_value = 9.934260056552911e-38
test.monobit.pass = false
test.block_frequency.applicable = true
test.block_frequency.statistic = 152.0
test.block_frequency.p_value = 1.5431491022103078e-29
test.block_frequency.pass = false
test.runs.applicable = true
test.runs.statistic = nan
test.runs.p_value = 0.0
test.runs.pass = false
test.runs.note = one-fraction precondition failed
test.longest_run_of_ones.applicable = true
test.longest_run_of_ones.statistic = 109.06465082522357
test.longest_run_of_ones.p_value = 1.7443060017119245e-23
test.longest_run_of_ones.pass = false
test.approximate_entropy.applicable = false
test.approximate_entropy.statistic = nan
test.approximate_entropy.p_value = nan
test.approximate_entropy.pass = false
test.approximate_entropy.note = needs at least 2^15 bits for m=10
bucket.size = 999302
bucket.applicable = false
"""

ODD_EXTRACT_REPORT = """\
report = extract
input_bits = 7
pairs = 3
accepted_pairs = 2
dropped_trailing_bit = true
output_bits = 2
realized_yield = 0.2857142857142857
input_zero_fraction = 0.42857142857142855
expected_yield = 0.24489795918367344
"""

DISCARD_EXTRACT_REPORT = """\
report = extract
input_bits = 0
pairs = 0
accepted_pairs = 0
dropped_trailing_bit = false
output_bits = 0
realized_yield = 0.0
input_zero_fraction = nan
expected_yield = nan
"""


class TestReportBytes:
    # the report lines that no digest in test_digests.py covers: notes, a
    # missing bucket, an odd binary count and a trace with no binary symbol
    def test_biased_stats_report(self, tmp_path):
        bits = np.random.default_rng(7).random(1000) < 0.7
        write_bits(BitStream(bits.astype(np.uint8)), tmp_path / "b.bits")
        report = tmp_path / "s.rpt"
        assert run_cli(["stats", "--in", str(tmp_path / "b.bits"), "--report", str(report)]) == 0
        assert report.read_bytes() == BIASED_STATS_REPORT.encode()

    @pytest.mark.parametrize(
        "symbols, expected",
        [([0, 2, 1, 1, 0, 1, 2, 1, 0], ODD_EXTRACT_REPORT), ([2, 2, 2], DISCARD_EXTRACT_REPORT)],
        ids=["odd", "all-discard"],
    )
    def test_extract_report(self, tmp_path, symbols, expected):
        trace, report = tmp_path / "t.trace", tmp_path / "e.rpt"
        write_trace(RawStream(np.array(symbols, dtype=np.uint8)), trace)
        assert run_cli(["extract", "--in", str(trace), "--out", str(tmp_path / "o.bits"), "--report", str(report)]) == 0
        assert report.read_bytes() == expected.encode()


def report_lines(entries):
    """The lines of a report file holding ``entries``."""
    return [f"{key} = {str(value).lower() if isinstance(value, bool) else value}" for key, value in entries]


class TestEntries:
    # each report dataclass, built through the library, has as entries()
    # the lines the CLI writes for the same input
    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_batch_summary(self, tmp_path, ideal):
        from ksqrng.protocol import ProtocolConfig, run_batch

        config = tmp_path / "run.cfg"
        config.write_text("trials = 20000\nseed = 77\n")
        report = tmp_path / "gen.rpt"
        argv = ["generate", "--config", str(config), "--out", str(tmp_path / "t.trace"), "--report", str(report)]
        assert run_cli(argv + (["--ideal"] if ideal else [])) == 0
        _, summary = run_batch(ProtocolConfig(n_trials=20000, seed=77, ideal=ideal))
        assert report_lines(summary.entries()) == report.read_text().splitlines()

    @pytest.mark.parametrize("symbols", [[0, 1, 1, 2, 0], [0] * 7 + [1] * 5], ids=["discards", "binary"])
    def test_certification_report(self, tmp_path, symbols):
        from ksqrng.certify import build_report

        trace, report = tmp_path / "t.trace", tmp_path / "cert.rpt"
        write_trace(RawStream(np.array(symbols, dtype=np.uint8)), trace)
        assert run_cli(["certify", "--in", str(trace), "--report", str(report)]) == 0
        assert report_lines(build_report(read_trace(trace)).entries()) == report.read_text().splitlines()

    @pytest.mark.parametrize(
        "symbols",
        [[0, 2, 1, 1, 0, 1, 2, 1, 0], [2, 2, 2], np.random.default_rng(4).integers(0, 3, 5001)],
        ids=["odd", "all-discard", "drawn"],
    )
    def test_extract_report(self, tmp_path, symbols):
        from ksqrng.extract import ExtractReport, to_bits, von_neumann_extract

        trace, report = tmp_path / "t.trace", tmp_path / "e.rpt"
        write_trace(RawStream(np.array(symbols, dtype=np.uint8)), trace)
        assert run_cli(["extract", "--in", str(trace), "--out", str(tmp_path / "o.bits"), "--report", str(report)]) == 0
        stream = read_trace(trace)
        expected = ExtractReport.of(stream, von_neumann_extract(to_bits(stream)))
        assert report_lines(expected.entries()) == report.read_text().splitlines()

    @pytest.mark.parametrize(
        "bits, bucket",
        [
            (random_bits(12, 50_000), 10_000),
            (BitStream((np.random.default_rng(7).random(1000) < 0.7).astype(np.uint8)), 999302),
        ],
        ids=["buckets", "biased-no-bucket"],
    )
    def test_stats_report(self, tmp_path, bits, bucket):
        from ksqrng.stats import build_stats_report

        path, report = tmp_path / "b.bits", tmp_path / "s.rpt"
        write_bits(bits, path)
        assert run_cli(["stats", "--in", str(path), "--bucket", str(bucket), "--report", str(report)]) == 0
        assert report_lines(build_stats_report(bits, bucket).entries()) == report.read_text().splitlines()

    @pytest.mark.parametrize("limit, witnesses", [(2000, 8), (562, 1)])
    def test_harness_result(self, tmp_path, limit, witnesses):
        from ksqrng.primality import BitSource, carmichael_harness

        bits = random_bits(6, 100_000)
        path, report = tmp_path / "b.bits", tmp_path / "ss.rpt"
        write_bits(bits, path)
        argv = ["consume-ss", "--in", str(path), "--limit", str(limit), "--witnesses", str(witnesses)]
        assert run_cli(argv + ["--report", str(report)]) == 0
        result = carmichael_harness(limit, BitSource(bits), witnesses)
        assert report_lines(result.entries()) == report.read_text().splitlines()


class TestFullPipelineDeterminism:
    def test_report_bytes_stable_end_to_end(self, tmp_path):
        config = tmp_path / "p.cfg"
        config.write_text("trials = 150000\nseed = 1001\n")

        def run_pipeline(tag):
            trace = tmp_path / f"{tag}.trace"
            bits = tmp_path / f"{tag}.bits"
            reports = [tmp_path / f"{tag}.{name}.rpt" for name in ("gen", "cert", "ext", "stat", "ss")]
            assert run_cli(["generate", "--config", str(config), "--out", str(trace), "--report", str(reports[0])]) == 0
            assert run_cli(["certify", "--in", str(trace), "--report", str(reports[1])]) == 0
            assert run_cli(["extract", "--in", str(trace), "--out", str(bits), "--report", str(reports[2])]) == 0
            assert run_cli(["stats", "--in", str(bits), "--bucket", "10000", "--report", str(reports[3])]) == 0
            assert run_cli(["consume-ss", "--in", str(bits), "--limit", "2000", "--report", str(reports[4])]) == 0
            return [r.read_bytes() for r in reports] + [trace.read_bytes(), bits.read_bytes()]

        assert run_pipeline("one") == run_pipeline("two")
