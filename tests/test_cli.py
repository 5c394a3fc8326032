import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ksqrng import cli
from ksqrng.cli import run_cli
from ksqrng.formats import read_bits, read_trace, write_bits, write_trace
from ksqrng.bits import BitStream, random_bits
from ksqrng.protocol import RawStream


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
        keys = ("p0", "p1", "p_discard", "p0_stderr", "p1_stderr", "p_discard_stderr")

        def frequency_lines(path):
            return [line for line in path.read_text().splitlines() if line.split(" = ")[0] in keys]

        assert len(frequency_lines(gen)) == len(keys)
        assert frequency_lines(gen) == frequency_lines(cert)

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

        # binary bits 0 1 1: one pair accepted, the odd last bit dropped
        write_trace(RawStream(np.array([0, 2, 1, 1], dtype=np.uint8)), trace)
        assert run_cli(["extract", "--in", str(trace), "--out", str(bits), "--report", str(report)]) == 0
        fields = parse_report(report)
        assert list(read_bits(bits).bits) == [0]
        assert fields["input_bits"] == "3"
        assert fields["pairs"] == "1"
        assert fields["accepted_pairs"] == "1"
        assert fields["dropped_trailing_bit"] == "true"
        assert fields["output_bits"] == "1"
        assert fields["input_zero_fraction"] == repr(1 / 3)

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


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run_cli(["generate", "--frobnicate"]) == 2
        capsys.readouterr()


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
