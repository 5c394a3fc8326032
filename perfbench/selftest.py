"""Self-test of the benchmark's output checks: every check must bite.

    python3 perfbench/selftest.py

Run from the root of a ksqrng checkout. It runs one small pass of each
pipeline and one noise-sweep configuration in this process, confirms that
their outputs pass every check, then corrupts copies of the outputs (a
flipped bit in the bit file, a wrong count in each report, a changed trace
byte, a flipped extracted bit in memory, ...) and confirms that each
corruption fails a check and is counted as a failed operation by the same
accounting ``run.py`` uses. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.abspath("src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SMALL_TRIALS = 1 << 14


def _rewrite_report(path: str, key: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        name, _, value = line.partition(" = ")
        if name == key:
            lines[i] = f"{name} = {change(value)}"
            break
    else:
        raise KeyError(key)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _patch_byte(path: str, offset: int, change) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        value = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([change(value)]))


def _first_byte(path: str, start: int, value: int) -> int:
    with open(path, "rb") as fh:
        return fh.read().index(bytes([value]), start)


def _plus_one(value: str) -> str:
    return str(int(value) + 1)


PIPELINE_CORRUPTIONS = [
    # (case, expected failing subcommand, corruption of the pass directory)
    ("bit file: one flipped bit", "extract",
     lambda d: _patch_byte(os.path.join(d, "bits.ksq"), 20, lambda b: b ^ 0x04)),
    ("trace: one 0 byte changed to 1", "generate",
     lambda d: _patch_byte(os.path.join(d, "raw.trace"),
                           _first_byte(os.path.join(d, "raw.trace"), 17, 0), lambda b: 1)),
    ("generate report: n0 off by one", "generate",
     lambda d: _rewrite_report(os.path.join(d, "gen.rpt"), "n0", _plus_one)),
    ("certify report: n1 off by one", "certify",
     lambda d: _rewrite_report(os.path.join(d, "cert.rpt"), "n1", _plus_one)),
    ("certify report: flag flipped", "certify",
     lambda d: _rewrite_report(os.path.join(d, "cert.rpt"), "certified_plus",
                               lambda v: "false" if v == "true" else "true")),
    ("extract report: output_bits off by one", "extract",
     lambda d: _rewrite_report(os.path.join(d, "yield.rpt"), "output_bits", _plus_one)),
    ("stats report: n_bits off by one", "stats",
     lambda d: _rewrite_report(os.path.join(d, "stats.rpt"), "n_bits", _plus_one)),
    ("stats report: monobit p-value changed", "stats",
     lambda d: _rewrite_report(os.path.join(d, "stats.rpt"), "test.monobit.p_value",
                               lambda v: repr(float(v) * 0.999))),
    ("consume-ss report: bits_consumed off by one", "consume-ss",
     lambda d: _rewrite_report(os.path.join(d, "ss.rpt"), "total_bits_consumed", _plus_one)),
    ("consume-ss report: witnesses_used off by one", "consume-ss",
     lambda d: _rewrite_report(os.path.join(d, "ss.rpt"), "ss.561.witnesses_used",
                               _plus_one)),
]


def _flip_bits(p):
    bits = bytearray(p["bits"])
    bits[7] ^= 1
    p["bits"] = bytes(bits)


def _change_symbol(p):
    symbols = bytearray(p["symbols"])
    symbols[symbols.index(0)] = 1
    p["symbols"] = bytes(symbols)


def _set(section, key, change):
    def corrupt(p):
        p[section][key] = change(p[section][key])
    return corrupt


SWEEP_CORRUPTIONS = [
    ("sweep: one flipped extracted bit", _flip_bits),
    ("sweep: one changed symbol", _change_symbol),
    ("sweep: summary n_discard off by one", _set("summary", "n_discard", lambda v: v + 1)),
    ("sweep: certified_minus flipped", _set("cert", "certified_minus", lambda v: not v)),
    ("sweep: entropy changed", _set("stats", "entropy_bits_per_byte", lambda v: v - 1e-6)),
    ("sweep: total_bits_consumed off by one",
     _set("harness", "total_bits_consumed", lambda v: v + 1)),
]


class SelfTest:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ksq = worker._import_ksqrng()
        self.problems: list[str] = []

    def expect(self, case: str, failed: list[str], wanted: str | None) -> None:
        ok = (not failed) if wanted is None else (wanted in failed)
        verdict = "ok  " if ok else "BAD "
        print(f"{verdict} {case}: failed operations {failed or 'none'}")
        if not ok:
            self.problems.append(case)

    def pipeline(self, workload: str) -> None:
        ideal = workload == "ideal-pipeline"
        clean = os.path.join(self.workdir, workload)
        os.mkdir(clean)
        seed = run.derive_seed(workload, 0, 0)
        out = worker.pipeline_pass(self.ksq, worker.Spans(), workload, clean, seed, SMALL_TRIALS)

        def failed_ops(directory: str) -> list[str]:
            errors, _ = checks.check_pipeline(
                directory, SMALL_TRIALS, seed, ideal, worker.BUCKET_SIZE, worker.SS_LIMIT,
                worker.SS_WITNESSES)
            return sorted(run.pipeline_failures(out, errors))

        self.expect(f"{workload}: clean outputs", failed_ops(clean), None)
        cases = list(PIPELINE_CORRUPTIONS)
        if ideal:
            cases.append((
                "ideal trace: one 0 byte changed to discard", "generate",
                lambda d: _patch_byte(os.path.join(d, "raw.trace"),
                                      _first_byte(os.path.join(d, "raw.trace"), 17, 0),
                                      lambda b: 2),
            ))
        for index, (case, wanted, corrupt) in enumerate(cases):
            corrupted = os.path.join(self.workdir, f"{workload}-{index}")
            shutil.copytree(clean, corrupted)
            corrupt(corrupted)
            self.expect(f"{workload}: {case}", failed_ops(corrupted), wanted)

    def sweep(self) -> None:
        params = {"p_decay_10": 0.072, "iq_sigma": 0.18}
        seed = run.derive_seed("noise-sweep", 0, 0, 0)
        payload = worker.sweep_config(self.ksq, worker.Spans(), seed, params)

        def failed_ops(p) -> list[str]:
            errors, _ = checks.check_sweep_config(
                p, seed, params, worker.SWEEP_TRIALS, worker.BUCKET_SIZE, worker.SS_LIMIT,
                worker.SS_WITNESSES)
            return ["config"] if errors else []

        self.expect("noise-sweep: clean results", failed_ops(payload), None)
        for case, corrupt in SWEEP_CORRUPTIONS:
            corrupted = copy.deepcopy(payload)
            corrupt(corrupted)
            self.expect(case, failed_ops(corrupted), "config")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "ksqrng", "__init__.py")):
        print("selftest: run from the root of a ksqrng checkout", file=sys.stderr)
        return 2
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        test = SelfTest(workdir)
        test.pipeline("noisy-pipeline")
        test.pipeline("ideal-pipeline")
        test.sweep()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if test.problems:
        print(f"{len(test.problems)} case(s) misbehaved: {test.problems}")
        return 1
    print("every check passed clean output and failed each corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
