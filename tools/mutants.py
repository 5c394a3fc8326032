"""Boundary mutants of the ksqrng modules: which flipped comparison do the
tests miss?

For each ``<``, ``<=``, ``>`` and ``>=`` in ``src/ksqrng/<module>.py``, one at
a time, the script flips the operator's strictness (``<`` and ``<=``, ``>``
and ``>=``) in a temporary copy of ``src/`` and ``tests/`` and runs the
module's test files there with ``pytest -x``. A flaky test would count a
mutant killed that no test detects, so the unmutated tests run twice first,
and the module is not surveyed unless both runs pass; and a mutant counts
as killed only when the test node that failed, rerun alone on the mutant,
fails again. That node is printed beside the kill. A flip is keyed
"<module>.py: <function>: <mutant>" by the innermost ``def`` that holds it.
It prints every survivor and the counts, and exits 1 when a survivor is not
in ``tools/equivalent_mutants.txt``, the survivors accepted as changing no
output, or when an entry there names more than one flip of its module. The
checkout is never edited. It uses the standard library only, and takes
minutes, so it is not part of Tier-1; CI runs it on every module as a job
of its own.

    python tools/mutants.py protocol readout extract bits formats certify config cli qutrit stats primality
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().with_name("equivalent_mutants.txt")
FLIP = {ast.Lt: b"<=", ast.LtE: b"<", ast.Gt: b">=", ast.GtE: b">"}
OPERATOR = re.compile(rb"<=|>=|<|>")
# the test files each module is judged by; any other module by tests/test_<module>.py
TESTS = {
    "readout": ["test_readout.py", "test_protocol.py"],
    "bits": ["test_protocol.py", "test_formats.py"],
}


class Mutant(NamedTuple):
    line: int
    start: int  # byte span of the operator in the module's source
    end: int
    flipped: bytes
    text: str  # the mutated comparison, e.g. "w3 > lo"
    function: str  # the innermost enclosing def, or "<module>"

    def key(self, module: str) -> str:
        return f"{module}.py: {self.function}: {self.text}"


def mutants(source: bytes) -> list[Mutant]:
    """Every flippable operator of ``source``, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    def segment(node):
        text = source[offset(node.lineno, node.col_offset) : offset(node.end_lineno, node.end_col_offset)]
        return " ".join(text.decode().split())

    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) not in FLIP:
                    continue
                lo = offset(left.end_lineno, left.end_col_offset)
                match = OPERATOR.search(source, lo, offset(right.lineno, right.col_offset))
                flipped = FLIP[type(op)]
                text = f"{segment(left)} {flipped.decode()} {segment(right)}"
                found.append(Mutant(left.end_lineno, match.start(), match.end(), flipped, text, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda m: m.start)


def module_keys(module: str) -> list[str]:
    """The key of every flip of ``src/ksqrng/<module>.py``, in source order."""
    source = (ROOT / "src" / "ksqrng" / f"{module}.py").read_bytes()
    return [m.key(module) for m in mutants(source)]


def accepted() -> dict[str, str]:
    """The accepted equivalent mutants, "<module>.py: <function>: <mutant>",
    with their reasons."""
    out = {}
    for line in EQUIVALENT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition(" -- ")
            out[key.strip()] = reason.strip()
    return out


def run_tests(workdir: Path, tests: list[str], timeout: float | None) -> tuple[int | None, list[str], float]:
    """Run the test files or nodes ``tests`` in ``workdir``; return pytest's
    exit code (None when the run timed out), the failing nodes, from
    pytest's last-failed cache, cleared before each run, and the seconds."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--cache-clear", "-o", "addopts="]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd + tests, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [], time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    lastfailed = workdir / ".pytest_cache" / "v" / "cache" / "lastfailed"
    nodes = sorted(json.loads(lastfailed.read_text())) if done.returncode and lastfailed.exists() else []
    return done.returncode, nodes, seconds


def survey(module: str, tests: list[str]) -> tuple[int, list[str]]:
    """Run every mutant of ``module``; return the count and the survivors'
    keys. Exits before any mutant runs unless the unmutated tests pass
    twice."""
    with tempfile.TemporaryDirectory(prefix="ksqrng-mutants-") as tmp:
        workdir = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, workdir / name)
        path = workdir / "src" / "ksqrng" / f"{module}.py"
        source = path.read_bytes()
        files = [f"tests/{t}" for t in tests]
        seconds = 0.0
        for attempt in (1, 2):
            code, nodes, took = run_tests(workdir, files, None)
            if code != 0:
                sys.exit(f"{module}: unmutated run {attempt} of {tests} failed at {nodes or code}; fix or steady them first")
            seconds = max(seconds, took)
        timeout = 10 * seconds + 60
        found = mutants(source)
        survivors = []
        for k, m in enumerate(found, 1):
            path.write_bytes(source[: m.start] + m.flipped + source[m.end :])
            code, nodes, _ = run_tests(workdir, files, timeout)
            if code is None:
                verdict = "killed (timed out)"
            elif nodes and run_tests(workdir, nodes[:1], timeout)[0] != 0:
                verdict = f"killed by {nodes[0]}"
            else:
                survivors.append(m.key(module))
                verdict = "SURVIVED"
                if nodes:
                    verdict += f" ({nodes[0]} failed, then passed alone)"
                elif code:
                    verdict += f" (pytest exit code {code} without a failing node)"
            print(f"  [{k}/{len(found)}] {verdict} line {m.line}: {m.text}", flush=True)
    return len(found), survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/ksqrng, e.g. protocol")
    args = parser.parse_args(argv)
    equivalent = accepted()
    for module in args.modules:
        keys = module_keys(module)
        ambiguous = [e for e in equivalent if keys.count(e) > 1]
        if ambiguous:
            print(f"{module}.py: entries naming more than one flip: {ambiguous}")
            return 1
    summary = []
    for module in args.modules:
        tests = TESTS.get(module, [f"test_{module}.py"])
        print(f"{module}.py against {', '.join(tests)}", flush=True)
        summary.append((module, *survey(module, tests)))
    unexplained = 0
    print()
    for module, total, survivors in summary:
        print(f"{module}.py: {len(survivors)} of {total} mutants survived")
        for s in survivors:
            reason = equivalent.get(s)
            unexplained += reason is None
            print(f"  {s}  ({'equivalent: ' + reason if reason else 'NOT ACCEPTED'})")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
