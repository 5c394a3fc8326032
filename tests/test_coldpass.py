"""``tools/coldpass.py`` replays perfbench's pass pattern in fresh processes
and prints a median row per subcommand for each tree."""

import subprocess
import sys
from pathlib import Path

from ksqrng import protocol

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_one_tree_on_both_sides():
    src = str(Path(protocol.__file__).resolve().parents[1])
    cmd = [sys.executable, str(ROOT / "tools" / "coldpass.py"), "--base", src, "--change", src]
    done = subprocess.run(cmd + ["--trials", str(1 << 14), "--rounds", "1"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("noisy-pipeline, 1 cold passes per tree")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["generate", "certify", "extract", "stats", "consume-ss", "pass"]
    for name, (base_ms, base_faults, change_ms, change_faults) in rows.items():
        assert float(base_ms) > 0 and float(change_ms) > 0, name
        assert int(base_faults) >= 0 and int(change_faults) >= 0, name
