"""First-call cost of each pipeline subcommand, in fresh processes.

perfbench starts a new worker process for its passes, and a user starts a
new process for each ``ksqrng`` command, so the first large call in a
process pays for page faults that warm repeat calls in one process do not.
This script replays perfbench's pass pattern in a fresh process per pass:
``worker._setup`` (the imports and the small warm-up pass), the pass's host
reference samples, then one ``pipeline_pass``. It alternates two ``src/``
trees, the base first in odd rounds and the change first in even ones, and
prints each subcommand's median wall time in ms and its median minor page
faults (``ru_minflt`` of the process around the call).

It imports ``perfbench/worker.py`` read-only and uses the standard library
only.

    python tools/coldpass.py --base ../parent/src --change src --rounds 10
    python tools/coldpass.py --base src --change src --trials 16384 --rounds 1
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def one_pass(src: str, workload: str, trials: int | None) -> dict:
    """One cold pass of ``workload`` on the package in ``src``, in this
    process: ``{subcommand: [ms, minor faults, exit code]}``."""
    sys.path.insert(0, src)
    worker = _load_worker()
    trials = worker.PIPELINES[workload][0] if trials is None else trials
    with tempfile.TemporaryDirectory(prefix="coldpass-") as workdir:
        ksq, _ = worker._setup(workload, workdir)
        reference = worker.HostReference()
        for _ in range(worker.HostReference.REPS["pass"]):
            reference.measure()
        run_cli = ksq["cli"].run_cli
        calls = {}

        def counted(argv):
            f0, t0, code = _minor_faults(), time.perf_counter(), None
            try:
                code = run_cli(argv)
                return code
            finally:
                calls[argv[0]] = [(time.perf_counter() - t0) * 1e3, _minor_faults() - f0, code]

        # pipeline_pass reads run_cli off ksq["cli"]; hand it the counting one
        ksq = dict(ksq, cli=argparse.Namespace(run_cli=counted))
        worker.pipeline_pass(ksq, worker.Spans(), workload, workdir, seed=11, trials=trials)
    return calls


def _child(src: str, workload: str, trials: int | None) -> dict:
    cmd = [sys.executable, __file__, "--child", src, "--workload", workload]
    if trials is not None:
        cmd += ["--trials", str(trials)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the src/ directory of the base tree")
    parser.add_argument("--change", help="the src/ directory of the changed tree")
    parser.add_argument("--workload", default="noisy-pipeline", help="a perfbench pipeline workload")
    parser.add_argument("--rounds", type=int, default=10, help="passes per tree")
    parser.add_argument("--trials", type=int, help="trials per pass, in place of the workload's")
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        # the pass prints nothing on the pipe: whatever the package writes goes to standard error
        out = os.fdopen(os.dup(1), "w")
        os.dup2(2, 1)
        json.dump(one_pass(args.child, args.workload, args.trials), out)
        out.close()
        return 0
    if not (args.base and args.change) or args.rounds < 1:
        parser.error("--base and --change are required, and --rounds must be >= 1")
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    runs = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in (("base", "change") if r % 2 == 0 else ("change", "base")):
            runs[side].append(_child(sides[side], args.workload, args.trials))
    failed = {side: [c for p in passes for c, v in p.items() if v[2] != 0] for side, passes in runs.items()}
    for p in runs["base"] + runs["change"]:
        p["pass"] = [sum(v[0] for v in p.values()), sum(v[1] for v in p.values()), 0]
    print(f"{args.workload}, {args.rounds} cold passes per tree; medians of ms and minor faults")
    print(f"{'subcommand':<12}{'base ms':>10}{'faults':>9}{'change ms':>12}{'faults':>9}")
    for name in runs["base"][0]:
        row = [statistics.median(p[name][k] for p in runs[side]) for side in sides for k in (0, 1)]
        print(f"{name:<12}{row[0]:>10.1f}{row[1]:>9.0f}{row[2]:>12.1f}{row[3]:>9.0f}")
    for side, names in failed.items():
        if names:
            print(f"{side}: nonzero exit codes from {sorted(set(names))}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
