"""Run one zncert benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: certify, recover, scan, desk; ``all`` runs each in its own
process, one after the other. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run records spans around every call
into zncert and reports per-layer metrics, followed by the summary of
``summarize.py``. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Results (and the spans of a
traced run) are written under perfbench/results/. The program measured is
the zncert package under src/ of the checkout holding this script; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("certify", "recover", "scan", "desk")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Run BLAS on one thread; numpy reads this when it loads.

    The loop has a single caller. On a host with two shared CPUs a second
    BLAS thread left a recover round no faster (3.14 s against 3.18 s, median
    of 20) and made its times spread more (quartile spread 0.17 against 0.10).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def run_one(args) -> int:
    # Imported here, after cap_blas_threads, because numpy reads the caps on import.
    from zbench import core
    from zbench.workloads import WORKLOADS
    import summarize

    try:
        result = core.run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except core.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = core.write_result(result)
    for line in core.report_lines(result):
        print(line)
    if args.trace:
        for line in summarize.summary_lines(result, summarize.find_untraced(result)):
            print(line)
    print(f"result written to {path.relative_to(core.REPO_ROOT)}")
    print(core.result_line(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; the round repeats while another fits in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    cap_blas_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
