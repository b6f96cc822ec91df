"""desk: one item is one canonical report rendered as timing-free JSON.

Reports run at their default configuration, sweep seed 0 included, as
``zncert sweep`` and ``zncert reproduce`` run them: 500-trial soundness
sweep, 200-trial recovery sweep with its contrast cases, example1,
example2, the extremal cosets. The workload seed only orders the round. Every
transform here has 4 to 25 points, so per-call overhead (point objects,
character-matrix rebuilds, JSON canonicalisation) dominates rather than
asymptotics, and the recovery sweep carries the l1 solver's iteration tail.
This is the only workload that exercises ``harness``.
"""

from __future__ import annotations

import hashlib

NAME = "desk"

CLASSES = {
    "recovery": "run_recovery_sweep, 200 trials + contrast cases, seed 0",
    "soundness": "run_soundness_sweep, 500 trials, seed 0",
    "example1": "run_example1 (interval grids on Z_N^2, N <= 11)",
    "example2": "run_example2 (four-point walkthrough)",
    "cosets": "run_extremal_cosets (N in 4, 6, 8, 9, 12)",
}
ROUND = tuple(CLASSES)
CORPUS = dict.fromkeys(CLASSES, (0,))
# The middle of the recovery sweeps, the dearest fifth of a run and the
# reports with the solver tail.
TAIL_PCT = 90


def make_item(z, tr, slot, idx):
    return {"key": f"{slot}/{idx}", "slot": slot}


def _run(z, slot):
    if slot == "recovery":
        return z.run_recovery_sweep(z.ExperimentConfig("recovery-sweep"))
    if slot == "soundness":
        return z.run_soundness_sweep(z.ExperimentConfig("soundness-sweep"))
    return {"example1": z.run_example1, "example2": z.run_example2, "cosets": z.run_extremal_cosets}[slot]()


def execute(z, tr, item):
    slot = item["slot"]
    with tr.span(f"harness.{slot}") as s:
        report = _run(z, slot)
        if slot == "recovery":
            s.add(iters=[row["iterations"] for row in report.rows])
    with tr.span("harness.to_json") as s:
        text = report.to_json(include_timing=False)
        s.add(bytes=len(text))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text),
        "fail_count": report.summary["fail_count"],
    }


def record(z, item, out):
    return out


def check(item, out, ref):
    """The rendered report must be byte-identical to the reference."""
    problems = []
    if (out["sha256"], out["bytes"]) != (ref["sha256"], ref["bytes"]):
        problems.append(f"report differs from the reference ({out['bytes']} bytes, sha256 {out['sha256'][:12]})")
    if out["fail_count"]:
        problems.append(f"report has fail_count {out['fail_count']}")
    return problems
