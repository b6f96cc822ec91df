"""Summarise a traced benchmark run: one row per layer and the tracing overhead.

    python3 perfbench/summarize.py perfbench/results/certify-seed1-trace1.json \
        [--untraced perfbench/results/certify-seed1-trace0.json]

Each row gives a span name's calls, busy time, self time (busy time less
the time of its child spans) and its share of the time of the phase it ran
in: the measured items, or the set-up that built their inputs. Tracing
overhead compares the traced run's items_per_s with an untraced run of the
same workload and seed (by default the one under perfbench/results/), and
is also estimated from the measured cost of one span.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from zbench import core


def find_untraced(result: dict):
    path = core.RESULTS_DIR / (core.result_stem(result["workload"], result["seed"], False) + ".json")
    return json.loads(path.read_text()) if path.is_file() else None


def _phase_rows(spans) -> list:
    rows = []
    for phase, root in (("items", "item"), ("setup", "setup")):
        phase_spans = [s for s in spans if (s[2] == "setup") == (phase == "setup")]
        agg = core.aggregate_spans(phase_spans)
        total = agg.get(root, {}).get("busy_ns", 0)
        for name in [root] + sorted(n for n in agg if n != root):
            a = agg[name]
            share = a["busy_ns"] / total if total else 0.0
            rows.append((name, phase, a["calls"], a["busy_ns"] / 1e9, a["self_ns"] / 1e9, share))
    return rows


def summary_lines(result: dict, untraced: dict | None) -> list:
    spans = result["spans"]
    lines = [f"per-layer summary ({result['workload']}, seed {result['seed']}, {len(spans)} spans)",
             f"  {'span':<28} {'phase':<6} {'calls':>7} {'busy_s':>11} {'self_s':>11} {'share':>7}"]
    for name, phase, calls, busy, self_s, share in _phase_rows(spans):
        lines.append(f"  {name:<28} {phase:<6} {calls:>7} {busy:>11.6f} {self_s:>11.6f} {share:>7.1%}")
    traced = result["per_layer"]["trace.items_per_s"]["value"]
    n_item_spans = sum(1 for s in spans if s[2] != "setup")
    estimate = n_item_spans * result["span_cost_ns"] / 1e9 / result["elapsed_s"]
    lines.append(f"  span cost {result['span_cost_ns']:.0f} ns x {n_item_spans} item-phase spans"
                 f" = {estimate:.3%} of the measured phase (estimate)")
    if untraced is None:
        lines.append(f"tracing overhead: no untraced run of this workload and seed to compare"
                     f" (traced items_per_s {traced:.6f})")
    else:
        base = untraced["end_to_end"]["items_per_s"]["value"]
        lines.append(f"tracing overhead: items_per_s {base:.6f} untraced, {traced:.6f} traced,"
                     f" {1 - traced / base:+.2%}")
    return lines


def load_traced(path: Path) -> dict:
    result = json.loads(path.read_text())
    spans_path = path.with_name(path.stem + ".spans.jsonl")
    result["spans"] = [
        (s["id"], s["parent"], s["item"], s["name"], s["start_ns"], s["end_ns"], s["counts"])
        for s in map(json.loads, spans_path.read_text().splitlines())
    ]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traced", type=Path, help="result JSON of a --trace 1 run")
    parser.add_argument("--untraced", type=Path, help="result JSON of a --trace 0 run")
    args = parser.parse_args(argv)
    result = load_traced(args.traced)
    untraced = json.loads(args.untraced.read_text()) if args.untraced else find_untraced(result)
    print("\n".join(summary_lines(result, untraced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
