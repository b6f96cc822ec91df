"""Self-tests for the benchmark: tiny runs, failure counting, bare checkout.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import summarize  # noqa: E402
from zbench import core  # noqa: E402
from zbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# One round of each workload's cheapest slots.
TINY = {
    "certify": ("z32x2-coset", "z32x2-random", "z16x3-coset"),
    "recover": ("z64x2",),
    "scan": ("z64-k2", "scan-z8-k2"),
    "desk": ("example1", "example2", "cosets"),
}


def tiny_run(name, trace=False, refs=None, seed=3):
    return core.run_workload(WORKLOADS[name], seed, 0, trace, refs=refs, round_=TINY[name])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = tiny_run(name, trace)
    line = json.loads(core.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and result["fail_ratio"] == 0
    assert line["attempted"] == len(TINY[name])
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert line["metrics"]["trace.spans"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    report = "\n".join(core.report_lines(result))
    for name_, unit in core.END_TO_END + (("fail_ratio", "ratio"),):
        assert f"{name_} " in report and unit in report


def _perturb(name, ref):
    ref = json.loads(json.dumps(ref))
    if name == "certify":
        ref["E_energy"] += 1
    elif name == "recover":
        ref["S_energy"] += 1
    elif name == "scan":
        key = "raw_sum" if "raw_sum" in ref else "min_product"
        ref[key] *= 1 + 1e-6
    else:
        ref["sha256"] = "0" * 64
    return ref


@pytest.mark.parametrize("name", list(TINY))
def test_perturbed_reference_raises_fail_ratio(name):
    refs = {k: _perturb(name, v) for k, v in core.load_refs(name).items()}
    result = tiny_run(name, refs=refs)
    assert result["fail_ratio"] == 1.0
    assert not json.loads(core.result_line(result))["correct"]


def test_corrupted_output_counts_in_fail_ratio(monkeypatch):
    workload = WORKLOADS["scan"]
    real = workload.execute

    def corrupt(z, tr, item):
        out = real(z, tr, item)
        if "raw_sum" in out:
            out["raw_sum"] += 1.0
        return out

    monkeypatch.setattr(workload, "execute", corrupt)
    result = tiny_run("scan")
    assert (result["attempted"], result["failed"], result["fail_ratio"]) == (2, 1, 0.5)
    assert "raw_sum" in result["problems"][0]


def test_capacity_guard_counts_as_failed(monkeypatch):
    def guarded(z, tr, item):
        raise z.CapacityError("over the guard")

    monkeypatch.setattr(WORKLOADS["desk"], "execute", guarded)
    result = tiny_run("desk")
    assert result["failed"] == result["attempted"] == 3
    assert result["problems"][0].endswith("capacity: CapacityError('over the guard')")


def test_traced_run_records_item_and_layer_spans():
    result = tiny_run("certify", trace=True)
    layers = result["per_layer"]
    assert layers["energy.representation.calls"]["value"] == 6
    assert layers["bounds.pair.calls"]["value"] == 9
    assert layers["gowers.norm_k2.calls"]["value"] == 0
    item_spans = [s for s in result["spans"] if s[3] == "item"]
    assert len(item_spans) == 3
    children = [s for s in result["spans"] if s[1] == item_spans[0][0]]
    assert {s[3] for s in children} == {"spectral.support_of", "spectral.dft", "energy.representation",
                                        "bounds.pair", "bounds.refined"}
    lines = summarize.summary_lines(result, None)
    assert any(line.split()[0] == "energy.representation" for line in lines[2:])
    assert lines[-1].startswith("tracing overhead")


def test_self_time_subtracts_child_spans():
    spans = [(1, None, 0, "item", 0, 100, {}), (2, 1, 0, "a", 10, 40, {}), (3, 1, 0, "b", 50, 60, {})]
    agg = core.aggregate_spans(spans)
    assert (agg["item"]["busy_ns"], agg["item"]["self_ns"]) == (100, 60)
    assert agg["a"]["self_ns"] == 30


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 8.0, 13.0, 21.0]
    for pct in (0, 50, 65, 75, 95, 100):
        assert core.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


@pytest.mark.parametrize("name", list(TINY))
def test_round_depends_only_on_seed(name):
    workload = WORKLOADS[name]
    positions = core.round_positions(workload, 5)
    assert positions == core.round_positions(workload, 5)
    assert positions != core.round_positions(workload, 6)
    assert sorted(slot for slot, _ in positions) == sorted(workload.ROUND)
    assert len(set(positions)) == len(positions)
    assert all(idx in workload.CORPUS[slot] for slot, idx in positions)


def test_round_repeats_its_inputs_until_the_deadline():
    result = core.run_workload(WORKLOADS["desk"], 3, 0.5, False, round_=("example2", "cosets"))
    rounds = result["rounds"]
    assert rounds >= 2 and result["attempted"] == 2 * rounds
    assert [p["n"] for p in result["positions"]] == [rounds, rounds]
    keys = [p["key"] for p in result["positions"]]
    assert [pos for pos, _ in result["latencies_ms"]] == [0, 1] * rounds
    assert sorted(keys) == ["cosets/0", "example2/0"]


def test_every_corpus_input_has_a_reference():
    for name, workload in WORKLOADS.items():
        keys = set(core.load_refs(name))
        assert keys == {f"{slot}/{i}" for slot, idxs in workload.CORPUS.items() for i in idxs}


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
