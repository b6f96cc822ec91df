"""Run loop, tracing, metrics and environment block shared by all workloads.

A workload is a module with this interface:

- ``NAME``; ``ROUND``, the slot names of one round (a slot is a size class
  and input family); ``CLASSES``, a one-line size class per slot;
  ``CORPUS``, the recorded input indices per slot; ``TAIL_PCT``, the fixed
  percentile of item latencies reported as ``item_tail_ms``.
- ``make_item(z, tr, slot, idx)`` builds corpus input ``idx`` of ``slot``
  from the freshly imported ``zncert`` module ``z``.
- ``execute(z, tr, item)`` makes the item's calls into zncert, each inside a
  span of ``tr``, and returns a dict of outputs.
- ``check(item, out, ref)`` returns the list of problems with ``out``.
- ``record(item, out)`` returns the reference entry ``regen_refs.py`` stores.
- optionally ``info(pairs, refs)``, given ``(item, out)`` pairs, returns
  lines of information that do not decide correctness.

Inputs come from a corpus whose outputs were recorded once, so later runs
can be checked against those references. ``--seed`` draws, for each
position of the round, a distinct corpus input of its slot, and orders the
positions. The loop is closed: one caller issues the next item when the
last returns. It repeats the same round, input for input, while another
round still fits in ``seconds``, so every run holds whole rounds and the
item mix, and with it every percentile's place among the item classes,
does not depend on how fast the host is or where the clock stops.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
REFS_DIR = Path(__file__).resolve().parent / "refs"
RESULTS_DIR = REPO_ROOT / "perfbench" / "results"

SETUP_REPEATS = 9
MAX_LISTED_PROBLEMS = 20

# (name, unit) of the end-to-end metrics in the result line; fail_ratio is
# printed beside them but travels in the line as "failed"/"attempted",
# because it is 0 on a correct program.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no zncert sources to benchmark."""


def fresh_import():
    """Import zncert from the checkout's ``src``, discarding any earlier import.

    Setup is timed several times per run; dropping the cached modules makes
    each repetition pay for the import again.
    """
    if not (SRC / "zncert" / "__init__.py").is_file():
        raise ProgramMissing(f"no zncert sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "zncert" or m.startswith("zncert.")]:
        del sys.modules[name]
    z = importlib.import_module("zncert")
    if Path(z.__file__).resolve().parent != (SRC / "zncert").resolve():
        raise ProgramMissing(f"zncert imported from {z.__file__}, not from {SRC}")
    return z


# --------------------------------------------------------------------------
# Tracing


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **counts):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer used for untraced runs: spans cost one call and record nothing."""

    def span(self, name):
        return _NULL_SPAN

    def reset(self):
        pass


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start", "counts")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.counts = {}

    def __enter__(self):
        tr = self.tracer
        tr._next += 1
        self.sid = tr._next
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(
            (self.sid, self.parent, tr.item, self.name, self.start, end, self.counts)
        )
        return False

    def add(self, **counts):
        self.counts.update(counts)


class Tracer:
    """In-memory spans: (id, parent id, item id, name, start ns, end ns, counts)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self.item = "setup"

    def span(self, name):
        return _Span(self, name)


def span_cost_ns(samples: int = 20000) -> float:
    """Mean cost of one empty traced span, to estimate tracing overhead."""
    tr = Tracer()
    start = time.perf_counter_ns()
    for _ in range(samples):
        with tr.span("calibrate") as s:
            s.add(n=1)
    return (time.perf_counter_ns() - start) / samples


def aggregate_spans(spans) -> dict:
    """Per span name: calls, busy_s, self_s and the per-call counts."""
    child_ns: dict = {}
    for sid, parent, _item, _name, start, end, _counts in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    agg: dict = {}
    for sid, _parent, _item, name, start, end, counts in spans:
        a = agg.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "counts": []})
        a["calls"] += 1
        a["busy_ns"] += end - start
        a["self_ns"] += end - start - child_ns.get(sid, 0)
        a["counts"].append(counts)
    return agg


# --------------------------------------------------------------------------
# Statistics and per-layer metrics


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class _Layer:
    """Read-only view of one span name's aggregate."""

    def __init__(self, agg: dict, name: str):
        a = agg.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "counts": []})
        self.calls = a["calls"]
        self.busy_s = a["busy_ns"] / 1e9
        self.counts = a["counts"]

    def total(self, key: str) -> int:
        return sum(c.get(key, 0) for c in self.counts)

    def values(self, key: str) -> list:
        out = []
        for c in self.counts:
            v = c.get(key)
            if isinstance(v, list):
                out.extend(v)
            elif v is not None:
                out.append(v)
        return out


def _basic(span: str, *extra: tuple) -> list:
    rows = [
        (f"{span}.calls", "count", lambda L, s=span: L(s).calls),
        (f"{span}.busy_s", "s", lambda L, s=span: L(s).busy_s),
    ]
    for field, unit, key in extra:
        rows.append((f"{span}.{field}", unit, lambda L, s=span, k=key: L(s).total(k)))
    return rows


def _l1_ms_per_iter(L) -> float:
    iters = L("recovery.l1").total("iters")
    return L("recovery.l1").busy_s * 1e3 / iters if iters else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: (metric, unit, fn) for every per-layer metric; ``fn`` receives a function
#: mapping a span name to its ``_Layer``. Spans wrap the benchmark's own calls
#: into each module's public functions only.
PER_LAYER = (
    _basic("lattice.build", ("members", "count", "members"))
    + _basic("spectral.dft", ("points", "count", "points"))
    + _basic("spectral.support_of", ("members", "count", "members"))
    + _basic("energy.representation", ("pairs", "count", "pairs"))
    + _basic("bounds.pair")
    + _basic("bounds.refined")
    + _basic("bounds.recovery_condition")
    + _basic("recovery.problem")
    + _basic("recovery.l1", ("iters_total", "count", "iters"))
    + [
        ("recovery.l1.iters_p50", "count", lambda L: percentile(L("recovery.l1").values("iters"), 50)),
        ("recovery.l1.iters_max", "count", lambda L: max(L("recovery.l1").values("iters"), default=0)),
        ("recovery.l1.ms_per_iter", "ms", _l1_ms_per_iter),
        ("recovery.l1.converged_ratio", "ratio",
         lambda L: _ratio(L("recovery.l1").total("converged"), L("recovery.l1").calls)),
    ]
    + _basic("recovery.lsq", ("entries", "count", "entries"))
    + _basic("gowers.norm_k2", ("terms", "count", "terms"))
    + _basic("gowers.norm_k3", ("terms", "count", "terms"))
    + _basic("gowers.scan", ("signals", "count", "signals"))
    + [
        (f"harness.{kind}.busy_s", "s", lambda L, k=kind: L(f"harness.{k}").busy_s)
        for kind in ("soundness", "recovery", "example1", "example2", "cosets")
    ]
    + [
        ("harness.recovery.iters_p95", "count", lambda L: percentile(L("harness.recovery").values("iters"), 95)),
        ("harness.recovery.iters_max", "count", lambda L: max(L("harness.recovery").values("iters"), default=0)),
        ("harness.to_json.busy_s", "s", lambda L: L("harness.to_json").busy_s),
        ("harness.json_bytes", "bytes", lambda L: L("harness.to_json").total("bytes")),
    ]
)


def layer_metrics(spans) -> dict:
    agg = aggregate_spans(spans)
    return {name: {"value": fn(lambda s: _Layer(agg, s)), "unit": unit} for name, unit, fn in PER_LAYER}


# --------------------------------------------------------------------------
# Environment


def git_rev():
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = REPO_ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (REPO_ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zncert").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    return name, _blas_threads()


def _blas_threads():
    """Threads OpenBLAS reports, read through its C API; None if unavailable."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload, seed: int, positions) -> dict:
    blas, threads = _blas_info()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "seed": seed,
        "size_classes": dict(workload.CLASSES),
        "round": [f"{slot}/{idx}" for slot, idx in positions],
    }


# --------------------------------------------------------------------------
# Run


def load_refs(name: str) -> dict:
    return json.loads((REFS_DIR / f"{name}.json").read_text())["items"]


def round_positions(workload, seed: int, round_=None) -> list:
    """The run's round: ``(slot, corpus index)`` per position, in a seeded order.

    Each position of a slot draws a distinct input from the slot's corpus,
    so a slot may appear at most as often as it has corpus inputs.
    """
    round_ = round_ or workload.ROUND
    positions = []
    for number, slot in enumerate(dict.fromkeys(round_)):
        rng = np.random.default_rng([seed, number])
        drawn = rng.choice(workload.CORPUS[slot], size=round_.count(slot), replace=False)
        positions.extend((slot, int(idx)) for idx in drawn)
    order = np.random.default_rng([seed, 1 << 20]).permutation(len(positions))
    return [positions[i] for i in order]


def setup(workload, positions, tr) -> tuple:
    """Import zncert, build the round's inputs, load references."""
    z = fresh_import()
    refs = load_refs(workload.NAME)
    items = [workload.make_item(z, tr, slot, idx) for slot, idx in positions]
    return z, refs, items


def run_workload(workload, seed: int, seconds: float, trace: bool, refs=None, round_=None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then repeat the round while it fits in ``seconds``.

    At least one round runs. ``refs`` and ``round_`` replace the recorded
    references and the workload's round; the self-tests use them.
    """
    positions = round_positions(workload, seed, round_)
    tr = Tracer() if trace else NullTracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tr.reset()
        start = time.perf_counter()
        with tr.span("setup"):
            z, loaded, items = setup(workload, positions, tr)
        setup_times.append(time.perf_counter() - start)
    refs = loaded if refs is None else refs

    per_position = [[] for _ in items]  # latency in ms of every repetition
    timed = []  # (position, latency in ms) per item, in run order
    problems = []
    pairs = []
    failed = 0
    item_id = 0
    rounds_run = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        round_start = time.perf_counter()
        for pos, item in enumerate(items):
            tr.item = item_id
            t0 = time.perf_counter_ns()
            try:
                with tr.span("item"):
                    out = workload.execute(z, tr, item)
            except Exception as exc:  # any failure of the program counts against it
                out = None
                kind = "capacity" if isinstance(exc, z.CapacityError) else "raised"
                errors = [f"{kind}: {exc!r}"]
            ms = (time.perf_counter_ns() - t0) / 1e6
            per_position[pos].append(ms)
            timed.append((pos, ms))
            if out is not None:
                ref = refs.get(item["key"])
                errors = ["no reference"] if ref is None else workload.check(item, out, ref)
                pairs.append((item, out))
            if errors:
                failed += 1
                problems.extend(f"item {item_id} ({item['key']}): {e}" for e in errors)
            item_id += 1
        rounds_run += 1
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    elapsed = time.perf_counter() - start

    latencies_ms = [ms for _, ms in timed]
    attempted = len(latencies_ms)
    tail = percentile(latencies_ms, workload.TAIL_PCT)
    measured = {
        "items_per_s": attempted / elapsed,
        "item_p50_ms": percentile(latencies_ms, 50),
        "item_tail_ms": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    result = {
        "workload": workload.NAME,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": environment(workload, seed, positions),
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in measured.items()},
        "fail_ratio": failed / attempted,
        "tail": {
            "percentile": workload.TAIL_PCT,
            "samples": attempted,
            "beyond": sum(1 for v in latencies_ms if v > tail),
        },
        "rounds": rounds_run,
        "positions": [
            {"key": item["key"], "n": len(v), "p50": percentile(v, 50), "min": min(v), "max": max(v)}
            for item, v in zip(items, per_position)
        ],
        "latencies_ms": timed,
        "elapsed_s": elapsed,
        "setup_times_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_LISTED_PROBLEMS],
        "info": workload.info(pairs, refs) if hasattr(workload, "info") else [],
    }
    if trace:
        per_layer = layer_metrics(tr.spans)
        per_layer["trace.items_per_s"] = {"value": measured["items_per_s"], "unit": "1/s"}
        per_layer["trace.spans"] = {"value": len(tr.spans), "unit": "count"}
        result["per_layer"] = per_layer
        result["span_cost_ns"] = span_cost_ns()
        result["spans"] = tr.spans
    return result


# --------------------------------------------------------------------------
# Output


def result_stem(workload: str, seed: int, trace: bool) -> str:
    return f"{workload}-seed{seed}-trace{int(trace)}"


def write_result(result: dict) -> Path:
    """Write the result (and the spans of a traced run) under ``RESULTS_DIR``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = result_stem(result["workload"], result["seed"], result["trace"])
    spans = result.pop("spans", None)
    if spans is not None:
        with open(RESULTS_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for sid, parent, item, name, start, end, counts in spans:
                fh.write(json.dumps({
                    "workload": result["workload"], "item": item, "id": sid, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end, "counts": counts,
                }) + "\n")
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        result["spans"] = spans
    return path


def result_line(result: dict) -> str:
    """The last stdout line: exactly correct, attempted, failed, metrics."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report_lines(result: dict) -> list:
    env = result["env"]
    t = result["tail"]
    lines = [f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}",
             "env " + json.dumps(env, sort_keys=True)]
    label = "traced run (end-to-end figures not for comparison)" if result["trace"] else "end-to-end"
    lines.append(f"{label}, {result['rounds']} rounds of {len(result['positions'])} items:")
    for name, m in result["end_to_end"].items():
        lines.append(f"  {name:<14} {m['value']:>14.6f} {m['unit']}")
    lines.append(f"  {'fail_ratio':<14} {result['fail_ratio']:>14.6f} ratio"
                 f"  ({result['failed']} of {result['attempted']} items)")
    lines.append(f"  item_tail_ms is p{t['percentile']:g} of {t['samples']} items, {t['beyond']} beyond it")
    lines.extend(f"  info: {line}" for line in result["info"])
    lines.extend(f"  FAIL {p}" for p in result["problems"])
    return lines
