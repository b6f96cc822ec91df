"""scan: one item is one uniformity norm or one small conjecture scan.

The brute-force cube sum behind ``gowers_norm`` does nearly all the work
here and nowhere else, so a gain from the U^2/U^3 identities shows on this
workload alone. Norm inputs alternate between indicators of random sets
(for k = 2 the raw sum is then an additive energy, checked exactly) and
random complex signals. A norm's cost depends only on its group and k.
"""

from __future__ import annotations

import math

import numpy as np

NAME = "scan"
CORPUS_SEED = 0x5CA9

# slot -> (kind, N, d, k, trials)
SLOTS = {
    "z64-k2": ("norm", 64, 1, 2, None),
    "z8x2-k2": ("norm", 8, 2, 2, None),
    "z16x2-k2": ("norm", 16, 2, 2, None),
    "z16-k3": ("norm", 16, 1, 3, None),
    "z5x2-k3": ("norm", 5, 2, 3, None),
    "scan-z8-k2": ("scan", 8, 1, 2, 20),
    "scan-z6-k3": ("scan", 6, 1, 3, 5),
}
# One round of eight, about 2.5 s: three items cheaper than Z_8^2 k=2,
# three of those and two Z_16 k=3, so the median falls among the Z_8^2
# items and the tail in the middle of the Z_16 ones, the top quarter of a
# run, with about twelve items beyond it. Z_16^2 k=2 (16.7M
# terms, about 5 s a norm) and Z_5^2 k=3 (about 2 s) stay defined so every
# slot keeps its input stream, but are left out of the round, which they
# would make three times as long.
ROUND = ("scan-z8-k2", "z64-k2", "scan-z6-k3") + ("z8x2-k2",) * 3 + ("z16-k3",) * 2
CORPUS = {slot: tuple(range(12)) for slot in dict.fromkeys(ROUND)}
CLASSES = {
    slot: (f"gowers_norm k={k} on Z_{n}^{d}, N^(d(k+1)) = {(n**d) ** (k + 1)} terms" if kind == "norm"
           else f"conjecture_scan k={k} on Z_{n}^{d}, {trials} random signals")
    for slot, (kind, n, d, k, trials) in ((s, SLOTS[s]) for s in CORPUS)
}
TAIL_PCT = 88

REL_TOL = 1e-9


def make_item(z, tr, slot, idx):
    kind, n, d, k, trials = SLOTS[slot]
    params = z.GroupParams(n, d)
    item = {"key": f"{slot}/{idx}", "slot": slot, "kind": kind, "params": params, "k": k,
            "trials": trials, "idx": idx, "set": None}
    if kind == "scan":
        return item
    rng = np.random.default_rng([CORPUS_SEED, list(SLOTS).index(slot), idx])
    if idx % 2 == 0:
        flat = rng.choice(params.size, size=params.size // 4, replace=False)
        coords = np.stack(np.unravel_index(flat, (n,) * d), axis=1).tolist()
        with tr.span("lattice.build") as s:
            item["set"] = z.SupportSet.from_coords(params, coords)
            s.add(members=len(item["set"]))
        item["signal"] = z.indicator(item["set"])
    else:
        values = rng.normal(size=params.size) + 1j * rng.normal(size=params.size)
        item["signal"] = z.Signal(params, values)
    return item


def execute(z, tr, item):
    params, k = item["params"], item["k"]
    if item["kind"] == "scan":
        with tr.span("gowers.scan") as s:
            report = z.conjecture_scan(params, k, sampler="random", trials=item["trials"], seed=item["idx"])
            s.add(signals=report.trials)
        return {"trials": report.trials, "min_product": float(report.min_product), "violations": len(report.violations)}
    with tr.span(f"gowers.norm_k{k}") as s:
        report = z.gowers_norm(item["signal"], k)
        s.add(terms=params.size ** (k + 1))
    return {"raw_sum": float(report.raw_sum), "norm_value": float(report.norm_value)}


def record(z, item, out):
    ref = dict(out)
    if item["set"] is not None and item["k"] == 2:
        ref["energy"] = z.energy_representation(item["set"])
    return ref


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check(item, out, ref):
    """Norms within ``REL_TOL`` relative; an indicator's k = 2 raw sum must
    round to its exact energy; scans must see the same trials, violations
    and (within ``REL_TOL``) the same minimum product."""
    problems = []
    if item["kind"] == "scan":
        for key in ("trials", "violations"):
            if out[key] != ref[key]:
                problems.append(f"{key} = {out[key]}, reference {ref[key]}")
        if not _close(out["min_product"], ref["min_product"]):
            problems.append(f"min_product = {out['min_product']!r}, reference {ref['min_product']!r}")
        return problems
    for key in ("raw_sum", "norm_value"):
        if not (math.isfinite(out[key]) and _close(out[key], ref[key])):
            problems.append(f"{key} = {out[key]!r}, reference {ref[key]!r}")
    if "energy" in ref and not (math.isfinite(out["raw_sum"]) and round(out["raw_sum"]) == ref["energy"]):
        problems.append(f"raw_sum {out['raw_sum']!r} does not round to the energy {ref['energy']}")
    return problems
