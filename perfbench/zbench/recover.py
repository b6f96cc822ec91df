"""recover: one item runs one recovery of a sparse signal from an erased spectrum.

The item builds the problem, evaluates the half-size predicate and both
variants of the energy recovery condition (with the trivial growth
certificate), runs l1 recovery and least squares on the true support. In
1-D the dense transform inside every Douglas-Rachford iteration dominates;
on Z_64^2 the transform is cheap and the least-squares matrix build
dominates. Missing-set sizes straddle the half-size predicate 2|E||S| < N^d.
"""

from __future__ import annotations

import numpy as np

NAME = "recover"
CORPUS_SEED = 0x2EC0

SLOTS = {"z256": (256, 1), "z512": (512, 1), "z64x2": (64, 2)}
CLASSES = {
    slot: f"Z_{n}^{d}: |E| in [2, 16], |S| in [s*/2, 2s*] with s* the largest |S| meeting the half-size predicate"
    for slot, (n, d) in SLOTS.items()
}
# Z_1024 (about 5 s an item) is left out so that a run repeats each input
# several times. l1 iteration counts, and with them item costs, vary
# several-fold between inputs, and a round holds too few inputs to average
# that out; so the corpus is fixed, and the seed only orders the round.
# The inputs are spread evenly over the reference iteration counts of 48
# generated candidates (24 on Z_256, 8 on Z_512, 16 on Z_64^2), the long
# tail included: Z_256 20, 27, 34, 40, 46 and 88 iterations; Z_512 29;
# Z_64^2 17, 22, 33 and 48.
CORPUS = {"z256": (5, 8, 23, 9, 19, 12), "z512": (3,), "z64x2": (2, 9, 12, 3)}
ROUND = tuple(slot for slot, idxs in CORPUS.items() for _ in idxs)
# The middle of the 88-iteration Z_256 input's items, the second most costly
# eleventh of a run, which leaves about twelve items beyond it.
TAIL_PCT = 86

RECOVERY_TOL = 1e-6


def make_item(z, tr, slot, idx):
    n, d = SLOTS[slot]
    params = z.GroupParams(n, d)
    rng = np.random.default_rng([CORPUS_SEED, list(SLOTS).index(slot), idx])
    e_size = int(rng.integers(2, 17))
    flat = rng.choice(params.size, size=e_size, replace=False)
    values = np.zeros(params.size, dtype=np.complex128)
    values[flat] = rng.normal(size=e_size) + 1j * rng.normal(size=e_size)
    half = (params.size - 1) // (2 * e_size)
    s_size = int(rng.integers(max(1, half // 2), 2 * half + 1))
    missing_flat = rng.choice(params.size, size=s_size, replace=False)
    with tr.span("lattice.build") as s:
        support = z.SupportSet(params, tuple(params.from_flat(int(i)) for i in flat))
        s.add(members=len(support))
    with tr.span("lattice.build") as s:
        missing = z.SupportSet(params, tuple(params.from_flat(int(i)) for i in missing_flat))
        s.add(members=len(missing))
    return {
        "key": f"{slot}/{idx}",
        "slot": slot,
        "params": params,
        "signal": z.Signal(params, values),
        "support": support,
        "missing": missing,
        "growth": z.energy_growth_certificate(params, 2 * e_size, mode="trivial"),
        "scale": max(1.0, float(np.max(np.abs(values)))),
    }


def execute(z, tr, item):
    f, params, e, missing, growth = (item[k] for k in ("signal", "params", "support", "missing", "growth"))
    with tr.span("recovery.problem"):
        problem = z.RecoveryProblem.from_signal(f, missing)
    unique = z.uniqueness_check(len(e), missing, params)
    conditions = {}
    for variant in ("proof-final", "as-stated"):
        with tr.span("bounds.recovery_condition"):
            conditions[variant] = z.recovery_condition(len(e), missing, growth.K, growth.alpha, variant=variant)
    with tr.span("recovery.l1") as s:
        l1 = z.l1_recover(problem)
        s.add(iters=l1.iterations, converged=int(l1.status == "converged"))
    with tr.span("recovery.lsq") as s:
        lsq = z.least_squares_recover(problem, e)
        s.add(entries=(params.size - len(missing)) * len(e))
    return {
        "E_size": len(e),
        "S_size": len(missing),
        "unique": unique,
        "proof_final": conditions["proof-final"].certifies,
        "as_stated": conditions["as-stated"].certifies,
        "S_energy": conditions["proof-final"].inputs["S_energy"],
        "l1_status": l1.status,
        "l1_iterations": l1.iterations,
        "l1_error": float(np.max(np.abs(l1.signal.values - f.values))),
        "lsq_status": lsq.status,
        "lsq_rank": lsq.diagnostics["rank"],
        "lsq_error": float(np.max(np.abs(lsq.signal.values - f.values))),
    }


def record(z, item, out):
    return out


def check(item, out, ref):
    """Exact predicate flags and S energy; certified cases must recover.

    A case is certified when the half-size predicate or the proof-final
    energy condition holds; l1 must then recover the signal to within
    ``RECOVERY_TOL`` times its scale. Least squares on the true support must
    converge, to the same accuracy, whenever its system has full column
    rank. Iteration counts are compared in ``info``, not here.
    """
    problems = [
        f"{k} = {out[k]}, reference {ref[k]}"
        for k in ("E_size", "S_size", "unique", "proof_final", "as_stated", "S_energy")
        if out[k] != ref[k]
    ]
    limit = RECOVERY_TOL * item["scale"]
    if (out["unique"] or out["proof_final"]) and not out["l1_error"] <= limit:
        problems.append(f"certified case not recovered: l1 error {out['l1_error']:.3e} > {limit:.1e}")
    if out["lsq_rank"] == out["E_size"] and not (out["lsq_status"] == "converged" and out["lsq_error"] <= limit):
        problems.append(f"full-rank least squares: status {out['lsq_status']}, error {out['lsq_error']:.3e}")
    if out["lsq_rank"] != ref["lsq_rank"]:
        problems.append(f"lsq_rank = {out['lsq_rank']}, reference {ref['lsq_rank']}")
    return problems


def info(pairs, refs):
    same = sum(1 for item, out in pairs if refs.get(item["key"], {}).get("l1_iterations") == out["l1_iterations"])
    certified = sum(1 for _, out in pairs if out["unique"] or out["proof_final"])
    unique = sum(1 for _, out in pairs if out["unique"])
    return [
        f"l1 iteration counts equal to the reference on {same} of {len(pairs)} items",
        f"{certified} of {len(pairs)} items certified ({unique} by the half-size predicate)",
    ]
