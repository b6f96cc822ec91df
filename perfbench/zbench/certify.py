"""certify: one item certifies one signal with every uncertainty bound.

The item takes the supports of the signal and of its spectrum, the exact
energies of both, the classical bound, both additive bounds and both
refined bounds. On the 4096-point groups the spectrum of a random sparse
signal or of an odd-length interval grid is the whole group, so one energy
sums 16.7M pairs (twice per item, since ``refined_bound`` recomputes it);
coset indicators have small spectra, so a route that only wins on large
sets shows here too.
"""

from __future__ import annotations

import math

import numpy as np

NAME = "certify"
CORPUS_SEED = 0xCE27

SLOTS = {
    "z32x2-random": (32, 2, "random"),
    "z32x2-grid": (32, 2, "grid"),
    "z32x2-coset": (32, 2, "coset"),
    "z64x2-random": (64, 2, "random"),
    "z64x2-grid": (64, 2, "grid"),
    "z64x2-coset": (64, 2, "coset"),
    "z16x3-random": (16, 3, "random"),
    "z16x3-grid": (16, 3, "grid"),
    "z16x3-coset": (16, 3, "coset"),
}

_FAMILY = {
    "random": "random sparse signal, |E| = N^d/64, complex Gaussian values",
    "grid": "indicator of {0..m-1}^d, m odd (so m does not divide N)",
    "coset": "indicator of a coset of a cyclic subgroup of order N",
}
# One round: one Z_64^2 item whose spectrum energy sums 16.7M pairs, eight
# 1024-point items and three cosets; about 3 s, so a 30-s run repeats every
# input about ten times. The median falls in the middle of the 1024-point
# items; the tail, in the middle of the 4096-point items, the top twelfth of
# a run. The other 4096-point slots (a
# Z_16^3 one costs 2.5 s) stay defined so every slot keeps its input
# stream, but are left out of the round.
ROUND = (
    ("z64x2-random",)
    + ("z32x2-random", "z32x2-grid") * 4
    + ("z32x2-coset", "z64x2-coset", "z16x3-coset")
)
CORPUS = {slot: tuple(range(12 if slot == "z64x2-random" else 32)) for slot in dict.fromkeys(ROUND)}
CLASSES = {slot: f"Z_{SLOTS[slot][0]}^{SLOTS[slot][1]}: {_FAMILY[SLOTS[slot][2]]}" for slot in CORPUS}
TAIL_PCT = 95

REL_TOL = 1e-9
CERTS = ("classical", "additive_point", "additive_freq", "refined_point", "refined_freq")


def make_item(z, tr, slot, idx):
    n, d, family = SLOTS[slot]
    params = z.GroupParams(n, d)
    rng = np.random.default_rng([CORPUS_SEED, list(SLOTS).index(slot), idx])
    if family == "random":
        size = params.size // 64
        values = np.zeros(params.size, dtype=np.complex128)
        flat = rng.choice(params.size, size=size, replace=False)
        values[flat] = rng.normal(size=size) + 1j * rng.normal(size=size)
        signal = z.Signal(params, values)
    elif family == "grid":
        m = int(rng.choice(np.arange(3, n // 2, 2)))
        with tr.span("lattice.build") as s:
            grid = z.make_interval_grid(params, m)
            s.add(members=len(grid))
        signal = z.indicator(grid)
    else:
        generator = rng.integers(0, n, size=d)
        generator[rng.integers(d)] |= 1  # an odd coordinate gives order N (N is a power of 2)
        shift = rng.integers(0, n, size=d)
        with tr.span("lattice.build") as s:
            subgroup = z.make_cyclic_subgroup(params, params.vector(generator.tolist()))
            s.add(members=len(subgroup))
        with tr.span("lattice.build") as s:
            coset = z.shift_set(subgroup, params.vector(shift.tolist()))
            s.add(members=len(coset))
        signal = z.indicator(coset)
    return {"key": f"{slot}/{idx}", "slot": slot, "family": family, "params": params, "signal": signal}


def _cert(c) -> dict:
    return {"satisfied": c.satisfied, "rhs": c.rhs, "correction": c.correction, "slack": c.slack}


def execute(z, tr, item):
    f, params = item["signal"], item["params"]
    with tr.span("spectral.support_of") as s:
        e = z.support_of(f)
        s.add(members=len(e))
    with tr.span("spectral.dft") as s:
        spectrum = z.dft(f)
        s.add(points=params.size)
    with tr.span("spectral.support_of") as s:
        sigma = z.support_of(spectrum)
        s.add(members=len(sigma))
    with tr.span("energy.representation") as s:
        e_energy = z.energy_representation(e)
        s.add(pairs=len(e) ** 2)
    with tr.span("energy.representation") as s:
        sigma_energy = z.energy_representation(sigma)
        s.add(pairs=len(sigma) ** 2)
    with tr.span("bounds.pair"):
        classical = z.classical_bound(len(e), len(sigma), params)
    with tr.span("bounds.pair"):
        additive_point = z.additive_bound(len(e), sigma_energy, params)
    with tr.span("bounds.pair"):
        additive_freq = z.additive_bound(len(sigma), e_energy, params)
    with tr.span("bounds.refined"):
        refined_point, refined_freq = z.refined_bound(e, sigma)
    certs = (classical, additive_point, additive_freq, refined_point, refined_freq)
    return {
        "N_power_d": params.size,
        "E_size": len(e),
        "sigma_size": len(sigma),
        "E_energy": e_energy,
        "sigma_energy": sigma_energy,
        **{name: _cert(c) for name, c in zip(CERTS, certs)},
    }


def record(z, item, out):
    return out


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(b), scale)


def check(item, out, ref):
    """Exact sizes, energies and flags; floats within ``REL_TOL`` relative.

    Right sides and slacks are compared relative to N^d, corrections relative
    to the squared size of the larger set, the scale they are formed at.
    A coset indicator is extremal: every right side must equal N^d (within
    ``REL_TOL`` relative) and both refined corrections must be 0 (within 1e-9).
    """
    problems = [
        f"{k} = {out[k]}, reference {ref[k]}"
        for k in ("N_power_d", "E_size", "sigma_size", "E_energy", "sigma_energy")
        if out[k] != ref[k]
    ]
    nd = out["N_power_d"]
    scales = {"rhs": nd, "slack": nd, "correction": max(out["E_size"], out["sigma_size"]) ** 2}
    for name in CERTS:
        got, want = out[name], ref[name]
        if got["satisfied"] is not want["satisfied"]:
            problems.append(f"{name}.satisfied = {got['satisfied']}, reference {want['satisfied']}")
        for field, scale in scales.items():
            if not _close(got[field], want[field], scale):
                problems.append(f"{name}.{field} = {got[field]!r}, reference {want[field]!r}")
    if item["family"] == "coset":
        for name in CERTS:
            if not _close(out[name]["rhs"], nd, nd):
                problems.append(f"coset: {name}.rhs = {out[name]['rhs']!r}, expected N^d = {nd}")
        for name in ("refined_point", "refined_freq"):
            if abs(out[name]["correction"]) > 1e-9:
                problems.append(f"coset: {name}.correction = {out[name]['correction']!r}, expected 0")
    return problems
