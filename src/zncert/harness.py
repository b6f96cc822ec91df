"""Experiment runners: reproductions, soundness sweeps, and recovery sweeps.

Every runner returns a RunReport whose JSON rendering is byte-identical
for identical configuration and seed (the wall-time field is excluded
from comparisons). Floats are canonicalized to 12 significant digits.
Per-trial randomness derives from (master seed, trial index), so trial
order and parallel evaluation cannot change results. Both sweeps draw
first and then work per setting: the soundness sweep draws each setting's
signals into one stack, transforms it at once and certifies each trial
from its support masks, with no set built; the recovery sweep draws every
case and solves each group's problems as one stack.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .lattice import (
    GroupParams,
    SupportSet,
    all_cyclic_subgroups,
    make_interval_grid,
    shift_set,
)
from .spectral import ANALYST_PLUS, UNITARY_MINUS, Signal, _forward, _support_mask, dft, indicator, random_signal, support_of
from .energy import _representation, energy_growth_certificate, energy_representation, grid_energy_closed_form
from .bounds import _certificates, _recovery_certificate, certify_pair
from .recovery import (
    RecoveryProblem,
    l1_objective_profile,
    l1_recover,
    l1_recover_many,
    least_squares_recover,
    uniqueness_check,
)

SOUNDNESS_SETTINGS = ((4, 1), (5, 1), (8, 1), (9, 1), (12, 1), (16, 1), (4, 2), (5, 2))
RECOVERY_SETTINGS = ((8, 1), (12, 1), (16, 1), (4, 2))
EXAMPLE1_M_LIST = (2, 3, 4)  # interval lengths m
EXAMPLE1_N_LIST = (5, 7, 9, 11)  # moduli N of Z_N^2
EXTREMAL_N_LIST = (4, 6, 8, 9, 12)  # moduli N of Z_N

CERTIFICATE_CSV_COLUMNS = ("kind", "lhs", "rhs", "correction", "slack", "satisfied")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario selector, trial count (None: the sweep's default) and master seed."""

    scenario: str
    trials: int | None = None
    seed: int = 0


@dataclass
class RunReport:
    """Per-case rows plus a pass/fail summary for one experiment run."""

    scenario: str
    config: dict
    rows: list[dict]
    summary: dict
    version: str = __version__
    wall_time_s: float = 0.0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        data = {
            "scenario": self.scenario,
            "config": self.config,
            "rows": self.rows,
            "summary": self.summary,
            "version": self.version,
        }
        if include_timing:
            data["wall_time_s"] = self.wall_time_s
        return data

    def to_json(self, include_timing: bool = True) -> str:
        return canonical_json(self.to_json_dict(include_timing=include_timing))

    def to_csv(self) -> str:
        return rows_to_csv(self.rows)

    @property
    def failed(self) -> bool:
        return self.summary.get("fail_count", 0) > 0


def _canonical_value(value):
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.12g}")
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, complex):
        return [_canonical_value(value.real), _canonical_value(value.imag)]
    return value


def canonical_json(data: dict) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits."""
    return json.dumps(_canonical_value(data), sort_keys=True, indent=2) + "\n"


def rows_to_csv(rows: list[dict], columns: tuple[str, ...] | None = None) -> str:
    if not rows:
        return ""
    if columns is None:
        columns = tuple(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buffer.getvalue()


def _csv_cell(value):
    canonical = _canonical_value(value)
    if isinstance(canonical, (dict, list)):
        return json.dumps(canonical, sort_keys=True)
    return canonical


def certificates_to_csv(certs: list) -> str:
    """Fixed-column CSV for uncertainty certificates."""
    return rows_to_csv([cert.to_json_dict() for cert in certs], CERTIFICATE_CSV_COLUMNS)


def _trial_count(cfg: ExperimentConfig, default: int) -> int:
    """The sweep's trial count: ``default`` when unset, else at least 1."""
    if cfg.trials is None:
        return default
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    return cfg.trials


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _report(
    scenario: str, config: dict, rows: list[dict], start: float, failures: int, **summary
) -> RunReport:
    """A finished run: pass/fail counts over ``rows``, the runner's own
    summary fields, and the wall time since ``start``."""
    summary = {"pass_count": len(rows) - failures, "fail_count": failures, **summary}
    return RunReport(scenario, config, rows, summary, wall_time_s=time.perf_counter() - start)


def run_example1() -> RunReport:
    """Interval-grid demonstration: the refined bound strictly beats the
    additive one whenever the interval length does not divide the modulus.

    Of the pairs (m, N) from EXAMPLE1_M_LIST and EXAMPLE1_N_LIST, those
    with m | N are skipped, as are those where interval sums wrap around
    (2m - 2 >= N), since the closed-form energy assumes no wraparound.
    """
    start = time.perf_counter()
    pairs = [
        (m, n)
        for m in EXAMPLE1_M_LIST
        for n in EXAMPLE1_N_LIST
        if n % m != 0 and 2 * m - 2 < n
    ]
    rows = []
    failures = 0
    for m, n in pairs:
        params = GroupParams(n, 2)
        grid = make_interval_grid(params, m)
        closed = grid_energy_closed_form(m, 2)
        sigma = support_of(dft(indicator(grid)))
        certs = certify_pair(grid, sigma)
        cert_point, cert_freq = certs["refined_point"], certs["refined_freq"]
        exact = cert_point.inputs["E_energy"]
        mu = 1.0 - params.size / (len(grid) * len(sigma))
        margin = certs["additive_freq"].rhs - cert_freq.rhs
        ok = (
            exact == closed
            and margin > 0.0
            and cert_point.satisfied
            and cert_freq.satisfied
        )
        failures += 0 if ok else 1
        rows.append(
            {
                "m": m,
                "N": n,
                "grid_size": len(grid),
                "sigma_size": len(sigma),
                "grid_energy": exact,
                "closed_form": closed,
                "formula_matches": exact == closed,
                "mu": mu,
                "additive_rhs": certs["additive_freq"].rhs,
                "refined_rhs": cert_freq.rhs,
                "improvement_margin": margin,
                "refined_rhs_point_side": cert_point.rhs,
                "ok": ok,
            }
        )
    config = {"m_list": list(EXAMPLE1_M_LIST), "N_list": list(EXAMPLE1_N_LIST)}
    min_slack = min(r["improvement_margin"] for r in rows)
    return _report("example1", config, rows, start, failures, min_slack=min_slack)


#: The four-point walkthrough: signal, its pinned spectrum, and the
#: feasible null-space direction once frequencies 1 and 2 are erased.
WALKTHROUGH_SIGNAL = (1 + 0j, 0j, 0j, 2 + 0j)
WALKTHROUGH_SPECTRUM = (3 + 0j, 1 - 2j, -1 + 0j, 1 + 2j)
WALKTHROUGH_MISSING = ((1,), (2,))
WALKTHROUGH_DIRECTION = (-1 + 0j, 1 + 0j, -1 + 0j, 1 + 0j)


def run_example2() -> RunReport:
    """Four-point erasure walkthrough with every golden value pinned."""
    start = time.perf_counter()
    params = GroupParams(4, 1)
    f = Signal(params, np.array(WALKTHROUGH_SIGNAL), ANALYST_PLUS)
    spectrum = dft(f)
    golden = np.array(WALKTHROUGH_SPECTRUM)
    spectrum_err = float(np.max(np.abs(spectrum.values - golden)))

    missing = SupportSet.from_coords(params, WALKTHROUGH_MISSING)
    problem = RecoveryProblem.from_signal(f, missing)

    solution = l1_recover(problem)
    recovery_err = float(np.max(np.abs(solution.signal.values - f.values)))

    direction = Signal(params, np.array(WALKTHROUGH_DIRECTION), ANALYST_PLUS)
    radii = np.linspace(0.0, 2.5, 10)
    angles = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    steps = [complex(r * np.cos(a), r * np.sin(a)) for r in radii for a in angles]
    profile = l1_objective_profile(problem, direction, steps, base=f)
    bound_ok = all(
        value >= 3.0 + 2.0 * abs(s) - 1e-9 for value, s in zip(profile, steps)
    )
    min_index = int(np.argmin(profile))

    support = support_of(f, tau=0.0)
    lsq = least_squares_recover(problem, support)
    lsq_err = float(np.max(np.abs(lsq.signal.values - f.values)))

    checks = [
        ("spectrum-matches-golden", spectrum_err <= 1e-12, {"max_error": spectrum_err}),
        ("l1-recovers-signal", recovery_err <= 1e-6, {"max_error": recovery_err, "iterations": solution.iterations}),
        ("l1-objective-is-three", abs(solution.objective - 3.0) <= 1e-6, {"objective": solution.objective}),
        ("profile-lower-bound", bound_ok, {"grid_points": len(steps)}),
        ("profile-minimum-at-zero", abs(steps[min_index]) == 0.0, {"argmin": [steps[min_index].real, steps[min_index].imag]}),
        ("profile-at-zero-is-three", abs(profile[0] - 3.0) <= 1e-12, {"value": profile[0]}),
        ("least-squares-recovers", lsq_err <= 1e-8 and lsq.status == "converged", {"max_error": lsq_err, "residual": lsq.feasibility_residual}),
    ]
    rows = [{"check": name, "ok": ok, **extra} for name, ok, extra in checks]
    # The half-size predicate fails here although recovery succeeds; the
    # predicate is sufficient, not necessary. Informational row.
    rows.append(
        {
            "check": "half-size-predicate-not-required",
            "ok": True,
            "uniqueness_predicate": uniqueness_check(len(support), missing, params),
        }
    )
    failures = sum(1 for r in rows if not r["ok"])
    min_slack = min(value - (3.0 + 2.0 * abs(s)) for value, s in zip(profile, steps))
    return _report("example2", {}, rows, start, failures, min_slack=min_slack)


def run_soundness_sweep(cfg: ExperimentConfig) -> RunReport:
    """Random signals must satisfy every uncertainty certificate.

    The inequalities always hold for genuine support pairs, so any
    violation is an implementation bug and counts as a failure.
    """
    start = time.perf_counter()
    trials = _trial_count(cfg, 500)
    period = len(SOUNDNESS_SETTINGS)
    settings = [SOUNDNESS_SETTINGS[index % period] for index in range(trials)]
    groups = {setting: GroupParams(*setting) for setting in SOUNDNESS_SETTINGS}
    # Each setting's trials (every period-th) as one stack: one transform and
    # one support mask per side; only the masks are kept, in trial order.
    masks = {}
    for first, setting in enumerate(SOUNDNESS_SETTINGS[:trials]):
        params = groups[setting]
        draws = range(first, trials, period)
        stack = np.array([random_signal(params, _trial_rng(cfg.seed, i)).values for i in draws])
        spectra = _forward(stack, params, UNITARY_MINUS)
        masks[setting] = iter(zip(_support_mask(stack), _support_mask(spectra)))
    rows = []
    failures = 0
    min_slack = {"classical": math.inf, "additive": math.inf, "refined": math.inf}
    for index, (n, d) in enumerate(settings):
        params = groups[n, d]
        e, sigma = (np.flatnonzero(mask) for mask in next(masks[n, d]))
        e_energy, sigma_energy = (_representation(params, side).energy() for side in (e, sigma))
        certs = _certificates(params, len(e), len(sigma), e_energy, sigma_energy)
        ok = all(c.satisfied for c in certs.values())
        failures += 0 if ok else 1
        for cert in certs.values():
            min_slack[cert.kind] = min(min_slack[cert.kind], cert.slack)
        rows.append(
            {
                "trial": index,
                "N": n,
                "d": d,
                "E_size": len(e),
                "sigma_size": len(sigma),
                "E_energy": e_energy,
                "sigma_energy": sigma_energy,
                **{f"slack_{name}": cert.slack for name, cert in certs.items()},
                "ok": ok,
            }
        )
    return _report(
        "soundness-sweep",
        {"trials": trials, "settings": [list(s) for s in SOUNDNESS_SETTINGS], "seed": cfg.seed},
        rows,
        start,
        failures,
        min_slack=min(min_slack.values()),
        min_slack_by_kind=min_slack,
    )


#: Equal-size missing sets with very different additive structure, used to
#: contrast the energy-based recovery condition: a perfect-difference-style
#: set (energy 2|S|^2 - |S|) against a subgroup (energy |S|^3).
CONTRAST_GROUP = (16, 1)
CONTRAST_LOW_ENERGY = ((0,), (1,), (3,), (7,))
CONTRAST_HIGH_ENERGY = ((0,), (4,), (8,), (12,))
CONTRAST_REPEATS = 3


def _recovery_trial(
    params: GroupParams,
    f: Signal,
    missing: SupportSet,
    growth,
) -> tuple[RecoveryProblem, dict]:
    """A trial's l1 problem and the fields of its row that need no solve."""
    e_size = int(np.count_nonzero(_support_mask(f.values)))
    classical_ok = uniqueness_check(e_size, missing, params)
    s_energy = energy_representation(missing) if len(missing) else 0
    proof_final, as_stated = (
        _recovery_certificate(params.size, max(e_size, 1), len(missing), s_energy, growth.K, growth.alpha, v)
        for v in ("proof-final", "as-stated")
    )
    fields = {
        "E_size": e_size,
        "S_size": len(missing),
        "S_energy": s_energy,
        "classical_certifies": classical_ok,
        "proof_final_certifies": proof_final.certifies,
        "as_stated_certifies": as_stated.certifies,
        "proof_final_slack": proof_final.rhs - proof_final.lhs,
    }
    return RecoveryProblem.from_signal(f, missing), fields


def _recovery_row(f: Signal, fields: dict, solution) -> dict:
    """A trial's row: its fields, then how the l1 solve recovered ``f``."""
    scale = max(1.0, float(np.max(np.abs(f.values))))
    err = float(np.max(np.abs(solution.signal.values - f.values)))
    recovered = err <= 1e-6 * scale
    certified = fields["classical_certifies"] or fields["proof_final_certifies"]
    return {
        **fields,
        "recovered": recovered,
        "recovery_error": err,
        "solver_status": solution.status,
        "iterations": solution.iterations,
        "certified": certified,
        "hard_failure": certified and not recovered,
    }


def run_recovery_sweep(cfg: ExperimentConfig) -> RunReport:
    """Cross-tabulate recovery predicates against actual l1 recovery.

    A certified case (classical predicate or the default proof-final
    variant of the energy condition) that the solver fails to recover is a
    hard failure. Recovered-but-uncertified cases are informational: both
    predicates are sufficient only. A fixed pair of equal-size missing
    sets with low and high additive energy is appended to demonstrate that
    low energy certifies more often. Every trial and contrast case is drawn
    first; their problems are then solved together by ``l1_recover_many``.
    """
    start = time.perf_counter()
    trials = _trial_count(cfg, 200)
    cases = []  # (signal, problem, row fields, row labels)
    for index in range(trials):
        n, d = RECOVERY_SETTINGS[index % len(RECOVERY_SETTINGS)]
        params = GroupParams(n, d)
        rng = _trial_rng(cfg.seed, index)
        e_size = int(rng.integers(1, 4))
        s_size = int(rng.integers(0, min(7, params.size)))
        f = random_signal(params, rng, support_size=e_size)
        missing = SupportSet.from_flat(params, rng.choice(params.size, size=s_size, replace=False))
        growth = energy_growth_certificate(params, 2 * e_size, mode="trivial")
        cases.append((f, *_recovery_trial(params, f, missing, growth), {"trial": index, "N": n, "d": d}))

    params = GroupParams(*CONTRAST_GROUP)
    growth = energy_growth_certificate(params, 4, mode="trivial")
    for label, coords in (
        ("low-energy", CONTRAST_LOW_ENERGY),
        ("high-energy", CONTRAST_HIGH_ENERGY),
    ):
        missing = SupportSet.from_coords(params, coords)
        for rep in range(CONTRAST_REPEATS):
            rng = _trial_rng(cfg.seed, 10_000 + rep if label == "low-energy" else 20_000 + rep)
            f = random_signal(params, rng, support_size=2)
            cases.append((f, *_recovery_trial(params, f, missing, growth), {"contrast": label, "repeat": rep}))

    solutions = l1_recover_many([problem for _, problem, _, _ in cases])
    rows = [
        {**_recovery_row(f, fields, solution), **labels}
        for (f, _, fields, labels), solution in zip(cases, solutions)
    ]
    failures = sum(1 for row in rows if row["hard_failure"])
    crosstab = {
        "certified_recovered": 0,
        "certified_missed": 0,
        "uncertified_recovered": 0,
        "uncertified_missed": 0,
    }
    min_cert_slack = math.inf
    for row in rows[:trials]:
        min_cert_slack = min(min_cert_slack, row["proof_final_slack"])
        key = (
            ("certified" if row["certified"] else "uncertified")
            + "_"
            + ("recovered" if row["recovered"] else "missed")
        )
        crosstab[key] += 1
    contrast_rows = rows[trials:]

    low_certified = sum(
        1 for r in contrast_rows if r["contrast"] == "low-energy" and r["proof_final_certifies"]
    )
    high_certified = sum(
        1 for r in contrast_rows if r["contrast"] == "high-energy" and r["proof_final_certifies"]
    )
    return _report(
        "recovery-sweep",
        {"trials": trials, "settings": [list(s) for s in RECOVERY_SETTINGS], "seed": cfg.seed},
        rows,
        start,
        failures,
        min_slack=min_cert_slack,
        crosstab=crosstab,
        contrast={
            "low_energy_certified": low_certified,
            "high_energy_certified": high_certified,
        },
    )


def run_extremal_cosets() -> RunReport:
    """All bounds coincide at N^d on coset indicator signals.

    For every N in EXTREMAL_N_LIST, every cyclic subgroup H of Z_N and
    every coset y + H, the signal 1_{y+H} has spectrum supported on the
    annihilator, both corrections vanish, and classical, additive, and
    refined right sides all equal N.
    H is the multiples of N/|H|, so y = 0, ..., N/|H| - 1 are the coset
    representatives, each the least element of its coset.
    """
    start = time.perf_counter()
    rows = []
    failures = 0
    for n in EXTREMAL_N_LIST:
        params = GroupParams(n, 1)
        for subgroup in all_cyclic_subgroups(params):
            step = n // len(subgroup)
            for y in range(step):
                e = shift_set(subgroup, params.vector((y,)))  # the support of its indicator
                sigma = support_of(dft(indicator(e)))
                certs = certify_pair(e, sigma)
                refined_point, refined_freq = certs["refined_point"], certs["refined_freq"]
                tol = 1e-9 * params.size
                ok = all(
                    abs(certs[name].rhs - params.size) <= tol
                    for name in ("classical", "additive_point", "refined_point", "refined_freq")
                ) and (
                    abs(refined_point.correction) <= 1e-12
                    and abs(refined_freq.correction) <= 1e-12
                )
                failures += 0 if ok else 1
                rows.append(
                    {
                        "N": n,
                        "subgroup_size": len(subgroup),
                        "coset_rep": [y],
                        "classical_rhs": certs["classical"].rhs,
                        "additive_rhs": certs["additive_point"].rhs,
                        "refined_rhs_point": refined_point.rhs,
                        "refined_rhs_freq": refined_freq.rhs,
                        "correction_point": refined_point.correction,
                        "correction_freq": refined_freq.correction,
                        "ok": ok,
                    }
                )
    return _report(
        "extremal-cosets", {"N_list": list(EXTREMAL_N_LIST)}, rows, start, failures, min_slack=0.0
    )
