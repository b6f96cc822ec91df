"""Acceptance gate: ten criteria, each at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line
per criterion. Every expected value here is either an exact closed form,
a pinned golden value, or recomputed by an independent oracle inside the
test.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from zncert.lattice import (
    GroupParams,
    SupportSet,
    all_cyclic_subgroups,
    make_interval_grid,
    shift_set,
)
from zncert.spectral import ANALYST_PLUS, Signal, dft, idft, support_of
from zncert.energy import (
    energy_representation,
    grid_energy_closed_form,
    nontrivial_parallelogram_count,
)
from zncert.gowers import conjecture_scan, gowers_norm
from zncert.spectral import indicator
from zncert.recovery import (
    RecoveryProblem,
    concentration_check,
    l1_objective_profile,
    l1_recover,
    least_squares_recover,
)
from zncert.harness import (
    ExperimentConfig,
    run_example1,
    run_example2,
    run_extremal_cosets,
    run_soundness_sweep,
)
from oracles import energy_fourier_check, energy_quadruple


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    state = {"metrics": {}}
    start = time.perf_counter()
    try:
        yield state["metrics"]
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {description} [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    shown = "  ".join(f"{k}={v}" for k, v in state["metrics"].items())
    print(f"PASS criterion {number}: {description}  {shown} [{elapsed:.2f}s < {budget_s:g}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def random_set(params, rng, size=None):
    size = size if size is not None else int(rng.integers(1, params.size + 1))
    idx = rng.choice(params.size, size=size, replace=False)
    return SupportSet(params, tuple(params.from_flat(int(i)) for i in idx))


def test_criterion_01_interval_energies():
    with criterion(1, "interval and grid energies match the closed form", 5.0) as m:
        for length in range(1, 9):
            params = GroupParams(2 * length, 1)  # 2m - 2 < N holds
            interval = make_interval_grid(params, length)
            assert energy_quadruple(interval) == grid_energy_closed_form(length, 1)
        for length in (2, 3, 4):
            params = GroupParams(7, 2)
            grid = make_interval_grid(params, length)
            assert energy_quadruple(grid) == grid_energy_closed_form(length, 2)
            assert grid_energy_closed_form(length, 2) == (
                (2 * length**3 + length) // 3
            ) ** 2
        m["interval_lengths"] = "1..8"
        m["grid_lengths"] = "2..4"


def test_criterion_02_strict_improvement():
    with criterion(2, "refined bound strictly beats additive off divisor pairs", 10.0) as m:
        report = run_example1()
        assert report.summary["fail_count"] == 0
        margins = [row["improvement_margin"] for row in report.rows]
        assert all(margin > 0 for margin in margins)
        m["pairs"] = len(report.rows)
        m["min_margin"] = f"{min(margins):.6f}"


def test_criterion_03_four_point_walkthrough():
    with criterion(3, "four-point walkthrough goldens", 5.0) as m:
        report = run_example2()
        assert report.summary["fail_count"] == 0

        params = GroupParams(4, 1)
        f = Signal(params, np.array([1, 0, 0, 2], dtype=complex), ANALYST_PLUS)
        spectrum = dft(f)
        assert np.max(np.abs(spectrum.values - [3, 1 - 2j, -1, 1 + 2j])) <= 1e-12

        missing = SupportSet.from_coords(params, [(1,), (2,)])
        problem = RecoveryProblem.from_signal(f, missing)
        solution = l1_recover(problem)
        assert np.max(np.abs(solution.signal.values - f.values)) <= 1e-6
        assert abs(solution.objective - 3.0) <= 1e-6

        direction = Signal(params, np.array([-1, 1, -1, 1], dtype=complex), ANALYST_PLUS)
        rng = np.random.default_rng(12)
        steps = [0j] + [
            complex(r, i) for r, i in rng.uniform(-2.5, 2.5, size=(99, 2))
        ]
        profile = l1_objective_profile(problem, direction, steps, base=f)
        worst_gap = min(
            value - (3.0 + 2.0 * abs(s)) for value, s in zip(profile, steps)
        )
        assert worst_gap >= -1e-9
        assert profile[0] == pytest.approx(3.0, abs=1e-12)
        m["profile_points"] = len(steps)
        m["worst_profile_gap"] = f"{worst_gap:.2e}"


def test_criterion_04_soundness_sweep():
    with criterion(4, "500-signal soundness sweep has zero violations", 60.0) as m:
        cfg = ExperimentConfig("soundness-sweep", trials=500, seed=20250810)
        report = run_soundness_sweep(cfg)
        assert report.summary["fail_count"] == 0
        assert len(report.rows) == 500
        m["min_slack"] = f"{report.summary['min_slack']:.2e}"


def test_criterion_05_oracle_equivalence():
    with criterion(5, "three energy oracles agree on 1000 random sets", 30.0) as m:
        rng = np.random.default_rng(501)
        settings = [(4, 1), (8, 1), (16, 1), (4, 2), (6, 2)]
        worst_rel = 0.0
        for index in range(1000):
            n, d = settings[index % len(settings)]
            a = random_set(GroupParams(n, d), rng)
            exact = energy_quadruple(a)
            assert energy_representation(a) == exact
            approx = energy_fourier_check(a)
            rel = abs(approx - exact) / exact
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-8
        m["sets"] = 1000
        m["worst_fourier_rel_err"] = f"{worst_rel:.2e}"


def test_criterion_06_extremal_equality():
    with criterion(6, "all bounds coincide on subgroup/coset pairs", 30.0) as m:
        report = run_extremal_cosets()
        assert report.summary["fail_count"] == 0
        worst_rhs_gap = max(
            max(
                abs(row["classical_rhs"] - row["N"]),
                abs(row["additive_rhs"] - row["N"]),
                abs(row["refined_rhs_point"] - row["N"]),
                abs(row["refined_rhs_freq"] - row["N"]),
            )
            for row in report.rows
        )
        worst_correction = max(
            max(abs(row["correction_point"]), abs(row["correction_freq"]))
            for row in report.rows
        )
        assert worst_correction <= 1e-12
        m["pairs"] = len(report.rows)
        m["worst_rhs_gap"] = f"{worst_rhs_gap:.2e}"


def test_criterion_07_recovery_guarantee():
    with criterion(7, "uniqueness regime: l1 and least squares recover exactly", 120.0) as m:
        rng = np.random.default_rng(701)
        worst_l1 = 0.0
        worst_lsq = 0.0
        for trial in range(200):
            while True:
                n = int(rng.integers(4, 17))
                d = 1 if rng.random() < 0.8 else 2
                if n**d <= 16:
                    break
            params = GroupParams(n, d)
            nd = params.size
            while True:
                e_size = int(rng.integers(1, 4))
                s_size = int(rng.integers(0, 5))
                if 2 * e_size * s_size < nd:
                    break
            support = random_set(params, rng, size=e_size)
            values = np.zeros(nd, dtype=np.complex128)
            values[support.flat_indices()] = rng.normal(size=e_size) + 1j * rng.normal(
                size=e_size
            )
            f = Signal(params, values)
            missing = random_set(params, rng, size=s_size) if s_size else SupportSet(params, ())
            problem = RecoveryProblem.from_signal(f, missing)

            solution = l1_recover(problem)
            err = float(np.max(np.abs(solution.signal.values - f.values)))
            worst_l1 = max(worst_l1, err)
            assert err <= 1e-6, f"l1 missed at trial {trial}: {err}"

            lsq = least_squares_recover(problem, support_of(f, tau=0.0))
            err = float(np.max(np.abs(lsq.signal.values - f.values)))
            worst_lsq = max(worst_lsq, err)
            assert err <= 1e-8, f"least squares missed at trial {trial}: {err}"
        m["trials"] = 200
        m["worst_l1_err"] = f"{worst_l1:.2e}"
        m["worst_lsq_err"] = f"{worst_lsq:.2e}"


def test_criterion_08_concentration_inequality():
    with criterion(8, "mass concentration holds for spectra confined to S", 30.0) as m:
        rng = np.random.default_rng(801)
        worst_margin = float("inf")
        for trial in range(100):
            n = int(rng.integers(3, 17))
            params = GroupParams(n, 1)
            s = random_set(params, rng)
            spec = np.zeros(n, dtype=np.complex128)
            spec[s.flat_indices()] = rng.normal(size=len(s)) + 1j * rng.normal(
                size=len(s)
            )
            h = idft(Signal(params, spec, side="frequency"))
            e = random_set(params, rng)
            result = concentration_check(h, e, s)
            assert result.holds
            assert result.lhs <= result.rhs + 1e-9 * result.rhs
            worst_margin = min(worst_margin, result.rhs - result.lhs)
        m["trials"] = 100
        m["tightest_margin"] = f"{worst_margin:.2e}"


def test_criterion_09_uniformity_norm_bridge_and_scan():
    with criterion(9, "energy bridge, coset equalities, and the scan report", 120.0) as m:
        rng = np.random.default_rng(901)
        worst_bridge = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 13))
            d = 1 if n > 4 else int(rng.integers(1, 3))
            params = GroupParams(n, d)
            a = random_set(params, rng)
            lam = energy_representation(a)
            bridged = params.size**3 * gowers_norm(indicator(a), 2).norm_value**4
            rel = abs(bridged - lam) / lam
            worst_bridge = max(worst_bridge, rel)
            assert rel <= 1e-8

        worst_coset = 0.0
        for n in range(2, 13):
            params = GroupParams(n, 1)
            for sub in all_cyclic_subgroups(params):
                for y in (0, 1):
                    coset = shift_set(sub, params.vector([y]))
                    for k in (2, 3):
                        report = gowers_norm(indicator(coset), k)
                        gap = abs(report.exponent_form - len(sub) / n)
                        worst_coset = max(worst_coset, gap)
                        assert gap <= 1e-9

        scan = conjecture_scan(GroupParams(5, 1), 2, sampler="random", trials=500, seed=905)
        assert scan.trials == 500
        assert scan.min_witness is not None
        # report generation is the contract; the outcome is data, not a claim
        m["bridge_rel_err"] = f"{worst_bridge:.2e}"
        m["coset_gap"] = f"{worst_coset:.2e}"
        m["scan_min_product"] = f"{scan.min_product:.9f}"
        m["scan_violations"] = len(scan.violations)


def test_criterion_10_parallelogram_identity():
    with criterion(10, "nontrivial parallelogram count matches enumeration", 60.0) as m:
        rng = np.random.default_rng(1001)
        for trial in range(500):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 3))
            params = GroupParams(n, d)
            a = random_set(params, rng, size=int(rng.integers(1, min(12, params.size) + 1)))
            members = [v.coords for v in a]
            lookup = set(members)
            direct = 0
            for x in members:
                for w in members:
                    for y in members:
                        z = tuple((p + q - r) % n for p, q, r in zip(x, w, y))
                        if z not in lookup:
                            continue
                        if (z, y) == (x, w) or (z, y) == (w, x):
                            continue
                        direct += 1
            value = nontrivial_parallelogram_count(a)
            assert value == direct
            assert value >= 0
        m["sets"] = 500
