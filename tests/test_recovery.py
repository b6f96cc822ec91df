"""The l1 solver, least squares, uniqueness predicate, and concentration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zncert.lattice import GroupParams, SupportSet
from zncert.spectral import ANALYST_PLUS, UNITARY_MINUS, Convention, Signal, dft, idft
from zncert.recovery import (
    CONVERGED,
    FEAS_TOL,
    RecoveryProblem,
    _least_squares_system,
    concentration_check,
    l1_objective_profile,
    l1_recover,
    l1_recover_many,
    least_squares_recover,
    load_problem,
    problem_from_json_dict,
    problem_to_json_dict,
    save_problem,
    uniqueness_check,
)
from oracles import all_points, dense_transform, dot, flat_index, least_squares_system_per_entry, negate

P4 = GroupParams(4, 1)


def observed(problem: RecoveryProblem) -> dict:
    """The observations as a mapping from frequency to value, in row-major order."""
    return {
        problem.params.from_flat(int(i)): complex(problem.target[i])
        for i in np.flatnonzero(problem.mask)
    }


def four_point_problem() -> tuple[Signal, RecoveryProblem]:
    f = Signal(P4, np.array([1, 0, 0, 2], dtype=complex), ANALYST_PLUS)
    missing = SupportSet.from_coords(P4, [(1,), (2,)])
    return f, RecoveryProblem.from_signal(f, missing)


def random_problem(rng, n, d, e_size, s_size):
    p = GroupParams(n, d)
    idx = rng.choice(p.size, size=e_size, replace=False)
    values = np.zeros(p.size, dtype=np.complex128)
    values[idx] = rng.normal(size=e_size) + 1j * rng.normal(size=e_size)
    f = Signal(p, values)
    sidx = rng.choice(p.size, size=s_size, replace=False) if s_size else []
    missing = SupportSet(p, tuple(p.from_flat(int(i)) for i in sidx))
    return f, RecoveryProblem.from_signal(f, missing)


def test_problem_coverage_invariant():
    f, problem = four_point_problem()
    spectrum = dft(f)
    assert observed(problem) == {m: spectrum.value_at(m) for m in all_points(P4) if m not in problem.missing}
    assert problem.missing == SupportSet.from_coords(P4, [(1,), (2,)])
    assert problem.mask.tolist() == [True, False, False, True]
    # a missing set from another group is rejected
    with pytest.raises(ValueError, match="different group"):
        RecoveryProblem.from_spectrum(spectrum, SupportSet.from_coords(GroupParams(5, 1), [(1,)]))
    # so is a time-side signal given as the spectrum
    with pytest.raises(ValueError, match="frequency-side signal, got a time-side one"):
        RecoveryProblem.from_spectrum(f, SupportSet(P4, ()))


def test_problem_from_signal_rejects_a_spectrum():
    # the transform of a spectrum is not the spectrum of a signal
    f, _ = four_point_problem()
    with pytest.raises(ValueError, match="time-side signal, got a frequency-side one"):
        RecoveryProblem.from_signal(dft(f), SupportSet.from_coords(P4, [(1,)]))


def test_l1_recovers_four_point_signal():
    f, problem = four_point_problem()
    solution = l1_recover(problem)
    assert solution.status == "converged"
    assert np.max(np.abs(solution.signal.values - f.values)) <= 1e-6
    assert solution.objective == pytest.approx(3.0, abs=1e-6)
    assert solution.feasibility_residual <= 1e-8
    assert solution.signal.convention == ANALYST_PLUS


def test_l1_solver_determinism():
    _, problem = four_point_problem()
    first = l1_recover(problem)
    second = l1_recover(problem)
    assert first.iterations == second.iterations
    assert np.array_equal(first.signal.values, second.signal.values)
    assert first.objective == second.objective


def test_l1_no_missing_frequencies_is_one_projection():
    rng = np.random.default_rng(2)
    p = GroupParams(6, 1)
    f = Signal(p, rng.normal(size=6) + 1j * rng.normal(size=6))
    problem = RecoveryProblem.from_signal(f, SupportSet(p, ()))
    solution = l1_recover(problem)
    assert solution.iterations == 1
    assert solution.status == "converged"
    assert np.max(np.abs(solution.signal.values - f.values)) <= 1e-12


def test_l1_iteration_budget_reports_max_iter():
    _, problem = four_point_problem()
    solution = l1_recover(problem, max_iter=3)
    assert solution.status == "max-iter"
    assert solution.iterations == 3
    # the projected iterate is feasible even when the budget runs out
    assert solution.feasibility_residual <= 1e-10
    assert "near_degenerate" in solution.diagnostics


@pytest.mark.parametrize("max_iter", [-5, 0])
def test_l1_rejects_a_nonpositive_iteration_budget(max_iter):
    _, problem = four_point_problem()
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        l1_recover(problem, max_iter=max_iter)


def test_l1_all_zero_observations():
    p = GroupParams(8, 1)
    f = Signal(p, np.zeros(8, dtype=complex))
    problem = RecoveryProblem.from_signal(f, SupportSet.from_coords(p, [(1,), (5,)]))
    solution = l1_recover(problem)
    assert solution.status == "converged"
    assert solution.objective == 0.0
    assert np.all(solution.signal.values == 0)


def test_l1_exact_recovery_random_trials():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(6, 17))
        while True:
            e_size = int(rng.integers(1, 4))
            s_size = int(rng.integers(0, 4))
            if 2 * e_size * s_size < n:
                break
        f, problem = random_problem(rng, n, 1, e_size, s_size)
        solution = l1_recover(problem)
        scale = max(1.0, float(np.max(np.abs(f.values))))
        assert solution.status == "converged"
        assert np.max(np.abs(solution.signal.values - f.values)) <= 1e-6 * scale
        assert solution.feasibility_residual <= 1e-8 * scale


def test_objective_profile_four_point_walkthrough():
    f, problem = four_point_problem()
    direction = Signal(P4, np.array([-1, 1, -1, 1], dtype=complex), ANALYST_PLUS)
    profile = l1_objective_profile(problem, direction, [0.0, 1.0, -0.5j], base=f)
    assert profile[0] == pytest.approx(3.0, abs=1e-12)
    assert profile[1] == pytest.approx(5.0, abs=1e-12)  # |0| + 2 + |3|
    for value, step in zip(profile, [0.0, 1.0, -0.5j]):
        assert value >= 3.0 + 2.0 * abs(step) - 1e-12


def test_objective_profile_defaults_to_l1_solution():
    _, problem = four_point_problem()
    direction = Signal(P4, np.array([-1, 1, -1, 1], dtype=complex), ANALYST_PLUS)
    profile = l1_objective_profile(problem, direction, [0.0, 0.5])
    assert profile[0] == pytest.approx(3.0, abs=1e-5)
    assert profile[1] > profile[0]


def test_objective_profile_rejects_infeasible_direction():
    _, problem = four_point_problem()
    bad = Signal(P4, np.array([1, 0, 0, 0], dtype=complex), ANALYST_PLUS)
    with pytest.raises(ValueError):
        l1_objective_profile(problem, bad, [0.0])


def test_objective_profile_rejects_a_base_from_another_group():
    p = GroupParams(8, 1)
    f = Signal(p, np.array([1, 0, 0, 0, 2, 0, 0, 0], dtype=complex))
    problem = RecoveryProblem.from_signal(f, SupportSet.from_coords(p, [(1,)]))
    direction = Signal(p, np.exp(2j * np.pi * np.arange(8) / 8))  # spectrum on {1}
    base = Signal(GroupParams(2, 3), f.values)  # the same 8 values on Z_2^3
    with pytest.raises(ValueError, match="base lives in a different group"):
        l1_objective_profile(problem, direction, [0.0, 1.0], base=base)


def test_least_squares_with_true_support():
    f, problem = four_point_problem()
    support = SupportSet.from_coords(P4, [(0,), (3,)])
    solution = least_squares_recover(problem, support)
    assert solution.status == "converged"
    assert solution.feasibility_residual <= 1e-10
    assert np.max(np.abs(solution.signal.values - f.values)) <= 1e-10
    assert solution.diagnostics["rank"] == 2


def test_least_squares_full_support_no_missing_is_inverse_transform():
    rng = np.random.default_rng(13)
    p = GroupParams(5, 1)
    f = Signal(p, rng.normal(size=5) + 1j * rng.normal(size=5))
    problem = RecoveryProblem.from_signal(f, SupportSet(p, ()))
    full = SupportSet.from_coords(p, [(i,) for i in range(5)])
    solution = least_squares_recover(problem, full)
    assert solution.status == "converged"
    inverse = idft(Signal(p, problem.target, problem.convention, side="frequency"))
    assert np.max(np.abs(solution.signal.values - inverse.values)) <= 1e-10


def test_least_squares_underdetermined_is_infeasible():
    _, problem = four_point_problem()
    too_big = SupportSet.from_coords(P4, [(0,), (1,), (3,)])
    solution = least_squares_recover(problem, too_big)
    assert solution.status == "infeasible"
    assert solution.diagnostics["reason"] == "non-unique"
    assert solution.diagnostics["rank"] < len(too_big)


def test_least_squares_wrong_support_is_inconsistent():
    # overdetermined with a wrong support: full rank but a large residual,
    # reported as infeasible so converged always means feasible
    p = GroupParams(8, 1)
    values = np.zeros(8, dtype=complex)
    values[[0, 3]] = [1.0, 2.0]
    f = Signal(p, values)
    problem = RecoveryProblem.from_signal(f, SupportSet.from_coords(p, [(1,)]))
    wrong = SupportSet.from_coords(p, [(5,)])
    solution = least_squares_recover(problem, wrong)
    assert solution.status == "infeasible"
    assert solution.diagnostics["reason"] == "inconsistent"
    assert solution.feasibility_residual > 0.1


def test_uniqueness_check_examples():
    assert not uniqueness_check(2, SupportSet.from_coords(P4, [(1,), (2,)]), P4)
    assert uniqueness_check(2, SupportSet(P4, ()), P4)
    p16 = GroupParams(16, 1)
    s3 = SupportSet.from_coords(p16, [(1,), (2,), (3,)])
    assert uniqueness_check(2, s3, p16)
    for other in (GroupParams(5, 1), GroupParams(4, 2)):
        s = SupportSet.from_coords(other, [(1,) * other.dimension])
        with pytest.raises(ValueError, match="set lives in a different group"):
            uniqueness_check(1, s, P4)


def test_concentration_equality_case():
    # spectrum = delta at 0 makes h constant; the bound is met with equality
    p = GroupParams(8, 1)
    spec = np.zeros(8, dtype=complex)
    spec[0] = 1.0
    h = idft(Signal(p, spec, side="frequency"))
    e = SupportSet.from_coords(p, [(0,), (3,), (5,)])
    s = SupportSet.from_coords(p, [(0,)])
    result = concentration_check(h, e, s)
    assert result.holds
    assert result.lhs == pytest.approx(result.rhs, rel=1e-12)


def test_concentration_four_point_difference():
    h = Signal(P4, np.array([-1, 1, -1, 1], dtype=complex), ANALYST_PLUS)
    e = SupportSet.from_coords(P4, [(0,), (3,)])
    s = SupportSet.from_coords(P4, [(1,), (2,)])
    result = concentration_check(h, e, s)
    assert result == (2.0, 4.0, True)


def test_concentration_random_sweep():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(3, 13))
        p = GroupParams(n, 1)
        s_size = int(rng.integers(1, n + 1))
        sidx = rng.choice(n, size=s_size, replace=False)
        spec = np.zeros(n, dtype=complex)
        spec[sidx] = rng.normal(size=s_size) + 1j * rng.normal(size=s_size)
        h = idft(Signal(p, spec, side="frequency"))
        s = SupportSet(p, tuple(p.from_flat(int(i)) for i in sidx))
        e_size = int(rng.integers(1, n + 1))
        eidx = rng.choice(n, size=e_size, replace=False)
        e = SupportSet(p, tuple(p.from_flat(int(i)) for i in eidx))
        assert concentration_check(h, e, s).holds


def test_concentration_rejects_leaky_spectrum():
    p = GroupParams(4, 1)
    h = Signal(p, np.array([1, 1, 0, 0], dtype=complex))
    e = SupportSet.from_coords(p, [(0,)])
    s = SupportSet.from_coords(p, [(0,)])  # spectrum actually leaks beyond {0}
    with pytest.raises(ValueError):
        concentration_check(h, e, s)


def test_problem_json_round_trip(tmp_path):
    _, problem = four_point_problem()
    data = problem_to_json_dict(problem)
    assert data["missing"] == [[1], [2]]
    restored = problem_from_json_dict(data)
    assert restored.convention == problem.convention
    assert observed(restored) == observed(problem)

    path = tmp_path / "problem.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert observed(loaded) == observed(problem)
    solution = l1_recover(loaded)
    assert np.max(np.abs(solution.signal.values - [1, 0, 0, 2])) <= 1e-6


def test_solution_json_shape():
    _, problem = four_point_problem()
    solution = l1_recover(problem, max_iter=200)
    data = solution.to_json_dict()
    assert set(data) == {
        "status",
        "objective",
        "feasibility_residual",
        "iterations",
        "diagnostics",
        "signal",
    }


def test_problem_from_json_rejects_missing_outside_the_group():
    _, problem = four_point_problem()
    data = problem_to_json_dict(problem)
    for bad in ([[5]], [[-1]], [[1, 0]], [[1.0]], [1]):
        data["missing"] = bad
        with pytest.raises(ValueError, match="missing frequency 0 .* is not a point of Z_4"):
            problem_from_json_dict(data)


def test_problem_arrays_match_the_mapping():
    rng = np.random.default_rng(31)
    for n, d, conv in [(6, 1, UNITARY_MINUS), (4, 2, ANALYST_PLUS)]:
        p = GroupParams(n, d)
        f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size), conv)
        sidx = rng.choice(p.size, size=3, replace=False)
        missing = SupportSet(p, tuple(p.from_flat(int(i)) for i in sidx))
        problem = RecoveryProblem.from_signal(f, missing)
        spectrum = dft(f)
        expected = {m: spectrum.value_at(m) for m in all_points(p) if m not in missing}
        assert observed(problem) == expected
        assert problem.missing == missing
        assert problem.convention == conv
        assert not problem.mask[sidx].any() and np.all(problem.target[sidx] == 0)
        with pytest.raises(ValueError):
            problem.target[0] = 1.0


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def literal_least_squares_system(problem, support):
    """The least-squares system as first written, one np.exp per entry."""
    params = problem.params
    observations = observed(problem)
    frequencies = sorted(observations, key=lambda m: flat_index(params, m))
    sign = problem.convention.forward_sign
    fscale = problem.convention.forward_scale(params)
    matrix = np.empty((len(frequencies), len(support)), dtype=np.complex128)
    for i, m in enumerate(frequencies):
        for j, x in enumerate(support):
            matrix[i, j] = fscale * np.exp(
                sign * 2j * np.pi * dot(m, x) / params.modulus
            )
    rhs = np.array([observations[m] for m in frequencies], dtype=np.complex128)
    return matrix, rhs


@pytest.mark.parametrize("n,d", [(4, 1), (7, 1), (12, 1), (100, 1), (5, 2), (9, 2), (12, 2)])
@pytest.mark.parametrize(
    "convention",
    [Convention(norm, sign) for norm in ("unitary", "analyst") for sign in ("minus-forward", "plus-forward")],
)
def test_least_squares_system_matches_double_loop(n, d, convention):
    rng = np.random.default_rng([n, d])
    f, problem = random_problem(rng, n, d, 4, 3)
    problem = RecoveryProblem.from_signal(
        Signal(f.params, f.values, convention), problem.missing
    )
    support = SupportSet(
        f.params,
        tuple(f.params.from_flat(int(i)) for i in rng.choice(f.params.size, size=4, replace=False)),
    )
    matrix, rhs = _least_squares_system(problem, support)
    literal_matrix, literal_rhs = literal_least_squares_system(problem, support)
    assert same_bits(matrix, literal_matrix)
    assert same_bits(rhs, literal_rhs)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "convention",
    [Convention(norm, sign) for norm in ("unitary", "analyst") for sign in ("minus-forward", "plus-forward")],
)
def test_least_squares_system_matches_the_per_entry_build(d, convention):
    rng = np.random.default_rng([d, 31])
    for n in {1: (2, 16, 97, 256), 2: (3, 12, 31), 3: (2, 5, 9)}[d]:
        p = GroupParams(n, d)
        f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size), convention)
        s_flat = rng.choice(p.size, size=int(rng.integers(0, p.size)), replace=False)
        e_flat = rng.choice(p.size, size=int(rng.integers(1, min(p.size, 40) + 1)), replace=False)
        missing = SupportSet.from_flat(p, s_flat)
        everything = SupportSet.from_flat(p, np.arange(p.size))
        for problem in (
            RecoveryProblem.from_signal(f, missing),
            RecoveryProblem.from_signal(f, everything),  # every frequency missing
        ):
            for support in (SupportSet.from_flat(p, e_flat), SupportSet(p, ())):
                matrix, rhs = _least_squares_system(problem, support)
                oracle_matrix, oracle_rhs = least_squares_system_per_entry(problem, support)
                assert same_bits(matrix, oracle_matrix)
                assert same_bits(rhs, oracle_rhs)


def oracle_soft_threshold(values, tau):
    """Complex soft-thresholding as first written."""
    mag = np.abs(values)
    shrink = np.maximum(mag - tau, 0.0)
    return values * np.divide(shrink, mag, out=np.zeros_like(mag), where=mag > 0)


def oracle_l1(problem, feas_tol=1e-8, obj_tol=1e-8, max_iter=50000):
    """The Douglas-Rachford loop as first written, constraints read from the
    mapping one frequency at a time and both matrices rebuilt on every call.
    Returns (signal values, objective, iterations, gap) of a converged solve."""
    params = problem.params
    factor = problem.convention.forward_scale(params) * math.sqrt(params.size)
    target = np.zeros(params.size, dtype=np.complex128)
    mask = np.zeros(params.size, dtype=bool)
    for m, v in observed(problem).items():
        idx = flat_index(params, negate(m) if problem.convention.forward_sign == 1 else m)
        target[idx] = v / factor
        mask[idx] = True
    scale = params.size**-0.5

    def project(g):
        spec = dense_transform(g, params, -1) * scale
        spec[mask] = target[mask]
        return dense_transform(spec, params, 1) * scale

    zero_fill = project(np.zeros(params.size, dtype=np.complex128))
    problem_scale = float(np.max(np.abs(zero_fill)))
    tau = 0.25 * problem_scale
    gap_tol = feas_tol * problem_scale
    x = zero_fill.copy()
    previous_objective = math.inf
    for iteration in range(1, max_iter + 1):
        y = oracle_soft_threshold(x, tau)
        z = project(2.0 * y - x)
        x += z - y
        gap = float(np.max(np.abs(y - z)))
        objective = float(np.sum(np.abs(z)))
        if gap <= gap_tol and abs(objective - previous_objective) <= obj_tol * max(
            1.0, objective
        ):
            return z, objective, iteration, gap
        previous_objective = objective
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize(
    "n,d,e_size,s_size", [(16, 1, 2, 3), (31, 1, 3, 4), (6, 2, 2, 5), (8, 2, 3, 6), (4, 3, 2, 3)]
)
@pytest.mark.parametrize("convention", [UNITARY_MINUS, ANALYST_PLUS])
def test_l1_matches_per_call_matrix_oracle(n, d, e_size, s_size, convention):
    rng = np.random.default_rng([n, d, e_size])
    f, problem = random_problem(rng, n, d, e_size, s_size)
    problem = RecoveryProblem.from_signal(
        Signal(f.params, f.values, convention), problem.missing
    )
    solution = l1_recover(problem)
    values, objective, iterations, gap = oracle_l1(problem)
    assert solution.status == CONVERGED
    assert solution.iterations == iterations > 1
    assert solution.diagnostics["gap"] == gap
    assert same_bits(solution.signal.values, values)
    assert solution.objective == objective
    spectrum = dft(Signal(problem.params, values, problem.convention))
    observations = observed(problem)
    flat = [flat_index(problem.params, m) for m in observations]
    # one np.abs over the observed entries, as the solver takes it: Python's
    # abs of a single entry can round one ulp apart from numpy's
    assert solution.feasibility_residual == float(
        np.abs(spectrum.values[flat] - np.array(list(observations.values()))).max()
    )


def test_l1_recover_many_matches_each_problem_solved_alone():
    # one mixed list: five groups interleaved (two of them FFT-route), both
    # conventions, a fully observed problem, all-zero observations, and 64
    # problems on Z_8; then the same list under budgets that stop some rows
    # or all of them
    rng = np.random.default_rng(2024)
    shapes = [(8, 1), (4, 2), (3, 3), (64, 1), (33, 2)]
    problems = []
    for k in range(20):
        n, d = shapes[k % len(shapes)]
        size = n**d
        f, problem = random_problem(rng, n, d, int(rng.integers(1, 4)), int(rng.integers(1, min(7, size // 4) + 1)))
        convention = (UNITARY_MINUS, ANALYST_PLUS)[k % 2]
        problems.append(RecoveryProblem.from_signal(Signal(f.params, f.values, convention), problem.missing))
    full, _ = random_problem(rng, 4, 2, 3, 0)
    problems.insert(3, RecoveryProblem.from_signal(full, SupportSet(full.params, ())))
    p8 = GroupParams(8, 1)
    problems.insert(7, RecoveryProblem.from_signal(Signal(p8, np.zeros(8)), SupportSet.from_flat(p8, np.array([1, 6]))))
    for k in range(64):
        _, problem = random_problem(rng, 8, 1, int(rng.integers(1, 4)), int(rng.integers(0, 7)))
        problems.append(problem)

    solutions = l1_recover_many(problems)
    assert len(solutions) == len(problems)
    methods = {s.diagnostics.get("method") for s in solutions}
    assert methods == {None, "direct-inverse"}
    assert any(s.iterations == 0 for s in solutions)
    for problem, solution in zip(problems, solutions):
        alone = l1_recover(problem)
        assert_same_solution(solution, alone)
        if "gap" in solution.diagnostics and problem.params.modulus <= 32:
            values, objective, iterations, gap = oracle_l1(problem)
            assert (solution.iterations, solution.diagnostics["gap"]) == (iterations, gap)
            assert same_bits(solution.signal.values, values) and solution.objective == objective

    iterations = sorted(s.iterations for s in solutions)
    for budget in (3, iterations[len(iterations) // 2]):
        stopped = l1_recover_many(problems, max_iter=budget)
        assert {s.status for s in stopped} >= {"max-iter"}
        for problem, solution in zip(problems, stopped):
            assert_same_solution(solution, l1_recover(problem, max_iter=budget))
    assert l1_recover_many([]) == []


def assert_same_solution(solution, alone):
    assert solution.status == alone.status
    assert solution.iterations == alone.iterations
    assert same_bits(solution.signal.values, alone.signal.values)
    assert solution.signal.convention == alone.signal.convention
    assert solution.objective == alone.objective
    assert solution.feasibility_residual == alone.feasibility_residual
    assert solution.diagnostics == alone.diagnostics
    assert all(type(v) in (float, bool, str) for v in solution.diagnostics.values())


def test_l1_recovers_a_sparse_signal_on_z_65536():
    # past the old dense-transform guard (N^2 <= 2^24): the FFT route solves it
    p = GroupParams(65536, 1)
    rng = np.random.default_rng(65536)
    values = np.zeros(p.size, dtype=np.complex128)
    values[rng.choice(p.size, size=16, replace=False)] = rng.normal(size=16) + 1j * rng.normal(size=16)
    missing = SupportSet.from_flat(p, rng.choice(p.size, size=1000, replace=False))
    solution = l1_recover(RecoveryProblem.from_signal(Signal(p, values), missing))
    assert solution.status == CONVERGED
    scale = max(1.0, float(np.max(np.abs(values))))
    assert np.max(np.abs(solution.signal.values - values)) <= 1e-6 * scale


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(4, 1), (9, 1), (16, 1), (3, 2), (5, 2), (3, 3)]),
    st.sampled_from(
        [Convention(norm, sign) for norm in ("unitary", "analyst") for sign in ("minus-forward", "plus-forward")]
    ),
    st.integers(0, 2**32 - 1),
)
def test_l1_converged_output_is_feasible(group, convention, seed):
    n, d = group
    rng = np.random.default_rng(seed)
    size = n**d
    e_size = int(rng.integers(0, size // 2 + 1))
    s_size = int(rng.integers(0, size // 2 + 1))
    f, problem = random_problem(rng, n, d, e_size, s_size)
    problem = RecoveryProblem.from_signal(
        Signal(f.params, f.values, convention), problem.missing
    )
    solution = l1_recover(problem, max_iter=2000)
    scale = float(np.max(np.abs(problem.target), initial=0.0))
    if solution.status == CONVERGED:
        assert solution.feasibility_residual <= FEAS_TOL * scale
    spectrum = dft(solution.signal)
    assert solution.feasibility_residual == float(
        np.max(np.abs(spectrum.values[problem.mask] - problem.target[problem.mask]), initial=0.0)
    )
