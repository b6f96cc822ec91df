"""Signal reconstruction from partially observed spectra.

Three tools: an equality-constrained l1 minimizer (basis pursuit over the
complex field), a support-constrained least-squares solver, and the
classical sufficient predicate for uniqueness. The l1 solver is a
Douglas-Rachford operator splitting that alternates the proximal map of
the l1 norm (complex soft-thresholding, which shrinks magnitudes and
preserves phases) with the exact Euclidean projection onto the affine set
of signals whose spectra match the observations. The projection is one
transform round trip with the observed coordinates overwritten; it is
performed in the unitary convention, to which the solver converts
internally regardless of the problem's own convention. The transform is
``spectral``'s: the memoised dense character-matrix sum up to N = 32 and
an FFT above it, chosen once per group. ``l1_recover_many`` runs one loop
over the (B, N^d) stack of a group's problems, each leaving the stack when
its own stopping test passes, with the bits it has when solved alone;
``l1_recover`` is that loop on a stack of one. The observed indices and
values are gathered once per stack and again when a row leaves it, and
the iteration scales in place.

A problem is a frozen record of its group, its convention and two
row-major arrays, the observed values and the observed mask.
``RecoveryProblem.from_spectrum`` is the one way to build it; ``from_signal``
and the problem-file loader go through it. The missing set is where the
mask is False, and the least-squares system is built from the
arrays in one pass, its entries gathered from a table of the N characters
of the integer phases. The solver's tolerances and step rule are module
constants; only its iteration budget is an argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lattice import GroupParams, SupportSet, points_from_json
from .spectral import (
    FREQUENCY,
    TIME,
    Convention,
    Signal,
    _transform,
    dft,
    negation_permutation,
    signal_from_json_dict,
    signal_to_json_dict,
    support_of,
)

CONVERGED = "converged"
MAX_ITER = "max-iter"
INFEASIBLE = "infeasible"

# l1 solver tolerances and step; artifact choices, not claims.
DEFAULT_MAX_ITER = 50000
FEAS_TOL = 1e-8
OBJ_TOL = 1e-8
#: The prox step as a fraction of the peak of the zero-fill signal.
TAU_FRACTION = 0.25


@dataclass(frozen=True, eq=False)
class RecoveryProblem:
    """Observed spectrum values for every frequency outside the missing set.

    Two read-only row-major arrays in the problem's convention: ``target``
    holds the observed values (zero at missing frequencies) and ``mask`` is
    True exactly on the observed frequencies. ``from_spectrum`` builds and
    freezes them; the missing set is derived from the mask on demand.
    """

    params: GroupParams
    target: np.ndarray
    mask: np.ndarray
    convention: Convention

    @classmethod
    def from_spectrum(cls, spectrum: Signal, missing: SupportSet) -> RecoveryProblem:
        """Build a problem from a full spectrum by erasing the missing entries."""
        if spectrum.side != FREQUENCY:
            raise ValueError(
                f"spectrum must be a frequency-side signal, got a {spectrum.side}-side one"
            )
        params = spectrum.params
        if missing.params != params:
            raise ValueError("missing set lives in a different group")
        mask = np.ones(params.size, dtype=bool)
        mask[missing.flat_indices()] = False
        target = np.array(spectrum.values)
        target[~mask] = 0.0
        target.setflags(write=False)
        mask.setflags(write=False)
        return cls(params, target, mask, spectrum.convention)

    @classmethod
    def from_signal(cls, f: Signal, missing: SupportSet) -> RecoveryProblem:
        """Transform a time-side signal and erase the missing frequencies."""
        if f.side != TIME:
            raise ValueError(f"signal must be a time-side signal, got a {f.side}-side one")
        return cls.from_spectrum(dft(f), missing)

    @property
    def missing(self) -> SupportSet:
        """The unobserved frequencies, in row-major order."""
        return SupportSet.from_flat(self.params, np.flatnonzero(~self.mask))


@dataclass(frozen=True)
class RecoverySolution:
    """Reconstructed signal plus solver diagnostics."""

    signal: Signal
    objective: float
    feasibility_residual: float
    iterations: int
    status: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "feasibility_residual": self.feasibility_residual,
            "iterations": self.iterations,
            "diagnostics": dict(self.diagnostics),
            "signal": signal_to_json_dict(self.signal),
        }


def _unitary_constraints(problem: RecoveryProblem) -> tuple[np.ndarray, np.ndarray]:
    """Re-express the constraints in the unitary minus-forward convention.

    A spectrum value v at frequency m under a convention with forward
    scale s and exponent sign sigma pins the unitary spectrum to
    v / (s * N^{d/2}) at m (sigma = -1) or at -m (sigma = +1).
    """
    params = problem.params
    factor = problem.convention.forward_scale(params) * math.sqrt(params.size)
    v = problem.target
    # Python's complex / float, written out part by part: numpy's complex
    # division multiplies by a reciprocal, which rounds differently.
    target = np.empty_like(v)
    target.real = (v.real + v.imag * 0.0) / factor
    target.imag = (v.imag - v.real * 0.0) / factor
    mask = problem.mask
    if problem.convention.forward_sign == 1:
        perm = negation_permutation(params)
        target, mask = target[perm], mask[perm]
    return target, mask


def _soft_threshold(values: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Complex soft-thresholding by ``tau`` > 0, an array of the values' shape."""
    # m = max(|v|, tau) > 0, so (m - tau) / m is (|v| - tau) / |v| where
    # |v| > tau and +0.0 elsewhere, |v| = 0 included: the bits of
    # max(|v| - tau, 0) / |v| with no division where |v| = 0, and no mask.
    peak = np.maximum(np.abs(values), tau)
    ratio = peak - tau
    ratio /= peak
    return values * ratio


def l1_recover(
    problem: RecoveryProblem, max_iter: int = DEFAULT_MAX_ITER
) -> RecoverySolution:
    """Minimize the l1 norm subject to matching all observed spectrum values.

    Douglas-Rachford iteration: y = prox_{tau * l1}(x), z = project(2y - x),
    x <- x + z - y, where project overwrites the observed unitary spectrum
    coordinates (the exact Euclidean projection). Every z is feasible; the
    iteration stops when the prox point and the projected point coincide to
    within FEAS_TOL relative to the problem scale and the objective has
    stabilized to within OBJ_TOL, or after ``max_iter`` iterations. This is
    ``l1_recover_many`` on a stack of one.
    """
    return l1_recover_many([problem], max_iter)[0]


def l1_recover_many(
    problems: list[RecoveryProblem], max_iter: int = DEFAULT_MAX_ITER
) -> list[RecoverySolution]:
    """``l1_recover`` of every problem, in input order, bit for bit.

    Problems on the same group run one Douglas-Rachford loop over a (B, N^d)
    stack, and each leaves the stack when its own stopping test passes.
    Every step is elementwise on the stack or a per-row reduction with the
    summation order of a lone vector, and the transforms give each row the
    bits it has alone, so each solution, its iteration count and its
    diagnostics equal those of the problem solved by itself.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    groups: dict[GroupParams, list[int]] = {}
    for index, problem in enumerate(problems):
        problem.params.require_dense("l1 recovery")
        groups.setdefault(problem.params, []).append(index)
    solutions: list[RecoverySolution] = [None] * len(problems)  # type: ignore[list-item]
    for params, members in groups.items():
        solved = _douglas_rachford(params, [problems[i] for i in members], max_iter)
        for index, solution in zip(members, solved):
            solutions[index] = solution
    return solutions


def _douglas_rachford(
    params: GroupParams, problems: list[RecoveryProblem], max_iter: int
) -> list[RecoverySolution]:
    """The l1 loop over a stack of problems on one group.

    Row k of the stack holds the iterate of ``problems[active[k]]``. The
    prox, the 2y - x step and the scaling are elementwise, with each row's
    threshold repeated along it; one flat assignment writes the observed
    targets of every active row, and its index is rebuilt only when a row
    leaves the stack. A row's objective, the l1 norm of its projected point,
    is summed only once its gap has passed, from this iterate and the last.
    """
    size = params.size
    scale = size**-0.5
    forward, inverse = _transform(params, -1), _transform(params, 1)
    observed, observed_target = [], []
    for problem in problems:
        target, mask = _unitary_constraints(problem)
        observed.append(np.flatnonzero(mask))
        observed_target.append(target[observed[-1]])

    def gather(rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        flat = np.concatenate([observed[r] + k * size for k, r in enumerate(rows)])
        return flat, np.concatenate([observed_target[r] for r in rows])

    def project(g: np.ndarray, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        spec = forward(g)
        spec *= scale
        spec.put(flat, values)
        out = inverse(spec)
        out *= scale
        return out

    def finish(r: int, z: np.ndarray, iterations: int, status: str, **extra) -> None:
        # dft(z) under the problem's convention
        problem = problems[r]
        spectrum = _transform(params, problem.convention.forward_sign)(z)
        spectrum *= problem.convention.forward_scale(params)
        mask = problem.mask
        solutions[r] = RecoverySolution(
            signal=Signal(params, z, problem.convention, side=TIME),
            objective=float(np.abs(z).sum()),
            feasibility_residual=float(
                np.abs(spectrum[mask] - problem.target[mask]).max(initial=0.0)
            ),
            iterations=iterations,
            status=status,
            diagnostics=extra,
        )

    solutions: list[RecoverySolution] = [None] * len(problems)  # type: ignore[list-item]
    rows = list(range(len(problems)))
    zero_fill = project(np.zeros((len(rows), size), dtype=np.complex128), *gather(rows))
    problem_scale = np.maximum.reduce(np.abs(zero_fill), axis=1)
    active = []
    for r, problem in enumerate(problems):
        if problem.mask.all():
            finish(r, zero_fill[r], 1, CONVERGED, method="direct-inverse")
        elif problem_scale[r] == 0.0:
            # All observed values vanish, so the zero signal is feasible and optimal.
            finish(r, np.zeros(size, dtype=np.complex128), 0, CONVERGED)
        else:
            active.append(r)
    if not active:
        return solutions

    tau = np.repeat(TAU_FRACTION * problem_scale[active, None], size, axis=1)
    gap_tol = (FEAS_TOL * problem_scale[active]).tolist()
    flat, values = gather(active)
    x = zero_fill[active]
    z = x
    for iteration in range(1, max_iter + 1):
        previous = z
        y = _soft_threshold(x, tau)
        z = project(2.0 * y - x, flat, values)
        step = z - y
        x += step
        # |z - y| and |y - z| have the same bits
        gap = np.maximum.reduce(np.abs(step), axis=1).tolist()
        done = []
        for k, g in enumerate(gap):
            # the first iterate's previous objective is infinite, so it never passes
            if g <= gap_tol[k] and iteration > 1:
                objective = float(np.abs(z[k]).sum())
                if abs(objective - float(np.abs(previous[k]).sum())) <= OBJ_TOL * max(1.0, objective):
                    done.append(k)
        if done:
            for k in done:
                finish(active[k], z[k], iteration, CONVERGED, gap=gap[k], tau=float(tau[k, 0]))
            keep = [k for k in range(len(active)) if k not in done]
            if not keep:
                return solutions
            active, gap_tol, gap = ([a[k] for k in keep] for a in (active, gap_tol, gap))
            x, z, tau = x[keep], z[keep], tau[keep]
            flat, values = gather(active)

    for k, r in enumerate(active):
        objective = float(np.abs(z[k]).sum())
        prox_objective = float(np.abs(_soft_threshold(x[k], tau[k])).sum())
        finish(
            r,
            z[k],
            max_iter,
            MAX_ITER,
            gap=gap[k],
            tau=float(tau[k, 0]),
            near_degenerate=abs(prox_objective - objective) < 10.0 * OBJ_TOL,
        )
    return solutions


def l1_objective_profile(
    problem: RecoveryProblem,
    direction: Signal,
    steps: list[complex],
    base: Signal | None = None,
) -> list[float]:
    """l1 norms along a feasible line: ||base + s * direction||_1 per step.

    The direction must lie in the feasible null space, meaning its spectrum
    vanishes on every observed frequency (checked to 1e-10 relative to its
    spectral peak). When no base point is supplied the l1 minimizer is used.
    """
    if direction.params != problem.params:
        raise ValueError("direction lives in a different group")
    if base is not None and base.params != problem.params:
        raise ValueError("base lives in a different group")
    spec = dft(
        Signal(problem.params, direction.values, problem.convention, side=TIME)
    )
    peak = float(np.max(np.abs(spec.values)))
    limit = 1e-10 * max(1.0, peak)
    worst = float(np.max(np.abs(spec.values[problem.mask]), initial=0.0))
    if worst > limit:
        raise ValueError(
            f"direction is not in the feasible null space: residual {worst:.3e}"
            f" on observed frequencies"
        )
    if base is None:
        base = l1_recover(problem).signal
    return [
        float(np.sum(np.abs(base.values + s * direction.values))) for s in steps
    ]


def _least_squares_system(
    problem: RecoveryProblem, support: SupportSet
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right side of ghat(m) = observed(m) over {g(x) : x in support}.

    Rows run over the observed frequencies in row-major order, columns over
    the support's members. An entry depends only on its phase m.x mod N, so
    the entries are gathered from a table of the N values, each computed by
    the expression a per-entry build would use, with the same bits.
    """
    params = problem.params
    frequencies = np.argwhere(problem.mask.reshape((params.modulus,) * params.dimension))
    phase = (frequencies @ support.coords().T) % params.modulus
    arg = problem.convention.forward_sign * 2j * np.pi * np.arange(params.modulus)
    # Python's complex / int divides each part; numpy's complex division
    # multiplies by a reciprocal, which rounds differently.
    arg.imag /= params.modulus
    table = problem.convention.forward_scale(params) * np.exp(arg)
    return table[phase], problem.target[problem.mask]


def least_squares_recover(
    problem: RecoveryProblem, support: SupportSet
) -> RecoverySolution:
    """Solve for a signal on a candidate support matching the observations.

    Sets up the linear system ghat(m) = observed(m) over the unknowns
    {g(x) : x in support} and solves it in the least-squares sense.
    Status is "converged" only for a full-column-rank system whose
    least-squares residual actually vanishes (a consistent system); rank
    deficiency (including more unknowns than observations) or a large
    residual (wrong support candidate) yields "infeasible" with the rank
    and reason recorded. The least-squares minimizer is returned either way.
    """
    if support.params != problem.params:
        raise ValueError("support lives in a different group")
    params = problem.params
    matrix, rhs = _least_squares_system(problem, support)
    n_obs, n_unknown = matrix.shape

    coeffs, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    values = np.zeros(params.size, dtype=np.complex128)
    values[support.flat_indices()] = coeffs
    signal = Signal(params, values, problem.convention, side=TIME)
    residual = float(np.max(np.abs(matrix @ coeffs - rhs))) if n_obs else 0.0

    consistent = residual <= 1e-10 * max(1.0, float(np.max(np.abs(rhs))) if n_obs else 0.0)
    diagnostics = {"rank": int(rank), "unknowns": n_unknown, "observations": n_obs}
    if rank < n_unknown:
        status = INFEASIBLE
        diagnostics["reason"] = "non-unique"
    elif not consistent:
        status = INFEASIBLE
        diagnostics["reason"] = "inconsistent"
    else:
        status = CONVERGED
    return RecoverySolution(
        signal=signal,
        objective=float(np.sum(np.abs(values))),
        feasibility_residual=residual,
        iterations=1,
        status=status,
        diagnostics=diagnostics,
    )


def uniqueness_check(e_size: int, s: SupportSet, params: GroupParams) -> bool:
    """Classical sufficient predicate: 2 |E| |S| < N^d guarantees uniqueness.

    Sufficient, not necessary: recovery can succeed when this fails.
    """
    if e_size < 0:
        raise ValueError("support size must be >= 0")
    if s.params != params:
        raise ValueError("set lives in a different group")
    return 2 * e_size * len(s) < params.size


class ConcentrationResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def concentration_check(
    h: Signal, e: SupportSet, s: SupportSet
) -> ConcentrationResult:
    """Check the mass concentration bound for a signal with spectrum in S.

    For supp(hhat) inside S:  sum_{x in E} |h(x)| <= (|E||S| / N^d) ||h||_1.
    Raises if the spectrum support (at the default threshold) leaks out of S.
    """
    if e.params != h.params or s.params != h.params:
        raise ValueError("sets live in a different group")
    stray = np.setdiff1d(support_of(dft(h)).flat_indices(), s.flat_indices())
    if stray.size:
        raise ValueError(f"spectrum is not supported inside S: {stray.size} stray frequencies")
    total = h.l1_norm()
    lhs = float(sum(abs(h.values[i]) for i in e.flat_indices()))
    rhs = (len(e) * len(s) / h.params.size) * total
    return ConcentrationResult(lhs, rhs, lhs <= rhs + 1e-9 * rhs)


def problem_to_json_dict(problem: RecoveryProblem) -> dict:
    spectrum = Signal(problem.params, problem.target, problem.convention, side=FREQUENCY)
    data = signal_to_json_dict(spectrum)
    data["missing"] = problem.missing.coords().tolist()
    return data


def problem_from_json_dict(data: dict) -> RecoveryProblem:
    spectrum = signal_from_json_dict(data, side=FREQUENCY)
    missing = points_from_json(spectrum.params, data.get("missing", []), "missing frequency")
    return RecoveryProblem.from_spectrum(spectrum, missing)


def save_problem(problem: RecoveryProblem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(problem_to_json_dict(problem), indent=2) + "\n")


def load_problem(path: str | Path) -> RecoveryProblem:
    return problem_from_json_dict(json.loads(Path(path).read_text()))
