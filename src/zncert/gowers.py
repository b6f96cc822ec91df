"""Uniformity norms of order k and an inequality scanner.

The k-th uniformity norm averages, over all base points x and shift
tuples (h_1, ..., h_k), the product of f over the 2^k cube vertices
x + w . h for w in {0,1}^k, conjugating at vertices with an odd number of
ones. For k = 2 that sum equals sum_xi |F(xi)|^4 / N^d, where F is the
unnormalised transform, so the order-2 norm costs one transform and has
no guard of its own. For k = 3 the sum is evaluated literally (vectorized
over x, looping over the shift tuples), N^{4d} terms, which a capacity
guard keeps at desk scale. The scanner builds its own signals and both
supports of each as point sets, so it also stops at SCAN_POINT_LIMIT
points.

For k = 2 the norm encodes additive energy:
N^{3d} * ||1_A||^4 equals energy(A) exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .errors import CapacityError
from .lattice import GroupParams
from .spectral import Signal, _transform, dft, indicator, random_signal, support_of

GOWERS_TERM_LIMIT = 2**26
MAX_ORDER = 3
SCAN_POINT_LIMIT = 2**16  # each trial builds supports of up to N^d points, one object each


@dataclass(frozen=True)
class GowersReport:
    """Norm of one signal at one order, with the raw power sum exposed.

    ``raw_sum`` is the cube-average sum before normalization and root;
    it is real and nonnegative up to roundoff. ``exponent_form`` is the
    norm raised to 2^k / (k+1), the power appearing in coset identities.
    """

    k: int
    norm_value: float
    raw_sum: float
    exponent_form: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _require_order(params: GroupParams, k: int) -> None:
    """Refuse an order outside [2, MAX_ORDER], or an order-3 cube sum of over GOWERS_TERM_LIMIT terms."""
    if not 2 <= k <= MAX_ORDER:
        raise ValueError(f"order must lie in [2, {MAX_ORDER}], got {k}")
    if k == 2:  # one transform of a signal that already exists
        return
    terms = params.size ** (k + 1)
    if terms > GOWERS_TERM_LIMIT:
        raise CapacityError(
            f"norm of order {k} on this group sums {terms} terms"
            f" (limit {GOWERS_TERM_LIMIT})"
        )


def _cube_sum(f: Signal, k: int) -> float:
    """The raw order-k sum, evaluated literally over all N^{d(k+1)} terms."""
    n, d = f.params.modulus, f.params.dimension
    grid = f.values.reshape((n,) * d)
    conj_grid = np.conj(grid)
    axes = tuple(range(d))
    vertices = list(product((0, 1), repeat=k))

    total = 0.0 + 0.0j
    for shifts in product(product(range(n), repeat=d), repeat=k):
        prod_grid = np.ones((n,) * d, dtype=np.complex128)
        for w in vertices:
            offset = tuple(
                -sum(wi * h[axis] for wi, h in zip(w, shifts)) % n for axis in axes
            )
            base = conj_grid if sum(w) % 2 else grid
            prod_grid = prod_grid * np.roll(base, shift=offset, axis=axes)
        total += prod_grid.sum()

    magnitude = abs(total)
    if magnitude > 0 and abs(total.imag) > 1e-9 * magnitude:
        raise ArithmeticError(
            f"cube-average sum is not real: {total!r}"
        )
    return total.real


def _fourier_sum(f: Signal) -> float:
    """The raw order-2 sum as sum_xi |F(xi)|^4 / N^d, F the unnormalised transform."""
    power = np.abs(_transform(f.params, -1)(f.values)) ** 2
    return float(np.sum(power * power)) / f.params.size


def gowers_norm(f: Signal, k: int) -> GowersReport:
    """Evaluate the order-k uniformity norm of a signal (k = 2 by its transform)."""
    params = f.params
    _require_order(params, k)
    raw = _fourier_sum(f) if k == 2 else _cube_sum(f, k)
    normalized = max(raw, 0.0) / params.size ** (k + 1)
    norm_value = normalized ** (1.0 / 2**k)
    return GowersReport(
        k=k,
        norm_value=norm_value,
        raw_sum=raw,
        exponent_form=norm_value ** (2**k / (k + 1)),
    )


@dataclass(frozen=True)
class ScanWitness:
    """The signal behind one scanned product value."""

    product: float
    support_size: int
    spectrum_support_size: int
    support: list[list[int]]
    spectrum_support: list[list[int]]
    direction: str  # which side's support size multiplied which indicator norm


@dataclass
class ConjectureScanReport:
    """Outcome of scanning 1 <= |E| * ||1_Sigma||^{2^k/(k+1)} empirically.

    The scan gathers evidence only; it asserts nothing about the general
    statement. Violations (product < 1 - 1e-9) are collected with full
    witness data and must be surfaced by callers, never suppressed.
    """

    params: GroupParams
    k: int
    sampler: str
    trials: int
    seed: int
    min_product: float = float("inf")
    min_witness: ScanWitness | None = None
    violations: list[ScanWitness] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "N": self.params.modulus,
            "d": self.params.dimension,
            "k": self.k,
            "sampler": self.sampler,
            "trials": self.trials,
            "seed": self.seed,
            "min_product": self.min_product,
            "min_witness": asdict(self.min_witness) if self.min_witness else None,
            "violation_count": len(self.violations),
            "violations": [asdict(w) for w in self.violations],
        }


VIOLATION_TOL = 1e-9


def _scan_one(report: ConjectureScanReport, f: Signal) -> None:
    e = support_of(f)
    sigma = support_of(dft(f))
    if len(e) == 0 or len(sigma) == 0:
        return
    k = report.k
    pairs = (
        (len(e), sigma, "support-times-spectrum-norm"),
        (len(sigma), e, "spectrum-times-support-norm"),
    )
    for size, other, direction in pairs:
        value = size * gowers_norm(indicator(other), k).exponent_form
        is_min = value < report.min_product
        is_violation = value < 1.0 - VIOLATION_TOL
        if not (is_min or is_violation):
            continue  # most products are neither, and a witness lists both supports
        witness = ScanWitness(
            product=value,
            support_size=len(e),
            spectrum_support_size=len(sigma),
            support=e.coords().tolist(),
            spectrum_support=sigma.coords().tolist(),
            direction=direction,
        )
        if is_min:
            report.min_product = value
            report.min_witness = witness
        if is_violation:
            report.violations.append(witness)


def conjecture_scan(
    params: GroupParams,
    k: int,
    sampler: str = "random",
    trials: int = 500,
    seed: int = 0,
) -> ConjectureScanReport:
    """Scan signals for the product |E| * ||1_Sigma||^{2^k/(k+1)} >= 1.

    Samplers: "exhaustive-small" enumerates every nonzero signal with
    values in {0, 1, -1} (one-dimensional groups with N <= 6 only);
    "random" draws complex Gaussian values on uniformly random supports.
    Both directions of each sampled signal are scanned. An order or group
    that ``gowers_norm`` refuses, or a group of more than SCAN_POINT_LIMIT
    points, is refused before any signal is drawn.
    """
    _require_order(params, k)
    if params.size > SCAN_POINT_LIMIT:
        raise CapacityError(
            f"conjecture scan needs N^d <= {SCAN_POINT_LIMIT}, got N^d = {params.size}"
        )
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    report = ConjectureScanReport(params, k, sampler, trials, seed)
    if sampler == "exhaustive-small":
        if params.dimension != 1 or params.modulus > 6:
            raise ValueError("exhaustive-small requires d = 1 and N <= 6")
        count = 0
        for values in product((0.0, 1.0, -1.0), repeat=params.size):
            if not any(values):
                continue
            _scan_one(report, Signal(params, np.array(values, dtype=np.complex128)))
            count += 1
        report.trials = count
        return report

    if sampler == "random":
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            _scan_one(report, random_signal(params, rng))
        return report

    raise ValueError(f"unknown sampler {sampler!r}")
