"""Uncertainty and recovery certificates for support/spectrum pairs.

Three upper bounds on N^d, each the right side of N^d <= rhs, are
evaluated as explicit certificates: the classical product bound
|E||Sigma|, the additive-energy bound |E| * energy(Sigma)^{1/3}, and its
refinement with correction terms that vanish exactly on coset pairs.
Where the comparison reduces to integers (classical and additive kinds)
the satisfied flag is decided by comparing cubes exactly; cube roots are
taken for display only. The refined kind involves square roots and is
decided at tolerance 1e-9 * N^d.

``certify_pair(E, Sigma)`` is the one pipeline for a support pair: it
computes each exact energy once and returns all five certificates. The
single-bound evaluators accept arbitrary size/energy combinations so they
can be used as what-if calculators; only genuine signal supports are
guaranteed to satisfy the inequalities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .lattice import GroupParams, SupportSet
from .energy import energy_representation

TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class UncertaintyCertificate:
    """One evaluated inequality N^d <= rhs with all inputs recorded.

    ``correction`` is 0 for the classical and additive kinds. For the
    refined kind, ``improves_additive`` records whether the refined right
    side is at most the additive one, and ``status`` becomes "vacuous" if
    the cube-root argument ever came out negative (impossible for
    realizable pairs, kept as a guard). ``half_size_recoverable`` is filled only
    by the classical kind: the strict half-size recovery predicate
    2|E||S| < N^d.
    """

    kind: str
    lhs: int
    rhs: float
    correction: float
    inputs: dict
    satisfied: bool
    slack: float
    status: str = "ok"
    improves_additive: bool | None = None
    half_size_recoverable: bool | None = None

    def to_json_dict(self) -> dict:
        """Every field in order, leaving out the optional flags that are None."""
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class RecoveryCertificate:
    """Evaluation of the energy-based recovery condition, one variant."""

    lhs: float
    rhs: float
    inputs: dict
    variant: str
    certifies: bool


def _tol(params: GroupParams) -> float:
    return TOL_FACTOR * params.size


def classical_bound(
    e_size: int, s_size: int, params: GroupParams
) -> UncertaintyCertificate:
    """Support-size product bound: N^d <= |E| * |Sigma|.

    The certificate also reports the strict recovery predicate
    2 * |E| * |S| < N^d (exact integer comparison) in ``half_size_recoverable``,
    for callers passing a missing-frequency set as the second size.
    """
    if e_size < 1 or s_size < 1:
        raise ValueError("support sizes must be >= 1")
    nd = params.size
    rhs = e_size * s_size
    return UncertaintyCertificate(
        kind="classical",
        lhs=nd,
        rhs=float(rhs),
        correction=0.0,
        inputs={"E_size": e_size, "sigma_size": s_size},
        satisfied=nd <= rhs,
        slack=float(rhs - nd),
        half_size_recoverable=2 * e_size * s_size < nd,
    )


def additive_bound(
    e_size: int, sigma_energy: int, params: GroupParams
) -> UncertaintyCertificate:
    """Energy bound: N^d <= |E| * energy(Sigma)^{1/3}, decided on cubes."""
    if e_size < 1:
        raise ValueError("support size must be >= 1")
    if sigma_energy < 1:
        raise ValueError("additive energy must be >= 1")
    nd = params.size
    rhs = e_size * sigma_energy ** (1.0 / 3.0)
    return UncertaintyCertificate(
        kind="additive",
        lhs=nd,
        rhs=rhs,
        correction=0.0,
        inputs={"E_size": e_size, "sigma_energy": sigma_energy},
        satisfied=nd**3 <= e_size**3 * sigma_energy,
        slack=rhs - nd,
    )


def correction_term(
    e_size: int, sigma_size: int, e_energy: int, params: GroupParams
) -> float:
    """The quantity subtracted from energy(Sigma) in the refined bound.

    C = |Sigma|^2 (1 - N^d / (|E||Sigma|))
      + |Sigma| (|Sigma| - 1) (1 - sqrt(N^d / (|E||Sigma|)) * sqrt(energy(E) / |E|^3))

    Nonnegative whenever |E||Sigma| >= N^d, and exactly 0 when
    N^d = |E||Sigma| with energy(E) = |E|^3. Pairs with |E||Sigma| < N^d
    cannot arise as supports of a signal and its spectrum and are rejected.
    """
    if e_size < 1 or sigma_size < 1:
        raise ValueError("support sizes must be >= 1")
    if e_energy < 1:
        raise ValueError("additive energy must be >= 1")
    nd = params.size
    if e_size * sigma_size < nd:
        raise ValueError(
            f"|E||Sigma| = {e_size * sigma_size} < N^d = {nd}: no signal has"
            " such a support pair"
        )
    return _correction(e_size, sigma_size, e_energy, nd)


def _correction(e_size: int, sigma_size: int, e_energy: int, nd: int) -> float:
    ratio = nd / (e_size * sigma_size)
    energy_ratio = e_energy / e_size**3
    return sigma_size**2 * (1.0 - ratio) + sigma_size * (sigma_size - 1) * (
        1.0 - math.sqrt(ratio) * math.sqrt(energy_ratio)
    )


def _refined_certificate(
    e_size: int,
    sigma_size: int,
    e_energy: int,
    sigma_energy: int,
    params: GroupParams,
) -> UncertaintyCertificate:
    """One side of the refined bound: N^d <= |E| (energy(Sigma) - C)^{1/3}."""
    nd = params.size
    correction = _correction(e_size, sigma_size, e_energy, nd)
    argument = sigma_energy - correction
    inputs = {
        "E_size": e_size,
        "sigma_size": sigma_size,
        "E_energy": e_energy,
        "sigma_energy": sigma_energy,
    }
    additive_rhs = e_size * sigma_energy ** (1.0 / 3.0)
    if argument < 0:
        return UncertaintyCertificate(
            kind="refined",
            lhs=nd,
            rhs=float("nan"),
            correction=correction,
            inputs=inputs,
            satisfied=False,
            slack=float("nan"),
            status="vacuous",
        )
    rhs = e_size * argument ** (1.0 / 3.0)
    return UncertaintyCertificate(
        kind="refined",
        lhs=nd,
        rhs=rhs,
        correction=correction,
        inputs=inputs,
        satisfied=nd <= rhs + _tol(params),
        slack=rhs - nd,
        improves_additive=rhs <= additive_rhs,
    )


def certify_pair(e: SupportSet, sigma: SupportSet) -> dict[str, UncertaintyCertificate]:
    """Every uncertainty certificate for a support/spectrum pair.

    Keyed, in this order, ``classical``, ``additive_point`` (|E| bounds
    with energy(Sigma)), ``additive_freq``, ``refined_point`` and
    ``refined_freq``. Each exact energy is computed once; the refined
    certificates record both in their ``inputs``.
    """
    params, e_size, sigma_size = e.params, len(e), len(sigma)
    if e_size == 0 or sigma_size == 0:
        raise ValueError(f"E and Sigma must be nonempty, got sizes {e_size} and {sigma_size}")
    if params != sigma.params:
        groups = [f"Z_{p.modulus}^{p.dimension}" for p in (params, sigma.params)]
        raise ValueError(f"E and Sigma must share one group, got {' and '.join(groups)}")
    e_energy = energy_representation(e)
    sigma_energy = energy_representation(sigma)
    return {
        "classical": classical_bound(e_size, sigma_size, params),
        "additive_point": additive_bound(e_size, sigma_energy, params),
        "additive_freq": additive_bound(sigma_size, e_energy, params),
        "refined_point": _refined_certificate(e_size, sigma_size, e_energy, sigma_energy, params),
        "refined_freq": _refined_certificate(sigma_size, e_size, sigma_energy, e_energy, params),
    }


def refined_bound(
    e: SupportSet, sigma: SupportSet
) -> tuple[UncertaintyCertificate, UncertaintyCertificate]:
    """Both symmetric refined certificates for a support/spectrum pair.

    Returns (point-side, frequency-side): the first bounds N^d by
    |E| (energy(Sigma) - C(E, Sigma))^{1/3}, the second by
    |Sigma| (energy(E) - C(Sigma, E))^{1/3}. Energies are exact integers.
    """
    certs = certify_pair(e, sigma)
    return certs["refined_point"], certs["refined_freq"]


def recovery_condition(
    e_size: int,
    s: SupportSet,
    k_bound: float,
    alpha: float,
    variant: str = "proof-final",
) -> RecoveryCertificate:
    """Energy-based sufficient condition for unique recovery.

    Evaluates the chosen variant's left side against N^{3d} / 8 and
    certifies on strict inequality. The "as-stated" variant keeps the
    inner |E|^3 factors on both subtracted terms; "proof-final" omits
    them. The hypothesis energy(T) <= k_bound * |T|^alpha for all
    |T| <= 2|E| is the caller's responsibility (see
    energy_growth_certificate). An empty S certifies trivially.
    """
    if variant not in ("as-stated", "proof-final"):
        raise ValueError(f"unknown recovery condition variant {variant!r}")
    if e_size < 1:
        raise ValueError("support size must be >= 1")
    if not k_bound >= 0:
        raise ValueError(f"K must be >= 0, got {k_bound}")
    if k_bound == math.inf:
        raise ValueError("K must be finite, got inf")
    if not 2.0 <= alpha <= 3.0:
        raise ValueError(f"alpha must lie in [2, 3], got {alpha}")

    nd = s.params.size
    rhs = nd**3 / 8.0
    s_size = len(s)
    inputs = {
        "E_size": e_size,
        "S_size": s_size,
        "K": k_bound,
        "alpha": alpha,
    }
    if s_size == 0:
        inputs["S_energy"] = 0
        return RecoveryCertificate(0.0, rhs, inputs, variant, certifies=True)

    s_energy = energy_representation(s)
    inputs["S_energy"] = s_energy
    bracket = 1.0 - math.sqrt(k_bound / (2 * e_size) ** (3.0 - alpha)) * math.sqrt(
        nd / (2 * e_size * s_size)
    )
    tail = 1.0 - nd / (2 * e_size * s_size)
    inner_factor = e_size**3 if variant == "as-stated" else 1
    lhs = e_size**3 * (
        s_energy
        - inner_factor * s_size * (s_size - 1) * bracket
        - inner_factor * s_size**2 * tail
    )
    return RecoveryCertificate(lhs, rhs, inputs, variant, certifies=lhs < rhs)

