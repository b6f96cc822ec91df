"""Brute-force reference routes that the tests check the library against.

Each oracle computes a quantity the library also computes, by the most
literal route there is: slow, but with nothing to get wrong. None of them
is part of the library.

- ``energy_quadruple``: the additive energy as the literal count of
  quadruples x1 + x2 = x3 + x4, cubic in |A|.
- ``energy_fourier_check``: the floating cross-check N^d * sum |1hat_A|^4.
- ``negate``, ``shift_set_points`` and ``cyclic_subgroup_points``: point
  negation, translation and cyclic subgroups by point arithmetic, one
  ``RingVector`` at a time, where the library computes on coordinate
  arrays.
- ``least_squares_system_per_entry``: the least-squares system with one
  ``exp`` per matrix entry, where the library gathers its entries from a
  table of the N characters.
"""

from __future__ import annotations

import numpy as np

from zncert import spectral
from zncert.errors import CapacityError
from zncert.lattice import GroupParams, RingVector, SupportSet
from zncert.recovery import RecoveryProblem

# The literal quadruple loop is cubic; larger sets must use the
# representation route, which is equally exact.
QUADRUPLE_LIMIT = 256


def energy_quadruple(a: SupportSet) -> int:
    """Count additive quadruples directly: for (x1,x2,x3) test x4 in A."""
    if len(a) > QUADRUPLE_LIMIT:
        raise CapacityError(
            f"quadruple count needs |A| <= {QUADRUPLE_LIMIT}, got {len(a)}"
        )
    n = a.params.modulus
    members = [v.coords for v in a]
    lookup = set(members)
    count = 0
    for x1 in members:
        for x2 in members:
            s = tuple((p + q) % n for p, q in zip(x1, x2))
            for x3 in members:
                x4 = tuple((p - q) % n for p, q in zip(s, x3))
                if x4 in lookup:
                    count += 1
    return count


def energy_fourier_check(a: SupportSet) -> float:
    """Floating cross-check N^d * sum_m |1hat_A(m)|^4 (unitary transform)."""
    a.params.require_dense("Fourier energy check")
    spec = spectral.dft(spectral.indicator(a))
    return float(a.params.size * np.sum(np.abs(spec.values) ** 4))


def negate(v: RingVector) -> RingVector:
    """The point -v, coordinate by coordinate."""
    return RingVector(tuple(-c % v.modulus for c in v.coords), v.modulus)


def shift_set_points(a: SupportSet, t: RingVector) -> SupportSet:
    return SupportSet(a.params, tuple(x + t for x in a))


def cyclic_subgroup_points(params: GroupParams, generator: RingVector) -> SupportSet:
    """Add the generator to itself until the sum returns to 0."""
    members = [params.zero()]
    current = generator
    while current != members[0]:
        members.append(current)
        current = current + generator
    return SupportSet(params, tuple(members))


def least_squares_system_per_entry(
    problem: RecoveryProblem, support: SupportSet
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right side of ghat(m) = observed(m) over {g(x) : x in support}.

    Rows run over the observed frequencies in row-major order, columns over
    the support's members.
    """
    params = problem.params
    frequencies = np.argwhere(problem.mask.reshape((params.modulus,) * params.dimension))
    phase = (frequencies @ support.coords().T) % params.modulus
    arg = problem.convention.forward_sign * 2j * np.pi * phase
    # Python's complex / int divides each part; numpy's complex division
    # multiplies by a reciprocal, which rounds differently.
    arg.imag /= params.modulus
    matrix = problem.convention.forward_scale(params) * np.exp(arg)
    return matrix, problem.target[problem.mask]
