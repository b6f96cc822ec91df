"""Brute-force reference routes that the tests check the library against.

Each oracle computes a quantity the library also computes, by the most
literal route there is: slow, but with nothing to get wrong. None of them
is part of the library.

- ``energy_quadruple``: the additive energy as the literal count of
  quadruples x1 + x2 = x3 + x4, cubic in |A|.
- ``energy_fourier_check``: the floating cross-check N^d * sum |1hat_A|^4.
- ``all_points``, ``zero``, ``add``, ``dot``, ``flat_index`` and
  ``negate``: enumeration of the group, arithmetic on single points and
  the row-major index of one point, by tuple arithmetic on ``RingVector``
  coordinates. The library never computes with points.
- ``shift_set_points``, ``cyclic_subgroup_points``, ``is_subgroup_points``
  and ``annihilator_points``: translation, cyclic subgroups, the subgroup
  test (every pair sum looked up in the set) and the annihilator (every
  point of the group dotted with every member), one point at a time, where
  the library computes on coordinate arrays.
- ``least_squares_system_per_entry``: the least-squares system with one
  ``exp`` per matrix entry, where the library gathers its entries from a
  table of the N characters.
- ``character_matrix``, ``axis_transform_tensordot`` and
  ``dense_transform``: the character matrix of any modulus, by the one-shot
  expression or with its phases reduced mod N (the reference for the FFT),
  and the unnormalised transform as that matrix, rebuilt on every call,
  applied along each axis by ``tensordot``; the library memoises the
  matrices up to N = 32, applies them by one BLAS product per axis, and
  runs an FFT above N = 32.
- ``u2_autocorrelation_sum``: the raw order-2 uniformity sum with its cube
  regrouped as sum_h |sum_x f(x) conj f(x+h)|^2, N^{2d} products and no
  transform, for groups where the literal cube sum in
  ``gowers._cube_sum`` (N^{3d} terms) would take minutes; the library
  takes that sum through the Fourier identity.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from zncert import spectral
from zncert.errors import CapacityError, StructureError
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


def u2_autocorrelation_sum(values: np.ndarray, params: GroupParams) -> float:
    """sum_h |sum_x f(x) conj f(x+h)|^2: each h sums the cube's terms with h_1 = h."""
    n, d = params.modulus, params.dimension
    grid = values.reshape((n,) * d)
    axes = tuple(range(d))
    total = 0.0
    for h in product(range(n), repeat=d):
        shifted = np.roll(grid, shift=tuple(-c for c in h), axis=axes)
        total += abs(np.sum(grid * np.conj(shifted))) ** 2
    return total


def all_points(params: GroupParams) -> list[RingVector]:
    """Every point of Z_N^d in row-major (lexicographic) order."""
    params.require_dense("point enumeration")
    return [RingVector(c, params.modulus) for c in product(range(params.modulus), repeat=params.dimension)]


def zero(params: GroupParams) -> RingVector:
    return RingVector((0,) * params.dimension, params.modulus)


def add(x: RingVector, y: RingVector) -> RingVector:
    """The point x + y, coordinate by coordinate."""
    if x.modulus != y.modulus or x.dimension != y.dimension:
        raise ValueError("points live in different groups")
    return RingVector(tuple((a + b) % x.modulus for a, b in zip(x.coords, y.coords)), x.modulus)


def dot(x: RingVector, y: RingVector) -> int:
    """The inner product sum_i x_i y_i reduced mod N."""
    if x.modulus != y.modulus or x.dimension != y.dimension:
        raise ValueError("points live in different groups")
    return sum(a * b for a, b in zip(x.coords, y.coords)) % x.modulus


def flat_index(params: GroupParams, v: RingVector) -> int:
    """Row-major index of a point, one coordinate at a time in Python ints."""
    idx = 0
    for c in v.coords:
        idx = idx * params.modulus + c
    return idx


def negate(v: RingVector) -> RingVector:
    """The point -v, coordinate by coordinate."""
    return RingVector(tuple(-c % v.modulus for c in v.coords), v.modulus)


def shift_set_points(a: SupportSet, t: RingVector) -> SupportSet:
    return SupportSet(a.params, tuple(add(x, t) for x in a))


def cyclic_subgroup_points(params: GroupParams, generator: RingVector) -> SupportSet:
    """Add the generator to itself until the sum returns to 0."""
    members = [zero(params)]
    current = generator
    while current != members[0]:
        members.append(current)
        current = add(current, generator)
    return SupportSet(params, tuple(members))


def is_subgroup_points(a: SupportSet) -> bool:
    """Test 0 in A and x + y in A for every pair of members."""
    if zero(a.params) not in a:
        return False
    return all(add(x, y) in a for x in a for y in a)


def annihilator_points(h: SupportSet) -> SupportSet:
    """Keep each point m of the group with m . x = 0 for every x in H."""
    if not is_subgroup_points(h):
        raise StructureError("annihilator requires a subgroup (0 in H, closed under +)")
    members = all_points(h.params)
    return SupportSet(h.params, tuple(m for m in members if all(dot(m, x) == 0 for x in h)))


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


def character_matrix(n: int, sign: int, reduce_phase: bool = False) -> np.ndarray:
    """W[m, x] = exp(sign*2*pi*i*m*x/n) for any n.

    By default by the one-shot expression, whose bits the library's dense
    route reproduces. Its arguments reach 2*pi*(n-1)^2/n, so an entry is
    off by up to about 2*pi*n units in the last place. With
    ``reduce_phase`` the integer phase m*x is reduced mod n first, so every
    argument lies in [0, 2*pi) and every entry is within a few ulps of the
    true character: the reference to hold an FFT to.
    """
    phase = np.outer(np.arange(n), np.arange(n))
    if reduce_phase:
        phase %= n
    return np.exp(sign * 2j * np.pi * phase / n)


def axis_transform_tensordot(values: np.ndarray, params: GroupParams, w: np.ndarray) -> np.ndarray:
    """Apply a character matrix along every axis by moveaxis and tensordot."""
    n, d = params.modulus, params.dimension
    t = values.reshape((n,) * d)
    for axis in range(d):
        t = np.moveaxis(np.tensordot(w, np.moveaxis(t, axis, 0), axes=(1, 0)), 0, axis)
    return t.reshape(-1)


def dense_transform(
    values: np.ndarray, params: GroupParams, sign: int, reduce_phase: bool = False
) -> np.ndarray:
    """The unnormalised transform with exponent ``sign``, as the dense sum."""
    w = character_matrix(params.modulus, sign, reduce_phase)
    return axis_transform_tensordot(values, params, w)
