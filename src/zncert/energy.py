"""Exact additive energy of subsets of Z_N^d.

The additive energy of A counts quadruples (x1, x2, x3, x4) in A^4 with
x1 + x2 = x3 + x4. It equals sum_t r(t)^2, where r(t) counts the pairs
(a, b) in A^2 with a + b = t. ``representation_function`` computes r by
one of two routes, chosen from the input:

- FFT, when N^d <= DENSE_LIMIT and |A|^2 >= max(N^d, FFT_MIN_PAIRS):
  r = 1_A * 1_A as a floating autoconvolution (rfftn, square, irfftn),
  rounded to integers. The rounding is used only under a certificate:
  every float lies within 1/4 of its rounding, every rounded value lies
  in [0, |A|], and the rounded values sum to exactly |A|^2. The float
  error is of order eps * |A| * log(N^d), far inside 1/4 at any size the
  guard admits.
- Pairs, otherwise, and whenever the certificate fails: every pair sum,
  formed a chunk of rows of A at a time and merged into sorted arrays,
  so no |A|^2 array is ever held.

The energy sum_t r(t)^2 can reach |A|^3, past int64, and is accumulated
exactly. This is the library's one energy route: every energy, parallelogram
count and certificate downstream is the exact integer it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import CapacityError
from .lattice import DENSE_LIMIT, GroupParams, SupportSet

# Pair sums formed per chunk by the pair route; bounds its working memory.
PAIR_CHUNK = 2**20

# Largest rounding error the FFT route accepts before falling back.
FFT_MARGIN = 0.25

# Below this many pairs, summing them all beats the FFT's fixed cost of
# 40 to 90 us, whatever N^d (measured on groups of 9 to 1024 points, on a
# 2-vCPU x86 host with numpy 2.4).
FFT_MIN_PAIRS = 2**10

# Exhaustive growth certificates enumerate every subset up to the cap.
EXHAUSTIVE_SUBSET_LIMIT = 10**7


@dataclass(frozen=True)
class RepresentationFunction:
    """Pair-sum counts r(t) = #{(a, b) in A^2 : a + b = t} for one set.

    ``sums`` holds the row-major flat indices of the t with r(t) > 0 in
    ascending order, ``counts`` the matching r(t) as int64, and ``route``
    the route that produced them: "fft" or "pairs".
    """

    params: GroupParams
    sums: np.ndarray
    counts: np.ndarray
    route: str

    def total(self) -> int:
        """sum_t r(t), which is |A|^2."""
        return int(self.counts.sum())

    def energy(self) -> int:
        """sum_t r(t)^2, the additive energy, as an exact integer."""
        return _sum_of_squares(self.counts)


def _sum_of_squares(counts: np.ndarray) -> int:
    """Exact sum of squares of nonnegative int64 counts.

    The sum is at most max(r) * sum(r), which is |A|^3 for pair-sum counts.
    An int64 dot product holds it while that bound stays below 2^63; past
    it, chunks short enough that none can overflow are added as Python ints.
    """
    if counts.size == 0:
        return 0
    peak = int(counts.max())
    if peak * int(counts.sum()) < 2**63:
        return int(np.dot(counts, counts))
    step = (2**63 - 1) // (peak * peak)
    return sum(
        int(np.dot(counts[i : i + step], counts[i : i + step]))
        for i in range(0, counts.size, step)
    )


def _fft_counts(a: SupportSet) -> np.ndarray | None:
    """Dense r = 1_A * 1_A by FFT, rounded; None unless the rounding certifies.

    The rounded counts are returned only when every float lies within
    FFT_MARGIN of its rounding, every rounded value lies in [0, |A|], and
    the rounded values sum to exactly |A|^2.
    """
    size = len(a)
    shape = (a.params.modulus,) * a.params.dimension
    indicator = np.zeros(shape)
    indicator[tuple(a.coords().T)] = 1.0
    spectrum = np.fft.rfftn(indicator)
    axes = tuple(range(a.params.dimension))
    r = np.fft.irfftn(spectrum * spectrum, s=shape, axes=axes).reshape(-1)
    rounded = np.rint(r)
    margin = float(np.max(np.abs(r - rounded)))
    if not margin <= FFT_MARGIN or rounded.min() < 0 or rounded.max() > size:
        return None
    counts = rounded.astype(np.int64)
    if int(counts.sum()) != size * size:
        return None
    return counts


def _pair_counts(a: SupportSet) -> tuple[np.ndarray, np.ndarray]:
    """Exact sparse r from every pair sum, a chunk of rows of A at a time.

    Each chunk holds about PAIR_CHUNK sums; its distinct sums are merged
    into the running sorted (sums, counts) arrays, so memory stays at
    O(|A + A|) plus one chunk.
    """
    n, size = a.params.modulus, len(a)
    if a.params.size >= 2**63:
        raise CapacityError(f"pair sums need N^d < 2^63, got N^d = {a.params.size}")
    coords = a.coords()
    sums = counts = np.empty(0, dtype=np.int64)
    rows = max(1, PAIR_CHUNK // max(1, size))
    for start in range(0, size, rows):
        block = coords[start : start + rows]
        flat = np.zeros((len(block), size), dtype=np.int64)
        for axis in range(a.params.dimension):
            flat = flat * n + (block[:, None, axis] + coords[None, :, axis]) % n
        chunk_sums, chunk_counts = np.unique(flat, return_counts=True)
        if start:  # fold in the earlier chunks' counts
            merged = np.concatenate([sums, chunk_sums])
            order = np.argsort(merged, kind="stable")
            merged, tallies = merged[order], np.concatenate([counts, chunk_counts])[order]
            first = np.flatnonzero(np.diff(merged, prepend=-1))
            chunk_sums, chunk_counts = merged[first], np.add.reduceat(tallies, first)
        sums, counts = chunk_sums, chunk_counts
    return sums, counts


def representation_function(a: SupportSet) -> RepresentationFunction:
    """r(t) for every t with r(t) > 0, by the FFT route or the pair route.

    The FFT route runs when N^d <= DENSE_LIMIT and |A|^2 >= max(N^d,
    FFT_MIN_PAIRS); the pair route runs otherwise, and whenever the FFT
    rounding fails to certify.
    """
    params = a.params
    if params.size <= DENSE_LIMIT and len(a) ** 2 >= max(params.size, FFT_MIN_PAIRS):
        dense = _fft_counts(a)
        if dense is not None:
            sums = np.flatnonzero(dense)
            return RepresentationFunction(params, sums, dense[sums], "fft")
    return RepresentationFunction(params, *_pair_counts(a), "pairs")


def energy_representation(a: SupportSet) -> int:
    """Additive energy as the exact integer sum_t r(t)^2."""
    return representation_function(a).energy()


def grid_energy_closed_form(m: int, d: int) -> int:
    """Energy of {0..m-1}^d without wraparound: ((2m^3 + m) / 3)^d, exactly."""
    if m < 1:
        raise ValueError(f"interval length must be >= 1, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    numerator = 2 * m**3 + m
    assert numerator % 3 == 0  # 2m^3 + m is divisible by 3 for every m
    return (numerator // 3) ** d


def nontrivial_parallelogram_count(a: SupportSet) -> int:
    """Additive quadruples that are not of the degenerate forms.

    Equals energy(A) - 2|A|^2 + |A|: the quadruples (x, w, y, z) with
    x + w = y + z excluding (z, y) = (x, w) and (z, y) = (w, x).
    """
    if len(a) == 0:
        return 0
    size = len(a)
    return energy_representation(a) - 2 * size * size + size


@dataclass(frozen=True)
class EnergyCertificate:
    """One exact energy with its normalization energy / |A|^3."""

    set_size: int
    energy: int
    normalized_energy: Fraction

    def to_json_dict(self) -> dict:
        return {
            "set_size": self.set_size,
            "energy": self.energy,
            "normalized_energy": float(self.normalized_energy),
            "normalized_energy_exact": f"{self.normalized_energy.numerator}/{self.normalized_energy.denominator}",
            "method": "representation",
        }


def energy_certificate(a: SupportSet) -> EnergyCertificate:
    if len(a) == 0:
        raise ValueError("energy certificate requires a nonempty set")
    value = energy_representation(a)
    return EnergyCertificate(len(a), value, Fraction(value, len(a) ** 3))


@dataclass(frozen=True)
class GrowthCertificate:
    """A bound energy(T) <= K |T|^alpha over all subsets with |T| <= size_cap."""

    K: float
    alpha: float
    mode: str
    size_cap: int
    subsets_checked: int


def energy_growth_certificate(
    params: GroupParams, size_cap: int, mode: str = "trivial", alpha: float = 3.0
) -> GrowthCertificate:
    """Produce (K, alpha) with energy(T) <= K |T|^alpha for |T| <= size_cap.

    Modes: "trivial" returns (1, 3), valid for every set since the energy
    never exceeds |T|^3. "exhaustive" returns, for the caller's alpha, the
    minimal K by enumerating every nonempty subset up to the cap.
    """
    if size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    if not 2.0 <= alpha <= 3.0:
        raise ValueError(f"alpha must lie in [2, 3], got {alpha}")
    if mode == "trivial":
        return GrowthCertificate(1.0, 3.0, mode, size_cap, 0)
    if mode != "exhaustive":
        raise ValueError(f"unknown growth certificate mode {mode!r}")

    params.require_dense("growth certificate enumeration")
    cap = min(size_cap, params.size)
    total = sum(comb(params.size, s) for s in range(1, cap + 1))
    if total > EXHAUSTIVE_SUBSET_LIMIT:
        raise CapacityError(
            f"exhaustive growth certificate would enumerate {total} subsets"
            f" (limit {EXHAUSTIVE_SUBSET_LIMIT})"
        )
    best = 0.0
    for s in range(1, cap + 1):
        for subset in combinations(range(params.size), s):
            lam = energy_representation(SupportSet.from_flat(params, subset))
            best = max(best, lam / s**alpha)
    return GrowthCertificate(best, alpha, mode, size_cap, total)
