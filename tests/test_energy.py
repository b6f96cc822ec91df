"""Exact energy computations, their oracles, and growth certificates.

The library's representation-function route must agree with the literal
quadruple count and the Fourier cross-check of ``oracles`` and with the
closed forms; direct degenerate-excluding enumeration backs the
parallelogram count.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zncert import energy
from zncert.errors import CapacityError
from zncert.lattice import (
    GroupParams,
    SupportSet,
    all_cyclic_subgroups,
    make_cyclic_subgroup,
    make_interval_grid,
    shift_set,
)
from zncert.energy import (
    RepresentationFunction,
    energy_certificate,
    energy_growth_certificate,
    energy_representation,
    grid_energy_closed_form,
    nontrivial_parallelogram_count,
    representation_function,
)
from oracles import all_points, energy_fourier_check, energy_quadruple


def random_set(params: GroupParams, rng, size: int | None = None) -> SupportSet:
    size = size if size is not None else int(rng.integers(1, params.size + 1))
    idx = rng.choice(params.size, size=size, replace=False)
    return SupportSet(params, tuple(params.from_flat(int(i)) for i in idx))


def direct_nontrivial_count(a: SupportSet) -> int:
    """Enumerate quadruples x + w = y + z excluding (z, y) in {(x, w), (w, x)}."""
    members = [v.coords for v in a]
    lookup = set(members)
    n = a.params.modulus
    count = 0
    for x in members:
        for w in members:
            for y in members:
                z = tuple((p + q - r) % n for p, q, r in zip(x, w, y))
                if z not in lookup:
                    continue
                if (z, y) == (x, w) or (z, y) == (w, x):
                    continue
                count += 1
    return count


def test_quadruple_examples():
    p = GroupParams(4, 1)
    assert energy_quadruple(SupportSet.from_coords(p, [(1,)])) == 1
    assert energy_quadruple(SupportSet.from_coords(p, [(0,), (1,)])) == 6
    p7 = GroupParams(7, 1)
    assert energy_quadruple(SupportSet.from_coords(p7, [(0,), (1,), (2,)])) == 19


def test_quadruple_capacity_guard():
    p = GroupParams(300, 1)
    big = SupportSet.from_coords(p, [(i,) for i in range(257)])
    with pytest.raises(CapacityError):
        energy_quadruple(big)


def test_representation_matches_quadruple():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 3))
        a = random_set(GroupParams(n, d), rng)
        assert energy_representation(a) == energy_quadruple(a)


def test_representation_function_triangle():
    # Embedded without wraparound, pair-sum counts of an interval form the
    # triangle t + 1 rising to m then 2m - 1 - t falling.
    for m in range(1, 9):
        p = GroupParams(2 * m, 1)
        interval = make_interval_grid(p, m)
        r = representation_function(interval)
        counts = dict(zip(r.sums.tolist(), r.counts.tolist()))
        for t in range(2 * m - 1):
            expected = t + 1 if t <= m - 1 else 2 * m - 1 - t
            assert counts.get(t, 0) == expected
        assert r.total() == m * m
        assert r.energy() == (2 * m**3 + m) // 3


# Largest modulus per dimension: small enough for the cubic quadruple oracle.
SMALL_MODULUS = {1: 24, 2: 6, 3: 3}


@st.composite
def small_sets(draw):
    """Empty sets, full groups, cosets and random sets in small Z_N^d."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, SMALL_MODULUS[d]))
    p = GroupParams(n, d)
    kind = draw(st.sampled_from(["empty", "full", "coset", "random"]))
    if kind == "empty":
        return SupportSet(p, ())
    if kind == "full":
        return SupportSet(p, tuple(all_points(p)))
    point = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(p.vector)
    if kind == "coset":
        return shift_set(make_cyclic_subgroup(p, draw(point)), draw(point))
    flat = draw(st.sets(st.integers(0, p.size - 1), min_size=1))
    return SupportSet(p, tuple(p.from_flat(i) for i in sorted(flat)))


@settings(max_examples=80, deadline=None)
@given(small_sets())
def test_routes_agree_with_quadruple_count(a):
    dense = energy._fft_counts(a.params, a.flat_indices())
    assert dense is not None
    sums, counts = energy._pair_counts(a.params, a.flat_indices())
    assert np.array_equal(sums, np.flatnonzero(dense))
    assert np.array_equal(counts, dense[sums])
    assert int(counts.sum()) == len(a) ** 2
    r = representation_function(a)
    dense_enough = len(a) ** 2 >= max(a.params.size, energy.FFT_MIN_PAIRS)
    assert r.route == ("fft" if dense_enough else "pairs")
    assert r.energy() == int(np.dot(dense, dense)) == energy_quadruple(a)


def test_pair_route_merges_chunks(monkeypatch):
    rng = np.random.default_rng(31)
    p = GroupParams(9, 2)
    sets = [random_set(p, rng) for _ in range(10)]
    whole = [energy._pair_counts(a.params, a.flat_indices()) for a in sets]
    monkeypatch.setattr(energy, "PAIR_CHUNK", 7)
    for a, (sums, counts) in zip(sets, whole):
        chunked_sums, chunked_counts = energy._pair_counts(a.params, a.flat_indices())
        assert np.array_equal(chunked_sums, sums)
        assert np.array_equal(chunked_counts, counts)


def _off_by_one(r):
    # Rounds cleanly and stays in range, but sums to |A|^2 + 1.
    r = r.copy()
    r.flat[0] += 1
    return r


def _out_of_range(r):
    # Moves N^d > |A| between two entries: the sum and the rounding stay
    # clean, but both entries leave [0, |A|].
    r = r.copy()
    r.flat[0] += r.size
    r.flat[1] -= r.size
    return r


@pytest.mark.parametrize(
    "perturb",
    [lambda r: r + 0.4, _off_by_one, _out_of_range],
    ids=["margin", "sum", "range"],
)
def test_failed_certificate_falls_back_to_pairs(monkeypatch, perturb):
    grid = make_interval_grid(GroupParams(13, 2), 6)  # 36^2 pairs: the FFT route
    assert representation_function(grid).route == "fft"
    inverse = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kw: perturb(inverse(*args, **kw)))
    assert energy._fft_counts(grid.params, grid.flat_indices()) is None
    r = representation_function(grid)
    assert r.route == "pairs"
    assert r.energy() == grid_energy_closed_form(6, 2) == energy_quadruple(grid)


def test_fft_route_at_scale():
    p = GroupParams(256, 2)
    grid = make_interval_grid(p, 128)  # 2m - 2 < 256: no wraparound
    r = representation_function(grid)
    assert r.route == "fft"
    assert r.energy() == grid_energy_closed_form(128, 2)
    p = GroupParams(8192, 1)
    coset = shift_set(make_cyclic_subgroup(p, p.vector([2])), p.vector([1]))
    assert len(coset) == 4096
    assert energy_representation(coset) == 4096**3


def test_pair_route_capacity_guard():
    # Flat pair-sum keys are int64: a larger group would wrap them.
    p = GroupParams(2**32, 2)
    with pytest.raises(CapacityError):
        energy_representation(SupportSet.from_coords(p, [(0, 0), (1, 1)]))


def test_energy_sum_of_squares_past_int64():
    counts = np.full(4, 2**31, dtype=np.int64)  # each square is 2^62
    r = RepresentationFunction(GroupParams(4, 1), np.arange(4), counts, "pairs")
    assert r.energy() == 4 * 2**62 == 2**64


def test_full_group_and_subgroup_energy():
    p = GroupParams(4, 1)
    full = SupportSet.from_coords(p, [(i,) for i in range(4)])
    assert energy_representation(full) == 4**3
    sub = SupportSet.from_coords(p, [(0,), (2,)])
    assert energy_representation(sub) == 8 == len(sub) ** 3


def test_fourier_check_examples():
    p = GroupParams(4, 1)
    pair = SupportSet.from_coords(p, [(0,), (1,)])
    assert abs(energy_fourier_check(pair) - 6.0) <= 1e-8 * 6.0
    full = SupportSet.from_coords(p, [(i,) for i in range(4)])
    assert abs(energy_fourier_check(full) - 64.0) <= 1e-8 * 64.0
    sub = SupportSet.from_coords(p, [(0,), (2,)])
    assert abs(energy_fourier_check(sub) - 8.0) <= 1e-8 * 8.0


def test_grid_closed_form():
    assert grid_energy_closed_form(2, 2) == 36
    assert grid_energy_closed_form(1, 2) == 1
    assert grid_energy_closed_form(3, 2) == 361
    grid = make_interval_grid(GroupParams(7, 2), 3)
    assert energy_quadruple(grid) == 361


def test_parallelogram_count_examples():
    p = GroupParams(4, 1)
    assert nontrivial_parallelogram_count(SupportSet.from_coords(p, [(0,), (1,)])) == 0
    assert nontrivial_parallelogram_count(SupportSet.from_coords(p, [(0,)])) == 0
    p7 = GroupParams(7, 1)
    triple = SupportSet.from_coords(p7, [(0,), (1,), (2,)])
    assert nontrivial_parallelogram_count(triple) == 4 == direct_nontrivial_count(triple)


def test_parallelogram_count_matches_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 3))
        p = GroupParams(n, d)
        a = random_set(p, rng, size=int(rng.integers(1, min(12, p.size) + 1)))
        value = nontrivial_parallelogram_count(a)
        assert value == direct_nontrivial_count(a)
        assert value >= 0


def test_energy_bounds_and_invariances():
    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 3))
        p = GroupParams(n, d)
        a = random_set(p, rng)
        lam = energy_representation(a)
        assert len(a) ** 2 <= lam <= len(a) ** 3
        t = p.from_flat(int(rng.integers(0, p.size)))
        assert energy_representation(shift_set(a, t)) == lam
        assert energy_representation(SupportSet.from_coords(p, (-a.coords()).tolist())) == lam


def test_cosets_attain_maximal_energy():
    for n in (4, 6, 8, 9, 12):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            coset = shift_set(sub, p.vector([1]))
            assert energy_representation(coset) == len(coset) ** 3


def test_growth_certificate_trivial():
    cert = energy_growth_certificate(GroupParams(11, 1), size_cap=5, mode="trivial")
    assert (cert.K, cert.alpha) == (1.0, 3.0)
    assert cert.subsets_checked == 0


def exhaustive_max_ratio(params: GroupParams, cap: int, alpha: float) -> float:
    points = all_points(params)
    best = 0.0
    for s in range(1, cap + 1):
        for subset in combinations(points, s):
            lam = energy_quadruple(SupportSet(params, subset))
            best = max(best, lam / s**alpha)
    return best


def test_growth_certificate_exhaustive_z5():
    # Singletons have energy 1 = 1^3, so the maximal ratio at alpha = 3 is
    # 1.0 (pairs only reach 6/8); the certificate must cover every subset.
    p = GroupParams(5, 1)
    cert = energy_growth_certificate(p, size_cap=2, mode="exhaustive", alpha=3.0)
    assert cert.K == exhaustive_max_ratio(p, 2, 3.0) == 1.0
    assert cert.subsets_checked == 5 + 10


def test_growth_certificate_exhaustive_z7():
    p = GroupParams(7, 1)
    cert = energy_growth_certificate(p, size_cap=3, mode="exhaustive", alpha=2.5)
    oracle = exhaustive_max_ratio(p, 3, 2.5)
    assert cert.K == oracle
    assert abs(cert.K - 19 / 3**2.5) <= 1e-12  # progressions of length 3 dominate


def test_growth_certificate_guards():
    with pytest.raises(CapacityError):
        energy_growth_certificate(GroupParams(5, 2), size_cap=12, mode="exhaustive")
    with pytest.raises(ValueError):
        energy_growth_certificate(GroupParams(5, 1), size_cap=2, mode="typo")
    with pytest.raises(ValueError):
        energy_growth_certificate(GroupParams(5, 1), size_cap=2, mode="sampled")
    with pytest.raises(ValueError):
        energy_growth_certificate(GroupParams(5, 1), size_cap=2, mode="exhaustive", alpha=1.5)


def test_energy_certificate_fields():
    p = GroupParams(4, 1)
    sub = SupportSet.from_coords(p, [(0,), (2,)])
    cert = energy_certificate(sub)
    assert cert.energy == 8 == energy_quadruple(sub)
    assert cert.normalized_energy == Fraction(1)
    pair = SupportSet.from_coords(p, [(0,), (1,)])
    cert = energy_certificate(pair)
    assert type(cert.energy) is int
    assert cert.energy == 6
    assert cert.normalized_energy == Fraction(6, 8)
    assert 0 < cert.normalized_energy <= 1
    assert cert.to_json_dict()["method"] == "representation"
    with pytest.raises(ValueError):
        energy_certificate(SupportSet(p, ()))


def _pair_sum_counts(a: SupportSet) -> dict[int, int]:
    """r(t) by a double loop over coordinates, keyed by t's row-major index."""
    n, members = a.params.modulus, [v.coords for v in a]
    counts: dict[int, int] = {}
    for x in members:
        for y in members:
            t = 0
            for p, q in zip(x, y):
                t = t * n + (p + q) % n
            counts[t] = counts.get(t, 0) + 1
    return counts


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2)])
def test_pair_route_on_every_subset(n, d):
    # The pair route's counts against a double loop and its energy against the quadruple loop.
    p = GroupParams(n, d)
    for size in range(p.size + 1):
        for flat in combinations(range(p.size), size):
            a = SupportSet.from_flat(p, flat)
            sums, counts = energy._pair_counts(p, a.flat_indices())
            assert dict(zip(sums.tolist(), counts.tolist())) == _pair_sum_counts(a)
            assert np.all(np.diff(sums) > 0) and sums.dtype == counts.dtype == np.int64
            assert int(np.dot(counts, counts)) == energy_quadruple(a)
