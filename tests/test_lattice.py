"""Residue arithmetic, set generators, and the subgroup/annihilator duality."""

import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zncert.errors import CapacityError, StructureError
from zncert.lattice import (
    GroupParams,
    RingVector,
    SupportSet,
    all_cyclic_subgroups,
    annihilator,
    is_subgroup,
    make_cyclic_subgroup,
    make_interval_grid,
    set_from_json_dict,
    set_to_json_dict,
    shift_set,
)
from oracles import (
    add,
    all_points,
    annihilator_points,
    cyclic_subgroup_points,
    dot,
    flat_index,
    is_subgroup_points,
    negate,
    shift_set_points,
    zero,
)


def coords(a: SupportSet) -> list[tuple[int, ...]]:
    return [v.coords for v in a]


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(1, 1)
    with pytest.raises(ValueError):
        GroupParams(4, 0)
    assert GroupParams(5, 2).size == 25


def test_non_integer_coordinates_and_group_sizes_are_refused():
    p = GroupParams(4, 1)
    not_an_integer = "cannot be interpreted as an integer"
    for bad in ([1.5], [2.0], ["3"]):
        with pytest.raises(TypeError, match=not_an_integer):
            p.vector(bad)
    with pytest.raises(TypeError, match=not_an_integer):
        SupportSet.from_coords(p, [[2.7]])
    for n, d in ((4.0, 1), (4, 1.0), ("4", 1)):
        with pytest.raises(TypeError, match=not_an_integer):
            GroupParams(n, d)
    # integer types other than int are taken at their value
    v = p.vector([np.int64(5)])
    assert v.coords == (1,) and type(v.coords[0]) is int
    q = GroupParams(np.int64(4), np.int32(2))
    assert q == GroupParams(4, 2) and type(q.size) is int


def test_ring_vector_refuses_a_non_integer_modulus():
    for bad in (4.0, "4"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            RingVector((1, 5), bad)
    v = RingVector((1, 5), np.int64(4))
    assert v == RingVector((1, 1), 4) and type(v.modulus) is int


def test_vector_canonicalization():
    p = GroupParams(5, 2)
    v = p.vector([-1, 7])
    assert v.coords == (4, 2)
    with pytest.raises(ValueError):
        p.vector([1, 2, 3])


def test_flat_index_round_trip():
    p = GroupParams(5, 2)
    for i in range(p.size):
        assert flat_index(p, p.from_flat(i)) == i
    assert flat_index(p, p.vector([1, 2])) == 7  # row-major


@st.composite
def group_and_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    d = draw(st.integers(min_value=1, max_value=3))
    params = GroupParams(n, d)
    vecs = tuple(
        params.vector([draw(st.integers(-30, 30)) for _ in range(d)])
        for _ in range(3)
    )
    return params, vecs


@settings(max_examples=60, deadline=None)
@given(group_and_vectors())
def test_group_laws(data):
    params, (x, y, z) = data
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, y) == add(y, x)
    assert add(x, zero(params)) == x
    assert add(x, negate(x)) == zero(params)
    assert dot(x, y) == dot(y, x)


def test_interval_grid_examples():
    assert coords(make_interval_grid(GroupParams(5, 2), 2)) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert coords(make_interval_grid(GroupParams(5, 1), 1)) == [(0,)]
    # direct enumeration oracle for the 3x3 grid in Z_7^2
    grid = make_interval_grid(GroupParams(7, 2), 3)
    assert coords(grid) == sorted(product(range(3), repeat=2))
    assert len(grid) == 9


def test_interval_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_interval_grid(GroupParams(5, 1), 0)
    with pytest.raises(ValueError):
        make_interval_grid(GroupParams(5, 1), 5)


def test_cyclic_subgroups():
    assert coords(make_cyclic_subgroup(GroupParams(4, 1), RingVector((2,), 4))) == [
        (0,),
        (2,),
    ]
    assert coords(make_cyclic_subgroup(GroupParams(6, 1), RingVector((2,), 6))) == [
        (0,),
        (2,),
        (4,),
    ]
    # iterating the generator until closure gives the same set
    p = GroupParams(4, 2)
    g = p.vector([2, 2])
    expected = {(0, 0)}
    current = g
    while current.coords not in expected:
        expected.add(current.coords)
        current = add(current, g)
    sub = make_cyclic_subgroup(p, g)
    assert set(coords(sub)) == expected == {(0, 0), (2, 2)}
    assert is_subgroup(sub)


def test_subgroup_order_divides_group_order():
    for n in (4, 6, 8, 9, 12):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            assert p.size % len(sub) == 0


def test_shift_set():
    p = GroupParams(4, 1)
    a = SupportSet.from_coords(p, [(0,), (1,)])
    assert coords(shift_set(a, p.vector([1]))) == [(1,), (2,)]
    sub = SupportSet.from_coords(p, [(0,), (2,)])
    assert coords(shift_set(sub, p.vector([2]))) == [(0,), (2,)]
    p5 = GroupParams(5, 1)
    b = SupportSet.from_coords(p5, [(0,), (1,), (3,)])
    assert coords(shift_set(b, p5.vector([2]))) == [(0,), (2,), (3,)]


@settings(max_examples=40, deadline=None)
@given(group_and_vectors())
def test_shift_preserves_cardinality(data):
    params, vecs = data
    members = tuple(params.vector([k * c for c in v.coords]) for k, v in enumerate(vecs, start=1))
    a = SupportSet(params, members)
    assert len(shift_set(a, vecs[0])) == len(a)


def test_annihilator_examples():
    p = GroupParams(4, 1)
    h = SupportSet.from_coords(p, [(0,), (2,)])
    ann = annihilator(h)
    assert coords(ann) == [(0,), (2,)]
    assert len(h) * len(ann) == p.size

    full = SupportSet.from_coords(p, [(i,) for i in range(4)])
    assert coords(annihilator(full)) == [(0,)]

    trivial = SupportSet.from_coords(p, [(0,)])
    assert len(annihilator(trivial)) == p.size


def test_annihilator_requires_subgroup():
    p = GroupParams(4, 1)
    not_subgroup = SupportSet.from_coords(p, [(0,), (1,)])
    with pytest.raises(StructureError):
        annihilator(not_subgroup)


def test_annihilator_duality():
    for n in (4, 6, 8, 9, 12, 16):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            assert len(sub) * len(annihilator(sub)) == p.size
    p2 = GroupParams(4, 2)
    for g in [(2, 2), (1, 0), (0, 2), (1, 1)]:
        sub = make_cyclic_subgroup(p2, p2.vector(g))
        assert len(sub) * len(annihilator(sub)) == p2.size


def test_annihilator_of_product_subgroup():
    # products of cyclic subgroups are subgroups but need not be cyclic
    square = SupportSet.from_coords(GroupParams(4, 2), product([0, 2], repeat=2))
    assert len(square) == 4
    assert is_subgroup(square)
    ann = annihilator(square)
    assert len(square) * len(ann) == 16
    assert set(coords(ann)) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_support_set_normalization_and_membership():
    p = GroupParams(4, 1)
    a = SupportSet.from_coords(p, [(3,), (1,), (3,), (7,)])  # 7 == 3 mod 4
    assert coords(a) == [(1,), (3,)]
    assert p.vector([3]) in a
    assert p.vector([0]) not in a
    assert RingVector((3,), 5) not in a  # same coords, different group


def test_set_json_round_trip(tmp_path):
    p = GroupParams(5, 2)
    a = SupportSet.from_coords(p, [(0, 0), (1, 2)])
    data = set_to_json_dict(a)
    assert data == {"N": 5, "d": 2, "members": [[0, 0], [1, 2]]}
    assert coords(set_from_json_dict(data)) == coords(a)


@pytest.mark.parametrize(
    "members, culprit",
    [
        ([[1], [5]], "member 1 [5]"),
        ([[-1]], "member 0 [-1]"),
        ([[1, 0]], "member 0 [1, 0]"),
        ([[1.5]], "member 0 [1.5]"),
    ],
)
def test_set_file_rejects_members_outside_the_group(members, culprit):
    with pytest.raises(ValueError, match=re.escape(culprit)):
        set_from_json_dict({"N": 4, "d": 1, "members": members})


def random_subset(params: GroupParams, rng, size: int | None = None) -> SupportSet:
    size = int(rng.integers(0, min(params.size, 12) + 1)) if size is None else size
    return SupportSet.from_flat(params, rng.choice(params.size, size=size, replace=False))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_set_algebra_matches_point_oracles(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(25):
        params = GroupParams(int(rng.integers(2, 9)), d)
        for a in (random_subset(params, rng), SupportSet(params, ())):
            t = params.vector(rng.integers(-20, 20, size=d).tolist())
            assert shift_set(a, t) == shift_set_points(a, t)
        g = params.vector(rng.integers(0, params.modulus, size=d).tolist())
        assert make_cyclic_subgroup(params, g) == cyclic_subgroup_points(params, g)
        assert make_cyclic_subgroup(params, zero(params)) == SupportSet(params, (zero(params),))


def test_cyclic_subgroup_of_a_large_modulus_lists_only_its_members():
    p = GroupParams(2**40, 2)
    g = p.vector([2**39, 3 * 2**38])  # order 4
    sub = make_cyclic_subgroup(p, g)
    assert coords(sub) == [(0, 0), (0, 2**39), (2**39, 2**38), (2**39, 3 * 2**38)]
    assert sub == cyclic_subgroup_points(p, g)


def test_flat_indices_past_int64_are_refused():
    p = GroupParams(2**40, 2)
    sub = make_cyclic_subgroup(p, p.vector([2**38, 0]))
    assert len(sub) == 4
    with pytest.raises(CapacityError, match=re.escape(f"flat indices need N^d <= 2^63, got N^d = {2**80}")):
        sub.flat_indices()
    for n, d in ((2, 64), (3, 40), (2**63 + 1, 1)):
        with pytest.raises(CapacityError, match=r"flat indices need N\^d <= 2\^63"):
            SupportSet.from_coords(GroupParams(n, d), [(1,) * d]).flat_indices()
    # up to N^d = 2^63 every index fits, the largest point's, N^d - 1, too
    for n, d in ((2**21, 3), (2**63, 1), (2, 63), (2**31, 2)):
        edge = GroupParams(n, d)
        top = SupportSet.from_coords(edge, [(n - 1,) * d, (0,) * (d - 1) + (1,), (0,) * d])
        assert top.flat_indices().dtype == np.int64
        assert top.flat_indices().tolist() == [0, 1, edge.size - 1]
        assert [flat_index(edge, v) for v in top] == [0, 1, edge.size - 1]


@pytest.mark.parametrize("n", [2, 5, 31, 33, 1024])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_flat_indices_match_ravel_multi_index(n, d):
    p = GroupParams(n, d)
    rng = np.random.default_rng(n * 10 + d)
    a = SupportSet.from_coords(p, rng.integers(0, n, size=(min(p.size, 300), d)).tolist())
    expected = np.ravel_multi_index(tuple(a.coords().T), (n,) * d)
    assert a.flat_indices().dtype == np.int64
    assert np.array_equal(a.flat_indices(), expected)


def test_non_point_members_are_refused_and_never_members():
    p = GroupParams(4, 1)
    with pytest.raises(TypeError, match=r"SupportSet\.from_coords"):
        SupportSet(p, ((1,),))
    with pytest.raises(TypeError, match=r"SupportSet\.from_coords"):
        SupportSet(p, (p.vector([1]), "x"))
    a = SupportSet.from_coords(p, [(1,), (3,)])
    for probe in ((3,), "x", 3, None, [3]):
        assert probe not in a
    assert p.vector([3]) in a


def test_membership_agrees_with_coords_on_a_large_set():
    p = GroupParams(512, 2)
    rng = np.random.default_rng(16)
    a = SupportSet.from_flat(p, rng.choice(p.size, size=2**16, replace=False))
    assert len(a) == 2**16
    rows = a.coords()
    listed = set(map(tuple, rows.tolist()))
    assert all(p.vector(r) in a for r in rows[:: 2**6].tolist())
    probes = rng.integers(0, 512, size=(4096, 2)).tolist()
    assert [p.vector(r) in a for r in probes] == [tuple(r) in listed for r in probes]
    assert 0 < sum(tuple(r) in listed for r in probes) < len(probes)
    for r in (rows[0].tolist(), rows[-1].tolist()):
        assert p.vector(r) in a
        assert RingVector(r, 513) not in a  # the same coordinates in another group
    assert GroupParams(512, 3).vector(rows[0].tolist() + [0]) not in a


def test_set_algebra_keeps_its_group_checks():
    p = GroupParams(4, 1)
    a = SupportSet.from_coords(p, [(1,)])
    for bad in (RingVector((1,), 5), GroupParams(4, 2).vector([1, 1])):
        for s in (a, SupportSet(p, ())):
            with pytest.raises(ValueError, match="points live in different groups"):
                shift_set(s, bad)
    with pytest.raises(ValueError, match="generator does not live in the declared group"):
        make_cyclic_subgroup(p, RingVector((1,), 5))
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        make_cyclic_subgroup(p, RingVector((1, 1), 4))


@pytest.mark.parametrize("n,d", [(2, 1), (7, 1), (4, 2), (5, 2), (3, 3)])
def test_array_edges_round_trip(n, d):
    p = GroupParams(n, d)
    rng = np.random.default_rng(n * 10 + d)
    flat = rng.integers(0, p.size, size=2 * p.size)  # unordered, with repeats
    a = SupportSet.from_flat(p, flat)
    expected = sorted(set(flat.tolist()))
    assert a.flat_indices().dtype == np.int64 and a.flat_indices().tolist() == expected
    assert [flat_index(p, v) for v in a] == expected
    rows = a.coords()
    assert rows.dtype == np.int64 and rows.shape == (len(a), d)
    assert [tuple(r) for r in rows.tolist()] == coords(a)
    assert SupportSet.from_flat(p, a.flat_indices()) == a
    assert SupportSet.from_coords(p, rows.tolist()) == a
    assert SupportSet.from_flat(p, list(reversed(expected))) == a
    empty = SupportSet.from_flat(p, [])
    assert len(empty) == 0 and empty == SupportSet(p, ())
    assert empty.coords().shape == (0, d) and empty.coords().dtype == np.int64
    assert empty.flat_indices().shape == (0,) and empty.flat_indices().dtype == np.int64


@pytest.mark.parametrize(
    "flat, message",
    [
        ([0, 25], "flat index 25 out of range for size 25"),
        (np.array([3, -1]), "flat index -1 out of range for size 25"),
        ([1.0, 2.0], "flat indices must be integers, got dtype float64"),
        ([True], "flat indices must be integers, got dtype bool"),
        (["3"], "flat indices must be integers"),
        (np.array([[1, 2]]), "flat indices must form a 1-D array, got shape (1, 2)"),
        (7, "flat indices must form a 1-D array, got shape ()"),
    ],
)
def test_from_flat_rejects_indices_outside_the_group(flat, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SupportSet.from_flat(GroupParams(5, 2), flat)


SMALL_GROUPS = [(n, d) for d in range(1, 7) for n in range(2, 65) if n**d <= 64]


def by_size_then_flat(s: SupportSet) -> tuple[int, list[int]]:
    return len(s), s.flat_indices().tolist()


def sum_set(a: SupportSet, b: SupportSet) -> SupportSet:
    rows = (a.coords()[:, None, :] + b.coords()[None, :, :]).reshape(-1, a.params.dimension)
    return SupportSet.from_coords(a.params, rows.tolist())


@pytest.mark.parametrize("n,d", SMALL_GROUPS)
def test_subgroup_routines_match_point_oracles(n, d):
    p = GroupParams(n, d)
    cyclic = all_cyclic_subgroups(p)
    by_points = {cyclic_subgroup_points(p, g) for g in all_points(p)}
    assert cyclic == sorted(by_points, key=by_size_then_flat)
    subgroups = sorted({sum_set(a, b) for a in cyclic for b in cyclic}, key=by_size_then_flat)
    rng = np.random.default_rng(n * 10 + d)
    others = [random_subset(p, rng) for _ in range(10)]
    for h in subgroups:
        assert is_subgroup(h) and is_subgroup_points(h)
        assert annihilator(h) == annihilator_points(h)
        outside = np.setdiff1d(np.arange(p.size), h.flat_indices())
        if outside.size:
            x = p.from_flat(int(rng.choice(outside)))
            others.append(shift_set(h, x))  # a coset without 0
            others.append(SupportSet(p, (*h, x)))  # holds 0, not closed
        if len(h) > 2:
            others.append(SupportSet(p, tuple(h)[:-1]))  # holds 0, one sum missing
    for a in others:
        assert is_subgroup(a) == is_subgroup_points(a)
        if is_subgroup(a):  # adding or dropping a point can still leave a subgroup
            assert annihilator(a) == annihilator_points(a)
            continue
        for route in (annihilator, annihilator_points):
            with pytest.raises(StructureError):
                route(a)


def test_subgroup_test_beyond_the_dense_guard_allocates_nothing_of_group_size():
    p = GroupParams(2, 30)  # N^d = 2^30, past the dense guard
    e1, e2 = [1] + [0] * 29, [0, 1] + [0] * 28
    h = SupportSet.from_coords(p, [[0] * 30, e1, e2, [1, 1] + [0] * 28])
    tracemalloc.start()
    try:
        assert is_subgroup(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a bool array over the group would take 2^30 bytes
    assert not is_subgroup(SupportSet.from_coords(p, [[0] * 30, e1, e2]))
    with pytest.raises(CapacityError, match=r"annihilator scan needs N\^d <= 16777216"):
        annihilator(h)
