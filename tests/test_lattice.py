"""Residue arithmetic, set generators, and the subgroup/annihilator duality."""

import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zncert.errors import StructureError
from zncert.lattice import (
    GroupParams,
    RingVector,
    SupportSet,
    all_cyclic_subgroups,
    annihilator,
    complement,
    is_subgroup,
    make_cyclic_subgroup,
    make_interval_grid,
    negate_set,
    product_set,
    set_from_json_dict,
    set_to_json_dict,
    shift_set,
)


def coords(a: SupportSet) -> list[tuple[int, ...]]:
    return [v.coords for v in a]


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(1, 1)
    with pytest.raises(ValueError):
        GroupParams(4, 0)
    assert GroupParams(5, 2).size == 25


def test_vector_canonicalization():
    p = GroupParams(5, 2)
    v = p.vector([-1, 7])
    assert v.coords == (4, 2)
    with pytest.raises(ValueError):
        p.vector([1, 2, 3])


def test_flat_index_round_trip():
    p = GroupParams(5, 2)
    for i in range(p.size):
        assert p.flat_index(p.from_flat(i)) == i
    assert p.flat_index(p.vector([1, 2])) == 7  # row-major


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
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + params.zero() == x
    assert x + (-x) == params.zero()
    assert x.dot(y) == y.dot(x)


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
        current = current + g
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
    members = tuple(v.scale(k) for k, v in enumerate(vecs, start=1))
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
    p1 = GroupParams(4, 1)
    half = make_cyclic_subgroup(p1, p1.vector([2]))
    square = product_set(half, half)  # {0,2} x {0,2} in Z_4^2
    assert len(square) == 4
    assert is_subgroup(square)
    ann = annihilator(square)
    assert len(square) * len(ann) == 16
    assert set(coords(ann)) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_product_set_builds_grids():
    interval = make_interval_grid(GroupParams(5, 1), 2)
    grid = product_set(interval, interval)
    assert coords(grid) == coords(make_interval_grid(GroupParams(5, 2), 2))


def test_negate_and_complement():
    p = GroupParams(5, 1)
    a = SupportSet.from_coords(p, [(1,), (2,)])
    assert coords(negate_set(a)) == [(3,), (4,)]
    comp = complement(a)
    assert len(comp) == 3
    assert all(v not in a for v in comp)


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
