"""Transforms, conventions, supports, and the indicator-spectrum identities."""

import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zncert import spectral
from zncert.errors import CapacityError
from zncert.lattice import GroupParams, SupportSet, all_cyclic_subgroups, annihilator
from zncert.recovery import RecoveryProblem, l1_recover
from zncert.spectral import (
    ANALYST_PLUS,
    CHARACTER_BLOCK,
    UNITARY_MINUS,
    Convention,
    Signal,
    _apply_axis_transform,
    _character_matrices,
    _character_matrix,
    _minus_character_matrix,
    dft,
    idft,
    indicator,
    negation_permutation,
    signal_from_json_dict,
    signal_to_json_dict,
    support_of,
)
from oracles import negate

ALL_CONVENTIONS = [
    Convention(norm, sign)
    for norm in ("unitary", "analyst")
    for sign in ("minus-forward", "plus-forward")
]


def random_signal(params, rng):
    values = rng.normal(size=params.size) + 1j * rng.normal(size=params.size)
    return Signal(params, values)


def test_convention_validation():
    with pytest.raises(ValueError):
        Convention("orthonormal", "minus-forward")
    with pytest.raises(ValueError):
        Convention("unitary", "backward")


def test_delta_transforms_to_constant():
    p = GroupParams(4, 1)
    f = Signal(p, np.array([1, 0, 0, 0], dtype=complex))
    assert np.allclose(dft(f).values, 0.5)


def test_constant_transforms_to_delta():
    p = GroupParams(5, 2)
    f = Signal(p, np.ones(25, dtype=complex))
    spec = dft(f)
    expected = np.zeros(25, dtype=complex)
    expected[0] = 5.0  # N^{d/2}
    assert np.allclose(spec.values, expected, atol=1e-12)


def test_four_point_spectrum_is_convention_pinned():
    """The walkthrough's spectrum list appears under the plus-forward
    analyst convention; the minus-forward evaluation of the same sum swaps
    the entries at frequencies 1 and 3. Both are kept; nothing is 'fixed'."""
    p = GroupParams(4, 1)
    values = np.array([1, 0, 0, 2], dtype=complex)
    golden = np.array([3, 1 - 2j, -1, 1 + 2j])

    plus = dft(Signal(p, values, ANALYST_PLUS))
    assert np.allclose(plus.values, golden, atol=1e-12)

    minus = dft(Signal(p, values, Convention("analyst", "minus-forward")))
    assert np.allclose(minus.values, golden[[0, 3, 2, 1]], atol=1e-12)


def test_four_point_spectrum_inverts():
    p = GroupParams(4, 1)
    spec = Signal(
        p, np.array([3, 1 - 2j, -1, 1 + 2j]), ANALYST_PLUS, side="frequency"
    )
    assert np.allclose(idft(spec).values, [1, 0, 0, 2], atol=1e-12)


@pytest.mark.parametrize("convention", ALL_CONVENTIONS)
def test_round_trip_identity(convention):
    rng = np.random.default_rng(11)
    for n, d in [(5, 2), (7, 1), (4, 3)]:
        p = GroupParams(n, d)
        f = Signal(
            p,
            rng.normal(size=p.size) + 1j * rng.normal(size=p.size),
            convention,
        )
        back = idft(dft(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale


def test_parseval_unitary():
    rng = np.random.default_rng(3)
    for trial in range(100):
        p = GroupParams(int(rng.integers(2, 9)), int(rng.integers(1, 3)))
        f = random_signal(p, rng)
        spec = dft(f)
        assert abs(f.l2_norm_sq() - spec.l2_norm_sq()) <= 1e-10 * f.l2_norm_sq()


def test_support_examples():
    p = GroupParams(4, 1)
    f = Signal(p, np.array([1, 0, 0, 2], dtype=complex))
    assert [v.coords for v in support_of(f, tau=0.0)] == [(0,), (3,)]

    zero = Signal(p, np.zeros(4, dtype=complex))
    assert len(support_of(zero)) == 0

    p2 = GroupParams(2, 1)
    tiny = Signal(p2, np.array([1e-15, 1.0], dtype=complex))
    assert [v.coords for v in support_of(tiny)] == [(1,)]

    with pytest.raises(ValueError):
        support_of(f, tau=-1.0)
    with pytest.raises(ValueError, match="threshold must be nonnegative, got nan"):
        support_of(f, tau=float("nan"))


def test_indicator_spectrum_examples():
    p = GroupParams(4, 1)
    full = SupportSet.from_coords(p, [(i,) for i in range(4)])
    spec = dft(indicator(full))
    expected = np.zeros(4, dtype=complex)
    expected[0] = 2.0  # N^{1/2}
    assert np.allclose(spec.values, expected, atol=1e-12)

    sub = SupportSet.from_coords(p, [(0,), (2,)])
    spec = dft(indicator(sub))
    assert np.allclose(spec.values, [1, 0, 1, 0], atol=1e-12)

    pair = SupportSet.from_coords(p, [(0,), (1,)])
    spec = dft(indicator(pair))
    assert abs(spec.l2_norm_sq() - 2.0) <= 1e-12  # Parseval: |A|


def test_subgroup_spectrum_supported_on_annihilator():
    for n in range(2, 17):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            spec_support = support_of(dft(indicator(sub)), tau=None)
            ann = annihilator(sub)
            assert [v.coords for v in spec_support] == [v.coords for v in ann]


def test_exponential_sum_mass():
    # sum over frequencies of |sum_{x in A} chi(x . m)|^2 equals |A| N^d
    rng = np.random.default_rng(8)
    for trial in range(50):
        p = GroupParams(int(rng.integers(2, 13)), int(rng.integers(1, 3)))
        size = int(rng.integers(1, p.size + 1))
        idx = rng.choice(p.size, size=size, replace=False)
        a = SupportSet(p, tuple(p.from_flat(int(i)) for i in idx))
        spec = dft(indicator(a))
        mass = p.size * spec.l2_norm_sq()  # undo the unitary N^{-d/2}
        assert abs(mass - size * p.size) <= 1e-9 * size * p.size


def test_signal_values_are_immutable():
    p = GroupParams(4, 1)
    f = Signal(p, np.array([1, 0, 0, 2], dtype=complex))
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_signal_json_round_trip():
    p = GroupParams(4, 1)
    f = Signal(p, np.array([1, 0.5j, 0, 2], dtype=complex), ANALYST_PLUS)
    data = signal_to_json_dict(f)
    assert data["N"] == 4 and data["d"] == 1
    assert data["convention"] == {
        "normalization": "analyst",
        "exponent_sign": "plus-forward",
    }
    restored = signal_from_json_dict(data)
    assert restored.convention == f.convention
    assert np.allclose(restored.values, f.values)


def test_signal_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Signal(GroupParams(4, 1), np.zeros(5, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Signal(GroupParams(4, 1), np.array([1, bad, 0, 2], dtype=complex))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def one_shot_character_matrix(n, sign):
    return np.exp(sign * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)


CHARACTER_SIZES = [1, 2, 3, 5, 7, 25, 64, 100, 257, 512, 1000, 2048]


@pytest.mark.parametrize("n", CHARACTER_SIZES)
@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("block", [CHARACTER_BLOCK, 1000])
def test_character_matrix_matches_one_shot_build(n, sign, block, monkeypatch):
    # the half-built, mirrored block build must reproduce the one-shot
    # expression bit for bit, also when the last block is short (n = 257,
    # 1000 and 2048 at the default block; n = 64 and 257 at 1000 entries a
    # block) and when a block is a single row (n = 1000 and 2048 at 1000)
    monkeypatch.setattr(spectral, "CHARACTER_BLOCK", block)
    assert same_bits(_character_matrix(n, sign), one_shot_character_matrix(n, sign))


@pytest.mark.parametrize("n", CHARACTER_SIZES)
@pytest.mark.parametrize("block", [CHARACTER_BLOCK, 1000])
def test_character_matrices_match_one_shot_builds(n, block, monkeypatch):
    # the plus-sign matrix derived from the minus-sign one by conjugation,
    # from the call that builds the minus-sign matrix and from the one that
    # finds it cached (n = 2048 is over the budget and built both times);
    # the cache starts empty, so the build runs at this block size
    monkeypatch.setattr(spectral, "CHARACTER_BLOCK", block)
    monkeypatch.setattr(spectral, "_character_cache", {})
    for _ in range(2):
        w = _character_matrices(n)
        assert sorted(w) == [-1, 1]
        for sign in (-1, 1):
            assert same_bits(w[sign], one_shot_character_matrix(n, sign))
            assert same_bits(w[sign], _character_matrix(n, sign))


def count_character_builds(monkeypatch) -> list:
    """Record the (n, sign) of every character matrix built from now on."""
    builds = []
    build = spectral._character_matrix

    def counted(n, sign):
        builds.append((n, sign))
        return build(n, sign)

    monkeypatch.setattr(spectral, "_character_matrix", counted)
    return builds


def test_character_cache_keeps_the_recently_used_matrices_within_its_bytes(monkeypatch):
    cache = {}
    monkeypatch.setattr(spectral, "_character_cache", cache)
    # room for the matrices of n = 8, 6 and 4: 16 * (64 + 36 + 16) bytes
    budget = 16 * (8 * 8 + 6 * 6 + 4 * 4)
    monkeypatch.setattr(spectral, "CHARACTER_CACHE_BYTES", budget)
    builds = count_character_builds(monkeypatch)
    for n in (8, 6, 4):
        _minus_character_matrix(n)
    assert list(cache) == [8, 6, 4]
    kept = cache[8]
    assert _minus_character_matrix(8) is kept  # a hit moves 8 to the back
    assert list(cache) == [6, 4, 8]
    _minus_character_matrix(5)  # 400 bytes more: 6, the least recent, goes
    assert list(cache) == [4, 8, 5]
    assert sum(w.nbytes for w in cache.values()) <= budget
    # 11 * 11 * 16 bytes is over the budget: built, returned and not kept
    for _ in range(2):
        big = _minus_character_matrix(11)
        assert same_bits(big, one_shot_character_matrix(11, -1))
        assert not big.flags.writeable
    assert list(cache) == [4, 8, 5]
    _minus_character_matrix(6)  # evicted, so built again
    assert builds == [(8, -1), (6, -1), (4, -1), (5, -1), (11, -1), (11, -1), (6, -1)]
    assert list(cache) == [5, 6] and sum(w.nbytes for w in cache.values()) <= budget


def test_transforms_build_one_matrix_per_modulus(monkeypatch):
    monkeypatch.setattr(spectral, "_character_cache", {})
    builds = count_character_builds(monkeypatch)
    rng = np.random.default_rng(12)
    for convention in ALL_CONVENTIONS:
        for n, d in ((7, 1), (7, 2), (5, 3)):
            f = Signal(GroupParams(n, d), rng.normal(size=n**d), convention)
            idft(dft(f))
    assert builds == [(7, -1), (5, -1)]


def test_problem_and_l1_solves_build_one_character_matrix_per_modulus(monkeypatch):
    monkeypatch.setattr(spectral, "_character_cache", {})
    builds = count_character_builds(monkeypatch)
    p = GroupParams(16, 1)
    missing = SupportSet.from_flat(p, np.array([3, 9]))
    problem = RecoveryProblem.from_signal(Signal(p, np.eye(16)[5]), missing)
    assert builds == [(16, -1)]  # the problem's transform
    assert l1_recover(problem).status == "converged"
    assert builds == [(16, -1)]  # the solve found it cached
    for convention in (UNITARY_MINUS, ANALYST_PLUS):
        f = Signal(p, np.eye(16)[2] - 2j * np.eye(16)[11], convention)
        assert l1_recover(RecoveryProblem.from_signal(f, missing)).status == "converged"
    assert builds == [(16, -1)]  # later items of that size build nothing


def test_cached_character_matrix_is_read_only(monkeypatch):
    monkeypatch.setattr(spectral, "_character_cache", {})
    w = _character_matrices(4)
    with pytest.raises(ValueError, match="read-only"):
        w[-1][1, 1] = 0.0
    assert w[-1] is _character_matrices(4)[-1]
    # the derived plus-sign matrix is the caller's own
    w[1][1, 1] = 0.0
    assert same_bits(_character_matrices(4)[1], one_shot_character_matrix(4, 1))


def test_dense_transforms_refuse_a_modulus_over_the_entry_budget(monkeypatch):
    # N^2 > DENSE_LIMIT is refused before any matrix is built; N = 4096 is
    # still let through to the build, which fails here in place of allocating
    class Built(Exception):
        pass

    def build(n, sign):
        raise Built(n)

    monkeypatch.setattr(spectral, "_character_cache", {})
    monkeypatch.setattr(spectral, "_character_matrix", build)
    with pytest.raises(Built):
        dft(Signal(GroupParams(4096, 1), np.zeros(4096)))
    p = GroupParams(4097, 1)
    refusal = re.escape("dense transform needs N^2 <= 16777216, got N^2 = 16785409")
    for convention in (UNITARY_MINUS, ANALYST_PLUS):
        with pytest.raises(CapacityError, match=refusal):
            dft(Signal(p, np.zeros(p.size), convention))
        with pytest.raises(CapacityError, match=refusal):
            idft(Signal(p, np.zeros(p.size), convention, side="frequency"))
    spectrum = Signal(p, np.zeros(p.size), side="frequency")
    problem = RecoveryProblem.from_spectrum(spectrum, SupportSet.from_flat(p, [7]))
    with pytest.raises(CapacityError, match=refusal):
        l1_recover(problem)
    assert spectral._character_cache == {}


def test_import_leaves_the_character_cache_empty():
    code = "import zncert, zncert.spectral as s; print(len(s._character_cache))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_character_cache_under_concurrent_transforms(monkeypatch):
    # more threads than cores, a short switch interval and a budget of two
    # of the four moduli, so that hits, builds and evictions interleave
    monkeypatch.setattr(spectral, "_character_cache", {})
    monkeypatch.setattr(spectral, "CHARACTER_CACHE_BYTES", 16 * (9 * 9 + 8 * 8))
    sizes = (9, 8, 7, 6)
    rng = np.random.default_rng(5)
    signals = [Signal(GroupParams(n, 2), rng.normal(size=n * n), ANALYST_PLUS) for n in sizes]
    expected = [dft(f).values for f in signals]
    failures = []

    def work(offset):
        try:
            for i in range(60):
                j = (offset + i) % len(sizes)
                if not same_bits(dft(signals[j]).values, expected[j]):
                    failures.append((offset, i))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    kept = spectral._character_cache
    assert sum(w.nbytes for w in kept.values()) <= spectral.CHARACTER_CACHE_BYTES
    assert all(same_bits(w, one_shot_character_matrix(n, -1)) for n, w in kept.items())


def oracle_axis_transform(values, params, w):
    """The axis transform as first written, by moveaxis and tensordot."""
    n, d = params.modulus, params.dimension
    t = values.reshape((n,) * d)
    for axis in range(d):
        t = np.moveaxis(np.tensordot(w, np.moveaxis(t, axis, 0), axes=(1, 0)), 0, axis)
    return t.reshape(-1)


@pytest.mark.parametrize(
    "n,d",
    [(2, 1), (7, 1), (25, 1), (64, 1), (257, 1), (512, 1),
     (2, 2), (5, 2), (6, 2), (12, 2), (31, 2), (64, 2),
     (2, 3), (3, 3), (4, 3), (5, 3), (9, 3), (16, 3)],
)
@pytest.mark.parametrize("sign", [-1, 1])
def test_axis_transform_matches_tensordot_oracle(n, d, sign):
    p = GroupParams(n, d)
    rng = np.random.default_rng([n, d, sign + 1])
    values = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
    w = _character_matrix(n, sign)
    out = _apply_axis_transform(values, p, w)
    assert same_bits(out, oracle_axis_transform(values, p, w))
    assert out.flags.writeable and not np.shares_memory(out, values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.integers(2, {1: 64, 2: 12, 3: 6}[d]), st.just(d))
    ),
    st.sampled_from(ALL_CONVENTIONS),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_property(group, convention, seed):
    n, d = group
    p = GroupParams(n, d)
    rng = np.random.default_rng(seed)
    f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size), convention)
    back = idft(dft(f))
    assert back.convention == convention and back.side == "time"
    assert np.max(np.abs(back.values - f.values)) <= 1e-9 * np.max(np.abs(f.values))


@pytest.mark.parametrize("n,d", [(2, 1), (7, 1), (12, 1), (4, 2), (5, 2), (3, 3), (4, 3)])
def test_negation_permutation_matches_point_loop(n, d):
    p = GroupParams(n, d)
    literal = np.array(
        [p.flat_index(negate(p.from_flat(i))) for i in range(p.size)], dtype=np.int64
    )
    perm = negation_permutation(p)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, literal)


def test_value_at_rejects_a_point_from_another_group():
    f = Signal(GroupParams(4, 1), np.arange(4, dtype=complex))
    assert f.value_at(GroupParams(4, 1).vector([3])) == 3
    for point in (GroupParams(7, 1).vector([3]), GroupParams(4, 2).vector([0, 3])):
        with pytest.raises(ValueError, match="point lives in a different group"):
            f.value_at(point)
