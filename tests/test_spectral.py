"""Transforms, conventions, supports, and the indicator-spectrum identities."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zncert import spectral
from zncert.lattice import GroupParams, SupportSet, all_cyclic_subgroups, annihilator
from zncert.recovery import RecoveryProblem, l1_recover
from zncert.spectral import (
    ANALYST_PLUS,
    UNITARY_MINUS,
    Convention,
    Signal,
    _apply_axis_transform,
    _character_matrix,
    dft,
    idft,
    indicator,
    negation_permutation,
    signal_from_json_dict,
    signal_to_json_dict,
    support_of,
)
from oracles import axis_transform_tensordot, character_matrix, dense_transform, flat_index, negate

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


DENSE_SHAPES = [(n, 1) for n in range(2, 33)] + [
    (2, 2), (5, 2), (12, 2), (31, 2), (32, 2), (2, 3), (3, 3), (7, 3), (16, 3),
]


@pytest.mark.parametrize("n,d", DENSE_SHAPES)
def test_dense_route_matches_one_shot_oracle_bit_for_bit(n, d):
    # up to N = 32 the memoised matrices, dft and idft reproduce the one-shot
    # character matrix applied by tensordot, the bits the reports pin
    p = GroupParams(n, d)
    for sign in (-1, 1):
        assert same_bits(_character_matrix(n, sign), character_matrix(n, sign))
    rng = np.random.default_rng([n, d])
    values = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
    for convention in ALL_CONVENTIONS:
        sign = convention.forward_sign
        forward = dense_transform(values, p, sign) * convention.forward_scale(p)
        assert same_bits(dft(Signal(p, values, convention)).values, forward)
        inverse = dense_transform(values, p, -sign) * convention.inverse_scale(p)
        assert same_bits(idft(Signal(p, values, convention, side="frequency")).values, inverse)


CHARACTER_SIZES = [1, 2, 3, 5, 7, 25, 64, 100, 257, 512, 1000, 2048]


@pytest.mark.parametrize("n", CHARACTER_SIZES)
@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("seed", [16384, 1000])
def test_character_matrix_matches_one_shot_build(n, sign, seed, monkeypatch):
    # the memoised matrix is the one-shot expression's, bit for bit, at any
    # n it is asked for, and the dense kernel applies it as tensordot does
    monkeypatch.setattr(spectral, "_character_memo", {})
    w = _character_matrix(n, sign)
    assert same_bits(w, character_matrix(n, sign))
    assert not w.flags.writeable and w is _character_matrix(n, sign)
    if n >= 2:  # Z_1 is not a group
        p = GroupParams(n, 1)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert same_bits(_apply_axis_transform(values, p, w), axis_transform_tensordot(values, p, w))


@pytest.mark.parametrize("n", CHARACTER_SIZES)
@pytest.mark.parametrize("seed", [16384, 1000])
def test_character_matrices_match_one_shot_builds(n, seed, monkeypatch):
    # both signs are memoised, each with the bits of its own one-shot build,
    # whichever is asked for first (seed 16384 asks for the plus sign first,
    # seed 1000 for the minus sign), from the call that builds it and from
    # the one that finds it memoised
    monkeypatch.setattr(spectral, "_character_memo", {})
    order = [int(s) for s in np.random.default_rng(seed).permutation([-1, 1])]
    built = {sign: _character_matrix(n, sign) for sign in order}
    assert sorted(spectral._character_memo) == [(n, -1), (n, 1)]
    for sign in order:
        assert same_bits(built[sign], character_matrix(n, sign))
        assert _character_matrix(n, sign) is built[sign]


def refuse_matrix(n, sign):
    raise AssertionError(f"a {n} x {n} character matrix was asked for")


@pytest.mark.parametrize("n,d", [(33, 1), (64, 1), (257, 1), (512, 1), (1000, 1), (33, 2), (64, 2), (33, 3)])
@pytest.mark.parametrize("convention", ALL_CONVENTIONS)
def test_fft_route_matches_dense_oracle(n, d, convention, monkeypatch):
    # An FFT's normwise error is of order log2(N^d) u times the norm of the
    # exact output, ||f||_2 N^{d/2} scale (Higham 2002, section 24.1). The
    # oracle reduces its phases mod N, so its own error is of that order
    # too; measured differences stay under 0.75 of this unit.
    monkeypatch.setattr(spectral, "_character_matrix", refuse_matrix)
    p = GroupParams(n, d)
    rng = np.random.default_rng([n, d, 2])
    values = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
    unit = math.log2(p.size) * np.finfo(float).eps / 2 * np.linalg.norm(values) * math.sqrt(p.size)
    forward = convention.forward_sign
    for out, sign, scale in (
        (dft(Signal(p, values, convention)), forward, convention.forward_scale(p)),
        (idft(Signal(p, values, convention, side="frequency")), -forward, convention.inverse_scale(p)),
    ):
        expected = dense_transform(values, p, sign, reduce_phase=True) * scale
        assert np.linalg.norm(out.values - expected) <= 4 * unit * scale
        # one axis at a time, the route has the bits of fftn and ifftn, for a
        # vector and for each row of a stack
        shape = (n,) * d
        if sign == -1:
            nd = np.fft.fftn(values.reshape(shape)).reshape(-1)
        else:
            nd = np.fft.ifftn(values.reshape(shape), norm="forward").reshape(-1)
        assert same_bits(out.values, nd * scale)
        stack = np.stack([rng.normal(size=p.size) + 1j * rng.normal(size=p.size), values, values[::-1]])
        stacked = spectral._transform(p, sign)(stack)
        assert stacked.shape == stack.shape
        assert same_bits(stacked[1], nd)
        assert same_bits(stacked[2], spectral._transform(p, sign)(stack[2]))


def test_dense_route_ends_at_n_32(monkeypatch):
    # N = 32 takes the memoised dense sum and calls no FFT; N = 33 takes the
    # FFT, minus sign by fft and plus sign by ifft, and asks for no matrix
    assert spectral.DENSE_MAX_MODULUS == 32
    monkeypatch.setattr(spectral, "_character_memo", {})
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    rng = np.random.default_rng(32)
    for convention in ALL_CONVENTIONS:
        idft(dft(Signal(GroupParams(32, 1), rng.normal(size=32), convention)))
    assert calls == [] and sorted(spectral._character_memo) == [(32, -1), (32, 1)]
    kept = dict(spectral._character_memo)
    for convention in ALL_CONVENTIONS:
        idft(dft(Signal(GroupParams(33, 1), rng.normal(size=33), convention)))
    assert calls == ["fft", "ifft", "ifft", "fft"] * 2
    assert spectral._character_memo == kept


def test_transforms_build_each_matrix_once_per_modulus_and_sign(monkeypatch):
    monkeypatch.setattr(spectral, "_character_memo", {})
    rng = np.random.default_rng(12)

    def transform_all():
        for convention in ALL_CONVENTIONS:
            for n, d in ((7, 1), (7, 2), (5, 3), (40, 1)):
                f = Signal(GroupParams(n, d), rng.normal(size=n**d), convention)
                idft(dft(f))

    transform_all()
    kept = dict(spectral._character_memo)
    assert sorted(kept) == [(5, -1), (5, 1), (7, -1), (7, 1)]
    transform_all()
    assert spectral._character_memo.keys() == kept.keys()
    assert all(spectral._character_memo[key] is w for key, w in kept.items())


def test_problem_and_l1_solves_build_each_character_matrix_once(monkeypatch):
    monkeypatch.setattr(spectral, "_character_memo", {})
    p = GroupParams(16, 1)
    missing = SupportSet.from_flat(p, np.array([3, 9]))
    problem = RecoveryProblem.from_signal(Signal(p, np.eye(16)[5]), missing)
    assert list(spectral._character_memo) == [(16, -1)]  # the problem's transform
    assert l1_recover(problem).status == "converged"
    kept = dict(spectral._character_memo)
    assert sorted(kept) == [(16, -1), (16, 1)]  # the solve added the plus sign
    for convention in (UNITARY_MINUS, ANALYST_PLUS):
        f = Signal(p, np.eye(16)[2] - 2j * np.eye(16)[11], convention)
        assert l1_recover(RecoveryProblem.from_signal(f, missing)).status == "converged"
    assert all(spectral._character_memo[key] is w for key, w in kept.items())
    assert len(spectral._character_memo) == 2  # later items of that size build nothing


def test_cached_character_matrix_is_read_only(monkeypatch):
    monkeypatch.setattr(spectral, "_character_memo", {})
    for sign in (-1, 1):
        w = _character_matrix(4, sign)
        with pytest.raises(ValueError, match="read-only"):
            w[1, 1] = 0.0
        assert w is _character_matrix(4, sign)
        assert same_bits(w, character_matrix(4, sign))


def test_character_memo_holds_every_dense_modulus_in_under_0_4_mb(monkeypatch):
    monkeypatch.setattr(spectral, "_character_memo", {})
    for n in range(2, spectral.DENSE_MAX_MODULUS + 1):
        for sign in (-1, 1):
            _character_matrix(n, sign)
    memo = spectral._character_memo
    assert len(memo) == 62
    assert sum(w.nbytes for w in memo.values()) == 16 * 2 * sum(n * n for n in range(2, 33)) < 400_000


def test_transforms_past_the_old_dense_guard_build_no_matrix(monkeypatch):
    # N^2 > 2^24 used to be refused; the FFT route needs no character matrix
    monkeypatch.setattr(spectral, "_character_matrix", refuse_matrix)
    rng = np.random.default_rng(4097)
    for n in (4097, 8192):
        p = GroupParams(n, 1)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        for convention in (UNITARY_MINUS, ANALYST_PLUS):
            spectrum = dft(Signal(p, values, convention))
            assert spectrum.side == "frequency" and spectrum.values.shape == (n,)
            back = idft(spectrum)
            assert np.max(np.abs(back.values - values)) <= 1e-12 * np.max(np.abs(values))


def test_import_leaves_the_character_cache_empty():
    # the child imports this checkout's package whether or not zncert is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import zncert, zncert.spectral as s; print(len(s._character_memo))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "0\n"


def test_character_cache_under_concurrent_transforms(monkeypatch):
    # more threads than cores and a short switch interval, so that threads
    # miss on the same (N, sign) together and each build it
    monkeypatch.setattr(spectral, "_character_memo", {})
    sizes = (9, 8, 7, 6)
    rng = np.random.default_rng(5)
    signals = [
        Signal(GroupParams(n, 2), rng.normal(size=n * n), convention)
        for n in sizes
        for convention in (UNITARY_MINUS, ANALYST_PLUS)
    ]
    expected = [
        dense_transform(f.values, f.params, f.convention.forward_sign) * f.convention.forward_scale(f.params)
        for f in signals
    ]
    failures = []

    def work(offset):
        try:
            for i in range(60):
                j = (offset + i) % len(signals)
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
    memo = spectral._character_memo
    assert sorted(memo) == sorted((n, sign) for n in sizes for sign in (-1, 1))
    assert all(same_bits(w, character_matrix(n, sign)) for (n, sign), w in memo.items())


@pytest.mark.parametrize(
    "n,d",
    [(2, 1), (7, 1), (25, 1), (64, 1), (257, 1), (512, 1),
     (2, 2), (5, 2), (6, 2), (12, 2), (31, 2), (64, 2),
     (2, 3), (3, 3), (4, 3), (5, 3), (9, 3), (16, 3)],
)
@pytest.mark.parametrize("sign", [-1, 1])
def test_axis_transform_matches_tensordot_oracle(n, d, sign):
    # a vector, and every row of a stack of B of them, has the oracle's bits
    p = GroupParams(n, d)
    rng = np.random.default_rng([n, d, sign + 1])
    values = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
    w = character_matrix(n, sign)
    out = _apply_axis_transform(values, p, w)
    assert same_bits(out, axis_transform_tensordot(values, p, w))
    assert out.flags.writeable and not np.shares_memory(out, values)
    for b in (1, 2, 7, 64):
        stack = rng.normal(size=(b, p.size)) + 1j * rng.normal(size=(b, p.size))
        out = _apply_axis_transform(stack, p, w)
        assert out.shape == stack.shape
        assert all(same_bits(out[k], axis_transform_tensordot(stack[k], p, w)) for k in range(b))
        assert out.flags.writeable and not np.shares_memory(out, stack)


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
        [flat_index(p, negate(p.from_flat(i))) for i in range(p.size)], dtype=np.int64
    )
    perm = negation_permutation(p)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, literal)


@pytest.mark.parametrize("n,d", [(2, 1), (7, 1), (5, 2), (3, 3), (33, 2)])
def test_value_at_reads_the_row_major_slot(n, d):
    p = GroupParams(n, d)
    rng = np.random.default_rng(n + d)
    f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
    for i in rng.choice(p.size, size=min(p.size, 40), replace=False).tolist():
        v = p.from_flat(i)
        assert f.value_at(v) == f.values[flat_index(p, v)]


def test_value_at_rejects_a_point_from_another_group():
    f = Signal(GroupParams(4, 1), np.arange(4, dtype=complex))
    assert f.value_at(GroupParams(4, 1).vector([3])) == 3
    for point in (GroupParams(7, 1).vector([3]), GroupParams(4, 2).vector([0, 3])):
        with pytest.raises(ValueError, match="point lives in a different group"):
            f.value_at(point)
