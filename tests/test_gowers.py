"""Uniformity norms: coset identities, the energy bridge, and the scanner."""

import numpy as np
import pytest

from zncert import gowers, spectral
from zncert.errors import CapacityError
from zncert.lattice import GroupParams, SupportSet, all_cyclic_subgroups, shift_set
from zncert.spectral import Signal, dft, indicator, support_of
from zncert.energy import energy_representation
from zncert.gowers import ScanWitness, _cube_sum, conjecture_scan, gowers_norm
from oracles import u2_autocorrelation_sum


def random_set(params, rng, size=None):
    size = size if size is not None else int(rng.integers(1, params.size + 1))
    idx = rng.choice(params.size, size=size, replace=False)
    return SupportSet(params, tuple(params.from_flat(int(i)) for i in idx))


@pytest.mark.parametrize("k", [2, 3])
def test_constant_signal_has_norm_one(k):
    for n, d in [(5, 1), (3, 2)]:
        p = GroupParams(n, d)
        report = gowers_norm(Signal(p, np.ones(p.size, dtype=complex)), k)
        assert report.norm_value == pytest.approx(1.0, abs=1e-12)
        assert report.raw_sum == pytest.approx(p.size ** (k + 1), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_coset_indicator_exponent_form(k):
    for n in (4, 6, 9):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            for y in (0, 1):
                coset = shift_set(sub, p.vector([y]))
                report = gowers_norm(indicator(coset), k)
                assert report.exponent_form == pytest.approx(
                    len(sub) / n, abs=1e-9
                )


def test_order_two_norm_encodes_additive_energy():
    rng = np.random.default_rng(51)
    for trial in range(40):
        n = int(rng.integers(2, 11))
        d = 1 if n > 5 else int(rng.integers(1, 3))
        p = GroupParams(n, d)
        a = random_set(p, rng)
        report = gowers_norm(indicator(a), 2)
        lam = energy_representation(a)
        bridged = p.size**3 * report.norm_value**4
        assert abs(bridged - lam) <= 1e-8 * lam


def test_raw_sum_real_nonnegative_for_random_signals():
    rng = np.random.default_rng(53)
    for trial in range(30):
        p = GroupParams(int(rng.integers(2, 7)), 1)
        f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
        for k in (2, 3):
            report = gowers_norm(f, k)
            assert report.raw_sum >= -1e-12 * max(1.0, abs(report.raw_sum))


def test_norm_nesting():
    rng = np.random.default_rng(57)
    for trial in range(10):
        p = GroupParams(6, 1)
        f = Signal(p, rng.normal(size=6) + 1j * rng.normal(size=6))
        u2 = gowers_norm(f, 2).norm_value
        u3 = gowers_norm(f, 3).norm_value
        assert u2 <= u3 + 1e-9


def test_order_and_capacity_guards():
    p = GroupParams(4, 1)
    f = Signal(p, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        gowers_norm(f, 1)
    with pytest.raises(ValueError):
        gowers_norm(f, 4)
    big = GroupParams(91, 1)
    refusal = r"^norm of order 3 on this group sums 68574961 terms \(limit 67108864\)$"
    with pytest.raises(CapacityError, match=refusal):
        gowers_norm(Signal(big, np.ones(91, dtype=complex)), 3)
    with pytest.raises(CapacityError, match=refusal):
        conjecture_scan(big, 3, trials=1)
    # order 2 is one transform of a signal that already exists: no term guard
    gowers._require_order(GroupParams(2**20, 4), 2)
    # but a scan makes its own signals and point sets, so it has a point guard
    conjecture_scan(GroupParams(256, 2), 2, trials=0)
    for huge in (GroupParams(257, 2), GroupParams(2**20, 4)):
        refusal = rf"^conjecture scan needs N\^d <= 65536, got N\^d = {huge.size}$"
        with pytest.raises(CapacityError, match=refusal):
            conjecture_scan(huge, 2, trials=1)


def test_coset_pairs_scan_at_exactly_one():
    # support size times the annihilator indicator's exponent form is 1
    # thanks to the duality |H| * |H_perp| = N; scanning a coset indicator
    # must therefore report a product of exactly 1 in both directions.
    p = GroupParams(6, 1)
    for sub in all_cyclic_subgroups(p):
        coset = shift_set(sub, p.vector([1]))
        f = indicator(coset)
        report = conjecture_scan(p, 2, sampler="random", trials=0)
        from zncert.gowers import _scan_one

        _scan_one(report, f)
        assert report.min_product == pytest.approx(1.0, abs=1e-9)
        assert not report.violations


def test_constant_signal_scans_at_one():
    p = GroupParams(5, 1)
    report = conjecture_scan(p, 2, sampler="random", trials=0)
    from zncert.gowers import _scan_one

    _scan_one(report, Signal(p, np.ones(5, dtype=complex)))
    assert report.min_product == pytest.approx(1.0, abs=1e-9)


def test_exhaustive_small_scan():
    # finite computation over all {0, 1, -1} signals on Z_4: 3^4 - 1 cases;
    # this family is fully verified, so pinning the outcome is a regression
    # check, not a claim about the general inequality
    p = GroupParams(4, 1)
    report = conjecture_scan(p, 2, sampler="exhaustive-small")
    assert report.trials == 80
    assert report.min_product >= 1.0 - 1e-9
    assert report.violations == []
    assert report.min_witness is not None


def test_random_scan_reports_either_way():
    p = GroupParams(5, 1)
    report = conjecture_scan(p, 2, sampler="random", trials=100, seed=3)
    assert report.trials == 100
    assert report.min_product > 0
    data = report.to_json_dict()
    assert data["violation_count"] == len(report.violations)
    # violations and the minimum must tell one consistent story
    if report.min_product >= 1.0 - 1e-9:
        assert not report.violations
    else:
        assert report.violations


def test_scan_validation():
    with pytest.raises(ValueError):
        conjecture_scan(GroupParams(7, 1), 2, sampler="exhaustive-small")
    with pytest.raises(ValueError):
        conjecture_scan(GroupParams(5, 1), 2, sampler="antigravity")
    for k in (1, 4, 7):  # checked before any signal is drawn
        with pytest.raises(ValueError, match=rf"order must lie in \[2, 3\], got {k}"):
            conjecture_scan(GroupParams(4, 1), k, trials=0)


def test_scan_refuses_an_oversized_group_before_drawing_a_signal(monkeypatch):
    def refuse(*args):
        raise AssertionError("a signal was drawn or a character matrix was asked for")

    monkeypatch.setattr(spectral, "_character_matrix", refuse)
    monkeypatch.setattr(gowers, "random_signal", refuse)
    with pytest.raises(CapacityError, match="norm of order 3 on this group sums 4294967296 terms"):
        conjecture_scan(GroupParams(16, 2), 3, trials=1)


def test_scan_rejects_negative_trials():
    for sampler in ("random", "exhaustive-small"):
        with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
            conjecture_scan(GroupParams(5, 1), 2, sampler=sampler, trials=-3)
    assert conjecture_scan(GroupParams(5, 1), 2, trials=0).trials == 0


# Both sides of the N = 32 line between the dense transform and the FFT.
IDENTITY_CASES = [(2, 1), (5, 1), (31, 1), (32, 1), (33, 1), (64, 1), (5, 2), (8, 2), (33, 2), (3, 3)]
# The literal cube sum runs about 50 us per shift pair: 0.2 s at 2^18 terms,
# over a minute on Z_33^2, where the autocorrelation oracle stands in for it.
CUBE_SUM_TERMS = 2**18


@pytest.mark.parametrize("kind", ["complex", "indicator"])
@pytest.mark.parametrize("n,d", IDENTITY_CASES, ids=[f"z{n}^{d}" for n, d in IDENTITY_CASES])
def test_order_two_fourier_identity_matches_the_cube_sum(n, d, kind):
    p = GroupParams(n, d)
    rng = np.random.default_rng([61, n, d])
    if kind == "complex":
        f = Signal(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
    else:
        f = indicator(SupportSet.from_flat(p, rng.choice(p.size, size=max(1, p.size // 3), replace=False)))
    raw = gowers_norm(f, 2).raw_sum
    reference = u2_autocorrelation_sum(f.values, p)
    if p.size**3 <= CUBE_SUM_TERMS:
        cube = _cube_sum(f, 2)
        assert abs(reference - cube) <= 1e-12 * cube
        reference = cube
    assert abs(raw - reference) <= 1e-12 * reference


def test_order_two_raw_sum_rounds_to_the_energy_past_the_cube_sum_guard():
    p = GroupParams(64, 2)  # 2^36 cube-sum terms
    rng = np.random.default_rng(67)
    a = SupportSet.from_flat(p, rng.choice(p.size, size=1024, replace=False))
    assert round(gowers_norm(indicator(a), 2).raw_sum) == energy_representation(a)


def test_order_two_norm_runs_on_z1024_squared():
    # a character has one nonzero coefficient, of modulus N^d: raw sum N^{3d}, norm 1
    p = GroupParams(1024, 2)
    x1, x2 = np.unravel_index(np.arange(p.size), (1024, 1024))
    report = gowers_norm(Signal(p, np.exp(2j * np.pi * (3 * x1 + 5 * x2) / 1024)), 2)
    assert report.raw_sum == pytest.approx(float(p.size) ** 3, rel=1e-12)
    assert report.norm_value == pytest.approx(1.0, rel=1e-12)


def test_order_two_scan_runs_on_z64_squared():
    report = conjecture_scan(GroupParams(64, 2), 2, trials=2)
    assert report.trials == 2
    assert report.min_witness is not None and report.min_product > 0
    assert bool(report.violations) == (report.min_product < 1.0 - 1e-9)


def eager_scan_one(report, f):
    """The scan step with a witness built for every product, kept or not."""
    e = support_of(f)
    sigma = support_of(dft(f))
    if len(e) == 0 or len(sigma) == 0:
        return
    pairs = (
        (len(e), sigma, "support-times-spectrum-norm"),
        (len(sigma), e, "spectrum-times-support-norm"),
    )
    for size, other, direction in pairs:
        value = size * gowers_norm(indicator(other), report.k).exponent_form
        witness = ScanWitness(value, len(e), len(sigma), e.coords().tolist(), sigma.coords().tolist(), direction)
        if value < report.min_product:
            report.min_product = value
            report.min_witness = witness
        if value < 1.0 - gowers.VIOLATION_TOL:
            report.violations.append(witness)


def assert_equal_up_to_roundoff(a, b):
    if isinstance(a, float):
        assert a == pytest.approx(b, rel=1e-12)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_equal_up_to_roundoff(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_equal_up_to_roundoff(x, y)
    else:
        assert a == b


SCANS = [
    (GroupParams(5, 1), 2, "random", 500, 905),
    (GroupParams(6, 1), 3, "random", 20, 905),
    (GroupParams(4, 1), 2, "exhaustive-small", 500, 0),
]


@pytest.mark.parametrize("params,k,sampler,trials,seed", SCANS, ids=["z5-k2", "z6-k3", "z4-exhaustive"])
def test_scan_reports_match_the_cube_sum_scan_with_every_witness_built(
    monkeypatch, params, k, sampler, trials, seed
):
    def scan():
        return conjecture_scan(params, k, sampler=sampler, trials=trials, seed=seed).to_json_dict()

    report = scan()
    # order 2 through the cube sum too, so both scans below compute the same products
    monkeypatch.setattr(gowers, "_fourier_sum", lambda f: _cube_sum(f, 2))
    lazy = scan()
    monkeypatch.setattr(gowers, "_scan_one", eager_scan_one)
    eager = scan()
    assert lazy == eager
    assert eager["min_witness"] is not None
    assert_equal_up_to_roundoff(report, eager)
