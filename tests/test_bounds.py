"""Certificate evaluators: classical, additive, refined, and the recovery
condition, with golden values cross-checked by independent scalar arithmetic."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from zncert import bounds
from zncert.lattice import (
    GroupParams,
    SupportSet,
    all_cyclic_subgroups,
    make_cyclic_subgroup,
    make_interval_grid,
    shift_set,
)
from zncert.spectral import Signal, dft, indicator, support_of
from zncert.energy import energy_growth_certificate, energy_representation
from zncert.bounds import (
    _refined_certificate,
    additive_bound,
    certify_pair,
    classical_bound,
    correction_term,
    recovery_condition,
    refined_bound,
)


def random_support_pair(rng, n, d):
    """Supports of an actual random signal and its spectrum."""
    p = GroupParams(n, d)
    size = int(rng.integers(1, p.size + 1))
    idx = rng.choice(p.size, size=size, replace=False)
    values = np.zeros(p.size, dtype=np.complex128)
    values[idx] = rng.normal(size=size) + 1j * rng.normal(size=size)
    f = Signal(p, values)
    return p, support_of(f), support_of(dft(f))


def test_classical_bound_fields():
    p = GroupParams(4, 1)
    cert = classical_bound(2, 2, p)
    assert cert.kind == "classical"
    assert cert.lhs == 4 and cert.rhs == 4.0
    assert cert.satisfied  # uncertainty form: N^d <= |E||Sigma|
    assert cert.half_size_recoverable is False  # 2*2*2 = 8 is not < 4
    assert cert.slack == 0.0

    p9 = GroupParams(9, 1)
    cert = classical_bound(3, 1, p9)
    assert cert.half_size_recoverable is True  # 2*3*1 = 6 < 9
    assert not cert.satisfied  # 9 <= 3 fails: not a realizable support pair

    with pytest.raises(ValueError):
        classical_bound(0, 2, p)


def test_additive_bound_equality_at_cosets():
    # constant signal: support is the whole line, spectrum is one point
    p = GroupParams(7, 1)
    cert = additive_bound(7, 1, p)
    assert cert.satisfied and abs(cert.slack) <= 1e-12
    assert cert.rhs == 7.0


def test_additive_bound_symmetric_form_on_grid():
    # 2x2 grid in Z_5^2: frequency-side bound is |Sigma| * 36^{1/3}
    p = GroupParams(5, 2)
    grid = SupportSet.from_coords(p, [(0, 0), (0, 1), (1, 0), (1, 1)])
    sigma = support_of(dft(indicator(grid)))
    cert = additive_bound(len(sigma), energy_representation(grid), p)
    assert cert.rhs == pytest.approx(len(sigma) * 36 ** (1 / 3), rel=1e-12)
    assert cert.satisfied


def test_additive_bound_random_signal_pipeline():
    rng = np.random.default_rng(31)
    for trial in range(25):
        p, e, sigma = random_support_pair(rng, 8, 1)
        cert = additive_bound(len(e), energy_representation(sigma), p)
        assert cert.satisfied


def test_additive_bound_decides_on_exact_cubes():
    p = GroupParams(8, 1)
    exact_equality = additive_bound(2, 64, p)  # 8^3 == 2^3 * 64
    assert exact_equality.satisfied
    just_below = additive_bound(2, 63, p)
    assert not just_below.satisfied


def test_correction_term_vanishes_at_extremal_pairs():
    p = GroupParams(6, 1)
    # |E||Sigma| = N with maximal energy: both factors in both terms cancel
    assert correction_term(2, 3, 8, p) == 0.0
    assert correction_term(6, 1, 216, p) == 0.0


def test_correction_term_golden_value():
    p = GroupParams(4, 1)
    value = correction_term(2, 4, 6, p)
    independent = 16 * (1 - 0.5) + 12 * (1 - math.sqrt(0.5) * math.sqrt(6 / 8))
    assert value == pytest.approx(independent, abs=1e-12)
    assert value == pytest.approx(12.651530771650465, abs=1e-12)


def test_correction_term_single_frequency():
    # |Sigma| = 1 forces |E| = N^d; the pair term vanishes for any energy
    p = GroupParams(4, 1)
    for energy in (1, 6, 64):
        assert correction_term(4, 1, energy, p) == 0.0


def test_correction_term_domain_guard():
    p = GroupParams(4, 1)
    with pytest.raises(ValueError):
        correction_term(1, 2, 1, p)


def test_refined_bound_extremal_constant_signal():
    p = GroupParams(5, 1)
    f = Signal(p, np.ones(5, dtype=complex))
    e, sigma = support_of(f), support_of(dft(f))
    cert_point, cert_freq = refined_bound(e, sigma)
    for cert in (cert_point, cert_freq):
        assert cert.correction == 0.0
        assert cert.rhs == pytest.approx(5.0, abs=1e-12)
        assert cert.satisfied


def test_refined_bound_four_point_golden_values():
    p = GroupParams(4, 1)
    e = SupportSet.from_coords(p, [(0,), (3,)])
    sigma = SupportSet.from_coords(p, [(i,) for i in range(4)])
    cert_point, cert_freq = refined_bound(e, sigma)

    # independent scalar arithmetic: energies 6 and 64, N^d = 4
    c_point = 16 * (1 - 0.5) + 12 * (1 - math.sqrt(0.5) * math.sqrt(6 / 8))
    c_freq = 4 * (1 - 0.5) + 2 * (1 - math.sqrt(0.5) * math.sqrt(64 / 64))
    assert cert_point.correction == pytest.approx(c_point, abs=1e-12)
    assert cert_freq.correction == pytest.approx(c_freq, abs=1e-12)
    assert cert_point.rhs == pytest.approx(2 * (64 - c_point) ** (1 / 3), abs=1e-12)
    assert cert_freq.rhs == pytest.approx(4 * (6 - c_freq) ** (1 / 3), abs=1e-12)
    assert cert_point.rhs == pytest.approx(7.433713676174157, abs=1e-12)
    assert cert_freq.rhs == pytest.approx(6.023148244868197, abs=1e-12)
    assert cert_point.satisfied and cert_freq.satisfied
    assert cert_point.improves_additive and cert_freq.improves_additive


def test_refined_bound_rejects_empty_sets():
    p = GroupParams(4, 1)
    full = SupportSet.from_coords(p, [(i,) for i in range(4)])
    with pytest.raises(ValueError):
        refined_bound(SupportSet(p, ()), full)


def test_refined_strictly_improves_when_product_exceeds_size():
    rng = np.random.default_rng(37)
    seen = 0
    for trial in range(200):
        p, e, sigma = random_support_pair(rng, int(rng.integers(4, 13)), 1)
        if len(e) * len(sigma) <= p.size:
            continue
        if energy_representation(e) >= len(e) ** 3:
            continue
        seen += 1
        cert_point, cert_freq = refined_bound(e, sigma)
        additive_point = len(e) * energy_representation(sigma) ** (1 / 3)
        additive_freq = len(sigma) * energy_representation(e) ** (1 / 3)
        assert cert_point.rhs < additive_point
        assert cert_freq.rhs < additive_freq
    assert seen >= 50


def test_corrections_nonnegative_on_realizable_pairs():
    rng = np.random.default_rng(41)
    for trial in range(100):
        _, e, sigma = random_support_pair(rng, int(rng.integers(4, 13)), 1)
        cert_point, cert_freq = refined_bound(e, sigma)
        assert cert_point.correction >= -1e-12
        assert cert_freq.correction >= -1e-12


def test_recovery_condition_empty_missing_set():
    p = GroupParams(4, 1)
    cert = recovery_condition(2, SupportSet(p, ()), 1.0, 3.0)
    assert cert.certifies and cert.lhs == 0.0


def test_recovery_condition_four_point_values():
    p = GroupParams(4, 1)
    s = SupportSet.from_coords(p, [(1,), (2,)])

    proof_final = recovery_condition(2, s, 1.0, 3.0, variant="proof-final")
    as_stated = recovery_condition(2, s, 1.0, 3.0, variant="as-stated")

    # independent substitution: energy(S) = 6, bracket = 1 - sqrt(1/2),
    # tail = 1 - 1/2, N^{3d}/8 = 8
    bracket = 1 - math.sqrt(0.5)
    lhs_pf = 8 * (6 - 2 * bracket - 4 * 0.5)
    lhs_as = 8 * (6 - 8 * 2 * bracket - 8 * 4 * 0.5)
    assert proof_final.rhs == as_stated.rhs == 8.0
    assert proof_final.lhs == pytest.approx(lhs_pf, abs=1e-12)
    assert as_stated.lhs == pytest.approx(lhs_as, abs=1e-12)
    assert proof_final.lhs == pytest.approx(27.31370849898476, abs=1e-12)
    assert as_stated.lhs == pytest.approx(-117.49033200812191, abs=1e-12)
    # the two variants genuinely disagree here
    assert not proof_final.certifies
    assert as_stated.certifies


def test_recovery_condition_monotone_in_missing_energy():
    # equal-size missing sets: lower additive energy certifies more easily
    p = GroupParams(16, 1)
    low = SupportSet.from_coords(p, [(0,), (1,), (3,), (7,)])
    high = SupportSet.from_coords(p, [(0,), (4,), (8,), (12,)])
    assert energy_representation(low) < energy_representation(high)
    cert_low = recovery_condition(2, low, 1.0, 3.0)
    cert_high = recovery_condition(2, high, 1.0, 3.0)
    assert cert_low.lhs < cert_high.lhs
    assert cert_low.certifies and not cert_high.certifies


def test_recovery_condition_validation():
    p = GroupParams(4, 1)
    s = SupportSet.from_coords(p, [(1,)])
    with pytest.raises(ValueError):
        recovery_condition(2, s, -1.0, 3.0)
    with pytest.raises(ValueError, match="K must be >= 0, got nan"):
        recovery_condition(2, s, float("nan"), 3.0)
    for variant in ("as-stated", "proof-final"):
        with pytest.raises(ValueError, match="K must be finite, got inf"):
            recovery_condition(2, s, math.inf, 3.0, variant=variant)
    with pytest.raises(ValueError):
        recovery_condition(2, s, 1.0, 3.5)
    with pytest.raises(ValueError):
        recovery_condition(2, s, 1.0, 3.0, variant="folklore")


def test_recovery_condition_subset_dominance():
    # proof-final variant: certification survives shrinking the missing set
    rng = np.random.default_rng(43)
    checked = 0
    for trial in range(300):
        n = int(rng.integers(4, 17))
        p = GroupParams(n, 1)
        e_size = int(rng.integers(1, 5))
        growth = energy_growth_certificate(p, 2 * e_size, mode="trivial")
        s_size = int(rng.integers(1, min(7, n) + 1))
        idx = rng.choice(n, size=s_size, replace=False)
        s = SupportSet(p, tuple(p.from_flat(int(i)) for i in idx))
        if not recovery_condition(e_size, s, growth.K, growth.alpha).certifies:
            continue
        members = list(s)
        for r in range(len(members)):
            for sub in combinations(members, r):
                cert = recovery_condition(
                    e_size, SupportSet(p, sub), growth.K, growth.alpha
                )
                assert cert.certifies
                checked += 1
    assert checked >= 200


def test_bound_comparison_table():
    p = GroupParams(4, 1)
    coset = SupportSet.from_coords(p, [(0,), (2,)])
    coset_dual = SupportSet.from_coords(p, [(0,), (2,)])
    e = SupportSet.from_coords(p, [(0,), (3,)])
    full = SupportSet.from_coords(p, [(i,) for i in range(4)])

    extremal = certify_pair(coset, coset_dual)
    assert extremal["classical"].rhs == 4.0
    assert extremal["additive_point"].rhs == pytest.approx(4.0, abs=1e-12)
    assert extremal["refined_point"].rhs == pytest.approx(4.0, abs=1e-12)
    assert extremal["refined_freq"].rhs == pytest.approx(4.0, abs=1e-12)
    assert all(c.satisfied for c in extremal.values())

    generic = certify_pair(e, full)
    assert generic["refined_point"].rhs < generic["additive_point"].rhs
    assert generic["refined_freq"].rhs < generic["additive_freq"].rhs
    assert all(c.satisfied for c in generic.values())


def test_bound_comparison_table_coset_sweep():
    for n in (4, 6, 9):
        p = GroupParams(n, 1)
        for sub in all_cyclic_subgroups(p):
            coset = shift_set(sub, p.vector([1]))
            certs = certify_pair(coset, support_of(dft(indicator(coset))))
            assert certs["classical"].rhs == pytest.approx(n, abs=1e-9)
            assert certs["refined_point"].rhs == pytest.approx(n, abs=1e-9)
            assert certs["refined_point"].correction == pytest.approx(0.0, abs=1e-12)


CERTIFICATE_NAMES = ["classical", "additive_point", "additive_freq", "refined_point", "refined_freq"]


def _bits(cert):
    """Every field of a certificate, floats as their exact hex digits."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (getattr(cert, f.name) for f in dataclasses.fields(cert))
    )


def _certificates_by_hand(e, sigma):
    p = e.params
    e_energy, sigma_energy = energy_representation(e), energy_representation(sigma)
    return {
        "classical": classical_bound(len(e), len(sigma), p),
        "additive_point": additive_bound(len(e), sigma_energy, p),
        "additive_freq": additive_bound(len(sigma), e_energy, p),
        "refined_point": _refined_certificate(len(e), len(sigma), e_energy, sigma_energy, p),
        "refined_freq": _refined_certificate(len(sigma), len(e), sigma_energy, e_energy, p),
    }


def _certify_pair_cases():
    rng = np.random.default_rng(53)
    for n, d in ((4, 1), (9, 1), (16, 1), (4, 2), (5, 2)):
        for _ in range(4):
            _, e, sigma = random_support_pair(rng, n, d)
            yield f"random-Z{n}^{d}", e, sigma
    for p, generator in ((GroupParams(8, 1), [2]), (GroupParams(12, 1), [3]), (GroupParams(4, 2), [1, 2])):
        coset = shift_set(make_cyclic_subgroup(p, p.vector(generator)), p.vector([1] * p.dimension))
        yield f"coset-Z{p.modulus}^{p.dimension}", coset, support_of(dft(indicator(coset)))
    for m, n in ((2, 5), (3, 7), (4, 9)):
        grid = make_interval_grid(GroupParams(n, 2), m)
        yield f"grid-m{m}-Z{n}^2", grid, support_of(dft(indicator(grid)))


def test_certify_pair_matches_certificates_built_by_hand():
    for label, e, sigma in _certify_pair_cases():
        certs = certify_pair(e, sigma)
        assert list(certs) == CERTIFICATE_NAMES, label
        expected = _certificates_by_hand(e, sigma)
        for name in CERTIFICATE_NAMES:
            assert _bits(certs[name]) == _bits(expected[name]), (label, name)
        inputs = certs["refined_point"].inputs
        assert inputs["E_energy"] == energy_representation(e), label
        assert inputs["sigma_energy"] == energy_representation(sigma), label


def test_certify_pair_computes_each_energy_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return energy_representation(a)

    monkeypatch.setattr(bounds, "energy_representation", counting)
    for _, e, sigma in _certify_pair_cases():
        calls.clear()
        certify_pair(e, sigma)
        assert len(calls) == 2 and calls[0] is e and calls[1] is sigma
        calls.clear()
        refined_bound(e, sigma)
        assert len(calls) == 2


def test_refined_bound_returns_the_refined_entries_of_certify_pair():
    for label, e, sigma in _certify_pair_cases():
        certs = certify_pair(e, sigma)
        point, freq = refined_bound(e, sigma)
        assert _bits(point) == _bits(certs["refined_point"]), label
        assert _bits(freq) == _bits(certs["refined_freq"]), label


def test_certify_pair_rejects_unusable_pairs():
    p4, p5 = GroupParams(4, 1), GroupParams(5, 1)
    a = SupportSet.from_coords(p4, [(0,), (2,)])
    b = SupportSet.from_coords(p5, [(0,), (1,), (2,)])
    for check in (certify_pair, refined_bound):
        with pytest.raises(ValueError, match=r"share one group, got Z_4\^1 and Z_5\^1"):
            check(a, b)
        with pytest.raises(ValueError, match="nonempty, got sizes 0 and 2"):
            check(SupportSet(p4, ()), a)
        with pytest.raises(ValueError, match="nonempty, got sizes 2 and 0"):
            check(a, SupportSet(p4, ()))
