"""Scaled mutual information and its vanishing-SNR limit checks."""

import numpy as np
import pytest

from relaycap import (
    DEFAULT_BANDWIDTHS,
    FiniteJoint,
    check_conditional_limits,
    check_limit_constant_phase,
    check_limit_phase_fading,
    gaussian_scaled_mi,
)


def test_gaussian_scaled_mi_values():
    # B log(1 + v / (N0 B)) with v = N0 = 1
    assert gaussian_scaled_mi(1.0, 1.0, 1000.0) == pytest.approx(0.99950, abs=1e-5)
    assert gaussian_scaled_mi(1.0, 1.0, 10.0) == pytest.approx(0.95310, abs=1e-5)
    assert gaussian_scaled_mi(0.0, 1.0, 10.0) == 0.0


def test_gaussian_scaled_mi_monotone_in_bandwidth():
    vals = [gaussian_scaled_mi(2.0, 0.5, b) for b in (1.0, 10.0, 1e3, 1e6)]
    assert vals == sorted(vals)
    assert vals[-1] < 2.0 / 0.5  # always below the limit
    assert vals[-1] == pytest.approx(4.0, rel=1e-5)


def test_gaussian_scaled_mi_domain_errors():
    with pytest.raises(ValueError):
        gaussian_scaled_mi(-1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        gaussian_scaled_mi(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        gaussian_scaled_mi(1.0, 1.0, 0.0)


def test_constant_phase_default_covariance():
    # aligned rank-one input: var[c^H X] = |c|^2 * total power
    report = check_limit_constant_phase(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0)
    assert report.target == pytest.approx(2.0)
    assert report.converged
    assert report.final_abs_err < report.tolerance
    # values must increase toward the target
    assert np.all(np.diff(report.scaled_mi) > 0)
    assert np.all(report.scaled_mi < report.target)


def test_constant_phase_explicit_covariance_halves_rate():
    # isotropic input wastes half the power relative to beamforming when the
    # gain vector carries equal weight on both antennas
    c = np.array([1.0, 1.0]) / np.sqrt(2.0)
    aligned = check_limit_constant_phase(c, np.array([0.5, 0.5]), 1.0)
    iso = check_limit_constant_phase(c, np.array([0.5, 0.5]), 1.0, covariance=0.5 * np.eye(2))
    assert aligned.target == pytest.approx(2.0 * iso.target)


def test_constant_phase_zero_gain():
    report = check_limit_constant_phase(np.zeros(2), np.array([1.0, 1.0]), 1.0)
    assert report.target == 0.0
    assert report.converged
    np.testing.assert_array_equal(report.scaled_mi, 0.0)


def test_constant_phase_validation():
    with pytest.raises(ValueError, match="input_var must have 2"):
        check_limit_constant_phase(np.ones(2), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        check_limit_constant_phase(np.ones(2), [-1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="ascending"):
        check_limit_constant_phase(np.ones(2), np.ones(2), 1.0, bandwidths=[100.0, 10.0])
    with pytest.raises(ValueError, match="noise_psd"):
        check_limit_constant_phase(np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        check_limit_constant_phase(
            np.ones(2), np.ones(2), 1.0, covariance=np.array([[1.0, 1.0], [0.0, 1.0]])
        )
    with pytest.raises(ValueError, match="positive semidefinite"):
        check_limit_constant_phase(np.ones(2), np.ones(2), 1.0, covariance=-np.eye(2))


def test_report_arrays_read_only():
    report = check_limit_constant_phase(np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        report.scaled_mi[0] = 0.0


def test_phase_fading_single_antenna_matches_constant_phase():
    # with one antenna there is no cross term: the phase average is exact and
    # every sample equals the deterministic value
    pf = check_limit_phase_fading([2.0], [0.5], 1.0, rng_seed=0, num_phase_samples=10)
    cp = check_limit_constant_phase([2.0], [0.5], 1.0)
    assert pf.target == pytest.approx(cp.target)
    np.testing.assert_allclose(pf.scaled_mi, cp.scaled_mi, rtol=1e-9)
    np.testing.assert_allclose(pf.standard_errors, 0.0, atol=1e-6)


def test_phase_fading_two_antennas():
    report = check_limit_phase_fading([1.0, 1.0], [1.0, 1.0], 1.0, rng_seed=42)
    assert report.target == pytest.approx(2.0)
    assert report.converged
    assert report.final_abs_err < 1e-3 * report.target


def test_phase_fading_standard_error_at_large_bandwidth():
    # a weak link's samples sit near a nonzero centre with a spread ~1e-10
    # times smaller; their standard error still falls exactly as 1/B
    report = check_limit_phase_fading([0.01, 0.02], [1.0, 1.0], 1.0, rng_seed=3,
                                      num_phase_samples=20_000)
    scaled = report.standard_errors * report.bandwidths
    assert np.all(scaled > 0.0)
    np.testing.assert_allclose(scaled, scaled[0], rtol=0.01)


def test_phase_fading_deterministic_given_seed():
    a = check_limit_phase_fading([1.0, 0.7], [1.0, 2.0], 1.0, rng_seed=5)
    b = check_limit_phase_fading([1.0, 0.7], [1.0, 2.0], 1.0, rng_seed=5)
    np.testing.assert_array_equal(a.scaled_mi, b.scaled_mi)
    c = check_limit_phase_fading([1.0, 0.7], [1.0, 2.0], 1.0, rng_seed=6)
    assert not np.array_equal(a.scaled_mi, c.scaled_mi)


def test_phase_fading_zero_power():
    report = check_limit_phase_fading([1.0, 1.0], [0.0, 0.0], 1.0, rng_seed=0)
    assert report.target == 0.0
    assert report.converged
    np.testing.assert_allclose(report.scaled_mi, 0.0, atol=1e-15)


def test_phase_fading_validation():
    with pytest.raises(ValueError, match="input_var must have"):
        check_limit_phase_fading([1.0], [1.0, 2.0], 1.0, rng_seed=0)
    with pytest.raises(ValueError, match="num_phase_samples"):
        check_limit_phase_fading([1.0], [1.0], 1.0, rng_seed=0, num_phase_samples=0)
    with pytest.raises(ValueError, match="noise_psd"):
        check_limit_phase_fading([1.0], [1.0], 0.0, rng_seed=0)
    with pytest.raises(TypeError):
        check_limit_phase_fading([1.0], [1.0], 1.0)  # rng_seed is keyword-only


def test_bandwidth_validation():
    with pytest.raises(ValueError, match="at least one"):
        check_limit_constant_phase(np.ones(2), np.ones(2), 1.0, bandwidths=[])
    with pytest.raises(ValueError, match="positive"):
        check_limit_constant_phase(np.ones(2), np.ones(2), 1.0, bandwidths=[-1.0, 10.0])


def two_point_joint(angle=0.0):
    """U is a sign bit, X = U * v for a fixed direction v."""
    v = np.array([np.cos(angle), np.sin(angle)])
    x = np.stack([v, -v])
    return FiniteJoint(x=x, y=[1.0, -1.0], probs=[0.5, 0.5])


def test_conditional_limits_deterministic_given_u():
    # X is a function of U: all information flows through U, nothing remains
    joint = two_point_joint()
    c = np.array([1.0, 0.0])
    reports = check_conditional_limits(joint, c, c, 1.0)
    assert reports.conditional.target == 0.0
    np.testing.assert_allclose(reports.conditional.scaled_mi, 0.0, atol=1e-9)
    # var[c^H X] = 1, so total and marginal both sweep toward 1
    assert reports.total.target == pytest.approx(1.0)
    assert reports.marginal.target == pytest.approx(1.0)
    assert reports.total.converged
    assert reports.marginal.converged


def test_conditional_limits_u_independent_of_x():
    # constant U label: grouping is trivial, marginal information is zero
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    joint = FiniteJoint(x=x, y=[0.0, 0.0], probs=[0.5, 0.5])
    c = np.array([1.0, 0.0])
    reports = check_conditional_limits(joint, c, c, 1.0)
    assert reports.marginal.target == 0.0
    np.testing.assert_allclose(reports.marginal.scaled_mi, 0.0, atol=1e-9)
    assert reports.conditional.target == pytest.approx(1.0)
    assert reports.conditional.converged


def test_conditional_limits_chain_rule_quadrature():
    # four-atom joint with a non-trivial U: quadrature path, where the chain
    # rule total = marginal + conditional holds to integration accuracy
    x = np.array([[1.0, 0.0], [0.5, 0.5], [-1.0, 0.2], [0.0, -1.0]])
    joint = FiniteJoint(x=x, y=[0.0, 0.0, 1.0, 1.0], probs=[0.3, 0.2, 0.3, 0.2])
    c = np.array([0.8, 0.6])
    reports = check_conditional_limits(joint, c, c, 0.7)
    total = reports.total.scaled_mi
    chained = reports.marginal.scaled_mi + reports.conditional.scaled_mi
    np.testing.assert_allclose(total, chained, rtol=1e-7, atol=1e-9)
    assert reports.total.converged
    assert reports.marginal.converged
    assert reports.conditional.converged
    # targets decompose the same way
    assert reports.total.target == pytest.approx(
        reports.marginal.target + reports.conditional.target
    )


def test_conditional_limits_monte_carlo_path():
    # more atoms than the quadrature cap: the Monte Carlo estimator runs with
    # independent draws per component, so the chain identity holds only
    # statistically; standard errors must be reported and bound the residual
    rng = np.random.default_rng(0)
    n = 24
    x = rng.normal(size=(n, 2))
    labels = np.repeat(np.arange(4.0), 6)
    joint = FiniteJoint(x=x, y=labels, probs=np.full(n, 1.0 / n))
    c = np.array([1.0, 0.5])
    reports = check_conditional_limits(
        joint, c, c, 1.0, bandwidths=[10.0, 100.0], mc_samples=40_000, rng_seed=3
    )
    assert reports.total.standard_errors is not None
    resid = reports.total.scaled_mi - (
        reports.marginal.scaled_mi + reports.conditional.scaled_mi
    )
    spread = np.sqrt(
        reports.total.standard_errors**2
        + reports.marginal.standard_errors**2
        + reports.conditional.standard_errors**2
    )
    assert np.all(np.abs(resid) <= 4.0 * spread + 1e-12)


def test_conditional_limits_validation():
    joint = two_point_joint()
    c = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="FiniteJoint"):
        check_conditional_limits({"x": 1}, c, c, 1.0)
    with pytest.raises(ValueError, match="match the joint dimension"):
        check_conditional_limits(joint, np.ones(3), c, 1.0)
    with pytest.raises(ValueError, match="noise_psd"):
        check_conditional_limits(joint, c, c, -1.0)


def test_default_bandwidths_ascend():
    assert list(DEFAULT_BANDWIDTHS) == sorted(DEFAULT_BANDWIDTHS)
    assert DEFAULT_BANDWIDTHS[0] >= 1.0
