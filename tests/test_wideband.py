"""Scaled mutual information and its vanishing-SNR limit checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from relaycap import (
    DEFAULT_BANDWIDTHS,
    FiniteJoint,
    check_conditional_limits,
    conditional_cov_bound_check,
    check_limit_constant_phase,
    check_limit_phase_fading,
    gaussian_scaled_mi,
)
from relaycap.wideband import _last_phase_average


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_constant_phase_rejects_nonfinite_gains(bad):
    with pytest.raises(ValueError, match="gains entries must be finite"):
        check_limit_constant_phase([bad, 0.0], np.ones(2), 1.0)


def test_report_arrays_read_only():
    report = check_limit_constant_phase(np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        report.scaled_mi[0] = 0.0


def test_phase_fading_single_antenna_matches_constant_phase():
    # with one antenna there is no cross term to average away
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


def test_phase_fading_three_links_ignore_seed():
    # the middle phase is averaged on a fixed grid, so nothing is drawn
    gains, var = [1.0, 0.7, 0.4], [1.0, 2.0, 1.5]
    a = check_limit_phase_fading(gains, var, 1.0, rng_seed=5)
    b = check_limit_phase_fading(gains, var, 1.0, rng_seed=6)
    np.testing.assert_array_equal(a.scaled_mi, b.scaled_mi)
    np.testing.assert_array_equal(a.standard_errors, 0.0)


def _last_phase_oracle(w, a, noise_psd, bandwidth):
    """B * E_psi log1p(|w + a e^{j psi}|^2 / (N0 B)) by adaptive quadrature.

    The variance is written (w - a)^2 + 4 w a sin^2(t/2), t = pi - psi, with
    no cancelling term. It turns over at t ~ knee, which can be ~1e-8 wide;
    breakpoints around the knee let quad resolve it.
    """
    s = noise_psd * bandwidth

    def integrand(t):
        return bandwidth * math.log1p(((w - a) ** 2 + 4.0 * w * a * math.sin(t / 2.0) ** 2) / s)

    points = None
    if w * a > 0.0:
        knee = math.sqrt((s + (w - a) ** 2) / (w * a))
        points = [p for p in knee * np.logspace(-2, 2, 5) if p < math.pi] or None
    value, _ = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200,
                    points=points)
    return value / math.pi


EXACT_BANDWIDTHS = (1e-3, 1e-1, 1e1, 1e3, 1e5, 1e8)


@pytest.mark.parametrize(
    "gains",
    [
        [1.0],
        [1e6],
        [1e-6],
        [1.0, 1.0],
        [1e6, 1e6],  # equal amplitudes: the variance touches 0
        [1e-6, 1e-6],
        [1e6, 1e-6],
        [1e-6, 1e6],
        [0.0, 2.5],  # a zero link
        [3.0, 0.0],
        [0.3 + 0.4j, 1.7],
    ],
)
@pytest.mark.parametrize("noise_psd", [1e-3, 1.0, 1e3])
def test_phase_fading_exact_matches_quadrature(gains, noise_psd):
    report = check_limit_phase_fading(gains, np.ones(len(gains)), noise_psd,
                                      EXACT_BANDWIDTHS, rng_seed=0)
    mags = np.abs(np.asarray(gains, dtype=complex))
    w = mags[0] if mags.size == 2 else 0.0
    for value, bandwidth in zip(report.scaled_mi, report.bandwidths):
        expected = _last_phase_oracle(w, mags[-1], noise_psd, bandwidth)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(report.standard_errors, 0.0)


@pytest.mark.parametrize("gains", [[0.8], [1.0, 0.7], [1e-6, 1e6]])
def test_phase_fading_exact_ignores_seed_and_sample_count(gains):
    var = np.full(len(gains), 2.0)
    base = check_limit_phase_fading(gains, var, 0.5, rng_seed=0, num_phase_samples=1)
    other = check_limit_phase_fading(gains, var, 0.5, rng_seed=99, num_phase_samples=10**6)
    np.testing.assert_array_equal(base.scaled_mi, other.scaled_mi)
    np.testing.assert_array_equal(base.standard_errors, 0.0)
    np.testing.assert_array_equal(other.standard_errors, 0.0)


def test_phase_fading_exact_allocates_no_sample_arrays():
    # one array of 10^6 samples would take 8 MB
    tracemalloc.start()
    try:
        check_limit_phase_fading([1.0, 0.7], [1.0, 2.0], 1.0, rng_seed=0,
                                 num_phase_samples=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_phase_fading_three_links_match_quadrature():
    # one phase is averaged on the grid; the oracle integrates the same
    # closed form over it adaptively
    rng = np.random.default_rng(8008)
    for _ in range(20):
        amps = np.abs(rng.normal(size=3)) + 0.05
        noise_psd = float(rng.uniform(0.5, 2.0))
        report = check_limit_phase_fading(amps, np.ones(3), noise_psd, rng_seed=0)
        for value, bandwidth in zip(report.scaled_mi, report.bandwidths):
            s = noise_psd * bandwidth

            def closed_form(phi):
                w = abs(amps[0] + amps[1] * np.exp(1j * phi))
                return bandwidth * float(_last_phase_average(w, amps[2], s))

            expected = quad(closed_form, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                            limit=200)[0] / math.pi
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_phase_fading_complex_gains_use_their_modulus():
    report = check_limit_phase_fading([1j, 0.6 - 0.8j], [1.0, 1.0], 1.0, rng_seed=0)
    real = check_limit_phase_fading([1.0, 1.0], [1.0, 1.0], 1.0, rng_seed=0)
    assert report.target == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_allclose(report.scaled_mi, real.scaled_mi, rtol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
def test_phase_fading_rejects_non_finite_gains(bad):
    with pytest.raises(ValueError, match="gain_mags"):
        check_limit_phase_fading([1.0, bad], [1.0, 1.0], 1.0, rng_seed=0)


def test_phase_fading_empty_gain_vector():
    report = check_limit_phase_fading([], [], 1.0, rng_seed=0)
    assert report.target == 0.0
    assert report.converged
    np.testing.assert_array_equal(report.scaled_mi, 0.0)
    np.testing.assert_array_equal(report.standard_errors, 0.0)


def test_phase_fading_zero_power():
    report = check_limit_phase_fading([1.0, 1.0], [0.0, 0.0], 1.0, rng_seed=0)
    assert report.target == 0.0
    assert report.converged
    np.testing.assert_allclose(report.scaled_mi, 0.0, atol=1e-15)


def test_phase_fading_validation():
    with pytest.raises(ValueError, match="input_var must have"):
        check_limit_phase_fading([1.0], [1.0, 2.0], 1.0, rng_seed=0)
    with pytest.raises(ValueError, match="at most 3 antennas"):
        check_limit_phase_fading(np.ones(4), np.ones(4), 1.0, rng_seed=0)
    with pytest.raises(ValueError, match="num_phase_samples"):
        check_limit_phase_fading([1.0], [1.0], 1.0, rng_seed=0, num_phase_samples=0)
    with pytest.raises(ValueError, match="noise_psd"):
        check_limit_phase_fading([1.0], [1.0], 0.0, rng_seed=0)
    with pytest.raises(TypeError):
        check_limit_phase_fading([1.0], [1.0], 1.0)  # rng_seed is keyword-only


@pytest.mark.parametrize("samples", [2.5, 3.0, np.float64(3.0), "3", None])
def test_phase_fading_rejects_a_non_integer_sample_count(samples):
    # a fractional count would average on a wrong grid: 2.5 nodes give 3.33
    # at B = 1e4 against a target of 3
    with pytest.raises(ValueError, match=r"^num_phase_samples must be an integer, got "):
        check_limit_phase_fading(np.ones(3), np.ones(3), 1.0, (1e4,), samples, rng_seed=0)
    # also where the count is not used
    with pytest.raises(ValueError, match="num_phase_samples must be an integer"):
        check_limit_phase_fading([1.0], [1.0], 1.0, num_phase_samples=samples, rng_seed=0)


def test_phase_fading_reads_any_integer_sample_count():
    want = check_limit_phase_fading(np.ones(3), np.ones(3), 1.0, (1e4,), 7, rng_seed=0).scaled_mi
    for samples in (np.int64(7), np.uint16(7)):
        got = check_limit_phase_fading(np.ones(3), np.ones(3), 1.0, (1e4,), samples, rng_seed=0).scaled_mi
        np.testing.assert_array_equal(got, want)


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
    # X is a function of U: all information flows through U, nothing remains,
    # whatever gain vector observes it
    joint = two_point_joint()
    c = np.array([1.0, 0.0])
    for c2 in (c, np.array([0.3, -1.2j])):
        reports = check_conditional_limits(joint, c, c2, 1.0)
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


def test_conditional_limits_single_label_marginal_target_is_zero():
    # with one label U is constant and var E[c^H X|U] is exactly 0; formed as
    # var[c^H X] - E var[c^H X|U], 20 of these 200 joints read a target of
    # rounding size, as high as 2.2e-16 (seed 5), against which the tolerance
    # 1e-3 * target failed the sweep
    c = np.array([1.0, 0.5])
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        joint = FiniteJoint(x=x, y=np.zeros(6), probs=rng.dirichlet(np.ones(6)))
        reports = check_conditional_limits(joint, c, c, 1.0)
        assert reports.marginal.target == 0.0, seed
        assert reports.marginal.converged, seed
        assert reports.total.target == reports.conditional.target, seed


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_conditional_limit_targets_match_the_bound_covariance(scale):
    # the within-group targets read the same deviations as the averaged
    # conditional covariance E cov[X|U] of conditional_cov_bound_check, so
    # E var[c^H X|U] = c^H E cov[X|U] c for either gain vector
    rng = np.random.default_rng(int(round(math.log10(scale))) + 40)
    for _ in range(60):
        atoms = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 4))
        x = scale * (rng.normal(size=(atoms, dim)) + 1j * rng.normal(size=(atoms, dim)))
        labels = rng.integers(0, atoms, size=atoms).astype(float)  # singletons are common
        if np.ptp(labels) == 0.0:
            labels[0] += 1.0
        joint = FiniteJoint(x=x, y=labels, probs=rng.dirichlet(np.ones(atoms)))
        c1, c2 = (rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2))
        noise_psd = float(rng.uniform(0.5, 2.0))
        lhs = conditional_cov_bound_check(joint).lhs
        reports = check_conditional_limits(joint, c1, c2, noise_psd, bandwidths=[1e5])
        within1 = noise_psd * (reports.total.target - reports.marginal.target)
        within2 = noise_psd * reports.conditional.target
        for c, value in ((c1, within1), (c2, within2)):
            assert value == pytest.approx(np.real(c.conj() @ lhs @ c), rel=1e-12, abs=0.0)


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


def test_conditional_limits_validation():
    joint = two_point_joint()
    c = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="FiniteJoint"):
        check_conditional_limits({"x": 1}, c, c, 1.0)
    with pytest.raises(ValueError, match="match the joint dimension"):
        check_conditional_limits(joint, np.ones(3), c, 1.0)
    with pytest.raises(ValueError, match="noise_psd"):
        check_conditional_limits(joint, c, c, -1.0)


def test_conditional_limits_rejects_bad_settings():
    joint = two_point_joint()
    c = np.array([1.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            check_conditional_limits(joint, np.array([bad, 0.6]), c, 1.0)
        with pytest.raises(ValueError, match="finite"):
            check_conditional_limits(joint, c, np.array([1.0, complex(0.0, bad)]), 1.0)


def test_conditional_limits_equal_atoms_carry_no_information():
    # every atom at one point: X is known before anything is received
    x = np.ones((4, 2))
    joint = FiniteJoint(x=x, y=[0.0, 1.0, 1.0, 2.0], probs=[0.1, 0.2, 0.3, 0.4])
    c = np.array([0.8, 0.6])
    reports = check_conditional_limits(joint, c, c, 0.7)
    for report in (reports.total, reports.marginal, reports.conditional):
        assert report.target == 0.0
        np.testing.assert_allclose(report.scaled_mi, 0.0, atol=1e-9)


def test_conditional_limits_normalise_the_joint():
    # a sum of probabilities 9e-10 above 1 is accepted; used as given it put
    # every sweep about B * 9e-10 low, 9e-5 at B = 1e5
    c = np.array([1.0, 0.0])
    bandwidths = [1e3, 1e4, 1e5]
    exact = check_conditional_limits(two_point_joint(), c, c, 1.0, bandwidths)
    off = FiniteJoint(x=two_point_joint().x, y=[1.0, -1.0], probs=[0.5, 0.5 + 9e-10])
    reports = check_conditional_limits(off, c, c, 1.0, bandwidths)
    for got, want in ((reports.total, exact.total), (reports.marginal, exact.marginal)):
        np.testing.assert_allclose(got.scaled_mi, want.scaled_mi, rtol=0.0, atol=1e-8)


def _longdouble_oracle(joint, c1, c2, noise_psd, bandwidths, quad_order=40):
    """B*I(X;Y1), B*I(U;Y1) and B*I(X;Y2|U) from the checker's Gauss-Hermite
    sums, evaluated in np.longdouble in the textbook form: log-densities with
    the |z|^2 term kept, and no log-sum-exp shift."""
    ld = np.longdouble
    keep = joint.probs > 0.0
    x = joint.x[keep]
    probs = joint.probs[keep].astype(ld)
    _, labels = np.unique(joint.y[keep], return_inverse=True)
    nodes, node_weights = np.polynomial.hermite.hermgauss(quad_order)
    nodes = nodes.astype(ld)
    u_re = np.repeat(nodes, nodes.size)
    u_im = np.tile(nodes, nodes.size)
    weights = np.outer(node_weights, node_weights).ravel().astype(ld) / np.arccos(ld(-1))

    def parts(s, sigma_sq):
        s_re = s.real.astype(ld)
        s_im = s.imag.astype(ld)
        z_re = np.sqrt(sigma_sq) * u_re
        z_im = np.sqrt(sigma_sq) * u_im
        out = np.zeros(3, dtype=ld)
        for k in range(s.size):
            dist = ((z_re[:, None] + s_re[k] - s_re[None, :]) ** 2
                    + (z_im[:, None] + s_im[k] - s_im[None, :]) ** 2) / sigma_sq
            dens = np.exp(-dist)
            own = -(z_re * z_re + z_im * z_im) / sigma_sq
            mix = np.log(dens @ probs)
            grp = labels == labels[k]
            mix_grp = np.log(dens[:, grp] @ probs[grp] / probs[grp].sum())
            out += probs[k] * np.array(
                [weights @ (own - mix), weights @ (mix_grp - mix), weights @ (own - mix_grp)]
            )
        return out

    values = np.zeros((3, len(bandwidths)))
    for idx, bk in enumerate(bandwidths):
        sigma_sq = ld(noise_psd) * ld(bk)
        first = parts(x @ np.conj(c1), sigma_sq)
        second = parts(x @ np.conj(c2), sigma_sq)
        values[:, idx] = (ld(bk) * np.array([first[0], first[1], second[2]])).astype(float)
    return values


def _oracle_joints():
    rng = np.random.default_rng(11)
    c = np.array([0.8, 0.6])
    return [
        # singleton groups: X is a function of U
        (two_point_joint(0.3), c, c, 1.0),
        # one group, in which two atoms are equal: U carries nothing
        (FiniteJoint(x=[[1.0, 0.0], [-1.0, 0.5], [0.2, 0.9], [1.0, 0.0]], y=[3.0] * 4,
                     probs=[0.4, 0.3, 0.2, 0.1]), c, np.array([0.1, 1.0]), 0.5),
        # C2's four-atom joint
        (FiniteJoint(x=[[1.0, 0.0], [0.5, 0.5], [-1.0, 0.2], [0.0, -1.0]],
                     y=[0.0, 0.0, 1.0, 1.0], probs=[0.3, 0.2, 0.3, 0.2]), c, c, 0.7),
        # one atom in two groups
        (FiniteJoint(x=[[1.0, -1.0], [1.0, -1.0], [-0.5, 2.0], [0.25, 0.0], [2.0, 1.5]],
                     y=[0.0, 1.0, 1.0, 1.0, 2.0], probs=[0.3, 0.1, 0.2, 0.15, 0.25]),
         np.array([1.0, 0.5]), np.array([-0.25, 1.0]), 0.4),
        # complex atoms and gains in three groups
        (FiniteJoint(x=[[1.0 + 0.5j, 0.2], [-0.3j, 1.1], [0.7, -0.4 + 0.9j],
                        [-1.2, 0.3j], [0.1 + 0.1j, -0.8], [0.6j, 0.6]],
                     y=[2.0, 0.0, 1.0, 2.0, 0.0, 1.0],
                     probs=[0.1, 0.25, 0.15, 0.2, 0.05, 0.25]),
         np.array([0.9 - 0.2j, 0.4j]), np.array([0.3, 1.2 + 0.5j]), 1.3),
        # singleton groups with complex atoms
        (FiniteJoint(x=rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)),
                     y=np.arange(5.0), probs=rng.dirichlet(np.ones(5))),
         c, np.array([0.2j, 1.0]), 2.0),
        # a zero-probability atom, dropped before integration
        (FiniteJoint(x=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [5.0, 5.0]],
                     y=[0.0, 1.0, 1.0, 0.0], probs=[0.4, 0.35, 0.25, 0.0]), c, c, 1.0),
        # one antenna
        (FiniteJoint(x=[[1.0], [-2.0], [0.5], [0.0]], y=[0.0, 1.0, 0.0, 1.0],
                     probs=[0.25, 0.25, 0.25, 0.25]), np.array([1.0]), np.array([0.5j]), 0.3),
        # far-apart atoms, high SNR at the low bandwidths: |d|^2 / sigma^2 up to 400
        (FiniteJoint(x=[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [-10.0, -10.0]],
                     y=[0.0, 0.0, 1.0, 1.0], probs=[0.25, 0.25, 0.25, 0.25]),
         np.array([1.0, 0.0]), np.array([0.6, 0.8]), 0.05),
        # a nearly impossible atom beside likely ones
        (FiniteJoint(x=[[1.0, 1.0], [-1.0, 0.5], [3.0, -2.0]], y=[0.0, 0.0, 1.0],
                     probs=[0.5 - 5e-7, 0.5 - 5e-7, 1e-6]), c, c, 0.8),
        # random joint, eight atoms, two unequal groups
        (FiniteJoint(x=rng.normal(size=(8, 2)), y=[0, 0, 0, 0, 0, 1, 1, 1],
                     probs=rng.dirichlet(np.full(8, 2.0))), c, np.array([-0.6, 0.8]), 1.0),
    ]


@pytest.mark.parametrize("case", range(11))
def test_conditional_limits_match_longdouble_sums(case):
    joint, c1, c2, noise_psd = _oracle_joints()[case]
    reports = check_conditional_limits(joint, c1, c2, noise_psd)
    oracle = _longdouble_oracle(joint, c1, c2, noise_psd, DEFAULT_BANDWIDTHS)
    scale = np.max(np.abs(oracle[0]))
    got = (reports.total.scaled_mi, reports.marginal.scaled_mi, reports.conditional.scaled_mi)
    for values, expected in zip(got, oracle):
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-10 * scale)


# Quadrature sweeps pinned from the earlier kernel, which kept the |z|^2 term
# and ran the second pass in full: (total, marginal, conditional).
PINNED_QUADRATURE = {
    2: ([0.6644288910452383, 0.7058284996923868, 0.7103294783865366, 0.7107837619639259, 0.71082923291227],
        [0.6616182906627361, 0.7030171539678087, 0.7075180581000148, 0.7079723342208022, 0.7080178044169263],
        [0.0028106003825021184, 0.002811345724578085, 0.0028114202865215632, 0.00281142774312358, 0.0028114284953472115]),
    3: ([1.9727666255989345, 2.4368647379150032, 2.4922029949897535, 2.4978133568521717, 2.498375078854487],
        [1.9571956911936095, 2.4212451613789145, 2.476578537505646, 2.4821884111054855, 2.48275008427979],
        [1.4997713984975745, 2.0811857023501816, 2.170164135945375, 2.17960801040467, 2.1805583960701864]),
    4: ([0.45901842930984804, 0.47093453611553454, 0.4721740191096697, 0.4722984736891506, 0.47231092423427373],
        [0.15012482629597, 0.14940874820451142, 0.14931512211541154, 0.1493055242098876, 0.14930456206062137],
        [0.37498338134118797, 0.3930845816751154, 0.3949027888312208, 0.3950843207659661, 0.395102470567738]),
}


@pytest.mark.parametrize("case", sorted(PINNED_QUADRATURE))
def test_conditional_limits_pinned_quadrature(case):
    joint, c1, c2, noise_psd = _oracle_joints()[case]
    reports = check_conditional_limits(joint, c1, c2, noise_psd)
    pinned = PINNED_QUADRATURE[case]
    scale = np.max(np.abs(pinned[0]))
    got = (reports.total.scaled_mi, reports.marginal.scaled_mi, reports.conditional.scaled_mi)
    for values, expected in zip(got, pinned):
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-9 * scale)


def _eighteen_atom_joint():
    rng = np.random.default_rng(7)
    x = np.round(rng.normal(size=(18, 2)), 3)
    return FiniteJoint(x=x, y=np.arange(18.0) % 3, probs=np.full(18, 1.0 / 18))


def test_conditional_limits_ignore_sampling_settings():
    # quadrature runs at every support size: max_quadrature_support,
    # mc_samples and rng_seed are accepted but change no bit, and nothing
    # carries a standard error
    joint = _eighteen_atom_joint()
    c1, c2 = np.array([1.0, 0.5]), np.array([0.3j, -1.0])
    bandwidths = [10.0, 1e3, 1e5]
    base = check_conditional_limits(joint, c1, c2, 1.0, bandwidths)
    other = check_conditional_limits(joint, c1, c2, 1.0, bandwidths, max_quadrature_support=0,
                                     mc_samples=2, rng_seed=12345)
    for got, want in zip((other.total, other.marginal, other.conditional),
                         (base.total, base.marginal, base.conditional)):
        np.testing.assert_array_equal(got.scaled_mi, want.scaled_mi)
        np.testing.assert_array_equal(got.standard_errors, 0.0)
        np.testing.assert_array_equal(want.standard_errors, 0.0)


def test_conditional_limits_chain_rule_to_rounding():
    # a joint shaped like the benchmark's largest: 17 atoms in 4 groups with
    # Dirichlet(2) probabilities; the three sweeps are sums over the same
    # nodes, so total = marginal + conditional holds to rounding
    rng = np.random.default_rng(31)
    joint = FiniteJoint(x=rng.normal(size=(17, 2)), y=np.arange(17.0) % 4,
                        probs=rng.dirichlet(np.full(17, 2.0)))
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    reports = check_conditional_limits(joint, c, c, 1.3, bandwidths=[10.0, 100.0, 1000.0])
    chained = reports.marginal.scaled_mi + reports.conditional.scaled_mi
    np.testing.assert_allclose(reports.total.scaled_mi, chained, rtol=0.0, atol=1e-13)


def _reference_components(s, probs, inverse, group_p, sigma_sq, pts, weights, work, full=True):
    """The earlier discrete-joint kernel, in which the group rows and the
    other rows of each atom keep their own peak shift and meet in a
    logaddexp. ``pts`` are the noise points as a (2, m) array of real and
    imaginary parts, shared by every atom, and ``weights`` their weights."""

    def lse_columns(block):
        peak = block.max(axis=0)
        block -= peak
        np.exp(block, out=block)
        return peak + np.log(block.sum(axis=0))

    log_p = np.log(probs)
    sizes = np.bincount(inverse)
    rows_of = [
        np.concatenate((np.flatnonzero(inverse == u), np.flatnonzero(inverse != u)))
        for u in range(group_p.size)
    ]
    means = np.zeros(3)
    for k in range(s.size):
        u = inverse[k]
        size = sizes[u]
        rows = rows_of[u] if full else rows_of[u][:size]
        d_re = s.real[k] - s.real[rows]
        d_im = s.imag[k] - s.imag[rows]
        coef = np.stack((d_re, d_im), axis=1) * (2.0 / sigma_sq)
        base = log_p[rows] - (d_re * d_re + d_im * d_im) / sigma_sq
        expo = work[: rows.size * pts.shape[1]].reshape(rows.size, pts.shape[1])
        np.matmul(coef, pts, out=expo)
        np.subtract(base[:, None], expo, out=expo)
        lse_grp = lse_columns(expo[:size])
        cond = math.log(group_p[u]) - lse_grp
        if full:
            lse_all = lse_grp
            if size < rows.size:
                lse_all = np.logaddexp(lse_grp, lse_columns(expo[size:]))
            terms = ((0, -lse_all), (1, -(cond + lse_all)), (2, cond))
        else:
            terms = ((2, cond),)
        for i, f in terms:
            means[i] += probs[k] * float(weights @ f)
    if not full:
        means[:2] = np.nan
    return means


def _reference_sweeps(joint, c1, c2, noise_psd, bandwidths):
    """(total, marginal, conditional) sweeps from _reference_components on
    the order-40 Gauss-Hermite nodes scaled by sqrt(sigma_sq), as the
    checker integrates; both passes use the same nodes."""
    keep = joint.probs > 0.0
    probs = joint.probs[keep] / joint.probs[keep].sum()
    _, inverse = np.unique(joint.y[keep], return_inverse=True)
    group_p = np.bincount(inverse, weights=probs)
    s1 = joint.x[keep] @ np.conj(c1)
    s2 = joint.x[keep] @ np.conj(c2)
    nodes, node_weights = np.polynomial.hermite.hermgauss(40)
    unit = np.stack((np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)))
    weights = np.outer(node_weights, node_weights).ravel() / np.pi
    work = np.empty(weights.size * probs.size)
    vals = np.empty((3, len(bandwidths)))
    for idx, bk in enumerate(bandwidths):
        sigma_sq = noise_psd * bk
        args = (probs, inverse, group_p, sigma_sq, math.sqrt(sigma_sq) * unit, weights, work)
        means = _reference_components(s1, *args)
        if not np.array_equal(s1, s2):
            means[2] = _reference_components(s2, *args, full=False)[2]
        vals[:, idx] = bk * means
    return vals


def _assert_matches_reference(joint, c1, c2, noise_psd, bandwidths):
    """The checker against _reference_sweeps: values within 1e-9 of the
    largest |total| plus 1e-14 * B, the rounding floor of a sum whose
    result is about SNR / B, and standard errors all 0."""
    reports = check_conditional_limits(joint, c1, c2, noise_psd, bandwidths)
    expected = _reference_sweeps(joint, c1, c2, noise_psd, bandwidths)
    atol = 1e-9 * np.max(np.abs(expected[0])) + 1e-14 * np.asarray(bandwidths)
    for row, report in enumerate((reports.total, reports.marginal, reports.conditional)):
        assert np.all(np.isfinite(report.scaled_mi))
        assert np.all(np.abs(report.scaled_mi - expected[row]) <= atol), (row, report.scaled_mi)
        np.testing.assert_array_equal(report.standard_errors, 0.0)


_COORDS = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def _discrete_joints(draw):
    """A joint of 1 to 24 complex atoms in 1 or 2 dimensions, with labels
    from 1 to as many groups as atoms, and two gain vectors, equal or not."""
    atoms = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 2))

    def vector(size):
        return np.array([complex(draw(_COORDS), draw(_COORDS)) for _ in range(size)])

    x = vector(atoms * dim).reshape(atoms, dim)
    labels = draw(st.lists(st.integers(0, atoms - 1), min_size=atoms, max_size=atoms))
    mass = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=atoms, max_size=atoms)))
    c1 = vector(dim)
    c2 = c1 if draw(st.booleans()) else vector(dim)
    return FiniteJoint(x=x, y=np.array(labels, dtype=float), probs=mass / mass.sum()), c1, c2


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(
    case=_discrete_joints(),
    noise_psd=st.sampled_from([0.5, 1.0, 3.0]),
    # sigma^2 = N0 B from 1e-3 to 1e5
    exponents=st.lists(st.integers(-3, 5), min_size=1, max_size=3, unique=True),
)
def test_conditional_kernel_matches_reference(case, noise_psd, exponents):
    joint, c1, c2 = case
    bandwidths = [10.0 ** e / noise_psd for e in sorted(exponents)]
    _assert_matches_reference(joint, c1, c2, noise_psd, bandwidths)


def test_conditional_kernel_extreme_probabilities():
    # probabilities from 1e-300 to 1 weight the rows as they are; some atoms
    # sit far apart at sigma^2 <= 1e-2, others on top of each other
    x = np.array([[0.0, 0.0], [0.0, 0.0], [40.0, 0.0], [0.0, -25.0], [0.05, 0.02],
                  [-30.0, 30.0], [0.1, 0.0], [0.0, 0.0]])
    probs = np.array([1e-300, 0.3, 1e-200, 1e-100, 1e-20, 0.2, 1e-8, 0.5])
    joint = FiniteJoint(x=x, y=[0.0, 1.0, 0.0, 2.0, 1.0, 3.0, 0.0, 2.0],
                        probs=probs / probs.sum())
    c1 = np.array([1.0, 0.5j])
    for c2 in (c1, np.array([0.3, -1.0])):
        for noise_psd in (1e-2, 1e-5):
            with np.errstate(over="raise", invalid="raise"):
                _assert_matches_reference(joint, c1, c2, noise_psd, [1e-3, 0.1, 1.0])


def test_conditional_kernel_axis_underflow():
    # the kernel multiplies a real-axis factor e^{fx} by an imaginary-axis
    # one e^{fy}; with Re d / sigma = 27.5 and Im d / sigma = -8, e^{fx} is
    # below the smallest normal float at 10 nodes where fx + fy, which the
    # full exponent keeps, is as high as -662. The term sits in the sum of
    # an atom of probability 1e-300 and outweighs its own row there by up to
    # 2e12; the mean weights that atom's logs by 1e-300.
    a, b = 27.5, -8.0
    offset = 0.01 * complex(a, b)  # sigma = 0.01
    nodes, _ = np.polynomial.hermite.hermgauss(40)
    fx = nodes * nodes - (nodes + a) ** 2
    fy = nodes * nodes - (nodes + b) ** 2
    tiny = np.finfo(float).tiny
    with np.errstate(under="ignore"):
        lost = (np.exp(fx)[:, None] < tiny) & (np.exp(fx[:, None] + fy) >= tiny)
    assert lost.any()

    x = np.array([[0.0, 0.0], [offset, 0.0], [0.5 * offset, 0.01], [-offset, 0.0]])
    joint = FiniteJoint(x=x, y=[0.0, 1.0, 0.0, 1.0],
                        probs=[0.6, 1e-300, 0.3, 0.1])
    c1 = np.array([1.0, 0.0])
    for c2 in (c1, np.array([1.0, 2.0j])):
        with np.errstate(over="raise", invalid="raise"):
            # sigma^2 = 1e-4 at B = 1: the offset above; 4x smaller and larger
            _assert_matches_reference(joint, c1, c2, 1e-4, [0.25, 1.0, 4.0])


@pytest.mark.parametrize("atoms", [19, 21, 40])
@pytest.mark.parametrize("sweeps", [1, 3, 5])
def test_conditional_kernel_block_edges(atoms, sweeps):
    # the kernel batches (bandwidth, atom) pairs 20 at a time, so these sizes
    # put block edges inside a bandwidth's atoms and leave a short last block
    rng = np.random.default_rng(atoms * 10 + sweeps)
    labels = np.arange(atoms) % 4
    labels[:3] = (10, 11, 12)  # three singleton groups
    joint = FiniteJoint(x=rng.normal(size=(atoms, 2)) + 1j * rng.normal(size=(atoms, 2)),
                        y=labels.astype(float), probs=rng.dirichlet(np.full(atoms, 2.0)))
    c1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    _assert_matches_reference(joint, c1, c2, 0.8, np.geomspace(1.0, 1e4, sweeps))


def test_conditional_kernel_memory_is_blocked():
    # 256 atoms, five bandwidths, two passes: 10.6 MB at blocks of 20
    # pairs, 8.3 MB for the earlier atom-at-a-time kernel; a block of all of
    # a bandwidth's atoms holds over 40 MB of factors
    rng = np.random.default_rng(256)
    joint = FiniteJoint(x=rng.normal(size=(256, 2)) + 1j * rng.normal(size=(256, 2)),
                        y=np.arange(256.0) % 7, probs=rng.dirichlet(np.ones(256)))
    c1, c2 = np.array([1.0, 0.5j]), np.array([0.3, -1.0])
    tracemalloc.start()
    try:
        check_conditional_limits(joint, c1, c2, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_default_bandwidths_ascend():
    assert list(DEFAULT_BANDWIDTHS) == sorted(DEFAULT_BANDWIDTHS)
    assert DEFAULT_BANDWIDTHS[0] >= 1.0
