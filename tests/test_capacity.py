"""Cut-set bounds, the two independent optimizers, and the covariance form."""

import math

import numpy as np
import pytest

from relaycap import (
    BindingBound,
    ChannelConfig,
    CsiMode,
    MatrixBoundParams,
    PowerAllocation,
    Topology,
    achievable_rate,
    angle_between,
    covariance_bounds,
    cutset_bounds,
    optimize_capacity,
    optimize_covariance_bound,
    phase_fading_capacity,
)
from relaycap import capacity
from relaycap._search import REFINE_ROUNDS
from relaycap.channel import rounding_slack

from helpers import (FLAT_DUAL_CHANNELS, KINK_CHANNELS, always_refined_covariance, diamond_config,
                     gains_single_relay, random_single_relay, single_relay_config)


def record_dual_calls(monkeypatch):
    """Record ``(lam, g(lam))`` for each evaluation of the power route's dual."""
    calls = []
    dual = capacity._dual

    def counted(lam, *geometry):
        out = dual(lam, *geometry)
        calls.append((lam, out[0]))
        return out

    monkeypatch.setattr(capacity, "_dual", counted)
    return calls


def test_power_allocation_validation():
    alloc = PowerAllocation(p21=1.0, p31=0.5, pb1=0.25, theta=0.1)
    assert alloc.total == pytest.approx(1.75)
    with pytest.raises(ValueError, match="p21"):
        PowerAllocation(p21=-1.0, p31=0.0, pb1=0.0, theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        PowerAllocation(p21=0.0, p31=0.0, pb1=0.0, theta=float("nan"))
    with pytest.raises(ValueError, match="alpha"):
        PowerAllocation(p21=0.0, p31=0.0, pb1=0.0, theta=0.0, alpha=float("inf"))


def test_cutset_all_power_direct():
    # everything on the beam aligned with the destination link: the broadcast
    # cut sees g31 * P1, the MAC cut adds the relay's own (incoherent) power
    cfg = single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8)
    alloc = PowerAllocation(p21=0.0, p31=2.0, pb1=0.0, theta=0.0)
    rd, mac = cutset_bounds(cfg, alloc)
    assert rd == pytest.approx(2.0)
    assert mac == pytest.approx(2.0 + 0.8**2)
    assert achievable_rate(cfg, alloc) == pytest.approx(min(rd, mac))


def test_cutset_relay_beam_and_coherent_terms():
    cfg = single_relay_config(p1=3.0, p2=1.0, alpha=0.4, c32=0.8)
    theta = 0.15
    alloc = PowerAllocation(p21=1.0, p31=1.0, pb1=1.0, theta=theta)
    rd, mac = cutset_bounds(cfg, alloc)
    # unit-norm gain vectors: g21 = g31 = 1
    assert rd == pytest.approx(1.0 + math.cos(0.4 - theta) ** 2)
    assert mac == pytest.approx(
        1.0 + math.cos(theta) ** 2 + (math.sqrt(1.0) + 0.8 * 1.0) ** 2
    )


def test_cutset_scales_with_noise():
    ref = single_relay_config(p1=2.0, p2=1.0)
    half = single_relay_config(p1=2.0, p2=1.0, noise_psd=0.5)
    alloc = PowerAllocation(p21=1.0, p31=0.5, pb1=0.5, theta=0.2)
    rd_ref, mac_ref = cutset_bounds(ref, alloc)
    rd_half, mac_half = cutset_bounds(half, alloc)
    # same Watts through half the noise: the relay-decode cut doubles exactly;
    # the MAC cut has the coherent cross term, still scaling as 1/N0
    assert rd_half == pytest.approx(2.0 * rd_ref)
    assert mac_half == pytest.approx(2.0 * mac_ref)


def test_cutset_rejects_over_budget():
    cfg = single_relay_config(p1=2.0)
    alloc = PowerAllocation(p21=1.5, p31=1.0, pb1=0.0, theta=0.0)
    with pytest.raises(ValueError, match="exceeds the budget"):
        cutset_bounds(cfg, alloc)
    # the allowance is relative: 500x a tiny budget is still over it
    tiny = single_relay_config(p1=1e-15)
    with pytest.raises(ValueError, match="exceeds the budget"):
        cutset_bounds(tiny, PowerAllocation(p21=5e-13, p31=0.0, pb1=0.0, theta=0.0))
    cutset_bounds(tiny, PowerAllocation(p21=5e-16, p31=5e-16, pb1=0.0, theta=0.0))


def test_cutset_requires_single_relay():
    alloc = PowerAllocation(p21=0.0, p31=1.0, pb1=0.0, theta=0.0)
    with pytest.raises(ValueError, match="single-relay topology"):
        cutset_bounds(diamond_config(csi=CsiMode.SYNCHRONOUS), alloc)


def test_cutset_phase_fading_adds_the_coherent_power_incoherently():
    # the split of test_cutset_relay_beam_and_coherent_terms without phase
    # knowledge: the beams and the broadcast cut stay, and pb1 adds
    # g31 * pb1 = 1 to the MAC cut next to the relay's own 0.8**2, where
    # synchronous it adds (1 + 0.8)**2 in all
    cfg = single_relay_config(p1=3.0, p2=1.0, alpha=0.4, c32=0.8, csi=CsiMode.PHASE_FADING)
    theta = 0.15
    rd, mac = cutset_bounds(cfg, PowerAllocation(p21=1.0, p31=1.0, pb1=1.0, theta=theta))
    assert rd == pytest.approx(1.0 + math.cos(0.4 - theta) ** 2)
    assert mac == pytest.approx(1.0 + math.cos(theta) ** 2 + 1.0 + 0.8**2)


def test_optimize_weak_relay_link_reduces_to_direct(monkeypatch):
    # when the source-to-relay link is no stronger than the direct link the
    # broadcast cut caps the rate at g31 * P1 / N0, achieved without the relay;
    # the dual's slope at lambda = 1 is then <= 0, so lambda* = 1 with no halving
    calls = record_dual_calls(monkeypatch)
    rng = np.random.default_rng(8)
    for _ in range(5):
        c21 = rng.normal(size=2) + 1j * rng.normal(size=2)
        c31 = rng.normal(size=2) + 1j * rng.normal(size=2)
        if np.vdot(c21, c21).real > np.vdot(c31, c31).real:
            c21, c31 = c31, c21
        cfg = ChannelConfig(
            topology=Topology.SINGLE_RELAY,
            csi=CsiMode.SYNCHRONOUS,
            powers={"P1": 2.5, "P2": 1.5},
            gains={"c21": c21, "c31": c31, "c32": np.array([0.7])},
            noise_psd=0.8,
        )
        g31 = float(np.vdot(c31, c31).real)
        calls.clear()
        result = optimize_capacity(cfg)
        assert result.rate == pytest.approx(g31 * 2.5 / 0.8, rel=1e-9)
        assert result.binding_bound is BindingBound.RELAY_DECODE
        assert [lam for lam, _ in calls] == [0.0, 1.0]
        assert result.upper_bound == calls[1][1] < calls[0][1]


def test_optimize_dead_relay_takes_the_dual_at_zero(monkeypatch):
    # no relay-to-destination link: the MAC cut equals the direct link, the
    # dual's slope at lambda = 0 is 0, and lambda* = 0 with no halving
    calls = record_dual_calls(monkeypatch)
    result = optimize_capacity(single_relay_config(p1=5.0, p2=2.0, alpha=0.7, c32=0.0, scale21=1.8))
    assert [lam for lam, _ in calls] == [0.0, 1.0]
    assert result.upper_bound == calls[0][1] == 5.0 < calls[1][1]
    assert result.rate == pytest.approx(5.0, rel=1e-15)


def test_optimize_bisects_the_dual_at_most_53_times(monkeypatch):
    # the two ends, then halvings of [0, 1] until the bracket is 2**-53 wide
    calls = record_dual_calls(monkeypatch)
    cfgs = [single_relay_config(**kwargs) for kwargs, _ in PINNED_RATES]
    cfgs += [gains_single_relay(*row) for row in FLAT_DUAL_CHANNELS] + KINK_CHANNELS
    counts = []
    for cfg in cfgs:
        calls.clear()
        result = optimize_capacity(cfg)
        assert [lam for lam, _ in calls[:2]] == [0.0, 1.0]
        assert result.upper_bound in [g for _, g in calls]
        counts.append(len(calls))
    assert max(counts) <= 55
    assert max(counts) > 50  # some channel has lambda* inside (0, 1)


def test_optimize_result_is_achievable_and_binding_consistent():
    rng = np.random.default_rng(9)
    for _ in range(8):
        cfg = random_single_relay(rng)
        result = optimize_capacity(cfg)
        alloc = result.allocation
        assert isinstance(alloc, PowerAllocation)
        assert alloc.total <= cfg.powers["P1"] * (1 + 1e-9)
        assert achievable_rate(cfg, alloc) == pytest.approx(result.rate, rel=1e-9, abs=1e-12)
        rd, mac = cutset_bounds(cfg, alloc)
        expect = BindingBound.RELAY_DECODE if rd <= mac else BindingBound.MAC_COMBINE
        assert result.binding_bound is expect


def test_optimize_beats_hand_allocations():
    cfg = single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8)
    best = optimize_capacity(cfg).rate
    for alloc in (
        PowerAllocation(p21=0.0, p31=2.0, pb1=0.0, theta=0.0),
        PowerAllocation(p21=2.0, p31=0.0, pb1=0.0, theta=0.2),
        PowerAllocation(p21=1.0, p31=0.5, pb1=0.5, theta=0.1),
    ):
        assert best >= achievable_rate(cfg, alloc) - 1e-12


def test_optimize_power_scaling():
    # rates are linear in power over noise: scaling every budget by 4 scales
    # the optimum by 4 (the coherent cross term is degree one as well)
    cfg = single_relay_config(p1=1.3, p2=0.7, alpha=0.5, c32=1.1)
    scaled = single_relay_config(p1=4 * 1.3, p2=4 * 0.7, alpha=0.5, c32=1.1)
    r1 = optimize_capacity(cfg).rate
    r4 = optimize_capacity(scaled).rate
    assert r4 == pytest.approx(4.0 * r1, rel=1e-10)
    # and scaling noise together with power changes nothing
    both = single_relay_config(p1=4 * 1.3, p2=4 * 0.7, alpha=0.5, c32=1.1, noise_psd=4.0)
    assert optimize_capacity(both).rate == pytest.approx(r1, rel=1e-10)


# optimize_capacity's rates on fixed channels, as computed by the beam-angle
# grid search the dual minimization replaced
PINNED_RATES = [
    (dict(p1=2.0, p2=1.0, alpha=0.4, c32=0.8, scale21=1.5), 3.541600488991634),
    (dict(p1=2.0, p2=1.0, alpha=0.4, c32=0.8), 2.0),
    (dict(p1=3.0, p2=0.2, alpha=1.1, c32=0.3, scale21=2.5), 3.3068351987067945),
    (dict(p1=1.0, p2=4.0, alpha=0.05, c32=0.2, scale21=2.2, noise_psd=0.3), 5.981014523622558),
    (dict(p1=2.0, p2=1.0, alpha=0.0, c32=0.5, scale21=2.0), 3.330456345123857),
    (dict(p1=2.0, p2=1.0, alpha=math.pi / 2, c32=0.6, scale21=1.3), 2.2484),
    (dict(p1=5.0, p2=2.0, alpha=0.7, c32=0.0, scale21=1.8), 5.000000000000001),
    (dict(p1=1e-3, p2=2e-3, alpha=0.9, c32=0.4, scale21=3.0, noise_psd=1e-3), 2.207767163657284),
    (dict(p1=1e3, p2=5e2, alpha=0.3, c32=0.5, scale21=2.5, scale31=0.7, noise_psd=10.0),
     106.316058319098),
]
PINNED_RANDOM_RATES = [20.928719660099965, 2.354440463860232, 2.776401282562711]
# optimize_covariance_bound on the same channels, in the same order
PINNED_COV_RATES = [
    3.541600488991644, 2.0, 3.3068351987068, 5.98101452362257, 3.3304563451241194, 2.2484, 5.0,
    2.20776716365729, 106.31605831910271,
]
PINNED_RANDOM_COV_RATES = [20.928719660099965, 2.3544404638602945, 2.776401282562711]


def test_optimize_pinned_rates():
    for kwargs, rate in PINNED_RATES:
        assert optimize_capacity(single_relay_config(**kwargs)).rate == pytest.approx(rate, rel=1e-11)
    rng = np.random.default_rng(606)
    for rate in PINNED_RANDOM_RATES:
        assert optimize_capacity(random_single_relay(rng)).rate == pytest.approx(rate, rel=1e-11)


def test_optimize_covariance_pinned_rates():
    for (kwargs, _), rate in zip(PINNED_RATES, PINNED_COV_RATES, strict=True):
        cfg = single_relay_config(**kwargs)
        assert optimize_covariance_bound(cfg).rate == pytest.approx(rate, rel=1e-11)
    rng = np.random.default_rng(606)
    for rate in PINNED_RANDOM_COV_RATES:
        cfg = random_single_relay(rng)
        assert optimize_covariance_bound(cfg).rate == pytest.approx(rate, rel=1e-11)


def test_optimizers_call_the_coherent_kernel_once_per_stage(monkeypatch):
    # one call per refine stage of the covariance route (a scan, with its
    # cell bounds, and six rounds) and one, at the chosen beam angles, for
    # the power route; a count is deterministic where a timing is not
    calls = []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    kernel = capacity.coherent_max
    monkeypatch.setattr(capacity, "coherent_max", counted)
    cfg = random_single_relay(np.random.default_rng(607))
    optimize_covariance_bound(cfg)
    assert len(calls) <= REFINE_ROUNDS + 1
    assert REFINE_ROUNDS + 1 <= 7
    calls.clear()
    optimize_capacity(cfg)
    assert len(calls) == 1
    # the cell bounds certify the scan on a dead relay (c32 = 0), at
    # alpha = 0 and where only the relay-decode cut binds (the MAC cut is 32%
    # above it); where the MAC cut binds too, the profile peaks between scan
    # points and every round runs
    for index, count in ((6, 1), (4, 1), (1, 1), (2, REFINE_ROUNDS + 1)):
        calls.clear()
        optimize_covariance_bound(single_relay_config(**PINNED_RATES[index][0]))
        assert len(calls) == count


def test_covariance_early_exit_keeps_the_pinned_rates():
    # the channels of PINNED_RATES and PINNED_RANDOM_RATES get the rates the
    # always-refined search gets, bit for bit, whether or not they refine
    cfgs = [single_relay_config(**kwargs) for kwargs, _ in PINNED_RATES]
    rng = np.random.default_rng(606)
    cfgs += [random_single_relay(rng) for _ in PINNED_RANDOM_RATES]
    for cfg in cfgs:
        assert optimize_covariance_bound(cfg).rate == always_refined_covariance(cfg).rate


def test_budget_products_do_not_overflow():
    # P1 * P2 / N0**2 overflows, though every link budget |c|**2 P / N0 is
    # 1, so each square root must be taken over one link budget for both
    # routes and the covariance replay to stay finite
    cfg = single_relay_config(p1=1e200, p2=1e200, scale21=1e-100, scale31=1e-100, c32=1e-100)
    power = optimize_capacity(cfg)
    covariance = optimize_covariance_bound(cfg)
    assert power.rate == power.upper_bound == covariance.rate == 1.0000000000000002
    assert covariance_bounds(cfg, covariance.allocation) == (1.0000000000000002, 2.0)


def test_phase_fading_capacity_hand_case():
    # parallel links (alpha = 0): p21 = t and p31 = 2 - t give the cuts
    # 2 * t + (2 - t) = 2 + t and 1 * 2 + 1 * 1 = 3, equal at t = 1
    cfg = single_relay_config(
        p1=2.0, p2=1.0, alpha=0.0, c32=1.0, csi=CsiMode.PHASE_FADING, scale21=math.sqrt(2.0)
    )
    assert phase_fading_capacity(cfg) == pytest.approx(3.0)


def test_phase_fading_capacity_monotone_in_relay_power():
    rates = [
        phase_fading_capacity(
            single_relay_config(p1=2.0, p2=p2, csi=CsiMode.PHASE_FADING, c32=0.9)
        )
        for p2 in (0.0, 0.5, 1.0, 5.0, 50.0)
    ]
    assert rates == sorted(rates)
    # saturates at the broadcast cut
    assert rates[-1] == pytest.approx(max(1.0, 1.0) * 2.0)


def test_phase_fading_witness_stays_below_synchronous():
    # each cut maximized on its own gives min(2 * 1, 1 * 1 + 1) = 2.0, above
    # the synchronous 16/9. Jointly, the beam at the relay (theta = alpha)
    # gives the cuts 1 + p21 and 2 - p21, so the capacity is 1.5 at p21 = 0.5
    cfg = single_relay_config(p1=1.0, p2=1.0, alpha=math.pi / 2, c32=1.0, scale21=math.sqrt(2.0),
                              csi=CsiMode.PHASE_FADING)
    rate = phase_fading_capacity(cfg)
    assert type(rate) is float
    assert rate == 1.5
    result = optimize_capacity(cfg)
    assert result.rate == result.upper_bound == 1.5
    assert result.allocation.theta == result.allocation.alpha
    assert result.allocation.pb1 == 0.0
    assert result.allocation.p21 == pytest.approx(0.5)
    assert min(cutset_bounds(cfg, result.allocation)) == pytest.approx(1.5)
    synchronous = optimize_capacity(single_relay_config(p1=1.0, p2=1.0, alpha=math.pi / 2, c32=1.0,
                                                        scale21=math.sqrt(2.0)))
    assert synchronous.rate == pytest.approx(16.0 / 9.0)


def test_phase_fading_capacity_requires_phase_fading():
    with pytest.raises(ValueError, match="csi mode"):
        phase_fading_capacity(single_relay_config())


def test_matrix_params_validation():
    eye = np.eye(2)
    u = np.array([1.0, 0.0])
    MatrixBoundParams(a=0.1 * eye, b=0.1 * eye, beta=0.5, u=u)
    with pytest.raises(ValueError, match="2x2"):
        MatrixBoundParams(a=np.eye(3), b=eye, beta=0.0, u=u)
    with pytest.raises(ValueError, match="u must have 2"):
        MatrixBoundParams(a=eye, b=eye, beta=0.0, u=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        MatrixBoundParams(a=eye * np.nan, b=eye, beta=0.0, u=u)


def test_covariance_bounds_silent_source():
    cfg = single_relay_config(p1=2.0, p2=1.5, c32=0.8)
    params = MatrixBoundParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)), beta=0.0,
                               u=np.array([1.0, 0.0]))
    rd, mac = covariance_bounds(cfg, params)
    assert rd == 0.0
    assert mac == pytest.approx(0.8**2 * 1.5)


def test_covariance_bounds_full_coherent():
    # beta = 1 with u on the destination gain vector: the MAC cut becomes the
    # fully coherent square (sqrt(g31 P1) + |c32| sqrt(P2))^2 / N0
    cfg = single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8)
    c31 = cfg.gain("c31")
    u = c31 / np.linalg.norm(c31)
    params = MatrixBoundParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)), beta=1.0, u=u)
    rd, mac = covariance_bounds(cfg, params)
    assert rd == 0.0
    assert mac == pytest.approx((math.sqrt(2.0) + 0.8) ** 2)


def test_covariance_form_reduces_to_power_form():
    # rank-one blocks aligned with the beams of a power split reproduce
    # cutset_bounds exactly, including through a non-unit noise density
    alpha = 0.4
    cfg = single_relay_config(p1=2.0, p2=1.0, alpha=alpha, c32=0.8, noise_psd=0.5)
    c31 = cfg.gain("c31").real
    for p21, p31, pb1, theta in [
        (0.5, 1.0, 0.5, 0.15),
        (1.2, 0.3, 0.5, 0.0),
        (0.0, 1.0, 1.0, 0.3),
        (2.0, 0.0, 0.0, 0.4),
    ]:
        alloc = PowerAllocation(p21=p21, p31=p31, pb1=pb1, theta=theta)
        v = np.array([math.cos(alpha - theta), math.sin(alpha - theta)])
        params = MatrixBoundParams(
            a=p21 * np.outer(v, v),
            b=p31 * np.outer(c31, c31),
            beta=math.sqrt(pb1 / cfg.powers["P1"]),
            u=c31,
        )
        np.testing.assert_allclose(
            covariance_bounds(cfg, params), cutset_bounds(cfg, alloc), rtol=1e-12, atol=1e-12
        )


def test_covariance_bounds_validation():
    cfg = single_relay_config(p1=2.0)
    u = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        covariance_bounds(cfg, MatrixBoundParams(a=-np.eye(2), b=np.zeros((2, 2)),
                                                 beta=0.0, u=u))
    with pytest.raises(ValueError, match="not Hermitian"):
        covariance_bounds(
            cfg,
            MatrixBoundParams(a=np.array([[1.0, 1.0], [0.0, 1.0]]) * 0.1,
                              b=np.zeros((2, 2)), beta=0.0, u=u),
        )
    with pytest.raises(ValueError, match="beta"):
        covariance_bounds(cfg, MatrixBoundParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)),
                                                 beta=1.5, u=u))
    with pytest.raises(ValueError, match="unit norm"):
        covariance_bounds(cfg, MatrixBoundParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)),
                                                 beta=0.0, u=2.0 * u))
    with pytest.raises(ValueError, match="exceeding the budget"):
        covariance_bounds(cfg, MatrixBoundParams(a=1.5 * np.eye(2), b=np.zeros((2, 2)),
                                                 beta=0.0, u=u))
    # the allowance is relative: a block 500000x over a tiny budget is rejected
    tiny = single_relay_config(p1=1e-15)
    with pytest.raises(ValueError, match="exceeding the budget"):
        covariance_bounds(tiny, MatrixBoundParams(a=2.5e-10 * np.eye(2), b=np.zeros((2, 2)),
                                                  beta=0.0, u=u))


def test_covariance_optimizer_matches_power_optimizer():
    rng = np.random.default_rng(10)
    for _ in range(5):
        cfg = random_single_relay(rng)
        r_power = optimize_capacity(cfg).rate
        r_cov = optimize_covariance_bound(cfg).rate
        assert r_cov == pytest.approx(r_power, rel=1e-6, abs=1e-9)


def test_covariance_optimizer_internal_consistency():
    cfg = single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8)
    result = optimize_covariance_bound(cfg)
    params = result.allocation
    assert isinstance(params, MatrixBoundParams)
    assert result.upper_bound is None  # a primal search certifies nothing
    rd, mac = covariance_bounds(cfg, params)
    assert min(rd, mac) == pytest.approx(result.rate, rel=1e-9)
    expect = BindingBound.RELAY_DECODE if rd <= mac else BindingBound.MAC_COMBINE
    assert result.binding_bound is expect
    # the relay block comes out (numerically) rank one
    eigs = np.linalg.eigvalsh(params.a)
    assert eigs[0] <= 1e-9 * max(1.0, eigs[-1])


@pytest.mark.parametrize("scale", [1e6, 1.0, 1e-6, 1e-12, 1e-13, 1e-15, 1e-50, 1e-100])
def test_covariance_optimizer_replays_at_small_gain_scales(scale):
    # c21 and c31 are far from parallel at every scale, so the beams must be
    # laid in their plane even when both gain vectors are tiny; P1 = 1/s^2
    # keeps the rate the same at every scale
    cfg = gains_single_relay(1.0 / scale ** 2, 1.0, 1.0, np.array([1.0, 0.3j]) * scale,
                             np.array([0.2, 1.0]) * scale, 0.5)
    result = optimize_covariance_bound(cfg)
    assert abs(min(covariance_bounds(cfg, result.allocation)) - result.rate) <= rounding_slack(result.rate)


def test_covariance_optimizer_zero_source_power():
    cfg = single_relay_config(p1=0.0, p2=1.0, c32=0.8)
    result = optimize_covariance_bound(cfg)
    assert result.rate == pytest.approx(0.0, abs=1e-12)
    assert optimize_capacity(cfg).rate == pytest.approx(0.0, abs=1e-12)



def test_covariance_optimizer_never_beaten_by_free_grid():
    # optimize_covariance_bound pins the destination block and the coherent
    # beam to c31 by a monotonicity argument and keeps the relay block rank
    # one by an ellipse argument; a grid over all three beam angles, the
    # relay block's isotropic weight and the coherent fraction, with the
    # trace split solved at its candidate points (both ends and the crossing
    # of the two bounds), must never find more
    rng = np.random.default_rng(21)
    angles = np.linspace(-math.pi / 2.0, math.pi / 2.0, 33)
    eta = np.linspace(0.0, 1.0, 9)[None, None, None, :]
    for cfg in [random_single_relay(rng) for _ in range(6)] + [
        single_relay_config(p1=2.0, p2=0.0, alpha=0.7, scale21=2.0),
        single_relay_config(p1=2.0, p2=1.0, alpha=math.pi / 2.0, c32=0.0, scale21=1.5),
    ]:
        c21, c31 = cfg.gain("c21"), cfg.gain("c31")
        g21, g31 = float(np.vdot(c21, c21).real), float(np.vdot(c31, c31).real)
        alpha = angle_between(c21, c31)
        m32 = abs(cfg.scalar_gain("c32"))
        p1, p2 = cfg.powers["P1"] / cfg.noise_psd, cfg.powers["P2"] / cfg.noise_psd
        relay_angles = angles[:, None, None, None]
        k_rd = (1.0 - eta) * g21 * np.cos(relay_angles) ** 2 + eta * g21 / 2.0
        k_rd_dest = (1.0 - eta) * g31 * np.cos(relay_angles - alpha) ** 2 + eta * g31 / 2.0
        k_dest = (g31 * np.cos(angles - alpha) ** 2)[None, :, None, None]
        coherent = (g31 * np.cos(angles - alpha) ** 2)[None, None, :, None]
        best = 0.0
        for beta in np.linspace(0.0, 1.0, 33):
            budget = p1 * (1.0 - beta ** 2)
            constant = (beta ** 2 * p1 * coherent + m32 ** 2 * p2
                        + 2.0 * beta * m32 * np.sqrt(p1 * p2 * coherent))
            gap = k_rd - k_rd_dest
            crossing = np.clip(constant / np.where(gap > 0.0, gap, np.inf), 0.0, budget)
            for trace_a in (0.0, budget, crossing):
                rest = k_dest * (budget - trace_a)
                values = np.minimum(k_rd * trace_a + rest, k_rd_dest * trace_a + rest + constant)
                best = max(best, float(values.max()))
        rate = optimize_covariance_bound(cfg).rate
        assert best <= rate * (1.0 + 1e-9) + 1e-300
