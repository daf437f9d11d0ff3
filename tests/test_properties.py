"""Property-based tests over generated channels and edge geometries."""

import dataclasses
import math

import numpy as np
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relaycap import (
    ChannelConfig,
    CommonPrivateAllocation,
    CsiMode,
    FiniteJoint,
    Topology,
    broadcast_outer_rates,
    broadcast_region_gap,
    capacity,
    check_conditional_limits,
    check_limit_phase_fading,
    common_private_rates,
    mac_region_point,
    max_min_beam_gain,
    optimize_capacity,
    optimize_covariance_bound,
    phase_fading_capacity,
)
from relaycap._search import grid_refine, split_max
from relaycap.channel import rounding_slack

from helpers import (FLAT_DUAL_CHANNELS, KINK_CHANNELS, always_refined_covariance, gains_single_relay,
                     single_relay_config)

SCALES = st.integers(-6, 6).map(lambda k: 10.0 ** k)
# gain entries on a grid of quarters: exact zeros, and so zero and parallel
# gain vectors, come up often
UNIT = st.integers(-4, 4).map(lambda k: k / 4.0)
ANGLES = (0.0, 1e-9, 0.3, math.pi / 4, math.pi / 2 - 1e-9, math.pi / 2)
RELAY_GAINS = (0.0, 0.05, 0.8, 5.0)


@st.composite
def planar_channels(draw):
    """c21 on the x-axis and c31 at a chosen angle: parallel, orthogonal and
    in between, with zero links and budgets among the draws."""
    strength = st.one_of(st.just(0.0), SCALES)
    return single_relay_config(
        p1=draw(st.one_of(st.just(0.0), SCALES)),
        p2=draw(st.one_of(st.just(0.0), SCALES)),
        noise_psd=draw(SCALES),
        alpha=draw(st.sampled_from(ANGLES)),
        c32=draw(st.sampled_from(RELAY_GAINS)) * draw(SCALES),
        scale21=draw(strength),
        scale31=draw(strength),
    )


@st.composite
def complex_channels(draw):
    """Complex gain vectors with entries from ``UNIT``, each link at its own scale."""
    def gain(size):
        scale = draw(SCALES)
        return np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(size)]) * scale

    return ChannelConfig(
        topology=Topology.SINGLE_RELAY,
        csi=CsiMode.SYNCHRONOUS,
        powers={"P1": draw(SCALES), "P2": draw(SCALES)},
        gains={"c21": gain(2), "c31": gain(2), "c32": gain(1)},
        noise_psd=draw(SCALES),
    )


def with_flat_dual_examples(test):
    for row in FLAT_DUAL_CHANNELS:
        test = example(gains_single_relay(*row))(test)
    return test


@with_flat_dual_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_dual_bound_certifies_the_rate(cfg):
    # the dual value bounds every allocation's rate, and the search closes
    # the gap: the achieved rate is the capacity to 6e-15, ten times the worst
    # gap on these examples (5e-16; a grid search for lambda* left 4e-14 here)
    result = optimize_capacity(cfg)
    assert result.upper_bound >= result.rate - rounding_slack(result.rate)
    assert result.upper_bound - result.rate <= 6e-15 * result.upper_bound


# Each cut maximized on its own gives 2.0 here under phase fading, above the
# synchronous 16/9; the joint max-min is 1.5.
FADING_WITNESS = single_relay_config(p1=1.0, p2=1.0, alpha=math.pi / 2, c32=1.0, scale21=math.sqrt(2.0))
# Under phase fading the beam of the final lambda bracket's far end beats
# the near end's and the relay's; solved at those two alone, the gap is
# 9.1e-15 relative.
FADING_FAR_END_CHANNEL = gains_single_relay(
    3.4530395714174684, 2.8649006651138538, 1.0,
    (0.09350612554029468 + 0.23971680635043444j, -1.8555402636313378 + 1.1068248178170996j),
    (-0.023408092592395475 - 0.17156403968092573j, -0.02404524437109667 + 0.10022234019663481j),
    -0.8808684562645849 + 1.1003692049990983j)


def with_fading_examples(test):
    for cfg in (FADING_WITNESS, FADING_FAR_END_CHANNEL, *KINK_CHANNELS):
        test = example(cfg)(test)
    return with_flat_dual_examples(test)


def _phase_fading(cfg):
    return dataclasses.replace(cfg, csi=CsiMode.PHASE_FADING)


@with_fading_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_phase_fading_never_beats_synchronous(cfg):
    # phase knowledge at the transmitters can only help
    fading = phase_fading_capacity(_phase_fading(cfg))
    synchronous = optimize_capacity(cfg).rate
    assert fading <= synchronous + rounding_slack(synchronous)


@with_fading_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_dual_bound_certifies_the_phase_fading_rate(cfg):
    # the synchronous certificate's bounds, held by the same solver
    result = optimize_capacity(_phase_fading(cfg))
    assert result.upper_bound >= result.rate - rounding_slack(result.rate)
    assert result.upper_bound - result.rate <= 6e-15 * result.upper_bound


@with_fading_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_phase_fading_rate_tops_a_beam_angle_grid(cfg):
    # with no coherent term pb1 earns no more than p31 (and nothing in the
    # broadcast cut), so the capacity is the best split of P1 between the
    # beam at theta and the destination's beam
    fading = _phase_fading(cfg)
    g21, g31, _, m32, alpha, p1, p2 = capacity._single_relay_geometry(fading)
    theta = np.linspace(0.0, alpha, 20_001)
    values, _ = split_max(g21 * np.cos(alpha - theta) ** 2, g31 * np.cos(theta) ** 2, g31, m32 ** 2 * p2, p1)
    rate = phase_fading_capacity(fading)
    assert values.max() <= rate + rounding_slack(rate)


# A narrow peak in the relay-block angle that the angle scan steps over; the
# relay block's beam pointed along c31 (phi = alpha) reaches it.
NARROW_PEAK_CHANNEL = gains_single_relay(1e6, 100.0, 0.01, (-5000 - 7500j, 7500),
                                         (-500 - 250j, -250 + 1000j), 2.5e-6 - 2.5e-6j)


@example(NARROW_PEAK_CHANNEL)
@with_flat_dual_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_dual_bound_certifies_the_covariance_rate(cfg):
    # the two optimizers share the coherent-share kernel, so their agreement
    # (C3) would miss a bug in it; the power route's dual bound would not
    bound = optimize_capacity(cfg).upper_bound
    rate = optimize_covariance_bound(cfg).rate
    assert bound * (1.0 - 1e-12) <= rate <= bound + rounding_slack(bound)


# A dead relay whose angle profile is flat: its highest cell bound tops the
# scan's best value by rounding alone (1.3e-16 relative), so the route must
# refine it even though the rounds find nothing better.
FLAT_PROFILE_CHANNEL = gains_single_relay(
    2.448228173613641, 0.9818974433011523, 1.810068702720552,
    (0.39494318942459034 + 1.6763327196655948j, 2.3979372675854025 - 1.1735783523750556j),
    (0.35022479577355486 - 1.655676895719328j, -1.3309888613685903 + 0.7435460014427098j), 0.0)


def with_kink_examples(test):
    for cfg in KINK_CHANNELS:
        test = example(cfg)(test)
    return test


@example(FLAT_PROFILE_CHANNEL)
@example(NARROW_PEAK_CHANNEL)
@with_kink_examples
@with_flat_dual_examples
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_covariance_scan_certificate_against_always_refine(cfg):
    seen = {"refined": False}

    def spy(f, axis, scan, cell_bounds):
        def counted(points):
            seen["refined"] = True
            return f(points)

        seen.update(f=f, axis=axis, bounds=cell_bounds)
        return grid_refine(counted, axis, scan, cell_bounds)

    with mock.patch.object(capacity, "grid_refine", spy):
        rate = optimize_covariance_bound(cfg).rate
    # each cell bound lies above the profile sampled across its cell
    bounds, axis = seen["bounds"], seen["axis"]
    cells = np.linspace(axis[:-1], axis[1:], 9, axis=1)
    sampled = seen["f"](cells.ravel())[0].reshape(cells.shape).max(axis=1)
    assert np.all(sampled <= bounds + rounding_slack(*bounds))
    # the rounds are skipped only when no cell bound tops the rate returned
    assert seen["refined"] or np.all(bounds <= rate)
    # a skip loses at most rounding against the always-refined search
    oracle = always_refined_covariance(cfg).rate
    if seen["refined"]:
        assert rate == oracle
    else:
        assert oracle - rounding_slack(oracle) <= rate <= oracle


def _scaled(cfg, factor):
    powers = {name: p * factor for name, p in cfg.powers.items()}
    return ChannelConfig(topology=cfg.topology, csi=cfg.csi, powers=powers, gains=cfg.gains,
                         noise_psd=cfg.noise_psd * factor)


def _rates(cfg):
    return optimize_capacity(cfg).rate, optimize_covariance_bound(cfg).rate


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.one_of(planar_channels(), complex_channels()), st.integers(-6, 6))
def test_optimizers_ignore_joint_power_and_noise_scaling(cfg, k):
    # every rate depends on the powers only through P / N0
    for rate, scaled in zip(_rates(cfg), _rates(_scaled(cfg, 10.0 ** k))):
        assert abs(scaled - rate) <= rounding_slack(rate)


def _dead_relay(cfg, csi):
    gains = {**cfg.gains, "c32": np.zeros(1)}
    return ChannelConfig(topology=cfg.topology, csi=csi, powers=cfg.powers, gains=gains, noise_psd=cfg.noise_psd)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_a_dead_relay_leaves_the_direct_rate(cfg):
    # with c32 = 0 nothing the relay decodes reaches the destination, so both
    # optimizers and the phase-fading capacity give |c31|**2 P1 / N0
    c31 = cfg.gains["c31"]
    direct = float(np.vdot(c31, c31).real) * cfg.powers["P1"] / cfg.noise_psd
    synchronous = _dead_relay(cfg, CsiMode.SYNCHRONOUS)
    for rate in (*_rates(synchronous), phase_fading_capacity(_dead_relay(cfg, CsiMode.PHASE_FADING))):
        assert abs(rate - direct) <= rounding_slack(direct)


PHASES = st.floats(0.0, 2.0 * math.pi)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.one_of(planar_channels(), complex_channels()), PHASES, PHASES, PHASES)
def test_optimizers_ignore_a_phase_rotation_per_link(cfg, t21, t31, t32):
    # the transmitters track carrier phase, so a common phase on any one link
    # is absorbed into its beam
    gains = {name: cfg.gains[name] * np.exp(1j * t) for name, t in
             (("c21", t21), ("c31", t31), ("c32", t32))}
    rotated = ChannelConfig(topology=cfg.topology, csi=cfg.csi, powers=cfg.powers, gains=gains,
                            noise_psd=cfg.noise_psd)
    for rate, turned in zip(_rates(cfg), _rates(rotated)):
        assert abs(turned - rate) <= rounding_slack(rate)


def _unitary(theta, a, b, phase):
    """A 2 x 2 unitary: every one is a phase times an SU(2) matrix."""
    return np.exp(1j * phase) * np.array([
        [math.cos(theta) * np.exp(1j * a), math.sin(theta) * np.exp(1j * b)],
        [-math.sin(theta) * np.exp(-1j * b), math.cos(theta) * np.exp(-1j * a)],
    ])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.one_of(planar_channels(), complex_channels()), PHASES, PHASES, PHASES, PHASES)
def test_optimizers_ignore_a_unitary_on_the_source_antennas(cfg, theta, a, b, phase):
    # one unitary on both source gain vectors keeps their norms and the
    # angle between them, and a beam turned with it is heard as before
    u = _unitary(theta, a, b, phase)
    c21, c31 = cfg.gains["c21"], cfg.gains["c31"]
    turned = dataclasses.replace(cfg, gains=dict(cfg.gains, c21=u @ c21, c31=u @ c31))
    for rate, turned_rate in zip(_rates(cfg), _rates(turned)):
        assert abs(turned_rate - rate) <= rounding_slack(rate)
    if np.any(c21) and np.any(c31):
        beam = max_min_beam_gain(c21, c31)
        assert abs(max_min_beam_gain(u @ c21, u @ c31) - beam) <= rounding_slack(beam)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()), st.sampled_from(["P1", "P2"]), st.floats(1.0, 1e3))
def test_rates_never_fall_when_a_budget_grows(cfg, budget, factor):
    # a larger budget admits every allocation the smaller one did
    richer = dataclasses.replace(cfg, powers=dict(cfg.powers, **{budget: cfg.powers[budget] * factor}))
    for rate, richer_rate in zip(_rates(cfg), _rates(richer)):
        assert richer_rate >= rate - rounding_slack(rate)
    fading, richer_fading = (dataclasses.replace(c, csi=CsiMode.PHASE_FADING) for c in (cfg, richer))
    rate = phase_fading_capacity(fading)
    assert phase_fading_capacity(richer_fading) >= rate - rounding_slack(rate)


@st.composite
def relay_swap_cases(draw):
    """A diamond's gains, powers and N0 with a broadcast-cut allocation that
    both the diamond and its relay-swapped twin admit: every value at 1e+-6,
    zero gains and powers among the draws, and common powers down to minus
    the smaller private power of their antenna."""
    def gain(size):
        scale = draw(SCALES)
        return [complex(draw(UNIT), draw(UNIT)) * scale for _ in range(size)]

    def antenna():
        p, q = (draw(st.one_of(st.just(0.0), SCALES)) for _ in range(2))
        common = draw(st.one_of(st.floats(-1.0, 1.0).map(lambda t: t * min(p, q)), SCALES))
        return common, p, q

    (p1c, p12, p13), (p2c, p22, p23) = antenna(), antenna()
    alloc = CommonPrivateAllocation(p1c=p1c, p2c=p2c, p12=p12, p22=p22, p13=p13, p23=p23)
    gains = {"c21": gain(2), "c31": gain(2), "c42": gain(1), "c43": gain(1)}
    # P2 budgets source antenna 2 on the broadcast cut and relay 2 on the
    # MAC cut, so P2 and P3 each cover antenna 2 and differ beyond that
    need2 = abs(p2c) + p22 + p23
    powers = {
        "P1": abs(p1c) + p12 + p13,
        "P2": need2 + draw(st.one_of(st.just(0.0), SCALES)),
        "P3": need2 + draw(st.one_of(st.just(0.0), SCALES)),
    }
    return gains, powers, draw(SCALES), alloc, draw(st.floats(0.0, 1.0))


def _swap_relays(gains, powers, alloc):
    swapped_gains = dict(gains, c21=gains["c31"], c31=gains["c21"], c42=gains["c43"], c43=gains["c42"])
    swapped_powers = dict(powers, P2=powers["P3"], P3=powers["P2"])
    swapped_alloc = CommonPrivateAllocation(p1c=alloc.p1c, p2c=alloc.p2c, p12=alloc.p13, p22=alloc.p23,
                                            p13=alloc.p12, p23=alloc.p22)
    return swapped_gains, swapped_powers, swapped_alloc


def _diamond(gains, powers, noise_psd, csi):
    return ChannelConfig(topology=Topology.TWO_RELAY_DIAMOND, csi=csi, powers=powers,
                         gains={key: np.array(value) for key, value in gains.items()}, noise_psd=noise_psd)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(relay_swap_cases())
def test_diamond_rates_swap_with_the_relays(case):
    # relabelling relays 2 and 3 (c21<->c31, p12<->p13, p22<->p23,
    # c42<->c43, P2<->P3) relabels every per-relay rate and sum cap
    gains, powers, noise_psd, alloc, rho = case
    swapped_gains, swapped_powers, swapped_alloc = _swap_relays(gains, powers, alloc)
    cfg = _diamond(gains, powers, noise_psd, CsiMode.PHASE_FADING)
    twin = _diamond(swapped_gains, swapped_powers, noise_psd, CsiMode.PHASE_FADING)
    # every rate term is a gain times a power of one antenna
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / noise_psd for key in ("c21", "c31"))
    terms = np.maximum(g2, g3) * [abs(alloc.p1c) + alloc.p12 + alloc.p13, abs(alloc.p2c) + alloc.p22 + alloc.p23]
    slack = rounding_slack(*terms)
    for rates in (common_private_rates, broadcast_outer_rates):
        base, swapped = rates(cfg, alloc), rates(twin, swapped_alloc)
        for field, twin_field in (("r2", "r3"), ("r3", "r2"), ("r_sum1", "r_sum2"), ("r_sum2", "r_sum1")):
            assert abs(getattr(swapped, twin_field) - getattr(base, field)) <= slack, (rates, field)
    for csi in CsiMode:
        base = mac_region_point(_diamond(gains, powers, noise_psd, csi), rho)
        swapped = mac_region_point(_diamond(swapped_gains, swapped_powers, noise_psd, csi), rho)
        slack = rounding_slack(base.r23_max, base.r32_max, base.r_sum_max)
        assert abs(swapped.r32_max - base.r23_max) <= slack, csi
        assert abs(swapped.r23_max - base.r32_max) <= slack, csi
        assert abs(swapped.r_sum_max - base.r_sum_max) <= slack, csi


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(relay_swap_cases(), st.sampled_from(["P2", "P3"]), st.floats(1.0, 1e3))
def test_mac_bounds_never_fall_when_a_relay_budget_grows(case, budget, factor):
    # every bound is a sum of products of nonnegative gains, budgets and
    # their square roots, and each of those operations rounds monotonically,
    # so a larger budget never lowers one, in floating point too
    gains, powers, noise_psd, _, rho = case
    richer = dict(powers, **{budget: powers[budget] * factor})
    for csi in CsiMode:
        base, grown = (mac_region_point(_diamond(gains, p, noise_psd, csi), rho) for p in (powers, richer))
        for field in ("r23_max", "r32_max", "r_sum_max"):
            assert getattr(grown, field) >= getattr(base, field), (csi, field)


@st.composite
def mac_cases(draw):
    """Relay-to-destination links and budgets of a diamond, each at its own
    scale from 1e-6 to 1e6, with zero links and zero budgets of both signs
    among the draws, and a relay correlation."""
    def link():
        return [complex(draw(UNIT), draw(UNIT)) * draw(SCALES)]

    budget = st.one_of(st.sampled_from([0.0, -0.0]), SCALES)
    gains = {"c21": [1.0, 0.0], "c31": [0.6, 0.8], "c42": link(), "c43": link()}
    powers = {"P1": 1.0, "P2": draw(budget), "P3": draw(budget)}
    rho = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(allow_nan=False, allow_infinity=False)))
    return gains, powers, draw(SCALES), rho


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(mac_cases())
def test_phase_fading_mac_cut_is_the_synchronous_cut_at_rho_zero(case):
    gains, powers, noise_psd, rho = case
    point = mac_region_point(_diamond(gains, powers, noise_psd, CsiMode.PHASE_FADING), rho)
    sync = mac_region_point(_diamond(gains, powers, noise_psd, CsiMode.SYNCHRONOUS), 0.0)
    want = [sync.r23_max, sync.r32_max, sync.r_sum_max]
    # the one difference: two -0.0 budgets sum to -0.0, which phase fading
    # keeps and the synchronous cross term, +0.0 at rho = 0, turns to 0.0
    if math.copysign(1.0, powers["P2"]) < 0.0 and math.copysign(1.0, powers["P3"]) < 0.0:
        want[2] = -0.0
    assert [float.hex(v) for v in (point.r23_max, point.r32_max, point.r_sum_max)] == [float.hex(v) for v in want]
    assert point.rho is rho
    assert point.rho_ignored is (rho != 0.0)
    assert sync.rho_ignored is False


@st.composite
def gap_swap_cases(draw):
    """Phase-fading diamond gains with entries from ``UNIT``, each antenna
    at its own scale, budgets on a grid of quarters at a shared scale, and
    a power-grid size."""
    def gain():
        return [complex(draw(UNIT), draw(UNIT)) * draw(SCALES) for _ in range(2)]

    budget = st.integers(0, 12).map(lambda k: k / 4.0)
    scale = draw(SCALES)
    powers = {"P1": draw(budget) * scale, "P2": draw(budget) * scale, "P3": 1.0}
    gains = {"c21": gain(), "c31": gain(), "c42": [1.0], "c43": [1.0]}
    return gains, powers, draw(SCALES), draw(st.integers(2, 11))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(gap_swap_cases())
def test_broadcast_gap_keeps_its_value_when_the_relays_swap(case):
    # swapping c21 and c31 relabels relays 2 and 3 on the broadcast cut; the
    # largest gap, the resolution and the worst demand's sum rate stay
    gains, powers, noise_psd, steps = case
    swapped_gains = dict(gains, c21=gains["c31"], c31=gains["c21"])
    base, swapped = (
        broadcast_region_gap(_diamond(g, powers, noise_psd, CsiMode.PHASE_FADING), steps)
        for g in (gains, swapped_gains)
    )
    for report in (base, swapped):
        assert report.steps == steps
    got, want = ([r.max_gap.hex(), r.rate_resolution.hex(), r.worst_demand.r_sum.hex()] for r in (swapped, base))
    assert got == want


FADING_BANDWIDTHS = np.logspace(-3, 8, 12)


@st.composite
def fading_links(draw):
    """A link of one or two antennas: complex gains from ``UNIT``, each
    antenna at its own scale, with the input variances and N0 at 1e+-6 too."""
    size = draw(st.integers(1, 2))
    gains = np.array([complex(draw(UNIT), draw(UNIT)) * draw(SCALES) for _ in range(size)])
    input_var = np.array([draw(SCALES) for _ in range(size)])
    return gains, input_var, draw(SCALES)


def _fading(gains, input_var, noise_psd):
    return check_limit_phase_fading(gains, input_var, noise_psd, FADING_BANDWIDTHS, rng_seed=0)


# The values of links of one or two antennas, bit for bit. The last two links
# are ones where squaring with libm pow instead of x * x would move a bit.
PINNED_FADING = [
    (
        ([1e6], [1e-6], 1e-6),
        (
            "0x1.1af11061eb815p-5", "0x1.4a193dc792c1ap-2", "0x1.7f2670d9eeeb3p+1",
            "0x1.ba18a999000bap+4", "0x1.fa9197a9fb7fbp+7", "0x1.1fd2b914f6afdp+11",
            "0x1.43cd1037d2978p+14", "0x1.67c7675d74822p+17", "0x1.8982193397afcp+20",
            "0x1.a59daf1dad6d8p+23", "0x1.b72f02a98c87cp+26", "0x1.b730222594ca7p+29",
        ),
    ),
    (
        ([1.0, 1.0], [1.0, 1.0], 1.0),
        (
            "0x1.c6c76c2513c3cp-8", "0x1.8171b2a4cbf9ap-5", "0x1.0c087340646ffp-2",
            "0x1.ecc2caec5160ap-1", "0x1.c0c6fde27e83dp+0", "0x1.f87c7eef486d4p+0",
            "0x1.ff3bd3e847fbdp+0", "0x1.ffec57f41134ep+0", "0x1.fffe08b1d827cp+0",
            "0x1.ffffcdab20726p+0", "0x1.fffffaf78295dp+0", "0x1.ffffff7f26a6ep+0",
        ),
    ),
    (
        ([0.3 - 0.4j, 2e3], [1e-3, 5e2], 1e2),
        (
            "0x1.849cb04b6fd13p-6", "0x1.b69baef8cc1a5p-3", "0x1.e95061f9dcd87p+0",
            "0x1.0cfad9d0d3bd7p+4", "0x1.222c5486c20a0p+7", "0x1.3126e59d4a609p+10",
            "0x1.357c4ce7b0503p+13", "0x1.28ee05f9fe27ep+16", "0x1.02f34fb4ae974p+19",
            "0x1.73a5538075242p+21", "0x1.4f4515c5fb19fp+23", "0x1.16335badecf99p+24",
        ),
    ),
    (
        ([-26.652260698322877 + 10.902265339468928j], [1.365947176774473], 40.864994659581065),
        (
            "0x1.4f3608694cf2dp-7", "0x1.44b6973109abap-4", "0x1.202a457c02688p-1",
            "0x1.adc1f973570f4p+1", "0x1.a8ce78402813ap+3", "0x1.876ea068ecb5ep+4",
            "0x1.b56f27acc5a88p+4", "0x1.badaf2ff04121p+4", "0x1.bb6842ac11e59p+4",
            "0x1.bb766adb07228p+4", "0x1.bb77d55718698p+4", "0x1.bb77f996df324p+4",
        ),
    ),
    (
        ([-19.761221446835336 + 17.3807853101654j, -51.5592461641519 - 1034.5380880126252j],
         [7.247907725607469e-06, 1.1878985318899578e-05], 0.02189790404841792),
        (
            "0x1.b2f8c1cfd35a5p-7", "0x1.c166c0feb1a18p-4", "0x1.bbde06c2a717cp-1",
            "0x1.97914caf651a1p+2", "0x1.467a86e533536p+5", "0x1.7ffdc240fc28cp+7",
            "0x1.cacd4ad6a5656p+8", "0x1.1af6e383c2f32p+9", "0x1.22492d6f4d136p+9",
            "0x1.230bc78eca6eep+9", "0x1.231f5088a6fa0p+9", "0x1.232144d2e977ep+9",
        ),
    ),
]


def test_phase_fading_pinned_bits():
    for (gains, input_var, noise_psd), expected in PINNED_FADING:
        report = _fading(gains, input_var, noise_psd)
        assert tuple(v.hex() for v in report.scaled_mi) == expected


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links(), SCALES)
def test_phase_fading_joint_scaling(link, t):
    # scaling every gain by t and N0 by t^2 leaves every variance ratio as it was
    gains, input_var, noise_psd = link
    base = _fading(gains, input_var, noise_psd)
    scaled = _fading(gains * t, input_var, noise_psd * t * t)
    np.testing.assert_allclose(scaled.scaled_mi, base.scaled_mi, rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links())
def test_phase_fading_link_swap(link):
    gains, input_var, noise_psd = link
    base = _fading(gains, input_var, noise_psd)
    swapped = _fading(gains[::-1], input_var[::-1], noise_psd)
    np.testing.assert_array_equal(swapped.scaled_mi, base.scaled_mi)
    assert swapped.target == base.target


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links())
def test_phase_fading_monotone_below_target(link):
    # each value is within about 4e-16 relative of the exact one, so two
    # values that agree to that accuracy may come out in either order
    report = _fading(*link)
    values = report.scaled_mi
    assert np.all(np.diff(values) >= -1e-15 * values[1:])
    assert np.all(values <= report.target * (1.0 + 1e-12))


@st.composite
def finite_joints(draw):
    """A joint (U, X) of one to six atoms on the ``UNIT`` grid in one or two
    complex dimensions, up to three labels and probabilities in small integer
    ratios, with two gain vectors from the same grid.

    N0 is drawn relative to var[c1^H X], so that the SNR at the lowest
    bandwidth spans 1e-1 to 1e3. The values are sums of log-densities of
    order 1 whose differences are about SNR / B per channel use, so each
    carries an absolute rounding error of about 1e-16 B: at B = 1e5 that is
    1e-9 of the total once var[c1^H X] / N0 falls to about 1e-2.
    """
    atoms = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 2))

    def vector():
        return np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(dim)])

    x = np.array([vector() for _ in range(atoms)])
    labels = [float(draw(st.integers(0, 2))) for _ in range(atoms)]
    weights = np.array([draw(st.integers(1, 4)) for _ in range(atoms)], dtype=float)
    c1 = vector()
    c2 = c1 if draw(st.booleans()) else vector()
    probs = weights / weights.sum()
    s1 = x @ c1.conj()
    spread = float(probs @ np.abs(s1 - probs @ s1) ** 2)
    assume(spread > 0.0)
    noise_psd = spread * 10.0 ** draw(st.integers(-3, 1)) / 10.0
    return FiniteJoint(x=x, y=labels, probs=probs), c1, c2, noise_psd


def _sweeps(reports):
    return np.array([reports.total.scaled_mi, reports.marginal.scaled_mi,
                     reports.conditional.scaled_mi])


def _targets(reports):
    return np.array([reports.total.target, reports.marginal.target,
                     reports.conditional.target])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(finite_joints(), SCALES)
def test_conditional_limits_joint_scaling(case, t):
    # scaling every atom by t and N0 by t^2 leaves every variance ratio as it was
    joint, c1, c2, noise_psd = case
    base = check_conditional_limits(joint, c1, c2, noise_psd)
    scaled_joint = FiniteJoint(x=joint.x * t, y=joint.y, probs=joint.probs)
    scaled = check_conditional_limits(scaled_joint, c1, c2, noise_psd * t * t)
    scale = np.max(np.abs(base.total.scaled_mi))
    np.testing.assert_allclose(_sweeps(scaled), _sweeps(base), rtol=0.0, atol=1e-9 * scale)
    np.testing.assert_allclose(_targets(scaled), _targets(base), rtol=1e-12, atol=1e-12 * scale)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(finite_joints(), st.randoms(use_true_random=False))
def test_conditional_limits_atom_permutation(case, random):
    # the atoms are a set: listing them in another order, each with its label
    # and probability, changes nothing
    joint, c1, c2, noise_psd = case
    order = list(range(joint.probs.size))
    random.shuffle(order)
    permuted = FiniteJoint(x=joint.x[order], y=joint.y[order], probs=joint.probs[order])
    base = check_conditional_limits(joint, c1, c2, noise_psd)
    moved = check_conditional_limits(permuted, c1, c2, noise_psd)
    scale = np.max(np.abs(base.total.scaled_mi))
    np.testing.assert_allclose(_sweeps(moved), _sweeps(base), rtol=0.0, atol=1e-9 * scale)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(finite_joints())
def test_conditional_limits_conditional_sweep_reads_c2_only(case):
    # the conditional sweep depends on c2 alone; with c1 == c2 it is read from
    # the first pass, otherwise a second pass computes it
    joint, c1, c2, noise_psd = case
    mixed = check_conditional_limits(joint, c1, c2, noise_psd)
    same = check_conditional_limits(joint, c2, c2, noise_psd)
    scale = max(np.max(np.abs(mixed.total.scaled_mi)), np.max(np.abs(same.total.scaled_mi)))
    np.testing.assert_allclose(mixed.conditional.scaled_mi, same.conditional.scaled_mi,
                               rtol=0.0, atol=1e-9 * scale)
