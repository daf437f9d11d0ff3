"""Diamond-network rate regions: MAC cut, broadcast cut, beamforming, and
the minimum-power formula."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycap import (
    BeamformingWeights,
    CommonPrivateAllocation,
    CsiMode,
    RatePoint,
    beamforming_condition,
    beamforming_rates,
    broadcast_outer_rates,
    broadcast_region_gap,
    common_private_rates,
    mac_region_point,
    max_min_beam_gain,
    min_power,
)
from relaycap import regions
from relaycap.channel import rounding_slack
from relaycap.regions import (
    _CHUNK_CELLS,
    _RATE_BINS,
    _aimed_rates,
    _antenna_cells,
    _antenna_shares,
    _pareto_front,
    _suffix_max,
)

from helpers import diamond_config, single_relay_config


# ---------------------------------------------------------------- MAC cut


def test_mac_point_phase_fading():
    cfg = diamond_config(p2=2.0, p3=3.0, c42=1.0, c43=1.0)
    pt = mac_region_point(cfg)
    assert pt.r23_max == pytest.approx(2.0)
    assert pt.r32_max == pytest.approx(3.0)
    assert pt.r_sum_max == pytest.approx(5.0)
    assert not pt.rho_ignored
    # correlation cannot help without carrier phase: flagged and ignored
    pt = mac_region_point(cfg, rho=0.7)
    assert pt.rho_ignored
    assert pt.r_sum_max == pytest.approx(5.0)


def test_mac_point_synchronous_hand_case():
    cfg = diamond_config(p2=1.0, p3=1.0, c42=1.0, c43=1.0, csi=CsiMode.SYNCHRONOUS)
    pt = mac_region_point(cfg, rho=0.5)
    assert pt.r23_max == pytest.approx(0.75)
    assert pt.r32_max == pytest.approx(0.75)
    assert pt.r_sum_max == pytest.approx(3.0)
    assert not pt.rho_ignored


def test_mac_point_synchronous_endpoints():
    cfg = diamond_config(p2=2.0, p3=0.5, c42=1.5, c43=2.0, csi=CsiMode.SYNCHRONOUS)
    free = mac_region_point(cfg, rho=0.0)
    assert free.r23_max == pytest.approx(1.5**2 * 2.0)
    assert free.r_sum_max == pytest.approx(1.5**2 * 2.0 + 2.0**2 * 0.5)
    locked = mac_region_point(cfg, rho=1.0)
    assert locked.r23_max == 0.0
    assert locked.r32_max == 0.0
    # fully coherent relays act as one big antenna
    assert locked.r_sum_max == pytest.approx(
        (1.5 * math.sqrt(2.0) + 2.0 * math.sqrt(0.5)) ** 2
    )


def test_mac_point_budget_product_does_not_overflow():
    # P2 * P3 / N0**2 overflows, though each relay's link budget
    # |c|**2 P / N0 is 1, so the sum bound's coherent term must take one
    # square root per link budget
    cfg = diamond_config(p2=1e200, p3=1e200, c42=1e-100, c43=1e-100, csi=CsiMode.SYNCHRONOUS)
    points = [mac_region_point(cfg, rho) for rho in (0.0, 0.5, 1.0)]
    assert [(pt.r23_max, pt.r32_max, pt.r_sum_max) for pt in points] == [
        (1.0, 1.0, 2.0), (0.75, 0.75, 3.0), (0.0, 0.0, 4.0)]


def test_mac_point_sum_rate_concave_in_rho():
    cfg = diamond_config(p2=1.0, p3=2.0, c42=0.8, c43=1.1, csi=CsiMode.SYNCHRONOUS)
    rhos = np.linspace(0.0, 1.0, 21)
    sums = np.array([mac_region_point(cfg, rho=float(r)).r_sum_max for r in rhos])
    assert np.all(np.diff(sums) > 0)  # coherent gain grows with correlation
    second = np.diff(sums, 2)
    assert np.all(second <= 1e-9)


def test_mac_point_validation():
    cfg = diamond_config(csi=CsiMode.SYNCHRONOUS)
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
        mac_region_point(cfg, rho=-0.1)
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
        mac_region_point(cfg, rho=1.5)
    with pytest.raises(ValueError, match="rho must be finite"):
        mac_region_point(cfg, rho=float("nan"))
    with pytest.raises(ValueError, match="diamond"):
        mac_region_point(single_relay_config())


# ------------------------------------------------------------ broadcast cut


def test_common_private_hand_case():
    # antenna gains toward relay 2: (1, 0); toward relay 3: (0.36, 0.64)
    cfg = diamond_config(p1=2.0, p2=2.0, c21=(1.0, 0.0), c31=(0.6, 0.8))
    alloc = CommonPrivateAllocation(p1c=1.0, p2c=1.0, p12=0.5, p22=0.0, p13=0.0, p23=0.5)
    rates = common_private_rates(cfg, alloc)
    assert rates.rc == pytest.approx(1.0)  # both relays hear the common stream at 1
    assert rates.r2 == pytest.approx(1.5)
    assert rates.r3 == pytest.approx(1.32)
    assert rates.r_sum1 == pytest.approx(1.82)
    assert rates.r_sum2 == pytest.approx(1.82)
    assert rates.r_sum == pytest.approx(1.82)


def test_common_private_zero_allocation():
    cfg = diamond_config()
    zero = CommonPrivateAllocation(p1c=0.0, p2c=0.0, p12=0.0, p22=0.0, p13=0.0, p23=0.0)
    rates = common_private_rates(cfg, zero)
    assert rates.rc == 0.0
    assert rates.r_sum == 0.0


def test_outer_dominates_inner():
    rng = np.random.default_rng(14)
    for _ in range(20):
        cfg = diamond_config(
            p1=2.0,
            p2=2.0,
            c21=tuple(rng.normal(size=2)),
            c31=tuple(rng.normal(size=2)),
        )
        parts = rng.uniform(0.0, 1.0 / 3.0, size=6)
        alloc = CommonPrivateAllocation(*parts)
        inner = common_private_rates(cfg, alloc)
        outer = broadcast_outer_rates(cfg, alloc)
        assert outer.r2 >= inner.r2 - 1e-12
        assert outer.r3 >= inner.r3 - 1e-12
        # the sum bounds are the same expressions on both sides
        assert outer.r_sum1 == pytest.approx(inner.r_sum1)
        assert outer.r_sum2 == pytest.approx(inner.r_sum2)


def test_promoting_private_to_common_helps_under_dominated_gains():
    # when relay 3 hears every antenna at least as well as relay 2, moving
    # relay-2 private power into the common stream never hurts any rate
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = np.abs(rng.normal(size=2))
        b = a * rng.uniform(1.0, 2.0, size=2)  # elementwise stronger
        cfg = diamond_config(p1=3.0, p2=3.0, c21=tuple(a), c31=tuple(b))
        p1c, p12, p13 = rng.uniform(0.0, 1.0, size=3)
        p2c, p22, p23 = rng.uniform(0.0, 1.0, size=3)
        move = rng.uniform(0.0, p12)
        before = common_private_rates(
            cfg, CommonPrivateAllocation(p1c, p2c, p12, p22, p13, p23)
        )
        after = common_private_rates(
            cfg, CommonPrivateAllocation(p1c + move, p2c, p12 - move, p22, p13, p23)
        )
        for field in ("rc", "r2", "r3", "r_sum1", "r_sum2"):
            assert getattr(after, field) >= getattr(before, field) - 1e-12


def test_common_private_allocation_validation():
    with pytest.raises(ValueError, match="private power"):
        CommonPrivateAllocation(p1c=0.0, p2c=0.0, p12=-0.1, p22=0.0, p13=0.0, p23=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        CommonPrivateAllocation(p1c=float("nan"), p2c=0.0, p12=0.0, p22=0.0, p13=0.0, p23=0.0)
    # negative common power is allowed only while every stream stays nonneg
    ok = CommonPrivateAllocation(p1c=-0.2, p2c=0.0, p12=0.5, p22=0.0, p13=0.3, p23=0.0)
    assert ok.antenna1_total == pytest.approx(0.6)
    with pytest.raises(ValueError, match="may only offset"):
        CommonPrivateAllocation(p1c=-0.2, p2c=0.0, p12=0.5, p22=0.0, p13=0.1, p23=0.0)
    # the rounding allowance scales with the powers themselves
    with pytest.raises(ValueError, match="private power"):
        CommonPrivateAllocation(p1c=0.0, p2c=0.0, p12=-1e-13, p22=0.0, p13=0.0, p23=0.0)
    with pytest.raises(ValueError, match="may only offset"):
        CommonPrivateAllocation(p1c=-2e-13, p2c=0.0, p12=1e-13, p22=0.0, p13=5e-13, p23=0.0)


def test_common_private_budget_checks():
    cfg = diamond_config(p1=1.0, p2=1.0)
    with pytest.raises(ValueError, match="antenna 1 spends"):
        common_private_rates(
            cfg, CommonPrivateAllocation(p1c=0.8, p2c=0.0, p12=0.3, p22=0.0, p13=0.0, p23=0.0)
        )
    with pytest.raises(ValueError, match="antenna 2 spends"):
        broadcast_outer_rates(
            cfg, CommonPrivateAllocation(p1c=0.0, p2c=0.8, p12=0.0, p22=0.3, p13=0.0, p23=0.0)
        )
    # a tiny budget is held to its own scale: 500x over it is rejected
    tiny = diamond_config(p1=1e-15, p2=1e-15)
    with pytest.raises(ValueError, match="antenna 1 spends"):
        common_private_rates(
            tiny, CommonPrivateAllocation(p1c=0.0, p2c=0.0, p12=5e-13, p22=0.0, p13=0.0, p23=0.0)
        )
    common_private_rates(
        tiny, CommonPrivateAllocation(p1c=0.0, p2c=0.0, p12=5e-16, p22=1e-15, p13=5e-16, p23=0.0)
    )


@pytest.mark.parametrize("rates", [common_private_rates, broadcast_outer_rates])
def test_budget_checks_name_numpy_totals_that_overflow(rates):
    # numpy scalars warn on an add that overflows, which pytest makes an
    # error; the totals are formed in Python floats, so the check names inf
    huge, zero = np.float64(1e308), np.float64(0.0)
    with pytest.raises(ValueError, match=r"^antenna 1 spends inf W, budget is 2\.0 W$"):
        rates(diamond_config(), CommonPrivateAllocation(*(huge,) * 6))
    with pytest.raises(ValueError, match=r"^antenna 2 spends inf W, budget is 1\.0 W$"):
        rates(diamond_config(), CommonPrivateAllocation(zero, huge, zero, huge, zero, huge))


def test_common_private_requires_phase_fading_diamond():
    alloc = CommonPrivateAllocation(p1c=0.1, p2c=0.1, p12=0.0, p22=0.0, p13=0.0, p23=0.0)
    with pytest.raises(ValueError, match="csi mode"):
        common_private_rates(diamond_config(csi=CsiMode.SYNCHRONOUS), alloc)
    with pytest.raises(ValueError, match="diamond"):
        common_private_rates(single_relay_config(csi=CsiMode.PHASE_FADING), alloc)


# ----------------------------------------------------------- region matching


def test_rate_point_validation():
    RatePoint(r2=1.0, r3=2.0, r_sum=2.5)
    RatePoint(r2=1.0, r3=2.0, r_sum=2.0)  # r_sum = max(r2, r3) is allowed
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        RatePoint(r2=-1.0, r3=0.0, r_sum=0.0)
    with pytest.raises(ValueError, match="cannot exceed"):
        RatePoint(r2=1.0, r3=1.0, r_sum=2.5)
    with pytest.raises(ValueError, match="cannot be smaller"):
        RatePoint(r2=1.0, r3=2.0, r_sum=1.5)
    # the checks are relative: tiny rates get no absolute allowance
    with pytest.raises(ValueError, match="cannot exceed"):
        RatePoint(r2=1e-13, r3=1e-13, r_sum=1e-12)
    with pytest.raises(ValueError, match="cannot be smaller"):
        RatePoint(r2=1e-13, r3=2e-13, r_sum=1.5e-13)
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        RatePoint(r2=-1e-13, r3=0.0, r_sum=0.0)
    RatePoint(r2=1e-13, r3=1e-13, r_sum=2e-13 * (1.0 + 1e-15))


def _suffix_max_of(grid):
    """_suffix_max on a reversed copy of grid, read back in grid order."""
    reversed_grid = grid[::-1, ::-1].copy()
    _suffix_max(reversed_grid)
    return reversed_grid[::-1, ::-1]


def test_suffix_max():
    grid = np.array([[1.0, 5.0], [2.0, 0.0]])
    np.testing.assert_array_equal(_suffix_max_of(grid), [[5.0, 5.0], [2.0, 0.0]])
    rng = np.random.default_rng(0)
    g = rng.normal(size=(7, 9))
    cover = _suffix_max_of(g)
    for i in range(7):
        for j in range(9):
            assert cover[i, j] == g[i:, j:].max()


def test_broadcast_gap_symmetric_gains():
    # identical gain vectors: the common stream loses nothing, so the outer
    # box collapses onto the superposition region
    cfg = diamond_config(p1=2.0, p2=1.0, c21=(1.0, 0.5), c31=(1.0, 0.5))
    report = broadcast_region_gap(cfg, steps=8)
    assert report.max_gap <= 1e-9
    assert report.rate_resolution > 0.0
    assert report.steps == 8


def test_broadcast_gap_small_cases():
    # one elementwise-dominated pair and one crossed pair
    for c21, c31 in [((0.4, 0.3), (0.8, 0.9)), ((1.0, 0.2), (0.3, 0.9))]:
        cfg = diamond_config(p1=1.5, p2=2.0, c21=c21, c31=c31)
        report = broadcast_region_gap(cfg, steps=8)
        assert report.max_gap <= 2.0 * report.rate_resolution
        assert isinstance(report.worst_demand, RatePoint)


def test_broadcast_gap_zero_power():
    cfg = diamond_config(p1=0.0, p2=0.0)
    report = broadcast_region_gap(cfg, steps=4)
    assert report.max_gap == 0.0
    assert report.rate_resolution == 0.0


# Exact values pin the sweep's grid and rate arithmetic, down to which
# corner it reports first.
_GAP_CASES = {
    "dominated": dict(p1=1.5, p2=2.0, c21=(0.4, 0.3), c31=(0.8, 0.9)),
    "crossed": dict(p1=1.5, p2=2.0, c21=(1.0, 0.2), c31=(0.3, 0.9)),
    "noisy": dict(p1=0.324, p2=0.473, noise_psd=0.5, c21=(0.343, 1.175j), c31=(1.413, -0.854)),
    # g2 >= g3 on both antennas, so r2 reaches the last rate bin
    "swapped": dict(p1=1.5, p2=2.0, c21=(0.8, 0.9), c31=(0.4, 0.3)),
}
_GAP_PINNED = [
    ("dominated", 4, 0.0, 0.8600000000000001, (0.0, 2.58, 2.58)),
    ("dominated", 8, 0.0, 0.36857142857142855, (0.0, 2.58, 2.58)),
    ("crossed", 4, 0.0, 1.04, (1.5, 1.62, 3.12)),
    ("crossed", 8, 0.0, 0.44571428571428573, (1.5, 1.62, 3.12)),
    ("noisy", 4, 0.0, 0.8666159873333333, (1.3060712500000002, 1.293776712, 2.599847962)),
    ("noisy", 8, 0.0, 0.3714068517142858, (1.3060712500000002, 1.293776712, 2.599847962)),
    ("dominated", 12, 0.0, 0.23454545454545456, (0.0, 2.58, 2.58)),
    ("crossed", 12, 0.0, 0.28363636363636363, (1.5, 1.62, 3.12)),
    ("noisy", 12, 0.0, 0.23634981472727273, (1.3060712500000002, 1.293776712, 2.599847962)),
]


@pytest.mark.parametrize("name, steps, max_gap, resolution, worst", _GAP_PINNED)
def test_broadcast_gap_pinned_values(name, steps, max_gap, resolution, worst):
    report = broadcast_region_gap(diamond_config(**_GAP_CASES[name]), steps=steps)
    assert report.max_gap == max_gap
    assert report.rate_resolution == resolution
    demand = report.worst_demand
    assert (demand.r2, demand.r3, demand.r_sum) == worst


# (max_gap, rate_resolution, worst r2, r3, r_sum) as float.hex, computed
# before the sweep was chunked, where the full sweep is too slow to compare
# with: many chunks per pass, and occupied boxes that reach the last rate bin
# and so get no empty row or column ("dominated" fills the last r3 bin,
# "swapped" the last r2 bin)
_GAP_PINNED_HEX = [
    ("dominated", 16, ("0x0.0p+0", "0x1.604189374bc6bp-3", "0x0.0p+0", "0x1.4a3d70a3d70a4p+1", "0x1.4a3d70a3d70a4p+1")),
    ("dominated", 33, ("0x0.0p+0", "0x1.4a3d70a3d70a4p-4", "0x0.0p+0", "0x1.4a3d70a3d70a4p+1", "0x1.4a3d70a3d70a4p+1")),
    ("crossed", 16, ("0x0.0p+0", "0x1.a9fbe76c8b43ap-3", "0x1.8000000000000p+0", "0x1.9eb851eb851ecp+0", "0x1.8f5c28f5c28f6p+1")),
    ("crossed", 33, ("0x0.0p+0", "0x1.8f5c28f5c28f6p-4", "0x1.8000000000000p+0", "0x1.9eb851eb851ecp+0", "0x1.8f5c28f5c28f6p+1")),
    ("noisy", 16, ("0x0.0p+0", "0x1.62f745c60f538p-3", "0x1.4e5aaf78feef7p+0", "0x1.4b34f35a5dcd2p+0", "0x1.4cc7d169ae5e4p+1")),
    ("noisy", 33, ("0x0.0p+0", "0x1.4cc7d169ae5e4p-4", "0x1.4e5aaf78feef7p+0", "0x1.4b34f35a5dcd2p+0", "0x1.4cc7d169ae5e4p+1")),
    ("swapped", 16, ("0x0.0p+0", "0x1.604189374bc6bp-3", "0x1.4a3d70a3d70a4p+1", "0x0.0p+0", "0x1.4a3d70a3d70a4p+1")),
    ("swapped", 33, ("0x0.0p+0", "0x1.4a3d70a3d70a4p-4", "0x1.4a3d70a3d70a4p+1", "0x0.0p+0", "0x1.4a3d70a3d70a4p+1")),
]


@pytest.mark.parametrize("name, steps, fields", _GAP_PINNED_HEX)
def test_broadcast_gap_pinned_at_large_steps(name, steps, fields):
    report = broadcast_region_gap(diamond_config(**_GAP_CASES[name]), steps=steps)
    demand = report.worst_demand
    got = (report.max_gap, report.rate_resolution, demand.r2, demand.r3, demand.r_sum)
    assert tuple(float(x).hex() for x in got) == fields


def _stream_rates(g2, g3, p1c, p2c, p12, p22, p13, p23):
    """The sweep's arithmetic on arrays of powers of any shapes that
    broadcast together: ``(common2, common3, rc, private2, private3)``, each
    stream's rate antenna 1's share plus antenna 2's, and ``rc`` their
    elementwise minimum over the common stream, by ``np.minimum``."""
    shares1 = _antenna_shares(g2[0], g3[0], p1c, p12, p13)
    shares2 = _antenna_shares(g2[1], g3[1], p2c, p22, p23)
    common2, common3, private2, private3 = (share1 + share2 for share1, share2 in zip(shares1, shares2))
    return common2, common3, np.minimum(common2, common3), private2, private3


def _pointwise_masked_rates(g2, g3, b1, b2, steps, common1, common2):
    """The sweep's admission rule checked point by point over the flattened
    (p12, p22, p13, p23) grid, one common pair at a time."""
    private1 = np.linspace(0.0, b1, steps)
    private2 = np.linspace(0.0, b2, steps)
    p12, p22, p13, p23 = (
        arr.ravel() for arr in np.meshgrid(private1, private2, private1, private2, indexing="ij")
    )
    slack1 = rounding_slack(b1)
    slack2 = rounding_slack(b2)
    for p1c in common1:
        for p2c in common2:
            keep = (
                (p1c + (p12 + p13) <= b1 + slack1)
                & (p2c + (p22 + p23) <= b2 + slack2)
                & (p1c + np.minimum(p12, p13) >= -slack1)
                & (p2c + np.minimum(p22, p23) >= -slack2)
            )
            if keep.any():
                yield _stream_rates(g2, g3, p1c, p2c, p12[keep], p22[keep], p13[keep], p23[keep])


@pytest.mark.parametrize("steps", range(2, 41))
@pytest.mark.parametrize("outer", [False, True])
def test_top_partners_match_pointwise_rule(steps, outer):
    for budget in (0.0, 1e-300, 1e-6, 0.7, 1.5, 1e6, 1e300):
        private = np.linspace(0.0, budget, steps)
        # the common powers of the sweep's outer and achievable passes
        if outer:
            commons = np.linspace(-budget, budget, 2 * steps - 1)
        else:
            commons = private
        c, p, q = commons[:, None, None], private[:, None], private
        slack = rounding_slack(budget)
        fits = (c + (p + q) <= budget + slack) & (c + np.minimum(p, q) >= -slack)
        expected_rows, expected_cols = np.nonzero(fits.any(axis=2))
        # the largest admitted partner index of each admitted cell
        top = steps - 1 - np.argmax(fits[expected_rows, expected_cols, ::-1], axis=1)
        want = list(zip(commons[expected_rows].tolist(), private[expected_cols].tolist(), private[top].tolist()))
        if outer:
            # aiming P[x] at one relay leaves P[n - x] for the other's
            # private stream: with a unit gain to the other relay on antenna
            # 1 alone, the sum bound over x reads that rest
            _, sums = _aimed_rates((0.0, 0.0), (1.0, 0.0), (private, private))
            rest = sums.reshape(steps, steps)[:, 0]
            # a top cell aims x = i + j steps at relay 2 and y = n - j at
            # relay 3: common index x + y of commons, p the rest of y and q
            # the rest of x, for every pair (x, y) in [0, n]**2
            x, y = (arr.ravel() for arr in np.meshgrid(np.arange(steps), np.arange(steps), indexing="ij"))
            got = list(zip(commons[x + y].tolist(), rest[y].tolist(), rest[x].tolist()))
        else:
            # unit gains make the share table (c, c, p, q): each admitted
            # cell's common power, private power and top partner
            common, _, p_share, q_share = _antenna_cells(private, 1.0, 1.0)
            got = list(zip(common.tolist(), p_share.tolist(), q_share.tolist()))
        if budget > 0.0:
            assert sorted(got) == sorted(want), budget
        # every grid power is 0 at a zero budget, so the float rule admits
        # every cell: there only the admitted powers must agree
        assert set(got) == set(want), budget


def _reference_bins(cfg, steps):
    """The sweep's rate binning: ``(bins, resolution)``, with ``bins`` the
    rate bin of each rate, clipped into [0, 255]; None when every gain or
    budget is zero."""
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / cfg.noise_psd for key in ("c21", "c31"))
    gmax = np.maximum(g2, g3)
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    resolution = (b1 / (steps - 1)) * gmax[0] + (b2 / (steps - 1)) * gmax[1]
    axis_max = gmax[0] * b1 + gmax[1] * b2
    if axis_max <= 0.0:
        return None
    delta = axis_max / (_RATE_BINS - 1)

    def bins(rates):
        return np.minimum(np.maximum((rates / delta).astype(int), 0), _RATE_BINS - 1)

    return bins, resolution


def _reference_cover(cfg, steps):
    """The achievable pass over every admitted point of the power grid:
    ``(bins, resolution, cover)``, with ``cover[b2, b3]`` the best sum rate
    among points in rate bins at or beyond ``(b2, b3)``, on all 256 x 256
    bins; None when every gain or budget is zero."""
    binning = _reference_bins(cfg, steps)
    if binning is None:
        return None
    bins, resolution = binning
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / cfg.noise_psd for key in ("c21", "c31"))
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    achievable = np.full((_RATE_BINS, _RATE_BINS), -np.inf)
    commons = np.linspace(0.0, b1, steps), np.linspace(0.0, b2, steps)
    for _, _, rc, q2, q3 in _pointwise_masked_rates(g2, g3, b1, b2, steps, *commons):
        np.maximum.at(achievable, (bins(rc + q2), bins(rc + q3)), rc + q2 + q3)
    cover = np.maximum.accumulate(np.maximum.accumulate(achievable[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    return bins, resolution, cover


def _clip_into_cone(r2, r3, sum2, sum3):
    """Each outer corner clipped into the valid cone of rate triples:
    ``(r2, r3, r_sum)``."""
    r_sum = np.maximum(np.minimum(sum2, sum3), 0.0)
    r2 = np.minimum(np.maximum(r2, 0.0), r_sum)
    r3 = np.minimum(np.maximum(r3, 0.0), r_sum)
    return r2, r3, np.minimum(r_sum, r2 + r3)


def _clipped_gaps(bins, resolution, cover, r2, r3, sum2, sum3):
    """Each outer corner clipped into the valid cone of rate triples, and its
    gap: ``(r2, r3, r_sum, gap)``."""
    r2, r3, r_sum = _clip_into_cone(r2, r3, sum2, sum3)
    return r2, r3, r_sum, r_sum - cover[bins(r2 - resolution), bins(r3 - resolution)]


def _index_cells(steps):
    """Every cell (i, j, k) one antenna admits on the outer grid, common i h,
    privates j h and k h: i + j + k <= n, and j, k >= max(0, -i)."""
    n = steps - 1
    i, j, k = (arr.ravel() for arr in np.meshgrid(np.arange(-n, n + 1), np.arange(steps), np.arange(steps),
                                                  indexing="ij"))
    keep = (i + j + k <= n) & (j >= -i) & (k >= -i)
    return i[keep], j[keep], k[keep]


def _reference_gap(cfg, steps):
    """The sweep over every admitted point of the power grid, O(steps**6):
    (max_gap, rate_resolution, worst r2, r3, r_sum).

    The outer demands are in index form: per antenna, with x = i + j steps
    aimed at relay 2, y = i + k at relay 3, t = i + j + k spent and m the
    smaller gain, r2 = g2 P[x], r3 = g3 P[y] and the two sum bounds
    m P[t] + (g2 - m) P[x] + (g3 - m) P[k] and m P[t] + (g3 - m) P[y] +
    (g2 - m) P[j], which at the top partner k = n - i - j are the sweep's.
    Among the demands at the largest gap, the worst is the lexicographically
    largest (r_sum, r2, r3)."""
    reference = _reference_cover(cfg, steps)
    if reference is None:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / cfg.noise_psd for key in ("c21", "c31"))
    i, j, k = _index_cells(steps)
    x, y, t = i + j, i + k, i + j + k
    shares = []
    for a, budget in enumerate((cfg.powers["P1"], cfg.powers["P2"])):
        power = np.linspace(0.0, budget, steps)
        low = min(g2[a], g3[a])
        shares.append((
            g2[a] * power[x],
            g3[a] * power[y],
            low * power[t] + (g2[a] - low) * power[x] + (g3[a] - low) * power[k],
            low * power[t] + (g3[a] - low) * power[y] + (g2[a] - low) * power[j],
        ))
    # every pair of an antenna-1 and an antenna-2 cell, antenna 1's share first
    r2, r3, sum2, sum3 = (share1[:, None] + share2 for share1, share2 in zip(*shares))
    r2, r3, r_sum, gaps = (arr.ravel() for arr in _clipped_gaps(*reference, r2, r3, sum2, sum3))
    max_gap = gaps.max()
    tied = gaps == max_gap
    w = np.lexsort((r3[tied], r2[tied], r_sum[tied]))[-1]
    return (float(max_gap), reference[1], float(r2[tied][w]), float(r3[tied][w]), float(r_sum[tied][w]))


def _stream_sum_gap(cfg, steps):
    """The largest gap of the outer demands formed as :func:`_stream_rates`
    sums, over every admitted point of the power grid, O(steps**6)."""
    reference = _reference_cover(cfg, steps)
    if reference is None:
        return 0.0
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / cfg.noise_psd for key in ("c21", "c31"))
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    commons = np.linspace(-b1, b1, 2 * steps - 1), np.linspace(-b2, b2, 2 * steps - 1)
    return max(
        float(_clipped_gaps(*reference, c2 + q2, c3 + q3, rc + q2 + q3, rc + q2 + q3)[3].max())
        for c2, c3, rc, q2, q3 in _pointwise_masked_rates(g2, g3, b1, b2, steps, *commons)
    )


# gain entries on a grid of quarters, so exact zeros (a rate flat in one
# power) come up often, each entry at its own scale, so one power's share of
# a rate can vanish in rounding and tie the gaps of a slab
_QUARTERS = st.integers(-4, 4).map(lambda k: k / 4.0)
_SCALES = st.sampled_from([1e-6, 1.0, 1e6])


@st.composite
def _fading_diamonds(draw):
    def gains():
        return tuple(complex(draw(_QUARTERS), draw(_QUARTERS)) * draw(_SCALES) for _ in range(2))

    budget = st.one_of(st.just(0.0), st.integers(1, 12).map(lambda k: k / 4.0))
    power_scale = draw(_SCALES)
    return diamond_config(
        p1=draw(budget) * power_scale,
        p2=draw(budget) * power_scale,
        noise_psd=draw(_SCALES),
        c21=gains(),
        c31=gains(),
    )


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(cfg=_fading_diamonds(), steps=st.integers(2, 7))
# demands tie at the largest gap, and in grid order the first of them is
# not at its slab's top partner
@example(cfg=diamond_config(p1=1.75, p2=0.75, c21=(5e-3, 7.5e5), c31=(-2.5e-9, -0.1)), steps=5)
@example(cfg=diamond_config(p1=0.5, p2=0.75, c21=(-7.5e6, -7.5e-9), c31=(-1e3, -7.5e-2)), steps=5)
@example(cfg=diamond_config(p1=2.0, p2=0.25, c21=(1e7, 0.75), c31=(0.25, 5e-5)), steps=7)
# demands in several common rows tie at the largest gap
@example(
    cfg=diamond_config(p1=1.5, p2=2.0, c21=(5e5 - 1e6j, -7.5e5), c31=(-1e6 + 5e5j, 5e5 + 7.5e5j)), steps=7
)
# demands with several relay-2 private powers tie at the largest gap
@example(cfg=diamond_config(p1=1.0, p2=2.0, c21=(1 - 1j, -0.5 + 1j), c31=(1 + 1j, -0.5 + 1j)), steps=5)
# one zero budget: every power of that antenna's grid is 0, so the float
# rule of the reference admits all of its cells and the sweep only those
# whose grid indices keep the budget
@example(cfg=diamond_config(p1=0.0, p2=1.25, c21=(0.75 + 0.5j, -1.0), c31=(0.25, 1.0 - 0.5j)), steps=6)
@example(cfg=diamond_config(p1=1.75, p2=0.0, c21=(1.0, 0.5j), c31=(-0.25 + 0.75j, 1.0)), steps=7)
# an achievable r3 rounds one bin past bins(g3 . b), its closed-form maximum
@example(cfg=diamond_config(p1=1.5, p2=3.0, c21=(1 - 0.5j, 0.25 + 0.5j), c31=(-0.25 - 0.25j, -0.25 - 0.5j)), steps=3)
# relay 3 hears nothing, so every demand asks for r3 bin 0 and one r2 bin:
# a 2 x 2 lookup grid
@example(cfg=diamond_config(p1=1.5, p2=2.0, c21=(1.0, 0.5), c31=(0.0, 0.0)), steps=5)
# achievable points lie below every demanded bin on both axes, in the
# lookup grid's rank-0 row and column
@example(cfg=diamond_config(p1=1.5, p2=2.0, c21=(1.0, 0.2), c31=(0.3, 0.9)), steps=5)
def test_broadcast_gap_matches_full_sweep(cfg, steps):
    expected = [float(x).hex() for x in _reference_gap(cfg, steps)]
    # the achievable pass in one antenna-1 cell per chunk, the default, and
    # in one chunk
    for chunk_cells in (1, _CHUNK_CELLS, 2 ** 30):
        with mock.patch.object(regions, "_CHUNK_CELLS", chunk_cells):
            report = broadcast_region_gap(cfg, steps=steps)
        demand = report.worst_demand
        got = (report.max_gap, report.rate_resolution, demand.r2, demand.r3, demand.r_sum)
        assert [float(x).hex() for x in got] == expected, chunk_cells


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(cfg=_fading_diamonds(), steps=st.integers(2, 7))
def test_broadcast_gap_near_stream_sum_sweep(cfg, steps):
    # the outer demands formed stream by stream, as broadcast_outer_rates
    # forms them, round differently from the sweep's per-relay sums, by a
    # few units in the last place of the largest rate g . b ~ n * resolution
    report = broadcast_region_gap(cfg, steps=steps)
    tolerance = 8 * np.finfo(float).eps * (steps - 1) * report.rate_resolution
    assert abs(report.max_gap - _stream_sum_gap(cfg, steps)) <= tolerance


def _front_sizes(cfg, steps):
    """The sizes of the two Pareto fronts the sweep's outer pass pairs up."""
    sizes = []

    def spy(rates, sums):
        front = _pareto_front(rates, sums)
        sizes.append(len(front[0]))
        return front

    with mock.patch.object(regions, "_pareto_front", spy):
        broadcast_region_gap(cfg, steps=steps)
    return sizes


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(cfg=_fading_diamonds(), steps=st.integers(2, 33))
def test_broadcast_gap_evaluates_at_most_steps_squared_demands(cfg, steps):
    sizes = _front_sizes(cfg, steps)
    # a zero-power config returns before the outer pass
    assert sizes == [] or (len(sizes) == 2 and sizes[0] * sizes[1] <= steps ** 2)


def test_broadcast_gap_full_front_witness():
    # relay 3 hears both antennas better, so every power aimed at relay 2
    # trades r2 against the sum bound: all 33**2 pairs are on the relay-2
    # front, and relay 3's front is its full-power corner
    cfg = diamond_config(p1=1.0, p2=math.sqrt(2.0), c21=(1.0, 1.0), c31=(2.0, 2.0))
    assert _front_sizes(cfg, 33) == [33 ** 2, 1]


def _lookup_grids(cfg, steps):
    """The shapes of the cover grids the sweep's suffix maximum runs on,
    with the number of distinct rate bins its demands ask of relays 2 and
    3, from the two Pareto fronts it pairs up."""
    grids, fronts = [], []

    def grid_spy(reversed_grid):
        grids.append(reversed_grid.shape)
        _suffix_max(reversed_grid)

    def front_spy(rates, sums):
        fronts.append(_pareto_front(rates, sums))
        return fronts[-1]

    with mock.patch.object(regions, "_suffix_max", grid_spy), mock.patch.object(regions, "_pareto_front", front_spy):
        broadcast_region_gap(cfg, steps=steps)
    if not grids:  # a zero-power config returns before both passes
        return grids, None
    bins, resolution = _reference_bins(cfg, steps)
    (r2, sum2), (r3, sum3) = fronts
    r2, r3, _ = _clip_into_cone(r2[:, None], r3, sum2[:, None], sum3)
    return grids, tuple(len(np.unique(bins(r - resolution))) for r in (r2, r3))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(cfg=_fading_diamonds(), steps=st.integers(2, 33))
def test_broadcast_gap_lookup_spans_the_demanded_bins(cfg, steps):
    # one row per distinct r2 bin the demands ask for and one column per r3
    # bin, plus one of each for points that reach no demanded bin; with at
    # most steps**2 demands, never more than (steps**2 + 1)**2 cells
    grids, demanded = _lookup_grids(cfg, steps)
    for rows, cols in grids:
        assert rows * cols <= (demanded[0] + 1) * (demanded[1] + 1)
        assert rows * cols <= (steps ** 2 + 1) ** 2


@pytest.mark.parametrize("steps, shape", [(8, (6, 9)), (12, (8, 13)), (16, (10, 17)), (33, (18, 34))])
def test_broadcast_gap_lookup_grid_on_the_default_diamond(steps, shape):
    # a box of every rate bin below the closed-form rate maxima would be
    # 196 x 134 here at every steps
    grids, demanded = _lookup_grids(diamond_config(), steps)
    assert grids == [shape]
    assert shape == (demanded[0] + 1, demanded[1] + 1)


@st.composite
def _fading_allocations(draw):
    """A diamond from :func:`_fading_diamonds` and a broadcast-cut allocation
    it admits: private powers anywhere in the antenna's budget, and a common
    power from minus the smaller private power up to the rest of the budget."""
    cfg = draw(_fading_diamonds())
    fractions = st.floats(0.0, 1.0)

    def antenna(budget):
        p = budget * draw(fractions)
        q = (budget - p) * draw(fractions)
        low = -min(p, q)
        return low + (budget - p - q - low) * draw(fractions), p, q

    (p1c, p12, p13), (p2c, p22, p23) = antenna(cfg.powers["P1"]), antenna(cfg.powers["P2"])
    return cfg, CommonPrivateAllocation(p1c=p1c, p2c=p2c, p12=p12, p22=p22, p13=p13, p23=p23)


def _table_allocation(cfg, rows, row):
    """Row ``row`` of the common/private splits that ``relaycap region --cut
    broadcast --steps rows`` tabulates: every power an ``np.float64``, as the
    fractions come from ``np.linspace``."""
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    frac = np.linspace(0.0, 1.0, rows)[row]
    return CommonPrivateAllocation(
        p1c=frac * b1, p2c=frac * b2,
        p12=(1.0 - frac) * b1 / 2.0, p22=(1.0 - frac) * b2 / 2.0,
        p13=(1.0 - frac) * b1 / 2.0, p23=(1.0 - frac) * b2 / 2.0,
    )


_NOISY_DIAMOND = diamond_config(**_GAP_CASES["noisy"])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=_fading_allocations())
# a negative common power that cancels a private stream on each antenna
@example(
    case=(
        diamond_config(p1=1.5, p2=2.0, c21=(0.25, -1e6j), c31=(0.0, 0.75e-6)),
        CommonPrivateAllocation(p1c=-0.5, p2c=-0.25, p12=0.5, p22=1.0, p13=1.0, p23=0.25),
    )
)
# numpy scalar powers, as the CLI's rate table forms them
@example(case=(_NOISY_DIAMOND, _table_allocation(_NOISY_DIAMOND, 33, 13)))
def test_rate_functions_share_the_sweeps_arithmetic(case):
    # the rate functions work on scalar gains and powers; the sweep evaluates
    # the same formula elementwise on arrays: both give the same bits
    cfg, alloc = case
    g2, g3 = (np.abs(cfg.gain(key)) ** 2 / cfg.noise_psd for key in ("c21", "c31"))
    powers = (np.array([getattr(alloc, name)]) for name in ("p1c", "p2c", "p12", "p22", "p13", "p23"))
    common2, common3, rc, private2, private3 = (value[0] for value in _stream_rates(g2, g3, *powers))
    sums = (common2 + private2 + private3, common3 + private2 + private3)
    inner = common_private_rates(cfg, alloc)
    outer = broadcast_outer_rates(cfg, alloc)
    cases = [
        ((inner.rc, inner.r2, inner.r3, inner.r_sum1, inner.r_sum2), (rc, rc + private2, rc + private3, *sums)),
        ((outer.r2, outer.r3, outer.r_sum1, outer.r_sum2), (common2 + private2, common3 + private3, *sums)),
    ]
    for got, want in cases:
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


class _ScatterShapes:
    """Stands in for ``numpy`` in ``regions``: ``maximum.at`` records the
    dimensions of the index and value arrays it is handed and the number of
    values, and forwards."""

    class _Maximum:
        def __init__(self):
            self.ndims = []
            self.sizes = []

        def __call__(self, *args, **kwargs):
            return np.maximum(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.maximum, name)

        def at(self, target, indices, values):
            self.ndims.append((np.ndim(indices), np.ndim(values)))
            self.sizes.append(np.size(values))
            np.maximum.at(target, indices, values)

    def __init__(self):
        self.maximum = self._Maximum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("name, steps, fields", _GAP_PINNED_HEX)
def test_broadcast_gap_scatters_on_one_dimensional_arrays(name, steps, fields):
    # maximum.at on a 2-D index takes numpy's generic loop, several times
    # slower than on a 1-D one; a max is exact, so the bits stay pinned
    proxy = _ScatterShapes()
    with mock.patch.object(regions, "np", proxy):
        report = broadcast_region_gap(diamond_config(**_GAP_CASES[name]), steps=steps)
    assert proxy.maximum.ndims
    assert set(proxy.maximum.ndims) == {(1, 1)}
    demand = report.worst_demand
    got = (report.max_gap, report.rate_resolution, demand.r2, demand.r3, demand.r_sum)
    assert tuple(float(x).hex() for x in got) == fields


def test_broadcast_gap_evaluates_few_chunks():
    # the achievable pass scatters a chunk of at most _CHUNK_CELLS points at
    # a time: at steps 16 each antenna admits 136 cells, so a chunk pairs 30
    # antenna-1 cells with all of antenna 2's, 5 chunks in all
    proxy = _ScatterShapes()
    with mock.patch.object(regions, "np", proxy):
        broadcast_region_gap(diamond_config(), steps=16)
    assert 0 < len(proxy.maximum.sizes) <= 5
    assert max(proxy.maximum.sizes) <= _CHUNK_CELLS


def test_broadcast_gap_memory_stays_small_at_steps_8():
    # the cover grid has one row and column per demanded rate bin, 6 x 9
    # cells here, where the box of bins below the closed-form rate maxima
    # took 196 x 134 (0.21 MB, for a traced peak of 0.34 MB), and the outer
    # pass holds at most 8**2 demands, for a traced peak of 0.14 MB
    cfg = diamond_config()
    broadcast_region_gap(cfg, steps=8)  # warm-up
    tracemalloc.start()
    try:
        broadcast_region_gap(cfg, steps=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_broadcast_gap_memory_stays_small():
    # the achievable pass holds a chunk of at most _CHUNK_CELLS cells at a
    # time, not the steps^4 grid (0.5 MB per array at steps 16), and the
    # cover grid 10 x 17 cells, for a traced peak of 0.55 MB (0.72 MB with
    # the 196 x 134 box of rate bins); a per-point mask over that grid would
    # need about 8 MB
    cfg = diamond_config()
    broadcast_region_gap(cfg, steps=16)  # warm-up
    tracemalloc.start()
    try:
        broadcast_region_gap(cfg, steps=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 650_000


def test_broadcast_gap_memory_stays_small_at_steps_33():
    # each achievable chunk pairs 7 antenna-1 cells with all 561 of antenna
    # 2, 3927 points or about 31 kB per array, the outer pass holds at most
    # 33**2 demands and the cover grid 18 x 34 cells, for a traced peak of
    # 0.56 MB; chunks of whole common-1 rows, up to 33 x 561 points, peaked
    # at 1.96 MB, and all steps**4 / 4 points at once would take 2.5 MB
    # per array
    cfg = diamond_config()
    broadcast_region_gap(cfg, steps=33)  # warm-up
    tracemalloc.start()
    try:
        broadcast_region_gap(cfg, steps=33)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 800_000


def test_broadcast_gap_validation():
    cfg = diamond_config()
    with pytest.raises(ValueError, match="steps"):
        broadcast_region_gap(cfg, steps=1)
    for steps in (2.5, 8.0, "8"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            broadcast_region_gap(cfg, steps=steps)
    with pytest.raises(ValueError, match="csi mode"):
        broadcast_region_gap(diamond_config(csi=CsiMode.SYNCHRONOUS))
    # a numpy integer is taken, and the report carries a Python int
    report = broadcast_region_gap(cfg, steps=np.int64(8))
    assert type(report.steps) is int and report.steps == 8
    assert report == broadcast_region_gap(cfg, steps=8)


# ------------------------------------------------------------- beamforming


def test_beamforming_condition():
    e1 = np.array([1.0, 0.0])
    assert beamforming_condition(e1, 0.5 * e1)  # aligned: always degraded
    assert beamforming_condition(2.0 * e1, e1)
    assert not beamforming_condition(e1, np.array([0.0, 1.0]))  # orthogonal
    # equal-norm vectors 0.4 rad apart: the counterexample geometry
    v = np.array([math.cos(0.4), math.sin(0.4)])
    assert not beamforming_condition(e1, v)
    # but scaling one vector down restores degradedness
    assert beamforming_condition(0.5 * v, e1)
    # the verdict does not depend on the scale of the gains
    assert not beamforming_condition(1e-6 * e1, 1e-6 * v)
    assert beamforming_condition(0.5e-6 * v, 1e-6 * e1)


def test_beamforming_rates_hand_case():
    # identical unit gain vectors, one Watt per beam: the stronger relay
    # (relay 2 by convention on ties) decodes both streams
    cfg = diamond_config(p1=2.0, c21=(1.0, 0.0), c31=(1.0, 0.0), csi=CsiMode.SYNCHRONOUS)
    rates = beamforming_rates(cfg, BeamformingWeights(private=1.0, common=1.0))
    assert rates.r2 == pytest.approx(2.0)
    assert rates.r3 == pytest.approx(1.0)
    assert not rates.roles_swapped


def test_beamforming_rates_swapped_roles():
    cfg = diamond_config(p1=2.0, c21=(1.0, 0.0), c31=(2.0, 0.0), csi=CsiMode.SYNCHRONOUS)
    rates = beamforming_rates(cfg, BeamformingWeights(private=0.25, common=1.0))
    # relay 3 is stronger: private beam rides on c31 (gain 4), common on c21
    assert rates.roles_swapped
    assert rates.r3 == pytest.approx(0.25 * 16.0 + 1.0)
    assert rates.r2 == pytest.approx(1.0)


def test_beamforming_rates_common_only():
    cfg = diamond_config(p1=2.0, c21=(1.0, 0.0), c31=(0.5, 0.0), csi=CsiMode.SYNCHRONOUS)
    rates = beamforming_rates(cfg, BeamformingWeights(private=0.0, common=2.0))
    # both relays decode only the common beam on the weak vector (gain 0.25)
    assert rates.r2 == pytest.approx(rates.r3)
    assert rates.r2 == pytest.approx(2.0 * 0.25**2)


def test_beamforming_rates_errors():
    cfg = diamond_config(p1=1.0, c21=(1.0, 0.0), c31=(0.5, 0.0), csi=CsiMode.SYNCHRONOUS)
    with pytest.raises(ValueError, match="spend"):
        beamforming_rates(cfg, BeamformingWeights(private=2.0, common=0.0))
    tiny = diamond_config(p1=1e-15, c21=(1.0, 0.0), c31=(0.5, 0.0), csi=CsiMode.SYNCHRONOUS)
    with pytest.raises(ValueError, match="spend"):
        beamforming_rates(tiny, BeamformingWeights(private=5e-13, common=0.0))
    ortho = diamond_config(c21=(1.0, 0.0), c31=(0.0, 1.0), csi=CsiMode.SYNCHRONOUS)
    with pytest.raises(ValueError, match="degraded"):
        beamforming_rates(ortho, BeamformingWeights(private=0.1, common=0.1))
    with pytest.raises(ValueError, match="csi mode"):
        beamforming_rates(diamond_config(), BeamformingWeights(private=0.1, common=0.1))
    with pytest.raises(ValueError, match="weight"):
        BeamformingWeights(private=-1.0, common=0.0)


# -------------------------------------------------------------- min power


def test_min_power_all_common():
    result = min_power(1.0, 1.0, 1.0, c2_sq=1.0, c3_sq=1.0, c0_sq=0.5)
    assert result.r_common == pytest.approx(1.0)
    assert result.r2_private == 0.0
    assert result.r3_private == 0.0
    assert result.p_total == pytest.approx(2.0)


def test_min_power_no_common():
    result = min_power(1.0, 2.0, 3.0, c2_sq=0.5, c3_sq=2.0, c0_sq=1.0)
    assert result.r_common == 0.0
    assert result.r2_private == pytest.approx(1.0)
    assert result.r3_private == pytest.approx(2.0)
    assert result.p_total == pytest.approx(1.0 / 0.5 + 2.0 / 2.0)


def test_min_power_split_reconstructs_rates():
    rng = np.random.default_rng(16)
    for _ in range(50):
        r2, r3 = rng.uniform(0.1, 2.0, size=2)
        r_sum = rng.uniform(max(r2, r3), r2 + r3)
        res = min_power(r2, r3, r_sum, 1.3, 0.7, 0.6)
        assert res.r_common + res.r2_private == pytest.approx(r2, abs=1e-12)
        assert res.r_common + res.r3_private == pytest.approx(r3, abs=1e-12)
        assert res.r_common + res.r2_private + res.r3_private == pytest.approx(r_sum, abs=1e-12)


def test_min_power_monotone_in_beam_gains():
    base = min_power(1.0, 1.5, 2.0, 1.0, 1.0, 0.8).p_total
    better = min_power(1.0, 1.5, 2.0, 2.0, 1.0, 0.8).p_total
    assert better < base


def test_min_power_validation():
    with pytest.raises(ValueError, match="cannot exceed"):
        min_power(1.0, 1.0, 3.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="c0_sq"):
        min_power(1.0, 1.0, 1.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="c2_sq"):
        min_power(1.0, 1.0, 1.5, -1.0, 1.0, 1.0)


# ------------------------------------------------------- shared-beam gain


def test_max_min_beam_gain_aligned():
    assert max_min_beam_gain(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_max_min_beam_gain_orthogonal_unit():
    value = max_min_beam_gain(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert value == pytest.approx(0.5, abs=1e-12)


def test_max_min_beam_gain_equal_norm_split():
    # unit vectors 0.4 rad apart: the best shared beam bisects the angle
    c2 = np.array([1.0, 0.0])
    c3 = np.array([math.cos(0.4), math.sin(0.4)])
    assert max_min_beam_gain(c2, c3) == pytest.approx(math.cos(0.2) ** 2, abs=1e-12)


def test_max_min_beam_gain_invariances():
    rng = np.random.default_rng(17)
    c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    c3 = rng.normal(size=2) + 1j * rng.normal(size=2)
    base = max_min_beam_gain(c2, c3)
    assert max_min_beam_gain(c3, c2) == pytest.approx(base, rel=1e-12)
    assert max_min_beam_gain(np.exp(0.7j) * c2, c3) == pytest.approx(base, rel=1e-12)


def test_max_min_beam_gain_sampling_oracle():
    # the closed form must match a direct maximization over Haar-random unit
    # vectors on both of its branches (beamforming condition holding or not)
    # and at 1e+-6 ratios between the two gain norms
    rng = np.random.default_rng(18)
    near_orthogonal = math.pi / 2.0 - 1e-7
    pairs = [
        (rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=2) + 1j * rng.normal(size=2))
        for _ in range(5)
    ] + [
        (np.array([1.0, 0.0]), np.array([2.0, 0.5j])),  # condition holds
        (np.array([1.0, 0.0]), np.array([0.3, 1.0])),  # condition fails
        (1e-6 * np.array([1.0, 0.0]), 1e-6 * np.array([0.3, 1.0])),  # fails, tiny gains
        (np.array([1.0, 0.0]), 1e6 * np.array([0.6, 0.8j])),  # holds, ratio 1e6
        (np.array([1.0, 0.0]), 1e-6 * np.array([0.6, 0.8j])),  # holds, ratio 1e-6
        (np.array([1.0, 0.0]), 1e6 * np.array([math.cos(near_orthogonal), math.sin(near_orthogonal)])),
        (1e-6 * np.array([1.0, 0.0]), np.array([math.cos(near_orthogonal), math.sin(near_orthogonal)])),
    ]
    branches = set()
    for c2, c3 in pairs:
        branches.add(beamforming_condition(c2, c3))
        value = max_min_beam_gain(c2, c3)
        u = rng.normal(size=(100_000, 2)) + 1j * rng.normal(size=(100_000, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sampled = np.minimum(np.abs(u @ c2.conj()) ** 2, np.abs(u @ c3.conj()) ** 2).max()
        assert sampled <= value * (1.0 + 1e-9)
        assert sampled >= value * (1.0 - 5e-3)
    assert branches == {True, False}


def test_max_min_beam_gain_rejects_zero_vectors():
    with pytest.raises(ValueError, match="nonzero"):
        max_min_beam_gain(np.zeros(2), np.array([1.0, 0.0]))
    # and non-finite ones, which would otherwise come back as nan
    for c2, c3 in [((math.nan, 0.0), (1.0, 0.0)), ((math.inf, 0.0), (1.0, 1.0)), ((1.0, 0.0), (0.0, -math.inf))]:
        with pytest.raises(ValueError, match="finite"):
            max_min_beam_gain(np.array(c2), np.array(c3))
