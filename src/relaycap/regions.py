"""Rate regions for the two-relay diamond network.

The source has two antennas and talks to two single-antenna relays, which
forward to a common destination.  In the low-power limit the interesting
cuts are:

* the relay-to-destination MAC cut (:func:`mac_region_point`), where the
  relays may correlate their transmissions;
* the source broadcast cut with phase fading, for which superposition
  coding with a common and two private streams gives an inner bound
  (:func:`common_private_rates`) that can be compared numerically against
  the cut-set outer bound (:func:`broadcast_region_gap`);
* the synchronous broadcast cut, where rank-one beamforming attains a
  simple triangular region when one relay's channel is degraded with
  respect to the other (:func:`beamforming_rates`), and the minimum total
  power for a target rate triple has a closed form (:func:`min_power`).

Rates are nats per second, powers Watts.  For the broadcast cut the budgets
``P1`` and ``P2`` are interpreted per source antenna.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, CsiMode, Topology, angle_between

__all__ = [
    "MacRegionPoint",
    "mac_region_point",
    "CommonPrivateAllocation",
    "CommonPrivateRates",
    "BroadcastOuterRates",
    "common_private_rates",
    "broadcast_outer_rates",
    "BroadcastGapReport",
    "broadcast_region_gap",
    "RatePoint",
    "beamforming_condition",
    "BeamformingWeights",
    "BeamformingRates",
    "beamforming_rates",
    "MinPowerResult",
    "min_power",
    "max_min_beam_gain",
]

_TOL = 1e-12


def _require_diamond(cfg: ChannelConfig, what: str, csi: CsiMode | None = None) -> None:
    if cfg.topology is not Topology.TWO_RELAY_DIAMOND:
        raise ValueError(f"{what} requires the two-relay diamond topology, got {cfg.topology.value!r}")
    if csi is not None and cfg.csi is not csi:
        raise ValueError(f"{what} requires csi mode {csi.value!r}, got {cfg.csi.value!r}")


@dataclass(frozen=True)
class MacRegionPoint:
    """One point of the relay-to-destination MAC cut region.

    ``rho`` is the correlation coefficient between the relay signals;
    ``rho_ignored`` flags that phase fading made it irrelevant.
    """

    r23_max: float
    r32_max: float
    r_sum_max: float
    rho: float
    rho_ignored: bool = False


def mac_region_point(cfg: ChannelConfig, rho: float = 0.0) -> MacRegionPoint:
    """Evaluate the MAC cut bounds at one relay correlation coefficient.

    With synchronized carriers the individual bounds shrink by ``1 - rho**2``
    while the sum bound gains a coherent term; under phase fading the
    correlation cannot be exploited and ``rho`` is ignored.
    """
    _require_diamond(cfg, "mac_region_point")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    n0 = cfg.noise_psd
    m42 = abs(cfg.scalar_gain("c42"))
    m43 = abs(cfg.scalar_gain("c43"))
    p2 = cfg.powers["P2"] / n0
    p3 = cfg.powers["P3"] / n0
    if cfg.csi is CsiMode.PHASE_FADING:
        return MacRegionPoint(
            r23_max=m42 ** 2 * p2,
            r32_max=m43 ** 2 * p3,
            r_sum_max=m42 ** 2 * p2 + m43 ** 2 * p3,
            rho=rho,
            rho_ignored=rho != 0.0,
        )
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1] for the synchronous cut, got {rho!r}")
    off = 1.0 - rho ** 2
    return MacRegionPoint(
        r23_max=m42 ** 2 * p2 * off,
        r32_max=m43 ** 2 * p3 * off,
        r_sum_max=m42 ** 2 * p2 + m43 ** 2 * p3 + 2.0 * rho * m42 * m43 * math.sqrt(p2 * p3),
        rho=rho,
    )


@dataclass(frozen=True)
class CommonPrivateAllocation:
    """Per-antenna power split for superposition coding on the broadcast cut.

    ``p1c``/``p2c`` feed the common stream from antennas 1 and 2; ``p12``,
    ``p22`` the private stream for relay 2 and ``p13``, ``p23`` the private
    stream for relay 3.  The common powers may be negative (they then cancel
    private-stream power at an antenna) as long as every stream's total
    power per antenna stays nonnegative.
    """

    p1c: float
    p2c: float
    p12: float
    p22: float
    p13: float
    p23: float

    def __post_init__(self) -> None:
        for name in ("p1c", "p2c", "p12", "p22", "p13", "p23"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"power {name!r} must be finite, got {value!r}")
        for name in ("p12", "p22", "p13", "p23"):
            if getattr(self, name) < -_TOL:
                raise ValueError(f"private power {name!r} must be >= 0")
        for common, private in (("p1c", "p12"), ("p1c", "p13"), ("p2c", "p22"), ("p2c", "p23")):
            if getattr(self, common) + getattr(self, private) < -_TOL:
                raise ValueError(
                    f"stream power {common} + {private} must be >= 0; negative common power "
                    "may only offset private power on the same antenna"
                )

    @property
    def antenna1_total(self) -> float:
        return self.p1c + self.p12 + self.p13

    @property
    def antenna2_total(self) -> float:
        return self.p2c + self.p22 + self.p23


@dataclass(frozen=True)
class CommonPrivateRates:
    """Inner-bound rates of superposition coding: common stream rate ``rc``,
    per-relay totals ``r2``/``r3`` and the two sum-rate caps."""

    rc: float
    r2: float
    r3: float
    r_sum1: float
    r_sum2: float

    @property
    def r_sum(self) -> float:
        return min(self.r_sum1, self.r_sum2)


@dataclass(frozen=True)
class BroadcastOuterRates:
    """Cut-set outer box evaluated at one power allocation."""

    r2: float
    r3: float
    r_sum1: float
    r_sum2: float

    @property
    def r_sum(self) -> float:
        return min(self.r_sum1, self.r_sum2)


def _broadcast_gains(cfg: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    g2 = np.abs(cfg.gain("c21")) ** 2 / cfg.noise_psd
    g3 = np.abs(cfg.gain("c31")) ** 2 / cfg.noise_psd
    return g2, g3


def _check_antenna_budgets(cfg: ChannelConfig, alloc: CommonPrivateAllocation) -> None:
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    if alloc.antenna1_total > b1 + _TOL * max(1.0, b1):
        raise ValueError(f"antenna 1 spends {alloc.antenna1_total!r} W, budget is {b1!r} W")
    if alloc.antenna2_total > b2 + _TOL * max(1.0, b2):
        raise ValueError(f"antenna 2 spends {alloc.antenna2_total!r} W, budget is {b2!r} W")


def _stream_rates(cfg: ChannelConfig, alloc: CommonPrivateAllocation):
    """Rate each stream carries to each relay on its own: ``(common2, common3, private2, private3)``."""
    g2, g3 = _broadcast_gains(cfg)
    common2 = g2[0] * alloc.p1c + g2[1] * alloc.p2c
    common3 = g3[0] * alloc.p1c + g3[1] * alloc.p2c
    private2 = g2[0] * alloc.p12 + g2[1] * alloc.p22
    private3 = g3[0] * alloc.p13 + g3[1] * alloc.p23
    return common2, common3, private2, private3


def common_private_rates(cfg: ChannelConfig, alloc: CommonPrivateAllocation) -> CommonPrivateRates:
    """Rates achieved by common/private superposition under phase fading.

    The common stream must be decodable by both relays, so it is limited by
    the weaker link; each private stream adds on top at its own relay.
    """
    _require_diamond(cfg, "common_private_rates", CsiMode.PHASE_FADING)
    _check_antenna_budgets(cfg, alloc)
    common2, common3, private2, private3 = _stream_rates(cfg, alloc)
    rc = min(common2, common3)
    return CommonPrivateRates(
        rc=rc,
        r2=rc + private2,
        r3=rc + private3,
        r_sum1=common2 + private2 + private3,
        r_sum2=common3 + private2 + private3,
    )


def broadcast_outer_rates(cfg: ChannelConfig, alloc: CommonPrivateAllocation) -> BroadcastOuterRates:
    """Cut-set outer bounds evaluated at the same power decomposition.

    Each relay sees the full power aimed its way (common plus own private);
    the sum bounds coincide with the inner ones, which is what makes the
    per-relay bounds the interesting comparison.
    """
    _require_diamond(cfg, "broadcast_outer_rates", CsiMode.PHASE_FADING)
    _check_antenna_budgets(cfg, alloc)
    common2, common3, private2, private3 = _stream_rates(cfg, alloc)
    return BroadcastOuterRates(
        r2=common2 + private2,
        r3=common3 + private3,
        r_sum1=common2 + private2 + private3,
        r_sum2=common3 + private2 + private3,
    )


@dataclass(frozen=True)
class RatePoint:
    """A feasible rate triple: per-relay rates and a sum-rate cap."""

    r2: float
    r3: float
    r_sum: float

    def __post_init__(self) -> None:
        for name in ("r2", "r3", "r_sum"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < -_TOL:
                raise ValueError(f"rate {name!r} must be finite and >= 0, got {value!r}")
        if self.r_sum > self.r2 + self.r3 + _TOL * max(1.0, self.r2 + self.r3):
            raise ValueError("r_sum cannot exceed r2 + r3")
        if self.r_sum < max(self.r2, self.r3) - _TOL * max(1.0, self.r_sum):
            raise ValueError("r_sum cannot be smaller than max(r2, r3)")


def _suffix_max(grid: np.ndarray) -> np.ndarray:
    """grid[i, j] -> max over cells (>= i, >= j)."""
    out = grid[::-1, ::-1]
    out = np.maximum.accumulate(out, axis=0)
    out = np.maximum.accumulate(out, axis=1)
    return out[::-1, ::-1].copy()


@dataclass(frozen=True)
class BroadcastGapReport:
    """Worst shortfall of superposition coding against the outer bound.

    ``max_gap`` is the largest amount (nats/s) by which some outer-bound
    demand triple exceeds what any achievable point with at least its
    per-relay rates offers in sum rate; ``rate_resolution`` is the rate
    quantization implied by the power grid, the natural yardstick for
    calling the gap zero.  ``worst_demand`` records the triple attaining the
    gap.  ``outer_points`` and ``achievable_points`` sample the two frontier
    surfaces as ``(r2, r3, best r_sum)`` rows.
    """

    max_gap: float
    rate_resolution: float
    matching_slack: float
    steps: int
    worst_demand: RatePoint
    outer_points: np.ndarray = field(repr=False)
    achievable_points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("outer_points", "achievable_points"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _frontier_points(grid: np.ndarray, edges: np.ndarray) -> np.ndarray:
    ii, jj = np.nonzero(np.isfinite(grid))
    if ii.size == 0:
        return np.empty((0, 3))
    return np.column_stack([edges[ii], edges[jj], grid[ii, jj]])


def broadcast_region_gap(
    cfg: ChannelConfig,
    steps: int = 16,
    rate_bins: int = 256,
    matching_slack: float | None = None,
) -> BroadcastGapReport:
    """Sweep both bounds on power grids and measure the worst mismatch.

    Every outer-bound corner is turned into a demand triple (clipped into
    the valid cone) and matched against the best achievable sum rate among
    grid points whose per-relay rates cover the demand up to
    ``matching_slack`` (default: the grid's rate resolution).  For the outer
    sweep the common powers also take negative values, which is where the
    outer box can poke out of the superposition region.
    """
    _require_diamond(cfg, "broadcast_region_gap", CsiMode.PHASE_FADING)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if rate_bins < 2:
        raise ValueError("rate_bins must be >= 2")
    g2, g3 = _broadcast_gains(cfg)
    gmax = np.maximum(g2, g3)
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    resolution = (b1 / (steps - 1)) * gmax[0] + (b2 / (steps - 1)) * gmax[1]
    slack = resolution if matching_slack is None else float(matching_slack)
    if slack < 0.0 or not math.isfinite(slack):
        raise ValueError(f"matching_slack must be finite and >= 0, got {matching_slack!r}")

    axis_max = gmax[0] * b1 + gmax[1] * b2
    if axis_max <= 0.0:
        zero = RatePoint(0.0, 0.0, 0.0)
        empty = np.zeros((1, 3))
        return BroadcastGapReport(0.0, 0.0, slack, steps, zero, empty, empty)
    delta = axis_max / (rate_bins - 1)
    edges = np.arange(rate_bins) * delta

    private1 = np.linspace(0.0, b1, steps)
    private2 = np.linspace(0.0, b2, steps)
    p12m, p22m, p13m, p23m = (
        arr.ravel() for arr in np.meshgrid(private1, private2, private1, private2, indexing="ij")
    )
    priv_rate2 = g2[0] * p12m + g2[1] * p22m
    priv_rate3 = g3[0] * p13m + g3[1] * p23m
    spent1 = p12m + p13m
    spent2 = p22m + p23m
    budget_tol1 = _TOL * max(1.0, b1)
    budget_tol2 = _TOL * max(1.0, b2)

    def bucket(values: np.ndarray) -> np.ndarray:
        return np.clip((values / delta).astype(int), 0, rate_bins - 1)

    ach_grid = np.full((rate_bins, rate_bins), -np.inf)
    for p1c in private1:
        for p2c in private2:
            keep = (p1c + spent1 <= b1 + budget_tol1) & (p2c + spent2 <= b2 + budget_tol2)
            if not keep.any():
                continue
            rc = min(g2[0] * p1c + g2[1] * p2c, g3[0] * p1c + g3[1] * p2c)
            r2 = rc + priv_rate2[keep]
            r3 = rc + priv_rate3[keep]
            r_sum = rc + priv_rate2[keep] + priv_rate3[keep]
            np.maximum.at(ach_grid, (bucket(r2), bucket(r3)), r_sum)
    ach_cover = _suffix_max(ach_grid)

    common1 = np.linspace(-b1, b1, 2 * steps - 1)
    common2_grid = np.linspace(-b2, b2, 2 * steps - 1)
    outer_grid = np.full((rate_bins, rate_bins), -np.inf)
    max_gap = -math.inf
    worst = (0.0, 0.0, 0.0)
    for p1c in common1:
        for p2c in common2_grid:
            keep = (
                (p1c + spent1 <= b1 + budget_tol1)
                & (p2c + spent2 <= b2 + budget_tol2)
                & (p1c + p12m >= -_TOL)
                & (p1c + p13m >= -_TOL)
                & (p2c + p22m >= -_TOL)
                & (p2c + p23m >= -_TOL)
            )
            if not keep.any():
                continue
            c2 = g2[0] * p1c + g2[1] * p2c
            c3 = g3[0] * p1c + g3[1] * p2c
            r2_raw = c2 + priv_rate2[keep]
            r3_raw = c3 + priv_rate3[keep]
            r_sum_raw = min(c2, c3) + priv_rate2[keep] + priv_rate3[keep]
            # clip each corner into the valid cone of rate triples
            r_sum_d = np.maximum(r_sum_raw, 0.0)
            r2_d = np.clip(r2_raw, 0.0, r_sum_d)
            r3_d = np.clip(r3_raw, 0.0, r_sum_d)
            r_sum_d = np.minimum(r_sum_d, r2_d + r3_d)
            # floor, not ceil: the bucket holding a point with r >= demand - slack
            # must stay inside the lookup, so matching is lenient by < one bin
            ii = np.clip(np.floor((r2_d - slack) / delta).astype(int), 0, rate_bins - 1)
            jj = np.clip(np.floor((r3_d - slack) / delta).astype(int), 0, rate_bins - 1)
            gaps = r_sum_d - ach_cover[ii, jj]
            k = int(np.argmax(gaps))
            if gaps[k] > max_gap:
                max_gap = float(gaps[k])
                worst = (float(r2_d[k]), float(r3_d[k]), float(r_sum_d[k]))
            np.maximum.at(outer_grid, (bucket(r2_d), bucket(r3_d)), r_sum_d)

    return BroadcastGapReport(
        max_gap=max_gap,
        rate_resolution=resolution,
        matching_slack=slack,
        steps=steps,
        worst_demand=RatePoint(*worst),
        outer_points=_frontier_points(outer_grid, edges),
        achievable_points=_frontier_points(ach_grid, edges),
    )


def beamforming_condition(c21: np.ndarray, c31: np.ndarray) -> bool:
    """True when one source-relay channel is degraded w.r.t. the other.

    The rank-one beamforming region below is the full broadcast-cut region
    exactly when ``min(|c21|^2, |c31|^2) <= |c21^H c31|``, i.e. when the
    weaker gain vector lies close enough in angle to the stronger one.
    """
    c21 = np.asarray(c21, dtype=complex)
    c31 = np.asarray(c31, dtype=complex)
    weaker = min(float(np.vdot(c21, c21).real), float(np.vdot(c31, c31).real))
    overlap = abs(complex(np.vdot(c21, c31)))
    return weaker <= (1.0 + _TOL) * overlap


@dataclass(frozen=True)
class BeamformingWeights:
    """Weights of the two rank-one beams: ``common`` rides on the weaker
    relay's gain vector (decoded by both), ``private`` on the stronger
    relay's own vector."""

    private: float
    common: float

    def __post_init__(self) -> None:
        for name in ("private", "common"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"weight {name!r} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class BeamformingRates:
    """Broadcast-cut rates from rank-one beamforming.  ``roles_swapped``
    is True when relay 3 has the stronger channel, i.e. relay 3 gets the
    private stream and ``r3 >= r2``."""

    r2: float
    r3: float
    roles_swapped: bool


def beamforming_rates(cfg: ChannelConfig, weights: BeamformingWeights) -> BeamformingRates:
    """Evaluate the rank-one beamforming inner bound on the broadcast cut.

    Requires :func:`beamforming_condition` to hold.  The stronger relay
    decodes both beams, the weaker only the common one; the rates are the
    corresponding quadratic forms.
    """
    _require_diamond(cfg, "beamforming_rates", CsiMode.SYNCHRONOUS)
    c21 = cfg.gain("c21")
    c31 = cfg.gain("c31")
    if not beamforming_condition(c21, c31):
        raise ValueError(
            "rank-one beamforming covers the broadcast cut only for degraded gain "
            "vectors: min(|c21|^2, |c31|^2) <= |c21^H c31| fails for this channel"
        )
    g21 = float(np.vdot(c21, c21).real)
    g31 = float(np.vdot(c31, c31).real)
    swapped = g21 < g31
    g_strong, g_weak = (g31, g21) if swapped else (g21, g31)
    budget = cfg.powers["P1"]
    spent = weights.private * g_strong + weights.common * g_weak
    if spent > budget + _TOL * max(1.0, budget):
        raise ValueError(f"beam weights spend {spent!r} W, budget is {budget!r} W")
    n0 = cfg.noise_psd
    r_strong = (weights.private * g_strong ** 2 + weights.common * g_weak ** 2) / n0
    r_weak = weights.common * g_weak ** 2 / n0
    if swapped:
        return BeamformingRates(r2=r_weak, r3=r_strong, roles_swapped=True)
    return BeamformingRates(r2=r_strong, r3=r_weak, roles_swapped=False)


@dataclass(frozen=True)
class MinPowerResult:
    """Minimum source power for a rate triple, with the stream split that
    attains it."""

    p_total: float
    r_common: float
    r2_private: float
    r3_private: float


def min_power(
    r2: float, r3: float, r_sum: float, c2_sq: float, c3_sq: float, c0_sq: float
) -> MinPowerResult:
    """Minimum total power delivering a rate triple over the broadcast cut.

    ``c2_sq`` and ``c3_sq`` are the squared gains of dedicated beams towards
    each relay, ``c0_sq`` the best worst-case gain of a shared beam decoded
    by both (see :func:`max_min_beam_gain`).  The optimal strategy routes
    the forced common part ``r2 + r3 - r_sum`` through the shared beam and
    the remainders through the dedicated ones; each nat costs the reciprocal
    of its beam gain.
    """
    point = RatePoint(r2=r2, r3=r3, r_sum=r_sum)
    for name, gain in (("c2_sq", c2_sq), ("c3_sq", c3_sq), ("c0_sq", c0_sq)):
        if not math.isfinite(gain) or gain <= 0.0:
            raise ValueError(f"beam gain {name!r} must be finite and > 0, got {gain!r}")
    r_common = max(point.r2 + point.r3 - point.r_sum, 0.0)
    r2_private = max(point.r_sum - point.r3, 0.0)
    r3_private = max(point.r_sum - point.r2, 0.0)
    p_total = r_common / c0_sq + r2_private / c2_sq + r3_private / c3_sq
    return MinPowerResult(
        p_total=p_total,
        r_common=r_common,
        r2_private=r2_private,
        r3_private=r3_private,
    )


def max_min_beam_gain(c2: np.ndarray, c3: np.ndarray) -> float:
    """Best worst-case squared gain of a single beam heard by two relays.

    Maximizes ``min(|c2^H u|^2, |c3^H u|^2)`` over unit vectors ``u``, in
    closed form.  When :func:`beamforming_condition` holds, the beam along
    the weaker vector is heard at least as well by the stronger relay, so
    the value is the weaker squared norm ``min(n2, n3)**2``.  Otherwise the
    best beam lies between the two vectors where both gains are equal, which
    gives ``(n2 n3 sin(alpha))**2 / (n2**2 + n3**2 - 2 n2 n3 cos(alpha))``.
    """
    c2 = np.asarray(c2, dtype=complex)
    c3 = np.asarray(c3, dtype=complex)
    n2 = float(np.linalg.norm(c2))
    n3 = float(np.linalg.norm(c3))
    if n2 == 0.0 or n3 == 0.0:
        raise ValueError("both gain vectors must be nonzero")
    if beamforming_condition(c2, c3):
        return min(n2, n3) ** 2
    alpha = angle_between(c2, c3)
    # n2**2 + n3**2 - 2 n2 n3 cos(alpha) as a sum of squares, free of cancellation
    denominator = (n2 - n3) ** 2 + 4.0 * n2 * n3 * math.sin(alpha / 2.0) ** 2
    return (n2 * n3 * math.sin(alpha)) ** 2 / denominator
