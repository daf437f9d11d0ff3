"""Rate regions for the two-relay diamond network.

The source has two antennas and talks to two single-antenna relays, which
forward to a common destination.  In the low-power limit the interesting
cuts are:

* the relay-to-destination MAC cut (:func:`mac_region_point`), where the
  relays may correlate their transmissions;
* the source broadcast cut with phase fading, for which superposition
  coding with a common and two private streams gives an inner bound
  (:func:`common_private_rates`) that can be compared numerically against
  the cut-set outer bound (:func:`broadcast_outer_rates`) by a sweep over
  stream powers (:func:`broadcast_region_gap`, whose docstring derives the
  sweep).  Every rate here is linear in the six stream powers, one source
  antenna's share plus the other's, and one function gives those shares to
  the rate functions, on floats, and to the sweep, on arrays;
* the synchronous broadcast cut, where rank-one beamforming attains a
  simple triangular region when one relay's channel is degraded with
  respect to the other (:func:`beamforming_rates`), and the minimum total
  power for a target rate triple has a closed form (:func:`min_power`).

Rates are nats per second, powers Watts.  For the broadcast cut the budgets
``P1`` and ``P2`` are interpreted per source antenna.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import (
    REL_TOL, ChannelConfig, CsiMode, Topology, angle_between, require_network, require_within_budget, rounding_slack,
)

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
    correlation cannot be exploited and ``rho`` is ignored: the cut is the
    synchronous one at correlation 0.
    """
    require_network(cfg, "mac_region_point", Topology.TWO_RELAY_DIAMOND)
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    fading = cfg.csi is CsiMode.PHASE_FADING
    if not fading and not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1] for the synchronous cut, got {rho!r}")
    # Under phase fading r is a zero, so off is 1.0 and the cross term a zero:
    # each bound is its link budget, or their sum. The zero is -0.0, whose
    # cross term keeps a sum of two -0.0 budgets at -0.0.
    r = -0.0 if fading else rho
    n0 = cfg.noise_psd
    m42 = abs(cfg.scalar_gain("c42"))
    m43 = abs(cfg.scalar_gain("c43"))
    p2 = cfg.powers["P2"] / n0
    p3 = cfg.powers["P3"] / n0
    off = 1.0 - r ** 2
    return MacRegionPoint(
        r23_max=m42 ** 2 * p2 * off,
        r32_max=m43 ** 2 * p3 * off,
        # one root per link budget, which the config keeps finite; p2 * p3 may not be
        r_sum_max=m42 ** 2 * p2 + m43 ** 2 * p3 + 2.0 * r * (m42 * math.sqrt(p2)) * (m43 * math.sqrt(p3)),
        rho=rho,
        rho_ignored=fading and rho != 0.0,
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
        # Every check below passes when the powers are finite and no private
        # power or stream total is negative; the slack is only >= 0, so that
        # case is settled without it.  A NaN fails isfinite, and a sum is
        # formed only with a negative common power, so it cannot overflow.
        p1c, p2c, p12, p22, p13, p23 = self.p1c, self.p2c, self.p12, self.p22, self.p13, self.p23
        isfinite = math.isfinite
        if (
            isfinite(p1c) and isfinite(p2c) and isfinite(p12) and isfinite(p22) and isfinite(p13) and isfinite(p23)
            and min(p12, p22, p13, p23) >= 0.0
            and (p1c >= 0.0 or min(p1c + p12, p1c + p13) >= 0.0)
            and (p2c >= 0.0 or min(p2c + p22, p2c + p23) >= 0.0)
        ):
            return
        for name in ("p1c", "p2c", "p12", "p22", "p13", "p23"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"power {name!r} must be finite, got {value!r}")
        slack = rounding_slack(p1c, p2c, p12, p22, p13, p23)
        for name in ("p12", "p22", "p13", "p23"):
            if getattr(self, name) < -slack:
                raise ValueError(f"private power {name!r} must be >= 0")
        for common, private in (("p1c", "p12"), ("p1c", "p13"), ("p2c", "p22"), ("p2c", "p23")):
            if getattr(self, common) + getattr(self, private) < -slack:
                raise ValueError(
                    f"stream power {common} + {private} must be >= 0; negative common power "
                    "may only offset private power on the same antenna"
                )

    # in Python floats: numpy scalars warn where a total overflows to inf,
    # which the budget check reports
    @property
    def antenna1_total(self) -> float:
        return float(self.p1c) + float(self.p12) + float(self.p13)

    @property
    def antenna2_total(self) -> float:
        return float(self.p2c) + float(self.p22) + float(self.p23)


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


def _check_antenna_budgets(cfg: ChannelConfig, alloc: CommonPrivateAllocation) -> None:
    require_within_budget(alloc.antenna1_total, cfg.powers["P1"],
                          "antenna 1 spends {spent!r} W, budget is {budget!r} W", alloc.p1c, alloc.p12, alloc.p13)
    require_within_budget(alloc.antenna2_total, cfg.powers["P2"],
                          "antenna 2 spends {spent!r} W, budget is {budget!r} W", alloc.p2c, alloc.p22, alloc.p23)


# Under phase fading every broadcast-cut rate is linear in the six stream
# powers, and each stream's rate is one antenna's share plus the other's.
# _antenna_shares holds those shares for both bounds; it works on floats,
# which the rate functions pass, and elementwise on arrays, with which the
# region sweep tabulates them.


def _antenna_shares(gain2, gain3, common, private2, private3):
    """One antenna's share of each stream's rate: ``(gain2 * common,
    gain3 * common, gain2 * private2, gain3 * private3)``, the common
    stream at relays 2 and 3 and each private stream at its own relay."""
    return gain2 * common, gain3 * common, gain2 * private2, gain3 * private3


def _alloc_stream_rates(cfg: ChannelConfig, alloc: CommonPrivateAllocation, what: str):
    """Rate each stream of ``alloc`` carries on its own.

    Returns ``(common2, common3, rc, private2, private3)``: the common
    stream's rate at relays 2 and 3, the rate ``rc`` at which both decode it,
    and each private stream's rate at its own relay.  Each is antenna 1's
    share plus antenna 2's, the sums the sweep forms, in plain scalar
    arithmetic: numpy's ufuncs would give the same bits at several times
    the cost on single values.
    """
    require_network(cfg, what, Topology.TWO_RELAY_DIAMOND, CsiMode.PHASE_FADING)
    _check_antenna_budgets(cfg, alloc)
    g2, g3 = cfg._broadcast_gains
    common2_1, common3_1, private2_1, private3_1 = _antenna_shares(g2[0], g3[0], alloc.p1c, alloc.p12, alloc.p13)
    common2_2, common3_2, private2_2, private3_2 = _antenna_shares(g2[1], g3[1], alloc.p2c, alloc.p22, alloc.p23)
    common2 = common2_1 + common2_2
    common3 = common3_1 + common3_2
    # on a tie min keeps its first argument and np.minimum, which the sweep
    # uses, its second: with the arguments swapped a signed zero keeps its sign
    return common2, common3, min(common3, common2), private2_1 + private2_2, private3_1 + private3_2


def common_private_rates(cfg: ChannelConfig, alloc: CommonPrivateAllocation) -> CommonPrivateRates:
    """Rates achieved by common/private superposition under phase fading.

    The common stream must be decodable by both relays, so it is limited by
    the weaker link; each private stream adds on top at its own relay.
    """
    common2, common3, rc, private2, private3 = _alloc_stream_rates(cfg, alloc, "common_private_rates")
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
    common2, common3, _, private2, private3 = _alloc_stream_rates(cfg, alloc, "broadcast_outer_rates")
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
        # Every check below passes on finite rates >= 0 with
        # max(r2, r3) <= r_sum <= r2 + r3; the slack is only >= 0, so that
        # case is settled without it.  A NaN fails every comparison.
        r2, r3, r_sum = self.r2, self.r3, self.r_sum
        if math.isfinite(r_sum) and 0.0 <= r2 <= r_sum and 0.0 <= r3 <= r_sum <= r2 + r3:
            return
        slack = rounding_slack(r2, r3, r_sum)
        for name, value in (("r2", r2), ("r3", r3), ("r_sum", r_sum)):
            if not math.isfinite(value) or value < -slack:
                raise ValueError(f"rate {name!r} must be finite and >= 0, got {value!r}")
        if r_sum > r2 + r3 + slack:
            raise ValueError("r_sum cannot exceed r2 + r3")
        if r_sum < max(r2, r3) - slack:
            raise ValueError("r_sum cannot be smaller than max(r2, r3)")


def _suffix_max(reversed_grid: np.ndarray) -> None:
    """In place, on a grid stored with both axes reversed: each cell becomes
    the max over the cells at or beyond it in the grid's own order, which in
    storage order is a running max down both axes of a contiguous array.
    The grid holds no NaN, so fmax, which skips numpy's NaN propagation,
    gives the same bits as max."""
    np.fmax.accumulate(reversed_grid, axis=0, out=reversed_grid)
    np.fmax.accumulate(reversed_grid, axis=1, out=reversed_grid)


# Bins per rate axis of the achievable-region lookup in broadcast_region_gap.
_RATE_BINS = 256


@dataclass(frozen=True)
class BroadcastGapReport:
    """Worst shortfall of superposition coding against the outer bound.

    ``max_gap`` is the largest amount (nats/s) by which some outer-bound
    demand triple exceeds what any achievable point covering its per-relay
    rates up to ``rate_resolution`` offers in sum rate.  ``rate_resolution``
    is the rate quantization implied by the power grid: the matching slack,
    and the natural yardstick for calling the gap zero.  ``worst_demand``
    records the triple attaining the gap, the lexicographically largest
    ``(r_sum, r2, r3)`` when several do.
    """

    max_gap: float
    rate_resolution: float
    steps: int
    worst_demand: RatePoint


def _antenna_cells(power, gain2, gain3):
    """One antenna's shares at each of its admitted (common, p) cells.

    Every power of the sweep is a whole number of grid steps h = budget / n,
    n = steps - 1, read from the grid ``power`` of ``steps`` powers from 0
    to the budget: the common power c = i h and the private powers p = j h
    and q = k h, with i, j, k in [0, n].  The antenna keeps its budget when
    i + j + k <= n, so (c, p) is admitted when i + j <= n, and its top
    partner k = n - i - j spends the rest of the budget.

    Returns a ``(4, cells)`` table of :func:`_antenna_shares` at each cell's
    common power, its private power ``p`` and its top partner ``q``.
    """
    n = len(power) - 1
    grid = np.arange(n + 1)
    i, j = np.nonzero(grid[:, None] + grid <= n)
    return np.stack(_antenna_shares(gain2, gain3, power[i], power[j], power[n - i - j]))


# Points per chunk of the achievable pass in broadcast_region_gap, unless
# one antenna-1 cell alone pairs with more antenna-2 cells.
_CHUNK_CELLS = 4096


def _aimed_rates(own, other, privates):
    """One side of the outer pass: the rate of one relay and the sum bound,
    at every pair of per-antenna grid powers aimed at that relay.

    ``own`` and ``other`` hold each antenna's gain to this relay and to the
    other one, ``privates`` each antenna's grid of ``steps`` powers from 0
    to its budget ``b``.  Aiming grid power ``P[x]`` at this relay leaves
    ``P[n - x]`` for the other relay's private stream, so the antenna adds
    ``own * P[x]`` to the rate and ``own * P[x] + other * P[n - x]`` to the
    sum bound.  The latter is written ``m * b + (own - m) * P[x] + (other -
    m) * P[n - x]`` with ``m = min(own, other)``: one of the last two terms
    is 0, so on an antenna where ``own >= other`` both shares are
    nondecreasing in ``x`` in floating point too.

    Returns both, flat over the ``steps**2`` pairs (antenna-1 index major).
    """
    rates, sums = [], []
    for own_gain, other_gain, power in zip(own, other, privates):
        low = min(own_gain, other_gain)
        rates.append(own_gain * power)
        sums.append(low * power[-1] + (own_gain - low) * power + (other_gain - low) * power[::-1])
    return tuple((share1[:, None] + share2).ravel() for share1, share2 in (rates, sums))


def _pareto_front(rates, sums):
    """The points ``(rates, sums)`` that no other point matches or beats in
    both coordinates, one of each set of equal points."""
    order = np.lexsort((sums, rates))[::-1]  # rates falling, ties by sums falling
    sorted_sums = sums[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = sorted_sums[1:] > np.maximum.accumulate(sorted_sums)[:-1]
    return rates[order[keep]], sums[order[keep]]


def broadcast_region_gap(cfg: ChannelConfig, steps: int = 16) -> BroadcastGapReport:
    """Sweep both bounds on power grids and measure the worst mismatch.

    Both passes walk the same stream-power grid.  The achievable pass takes
    its rates from the formulas of :func:`common_private_rates` and bins the
    best sum rate by per-relay rates.  The outer pass also lets the common
    powers go negative, which is where the outer box can poke out of the
    superposition region; it turns every corner into a demand triple
    (clipped into the valid cone) and matches it against the best
    achievable sum rate among points whose per-relay rates cover the
    demand up to the rate resolution.

    Every grid power is a whole number of grid steps h = budget / n, n =
    steps - 1.  An antenna's cell (common i h, privates p = j h, q = k h)
    keeps its budget when i + j + k <= n, and a negative common power
    cancels only its own private power: j, k >= -i.  Each pass visits, for
    every (common, p) cell, only the top partner k = n - i - j, which
    spends the rest of the budget.  With the rest fixed, every rounding step
    from q to a rate, a bin and a gap is monotone: r3 and the sum cap never
    fall, r2's bin stays put, and the lookup into the suffix maximum never
    rises.  So the top point dominates its slab of partners.

    The outer pass runs first: a top cell is fixed by the powers aimed at
    each relay, x = i + j steps at relay 2 and y = n - j at relay 3, and the
    pairs (x, y) fill [0, n] on each antenna, so the outer cells are the
    pairs of an x side and a y side (:func:`_aimed_rates`).  Its rates are
    those of :func:`broadcast_outer_rates`, summed over the powers aimed at
    each relay rather than stream by stream, so they may differ in the last
    bits.  r2 and the first sum bound c2 + q2 + q3 depend on x alone, r3
    and the second on y alone, and the gap never falls when any of the four
    rises, so its maximum lies on the product of the two sides' Pareto
    fronts (:func:`_pareto_front`).  An antenna with g2 >= g3 raises both
    of the x side's coordinates as x grows, so it adds no trade-off there,
    and likewise on the y side with g3 >= g2; so at most one antenna trades
    on each side, or both on one, and the product has at most ``steps**2``
    demands.  ``worst_demand`` is the lexicographically largest (r_sum, r2,
    r3) among the demands that attain ``max_gap``: every coordinate of the
    clipped triple is monotone in the four side coordinates too, so the
    pruning cannot hide it.

    The achievable pass: every rate term is one antenna's share plus the
    other's, so each antenna tabulates its shares once over its admitted
    (common, p) cells (:func:`_antenna_cells`), and a pair of cells' terms
    are one outer add of the two tables, taken in chunks of a fixed number
    of antenna-1 cells, each paired with every antenna-2 cell; no cell that
    either antenna rejects is evaluated: about ``steps**4 / 4`` points in
    all.  A demand at bins (q2, q3) reads the best sum cap among the points
    whose bins b2 >= q2 and b3 >= q3, so only the demanded bins matter.
    Per axis, with U the distinct demanded bins, bin b has the rank
    #{u in U : u <= b}; for a demanded bin q, b >= q holds exactly when
    rank(b) >= rank(q), as the rank never falls and rises at q itself.  So
    each point is placed by its two ranks, read from a table over the 256
    bins whose take also clips its bins into [0, 255], on a grid of
    (|U2| + 1) x (|U3| + 1) cells, rank 0 holding the points that reach no
    demanded bin on that axis.  A max is exact in any order, so every
    report keeps the bits of a lookup over all 256 x 256 bins, whatever the
    chunk size.  The grid is stored with both axes reversed: its suffix
    maximum is then two running maxima in place on a contiguous array, and
    ranks (k2, k3) sit at ``last - (k2 * width3 + k3)``.  The gains are the
    config's floats, worked out once per config, as in the rate functions.
    """
    require_network(cfg, "broadcast_region_gap", Topology.TWO_RELAY_DIAMOND, CsiMode.PHASE_FADING)
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be an integer, got {steps!r}") from None
    if steps < 2:
        raise ValueError("steps must be >= 2")
    g2, g3 = cfg._broadcast_gains
    gmax = np.maximum(g2, g3)
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    resolution = (b1 / (steps - 1)) * gmax[0] + (b2 / (steps - 1)) * gmax[1]
    axis_max = gmax[0] * b1 + gmax[1] * b2
    if axis_max <= 0.0:
        return BroadcastGapReport(0.0, 0.0, steps, RatePoint(0.0, 0.0, 0.0))
    delta = axis_max / (_RATE_BINS - 1)

    def bins(rates: np.ndarray) -> np.ndarray:
        # truncation floors every rate that does not clip to bin 0
        return np.minimum(np.maximum((rates / delta).astype(int), 0), _RATE_BINS - 1)

    privates = np.linspace(0.0, b1, steps), np.linspace(0.0, b2, steps)
    # the outer pass: every pair of an x-side and a y-side front point
    sides = (g2, g3), (g3, g2)
    (r2, sum2), (r3, sum3) = (_pareto_front(*_aimed_rates(own, other, privates)) for own, other in sides)
    # clip each corner into the valid cone of rate triples
    r_sum = np.maximum(np.minimum(sum2[:, None], sum3), 0.0)
    r2 = np.minimum(np.maximum(r2[:, None], 0.0), r_sum)
    r3 = np.minimum(np.maximum(r3, 0.0), r_sum)
    r_sum = np.minimum(r_sum, r2 + r3)
    # floor, not ceil: the bin holding a point with r >= demand - slack must
    # stay inside the lookup, so matching is lenient by < one bin
    need2, need3 = bins(r2 - resolution), bins(r3 - resolution)
    # per axis, each rate bin's rank: how many demanded bins it reaches
    rank2, rank3 = (np.cumsum(np.bincount(need.ravel(), minlength=_RATE_BINS) > 0) for need in (need2, need3))
    # the cover grid over (rank2, rank3), stored with both axes reversed:
    # ranks (k2, k3) sit at last - (k2 * width3 + k3)
    width3 = rank3[-1] + 1
    last = (rank2[-1] + 1) * width3 - 1
    cover = np.full(last + 1, -np.inf)
    shares1, shares2 = (_antenna_cells(power, gain2, gain3) for power, gain2, gain3 in zip(privates, g2, g3))
    chunk = max(1, _CHUNK_CELLS // shares2.shape[1])
    for start in range(0, shares1.shape[1], chunk):
        # every pair of an antenna-1 and an antenna-2 cell: the sums that
        # the rate functions form, antenna 1's share first
        c2, c3, q2, q3 = shares1[:, start:start + chunk, None] + shares2[:, None, :]
        rc = np.minimum(c2, c3)
        a2 = rc + q2
        # each point's ranks, its bins of r2 = a2 and r3 = rc + q3 clipped
        # into [0, 255] by the take
        k2 = rank2.take((a2 / delta).astype(int), mode="clip")
        k3 = rank3.take(((rc + q3) / delta).astype(int), mode="clip")
        # its sum cap a2 + q3 = rc + q2 + q3 at its ranks; ufunc.at is far
        # quicker on one flat index than on an index pair, and the index
        # array must be 1-D too: a 2-D one takes numpy's generic loop
        np.maximum.at(cover, (last - (k2 * width3 + k3)).ravel(), (a2 + q3).ravel())
    _suffix_max(cover.reshape(-1, width3))
    gaps = r_sum - cover.take(last - (rank2[need2] * width3 + rank3[need3]))
    max_gap = gaps.max()
    # the lexicographically largest (r_sum, r2, r3) among the demands at it
    tied = gaps == max_gap
    r2, r3, r_sum = r2[tied], r3[tied], r_sum[tied]
    k = np.lexsort((r3, r2, r_sum))[-1]
    return BroadcastGapReport(
        max_gap=float(max_gap),
        rate_resolution=resolution,
        steps=steps,
        worst_demand=RatePoint(float(r2[k]), float(r3[k]), float(r_sum[k])),
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
    return weaker <= (1.0 + REL_TOL) * overlap


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
    require_network(cfg, "beamforming_rates", Topology.TWO_RELAY_DIAMOND, CsiMode.SYNCHRONOUS)
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
    spent = weights.private * g_strong + weights.common * g_weak
    require_within_budget(spent, cfg.powers["P1"], "beam weights spend {spent!r} W, budget is {budget!r} W")
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
    Both vectors must be finite and nonzero.
    """
    c2 = np.asarray(c2, dtype=complex)
    c3 = np.asarray(c3, dtype=complex)
    if not (np.isfinite(c2).all() and np.isfinite(c3).all()):
        raise ValueError("gain vectors must be finite")
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
