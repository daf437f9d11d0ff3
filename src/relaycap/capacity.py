"""Capacity bounds for the low-power single-relay network.

The network has a two-antenna source, a single-antenna relay and a
single-antenna destination.  In the low-power limit every rate collapses to a
variance-over-noise expression, so the cut-set bound becomes a finite
dimensional optimization over the source power split and beam directions.
Two equivalent parameterizations are implemented:

* :func:`cutset_bounds` / :func:`optimize_capacity` work with an explicit
  power split ``(p21, p31, pb1)`` and a beam angle ``theta`` measured from
  the source-to-destination gain vector.
* :func:`covariance_bounds` / :func:`optimize_covariance_bound` work with
  input covariance blocks ``(a, b)`` plus a coherent component ``(beta, u)``.

The two routes bound the same quantity, which makes them useful as mutual
cross-checks: an optimizer bug in one is unlikely to reproduce in the other.

Both cuts are concave over a convex budget set, so the capacity also equals
the minimum over ``lambda`` in ``[0, 1]`` of a convex Lagrangian dual
``g(lambda)`` whose inner maximum has a closed form.  :func:`optimize_capacity`
bisects for that minimum, solves the powers exactly at the beam angle it
gives, and returns ``g(lambda*)`` as a certified upper bound next to the
achieved rate.  :func:`optimize_covariance_bound` stays a primal search.

The csi mode reaches the power route as one number, the coherent gain
``gc``: ``g31`` with synchronized carriers and 0 under phase fading (no
carrier-phase tracking at the transmitters).  Without phase knowledge the
source power ``pb1`` sent with the relay's symbol no longer adds to the
relay's signal in amplitude at the destination, only in power (``g31 *
pb1``); the beams stay.  So :func:`cutset_bounds` and
:func:`optimize_capacity` take both modes, and :func:`phase_fading_capacity`
is the certified optimum's rate.  The covariance route stays synchronous,
so the cross-check between the two routes is unchanged.

All rates are in nats per second; powers are in Watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._search import coherent_max, grid_refine
from .channel import (
    ChannelConfig, CsiMode, Topology, angle_between, require_network, require_within_budget, rounding_slack,
)
from .matrices import require_psd

__all__ = [
    "BindingBound",
    "PowerAllocation",
    "MatrixBoundParams",
    "CapacityResult",
    "cutset_bounds",
    "achievable_rate",
    "optimize_capacity",
    "covariance_bounds",
    "optimize_covariance_bound",
    "phase_fading_capacity",
]


class BindingBound(Enum):
    """Which cut is tight at an optimum."""

    RELAY_DECODE = "relay_decode"
    MAC_COMBINE = "mac_combine"


@dataclass(frozen=True)
class PowerAllocation:
    """Source power split (Watts) and relay-beam angle.

    ``p21`` feeds the beam pointed ``theta`` radians away from the direct
    gain vector (towards the relay), ``p31`` feeds the beam aligned with the
    direct gain vector, and ``pb1`` is the source power sent with the relay's
    symbol: coherently with the relay transmission when the carriers are
    synchronous, and adding only its power ``g31 * pb1`` at the destination
    under phase fading.  ``alpha`` optionally records the angle between
    the relay and destination gain vectors at the time the split was
    computed; it is informational only.
    """

    p21: float
    p31: float
    pb1: float
    theta: float
    alpha: float | None = None

    def __post_init__(self) -> None:
        for name in ("p21", "p31", "pb1"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"power {name!r} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"beam angle theta must be finite, got {self.theta!r}")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite when given, got {self.alpha!r}")

    @property
    def total(self) -> float:
        """Total source power in Watts."""
        return self.p21 + self.p31 + self.pb1


@dataclass(frozen=True, eq=False)
class MatrixBoundParams:
    """Covariance-form parameters of the cut-set bounds.

    ``a`` and ``b`` are the 2x2 source covariance blocks (Watt units) of the
    relay-bound and destination-bound signal components, ``beta`` in [0, 1]
    is the fraction (amplitude-wise) of source power sent coherently with the
    relay, and ``u`` is the unit beam vector of that coherent part.
    """

    a: np.ndarray
    b: np.ndarray
    beta: float
    u: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=complex)
        b = np.array(self.b, dtype=complex)
        u = np.array(self.u, dtype=complex)
        if a.shape != (2, 2) or b.shape != (2, 2):
            raise ValueError("covariance blocks a and b must be 2x2 matrices")
        if u.shape != (2,):
            raise ValueError("beam vector u must have 2 entries")
        if not (np.all(np.isfinite(a.view(float))) and np.all(np.isfinite(b.view(float)))):
            raise ValueError("covariance blocks must be finite")
        if not np.all(np.isfinite(u.view(float))):
            raise ValueError("beam vector u must be finite")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        for name, arr in (("a", a), ("b", b), ("u", u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CapacityResult:
    """Optimized bound value together with the maximizing parameters.

    ``rate`` is what ``allocation`` achieves.  ``upper_bound``, set by
    :func:`optimize_capacity`, is a Lagrangian dual value that no allocation
    can exceed, so the capacity lies in ``[rate, upper_bound]`` up to
    rounding; :func:`optimize_covariance_bound` leaves it ``None``.
    """

    rate: float
    allocation: "PowerAllocation | MatrixBoundParams"
    binding_bound: BindingBound
    upper_bound: float | None = None


# Scan grid of the relay-block angle over [0, alpha] in optimize_covariance_bound.
_RELAY_ANGLE_POINTS = 133


def _single_relay_geometry(cfg: ChannelConfig):
    """Normalized powers and link geometry shared by the bound evaluators.

    Returns ``(g21, g31, gc, m32, alpha, p1, p2)`` where the ``g``s are
    squared gain norms, ``m32`` is the relay-to-destination gain magnitude,
    ``alpha`` the angle between the source gain vectors, and ``p1``, ``p2``
    the power budgets divided by the noise spectral density (so products
    ``g * p`` are rates in nats/s).  ``gc`` is the coherent gain, the only
    number the csi mode sets: ``g31`` when synchronous, and 0 under phase
    fading, where the source cannot align its phase with the relay's.
    """
    c21 = cfg.gain("c21")
    c31 = cfg.gain("c31")
    g21 = float(np.vdot(c21, c21).real)
    g31 = float(np.vdot(c31, c31).real)
    alpha = angle_between(c21, c31) if g21 > 0.0 and g31 > 0.0 else 0.0
    m32 = abs(cfg.scalar_gain("c32"))
    p1 = cfg.powers["P1"] / cfg.noise_psd
    p2 = cfg.powers["P2"] / cfg.noise_psd
    gc = g31 if cfg.csi is CsiMode.SYNCHRONOUS else 0.0
    return g21, g31, gc, m32, alpha, p1, p2


def cutset_bounds(cfg: ChannelConfig, alloc: PowerAllocation) -> tuple[float, float]:
    """Evaluate the two cut-set bounds at a given power split.

    The first value bounds what the relay and destination can jointly decode
    from the source (broadcast cut), the second what the destination can
    collect from source and relay together (MAC cut).  The capacity upper
    bound at this split is their minimum.  ``alloc.theta`` may lie outside
    [0, alpha]; such angles are valid inputs, they just never help.  Under
    phase fading ``pb1`` and the relay add their powers at the destination,
    ``g31 * pb1 + |c32|**2 P2 / N0``, where synchronous carriers add their
    amplitudes; nothing else changes.
    """
    require_network(cfg, "cutset_bounds", Topology.SINGLE_RELAY)
    require_within_budget(alloc.total, cfg.powers["P1"], "source power {spent!r} W exceeds the budget P1={budget!r} W")
    g21, g31, gc, m32, alpha, _, p2 = _single_relay_geometry(cfg)
    n0 = cfg.noise_psd
    p21 = alloc.p21 / n0
    p31 = alloc.p31 / n0
    pb1 = alloc.pb1 / n0
    theta = alloc.theta
    relay_decode = g31 * p31 + g21 * math.cos(alpha - theta) ** 2 * p21
    coherent = (math.sqrt(pb1 * gc) + m32 * math.sqrt(p2)) ** 2 + (g31 - gc) * pb1
    mac_combine = g31 * p31 + g31 * math.cos(theta) ** 2 * p21 + coherent
    return relay_decode, mac_combine


def achievable_rate(cfg: ChannelConfig, alloc: PowerAllocation) -> float:
    """Rate achieved by decode-and-forward at a given power split.

    The relay decodes the beamformed source stream and retransmits it
    coherently; the value equals ``min(cutset_bounds(cfg, alloc))``, which is
    what makes the scheme optimal in the low-power limit.
    """
    bound_rd, bound_mac = cutset_bounds(cfg, alloc)
    return min(bound_rd, bound_mac)


def _dual(lam, g21, g31, gc, alpha, p1, partner):
    """``(g(lam), slope, theta)`` for :func:`optimize_capacity`: the dual, its
    slope ``relay_decode - mac_combine`` at the inner maximizer, and the top
    eigenvector's angle, clipped to ``[0, alpha]``."""
    mac_weight = 1.0 - lam
    a = lam * g21 * math.cos(alpha) ** 2 + mac_weight * g31
    b = lam * g21 * math.cos(alpha) * math.sin(alpha)
    c = lam * g21 * math.sin(alpha) ** 2
    top = (a + c) / 2.0 + math.hypot((a - c) / 2.0, b)
    k = max(g31, top)
    theta = min(max(0.5 * math.atan2(2.0 * b, a - c), 0.0), alpha)
    # stationary sqrt(pb1) = num / den, capped at sqrt(p1); num = 0 (dead
    # relay, lam = 1, no direct link) means no coherent power, even at den = 0
    num = mac_weight * partner * math.sqrt(gc)
    den = k - mac_weight * g31
    cap = math.sqrt(p1)
    root = (cap if num > 0.0 else 0.0) if num >= cap * den else num / den
    rest = p1 - root ** 2
    coherent = (root * math.sqrt(gc) + partner) ** 2 + (g31 - gc) * root ** 2
    # rd - mac per Watt of the rest: on the direct beam both cuts gain alike
    beam = 0.0 if g31 >= top else g21 * math.cos(alpha - theta) ** 2 - g31 * math.cos(theta) ** 2
    return k * rest + mac_weight * coherent, beam * rest - coherent, theta


def optimize_capacity(cfg: ChannelConfig) -> CapacityResult:
    """Maximize ``min(cutset_bounds)`` over power splits and beam angle, in either csi mode.

    The capacity equals the minimum over ``lambda`` in ``[0, 1]`` of the
    convex dual ``g(lambda)``, the largest ``lambda * relay_decode + (1 -
    lambda) * mac_combine`` over all allocations.  Per unit of power a beam
    at angle ``theta`` earns ``e(theta)^T M e(theta)`` with ``M = lambda g21
    e(alpha) e(alpha)^T + (1 - lambda) g31 e(0) e(0)^T``, so the best beam
    earns the top eigenvalue of ``M``, or ``g31`` on the beam that also
    carries the direct link; the coherent power ``pb1`` then maximizes a
    concave quadratic in ``sqrt(pb1)`` (:func:`_dual`).  The coherent gain
    ``gc`` scales its linear term, so under phase fading the quadratic peaks
    at ``pb1 = 0``: the rest earns at least as much per Watt.  By Danskin's
    theorem ``g`` has the slope ``relay_decode - mac_combine`` there, and as
    ``g`` is convex the minimizer is 0 or 1 where the slope points out of
    ``[0, 1]``, and is otherwise bisected on the slope's sign down to a
    bracket ``2**-53`` wide (53 halvings, each midpoint exact).  The smaller
    ``g`` at its ends is ``upper_bound``, and its top eigenvector's angle the
    optimal beam.  Where ``g`` is flat at its minimum that angle can miss,
    so the beam pointed at the relay (``theta = alpha``) and the other end's
    angle are tried as well, in that order; a later angle is taken only
    where it is strictly better.

    The powers are solved exactly at these angles rather than read from
    the dual: at a kink of ``g`` the optimum mixes the inner maximizers on
    either side, which no one ``lambda`` hands back.  The ``p21`` / ``p31``
    split is a max-min of two affine functions and the profile over ``pb1``
    is then concave, both solved in closed form by
    :func:`~relaycap._search.coherent_max`.  The allocation
    is replayed through :func:`cutset_bounds` to pick the binding cut.
    """
    require_network(cfg, "optimize_capacity", Topology.SINGLE_RELAY)
    g21, g31, gc, m32, alpha, p1, p2 = _single_relay_geometry(cfg)
    n0 = cfg.noise_psd
    partner = m32 * math.sqrt(p2)
    geometry = (g21, g31, gc, alpha, p1, partner)
    lo, hi = 0.0, 1.0
    at_lo, at_hi = _dual(lo, *geometry), _dual(hi, *geometry)
    while at_lo[1] < 0.0 < at_hi[1] and hi - lo > 2.0 ** -53:
        mid = 0.5 * (lo + hi)
        at_mid = _dual(mid, *geometry)
        if at_mid[1] > 0.0:
            hi, at_hi = mid, at_mid
        else:
            lo, at_lo = mid, at_mid
    near, far = (at_lo, at_hi) if at_lo[0] <= at_hi[0] else (at_hi, at_lo)
    thetas = np.array([near[2], alpha, far[2]])
    values, pb1s, p21s = coherent_max(
        g21 * np.cos(alpha - thetas) ** 2, g31 * np.cos(thetas) ** 2, g31, 1.0, p1,
        partner ** 2, 2.0 * partner * math.sqrt(gc), g31)
    best = int(np.argmax(values))
    value, pb1, p21, theta = (float(v[best]) for v in (values, pb1s, p21s, thetas))
    alloc = PowerAllocation(p21=p21 * n0, p31=max(0.0, p1 - pb1 - p21) * n0, pb1=pb1 * n0,
                            theta=theta, alpha=alpha)
    bound_rd, bound_mac = cutset_bounds(cfg, alloc)
    binding = BindingBound.RELAY_DECODE if bound_rd <= bound_mac else BindingBound.MAC_COMBINE
    return CapacityResult(rate=value, allocation=alloc, binding_bound=binding, upper_bound=near[0])


def phase_fading_capacity(cfg: ChannelConfig) -> float:
    """Capacity of the single-relay network under phase fading, a float.

    Without transmitter phase knowledge the source still points its beams
    at the relay and the destination; only the coherent term of the MAC cut
    drops, so the relay's power adds to the source's at the destination
    incoherently (:func:`cutset_bounds`).  The joint max-min of the two cuts
    is solved by :func:`optimize_capacity`, whose ``upper_bound`` certifies
    it in this mode too; this returns its ``rate``.
    """
    require_network(cfg, "phase_fading_capacity", Topology.SINGLE_RELAY, CsiMode.PHASE_FADING)
    return optimize_capacity(cfg).rate


def covariance_bounds(cfg: ChannelConfig, params: MatrixBoundParams) -> tuple[float, float]:
    """Evaluate the cut-set bounds in covariance form.

    ``params.a`` and ``params.b`` are the source covariance blocks in Watts;
    together with the coherent power ``beta**2 * P1`` they must respect the
    source budget.  Returns ``(relay_decode, mac_combine)`` like
    :func:`cutset_bounds`.
    """
    require_network(cfg, "covariance_bounds", Topology.SINGLE_RELAY, CsiMode.SYNCHRONOUS)
    p1_watts = cfg.powers["P1"]
    tol = rounding_slack(p1_watts)
    require_psd(params.a, tol, "covariance block 'a'")
    require_psd(params.b, tol, "covariance block 'b'")
    if not -1e-12 <= params.beta <= 1.0 + 1e-12:
        raise ValueError(f"beta must lie in [0, 1], got {params.beta!r}")
    u_norm = float(np.linalg.norm(params.u))
    if abs(u_norm - 1.0) > 1e-9:
        raise ValueError(f"beam vector u must have unit norm, got norm {u_norm!r}")
    beta = min(max(params.beta, 0.0), 1.0)
    spent = float(np.trace(params.a).real + np.trace(params.b).real) + beta ** 2 * p1_watts
    require_within_budget(spent, p1_watts, "covariance traces plus coherent power spend {spent!r} W, "
                          "exceeding the budget P1={budget!r} W")

    n0 = cfg.noise_psd
    c21 = cfg.gain("c21")
    c31 = cfg.gain("c31")
    c32 = cfg.scalar_gain("c32")
    a = np.asarray(params.a, dtype=complex) / n0
    b = np.asarray(params.b, dtype=complex) / n0
    p1 = p1_watts / n0
    p2 = cfg.powers["P2"] / n0
    u = np.asarray(params.u, dtype=complex)

    def form(matrix: np.ndarray, vec: np.ndarray) -> float:
        return float(np.vdot(vec, matrix @ vec).real)

    relay_decode = form(b, c31) + form(a, c21)
    coherent_cov = beta ** 2 * p1 * np.outer(u, u.conj())
    # one root per link budget, which the config keeps finite; p1 * p2 may not be
    cross = 2.0 * (beta * (c32 * math.sqrt(p2)) * (np.vdot(c31, u) * math.sqrt(p1))).real
    mac_combine = form(a + b + coherent_cov, c31) + abs(c32) ** 2 * p2 + cross
    return relay_decode, mac_combine


def _plane_basis(c21: np.ndarray, c31: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (e1, e2) of C^2 adapted to the two gain vectors.

    ``e1`` points along ``c21`` (phase-rotated so that ``c21^H c31`` becomes
    real nonnegative) and ``e2`` completes the basis so that ``c31`` lies in
    the closed first quadrant of the (e1, e2) plane: ``|c21^H w|`` and
    ``|c31^H w|`` for ``w = cos(phi) e1 + sin(phi) e2`` then reduce to the
    planar formulas ``|c21| |cos(phi)|`` and ``|c31| |cos(phi - alpha)|``.
    """
    n21 = float(np.linalg.norm(c21))
    n31 = float(np.linalg.norm(c31))
    if n21 == 0.0 and n31 == 0.0:
        return np.array([1.0 + 0j, 0j]), np.array([0j, 1.0 + 0j])
    if n21 == 0.0:
        e1 = c31 / n31
    else:
        inner = complex(np.vdot(c21, c31))
        phase = inner / abs(inner) if abs(inner) > 0.0 else 1.0 + 0j
        e1 = (c21 * phase) / n21
    residual = c31 - np.vdot(e1, c31) * e1
    res_norm = float(np.linalg.norm(residual))
    if res_norm > 1e-12 * n31:
        e2 = residual / res_norm
    else:
        pick = np.array([0j, 1.0 + 0j]) if abs(e1[1]) < 0.9 else np.array([1.0 + 0j, 0j])
        e2 = pick - np.vdot(e1, pick) * e1
        e2 = e2 / np.linalg.norm(e2)
    return e1, e2


def optimize_covariance_bound(cfg: ChannelConfig) -> CapacityResult:
    """Maximize ``min(covariance_bounds)`` over covariance blocks.

    Each block is a rank-one beam in the plane spanned by the gain vectors.
    The destination block and the coherent beam are pinned to ``c31``: the
    destination block's trace enters both bounds with the same gain, and
    the coherent gain only adds to the MAC bound, so aligning either with
    ``c31`` is optimal.  The relay block's angle is scanned on a grid over
    ``[0, alpha]`` and refined (:func:`~relaycap._search.grid_refine`); the
    scan's ends are the beams pointed at the relay and at the destination,
    so a narrow peak there is not missed.  At each angle the coherent share
    ``s = beta**2`` and the trace split between the two blocks are solved
    exactly by :func:`~relaycap._search.coherent_max`, the kernel
    :func:`optimize_capacity` runs over ``pb1``; the refine hands back the
    share and split of the winning angle with its value, so the returned
    blocks attain that value without a second evaluation.  The result is
    replayed through :func:`covariance_bounds`.

    On ``[0, alpha]`` the relay block's relay gain ``g21 cos(phi)**2``
    falls and its destination gain ``g31 cos(phi - alpha)**2`` rises, and
    ``coherent_max`` never decreases in either gain, so the kernel at a
    scan cell's relay gain from its left end and destination gain from its
    right end bounds the profile from above on that cell.  The same kernel
    call takes the scan points and these cell bounds.  When no cell bound
    exceeds the best scanned value, that scan point is the maximum over the
    whole interval and the refine rounds are skipped; otherwise they run as
    usual.  The bound is primal, and reads nothing of the power route's
    dual.  ``upper_bound`` stays ``None``: where the rounds run, a bound
    would have to cover every cell they leave out.

    Rank one loses nothing.  A relay block ``(1 - eta) beam(phi) + eta
    I/2`` has the gains ``(1 - eta/2) k(phi) + (eta/2) k(phi + pi/2)``,
    where ``k(phi) = (g21 cos(phi)**2, g31 cos(phi - alpha)**2)`` is affine
    in ``(cos 2 phi, sin 2 phi)`` and so traces an ellipse: the mixture's
    gains lie in the filled ellipse.  ``coherent_max`` never decreases in
    either gain, so its maximum over the filled ellipse lies on the curve.

    Nor does a beam at an angle outside ``[0, alpha]`` (every beam has one
    in ``[-pi/2, pi/2]``, and ``alpha`` lies in ``[0, pi/2]``).  Moving
    ``phi < 0`` to ``|phi|`` keeps the relay gain and cannot lower the
    destination gain, as ``cos(a - b)**2 - cos(a + b)**2 = sin(2 a) sin(2
    b) >= 0`` for ``a, b`` in ``[0, pi/2]``; moving ``phi > alpha`` to
    ``alpha`` raises both gains.
    """
    require_network(cfg, "optimize_covariance_bound", Topology.SINGLE_RELAY, CsiMode.SYNCHRONOUS)
    g21, g31, _, m32, alpha, p1, p2 = _single_relay_geometry(cfg)
    n0 = cfg.noise_psd
    c21 = cfg.gain("c21")
    c31 = cfg.gain("c31")
    c32 = cfg.scalar_gain("c32")
    e1, e2 = _plane_basis(c21, c31)
    relay_gain = m32 ** 2 * p2
    # one root per link budget, which the config keeps finite; p1 * p2 may not be
    coherent_amp = 2.0 * (math.sqrt(p1 * g31) * (m32 * math.sqrt(p2)))

    def best_over_share(k_rd: np.ndarray, k_rd_dest: np.ndarray):
        """Exact max over s and the trace split per pair of relay-block gains; returns (value, s, trace_a).

        In s the split-maximized bound is concave: the MAC bound gains
        p1*s plus a sqrt(s) term, the rest is affine on the budget simplex.
        """
        return coherent_max(k_rd, k_rd_dest, g31, p1, 1.0, relay_gain, coherent_amp, p1 * g31)

    def gains(phi_a: np.ndarray):
        return g21 * np.cos(phi_a) ** 2, g31 * np.cos(phi_a - alpha) ** 2

    angles = np.linspace(0.0, alpha, _RELAY_ANGLE_POINTS)
    k_rd, k_rd_dest = gains(angles)
    # the scan points, then each cell's bound (k_rd from its left end,
    # k_rd_dest from its right), in one kernel call
    values, shares, traces = best_over_share(np.concatenate([k_rd, k_rd[:-1]]),
                                             np.concatenate([k_rd_dest, k_rd_dest[1:]]))
    n = len(angles)
    value, phi_a, share, trace_a = grid_refine(lambda phi: best_over_share(*gains(phi)), angles,
                                               (values[:n], shares[:n], traces[:n]), values[n:])
    beta = math.sqrt(share)
    trace_b = p1 * (1.0 - share) - trace_a

    def beam_matrix(phi: float, trace: float) -> np.ndarray:
        direction = math.cos(phi) * e1 + math.sin(phi) * e2
        return trace * np.outer(direction, direction.conj()) * n0

    u = math.cos(alpha) * e1 + math.sin(alpha) * e2
    # the coherent phase is free; rotate u so the cross term adds
    twist = c32 * complex(np.vdot(c31, u))
    if abs(twist) > 0.0:
        u = u * np.exp(-1j * np.angle(twist))
    params = MatrixBoundParams(
        a=beam_matrix(phi_a, trace_a),
        b=beam_matrix(alpha, max(trace_b, 0.0)),
        beta=beta,
        u=u,
    )
    bound_rd, bound_mac = covariance_bounds(cfg, params)
    binding = BindingBound.RELAY_DECODE if bound_rd <= bound_mac else BindingBound.MAC_COMBINE
    return CapacityResult(rate=value, allocation=params, binding_bound=binding)
