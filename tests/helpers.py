"""Shared builders for test configs.

All factories return fresh ChannelConfig instances with simple, hand-checkable
geometry so individual tests can state expected numbers inline.
"""

from unittest import mock

import numpy as np

from relaycap import ChannelConfig, CsiMode, Topology, capacity, optimize_covariance_bound
from relaycap._search import REFINE_POINTS, REFINE_ROUNDS


def single_relay_config(
    p1=2.0,
    p2=1.0,
    noise_psd=1.0,
    alpha=0.4,
    c32=0.8,
    csi=CsiMode.SYNCHRONOUS,
    scale21=1.0,
    scale31=1.0,
):
    """Single-relay network with c21 on the x-axis and c31 at angle alpha."""
    c21 = scale21 * np.array([1.0, 0.0])
    c31 = scale31 * np.array([np.cos(alpha), np.sin(alpha)])
    return ChannelConfig(
        topology=Topology.SINGLE_RELAY,
        csi=csi,
        powers={"P1": p1, "P2": p2},
        gains={"c21": c21, "c31": c31, "c32": np.array([c32])},
        noise_psd=noise_psd,
    )


def gains_single_relay(p1, p2, noise_psd, c21, c31, c32):
    """Synchronous single-relay network with the gains given entry by entry."""
    return ChannelConfig(
        topology=Topology.SINGLE_RELAY,
        csi=CsiMode.SYNCHRONOUS,
        powers={"P1": p1, "P2": p2},
        gains={"c21": np.asarray(c21, dtype=complex), "c31": np.asarray(c31, dtype=complex),
               "c32": np.array([c32], dtype=complex)},
        noise_psd=noise_psd,
    )


def diamond_config(
    p1=2.0,
    p2=1.0,
    p3=1.0,
    noise_psd=1.0,
    c21=(1.0, 0.0),
    c31=(0.6, 0.8),
    c42=1.0,
    c43=1.0,
    csi=CsiMode.PHASE_FADING,
):
    """Two-relay diamond network; defaults keep every gain easy to square."""
    return ChannelConfig(
        topology=Topology.TWO_RELAY_DIAMOND,
        csi=csi,
        powers={"P1": p1, "P2": p2, "P3": p3},
        gains={
            "c21": np.asarray(c21, dtype=complex),
            "c31": np.asarray(c31, dtype=complex),
            "c42": np.array([c42], dtype=complex),
            "c43": np.array([c43], dtype=complex),
        },
        noise_psd=noise_psd,
    )


def random_single_relay(rng, csi=CsiMode.SYNCHRONOUS):
    """Random complex geometry with powers and noise away from the unit scale."""
    return ChannelConfig(
        topology=Topology.SINGLE_RELAY,
        csi=csi,
        powers={"P1": float(rng.uniform(0.2, 5.0)), "P2": float(rng.uniform(0.2, 5.0))},
        gains={
            "c21": rng.normal(size=2) + 1j * rng.normal(size=2),
            "c31": rng.normal(size=2) + 1j * rng.normal(size=2),
            "c32": rng.normal(size=1) + 1j * rng.normal(size=1),
        },
        noise_psd=float(rng.uniform(0.5, 2.0)),
    )


def random_diamond(rng, csi=CsiMode.PHASE_FADING):
    return ChannelConfig(
        topology=Topology.TWO_RELAY_DIAMOND,
        csi=csi,
        powers={
            "P1": float(rng.uniform(0.2, 5.0)),
            "P2": float(rng.uniform(0.2, 5.0)),
            "P3": float(rng.uniform(0.2, 5.0)),
        },
        gains={
            "c21": rng.normal(size=2) + 1j * rng.normal(size=2),
            "c31": rng.normal(size=2) + 1j * rng.normal(size=2),
            "c42": rng.normal(size=1) + 1j * rng.normal(size=1),
            "c43": rng.normal(size=1) + 1j * rng.normal(size=1),
        },
        noise_psd=float(rng.uniform(0.5, 2.0)),
    )


# Channels on which the dual's minimum is flat and the angle of its
# minimizer's eigenvector misses the optimal beam, so a rate found at that
# angle alone falls short of the upper bound (relative gaps from 5e-5 to 1).
# Each row is P1, P2, N0, c21, c31, c32.
FLAT_DUAL_CHANNELS = [
    (1.0, 1.0, 1.0, (0, 2.5e5j), (0.0025j, 0), 0.25j),
    (1.0, 1.0, 10.0, (0, 2.5e5j), (0.0025j, 0), 0.0025j),
    (0.1, 1e-6, 100.0, (1, 0), (1.0000001439727109e-15, 1e-6), 8e-7),
    (1e5, 0.01, 0.01, (1e5, 0), (1.000000143972711e-11, 0.01), 0.008),
    (100.0, 1e-6, 100.0, (100, 0), (1.0000001439727109e-15, 1e-6), 8e-7),
    (1000.0, 100.0, 1e-6, (0, -1000 + 750j), (-0.0075 + 0.0075j, 0), 5e-7 + 7.5e-7j),
    (1000.0, 100.0, 1e-6, (0, -1000 + 750j), (-0.0075 + 0.0075j, 0), 2.5e-7 + 7.5e-7j),
]

# Channels whose optimal share sits at a steep kink next to its upper end,
# where a share found in sqrt(s) or rounded from it loses the rate. On the
# second the best shares are one and two ulps below the end (rate 3.24e-6),
# and the end itself leaves no budget for the relay beam (rate 0).
KINK_CHANNELS = [
    gains_single_relay(1.0, 1.0, 1.0, (0, 0.25j), (0, 2.5e-5j), 2.5e-5j),
    gains_single_relay(1e6, 1e6, 1e6, (1e6, 0), (1e-3, 0), 8e-4),
]


def always_refine(f, axis, scan, cell_bounds):
    """The covariance route's angle search before its scan carried a
    certificate, kept as the oracle of its early exit: a stand-in for
    ``grid_refine`` that ignores ``scan`` and ``cell_bounds``, scans
    ``axis`` with ``f`` itself and always runs every refine round."""
    axis = np.asarray(axis, dtype=float)
    lo, hi = float(axis[0]), float(axis[-1])
    step = (hi - lo) / (len(axis) - 1)

    def stage(points):
        values, *payload = f(points)
        pick = int(np.argmax(values))
        return (float(values[pick]), float(points[pick]), *(float(p[pick]) for p in payload))

    best = stage(axis)
    for _ in range(REFINE_ROUNDS):
        axis = np.linspace(max(lo, best[1] - step), min(hi, best[1] + step), REFINE_POINTS)
        step = 2.0 * step / (REFINE_POINTS - 1)
        candidate = stage(axis)
        if candidate[0] > best[0]:
            best = candidate
    return best


def always_refined_covariance(cfg):
    """``optimize_covariance_bound`` with every refine round run."""
    with mock.patch.object(capacity, "grid_refine", always_refine):
        return optimize_covariance_bound(cfg)
