"""Seeded inputs for the four workloads.

Every channel reaches the program as JSON config text (read by
``load_config``, or from a file by the CLI). Joint distributions are built as
``FiniteJoint`` values. Input properties that change how the program works
follow fixed rotations, so every seed runs the same mix (a run stops on a
whole rotation, see ``ROTATION``); the seed only draws the numbers.
:func:`shares` reports the mix of the items a run used.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from relaycap.matrices import FiniteJoint

# Phase samples per bandwidth: arrays well inside one core's L2 cache, and the
# CLI default, whose arrays spill to L3.
L2_SAMPLES = 20_000
LARGE_SAMPLES = 200_000
# Monte Carlo joints (more than 16 atoms), sized down from C2's 24 atoms at
# 60k samples and from the library's default 100k samples and five bandwidths.
MC_SAMPLES = 10_000
MC_BANDWIDTHS = (10.0, 100.0, 1000.0)
CLI_PHASE_SAMPLES = 20_000

POOL = {"capacity_batch": 240, "diamond_regions": 120, "limit_checks": 120}

# In random draws the relay-decode cut alone binds at most optima, so
# channels whose optimum also has the MAC cut tight are added on purpose,
# with parallel gains (alpha = 0), a dead relay and power/noise scales far
# from 1.
CAPACITY_KINDS = ("random", "mac_binding", "random", "parallel",
                  "random", "dead_relay", "mac_binding", "random")
# (P scale, N0 scale); the cycle with the kinds above is 24 items long.
CAPACITY_SCALES = {"unit": (1.0, 1.0), "high": (1e3, 1e-3), "low": (1e-3, 1e3)}
# Steps 12 is half the items and holds item_p50_ms; steps 16 (about 1 s) is
# one in six and holds item_p90_ms.
GAP_STEPS = (12, 8, 12, 16, 12, 8)
# check_conditional_limits integrates by quadrature up to this many atoms.
QUADRATURE_ATOMS = 16
# (topology, phase samples or 0 for synchronous, joint atoms) per item. The
# four like 20k-sample items fill the middle half of the latency ranks and
# hold item_p50_ms; the Monte Carlo joints ride with the large sample counts
# and form the slowest quarter, which holds item_p90_ms.
LIMIT_RECIPES = (
    ("two_relay_diamond", 0, 8),
    ("single_relay", L2_SAMPLES, 12),
    ("two_relay_diamond", LARGE_SAMPLES, 17),
    ("single_relay", L2_SAMPLES, 12),
    ("single_relay", 0, 4),
    ("single_relay", L2_SAMPLES, 12),
    ("two_relay_diamond", LARGE_SAMPLES, 17),
    ("single_relay", L2_SAMPLES, 12),
)
CLI_ROTATION = (
    "capacity_cross_check", "region_mac", "verify_limits_sync", "region_gap",
    "counterexample", "capacity_phase", "min_power", "verify_limits_phase",
    "region_broadcast", "matrix_check",
)
CLI_VARIANTS = 3


def _pairs(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.atleast_1d(vec)]


def _cn(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _config_text(topology, csi, powers, gains, noise_psd) -> str:
    return json.dumps({
        "topology": topology,
        "csi": csi,
        "noise_psd": float(noise_psd),
        "powers": {k: float(v) for k, v in powers.items()},
        "gains": {k: _pairs(v) for k, v in gains.items()},
    })


def _single_relay_gains(rng, kind: str) -> dict:
    c21 = _cn(rng, 2)
    c31 = _cn(rng, 2)
    c32 = _cn(rng, 1)
    if kind == "mac_binding":  # strong source-relay link, weak relay-destination link
        c21 = 3.0 * c21
        c32 = 0.15 * c32
    elif kind == "parallel":
        # real dyadic gains on one antenna: |c21^H c31| = |c21| |c31| holds
        # exactly in floating point, so alpha is exactly 0
        c21, c31 = (np.array([np.round(rng.normal() * 64) / 64 or 1.0, 0.0]) for _ in range(2))
    elif kind == "dead_relay":
        c32 = np.zeros(1, dtype=complex)
    return {"c21": c21, "c31": c31, "c32": c32}


def _diamond_gains(rng) -> dict:
    return {"c21": _cn(rng, 2), "c31": _cn(rng, 2), "c42": _cn(rng, 1), "c43": _cn(rng, 1)}


def _powers(rng, keys) -> dict:
    return {k: rng.uniform(0.2, 5.0) for k in keys}


def capacity_items(rng, count: int) -> list[dict]:
    scales = list(CAPACITY_SCALES)
    items = []
    for i in range(count):
        kind = CAPACITY_KINDS[i % len(CAPACITY_KINDS)]
        scale = scales[i % len(scales)]
        p_scale, n0_scale = CAPACITY_SCALES[scale]
        gains = _single_relay_gains(rng, kind)
        powers = {k: v * p_scale for k, v in _powers(rng, ("P1", "P2")).items()}
        n0 = rng.uniform(0.5, 2.0) * n0_scale
        items.append({
            "props": {"kind": kind, "scale": scale},
            "config": _config_text("single_relay", "synchronous", powers, gains, n0),
        })
    return items


def diamond_items(rng, count: int) -> list[dict]:
    items = []
    for i in range(count):
        gains = _diamond_gains(rng)
        powers = _powers(rng, ("P1", "P2", "P3"))
        n0 = rng.uniform(0.5, 2.0)
        items.append({
            "props": {"steps": GAP_STEPS[i % len(GAP_STEPS)]},
            "phase": _config_text("two_relay_diamond", "phase_fading", powers, gains, n0),
            "sync": _config_text("two_relay_diamond", "synchronous", powers, gains, n0),
            "beam_share": float(rng.uniform(0.1, 0.9)),
        })
    return items


def _joint(rng, atoms: int) -> FiniteJoint:
    groups = 2 + atoms % 3  # the quadrature cost depends on the group sizes
    return FiniteJoint(
        x=rng.normal(size=(atoms, 2)),
        y=(np.arange(atoms) % groups).astype(float),
        probs=rng.dirichlet(np.full(atoms, 2.0)),
    )


def limit_items(rng, count: int) -> list[dict]:
    items = []
    for i in range(count):
        topology, samples, atoms = LIMIT_RECIPES[i % len(LIMIT_RECIPES)]
        path = "quadrature" if atoms <= QUADRATURE_ATOMS else "monte_carlo"
        if topology == "single_relay":
            gains = _single_relay_gains(rng, "random")
            powers = _powers(rng, ("P1", "P2"))
        else:
            gains = _diamond_gains(rng)
            powers = _powers(rng, ("P1", "P2", "P3"))
        csi = "phase_fading" if samples else "synchronous"
        items.append({
            "props": {
                "topology": topology,
                "samples": "l2" if samples == L2_SAMPLES else "large" if samples else "synchronous",
                "path": path,
            },
            "config": _config_text(topology, csi, powers, gains, rng.uniform(0.5, 2.0)),
            "samples": samples,
            "phase_seed": int(rng.integers(2**31)),
            "joint": _joint(rng, atoms),
            "c": _cn(rng, 2),
            "joint_n0": float(rng.uniform(0.5, 2.0)),
            "mc_seed": int(rng.integers(2**31)),
        })
    return items


def _matrix(rng, psd: bool) -> list[list[list[float]]]:
    dim = int(rng.integers(2, 4))
    a = _cn(rng, dim * dim).reshape(dim, dim)
    m = a @ a.conj().T
    if not psd:  # push the smallest eigenvalue below zero
        m = m - (np.linalg.eigvalsh(m)[0] + 0.5) * np.eye(dim)
    return [_pairs(row) for row in m]


def cli_items(rng, workdir: Path) -> list[dict]:
    """Write the configs of the CLI rotation into ``workdir``; one item each."""
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for variant in range(CLI_VARIANTS):
        for entry in CLI_ROTATION:
            path = workdir / f"{entry}-{variant}.json"
            expect = 0
            if entry in ("capacity_cross_check", "capacity_phase", "verify_limits_sync"):
                csi = "phase_fading" if entry == "capacity_phase" else "synchronous"
                path.write_text(_config_text(
                    "single_relay", csi, _powers(rng, ("P1", "P2")),
                    _single_relay_gains(rng, "random"), rng.uniform(0.5, 2.0)))
            elif entry.startswith("region") or entry == "verify_limits_phase":
                csi = "synchronous" if entry == "region_mac" else "phase_fading"
                path.write_text(_config_text(
                    "two_relay_diamond", csi, _powers(rng, ("P1", "P2", "P3")),
                    _diamond_gains(rng), rng.uniform(0.5, 2.0)))
            elif entry == "matrix_check":
                psd = variant != CLI_VARIANTS - 1
                path.write_text(json.dumps({"matrix": _matrix(rng, psd)}))
                expect = 0 if psd else 2
            argv = {
                "capacity_cross_check": ["capacity", "--config", str(path), "--cross-check"],
                "capacity_phase": ["capacity", "--config", str(path)],
                "region_mac": ["region", "--config", str(path), "--cut", "mac"],
                "region_broadcast": ["region", "--config", str(path), "--cut", "broadcast"],
                "region_gap": ["region", "--config", str(path), "--cut", "broadcast",
                               "--gap", "--steps", "12"],
                "counterexample": ["counterexample"],
                "verify_limits_sync": ["verify-limits", "--config", str(path)],
                "verify_limits_phase": ["verify-limits", "--config", str(path), "--samples",
                                        str(CLI_PHASE_SAMPLES), "--seed", str(variant)],
                "matrix_check": ["matrix-check", "--matrix", str(path)],
            }.get(entry)
            if entry == "min_power":
                r2, r3 = rng.uniform(0.5, 2.0, size=2)
                r_sum = rng.uniform(max(r2, r3), r2 + r3)
                c2_sq, c3_sq = rng.uniform(0.5, 3.0, size=2)
                c0_sq = rng.uniform(0.1, min(c2_sq, c3_sq))
                argv = ["min-power"]
                for flag, value in (("--r2", r2), ("--r3", r3), ("--r-sum", r_sum),
                                    ("--c2-sq", c2_sq), ("--c3-sq", c3_sq), ("--c0-sq", c0_sq)):
                    argv += [flag, repr(float(value))]
            items.append({"props": {"entry": entry}, "argv": argv, "expect": expect,
                          "path": str(path)})
    # entry by entry through the rotation, then again with the next variant
    return items


WORKLOADS = ("capacity_batch", "diamond_regions", "limit_checks", "cli_session")
# Items per whole cycle of the input properties above; a run stops on a
# multiple of it. The CLI's configs cycle over CLI_VARIANTS rotations, but
# every rotation runs each subcommand once.
ROTATION = {
    "capacity_batch": math.lcm(len(CAPACITY_KINDS), len(CAPACITY_SCALES)),
    "diamond_regions": len(GAP_STEPS),
    "limit_checks": len(LIMIT_RECIPES),
    "cli_session": len(CLI_ROTATION),
}


def make_items(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The item pool of one workload; each workload draws from its own stream."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "capacity_batch":
        return capacity_items(rng, POOL[workload])
    if workload == "diamond_regions":
        return diamond_items(rng, POOL[workload])
    if workload == "limit_checks":
        return limit_items(rng, POOL[workload])
    return cli_items(rng, workdir)


def shares(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Share of each value of each key among ``rows`` (e.g. the items' props)."""
    out: dict[str, dict[str, float]] = {}
    for key in rows[0] if rows else ():
        counts = Counter(str(row[key]) for row in rows)
        out[key] = {k: round(v / len(rows), 4) for k, v in sorted(counts.items())}
    return out
