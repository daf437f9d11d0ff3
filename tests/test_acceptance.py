"""Acceptance criteria, one test per criterion.

Each test prints a single ``C<n>: PASS``/``C<n>: FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live) and then asserts,
so the printed verdict always matches the pytest outcome.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from relaycap import (
    BeamformingWeights,
    FiniteJoint,
    LoewnerRelation,
    achievable_rate,
    beamforming_condition,
    beamforming_rates,
    broadcast_region_gap,
    check_conditional_limits,
    check_limit_constant_phase,
    check_limit_phase_fading,
    conditional_cov_bound_check,
    covariance_bounds,
    cutset_bounds,
    mac_region_point,
    max_min_beam_gain,
    min_power,
    optimize_capacity,
    optimize_covariance_bound,
    run_counterexample,
)
from relaycap.counterexample import comparison_rows

from helpers import diamond_config, random_single_relay


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c1_counterexample_reproduction():
    start = time.perf_counter()
    report = run_counterexample()
    elapsed = time.perf_counter() - start
    rows = comparison_rows(report)
    all_within = all(ok for *_, ok in rows)
    ok = (
        all_within
        and report.matches_reference
        and report.gap > 0.0
        and report.x_minus_a_strict.relation is LoewnerRelation.STRICTLY_GREATER
        and report.x_minus_b_psd.is_ordered
        and report.a_psd.is_ordered
        and report.b_psd.is_ordered
        and elapsed < 1.0
    )
    assert verdict(
        "C1",
        ok,
        f"16/16 values within tolerance={all_within}, power gap={report.gap:.6f} W, "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_c2_wideband_limit_checks():
    rng = np.random.default_rng(2026)
    worst_rel = 0.0
    all_ok = True
    # ten constant-phase instances followed by ten phase-fading ones
    for k in range(10):
        dim = 1 + k % 3
        gains = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        var = rng.uniform(0.2, 2.0, size=dim)
        n0 = float(rng.uniform(0.5, 2.0))
        report = check_limit_constant_phase(gains, var, n0)
        first_err = abs(report.scaled_mi[0] - report.target)
        rel = report.final_abs_err / report.target
        worst_rel = max(worst_rel, rel)
        all_ok = all_ok and report.converged and report.final_abs_err < first_err
    for k in range(10):
        dim = 2 + k % 2
        mags = np.abs(rng.normal(size=dim)) + 0.1
        var = rng.uniform(0.2, 2.0, size=dim)
        n0 = float(rng.uniform(0.5, 2.0))
        report = check_limit_phase_fading(mags, var, n0, rng_seed=1000 + k)
        first_err = abs(report.scaled_mi[0] - report.target)
        rel = report.final_abs_err / report.target
        worst_rel = max(worst_rel, rel)
        all_ok = all_ok and report.converged and report.final_abs_err < first_err

    # chain rule total = marginal + conditional along the whole sweep, to
    # integration accuracy on a four-atom joint and on a 24-atom one
    def chain_residual(reports):
        return float(np.max(np.abs(
            reports.total.scaled_mi - reports.marginal.scaled_mi - reports.conditional.scaled_mi
        )))

    x4 = np.array([[1.0, 0.0], [0.4, 0.6], [-0.8, 0.3], [0.1, -0.9]])
    joint4 = FiniteJoint(x=x4, y=[0.0, 0.0, 1.0, 1.0], probs=[0.3, 0.2, 0.25, 0.25])
    c = np.array([0.9, 0.45])
    chain_quad = chain_residual(check_conditional_limits(joint4, c, c, 0.8))
    all_ok = all_ok and chain_quad < 1e-7

    x24 = rng.normal(size=(24, 2))
    joint24 = FiniteJoint(
        x=x24, y=np.repeat(np.arange(4.0), 6), probs=np.full(24, 1.0 / 24)
    )
    chain_24 = chain_residual(
        check_conditional_limits(joint24, c, c, 1.0, bandwidths=[10.0, 100.0, 1000.0])
    )
    all_ok = all_ok and chain_24 < 1e-7

    assert verdict(
        "C2",
        all_ok,
        f"20 instances, worst final rel err={worst_rel:.2e} (tol 1e-3), "
        f"chain residual 4 atoms={chain_quad:.1e}, 24 atoms={chain_24:.1e} (tol 1e-7)",
    )


def test_c3_independent_optimizers_agree():
    rng = np.random.default_rng(7)
    worst = 0.0
    consistent = True
    start = time.perf_counter()
    for _ in range(50):
        cfg = random_single_relay(rng)
        power_result = optimize_capacity(cfg)
        cov_result = optimize_covariance_bound(cfg)
        scale = max(power_result.rate, cov_result.rate, 1e-12)
        worst = max(worst, abs(power_result.rate - cov_result.rate) / scale)
        replay = achievable_rate(cfg, power_result.allocation)
        consistent = consistent and math.isclose(
            replay, power_result.rate, rel_tol=1e-6, abs_tol=1e-9
        )
        rd, mac = covariance_bounds(cfg, cov_result.allocation)
        consistent = consistent and math.isclose(
            min(rd, mac), cov_result.rate, rel_tol=1e-6, abs_tol=1e-9
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and consistent
    assert verdict(
        "C3",
        ok,
        f"50 instances, worst optimizer disagreement={worst:.2e} (tol 1e-3), "
        f"allocations replay to their rates={consistent}, {elapsed:.1f}s",
    )


def test_c4_bound_evaluation_oracle():
    from relaycap import PowerAllocation, angle_between

    rng = np.random.default_rng(12)
    worst = 0.0
    for k in range(100):
        cfg = random_single_relay(rng)
        gains = dict(cfg.gains)
        if k % 10 == 7:  # exercise a dead source-to-relay link
            gains["c21"] = np.zeros(2, dtype=complex)
        if k % 10 == 8:  # and a mute relay
            gains["c32"] = np.zeros(1, dtype=complex)
        cfg = type(cfg)(
            topology=cfg.topology, csi=cfg.csi, powers=cfg.powers, gains=gains,
            noise_psd=cfg.noise_psd,
        )
        p1 = cfg.powers["P1"]
        split = rng.dirichlet([1.0, 1.0, 1.0]) * p1 * rng.uniform(0.5, 1.0)
        theta = float(rng.uniform(-0.5, 2.0))
        alloc = PowerAllocation(p21=split[0], p31=split[1], pb1=split[2], theta=theta)

        c21, c31 = cfg.gain("c21"), cfg.gain("c31")
        g21 = float(np.vdot(c21, c21).real)
        g31 = float(np.vdot(c31, c31).real)
        alpha = angle_between(c21, c31) if g21 > 0 and g31 > 0 else 0.0
        m32 = abs(cfg.scalar_gain("c32"))
        n0 = cfg.noise_psd
        p21, p31, pb1 = split[0] / n0, split[1] / n0, split[2] / n0
        p2 = cfg.powers["P2"] / n0
        want_rd = g31 * p31 + g21 * math.cos(alpha - theta) ** 2 * p21
        want_mac = (
            g31 * p31
            + g31 * math.cos(theta) ** 2 * p21
            + (math.sqrt(pb1 * g31) + m32 * math.sqrt(p2)) ** 2
        )
        got_rd, got_mac = cutset_bounds(cfg, alloc)
        scale = max(1.0, want_rd, want_mac)
        worst = max(worst, abs(got_rd - want_rd) / scale, abs(got_mac - want_mac) / scale)

    # degenerate optima: no usable relay path means direct transmission
    dead_relay_rates = []
    for key in ("c21", "c32"):
        cfg = random_single_relay(np.random.default_rng(99))
        gains = dict(cfg.gains)
        gains[key] = np.zeros_like(gains[key])
        cfg = type(cfg)(
            topology=cfg.topology, csi=cfg.csi, powers=cfg.powers, gains=gains,
            noise_psd=cfg.noise_psd,
        )
        g31 = float(np.vdot(cfg.gain("c31"), cfg.gain("c31")).real)
        direct = g31 * cfg.powers["P1"] / cfg.noise_psd
        rate = optimize_capacity(cfg).rate
        dead_relay_rates.append(abs(rate - direct) / max(direct, 1e-12))
    degenerate_ok = max(dead_relay_rates) < 1e-9

    ok = worst <= 1e-12 and degenerate_ok
    assert verdict(
        "C4",
        ok,
        f"100 instances, worst bound mismatch={worst:.2e} (tol 1e-12), "
        f"dead-relay optima match direct rate={degenerate_ok}",
    )


def test_c5_mac_cut_region():
    from relaycap import CsiMode

    hand = diamond_config(p2=1.0, p3=1.0, c42=1.0, c43=1.0, csi=CsiMode.SYNCHRONOUS)
    pt = mac_region_point(hand, rho=0.5)
    hand_ok = (
        math.isclose(pt.r23_max, 0.75)
        and math.isclose(pt.r32_max, 0.75)
        and math.isclose(pt.r_sum_max, 3.0)
    )

    cfg = diamond_config(p2=2.0, p3=0.5, c42=1.5, c43=2.0, csi=CsiMode.SYNCHRONOUS)
    m42, m43, p2, p3 = 1.5, 2.0, 2.0, 0.5
    free = mac_region_point(cfg, rho=0.0)
    locked = mac_region_point(cfg, rho=1.0)
    endpoints_ok = (
        math.isclose(free.r23_max, m42**2 * p2)
        and math.isclose(free.r32_max, m43**2 * p3)
        and math.isclose(free.r_sum_max, m42**2 * p2 + m43**2 * p3)
        and locked.r23_max == 0.0
        and locked.r32_max == 0.0
        and math.isclose(
            locked.r_sum_max, (m42 * math.sqrt(p2) + m43 * math.sqrt(p3)) ** 2
        )
    )

    rhos = np.linspace(0.0, 1.0, 41)
    points = [mac_region_point(cfg, rho=float(r)) for r in rhos]
    sums = np.array([p.r_sum_max for p in points])
    singles = np.array([p.r23_max for p in points])
    shape_ok = bool(
        np.all(np.diff(sums, 2) <= 1e-9)  # sum bound concave along the sweep
        and np.all(np.diff(sums) >= -1e-12)
        and np.all(np.diff(singles) <= 1e-12)  # individual bounds shrink
    )

    fading = mac_region_point(diamond_config(p2=2.0, p3=3.0), rho=0.9)
    fading_ok = fading.rho_ignored and math.isclose(
        fading.r_sum_max, fading.r23_max + fading.r32_max
    )

    ok = hand_ok and endpoints_ok and shape_ok and fading_ok
    assert verdict(
        "C5",
        ok,
        f"hand case={hand_ok}, closed-form endpoints={endpoints_ok}, "
        f"concave/monotone sweep={shape_ok}, fading ignores rho={fading_ok}",
    )


def test_c6_conditional_covariance_inequality():
    rng = np.random.default_rng(6)
    worst_eig = math.inf
    holds = True
    for _ in range(200):
        n = int(rng.integers(3, 16))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        y = rng.normal(size=n).round(1)
        if np.ptp(y) == 0.0:
            y[0] += 1.0
        p = rng.uniform(0.05, 1.0, size=n)
        p /= p.sum()
        report = conditional_cov_bound_check(FiniteJoint(x=x, y=y, probs=p))
        worst_eig = min(worst_eig, report.verdict.min_eigenvalue)
        holds = holds and report.holds
    ok = holds and worst_eig >= -1e-9
    assert verdict(
        "C6",
        ok,
        f"200 random joints, min eigenvalue of (rhs - lhs)={worst_eig:.2e} (tol -1e-9)",
    )


def test_c7_min_power_linear_program():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        c3 = rng.normal(size=2) + 1j * rng.normal(size=2)
        c2_sq = float(np.vdot(c2, c2).real)
        c3_sq = float(np.vdot(c3, c3).real)
        c0_sq = max_min_beam_gain(c2, c3)
        r2, r3 = rng.uniform(0.1, 2.0, size=2)
        r_sum = float(rng.uniform(max(r2, r3), r2 + r3))
        closed = min_power(r2, r3, r_sum, c2_sq, c3_sq, c0_sq).p_total
        # reference: minimize the power cost over all stream splits
        lp = linprog(
            c=[1.0 / c0_sq, 1.0 / c2_sq, 1.0 / c3_sq],
            A_ub=[[-1.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [-1.0, -1.0, -1.0]],
            b_ub=[-r2, -r3, -r_sum],
            bounds=[(0.0, None)] * 3,
            method="highs",
        )
        assert lp.status == 0
        worst = max(worst, abs(closed - lp.fun))
    fixed = min_power(
        r2=1.9149, r3=0.9636, r_sum=1.9636, c2_sq=1.0, c3_sq=1.0, c0_sq=0.9605
    ).p_total
    fixed_ok = abs(fixed - 2.0011) < 2e-3
    ok = worst <= 1e-6 and fixed_ok
    assert verdict(
        "C7",
        ok,
        f"1000 geometric instances, worst |closed - LP|={worst:.2e} (tol 1e-6), "
        f"reference instance p_total={fixed:.4f}",
    )


def test_c8_broadcast_region_match_under_phase_fading():
    rng = np.random.default_rng(88)
    worst_ratio = 0.0
    start = time.perf_counter()
    for k in range(10):
        a = rng.uniform(0.2, 1.0, size=2)
        if k < 5:
            b = a * rng.uniform(1.05, 2.0, size=2)  # one relay dominated
        else:
            b = np.array([a[0] * rng.uniform(1.1, 2.0), a[1] * rng.uniform(0.3, 0.9)])
        cfg = diamond_config(
            p1=float(rng.uniform(0.5, 2.0)),
            p2=float(rng.uniform(0.5, 2.0)),
            c21=tuple(a),
            c31=tuple(b),
        )
        report = broadcast_region_gap(cfg, steps=16)
        worst_ratio = max(worst_ratio, report.max_gap / report.rate_resolution)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 2.0
    assert verdict(
        "C8",
        ok,
        f"10 instances at steps=16, worst gap={worst_ratio:.3f}x rate resolution "
        f"(tol 2x), {elapsed:.1f}s",
    )


def test_c9_beamforming_covers_degraded_broadcast_cut():
    from relaycap import CsiMode

    rng = np.random.default_rng(21)

    def rand_psd(scale):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m @ m.conj().T
        return m * (scale / max(np.trace(m).real, 1e-12))

    instances = 0
    worst_strong_margin = math.inf
    worst_weak_dev = 0.0
    while instances < 10:
        c21 = rng.normal(size=2) + 1j * rng.normal(size=2)
        c31 = 0.6 * c21 * rng.uniform(0.4, 0.9) + 0.15 * (
            rng.normal(size=2) + 1j * rng.normal(size=2)
        )
        if not beamforming_condition(c21, c31):
            continue
        instances += 1
        p1 = float(rng.uniform(0.5, 3.0))
        n0 = float(rng.uniform(0.5, 2.0))
        cfg = diamond_config(
            p1=p1, c21=tuple(c21), c31=tuple(c31), csi=CsiMode.SYNCHRONOUS, noise_psd=n0
        )
        g21 = float(np.vdot(c21, c21).real)
        g31 = float(np.vdot(c31, c31).real)
        g_strong, g_weak = max(g21, g31), min(g21, g31)
        c_strong, c_weak = (c21, c31) if g21 >= g31 else (c31, c21)
        for _ in range(100):
            # arbitrary PSD superposition: a common block decoded by both
            # relays plus a private block for the stronger one
            w = rng.uniform(0.0, 1.0)
            qc = rand_psd(w * p1)
            qp = rand_psd((1.0 - w) * p1)
            r_weak_cand = (
                min(
                    float(np.vdot(c_strong, qc @ c_strong).real),
                    float(np.vdot(c_weak, qc @ c_weak).real),
                )
                / n0
            )
            r_strong_cand = r_weak_cand + float(np.vdot(c_strong, qp @ c_strong).real) / n0
            # rank-one frontier point with the same weak-relay rate
            common = r_weak_cand * n0 / g_weak**2
            private = max(0.0, p1 - common * g_weak) / g_strong
            rates = beamforming_rates(cfg, BeamformingWeights(private=private, common=common))
            r_weak_beam, r_strong_beam = sorted((rates.r2, rates.r3))
            # the common weight was chosen to tie the weak-relay rate; the
            # private beam must then at least match the strong-relay rate
            worst_weak_dev = max(worst_weak_dev, abs(r_weak_beam - r_weak_cand))
            worst_strong_margin = min(worst_strong_margin, r_strong_beam - r_strong_cand)

    # the coverage condition is genuinely restrictive: it fails for the
    # equal-norm vectors of the synchronous counterexample geometry
    e1 = np.array([1.0, 0.0])
    v = np.array([math.cos(0.4), math.sin(0.4)])
    condition_fails = not beamforming_condition(e1, v)

    ok = worst_strong_margin >= -1e-9 and worst_weak_dev <= 1e-9 and condition_fails
    assert verdict(
        "C9",
        ok,
        f"10 channels x 100 PSD superpositions dominated, worst strong-rate margin="
        f"{worst_strong_margin:.3f} nats/s, condition rejects non-degraded "
        f"geometry={condition_fails}",
    )
