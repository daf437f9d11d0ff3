"""What one item of each workload runs, and what its checker is given.

``run_*`` functions are the timed part: they call relaycap only through the
namespace ``lib`` (see tracing.bind) and return the plain values the checker
needs. ``finish_cli`` runs after the timed loop; it calls the library for the
reference a CLI output is compared with.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from relaycap.counterexample import comparison_rows
from relaycap.regions import BeamformingWeights, CommonPrivateAllocation
from relaycap.wideband import DEFAULT_BANDWIDTHS

import checks
import inputs

TABLE_ROWS = 33  # the CLI's default --steps for the broadcast rate table
MAC_RHOS = tuple(float(r) for r in np.linspace(0.0, 1.0, 17))


def run_capacity(lib, item: dict) -> dict:
    cfg = lib.load_config(item["config"])
    power = lib.optimize_capacity(cfg)
    cov = lib.optimize_covariance_bound(cfg)
    return {
        "rate": power.rate,
        "cov_rate": cov.rate,
        "cuts": lib.cutset_bounds(cfg, power.allocation),
        "cov_replay": min(lib.covariance_bounds(cfg, cov.allocation)),
    }


def _table_allocations(cfg, rows: int):
    """The common/private splits the CLI's broadcast rate table walks through."""
    b1, b2 = cfg.powers["P1"], cfg.powers["P2"]
    for frac in np.linspace(0.0, 1.0, rows):
        yield frac, CommonPrivateAllocation(
            p1c=frac * b1, p2c=frac * b2,
            p12=(1.0 - frac) * b1 / 2.0, p22=(1.0 - frac) * b2 / 2.0,
            p13=(1.0 - frac) * b1 / 2.0, p23=(1.0 - frac) * b2 / 2.0,
        )


def run_diamond(lib, item: dict) -> dict:
    fading = lib.load_config(item["phase"])
    for _, alloc in _table_allocations(fading, TABLE_ROWS):
        lib.common_private_rates(fading, alloc)
    gap = lib.broadcast_region_gap(fading, steps=item["props"]["steps"])

    sync = lib.load_config(item["sync"])
    mac = [lib.mac_region_point(sync, rho) for rho in MAC_RHOS]
    c21, c31 = sync.gain("c21"), sync.gain("c31")
    g21 = float(np.vdot(c21, c21).real)
    g31 = float(np.vdot(c31, c31).real)
    beamforming = lib.beamforming_condition(c21, c31)
    if beamforming:
        share = item["beam_share"]
        budget = sync.powers["P1"]
        lib.beamforming_rates(sync, BeamformingWeights(
            private=share * budget / max(g21, g31), common=(1.0 - share) * budget / min(g21, g31)))
    c0_sq = lib.max_min_beam_gain(c21, c31)
    demand = gap.worst_demand
    lib.min_power(demand.r2, demand.r3, demand.r_sum, c2_sq=g21, c3_sq=g31, c0_sq=c0_sq)
    return {
        "max_gap": gap.max_gap,
        "rate_resolution": gap.rate_resolution,
        "mac0": (mac[0].r23_max, mac[0].r32_max, mac[0].r_sum_max),
        "mac1": (mac[-1].r23_max, mac[-1].r32_max, mac[-1].r_sum_max),
        "beamforming": beamforming,
    }


def _links(cfg):
    if cfg.topology.value == "single_relay":
        return (("c21", "P1"), ("c31", "P1"), ("c32", "P2"))
    return (("c21", "P1"), ("c31", "P1"), ("c42", "P2"), ("c43", "P3"))


def _conditional(lib, item: dict):
    joint, c, n0 = item["joint"], item["c"], item["joint_n0"]
    path = item["props"]["path"]
    if path == "quadrature":
        reports = lib.check_conditional_limits(joint, c, c, n0)
    else:
        reports = lib.check_conditional_limits(
            joint, c, c, n0, bandwidths=inputs.MC_BANDWIDTHS,
            mc_samples=inputs.MC_SAMPLES, rng_seed=item["mc_seed"])
    resid = np.abs(reports.total.scaled_mi - reports.marginal.scaled_mi
                   - reports.conditional.scaled_mi)
    spread = None
    if path == "monte_carlo":
        spread = np.sqrt(reports.total.standard_errors ** 2
                         + reports.marginal.standard_errors ** 2
                         + reports.conditional.standard_errors ** 2).tolist()
    return {"path": path, "resid": resid.tolist(), "spread": spread}


def run_limits(lib, item: dict) -> dict:
    cfg = lib.load_config(item["config"])
    n0 = cfg.noise_psd
    converged = []
    for link, budget in _links(cfg):
        gains = cfg.gains[link]
        input_var = np.full(gains.shape, cfg.powers[budget] / gains.size)
        if item["samples"]:
            report = lib.check_limit_phase_fading(
                np.abs(gains), input_var, n0, DEFAULT_BANDWIDTHS,
                num_phase_samples=item["samples"], rng_seed=item["phase_seed"])
        else:
            report = lib.check_limit_constant_phase(gains, input_var, n0, DEFAULT_BANDWIDTHS)
        converged.append(bool(report.converged))
    chain = _conditional(lib, item)
    cov = lib.conditional_cov_bound_check(item["joint"])
    order = lib.loewner_compare(cov.rhs, cov.lhs)
    reference = lib.run_counterexample()
    return {
        "links_converged": converged,
        "chain": chain,
        "cov_bound_holds": bool(cov.holds),
        "loewner_ordered": bool(order.is_ordered),
        "matches_reference": bool(reference.matches_reference),
    }


# --- cli_session ------------------------------------------------------------

CHILD = str(Path(__file__).with_name("cli_child.py"))


class CliRunner:
    """Runs one ``relaycap`` process per item, waiting for each to end.

    The process is ``cli_child.py``, which runs the CLI as the console script
    does. Output goes to files in ``workdir``; the process is reaped with
    wait4 so its own peak RSS is known. Traced, the child also times
    interpreter start, ``import relaycap.cli`` and the subcommand, and records
    spans around the CLI's calls into the other layers.
    """

    def __init__(self, src: Path, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.peak_rss_kb = 0
        self.count = 0

    def _spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
        ]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status), start

    def __call__(self, lib, item: dict) -> dict:
        self.count += 1
        stdout = self.workdir / f"stdout-{self.count}"
        stderr = self.workdir / f"stderr-{self.count}"
        if self.tracer is None:
            rc, _ = self._spawn([CHILD, "-", item["props"]["entry"], *item["argv"]], stdout, stderr)
        else:
            spans_path = self.workdir / f"spans-{self.count}.json"
            rc, start = self._spawn([CHILD, str(spans_path), item["props"]["entry"], *item["argv"]],
                                    stdout, stderr)
            recorded = json.loads(spans_path.read_text())
            item_span = self.tracer.current()
            self.tracer.add("cli.python_startup", start, recorded["enter"], parent=item_span)
            self.tracer.adopt(recorded["spans"], parent=item_span)
            spans_path.unlink()
        out = {"rc": rc, "stdout": stdout.read_text(), "stderr": stderr.read_text()}
        stdout.unlink()
        stderr.unlink()
        return out


def _argv_value(argv: list[str], flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


def _verify_rows(lib, cfg, item: dict) -> list[list]:
    rows = []
    for link, budget in _links(cfg):
        gains = cfg.gains[link]
        input_var = np.full(gains.shape, cfg.powers[budget] / gains.size)
        if cfg.csi.value == "synchronous":
            report = lib.check_limit_constant_phase(gains, input_var, cfg.noise_psd, DEFAULT_BANDWIDTHS)
        else:
            report = lib.check_limit_phase_fading(
                np.abs(gains), input_var, cfg.noise_psd, DEFAULT_BANDWIDTHS,
                num_phase_samples=int(_argv_value(item["argv"], "--samples")),
                rng_seed=int(_argv_value(item["argv"], "--seed")))
        for k, bandwidth in enumerate(report.bandwidths):
            value = float(report.scaled_mi[k])
            rows.append([link, float(bandwidth), value, report.target,
                         abs(value - report.target), "yes" if report.converged else "no"])
    return rows


def cli_reference(lib, item: dict):
    """What the CLI should print for ``item``, from in-process library calls."""
    entry = item["props"]["entry"]
    text = Path(item["path"]).read_text() if entry not in ("counterexample", "min_power") else None
    if entry == "capacity_cross_check":
        cfg = lib.load_config(text)
        power = lib.optimize_capacity(cfg)
        return {"csi": "synchronous", "rate": power.rate, "binding": power.binding_bound.value,
                "covariance_rate": lib.optimize_covariance_bound(cfg).rate}
    if entry == "capacity_phase":
        return {"csi": "phase_fading", "rate": lib.phase_fading_capacity(lib.load_config(text))}
    if entry == "region_mac":
        cfg = lib.load_config(text)
        points = (lib.mac_region_point(cfg, float(rho)) for rho in np.linspace(0.0, 1.0, 33))
        return [[p.rho, p.r23_max, p.r32_max, p.r_sum_max] for p in points]
    if entry == "region_broadcast":
        cfg = lib.load_config(text)
        rows = []
        for frac, alloc in _table_allocations(cfg, 33):
            rates = lib.common_private_rates(cfg, alloc)
            rows.append([frac, rates.rc, rates.r2, rates.r3, rates.r_sum])
        return rows
    if entry == "region_gap":
        report = lib.broadcast_region_gap(lib.load_config(text), steps=12)
        return {"max_gap": report.max_gap, "rate_resolution": report.rate_resolution,
                "steps": "12", "worst_r2": report.worst_demand.r2,
                "worst_r3": report.worst_demand.r3, "worst_r_sum": report.worst_demand.r_sum}
    if entry == "min_power":
        argv = item["argv"]
        result = lib.min_power(*(_argv_value(argv, f) for f in (
            "--r2", "--r3", "--r-sum", "--c2-sq", "--c3-sq", "--c0-sq")))
        return {"p_total": result.p_total, "r_common": result.r_common,
                "r2_private": result.r2_private, "r3_private": result.r3_private}
    if entry == "counterexample":
        report = lib.run_counterexample()
        values = {name: got for name, got, *_ in comparison_rows(report)}
        values.update(gap=report.gap, p_required=report.p_required, trace_x=report.trace_x)
        return values
    if entry.startswith("verify_limits"):
        return _verify_rows(lib, lib.load_config(text), item)
    # matrix_check
    rows = json.loads(text)["matrix"]
    matrix = np.array([[complex(*cell) for cell in row] for row in rows])
    verdict = lib.loewner_compare(matrix, np.zeros_like(matrix))
    return {"hermitian": "yes", "eigenvalues": [float(e) for e in lib.eigenvalues_ascending(matrix)],
            "relation_to_zero": verdict.relation.value, "min_eigenvalue": verdict.min_eigenvalue,
            "psd": "yes" if verdict.is_ordered else "no"}


def finish_cli(lib, item: dict, out: dict, cache: dict) -> None:
    """Attach the library's reference for ``item``, computed once per config."""
    key = (item["props"]["entry"], item["path"])
    if key not in cache:
        cache[key] = cli_reference(lib, item)
    out["reference"] = cache[key]


RUN = {"capacity_batch": run_capacity, "diamond_regions": run_diamond, "limit_checks": run_limits}


def check(workload: str, item: dict, out: dict) -> list[str]:
    if workload == "capacity_batch":
        return checks.check_capacity(item, out)
    if workload == "diamond_regions":
        return checks.check_diamond(item, out)
    if workload == "limit_checks":
        return checks.check_limits(item, out)
    return checks.check_cli(item, out, out["reference"])

