"""The benchmark's own tests: checkers reject corrupted results, and a quick
run of every workload reports every named metric with its unit.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = tracing.bind()


def _perturb(value: float, rel: float = 1e-6) -> float:
    return value * (1.0 + rel) if value else rel


def _first(workload: str, **props) -> dict:
    items = inputs.make_items(workload, 0, HERE / "out" / "test-inputs")
    return next(i for i in items if all(i["props"][k] == v for k, v in props.items()))


def test_capacity_checker_rejects_corruption():
    item = _first("capacity_batch", kind="random")
    out = workloads.run_capacity(LIB, item)
    assert checks.check_capacity(item, out) == []
    for key in ("rate", "cov_rate", "cov_replay"):
        assert checks.check_capacity(item, dict(out, **{key: _perturb(out[key])}))
    rd, mac = out["cuts"]
    assert checks.check_capacity(item, dict(out, cuts=(_perturb(rd, -1e-6), _perturb(mac, -1e-6))))


def test_diamond_checker_rejects_corruption():
    item = _first("diamond_regions", steps=8)
    out = workloads.run_diamond(LIB, item)
    assert checks.check_diamond(item, out) == []
    assert checks.check_diamond(item, dict(out, max_gap=2.001 * out["rate_resolution"]))
    for key in ("mac0", "mac1"):
        point = list(out[key])
        point[2] = _perturb(point[2])
        assert checks.check_diamond(item, dict(out, **{key: tuple(point)}))


def test_limit_checker_rejects_corruption():
    item = _first("limit_checks", path="quadrature", samples="l2")
    out = workloads.run_limits(LIB, item)
    assert checks.check_limits(item, out) == []
    assert checks.check_limits(item, dict(out, links_converged=[False] + out["links_converged"][1:]))
    assert checks.check_limits(item, dict(out, chain=dict(out["chain"], resid=[1e-6])))
    for key in ("cov_bound_holds", "loewner_ordered", "matches_reference"):
        assert checks.check_limits(item, dict(out, **{key: False}))

    mc = {"path": "monte_carlo", "resid": [0.02, 0.031], "spread": [0.01, 0.01]}
    assert checks.check_limits(item, dict(out, chain=mc))
    assert checks.check_limits(item, dict(out, chain=dict(mc, resid=[0.02, 0.029]))) == []


def _wrong_digit(text: str) -> str:
    """Change the first digit that follows a '.' in ``text``."""
    at = text.index(".") + 1
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


@pytest.mark.parametrize("entry", inputs.CLI_ROTATION)
def test_cli_checker_rejects_corruption(entry, tmp_path):
    item = _first("cli_session", entry=entry)
    out = workloads.CliRunner(ROOT / "src", tmp_path)(LIB, item)
    workloads.finish_cli(LIB, item, out, {})
    assert checks.check_cli(item, out, out["reference"]) == []
    assert checks.check_cli(item, dict(out, stdout=_wrong_digit(out["stdout"])), out["reference"])
    assert checks.check_cli(item, dict(out, rc=1), out["reference"])
    assert checks.check_cli(item, dict(out, stdout="garbage"), out["reference"])


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark_json()["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"][f"{workload}.trace_overhead_ratio"]["value"] > 0
        assert (HERE / "out" / f"spans-{workload}-seed3.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "capacity_batch", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
