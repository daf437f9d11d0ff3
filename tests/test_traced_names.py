"""The benchmark's tracer finds every library function it wraps, and the
parameters it reads by name, in the current signatures; every name the
benchmark imports from the library still resolves; every keyword the
benchmark's workloads pass is still a parameter, and every command line the
CLI workload runs still parses."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import relaycap
from relaycap.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# parameters that the tracer's variant functions read from the bound arguments
BOUND_BY_NAME = {
    "regions.broadcast_region_gap": ("steps",),
    "wideband.check_limit_phase_fading": ("num_phase_samples", "bandwidths"),
    "wideband.check_conditional_limits": ("max_quadrature_support", "mc_samples", "bandwidths"),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_import_from_their_modules():
    for name, (module, attr) in _load("tracing").LIBRARY.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_benchmark_imports_resolve():
    # the workloads import some names straight from their modules, outside
    # the tracer's table; each must still be there
    imported = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relaycap":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module} has no {alias.name}"
                    imported += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "relaycap":
                        importlib.import_module(alias.name)
    assert imported >= 5  # FiniteJoint, comparison_rows, BeamformingWeights, ...


def test_traced_parameter_names_exist():
    library = _load("tracing").LIBRARY
    for name, params in BOUND_BY_NAME.items():
        module, attr = library[name]
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
        for param in params:
            assert param in signature.parameters, f"{name} lost parameter {param!r}"


def test_workload_keywords_exist():
    # the workloads call the library as lib.<name>(..., keyword=...), with
    # lib bound to the package's public names
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    passed = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "lib"):
            passed.setdefault(node.func.attr, set()).update(k.arg for k in node.keywords if k.arg)
    assert {"rng_seed", "mc_samples"} <= passed["check_conditional_limits"]
    assert "rng_seed" in passed["check_limit_phase_fading"]
    for name, keywords in passed.items():
        signature = inspect.signature(getattr(relaycap, name))
        for keyword in keywords:
            assert keyword in signature.parameters, f"{name} lost parameter {keyword!r}"


def test_cli_workload_command_lines_parse(tmp_path):
    items = _load("inputs").cli_items(np.random.default_rng(0), tmp_path)
    flags = {arg for item in items for arg in item["argv"] if arg.startswith("--")}
    assert {"--samples", "--seed", "--cross-check", "--gap", "--steps", "--cut", "--config",
            "--matrix", "--r2", "--r3", "--r-sum", "--c2-sq", "--c3-sq", "--c0-sq"} <= flags
    parser = build_parser()
    for item in items:
        try:
            parser.parse_args(item["argv"])
        except SystemExit:
            pytest.fail(f"the CLI no longer parses {item['argv']}")


def test_patched_cli_records_its_layer_calls(tmp_path, monkeypatch):
    # the CLI binds its layer names on first use; the benchmark's tracer
    # wraps them where it finds them and must still see every call
    from helpers import diamond_config, single_relay_config

    import relaycap.cli as cli

    tracing = _load("tracing")
    for _, attr in tracing.LIBRARY.values():
        if hasattr(cli, attr):  # undone after the test, wrapped or not
            monkeypatch.setattr(cli, attr, getattr(cli, attr))
    tracer = tracing.Tracer()
    tracing.patch_module(cli, tracer)
    sync = tmp_path / "sync.json"
    sync.write_text(single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8).to_json())
    diamond = tmp_path / "diamond.json"
    diamond.write_text(diamond_config(p1=1.5, p2=2.0).to_json())

    assert cli.main(["capacity", "--config", str(sync), "--cross-check"]) == 0
    assert [span["name"] for span in tracer.spans] == [
        "channel.load_config", "capacity.optimize_capacity", "capacity.optimize_covariance_bound"]
    del tracer.spans[:]
    assert cli.main(["region", "--config", str(diamond), "--cut", "broadcast", "--gap",
                     "--steps", "4"]) == 0
    assert [span["name"] for span in tracer.spans] == [
        "channel.load_config", "regions.broadcast_region_gap"]
    assert tracer.spans[1]["variant"] == "steps4"
