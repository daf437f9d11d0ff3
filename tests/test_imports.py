"""The package resolves its public names on first use, and each CLI
subcommand imports only the layers it runs. Every check that reads
``sys.modules`` runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaycap

SRC = str(Path(relaycap.__file__).resolve().parents[1])
# the modules every CLI process loads, whatever the subcommand
CLI_BASE = {"relaycap", "relaycap.cli", "relaycap.channel"}


def _loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; the relaycap modules and whether
    numpy were loaded when it ended."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps({'relaycap': sorted(m for m in sys.modules"
        + " if m == 'relaycap' or m.startswith('relaycap.')),"
        + " 'numpy': 'numpy' in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_no_layer_and_no_numpy():
    loaded = _loaded_after("import relaycap")
    assert loaded == {"relaycap": ["relaycap"], "numpy": False}


def test_layer_attribute_after_bare_import():
    loaded = _loaded_after("import relaycap\nassert relaycap.capacity.optimize_capacity")
    assert set(loaded["relaycap"]) == {"relaycap", "relaycap.capacity", "relaycap._search",
                                       "relaycap.channel", "relaycap.matrices"}


def test_public_names_resolve():
    for name in relaycap.__all__:
        assert getattr(relaycap, name) is not None, name
    for name in relaycap.__all__:
        assert name in dir(relaycap)
    assert relaycap.optimize_capacity is relaycap.capacity.optimize_capacity
    assert relaycap.FiniteJoint is relaycap.matrices.FiniteJoint
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        relaycap.not_a_name  # noqa: B018


def test_star_import_binds_all():
    namespace = {}
    exec("from relaycap import *", namespace)
    assert set(relaycap.__all__) <= set(namespace)
    assert namespace["min_power"] is relaycap.regions.min_power


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    from helpers import diamond_config, single_relay_config

    root = tmp_path_factory.mktemp("cli_imports")
    sync = root / "sync.json"
    sync.write_text(single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8).to_json())
    diamond = root / "diamond.json"
    diamond.write_text(diamond_config(p1=1.5, p2=2.0).to_json())
    matrix = root / "matrix.json"
    matrix.write_text("[[2, 1], [1, 2]]")
    return {"sync": str(sync), "diamond": str(diamond), "matrix": str(matrix)}


SUBCOMMANDS = {
    "capacity": (["capacity", "--config", "{sync}", "--cross-check"],
                 {"capacity", "_search", "matrices"}),
    "region": (["region", "--config", "{diamond}", "--cut", "broadcast", "--gap", "--steps", "4"],
               {"regions"}),
    "min-power": (["min-power", "--r2", "1", "--r3", "1", "--r-sum", "1.5", "--c2-sq", "1",
                   "--c3-sq", "1", "--c0-sq", "0.9605"], {"regions"}),
    "verify-limits": (["verify-limits", "--config", "{sync}"], {"wideband", "matrices"}),
    "counterexample": (["counterexample"], {"counterexample", "regions", "matrices"}),
    "matrix-check": (["matrix-check", "--matrix", "{matrix}"], {"matrices"}),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_imports_only_its_layers(command, cli_files):
    argv, layers = SUBCOMMANDS[command]
    argv = [arg.format(**cli_files) for arg in argv]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from relaycap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "assert rc == 0, rc"
    )
    assert set(loaded["relaycap"]) == CLI_BASE | {f"relaycap.{layer}" for layer in layers}
