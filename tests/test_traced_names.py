"""The benchmark's tracer finds every library function it wraps, and the
parameters it reads by name, in the current signatures."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# parameters that the tracer's variant functions read from the bound arguments
BOUND_BY_NAME = {
    "regions.broadcast_region_gap": ("steps",),
    "wideband.check_limit_phase_fading": ("num_phase_samples", "bandwidths"),
    "wideband.check_conditional_limits": ("max_quadrature_support", "mc_samples", "bandwidths"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_import_from_their_modules():
    for name, (module, attr) in _tracing().LIBRARY.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_parameter_names_exist():
    library = _tracing().LIBRARY
    for name, params in BOUND_BY_NAME.items():
        module, attr = library[name]
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
        for param in params:
            assert param in signature.parameters, f"{name} lost parameter {param!r}"
