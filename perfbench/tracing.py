"""Spans around the benchmark's calls into relaycap, and the per-layer table.

The benchmark never calls a relaycap function directly. It calls through the
namespace that :func:`bind` returns: untraced, that namespace holds the plain
functions, so an untraced run pays nothing; traced, each function is wrapped
so that every call records one span (name, start, end, parent span, item id)
in memory. Spans are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from types import SimpleNamespace

# Calls with at most this many phase samples are labelled ``l2``: the 20k
# sample arrays of limit_checks fit in one core's L2 cache, the 200k ones do
# not (see README.md).
L2_SAMPLE_LIMIT = 50_000

# The library functions the benchmark calls, by span name (layer.function).
LIBRARY = {
    "channel.load_config": ("relaycap.channel", "load_config"),
    "capacity.optimize_capacity": ("relaycap.capacity", "optimize_capacity"),
    "capacity.optimize_covariance_bound": ("relaycap.capacity", "optimize_covariance_bound"),
    "capacity.cutset_bounds": ("relaycap.capacity", "cutset_bounds"),
    "capacity.covariance_bounds": ("relaycap.capacity", "covariance_bounds"),
    "capacity.phase_fading_capacity": ("relaycap.capacity", "phase_fading_capacity"),
    "regions.mac_region_point": ("relaycap.regions", "mac_region_point"),
    "regions.common_private_rates": ("relaycap.regions", "common_private_rates"),
    "regions.broadcast_region_gap": ("relaycap.regions", "broadcast_region_gap"),
    "regions.beamforming_condition": ("relaycap.regions", "beamforming_condition"),
    "regions.beamforming_rates": ("relaycap.regions", "beamforming_rates"),
    "regions.max_min_beam_gain": ("relaycap.regions", "max_min_beam_gain"),
    "regions.min_power": ("relaycap.regions", "min_power"),
    "wideband.check_limit_constant_phase": ("relaycap.wideband", "check_limit_constant_phase"),
    "wideband.check_limit_phase_fading": ("relaycap.wideband", "check_limit_phase_fading"),
    "wideband.check_conditional_limits": ("relaycap.wideband", "check_conditional_limits"),
    "matrices.conditional_cov_bound_check": ("relaycap.matrices", "conditional_cov_bound_check"),
    "matrices.loewner_compare": ("relaycap.matrices", "loewner_compare"),
    "matrices.eigenvalues_ascending": ("relaycap.matrices", "eigenvalues_ascending"),
    "counterexample.run_counterexample": ("relaycap.counterexample", "run_counterexample"),
}

LAYERS = ("channel", "capacity", "regions", "wideband", "matrices", "counterexample", "cli")


def _gap_variant(a):
    return f"steps{a['steps']}", None


def _phase_fading_variant(a):
    samples = a["num_phase_samples"]
    return ("l2" if samples <= L2_SAMPLE_LIMIT else "large"), samples * len(a["bandwidths"])


def _conditional_variant(a):
    atoms = int((a["joint"].probs > 0).sum())
    if atoms <= a["max_quadrature_support"]:
        return "quadrature", None
    # two passes (one per gain vector), each drawing mc_samples noise points per atom
    return "monte_carlo", 2 * atoms * a["mc_samples"] * len(a["bandwidths"])


# Calls of these functions are split by a variant that the arguments (with
# their defaults filled in) decide; the second value a variant function
# returns is the work done, in samples.
VARIANTS = {
    "regions.broadcast_region_gap": _gap_variant,
    "wideband.check_limit_phase_fading": _phase_fading_variant,
    "wideband.check_conditional_limits": _conditional_variant,
}


class Tracer:
    """In-memory span recorder. ``item`` is stamped on every span it opens."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item: int | None = None
        self._open: list[int] = []

    def add(self, name, start, end, parent=None, **attrs) -> int:
        """Record a finished span; returns its id."""
        span = {"id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": parent if parent is not None else self.current(), "item": self.item}
        span.update(attrs)
        self.spans.append(span)
        return span["id"]

    def current(self) -> int | None:
        return self._open[-1] if self._open else None

    def open(self, name, **attrs) -> int:
        sid = self.add(name, time.monotonic(), None, **attrs)
        self._open.append(sid)
        return sid

    def close(self, sid: int, error: bool = False) -> None:
        self.spans[sid]["end"] = time.monotonic()
        if error:
            self.spans[sid]["error"] = True
        self._open.remove(sid)

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, id=base + span["id"], item=self.item)
            span["parent"] = parent if span["parent"] is None else base + span["parent"]
            self.spans.append(span)

    def wrap(self, name, fn):
        variant_of = VARIANTS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            attrs = {}
            if variant_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs["variant"], work = variant_of(bound.arguments)
                if work is not None:
                    attrs["work"] = work
            sid = self.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.close(sid, error=True)
                raise
            self.close(sid)
            return result

        traced.__wrapped__ = fn
        return traced


def bind(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library functions the benchmark calls, wrapped when tracing."""
    funcs = {}
    for name, (module, attr) in LIBRARY.items():
        fn = getattr(importlib.import_module(module), attr)
        funcs[attr] = fn if tracer is None else tracer.wrap(name, fn)
    return SimpleNamespace(**funcs)


def patch_module(module, tracer: Tracer) -> None:
    """Wrap the library functions that ``module`` (the CLI) imported by name.

    Only the names bound in ``module`` change, so the spans cover the calls
    that module makes into the other layers and nothing inside them.
    """
    for name, (source, attr) in LIBRARY.items():
        fn = getattr(importlib.import_module(source), attr)
        if getattr(module, attr, None) is fn:
            setattr(module, attr, tracer.wrap(name, fn))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_table(spans: list[dict]) -> dict:
    """Per-function and per-layer figures derived from a list of spans.

    Item spans (name ``item``) are the roots. A span's self time is its
    duration minus the part its child spans cover; a layer's busy time is the
    self time of its spans, so nested spans are not counted twice. An item's
    unattributed time is the part of it no child span covers.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def self_time(span):
        kids = children.get(span["id"], [])
        return (span["end"] - span["start"]) - _covered((k["start"], k["end"]) for k in kids)

    functions: dict[str, dict] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    unattributed = 0.0
    item_time = 0.0
    for span in spans:
        if span["name"] == "item":
            item_time += span["end"] - span["start"]
            unattributed += self_time(span)
            continue
        duration = span["end"] - span["start"]
        keys = [span["name"]]
        if "variant" in span:
            keys.append(f"{span['name']}.{span['variant']}")
        for key in keys:
            row = functions.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                             "errors": 0, "work": 0, "durations": []})
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += self_time(span)
            row["errors"] += 1 if span.get("error") else 0
            row["work"] += span.get("work", 0)
            row["durations"].append(duration)
        layer = span["name"].split(".", 1)[0]
        layers[layer] += self_time(span)
        errors[layer] += 1 if span.get("error") else 0

    for row in functions.values():
        durations = row.pop("durations")
        row["p50_ms"] = 1e3 * statistics.median(durations)
        if row["work"]:
            row["samples_per_s"] = row["work"] / row["busy_s"]
    attributed = sum(layers.values())
    return {
        "items": sum(1 for s in spans if s["name"] == "item"),
        "item_s": item_time,
        "unattributed_s": unattributed,
        "layer_busy_s": layers,
        "layer_share": {k: (v / attributed if attributed else 0.0) for k, v in layers.items()},
        "layer_errors": errors,
        "functions": dict(sorted(functions.items())),
    }
