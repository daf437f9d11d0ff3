"""The reported metrics: their names and units come from BENCHMARK.json,
their values from a run."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def item_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(p50, p90) in ms and how many items lie beyond the p90."""
    if len(latencies) == 1:
        return 1e3 * latencies[0], 1e3 * latencies[0], 0
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return 1e3 * p50, 1e3 * p90, sum(1 for x in latencies if x > p90)


def per_layer(names, table: dict, workload: str, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metric values from a tracing.layer_table; functions the
    workload never called read 0, as do the other workloads' entries."""
    values = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        if stat == "errors":
            values[name] = table["layer_errors"][key]
        elif stat == "unattributed_s":
            values[name] = table["unattributed_s"] if key == workload else 0.0
        elif stat == "trace_overhead_ratio":
            values[name] = overhead_ratio if key == workload else 0.0
        else:
            values[name] = table["functions"].get(key, {}).get(stat, 0)
    return values
