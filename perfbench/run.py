#!/usr/bin/env python3
"""relaycap benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a relaycap checkout; the package is imported from its
``src/`` directory. One caller runs items of workload W in a closed loop for
S seconds and on to the end of the input rotation it is in: the next item
starts when the previous one returns. Item times are scaled to a reference
machine speed by a calibration kernel timed between items (calibration.py).
Every result is checked (checks.py). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``, their names and units as BENCHMARK.json lists them. The lines
before it, and ``perfbench/out/``, hold the details: input shares,
environment, failures, unscaled times and, when traced, the span file and
per-layer table. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, in this process and every process it starts, set before
# numpy loads: a two-thread BLAS call also waits on the other vCPU, whose
# speed the calibration kernel, timed on one thread, does not see.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Seconds from starting a fresh process to the point where the timed
    loop would begin: interpreter, ``import relaycap``, input generation.

    Not scaled by calibration.py: set-up is mostly process start, imports
    and page faults, whose time does not follow the kernel's."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def closed_loop(items, run_item, cal, rotation=1, seconds=None, count=None, tracer=None):
    """Run items one after another until ``count`` ran, or until ``seconds``
    passed and a whole number of ``rotation`` items ran, so that every run
    covers the same input mix.

    Returns ``(records, wall_s)``; a record is
    ``(index, latency_s, scaled_s, out, error)``, ``scaled_s`` being the
    latency scaled by the calibration ``cal``.
    """
    records = []
    start = time.perf_counter()
    before = cal.kernel_s()
    while True:
        index = len(records)
        item = items[index % len(items)]
        if tracer is not None:
            tracer.item = index
            span = tracer.open("item")
        t0 = time.perf_counter()
        try:
            out, error = run_item(item), None
        except Exception as exc:  # an item that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        after = cal.kernel_s()
        records.append((index, t1 - t0, cal.scale(t1 - t0, before, after), out, error))
        before = after
        if count is not None:
            if len(records) >= count:
                return records, time.perf_counter() - start
        elif t1 - start >= seconds and len(records) % rotation == 0:
            return records, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaycap" / "__init__.py").is_file():
        print(f"error: no relaycap sources at {SRC}; run from a relaycap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relaycap

    if Path(relaycap.__file__).resolve().parent != (SRC / "relaycap").resolve():
        print(f"error: imported relaycap from {relaycap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    import inputs
    import tracing
    import workloads

    import relaycap.cli  # noqa: F401  (fills the bytecode cache the CLI processes read)

    items = inputs.make_items(args.workload, args.seed, workdir / "inputs")
    plain = tracing.bind()
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    import checks
    import envinfo
    import metrics

    setup = [measure_setup(args) for _ in range(SETUP_RUNS)]
    rotation = inputs.ROTATION[args.workload]
    cal = calibration.Calibration(args.workload)
    cli_runners = []

    def runner(lib, tracer=None):
        if args.workload == "cli_session":
            cli = workloads.CliRunner(SRC, workdir, tracer)
            cli_runners.append(cli)
            return lambda item: cli(lib, item)
        fn = workloads.RUN[args.workload]
        return lambda item: fn(lib, item)

    tracer = None
    if args.trace:
        # one warm-up item, then the same items untraced and traced: the
        # ratio of their scaled times is the tracing overhead
        warmup, _ = closed_loop(items, runner(plain), cal, count=1)
        untraced, _ = closed_loop(items, runner(plain), cal, rotation,
                                  seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        traced, _ = closed_loop(items, runner(tracing.bind(tracer), tracer), cal,
                                count=len(untraced), tracer=tracer)
        records = warmup + untraced + traced
        overhead = sum(r[2] for r in traced) / sum(r[2] for r in untraced)
    else:
        records, wall = closed_loop(items, runner(plain), cal, rotation,
                                    seconds=args.seconds)

    failures = []
    reference_cache = {}
    used = []
    for index, _, _, out, error in records:
        item = items[index % len(items)]
        used.append(item)
        try:
            if error is not None:
                raise RuntimeError(error)
            if args.workload == "cli_session":
                workloads.finish_cli(plain, item, out, reference_cache)
            problems = workloads.check(args.workload, item, out)
        except Exception as exc:  # a failed item, reported below
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"item": index, "props": item["props"], "problems": problems})

    shares = inputs.shares([item["props"] for item in used])
    outs = [out for _, _, _, out, _ in records if out]
    if args.workload == "capacity_batch":
        shares.update(inputs.shares([{"mac cut tight (observed)": checks.mac_tight(out)}
                                     for out in outs]))
    elif args.workload == "diamond_regions":
        shares.update(inputs.shares([{"beamforming condition (observed)": out["beamforming"]}
                                     for out in outs]))

    attempted = len(records)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "attempted": attempted, "failed": len(failures),
              "failed_ratio": len(failures) / attempted, "input_shares": shares,
              "setup_runs_s": setup, "calibration_reference_s": cal.reference_s,
              "environment": envinfo.environment(), "failures": failures[:20]}
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        table = tracing.layer_table(tracer.spans)
        units = metrics.units("per_layer")
        values = metrics.per_layer(units, table, args.workload, overhead)
        result.update(traced_items=len(traced), unattributed_s=table["unattributed_s"],
                      trace_overhead_ratio=overhead, layer_share=table["layer_share"])
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans))
        (OUT / f"layers-{stem}.json").write_text(json.dumps(table, indent=1))
    else:
        latencies = [latency for _, latency, _, _, _ in records]
        scaled = [s for _, _, s, _, _ in records]
        p50, p90, beyond = metrics.item_latency(scaled)
        raw_p50, raw_p90, _ = metrics.item_latency(latencies)
        if cli_runners:
            rss_kb = max(cli.peak_rss_kb for cli in cli_runners)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": attempted / sum(scaled),
            "item_p50_ms": p50,
            "item_p90_ms": p90,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = metrics.units("end_to_end")
        result.update(items_beyond_p90=beyond, unscaled={
            "items_per_s": attempted / wall, "item_p50_ms": raw_p50, "item_p90_ms": raw_p90},
            latencies_ms=[1e3 * x for x in latencies], scaled_latencies_ms=[1e3 * x for x in scaled])
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    _report(result, stem)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


def _report(result: dict, stem: str) -> None:
    """Human-readable summary, printed before the JSON line."""
    print(f"relaycap benchmark  workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']}  closed loop, one caller")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed_ratio']:g}")
    if "items_beyond_p90" in result:
        print(f"  items beyond p90: {result['items_beyond_p90']} of {result['attempted']}")
        print(f"  item times below are scaled to a calibration kernel time of "
              f"{1e3 * result['calibration_reference_s']:g} ms; unscaled: "
              + ", ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    else:
        print(f"  traced items: {result['traced_items']}  "
              f"unattributed_s={result['unattributed_s']:.6g}  "
              f"trace_overhead_ratio={result['trace_overhead_ratio']:.6g}")
        share = {k: round(v, 4) for k, v in result["layer_share"].items() if v}
        print(f"  layer share of traced busy time: {share}")
        print(f"  spans: perfbench/out/spans-{stem}.json  "
              f"table: perfbench/out/layers-{stem}.json")
    for name, metric in result["metrics"].items():
        if result["trace"] == 0 or metric["value"]:
            print(f"  {name:<56} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  input shares: {json.dumps(result['input_shares'])}")
    print(f"  environment: {json.dumps(result['environment'])}")
    for failure in result["failures"]:
        print(f"  FAILED item {failure['item']} {failure['props']}: {failure['problems']}")


if __name__ == "__main__":
    sys.exit(main())
