"""Command line front end.

Subcommands map one-to-one onto the library layers:

``capacity``
    Optimize the single-relay bounds for a channel config (only the rate is
    printed under phase fading).
``region``
    Tabulate the MAC cut or the broadcast superposition region of the
    two-relay diamond as CSV; optionally run the inner-vs-outer gap sweep.
``min-power``
    Minimum total power for a rate triple over dedicated and shared beams.
``counterexample``
    Reproduce the synchronous broadcast-cut counterexample and compare
    against the reference values (exit code 2 on mismatch).
``verify-limits``
    Check the wideband scaled-information limits for every link of a config
    at a list of bandwidths (exit code 2 when a link fails to converge).
``matrix-check``
    Eigenvalues and semidefiniteness verdict for a matrix in a JSON file
    (exit code 2 when not PSD).

Exit codes: 0 success, 1 bad input, 2 check failed.  All output is plain
ASCII and deterministic for fixed arguments.

Only the stdlib, numpy and :mod:`relaycap.channel` are imported with this
module. The subcommands read the package's public names (``relaycap.__all__``)
as attributes of this module, ``_cli.optimize_capacity(cfg)``. The first read
of one goes through a module ``__getattr__`` (PEP 562) to the package's own,
which imports the name's layer, and binds the name here. So a process loads
only the layers its subcommand runs: ``capacity`` loads capacity (with
``_search`` and matrices), ``region`` and ``min-power`` regions,
``verify-limits`` wideband (with matrices), ``counterexample``
counterexample (with regions and matrices) and ``matrix-check`` matrices.
And a caller that replaces one of these names here, as a tracer wrapping it
does, sees every call the subcommands make through it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, CsiMode, Topology, load_config


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)
    globals()[name] = value  # bound here, where a caller can replace it
    return value


_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CHECK_FAILED = 2


def _fmt(value: float) -> str:
    return "%.9g" % float(value)


def _load(path: str) -> ChannelConfig:
    return load_config(Path(path).read_text(encoding="utf-8"))


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout when path is None or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


def _emit(lines_or_rows, out_path: str | None, header: list[str] | None = None) -> None:
    """Write key=value lines (header None) or CSV rows to stdout or a file."""
    with _output(out_path) as stream:
        if header is None:
            for key, value in lines_or_rows:
                print(f"{key}={value}", file=stream)
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(lines_or_rows)


def _cmd_capacity(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    lines: list[tuple[str, str]] = [("csi", cfg.csi.value)]
    if cfg.csi is CsiMode.PHASE_FADING:
        lines.append(("rate", _fmt(_cli.phase_fading_capacity(cfg))))
        _emit(lines, args.out)
        return EXIT_OK
    result = _cli.optimize_capacity(cfg)
    alloc = result.allocation
    lines += [
        ("rate", _fmt(result.rate)),
        ("binding", result.binding_bound.value),
        ("p21", _fmt(alloc.p21)),
        ("p31", _fmt(alloc.p31)),
        ("pb1", _fmt(alloc.pb1)),
        ("theta", _fmt(alloc.theta)),
        ("alpha", _fmt(alloc.alpha)),
    ]
    if args.cross_check:
        other = _cli.optimize_covariance_bound(cfg)
        lines.append(("covariance_rate", _fmt(other.rate)))
        lines.append(("cross_check_gap", _fmt(abs(other.rate - result.rate))))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_region(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.gap and args.cut != "broadcast":
        raise ValueError("--gap applies to --cut broadcast only")
    if args.gap and args.steps < 2:
        raise ValueError(f"--gap needs --steps of at least 2, got {args.steps}")
    cfg = _load(args.config)
    if args.cut == "mac":
        if cfg.csi is CsiMode.PHASE_FADING:
            rhos = [0.0]
        else:
            rhos = np.linspace(0.0, 1.0, args.steps)
        rows = []
        for rho in rhos:
            point = _cli.mac_region_point(cfg, float(rho))
            rows.append([_fmt(point.rho), _fmt(point.r23_max), _fmt(point.r32_max), _fmt(point.r_sum_max)])
        _emit(rows, args.out, header=["rho", "r23_max", "r32_max", "r_sum_max"])
        return EXIT_OK
    # broadcast cut
    if args.gap:
        report = _cli.broadcast_region_gap(cfg, steps=args.steps)
        _emit(
            [
                ("max_gap", _fmt(report.max_gap)),
                ("rate_resolution", _fmt(report.rate_resolution)),
                ("steps", str(report.steps)),
                ("worst_r2", _fmt(report.worst_demand.r2)),
                ("worst_r3", _fmt(report.worst_demand.r3)),
                ("worst_r_sum", _fmt(report.worst_demand.r_sum)),
            ],
            args.out,
        )
        return EXIT_OK
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    rows = []
    for frac in np.linspace(0.0, 1.0, args.steps):
        alloc = _cli.CommonPrivateAllocation(
            p1c=frac * b1,
            p2c=frac * b2,
            p12=(1.0 - frac) * b1 / 2.0,
            p22=(1.0 - frac) * b2 / 2.0,
            p13=(1.0 - frac) * b1 / 2.0,
            p23=(1.0 - frac) * b2 / 2.0,
        )
        rates = _cli.common_private_rates(cfg, alloc)
        rows.append(
            [
                _fmt(frac),
                _fmt(rates.rc),
                _fmt(rates.r2),
                _fmt(rates.r3),
                _fmt(rates.r_sum),
            ]
        )
    _emit(rows, args.out, header=["common_fraction", "rc", "r2", "r3", "r_sum"])
    return EXIT_OK


def _cmd_min_power(args: argparse.Namespace) -> int:
    result = _cli.min_power(
        r2=args.r2, r3=args.r3, r_sum=args.r_sum,
        c2_sq=args.c2_sq, c3_sq=args.c3_sq, c0_sq=args.c0_sq,
    )
    _emit(
        [
            ("p_total", _fmt(result.p_total)),
            ("r_common", _fmt(result.r_common)),
            ("r2_private", _fmt(result.r2_private)),
            ("r3_private", _fmt(result.r3_private)),
        ],
        args.out,
    )
    return EXIT_OK


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from .counterexample import CAVEAT, comparison_rows

    report = _cli.run_counterexample()
    rows = comparison_rows(report)
    if args.csv:
        _emit(
            [[name, _fmt(got), _fmt(want), _fmt(tol), "yes" if ok else "no"] for name, got, want, tol, ok in rows],
            args.out,
            header=["quantity", "computed", "expected", "tolerance", "within"],
        )
    else:
        with _output(args.out) as stream:
            width = max(len(name) for name, *_ in rows)
            for name, got, want, tol, ok in rows:
                mark = "ok" if ok else "MISMATCH"
                print(f"{name:<{width}}  computed={_fmt(got):<15} expected={_fmt(want):<10} {mark}", file=stream)
            print(f"{'gap':<{width}}  computed={_fmt(report.gap):<15} expected=>0         "
                  + ("ok" if report.gap > 0 else "MISMATCH"), file=stream)
            print(file=stream)
            print("power needed by common/private messaging exceeds the outer-bound budget:", file=stream)
            print(f"  p_required={_fmt(report.p_required)} > trace_x={_fmt(report.trace_x)}", file=stream)
            print(file=stream)
            print("note: " + CAVEAT, file=stream)
    return EXIT_OK if report.matches_reference else EXIT_CHECK_FAILED


def _cmd_verify_limits(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    bandwidths = tuple(args.bandwidths) if args.bandwidths else _cli.DEFAULT_BANDWIDTHS
    n0 = cfg.noise_psd
    if cfg.topology is Topology.SINGLE_RELAY:
        links = [("c21", "P1"), ("c31", "P1"), ("c32", "P2")]
    else:
        links = [("c21", "P1"), ("c31", "P1"), ("c42", "P2"), ("c43", "P3")]
    rows = []
    all_ok = True
    for link, budget_key in links:
        gains = np.atleast_1d(cfg.gains[link])
        power = cfg.powers[budget_key]
        input_var = np.full(gains.shape, power / gains.size)
        if cfg.csi is CsiMode.SYNCHRONOUS:
            report = _cli.check_limit_constant_phase(gains, input_var, n0, bandwidths)
        else:
            report = _cli.check_limit_phase_fading(
                np.abs(gains), input_var, n0, bandwidths,
                num_phase_samples=args.samples, rng_seed=args.seed,
            )
        all_ok = all_ok and report.converged
        for k, bandwidth in enumerate(report.bandwidths):
            rows.append(
                [
                    link,
                    _fmt(bandwidth),
                    _fmt(report.scaled_mi[k]),
                    _fmt(report.target),
                    _fmt(abs(report.scaled_mi[k] - report.target)),
                    "yes" if report.converged else "no",
                ]
            )
    _emit(rows, args.out, header=["link", "bandwidth", "scaled_mi", "target", "abs_err", "converged"])
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_matrix(path: str) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix file is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("matrix", payload)
    rows = payload
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix file must hold a nonempty list of rows (or {'matrix': rows})")

    def scalar(cell) -> complex:
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            return complex(cell)
        if (
            isinstance(cell, list)
            and len(cell) == 2
            and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in cell)
        ):
            return complex(cell[0], cell[1])
        raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {cell!r}")

    matrix = np.array([[scalar(cell) for cell in row] for row in rows], dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    return matrix


def _cmd_matrix_check(args: argparse.Namespace) -> int:
    matrix = _parse_matrix(args.matrix)
    lines: list[tuple[str, str]] = [("shape", f"{matrix.shape[0]}x{matrix.shape[1]}")]
    hermitian = _cli.is_hermitian(matrix)
    lines.append(("hermitian", "yes" if hermitian else "no"))
    if hermitian:
        eigs = _cli.eigenvalues_ascending(matrix)
        verdict = _cli.loewner_compare(matrix, np.zeros_like(matrix))
        lines.append(("eigenvalues", ",".join(_fmt(e) for e in eigs)))
        lines.append(("relation_to_zero", verdict.relation.value))
        lines.append(("min_eigenvalue", _fmt(verdict.min_eigenvalue)))
        psd = verdict.is_ordered
    else:
        psd = False
    lines.append(("psd", "yes" if psd else "no"))
    _emit(lines, args.out)
    return EXIT_OK if psd else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the bad-input status."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relaycap",
        description="Low-power relay network capacity bounds and rate regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="optimize the single-relay capacity bounds")
    p_cap.add_argument("--config", required=True, help="channel config JSON file")
    p_cap.add_argument(
        "--cross-check", action="store_true",
        help="also run the covariance-form search and print both rates",
    )
    p_cap.set_defaults(func=_cmd_capacity)

    p_reg = sub.add_parser("region", help="tabulate rate regions of the two-relay diamond")
    p_reg.add_argument("--config", required=True, help="channel config JSON file")
    p_reg.add_argument("--cut", choices=["mac", "broadcast"], required=True)
    p_reg.add_argument("--steps", type=int, default=33, help="sweep points (default 33)")
    p_reg.add_argument(
        "--gap", action="store_true",
        help="broadcast cut only: run the inner-vs-outer gap sweep instead of the rate table",
    )
    p_reg.set_defaults(func=_cmd_region)

    p_min = sub.add_parser("min-power", help="minimum power for a rate triple")
    p_min.add_argument("--r2", type=float, required=True)
    p_min.add_argument("--r3", type=float, required=True)
    p_min.add_argument("--r-sum", type=float, required=True)
    p_min.add_argument("--c2-sq", type=float, required=True, help="squared gain of the beam to relay 2")
    p_min.add_argument("--c3-sq", type=float, required=True, help="squared gain of the beam to relay 3")
    p_min.add_argument("--c0-sq", type=float, required=True, help="worst-case squared gain of the shared beam")
    p_min.set_defaults(func=_cmd_min_power)

    p_cx = sub.add_parser("counterexample", help="reproduce the synchronous broadcast-cut counterexample")
    p_cx.add_argument("--csv", action="store_true", help="machine-readable output")
    p_cx.set_defaults(func=_cmd_counterexample)

    p_ver = sub.add_parser("verify-limits", help="check wideband limits for every link of a config")
    p_ver.add_argument("--config", required=True, help="channel config JSON file")
    p_ver.add_argument("--bandwidths", type=float, nargs="+", help="bandwidths in Hz (ascending)")
    p_ver.add_argument("--samples", type=int, default=200_000,
                       help="grid phases per bandwidth; used only for links of three antennas, "
                            "since one or two are averaged exactly (default 200000)")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="unused: phase fading is averaged on a grid, not sampled (default 0)")
    p_ver.set_defaults(func=_cmd_verify_limits)

    p_mat = sub.add_parser("matrix-check", help="eigenvalues and PSD verdict for a JSON matrix")
    p_mat.add_argument("--matrix", required=True, help="JSON file: rows of numbers or [re, im] pairs")
    p_mat.set_defaults(func=_cmd_matrix_check)

    for sp in (p_cap, p_reg, p_min, p_cx, p_ver, p_mat):
        sp.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
