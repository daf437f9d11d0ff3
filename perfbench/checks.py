"""Correctness checks, one per workload; each failed check fails its item.

A checker takes an item's input and the values its run produced and returns
a list of failure messages, empty when the item is correct. Reference
quantities (gain norms, closed forms) are recomputed here from the config
text, not taken from the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

RATE_REL = 1e-9  # optimizer agreement and allocation replay
CLI_REL = 1e-8  # the CLI prints %.9g
QUAD_CHAIN_ABS = 1e-7
MC_CHAIN_SE = 3.0


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _norm_sq(pairs) -> float:
    return sum(re * re + im * im for re, im in pairs)


def check_capacity(item: dict, out: dict) -> list[str]:
    """Optimizers agree, allocations replay, and the rate lies between the
    direct link and the better source link."""
    doc = json.loads(item["config"])
    g21 = _norm_sq(doc["gains"]["c21"])
    g31 = _norm_sq(doc["gains"]["c31"])
    snr = doc["powers"]["P1"] / doc["noise_psd"]
    rate = out["rate"]
    fails = []
    if rel_diff(rate, out["cov_rate"]) > RATE_REL:
        fails.append(f"optimizers disagree: {rate!r} vs {out['cov_rate']!r}")
    replay = min(out["cuts"])
    if rel_diff(replay, rate) > RATE_REL:
        fails.append(f"power allocation replays to {replay!r}, not {rate!r}")
    if rel_diff(out["cov_replay"], out["cov_rate"]) > RATE_REL:
        fails.append(f"covariance allocation replays to {out['cov_replay']!r}, "
                     f"not {out['cov_rate']!r}")
    low, high = g31 * snr, max(g21, g31) * snr
    if not low * (1 - RATE_REL) <= rate <= high * (1 + RATE_REL):
        fails.append(f"rate {rate!r} outside [{low!r}, {high!r}]")
    return fails


def mac_tight(out: dict) -> bool:
    """Whether the MAC cut is tight at the optimum (tied with relay decoding)."""
    relay_decode, mac = out["cuts"]
    return mac <= relay_decode + RATE_REL * abs(relay_decode)


def check_diamond(item: dict, out: dict) -> list[str]:
    """Gap within twice the rate resolution (C8); MAC endpoints at rho = 0
    and rho = 1 match their closed forms (C5)."""
    fails = []
    if not out["max_gap"] <= 2.0 * out["rate_resolution"]:
        fails.append(f"gap {out['max_gap']!r} exceeds 2 x resolution {out['rate_resolution']!r}")
    doc = json.loads(item["sync"])
    n0 = doc["noise_psd"]
    a2 = _norm_sq(doc["gains"]["c42"]) * doc["powers"]["P2"] / n0
    a3 = _norm_sq(doc["gains"]["c43"]) * doc["powers"]["P3"] / n0
    expected = {
        "mac0": (a2, a3, a2 + a3),
        "mac1": (0.0, 0.0, (math.sqrt(a2) + math.sqrt(a3)) ** 2),
    }
    for key, want in expected.items():
        got = out[key]
        if any(rel_diff(g, w) > RATE_REL for g, w in zip(got, want)):
            fails.append(f"MAC point {key} is {got!r}, closed form {want!r}")
    return fails


def check_limits(item: dict, out: dict) -> list[str]:
    """Link sweeps converge, the chain rule holds (exactly on the quadrature
    path, within 3 SE on the Monte Carlo path, as C2 checks), the covariance
    bound holds and the counterexample matches its reference values."""
    fails = []
    if not all(out["links_converged"]):
        fails.append(f"link sweeps converged: {out['links_converged']}")
    chain = out["chain"]
    if chain["path"] == "quadrature":
        chain_holds = max(chain["resid"]) < QUAD_CHAIN_ABS
    else:
        chain_holds = all(r <= MC_CHAIN_SE * s + 1e-12
                          for r, s in zip(chain["resid"], chain["spread"]))
    if not chain_holds:
        fails.append(f"{chain['path']} chain rule residual {chain['resid']} "
                     f"(spread {chain['spread']})")
    if not out["cov_bound_holds"]:
        fails.append("conditional covariance bound fails")
    if not out["loewner_ordered"]:
        fails.append("rhs - lhs of the covariance bound is not PSD")
    if not out["matches_reference"]:
        fails.append("counterexample does not match its reference values")
    return fails


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        out[key] = value
    return out


def parse_csv(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV output has no data rows")
    return rows[1:]


_CX_ROW = re.compile(r"^(\S+)\s+computed=(\S+)")
_CX_POWER = re.compile(r"p_required=(\S+) > trace_x=(\S+)")


def parse_counterexample(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if m := _CX_ROW.match(line):
            out[m.group(1)] = m.group(2)
        elif m := _CX_POWER.search(line):
            out["p_required"], out["trace_x"] = m.group(1), m.group(2)
    if "gap" not in out or "p_required" not in out:
        raise ValueError("counterexample output is incomplete")
    return out


def parse_output(entry: str, text: str):
    """The CLI output of one rotation entry, as strings."""
    if entry.startswith("region_") and entry != "region_gap" or entry.startswith("verify_"):
        return parse_csv(text)
    if entry == "counterexample":
        return parse_counterexample(text)
    parsed = parse_kv(text)
    if "eigenvalues" in parsed:
        parsed["eigenvalues"] = parsed["eigenvalues"].split(",")
    return parsed


def _same(got, want) -> bool:
    """``want`` is a float, a string, or a list/dict of them."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _same(got[k], v) for k, v in want.items())
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, str):
        return got == want
    try:
        return rel_diff(float(got), want) <= CLI_REL
    except (TypeError, ValueError):
        return False


def check_cli(item: dict, out: dict, reference) -> list[str]:
    """Expected exit code, parseable output, and the printed numbers equal
    to the in-process library call within the print precision."""
    entry = item["props"]["entry"]
    if out["rc"] != item["expect"]:
        return [f"{entry}: exit code {out['rc']}, expected {item['expect']}: {out['stderr'][-300:]}"]
    try:
        parsed = parse_output(entry, out["stdout"])
    except ValueError as exc:
        return [f"{entry}: output does not parse: {exc}"]
    if not _same(parsed, reference):
        return [f"{entry}: output {parsed!r} differs from the library's {reference!r}"]
    return []
