"""Channel descriptions for the two relay networks.

A :class:`ChannelConfig` pins down everything the bound engines need: the
topology (single relay, or two relays in a diamond), the transmitter side
information mode, per-node power budgets in Watts, the noise power spectral
density, and the complex gain vector of every link. Source nodes carry two
antennas, so source-side gains are length-2 complex vectors; relay-to-
destination links are scalar (stored as length-1 vectors).

All rates produced elsewhere in the package are low-power limits in nats/s,
i.e. ratios of received signal variance to the noise density N0. Powers are
kept in Watts inside the config and divided by N0 once inside each engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Topology",
    "CsiMode",
    "ChannelConfig",
    "load_config",
    "angle_between",
]

# Relative rounding allowance of the budget and rate checks.
REL_TOL = 1e-12


class Topology(Enum):
    """Which of the two networks a config describes."""

    SINGLE_RELAY = "single_relay"
    TWO_RELAY_DIAMOND = "two_relay_diamond"


class CsiMode(Enum):
    """Transmitter channel knowledge: full phase knowledge, or magnitudes only."""

    SYNCHRONOUS = "synchronous"
    PHASE_FADING = "phase_fading"


# Required gain keys and their dimensions per topology. The source has two
# antennas in both networks; relay-to-destination links are scalar.
_GAIN_DIMS: dict[Topology, dict[str, int]] = {
    Topology.SINGLE_RELAY: {"c21": 2, "c31": 2, "c32": 1},
    Topology.TWO_RELAY_DIAMOND: {"c21": 2, "c31": 2, "c42": 1, "c43": 1},
}

_POWER_KEYS: dict[Topology, tuple[str, ...]] = {
    Topology.SINGLE_RELAY: ("P1", "P2"),
    Topology.TWO_RELAY_DIAMOND: ("P1", "P2", "P3"),
}

_TOP_LEVEL_KEYS = {"topology", "csi", "noise_psd", "powers", "gains"}


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    """Immutable description of one network instance.

    gains maps link name (e.g. "c21") to a complex numpy vector. Arrays are
    marked read-only after validation so a config can be shared freely.
    """

    topology: Topology
    csi: CsiMode
    powers: dict[str, float]
    gains: dict[str, np.ndarray]
    noise_psd: float = 1.0

    def __post_init__(self):
        if not isinstance(self.topology, Topology):
            raise ValueError(f"topology must be a Topology, got {self.topology!r}")
        if not isinstance(self.csi, CsiMode):
            raise ValueError(f"csi must be a CsiMode, got {self.csi!r}")
        if not (math.isfinite(self.noise_psd) and self.noise_psd > 0):
            raise ValueError(f"noise_psd must be finite and positive, got {self.noise_psd}")

        want_powers = _POWER_KEYS[self.topology]
        got_powers = set(self.powers)
        if got_powers != set(want_powers):
            raise ValueError(
                f"powers for {self.topology.value} must have keys {sorted(want_powers)}, "
                f"got {sorted(got_powers)}"
            )
        clean_powers = {}
        for key in want_powers:
            val = float(self.powers[key])
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"powers.{key} must be finite and >= 0, got {self.powers[key]}")
            # every engine works with P / N0, which must not overflow
            if not math.isfinite(val / self.noise_psd):
                raise ValueError(f"powers.{key} / noise_psd must be finite, got {val!r} / {self.noise_psd!r}")
            clean_powers[key] = val
        object.__setattr__(self, "powers", clean_powers)

        want_gains = _GAIN_DIMS[self.topology]
        if set(self.gains) != set(want_gains):
            raise ValueError(
                f"gains for {self.topology.value} must have keys {sorted(want_gains)}, "
                f"got {sorted(self.gains)}"
            )
        clean_gains = {}
        for key, dim in want_gains.items():
            vec = np.asarray(self.gains[key], dtype=complex).reshape(-1)
            if vec.size != dim:
                raise ValueError(f"gains.{key} must have {dim} component(s), got {vec.size}")
            if not np.all(np.isfinite(vec.view(float))):
                raise ValueError(f"gains.{key} contains non-finite values")
            # nor |c|**2 / N0, the link's gain over the noise
            gain = float(np.vdot(vec, vec).real)
            if not math.isfinite(gain / self.noise_psd):
                raise ValueError(f"|gains.{key}|**2 / noise_psd must be finite, got {gain!r} / {self.noise_psd!r}")
            vec.setflags(write=False)
            clean_gains[key] = vec
        object.__setattr__(self, "gains", clean_gains)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChannelConfig):
            return NotImplemented
        return (
            self.topology == other.topology
            and self.csi == other.csi
            and self.noise_psd == other.noise_psd
            and self.powers == other.powers
            and self.gains.keys() == other.gains.keys()
            and all(np.array_equal(self.gains[k], other.gains[k]) for k in self.gains)
        )

    @cached_property
    def _broadcast_gains(self) -> tuple[list[float], list[float]]:
        """``|c21|**2 / N0`` and ``|c31|**2 / N0`` per source antenna, as floats.

        The diamond's broadcast-cut rates are linear in these gains, and a
        config never changes, so they are worked out once, on first use.
        They come from ``np.abs`` of the gain arrays: Python's ``abs`` of a
        complex entry can differ from it in the last bit.
        """
        return tuple((np.abs(self.gains[key]) ** 2 / self.noise_psd).tolist() for key in ("c21", "c31"))

    def gain(self, key: str) -> np.ndarray:
        """Gain vector for a link; scalar links come back as length-1 arrays."""
        return self.gains[key]

    def scalar_gain(self, key: str) -> complex:
        """Scalar link coefficient (raises if the link is not scalar)."""
        vec = self.gains[key]
        if vec.size != 1:
            raise ValueError(f"gains.{key} is not a scalar link")
        return complex(vec[0])

    def to_json(self) -> str:
        """Serialize to the same structured-text form load_config accepts."""
        doc = {
            "topology": self.topology.value,
            "csi": self.csi.value,
            "noise_psd": self.noise_psd,
            "powers": {k: self.powers[k] for k in sorted(self.powers)},
            "gains": {
                k: [[float(z.real), float(z.imag)] for z in self.gains[k]]
                for k in sorted(self.gains)
            },
        }
        return json.dumps(doc, indent=2)


def _parse_gain_vector(key: str, raw) -> list[complex]:
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"gains.{key} must be a non-empty array of [re, im] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"gains.{key}[{i}] must be an [re, im] pair")
        re, im = pair
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise ValueError(f"gains.{key}[{i}] must contain two real numbers")
        out.append(complex(re, im))
    return out


def load_config(text: str) -> ChannelConfig:
    """Parse a JSON channel description.

    Expected shape::

        {
          "topology": "single_relay" | "two_relay_diamond",
          "csi": "synchronous" | "phase_fading",
          "noise_psd": 1.0,                    # optional, defaults to 1.0
          "powers": {"P1": 2.0, "P2": 1.0},    # plus "P3" for the diamond
          "gains": {"c21": [[1,0],[0,0]], ...} # [re, im] pairs per antenna
        }

    Unknown keys anywhere are an error; every value is validated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")

    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("topology", "csi", "powers", "gains"):
        if key not in doc:
            raise ValueError(f"config is missing required key '{key}'")

    try:
        topology = Topology(doc["topology"])
    except ValueError:
        raise ValueError(
            f"topology must be one of {[t.value for t in Topology]}, got {doc['topology']!r}"
        ) from None
    try:
        csi = CsiMode(doc["csi"])
    except ValueError:
        raise ValueError(
            f"csi must be one of {[m.value for m in CsiMode]}, got {doc['csi']!r}"
        ) from None

    noise_psd = doc.get("noise_psd", 1.0)
    if isinstance(noise_psd, bool) or not isinstance(noise_psd, (int, float)):
        raise ValueError(f"noise_psd must be a number, got {noise_psd!r}")

    powers = doc["powers"]
    if not isinstance(powers, dict):
        raise ValueError("powers must be an object mapping node to Watts")
    for key, val in powers.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"powers.{key} must be a number, got {val!r}")

    gains_doc = doc["gains"]
    if not isinstance(gains_doc, dict):
        raise ValueError("gains must be an object mapping link to an array of [re, im] pairs")
    gains = {key: np.array(_parse_gain_vector(key, raw)) for key, raw in gains_doc.items()}

    return ChannelConfig(
        topology=topology,
        csi=csi,
        powers={k: float(v) for k, v in powers.items()},
        gains=gains,
        noise_psd=float(noise_psd),
    )


def angle_between(c2: np.ndarray, c3: np.ndarray) -> float:
    """Angle alpha = arccos(|c2^H c3| / (||c2|| ||c3||)) in [0, pi/2].

    Invariant under swapping the arguments and under per-vector phase
    rotations, since only the magnitude of the inner product enters.
    """
    c2 = np.asarray(c2, dtype=complex).reshape(-1)
    c3 = np.asarray(c3, dtype=complex).reshape(-1)
    if c2.shape != c3.shape:
        raise ValueError(f"gain vectors must have equal length, got {c2.size} and {c3.size}")
    n2 = np.linalg.norm(c2)
    n3 = np.linalg.norm(c3)
    if n2 == 0.0 or n3 == 0.0:
        raise ValueError("angle_between is undefined for a zero gain vector")
    cos_alpha = abs(np.vdot(c2, c3)) / (n2 * n3)
    return float(math.acos(min(cos_alpha, 1.0)))


_TOPOLOGY_NAMES = {Topology.SINGLE_RELAY: "single-relay", Topology.TWO_RELAY_DIAMOND: "two-relay diamond"}


def require_network(cfg: ChannelConfig, what: str, topology: Topology, csi: CsiMode | None = None) -> None:
    """Raise ValueError, naming the caller ``what``, unless ``cfg`` has this
    topology and, when ``csi`` is given, this csi mode."""
    if cfg.topology is not topology:
        name = _TOPOLOGY_NAMES[topology]
        raise ValueError(f"{what} requires the {name} topology, got {cfg.topology.value!r}")
    if csi is not None and cfg.csi is not csi:
        raise ValueError(f"{what} requires csi mode {csi.value!r}, got {cfg.csi.value!r}")


def rounding_slack(*quantities: float) -> float:
    """Allowance for rounding when comparing quantities of these sizes.

    ``REL_TOL`` times the largest magnitude: relative, so a budget or rate
    check keeps its meaning at any power scale, down to zero (which then
    must hold exactly).
    """
    return REL_TOL * max(map(abs, quantities))
