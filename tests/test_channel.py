"""Config parsing, validation, and the small channel geometry helpers."""

import json
import math
import warnings

import numpy as np
import pytest

from relaycap import (
    ChannelConfig,
    CsiMode,
    Topology,
    angle_between,
    load_config,
)

from helpers import diamond_config, single_relay_config

SINGLE_RELAY_DOC = """
{
  "topology": "single_relay",
  "csi": "synchronous",
  "noise_psd": 1.0,
  "powers": {"P1": 2.0, "P2": 1.0},
  "gains": {
    "c21": [[1.0, 0.0], [0.0, 0.0]],
    "c31": [[0.9211, 0.0], [0.3894, 0.0]],
    "c32": [[0.8, 0.0]]
  }
}
"""


def test_load_single_relay():
    cfg = load_config(SINGLE_RELAY_DOC)
    assert cfg.topology is Topology.SINGLE_RELAY
    assert cfg.csi is CsiMode.SYNCHRONOUS
    assert cfg.noise_psd == 1.0
    assert cfg.powers == {"P1": 2.0, "P2": 1.0}
    np.testing.assert_array_equal(cfg.gain("c21"), np.array([1.0 + 0j, 0.0 + 0j]))
    assert cfg.scalar_gain("c32") == 0.8 + 0j
    # c31 sits at roughly 0.4 rad from c21
    assert angle_between(cfg.gain("c21"), cfg.gain("c31")) == pytest.approx(0.4, abs=1e-3)


def test_load_diamond():
    doc = {
        "topology": "two_relay_diamond",
        "csi": "phase_fading",
        "powers": {"P1": 1.0, "P2": 2.0, "P3": 3.0},
        "gains": {
            "c21": [[1, 0], [0, 1]],
            "c31": [[0.5, 0], [0, 0]],
            "c42": [[2, 0]],
            "c43": [[0, -1]],
        },
    }
    cfg = load_config(json.dumps(doc))
    assert cfg.topology is Topology.TWO_RELAY_DIAMOND
    assert cfg.noise_psd == 1.0  # default
    assert cfg.scalar_gain("c43") == -1j
    np.testing.assert_array_equal(cfg.gain("c21"), np.array([1.0, 1.0j]))


def test_to_json_round_trip():
    cfg = single_relay_config()
    again = load_config(cfg.to_json())
    assert again == cfg
    # and the diamond too, with a complex entry
    cfg2 = diamond_config(c31=(0.6 + 0.1j, 0.8))
    assert load_config(cfg2.to_json()) == cfg2


def test_config_eq_notices_gain_change():
    a = single_relay_config()
    b = single_relay_config(c32=0.81)
    assert a != b
    assert a == single_relay_config()


def test_gain_arrays_read_only():
    cfg = single_relay_config()
    with pytest.raises(ValueError):
        cfg.gain("c21")[0] = 5.0


def test_load_rejects_malformed_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config("{not json")
    with pytest.raises(ValueError, match="JSON object"):
        load_config("[1, 2]")


def test_load_rejects_unknown_keys():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["bandwidth"] = 100.0
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(json.dumps(doc))


def test_load_rejects_missing_required_key():
    doc = json.loads(SINGLE_RELAY_DOC)
    del doc["powers"]
    with pytest.raises(ValueError, match="missing required key 'powers'"):
        load_config(json.dumps(doc))


def test_load_rejects_bad_enum_values():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["topology"] = "ring"
    with pytest.raises(ValueError, match="topology must be one of"):
        load_config(json.dumps(doc))
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["csi"] = "full"
    with pytest.raises(ValueError, match="csi must be one of"):
        load_config(json.dumps(doc))


def test_load_rejects_bad_gain_shapes():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["gains"]["c32"] = [[1.0]]  # not an [re, im] pair
    with pytest.raises(ValueError, match=r"c32\[0\] must be an \[re, im\] pair"):
        load_config(json.dumps(doc))
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["gains"]["c32"] = [[True, 0.0]]
    with pytest.raises(ValueError, match="two real numbers"):
        load_config(json.dumps(doc))
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["gains"]["c21"] = [[1.0, 0.0]]  # needs two antennas
    with pytest.raises(ValueError, match="c21 must have 2"):
        load_config(json.dumps(doc))


def test_load_rejects_boolean_numbers():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["powers"]["P1"] = True
    with pytest.raises(ValueError, match="powers.P1 must be a number"):
        load_config(json.dumps(doc))
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["noise_psd"] = True
    with pytest.raises(ValueError, match="noise_psd must be a number"):
        load_config(json.dumps(doc))


def test_config_validates_powers():
    with pytest.raises(ValueError, match="powers.P1"):
        single_relay_config(p1=-1.0)
    with pytest.raises(ValueError, match="powers.P2"):
        single_relay_config(p2=float("nan"))
    with pytest.raises(ValueError, match="noise_psd"):
        single_relay_config(noise_psd=0.0)


def test_config_validates_key_sets():
    with pytest.raises(ValueError, match="powers for single_relay"):
        ChannelConfig(
            topology=Topology.SINGLE_RELAY,
            csi=CsiMode.SYNCHRONOUS,
            powers={"P1": 1.0},  # P2 missing
            gains={
                "c21": np.array([1.0, 0.0]),
                "c31": np.array([1.0, 0.0]),
                "c32": np.array([1.0]),
            },
        )
    with pytest.raises(ValueError, match="gains for single_relay"):
        ChannelConfig(
            topology=Topology.SINGLE_RELAY,
            csi=CsiMode.SYNCHRONOUS,
            powers={"P1": 1.0, "P2": 1.0},
            gains={"c21": np.array([1.0, 0.0]), "c31": np.array([1.0, 0.0])},
        )


def test_config_rejects_nonfinite_gains():
    with pytest.raises(ValueError, match="non-finite"):
        single_relay_config(c32=float("inf"))


_NON_FINITE = (math.inf, -math.inf, math.nan, complex(math.inf, math.nan), complex(0.0, -math.inf),
               complex(math.nan, 1e200))


@pytest.mark.parametrize("entry", _NON_FINITE, ids=repr)
@pytest.mark.parametrize("position", [0, 1])
def test_config_names_nonfinite_gain_entries(entry, position):
    # |c|**2 of such an entry is inf or nan: the entries are only looked at
    # once |c|**2 / N0 is not finite, to name the fault, and no warning is
    # raised on the way
    c21 = [1e200, 0.5]
    c21[position] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^gains\.c21 contains non-finite values$"):
            diamond_config(c21=tuple(c21))
        with pytest.raises(ValueError, match=r"^gains\.c43 contains non-finite values$"):
            diamond_config(c43=entry)


def test_load_names_nonfinite_gain_entries():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["gains"]["c31"] = [[1.0, 0.0], [0.0, float("nan")]]
    with pytest.raises(ValueError, match=r"^gains\.c31 contains non-finite values$"):
        load_config(json.dumps(doc))


@pytest.mark.parametrize("c21", [(1e200, 0.0), (0.0, 1e155j), (1e154, 1e154), (complex(2e154, 2e154), 0.0)], ids=repr)
def test_config_names_finite_gains_whose_square_overflows(c21):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^\|gains\.c21\|\*\*2 / noise_psd must be finite, got inf / 1\.0$"):
            diamond_config(c21=c21)


def test_config_rejects_overflowing_ratios_to_noise():
    # every engine works with P / N0 and |c|**2 / N0; finite powers and gains
    # can still overflow them, which the config names by budget or link
    with pytest.raises(ValueError, match=r"powers\.P1 / noise_psd must be finite"):
        single_relay_config(noise_psd=1e-320)
    with pytest.raises(ValueError, match=r"powers\.P2 / noise_psd"):
        single_relay_config(p1=0.0, p2=1e10, noise_psd=1e-300)
    with pytest.raises(ValueError, match=r"\|gains\.c21\|\*\*2 / noise_psd must be finite"):
        diamond_config(c21=(1e200, 0.0))
    with pytest.raises(ValueError, match=r"\|gains\.c21\|"):
        single_relay_config(p1=0.0, p2=0.0, noise_psd=1e-310)
    with pytest.raises(ValueError, match=r"\|gains\.c42\|"):
        diamond_config(c42=1e160)
    # squares that stay finite pass
    assert single_relay_config(c32=1e150).gains["c32"][0] == 1e150


def test_load_rejects_overflowing_ratios_to_noise():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["noise_psd"] = 1e-320
    with pytest.raises(ValueError, match=r"powers\.P1 / noise_psd"):
        load_config(json.dumps(doc))
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["gains"]["c31"] = [[1e200, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match=r"\|gains\.c31\|"):
        load_config(json.dumps(doc))


def test_config_rejects_overflowing_link_budgets():
    # every ratio to N0 is finite, but a rate |c|**2 P / N0 is not, which
    # optimize_capacity met as an OverflowError and optimize_covariance_bound
    # and broadcast_region_gap as overflow warnings; the config names the
    # link and the budget
    with pytest.raises(ValueError, match=r"\|gains\.c21\|\*\*2 \* powers\.P1 / noise_psd must be finite"):
        single_relay_config(p1=1e200, p2=1e200, scale21=1e100, scale31=1e100, c32=1e100)
    with pytest.raises(ValueError, match=r"\|gains\.c32\|\*\*2 \* powers\.P2"):
        single_relay_config(p2=1e200, c32=1e100)
    with pytest.raises(ValueError, match=r"\|gains\.c21\|\*\*2 \* powers\.P1"):
        diamond_config(p1=1e200, p2=1e200, c21=(1e100, 0.0), c31=(0.0, 1e100))
    # the broadcast cut reads the source links per antenna, with P2 as well
    with pytest.raises(ValueError, match=r"\|gains\.c31\|\*\*2 \* powers\.P2"):
        diamond_config(p1=1.0, p2=1e200, c31=(0.0, 1e100))
    with pytest.raises(ValueError, match=r"\|gains\.c43\|\*\*2 \* powers\.P3"):
        diamond_config(p3=1e200, c43=1e100)
    # finite budgets whose sum overflows, or three times it: a coherent
    # (a + b)**2 reaches 2 a**2 + 2 b**2
    with pytest.raises(ValueError, match="link budgets"):
        single_relay_config(p1=1e300, p2=1e300, scale21=1e4, scale31=1e4, c32=1e4)
    with pytest.raises(ValueError, match="three times"):
        single_relay_config(p1=1e300, scale21=1e4, scale31=0.0, c32=0.0)
    assert single_relay_config(p1=1e100, scale21=1e100, scale31=0.0, c32=0.0).powers["P1"] == 1e100


def test_load_rejects_overflowing_link_budgets():
    doc = json.loads(SINGLE_RELAY_DOC)
    doc["powers"]["P1"] = 1e200
    doc["gains"]["c31"] = [[1e100, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match=r"\|gains\.c31\|\*\*2 \* powers\.P1"):
        load_config(json.dumps(doc))


def test_scalar_gain_rejects_vector_links():
    cfg = single_relay_config()
    with pytest.raises(ValueError, match="not a scalar link"):
        cfg.scalar_gain("c21")


def test_angle_between_basics():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert angle_between(e1, e1) == 0.0
    assert angle_between(e1, e2) == pytest.approx(math.pi / 2)
    v = np.array([math.cos(0.3), math.sin(0.3)])
    assert angle_between(e1, v) == pytest.approx(0.3, abs=1e-12)
    # symmetric, and blind to per-vector phase
    assert angle_between(v, e1) == angle_between(e1, v)
    assert angle_between(np.exp(1j) * e1, v) == pytest.approx(0.3, abs=1e-12)
    assert angle_between(3.0 * e1, v) == pytest.approx(0.3, abs=1e-12)


def test_angle_between_errors():
    with pytest.raises(ValueError, match="equal length"):
        angle_between(np.array([1.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="zero gain vector"):
        angle_between(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
