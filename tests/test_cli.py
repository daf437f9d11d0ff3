"""End-to-end CLI behaviour: output shapes, exit codes, determinism."""

import json

import numpy as np
import pytest

from relaycap import CsiMode
from relaycap.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main

from helpers import diamond_config, single_relay_config


@pytest.fixture()
def sync_config(tmp_path):
    # scale21 > 1 so the relay's source link is stronger and relaying pays off
    path = tmp_path / "sync.json"
    path.write_text(
        single_relay_config(p1=2.0, p2=1.0, alpha=0.4, c32=0.8, scale21=1.5).to_json()
    )
    return str(path)


@pytest.fixture()
def fading_config(tmp_path):
    path = tmp_path / "fading.json"
    path.write_text(
        single_relay_config(p1=2.0, p2=1.0, c32=0.8, csi=CsiMode.PHASE_FADING).to_json()
    )
    return str(path)


@pytest.fixture()
def diamond_fading_config(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(diamond_config(p1=1.5, p2=2.0).to_json())
    return str(path)


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_capacity_synchronous(sync_config, capsys):
    assert main(["capacity", "--config", sync_config]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert list(kv) == ["csi", "rate", "binding", "p21", "p31", "pb1", "theta", "alpha"]
    assert kv["csi"] == "synchronous"
    assert float(kv["rate"]) > 2.0  # relaying beats the direct link g31 * P1 = 2
    assert kv["binding"] in ("relay_decode", "mac_combine")
    # the printed powers carry 9 significant digits, so re-add with that slack
    total = float(kv["p21"]) + float(kv["p31"]) + float(kv["pb1"])
    assert total <= 2.0 + 1e-6
    assert 0.0 <= float(kv["theta"]) <= float(kv["alpha"])


def test_capacity_cross_check(sync_config, capsys):
    assert main(["capacity", "--config", sync_config, "--cross-check"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["cross_check_gap"]) <= 1e-6 * float(kv["rate"])
    assert float(kv["covariance_rate"]) == pytest.approx(float(kv["rate"]), rel=1e-6)


def test_capacity_cross_check_output_is_pinned(sync_config, capsys):
    # the whole stdout; the gap is the last bits of both rates. The exact dual
    # minimiser (by a 40-digit bisection) has theta* = 0.23416224656197690 and
    # pb1 = 0.38185945457; a grid search for it left theta 2.3e-10 low and
    # printed theta=0.234162246 and pb1=0.381859454, every other line as here
    assert main(["capacity", "--config", sync_config, "--cross-check"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "csi=synchronous\nrate=3.54160049\nbinding=relay_decode\np21=1.61814055\np31=0\n"
        "pb1=0.381859455\ntheta=0.234162247\nalpha=0.4\ncovariance_rate=3.54160049\n"
        "cross_check_gap=8.8817842e-16\n"
    )


def test_capacity_deterministic(sync_config, capsys):
    main(["capacity", "--config", sync_config])
    first = capsys.readouterr().out
    main(["capacity", "--config", sync_config])
    assert capsys.readouterr().out == first


def test_capacity_phase_fading(fading_config, capsys):
    assert main(["capacity", "--config", fading_config]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["csi"] == "phase_fading"
    # the broadcast cut's largest value, g31 * P1 = 2 with all of P1 on the
    # destination's beam, where the MAC cut adds the relay's 0.64
    assert float(kv["rate"]) == pytest.approx(2.0)
    assert "p21" not in kv


def test_capacity_phase_fading_witness(tmp_path, capsys):
    # each cut maximized on its own would print rate=2; see
    # test_phase_fading_witness_stays_below_synchronous
    path = tmp_path / "witness.json"
    path.write_text(single_relay_config(p1=1.0, p2=1.0, alpha=np.pi / 2, c32=1.0, scale21=np.sqrt(2.0),
                                        csi=CsiMode.PHASE_FADING).to_json())
    assert main(["capacity", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "csi=phase_fading\nrate=1.5\n"


def test_capacity_rejects_grid_flag(sync_config, capsys):
    # the optimizer has no angle grid left to size
    with pytest.raises(SystemExit) as err:
        main(["capacity", "--config", sync_config, "--grid", "8"])
    assert err.value.code == EXIT_BAD_INPUT
    assert "unrecognized arguments: --grid 8" in capsys.readouterr().err


def test_capacity_missing_file(tmp_path, capsys):
    assert main(["capacity", "--config", str(tmp_path / "nope.json")]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_capacity_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["capacity", "--config", str(path)]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_region_mac_synchronous(tmp_path, capsys):
    from relaycap import CsiMode

    path = tmp_path / "dia.json"
    path.write_text(diamond_config(csi=CsiMode.SYNCHRONOUS).to_json())
    assert main(["region", "--config", str(path), "--cut", "mac", "--steps", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,r23_max,r32_max,r_sum_max"
    assert len(lines) == 6
    rhos = [float(line.split(",")[0]) for line in lines[1:]]
    assert rhos == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    sums = [float(line.split(",")[3]) for line in lines[1:]]
    assert sums == sorted(sums)


def test_region_mac_phase_fading(diamond_fading_config, capsys):
    assert main(["region", "--config", diamond_fading_config, "--cut", "mac"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + the single rho = 0 row


def test_region_broadcast_table(diamond_fading_config, capsys):
    code = main(["region", "--config", diamond_fading_config, "--cut", "broadcast", "--steps", "7"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "common_fraction,rc,r2,r3,r_sum"
    assert len(lines) == 8
    # all-common row: rc equals both per-relay totals
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(float(last[2]))


def test_region_broadcast_gap(diamond_fading_config, capsys):
    code = main(["region", "--config", diamond_fading_config, "--cut", "broadcast", "--gap",
                 "--steps", "8"])
    assert code == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert list(kv) == ["max_gap", "rate_resolution", "steps", "worst_r2", "worst_r3", "worst_r_sum"]
    assert float(kv["max_gap"]) <= 2.0 * float(kv["rate_resolution"])
    assert kv["steps"] == "8"


def test_region_gap_rejected_for_mac_cut(diamond_fading_config, capsys):
    code = main(["region", "--config", diamond_fading_config, "--cut", "mac", "--gap"])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--gap" in captured.err


def test_region_broadcast_table_rejects_zero_steps(diamond_fading_config, capsys):
    code = main(["region", "--config", diamond_fading_config, "--cut", "broadcast", "--steps", "0"])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--steps" in captured.err


def test_region_broadcast_gap_rejects_one_step(diamond_fading_config, capsys):
    code = main(["region", "--config", diamond_fading_config, "--cut", "broadcast", "--gap", "--steps", "1"])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--steps" in captured.err


def test_capacity_rejects_overflowing_power_to_noise(tmp_path, capsys):
    # P1 / N0 overflows: a clean input error, not a ZeroDivisionError
    doc = json.loads(single_relay_config(p1=1.0, p2=1.0, c32=1.0).to_json())
    doc["noise_psd"] = 1e-320
    path = tmp_path / "tiny_noise.json"
    path.write_text(json.dumps(doc))
    assert main(["capacity", "--config", str(path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: powers.P1 / noise_psd") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, cfg", [
    (["capacity"], single_relay_config(p1=1.0, p2=1.0, scale21=1.0, scale31=1.0, c32=1.0)),
    (["region", "--cut", "broadcast", "--gap"], diamond_config()),
])
def test_cli_rejects_overflowing_link_budgets(tmp_path, capsys, command, cfg):
    # every ratio to N0 is finite, but |c|**2 P / N0 is not: a clean input
    # error, not an OverflowError traceback
    doc = json.loads(cfg.to_json())
    doc["powers"]["P1"] = doc["powers"]["P2"] = 1e200
    doc["gains"]["c21"] = [[1e100, 0.0], [0.0, 0.0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--config", str(path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |gains.c21|**2 * powers.P1 / noise_psd") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, cfg, want", [
    (["capacity", "--cross-check"],
     single_relay_config(p1=1e200, p2=1e200, scale21=1e-100, scale31=1e-100, c32=1e-100),
     ["rate=1", "covariance_rate=1"]),
    (["region", "--cut", "mac", "--steps", "3"],
     diamond_config(p2=1e200, p3=1e200, c42=1e-100, c43=1e-100, csi=CsiMode.SYNCHRONOUS),
     ["0,1,1,2", "0.5,0.75,0.75,3", "1,0,0,4"]),
])
def test_cli_handles_overflowing_budget_products(tmp_path, capsys, command, cfg, want):
    # P * P / N0**2 overflows, though every link budget |c|**2 P / N0 is 1:
    # a valid config, whose output must be finite
    path = tmp_path / "huge.json"
    path.write_text(cfg.to_json())
    assert main([*command, "--config", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "nan" not in captured.out and "inf" not in captured.out
    assert set(want) <= set(captured.out.splitlines())


def test_region_wrong_topology(sync_config, capsys):
    assert main(["region", "--config", sync_config, "--cut", "mac"]) == EXIT_BAD_INPUT
    assert "diamond" in capsys.readouterr().err


def test_min_power_output(capsys):
    code = main(["min-power", "--r2", "1", "--r3", "1", "--r-sum", "1",
                 "--c2-sq", "1", "--c3-sq", "1", "--c0-sq", "0.5"])
    assert code == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["p_total"]) == pytest.approx(2.0)
    assert float(kv["r_common"]) == pytest.approx(1.0)


def test_min_power_infeasible_triple(capsys):
    code = main(["min-power", "--r2", "1", "--r3", "1", "--r-sum", "3",
                 "--c2-sq", "1", "--c3-sq", "1", "--c0-sq", "1"])
    assert code == EXIT_BAD_INPUT
    assert "r_sum" in capsys.readouterr().err


def test_counterexample_table(capsys):
    assert main(["counterexample"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "power needed by common/private messaging exceeds the outer-bound budget" in out
    assert "p_required=2.0011" in out
    assert "note: " in out
    assert "MISMATCH" not in out


def test_counterexample_csv(capsys):
    assert main(["counterexample", "--csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "quantity,computed,expected,tolerance,within"
    assert len(lines) == 17  # 16 reference rows
    assert all(line.endswith(",yes") for line in lines[1:])


def test_verify_limits_synchronous(sync_config, capsys):
    assert main(["verify-limits", "--config", sync_config]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "link,bandwidth,scaled_mi,target,abs_err,converged"
    assert len(lines) == 1 + 3 * 5  # three links, five default bandwidths
    assert all(line.endswith(",yes") for line in lines[1:])


def test_verify_limits_insufficient_bandwidth(sync_config, capsys):
    # at B = 10 the scaled information is still ~5% below the limit
    code = main(["verify-limits", "--config", sync_config, "--bandwidths", "5", "10"])
    assert code == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.endswith(",no") for line in lines[1:])


def test_verify_limits_phase_fading(diamond_fading_config, capsys):
    code = main(["verify-limits", "--config", diamond_fading_config,
                 "--samples", "50000", "--seed", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4 * 5  # four diamond links


def test_verify_limits_phase_fading_is_exact(diamond_fading_config, capsys):
    # every diamond link has at most two antennas, so nothing is sampled
    outputs = []
    for seed in ("1", "2"):
        code = main(["verify-limits", "--config", diamond_fading_config, "--seed", seed])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_matrix_check_psd(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[2.0, 1.0], [1.0, 2.0]]))
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["hermitian"] == "yes"
    assert kv["psd"] == "yes"
    assert kv["eigenvalues"] == "1,3"


def test_matrix_check_complex_entries(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[[2.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [2.0, 0.0]]]}))
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["psd"] == "yes"
    np.testing.assert_allclose(
        [float(x) for x in kv["eigenvalues"].split(",")], [1.0, 3.0], atol=1e-12
    )


def test_matrix_check_indefinite(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, -1.0]]))
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_CHECK_FAILED
    kv = parse_kv(capsys.readouterr().out)
    assert kv["psd"] == "no"
    assert float(kv["min_eigenvalue"]) == pytest.approx(-1.0)


def test_matrix_check_non_hermitian(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_CHECK_FAILED
    kv = parse_kv(capsys.readouterr().out)
    assert kv["hermitian"] == "no"
    assert "eigenvalues" not in kv


def test_matrix_check_bad_inputs(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1.0, 2.0]]))  # not square
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_BAD_INPUT
    path.write_text("nonsense")
    assert main(["matrix-check", "--matrix", str(path)]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_out_file(tmp_path, sync_config, capsys):
    target = tmp_path / "result.txt"
    assert main(["capacity", "--config", sync_config, "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    kv = parse_kv(target.read_text())
    assert "rate" in kv


@pytest.mark.parametrize("flags", [[], ["--csv"]])
def test_counterexample_out_file_matches_stdout(tmp_path, capsys, flags):
    assert main(["counterexample", *flags]) == EXIT_OK
    printed = capsys.readouterr().out
    target = tmp_path / "counterexample.txt"
    assert main(["counterexample", *flags, "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_out_into_missing_directory(tmp_path, sync_config, capsys):
    target = tmp_path / "missing" / "result.txt"
    assert main(["capacity", "--config", sync_config, "--out", str(target)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not target.parent.exists()


def test_usage_errors_exit_bad_input(capsys):
    with pytest.raises(SystemExit) as err:
        main(["capacity"])  # --config missing
    assert err.value.code == EXIT_BAD_INPUT
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == EXIT_BAD_INPUT
    capsys.readouterr()
