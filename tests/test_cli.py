"""Command line surface: exit codes, CSV layout, manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamcoop
from oamcoop import cli, sim
from oamcoop.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from oamcoop.errors import (
    InfeasiblePlacementError,
    NoRingError,
    ParallelChordsError,
)

SMALL = "user_count = 500\ntrials = 3\nmaster_seed = 5\n"


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_heatmap_csv_layout(tmp_path, small_cfg):
    out = tmp_path / "heat.csv"
    rc = main(
        ["heatmap", "--config", str(small_cfg), "--out", str(out), "--grid", "7"]
    )
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_m,y_m,se_bps_hz,is_closed_form_opt"
    assert len(lines) == 1 + 7 * 7 + 1
    body = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.all(body[:-1, 3] == 0.0)
    marker = body[-1]
    assert marker[3] == 1.0
    assert 0.0 <= marker[0] <= 100.0 and 0.0 <= marker[1] <= 100.0
    # grid covers the hotspot corners
    assert body[0, 0] == 0.0 and body[0, 1] == 0.0
    assert body[-2, 0] == 100.0 and body[-2, 1] == 100.0


def test_heatmap_manifest(tmp_path, small_cfg):
    out = tmp_path / "heat.csv"
    main(["heatmap", "--config", str(small_cfg), "--out", str(out), "--grid", "5"])
    manifest = json.loads((tmp_path / "heat.csv.manifest.json").read_text())
    assert manifest["command"] == "heatmap"
    assert manifest["master_seed"] == 5
    assert manifest["config"]["user_count"] == 500
    assert manifest["arguments"]["grid"] == 5
    assert manifest["outputs"] == ["heat.csv"]
    assert "version" in manifest


def test_seed_override_lands_in_manifest(tmp_path, small_cfg):
    out = tmp_path / "heat.csv"
    main(
        [
            "heatmap",
            "--config",
            str(small_cfg),
            "--out",
            str(out),
            "--grid",
            "5",
            "--seed",
            "77",
        ]
    )
    manifest = json.loads((tmp_path / "heat.csv.manifest.json").read_text())
    assert manifest["master_seed"] == 77


def test_sweep_csv_layout(tmp_path, small_cfg):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--config",
            str(small_cfg),
            "--out",
            str(out),
            "--axis",
            "height",
            "--values",
            "50,60",
            "--schemes",
            "acoc,cow",
        ]
    )
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "axis_value,scheme,mean_se_bps_hz,ci95_half_width,trials,flag_rate"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("50,acoc,")
    assert lines[2].startswith("50,cow,")
    assert lines[3].startswith("60,acoc,")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert int(fields[4]) == 3


def test_sweep_user_axis_accepts_integers(tmp_path, small_cfg):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--config",
            str(small_cfg),
            "--out",
            str(out),
            "--axis",
            "users",
            "--values",
            "400,500",
            "--schemes",
            "acoc",
            "--trials",
            "2",
        ]
    )
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert int(lines[1].split(",")[4]) == 2  # --trials override applied


@pytest.mark.parametrize(
    "values,message",
    [("50,abc", "bad axis value"), ("0", "positive"), ("", "axis value")],
)
def test_sweep_rejects_bad_values(tmp_path, small_cfg, capsys, values, message):
    rc = main(
        [
            "sweep",
            "--config",
            str(small_cfg),
            "--out",
            str(tmp_path / "s.csv"),
            "--axis",
            "height",
            "--values",
            values,
        ]
    )
    assert rc == EXIT_CONFIG_ERROR
    assert message in capsys.readouterr().err


def test_sweep_rejects_unknown_scheme(tmp_path, small_cfg):
    rc = main(
        [
            "sweep",
            "--config",
            str(small_cfg),
            "--out",
            str(tmp_path / "s.csv"),
            "--axis",
            "height",
            "--values",
            "50",
            "--schemes",
            "acoc,turbo",
        ]
    )
    assert rc == EXIT_CONFIG_ERROR


def test_fractional_user_count_rejected(tmp_path, small_cfg):
    rc = main(
        [
            "sweep",
            "--config",
            str(small_cfg),
            "--out",
            str(tmp_path / "s.csv"),
            "--axis",
            "users",
            "--values",
            "450.5",
        ]
    )
    assert rc == EXIT_CONFIG_ERROR


def test_bad_config_file_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_factor = 9\n")
    rc = main(["validate", "--config", str(bad)])
    assert rc == EXIT_CONFIG_ERROR


def test_missing_config_file_exit_code(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_CONFIG_ERROR


def test_tiny_grid_rejected(tmp_path, small_cfg):
    rc = main(
        ["heatmap", "--config", str(small_cfg), "--out", str(tmp_path / "h.csv"), "--grid", "1"]
    )
    assert rc == EXIT_CONFIG_ERROR


def test_infeasible_scenario_exit_code(tmp_path):
    cfg = tmp_path / "cramped.cfg"
    cfg.write_text(SMALL + "selection.max_pair_distance_m = 1\n")
    rc = main(["heatmap", "--config", str(cfg), "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_INFEASIBLE


def test_validate_reports_all_pass(capsys):
    rc = main(["validate"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) >= 4
    assert all(line.startswith("PASS") for line in lines)


def test_validate_fails_on_a_shifted_pair_gap(monkeypatch, capsys):
    # The kernel's split of the pair's axial distances is the link's only
    # source of mode crosstalk, so a 1e-3 m fault in it must fail the checks
    # that run the link's own kernels.
    coords = cli.aimed_pair_coords

    def shifted(*args):
        radial, axial = coords(*args)
        return radial, axial + (1e-3, -1e-3)

    monkeypatch.setattr(cli, "aimed_pair_coords", shifted)
    assert main(["validate"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL aimed-pair-frame" in out
    assert "FAIL channel-antipodal-orthogonality" in out


def test_validate_warns_on_even_mode_gap(tmp_path, capsys):
    cfg = tmp_path / "even.cfg"
    cfg.write_text("link.mode_set = 1, 3\n")
    rc = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert "parity" in out
    assert rc == EXIT_OK


VALIDATE_LINES = [
    "PASS beam-ring-roundtrip: max relative error 5.301e-16",
    "PASS beam-boundary-double-root: scaled discriminant 2.167e-16, root error 7.361e-09",
    "PASS bisector-equidistance: max scaled error 5.324e-16",
    "PASS aimed-pair-frame: max relative deviation 5.163e-14",
    "PASS channel-antipodal-orthogonality: max normalized cross-talk 6.123e-17",
]
PARITY_LINE = (
    "PASS mode-set-parity: warning: modes (1, 3) differ by an even order; "
    "aligned pairs are mode-inseparable"
)


@pytest.mark.parametrize(
    "config,expect",
    [("", VALIDATE_LINES), ("link.mode_set = 1, 3\n", VALIDATE_LINES + [PARITY_LINE])],
    ids=["defaults", "even-mode-gap"],
)
def test_validate_output_is_frozen(tmp_path, capsys, config, expect):
    # The exact lines pin the beam and channel kernels validate runs: a
    # change of arithmetic shows in the printed errors.
    cfg = tmp_path / "validate.cfg"
    cfg.write_text(config)
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == "\n".join(expect) + "\n"


def test_module_forms_run_validate():
    # `python -m oamcoop.cli` and `python -m oamcoop` are one entry point.
    src = str(Path(oamcoop.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = [
        subprocess.run([sys.executable, "-m", module, "validate"], capture_output=True, text=True, env=env)
        for module in ("oamcoop.cli", "oamcoop")
    ]
    assert [run.returncode for run in runs] == [EXIT_OK, EXIT_OK]
    assert runs[0].stdout == runs[1].stdout == "\n".join(VALIDATE_LINES) + "\n"


@pytest.mark.parametrize(
    "flags,key",
    [
        pytest.param(["--seed", "-1"], "master_seed", id="--seed--1"),
        pytest.param(["--trials", "0"], "trials", id="--trials-0"),
        pytest.param(["--values", "0"], "fbs_height_m", id="--values-0"),
        # fewer than four users cannot form two pairs: a config error, not a crash
        pytest.param(["--axis", "users", "--values", "3"], "user_count", id="--axis-users--values-3"),
    ],
)
def test_rejected_override_is_config_error(tmp_path, small_cfg, capsys, flags, key):
    # The flags come after _sweep_args' own, so they win.
    rc = main(_sweep_args(tmp_path, small_cfg) + flags)
    assert rc == EXIT_CONFIG_ERROR
    assert f"config error: {key}: " in capsys.readouterr().err


def test_sweep_checks_every_value_before_running(tmp_path, small_cfg, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: runs.append(args) or sim.run_experiment(*args))
    out = tmp_path / "s.csv"
    args = _sweep_args(tmp_path, small_cfg) + ["--axis", "users", "--values", "500,3"]
    assert main(args) == EXIT_CONFIG_ERROR
    assert runs == []
    assert not out.exists()


def test_restating_the_default_ground_bs_x_keeps_the_cow_rows(tmp_path):
    # An unset ground-station height follows each swept flight height,
    # whichever coordinates the file sets.
    csvs = []
    for extra in ("", "ground_bs.x_m = 50\n"):
        cfg = tmp_path / "cow.cfg"
        cfg.write_text("user_count = 800\ntrials = 3\n" + extra)
        out = tmp_path / f"cow{len(csvs)}.csv"
        args = ["sweep", "--config", str(cfg), "--out", str(out), "--axis", "height",
                "--values", "50,100", "--schemes", "cow", "--seed", "1"]
        assert main(args) == EXIT_OK
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def _sweep_args(tmp_path, small_cfg):
    return [
        "sweep", "--config", str(small_cfg), "--out", str(tmp_path / "s.csv"),
        "--axis", "height", "--values", "50", "--schemes", "acoc",
    ]


def test_infeasible_placement_exit_code(tmp_path, small_cfg, monkeypatch):
    def refuse(*args, **kwargs):
        raise InfeasiblePlacementError("chord below the ring floor")

    monkeypatch.setattr(sim, "place_acoc", refuse)
    assert main(_sweep_args(tmp_path, small_cfg)) == EXIT_INFEASIBLE


@pytest.mark.parametrize(
    "error",
    [ParallelChordsError("internal"), NoRingError("internal")],
    ids=type,
)
def test_internal_error_propagates(tmp_path, small_cfg, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(sim, "place_acoc", fail)
    with pytest.raises(type(error)):
        main(_sweep_args(tmp_path, small_cfg))


@pytest.mark.parametrize(
    "axis,values", [("users", "inf"), ("users", "nan"), ("height", "inf"), ("height", "nan")]
)
def test_sweep_rejects_non_finite_values(tmp_path, small_cfg, capsys, axis, values):
    out = tmp_path / "s.csv"
    rc = main(
        [
            "sweep", "--config", str(small_cfg), "--out", str(out),
            "--axis", axis, "--values", f"50,{values}",
        ]
    )
    assert rc == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["hotspot_side_m", "fbs_height_m"])
def test_non_finite_config_length_rejected(tmp_path, capsys, key):
    path = tmp_path / "inf.cfg"
    path.write_text(f"{key} = inf\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv"),
               "--axis", "height", "--values", "50"])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert "finite" in err


@pytest.mark.parametrize(
    "key,value",
    [
        ("link.carrier_frequency_hz", "inf"),
        ("link.transmit_power_w", "inf"),
        ("link.aperture_m2", "inf"),
        ("link.noise_power_w", "inf"),
        ("link.noise_power_dbm", "-inf"),
        ("link.mode_set", "1,30"),
        ("selection.epsilon", "inf"),
        ("ground_bs.x_m", "nan"),
        ("ground_bs.x_m", "inf"),
        ("ground_bs.height_m", "inf"),
    ],
)
def test_non_finite_setting_rejected(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL + f"{key} = {value}\n")
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--config", str(path), "--out", str(out),
               "--axis", "height", "--values", "50"])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert ("|mode| <= 20" if key == "link.mode_set" else "finite") in err
    assert not out.exists()


# sha256 of the CSV bytes (manifests aside) of two default-config runs per
# master seed.  Output CSVs are a contract: a refactor must keep them
# byte-identical at %.9g, and a model change must list each regeneration.
CLI_CSV_RUNS = {
    "heatmap": ["heatmap", "--grid", "41"],
    "sweep": ["sweep", "--axis", "height", "--values", "50,100", "--trials", "5"],
}
CLI_CSV_DIGESTS = {
    ("heatmap", 1): "e84069981ec9282540ef2da6eb092047b448eaac3cb860134041d2048ec8f932",
    ("heatmap", 2): "a3ded878f08724d06ce0d5b9a6a30f3ad945b3c3ab2da00b0c903415ddc00aef",
    ("heatmap", 3): "e5ebc546d59075e8544be856a6c5e1685db38f6b183da39f2c6e3a0dd1521c46",
    ("sweep", 1): "f1385d3560af813dff1ed088404c32f6ef3852586b951007ba3abe619e9ca36f",
    ("sweep", 2): "33407e691b8d6550531455ae3276a5bd0d5cb8eef7d850abc1802f4e16453edf",
    ("sweep", 3): "002fd3595d2f8fc278c72ec5020a9dbcbb70962ec58e365c779f382ed9d71f9b",
}


@pytest.mark.parametrize("command,seed", sorted(CLI_CSV_DIGESTS))
def test_cli_csv_bytes_are_frozen(tmp_path, command, seed):
    out = tmp_path / f"{command}.csv"
    assert main(CLI_CSV_RUNS[command] + ["--out", str(out), "--seed", str(seed)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_CSV_DIGESTS[command, seed]
