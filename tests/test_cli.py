"""Command-line interface: config handling, outputs, exit codes."""

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extrisk import (
    DYNASTY,
    ConsumptionPath,
    HazardParams,
    UtilitySpec,
    belief_update_response,
    discount_factor,
    discount_profile,
    evaluate,
    known_extinction,
)
from extrisk import analysis, cli, series
from extrisk.analysis import scenario_sweep
from extrisk.cli import run as cli_run
from extrisk.series import Scenario, _batch, _points, factor_exponents
from extrisk.simulate import VERIFY_GRID, VERIFY_PATH, SimulationConfig, abm_smoothing_study


def write_config(tmp_path: Path, payload) -> str:
    cfg = tmp_path / "run.json"
    if isinstance(payload, str):
        cfg.write_text(payload, encoding="utf-8")
    else:
        cfg.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(cfg)


BASE_CONFIG = {
    "cases": ["individual", "dynasty", {"known_extinction": 4}],
    "grid": {"m": [0.02, 0.1], "M": [0.01], "b": [0.03]},
    "path": {"prefix": [0.9, 1.2, 1.1], "tail": "constant"},
    "utility": {"family": "log"},
    "tolerance": 1e-10,
}


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- config diagnostics -------------------------------------------------------


def test_malformed_json_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, '{"grid": {"m": [0.1],}}')
    code = cli_run(["eval", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_grid_key_is_located(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"m": [0.1], "M": [0.1], "zeta": [1]}})
    code = cli_run(["eval", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "grid.zeta" in capsys.readouterr().err


def test_bad_grid_value_is_located(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"m": [0.1, "high"], "M": [0.1]}})
    code = cli_run(["eval", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "grid.m[1]" in capsys.readouterr().err


def test_invalid_hazard_value_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"m": [1.7], "M": [0.1]}})
    code = cli_run(["eval", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "grid" in capsys.readouterr().err


_POINT = "config error: grid: invalid point (m={}, M={}, b={}, theta={}, alpha={}, N0={}): "


# the first invalid point in product order, with its first failing field's message; a grid
# with an empty axis has no points, so an invalid value on another axis is never reached
@pytest.mark.parametrize("grid, err", [
    ({"m": [0.1, 0.2], "M": [0.1], "b": [0.0, -1.0, 0.5]},
     _POINT.format(0.1, 0.1, -1.0, 1.0, 0.5, 1.0) + "b must be finite and >= 0, got -1.0"),
    ({"m": [0.5, 1.5], "M": [0.1], "alpha": [0.5, 2.0]},
     _POINT.format(0.5, 0.1, 0.0, 1.0, 2.0, 1.0) + "alpha must lie in (0, 1), got 2.0"),
    ({"m": [1.5], "M": [-0.1], "alpha": [2.0]},
     _POINT.format(1.5, -0.1, 0.0, 1.0, 2.0, 1.0) + "m must lie in [0, 1], got 1.5"),
    ({"m": [0.1, 0.2], "M": [0.1], "N0": [2, 0]},
     _POINT.format(0.1, 0.1, 0.0, 1.0, 0.5, 0.0) + "N0 must be finite and > 0, got 0.0"),
    ({"m": [0.1], "M": [0.1], "theta": {"linspace": [0.8, 1.6, 3]}},
     _POINT.format(0.1, 0.1, 0.0, "1.2000000000000002", 0.5, 1.0)
     + "theta must lie in [0, 1], got 1.2000000000000002"),
    ({"m": [0.1], "M": [0.1], "b": [0.5, True]},
     "config error: grid.b[1]: expected a number, got True"),
    ({"m": [], "M": [2.0]}, None),
    ({"m": [0.1], "M": [0.2], "N0": [1, 0], "b": []}, None),
], ids=["later-axis", "first-invalid-point", "first-failing-field", "N0", "linspace", "bool",
        "empty-m", "empty-b"])
def test_invalid_grid_names_its_first_invalid_point(tmp_path, capsys, grid, err):
    cfg = write_config(tmp_path, {"grid": grid})
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == (1 if err else 0)
    if err:
        assert capsys.readouterr().err == err + "\n"
        assert not out.exists()
    else:
        assert (out / "eval.json").read_text(encoding="utf-8") == "[]\n"


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(BASE_CONFIG).encode("utf-16-le"))
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read {cfg}: ")
    assert not out.exists()


def test_the_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("expanded as a cartesian product:\n\n```json\n")[1].split("```")[0]
    cfg = write_config(tmp_path, example)
    for sub in ("eval", "sweep"):
        assert cli_run([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        assert len(read_csv(tmp_path / sub / f"{sub}.csv")) == 8  # 2 points x 4 cases


@pytest.mark.parametrize(
    "payload",
    [
        '{"grid": {"m": [0.1], "M": [0.1], "b": [NaN]}}',
        '{"grid": {"m": [0.1], "M": [0.1], "b": [Infinity]}}',
        '{"grid": {"m": [0.1], "M": [0.1]}, "tolerance": NaN}',
        # linspace endpoints are checked like list entries, and k = true is not 1
        '{"grid": {"m": {"linspace": ["a", 0.1, 3]}, "M": [0.1]}}',
        '{"grid": {"m": {"linspace": [null, 0.1, 3]}, "M": [0.1]}}',
        '{"grid": {"m": {"linspace": ["0.01", 0.1, 2]}, "M": [0.1]}}',
        '{"grid": {"m": {"linspace": [0.01, 0.1, true]}, "M": [0.1]}}',
    ],
)
def test_non_finite_config_numbers_exit_one(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli_run(["eval", "--strict", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if "linspace" in payload:
        assert err.startswith("config error: grid.m.linspace: ")
    else:
        assert "non-finite" in err
    assert not (out / "eval.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_bad_tolerance_flag_exits_one(tmp_path, capsys, tol):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert cli_run(["eval", "--config", cfg, "--out", str(tmp_path), "--tolerance", tol]) == 1
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
def test_bad_step_flag_exits_one(tmp_path, capsys, step):
    out = tmp_path / "sens"
    assert cli_run(["sensitivity", "--out", str(out), "--step", step]) == 1
    assert capsys.readouterr().err.startswith("config error: --step must be finite")
    assert not out.exists()


# each value is of the wrong type for its key; the constructors or the reader reject it
@pytest.mark.parametrize("key, value", [
    ("simulation", {"replications": 2.5}),
    ("simulation", {"replications": True}),
    ("simulation", {"seed": 1.5}),
    ("simulation", {"horizon_cap": 2.5}),
    ("simulation", {"n0_values": [True], "mode": "agent"}),
    ("tolerance", True),
    ("horizon", True),
    ("cases", [{"known_extinction": True}]),
    ("path", {"prefix": "12"}),
    ("path", {"prefix": [1], "tail": "geometric", "ratio": False}),
], ids=["replications-float", "replications-bool", "seed-float", "horizon_cap-float",
        "n0_values-bool", "tolerance-bool", "horizon-bool", "known_extinction-bool",
        "prefix-string", "ratio-bool"])
def test_config_values_of_the_wrong_type_exit_one(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {"grid": {"m": [0.02], "M": [0.01], "b": [0.03]}, key: value})
    out = tmp_path / "out"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


_GRID = {"m": [0.02], "M": [0.01]}
_LISTS = "grid.b: expected a list of numbers or {'linspace': [lo, hi, k]}"
_CASE = "expected a case name or {'known_extinction': T}"


# each config's shape is wrong where the parser checks it, or an override is out of range;
# 2**63 - 1 is the most replications numpy counts in int64
@pytest.mark.parametrize("payload, flags, message", [
    ({"grid": {**_GRID, "b": {"linspace": [0.0, 0.1, 2], "k": 2}}}, [], _LISTS),
    ({"grid": {**_GRID, "b": {"range": [0.0, 0.1]}}}, [], _LISTS),
    ({"grid": {**_GRID, "b": {"linspace": [0.0, 0.1]}}}, [], "grid.b.linspace: expected [lo, hi, k]"),
    ({"grid": {**_GRID, "b": {"linspace": "0:0.1:2"}}}, [], "grid.b.linspace: expected [lo, hi, k]"),
    ({"grid": {"m": 0.02, "M": [0.01]}}, [], "grid.m: expected a list of numbers"),
    ({"grid": [[0.02], [0.01]]}, [], "grid: expected an object with per-parameter value lists"),
    ({"grid": {"m": [0.02]}}, [], "grid.M: required"),
    ({"grid": {"M": [0.01]}}, [], "grid.m: required"),
    ({"grid": _GRID, "cases": "individual"}, [], "cases: expected a list"),
    ({"grid": _GRID, "cases": [3]}, [], f"cases[0]: {_CASE}"),
    ({"grid": _GRID, "cases": ["individual", {"known_extinction": 3, "T": 3}]}, [],
     f"cases[1]: {_CASE}"),
    ({"grid": _GRID, "path": [1.0]}, [], "path: expected an object"),
    ({"grid": _GRID, "utility": {"family": "log", "gamma": 2.0}}, [], "utility.gamma: unknown key"),
    ([_GRID], [], "top level: expected a JSON object"),
    ({"grid": _GRID, "grids": _GRID}, [], "grids: unknown top-level key"),
    ({"utility": {"family": "log"}}, [], "grid: required"),
    ({"grid": _GRID}, ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ({"grid": _GRID}, ["--reps", str(2**63)], f"replications must be at most 2**63 - 1, got {2**63}"),
    ({"grid": _GRID, "simulation": {"replications": 10**20}}, [],
     f"simulation: replications must be at most 2**63 - 1, got {10**20}"),
    # caps that numpy cannot allocate: 7 PiB of tables, 745 GiB of agent-mode dates
    ({"grid": _GRID, "simulation": {"horizon_cap": 10**15}}, [],
     f"simulation: horizon_cap must be at most 2**21 = 2097152, got {10**15}"),
    ({"grid": {**_GRID, "b": [0.03]}, "simulation": {"mode": "agent", "horizon_cap": 10**11}}, [],
     f"simulation: horizon_cap must be at most 2**21 = 2097152, got {10**11}"),
], ids=["linspace-extra-key", "not-linspace", "linspace-short", "linspace-string", "axis-number",
        "grid-list", "no-M", "no-m", "cases-string", "case-number", "case-extra-key",
        "section-list", "section-unknown-key", "top-level-list", "top-level-unknown-key",
        "no-grid", "seed-override", "reps-override", "replications-past-int64",
        "horizon_cap-past-2**21", "agent-horizon_cap-past-2**21"])
def test_malformed_configs_and_overrides_exit_one_with_their_message(
        tmp_path, capsys, payload, flags, message):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli_run(["simulate", "--config", cfg, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


_BIG = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize("payload, message", [
    ({"grid": {"m": [0.02], "M": [_BIG]}}, f"grid.M[0]: expected a number, got {_BIG!r}"),
    ({"grid": _GRID, "tolerance": _BIG}, f"tolerance must be finite and > 0, got {_BIG!r}"),
    ({"grid": _GRID, "path": {"prefix": [_BIG]}},
     f"path: prefix must be a sequence of numbers, got [{_BIG!r}]"),
], ids=["grid", "tolerance", "prefix"])
def test_an_integer_past_float_range_is_a_config_error(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_an_integer_past_the_interpreter_s_digit_limit_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, '{"grid": {"m": [0.02], "M": [1' + "0" * 5000 + ']}}')
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "config error: an integer of 5001 digits is not a number extrisk accepts\n"
    assert not out.exists()


# each asks numpy or a list for petabytes, refused before any memory is allocated
@pytest.mark.parametrize("command, payload", [
    ("eval", {"grid": {"m": {"linspace": [0.01, 0.02, 10**15]}, "M": [0.01]}}),
    ("profile", {"grid": {**_GRID, "b": [0.03]}, "horizon": 10**15}),
    ("simulate", {"grid": {**_GRID, "b": [0.03]},
                  "simulation": {"mode": "agent", "replications": 10**15}}),
], ids=["eval-linspace", "profile-horizon", "agent-replications"])
def test_a_config_past_the_memory_exits_one_and_writes_nothing(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli_run([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: out of memory")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "wrote" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("sub, reason", [("", "File exists"), ("sub", "Not a directory")],
                         ids=["a-file", "under-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_one(tmp_path, capsys, sub, reason):
    target = tmp_path / "FILE"
    target.write_text("kept", encoding="utf-8")
    out = target / sub if sub else target
    assert cli_run(["table1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"config error: cannot create output directory {out}: {reason}\n"
    assert target.read_text(encoding="utf-8") == "kept"


def test_missing_config_for_eval(tmp_path, capsys):
    code = cli_run(["eval", "--out", str(tmp_path)])
    assert code == 1
    assert "--config" in capsys.readouterr().err


def test_unknown_case_name(tmp_path, capsys):
    cfg = write_config(tmp_path, {"cases": ["herd"], "grid": {"m": [0.1], "M": [0.1]}})
    assert cli_run(["eval", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "cases[0]" in capsys.readouterr().err


# --- eval ----------------------------------------------------------------------


def test_eval_writes_csv_and_json(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "eval.csv")
    assert len(rows) == 6  # 2 grid points x 3 cases
    assert rows[0]["case"] == "individual"
    assert (out / "eval.json").exists()


def test_eval_json_roundtrips_to_in_memory_values(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "eval.json").read_text())
    path = ConsumptionPath(prefix=(0.9, 1.2, 1.1))
    u = UtilitySpec.log()
    for row in rows:
        params = HazardParams(m=row["m"], M=row["M"], b=row["b"])
        case = (
            known_extinction(4)
            if row["case"].startswith("known_extinction")
            else Scenario(row["case"])
        )
        expected = evaluate(case, params, path, u, 1e-10)
        assert row["value"] == expected.value  # exact float round trip
        assert row["tail_bound"] == expected.tail_bound


def test_eval_csv_floats_roundtrip(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    cli_run(["eval", "--config", cfg, "--out", str(out), "--format", "csv"])
    rows = read_csv(out / "eval.csv")
    json_code = cli_run(["eval", "--config", cfg, "--out", str(out), "--format", "json"])
    assert json_code == 0
    jrows = json.loads((out / "eval.json").read_text())
    for crow, jrow in zip(rows, jrows):
        assert float(crow["value"]) == jrow["value"]
        assert "." in crow["value"] or "e" in crow["value"]  # decimal-point format


def test_strict_flags_divergent_points(tmp_path):
    divergent = dict(BASE_CONFIG)
    divergent["grid"] = {"m": [0.0], "M": [0.005], "b": [0.01]}
    divergent["cases"] = ["dynasty"]
    cfg = write_config(tmp_path, divergent)
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == 0
    assert cli_run(["eval", "--config", cfg, "--out", str(out), "--strict"]) == 2
    rows = read_csv(out / "eval.csv")
    assert rows[0]["status"].startswith("divergent")
    assert rows[0]["value"] == ""  # flagged, never numeric


def test_flags_of_one_run_do_not_carry_into_the_next(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "cases": ["individual", "dynasty"],
                                  "grid": {"m": [0.0], "M": [0.005], "b": [0.01]}})
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_run(["eval", "--config", cfg, "--out", str(first), "--strict",
                    "--format", "csv", "--tolerance", "1e-20"]) == 2
    assert cli_run(["eval", "--config", cfg, "--out", str(second)]) == 0  # divergent, not strict
    assert sorted(p.name for p in first.iterdir()) == ["eval.csv"]
    assert sorted(p.name for p in second.iterdir()) == ["eval.csv", "eval.json"]
    tight, config = read_csv(first / "eval.csv")[0], read_csv(second / "eval.csv")[0]
    assert tight["case"] == config["case"] == "individual"
    assert 1e-20 < float(config["tail_bound"]) <= 1e-10  # converged under the config's tolerance
    assert (tight["converged"], config["converged"]) == ("False", "True")
    assert capsys.readouterr().out.count("wrote ") == 3


def test_empty_grid_produces_header_only(tmp_path):
    cfg = write_config(tmp_path, {"grid": {"m": [], "M": [0.1]}})
    out = tmp_path / "out"
    assert cli_run(["eval", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "eval.csv").read_text().strip().splitlines()
    assert len(text) == 1 and text[0].startswith("m,M,b")


@pytest.mark.parametrize("sub, columns", [("sweep", cli._SWEEP_COLUMNS),
                                          ("eval", cli._EVAL_COLUMNS),
                                          ("simulate", cli._SIMULATE_COLUMNS)])
def test_an_empty_case_list_writes_header_only(tmp_path, sub, columns):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "cases": [], "simulation": {"replications": 100}})
    out = tmp_path / "out"
    assert cli_run([sub, "--config", cfg, "--out", str(out), "--format", "both"]) == 0
    assert (out / f"{sub}.json").read_text(encoding="utf-8") == "[]\n"
    assert (out / f"{sub}.csv").read_text(encoding="utf-8") == ",".join(columns) + "\n"


def test_column_lists_are_the_keys_of_the_records_they_write():
    row = scenario_sweep([VERIFY_GRID[0]], [DYNASTY], VERIFY_PATH, UtilitySpec.log())[0]
    assert cli._SWEEP_COLUMNS == list(row.to_dict())
    params = HazardParams(m=0.1, M=0.5, b=0.1)
    study = abm_smoothing_study(params, VERIFY_PATH, UtilitySpec.log(), [1, 2],
                                SimulationConfig(replications=10, seed=0, mode="agent"))
    assert cli._ABM_COLUMNS == list(cli._abm_rows([params], iter([study]))[0])
    # derived from HazardParams and the factor table, they still read as README states them
    assert cli._GRID_DEFAULTS == {"m": None, "M": None, "b": [0.0], "theta": [1.0],
                                  "alpha": [0.5], "N0": [1.0]}
    assert cli._CASE_NAMES == ("individual", "dynasty", "dynasty_theta", "lineage",
                               "social_welfare")


# --- other subcommands ------------------------------------------------------------


def test_table1_default_grid(tmp_path):
    out = tmp_path / "t1"
    assert cli_run(["table1", "--out", str(out)]) == 0
    rows = read_csv(out / "table1.csv")
    point0 = [r for r in rows if abs(float(r["m"]) - 0.02) < 1e-12 and r["case"] == "dynasty"]
    assert point0 and float(point0[0]["factor"]) == pytest.approx(0.99, abs=1e-12)
    lineage = [r for r in rows if r["case"] == "lineage"][0]
    m, M, alpha = (float(lineage[k]) for k in ("m", "M", "alpha"))
    assert float(lineage["factor_n0"]) == pytest.approx((1 - M) * (1 - m) ** (1 - alpha), rel=1e-12)


def test_table1_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli_run(["table1", "--out", str(out_a)])
    cli_run(["table1", "--out", str(out_b)])
    assert (out_a / "table1.csv").read_bytes() == (out_b / "table1.csv").read_bytes()
    assert (out_a / "table1.json").read_bytes() == (out_b / "table1.json").read_bytes()


def test_profile_tidy_output(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02], "M": [0.01], "b": [0.03]},
        "horizon": 50,
    })
    out = tmp_path / "prof"
    assert cli_run(["profile", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "profile.csv")
    ratio_rows = [r for r in rows if r["parameter"] == "weight_ratio"]
    assert len(ratio_rows) == 50
    assert [r["t"] for r in ratio_rows[:3]] == ["0", "1", "2"]
    long_run = [r for r in rows if r["parameter"] == "long_run_factor"][0]
    assert float(long_run["value"]) == pytest.approx(0.999306, abs=1e-12)


def test_sensitivity_output(tmp_path):
    cfg = write_config(tmp_path, {
        "cases": ["dynasty"],
        "grid": {"m": [0.02], "M": [0.01], "b": [0.0204081632653061]},
    })
    out = tmp_path / "sens"
    assert cli_run(["sensitivity", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sensitivity.csv")
    assert {r["regime"] for r in rows} == {"b-fixed", "n-fixed"}
    n_fixed = [r for r in rows if r["regime"] == "n-fixed"][0]
    assert float(n_fixed["d_factor_d_m"]) == 0.0


def test_sensitivity_gives_a_boundary_point_a_row_status(tmp_path):
    cfg = write_config(tmp_path, {
        "cases": ["dynasty", "individual"],
        "grid": {"m": [0.02], "M": [0.0, 0.01], "b": [0.03]},
    })
    out = tmp_path / "sens"
    assert cli_run(["sensitivity", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sensitivity.csv")
    assert len(rows) == 8
    derivs = ("d_factor_d_M", "d_factor_d_m", "fd_d_factor_d_M", "fd_d_factor_d_m")
    for r in rows:
        if r["M"] == "0.0":
            assert r["status"] == ("rejected: finite-difference step dM=1e-06 crosses "
                                   "the boundary at M=0.0")
            assert all(r[k] == "" for k in derivs)
        else:
            assert r["status"] == "ok" and all(r[k] != "" for k in derivs)
    doc = json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))
    assert [list(row) for row in doc] == [list(rows[0])] * 8


# 11 x 6 x 5 = 330 points at a five-date prefix: at a pass size of 1 << 12 rows x dates,
# three passes at the five default cases (163 points each) and at these six (136 points
# each); one pass at series._BLOCK. m = 1 - 5e-7 and M in {0, 5e-7} cross the boundary at
# the default step 1e-6, so their sensitivity rows are rejected.
_THREE_PASSES = {
    "cases": ["individual", "dynasty", "dynasty_theta", "lineage", "social_welfare",
              {"known_extinction": 3}],
    "grid": {"m": [0.0, 1e-7, 0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0 - 5e-7],
             "M": [0.0, 5e-7, 1e-4, 0.01, 0.05, 0.3],
             "b": [0.0, 1e-12, 0.01, 0.03, 0.5],
             "theta": [0.5], "alpha": [0.25]},
    "path": {"prefix": [0.8, 1.1, 1.25, 1.18, 1.3], "tail": "constant"},
    "horizon": 4,
}


def _rows_point_by_point(command, cfg):
    """A grid subcommand's rows, each (point, case) from its one-point library function."""
    for params in _points(cfg.grid):
        base = params.cells(population=False)
        if command == "table1":
            for case in cli._DEFAULT_CASES:
                rep = discount_factor(case, params)
                yield {**params.cells(), "case": case.label(), "factor": rep.factor,
                       "factor_n0": rep.factor_n0}
        elif command == "sweep":
            for row in scenario_sweep([params], cfg.cases, cfg.path, cfg.utility, cfg.tolerance):
                yield row.to_dict()
        elif command == "profile" and params.b > 0.0:
            prof = discount_profile(params, cfg.horizon)
            for t, r in enumerate(prof.ratios.tolist()):
                yield {**base, "case": "social_welfare", "parameter": "weight_ratio", "t": t,
                       "value": r}
            yield {**base, "case": "social_welfare", "parameter": "long_run_factor",
                   "value": prof.long_run}
            yield {**base, "case": "dynasty", "parameter": "factor",
                   "value": discount_factor(DYNASTY, params).factor}
        elif command == "sensitivity":
            for case in cfg.cases:
                try:
                    rep = belief_update_response(case, params)
                except ValueError as exc:
                    for regime in ("b-fixed", "n-fixed"):
                        yield {**base, "case": case.label(), "regime": regime,
                               "status": f"rejected: {exc}"}
                    continue
                for reg in (rep.b_fixed, rep.n_fixed):
                    yield {**base, "case": case.label(), **vars(reg), "status": "ok"}


@pytest.mark.parametrize("command, columns, block, passes", [
    ("table1", cli._TABLE1_COLUMNS, 1 << 12, 3),
    ("sensitivity", cli._SENSITIVITY_COLUMNS, 1 << 12, 3),
    ("profile", cli._PROFILE_COLUMNS, 1 << 12, 1),
    ("sweep", cli._SWEEP_COLUMNS, 1 << 12, 3),
    ("table1", cli._TABLE1_COLUMNS, series._BLOCK, 1),
    ("sensitivity", cli._SENSITIVITY_COLUMNS, series._BLOCK, 1),
    ("profile", cli._PROFILE_COLUMNS, series._BLOCK, 1),
    ("sweep", cli._SWEEP_COLUMNS, series._BLOCK, 1),
])
def test_grid_subcommands_write_their_point_by_point_rows_from_a_batch_per_pass(
        tmp_path, monkeypatch, capsys, command, columns, block, passes):
    monkeypatch.setattr(series, "_BLOCK", block)
    config = write_config(tmp_path, _THREE_PASSES)
    cfg = cli.RunConfig.from_file(config)
    rows = list(_rows_point_by_point(command, cfg))
    statuses = {r.get("status", "ok").split(":")[0] for r in rows}
    assert statuses == ({"ok", "rejected", "divergent"} if command == "sweep"
                        else {"ok", "rejected"} if command == "sensitivity" else {"ok"})
    assert len({r["case"] for r in rows}) == {"table1": 5, "profile": 2}.get(command, 6)
    cli._write_rows(tmp_path / "by_point", command, columns, rows, "both")
    batches = []
    batch = analysis._batch
    monkeypatch.setattr(analysis, "_batch", lambda *args: batches.append(args) or batch(*args))
    assert cli_run([command, "--config", config, "--out", str(tmp_path / "cli")]) == 0
    assert len(batches) == passes
    for name in (f"{command}.csv", f"{command}.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "by_point" / name).read_bytes()


# 3 x 3 x 5 = 45 points at a 100-date prefix: at the five default cases, 8 points per pass
# of 1 << 12 rows x dates and 32 per pass of 1 << 14
_SEVERAL_PASSES = {
    "grid": {"m": [0.0, 0.02, 0.3], "M": [0.0, 0.01, 0.05],
             "b": [0.0, 1e-12, 0.03, 0.5, 2.0]},
    "path": {"prefix": [0.9 + 0.005 * t for t in range(100)], "tail": "geometric",
             "ratio": 0.99},
    "utility": {"family": "crra", "sigma": 3.0},
    "simulation": {"replications": 200, "seed": 7},
}


@pytest.mark.parametrize("command", ["eval", "sweep", "table1", "sensitivity", "simulate"])
def test_the_pass_size_changes_no_output_byte(tmp_path, monkeypatch, capsys, command):
    config = write_config(tmp_path, _SEVERAL_PASSES)
    cfg = cli.RunConfig.from_file(config)  # the five default cases, as table1's
    written = {}
    for block in (1 << 12, series._BLOCK):
        monkeypatch.setattr(series, "_BLOCK", block)
        assert len(list(series._passes(cfg.grid, len(cfg.cases), cfg.path.prefix_len))) >= 2
        out = tmp_path / str(block)
        assert cli_run([command, "--config", config, "--out", str(out)]) == 0
        written[block] = [(out / f"{command}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert written[1 << 12] == written[series._BLOCK]


def test_sweep_and_simulate_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "cases": ["individual", "social_welfare"],
        "grid": {"m": [0.02], "M": [0.01], "b": [0.03]},
        "simulation": {"replications": 5000, "seed": 3},
    })
    out = tmp_path / "smoke"
    assert cli_run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    sim_rows = read_csv(out / "simulate.csv")
    assert all(r["within_3se"] == "True" for r in sim_rows)
    largest = max(float(r["truncated_mass"]) for r in sim_rows)
    assert capsys.readouterr().out.splitlines()[0] == \
        f"simulate: 2 rows, 2 ok; 0 outside 3 SE, max truncated_mass {largest:.3g}"


def test_simulate_agent_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02], "M": [0.05], "b": [0.0204081632653061]},
        "utility": {"family": "linear"},
        "simulation": {"replications": 400, "seed": 3, "mode": "agent",
                        "n0_values": [1, 10]},
    })
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "simulate.csv")
    assert [r["n0"] for r in rows] == ["1", "10"]
    assert float(rows[0]["mean_abs_gap"]) > float(rows[1]["mean_abs_gap"])
    hit = float(rows[0]["cap_hit_fraction"])
    assert capsys.readouterr().out.splitlines()[0] == \
        f"simulate: 2 rows, grid points 1, workers 1; max cap_hit_fraction {hit:.3g}"


def test_agent_mode_rows_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    payload = {
        "grid": {"m": [0.02], "M": [0.01, 0.05, 0.1], "b": [0.03]},
        "simulation": {"replications": 200, "seed": 11, "mode": "agent", "n0_values": [1, 10]},
    }
    pooled = tmp_path / "pooled"  # one worker per CPU, up to 3
    assert cli_run(["simulate", "--config", write_config(tmp_path, payload),
                    "--out", str(pooled)]) == 0
    csv_rows, json_rows = [], []
    for M in payload["grid"]["M"]:  # one-point runs never start a pool
        out = tmp_path / f"M={M}"
        cfg = write_config(tmp_path, {**payload, "grid": {**payload["grid"], "M": [M]}})
        assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csv_rows += read_csv(out / "simulate.csv")
        json_rows += json.loads((out / "simulate.json").read_text(encoding="utf-8"))
    assert read_csv(pooled / "simulate.csv") == csv_rows
    assert json.loads((pooled / "simulate.json").read_text(encoding="utf-8")) == json_rows
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = tmp_path / "serial"
    capsys.readouterr()
    assert cli_run(["simulate", "--config", write_config(tmp_path, payload),
                    "--out", str(serial)]) == 0
    assert "grid points 3, workers 1;" in capsys.readouterr().out
    for name in ("simulate.csv", "simulate.json"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


AGENT_UNDERFLOW_CONFIG = {
    "grid": {"m": [0.02], "M": [0.05, 0.001], "b": [0.03]},  # the failing point runs second
    "path": {"prefix": [1.0], "tail": "geometric", "ratio": 0.5},
    "utility": {"family": "log"},
    "simulation": {"replications": 20, "seed": 3, "mode": "agent", "n0_values": [1, 2]},
}


def test_simulate_agent_mode_underflowing_consumption_is_a_config_error(tmp_path, capsys):
    # 0.5**t reaches 0.0 near t = 1075, inside the sampled horizon at M = 0.001
    cfg = write_config(tmp_path, AGENT_UNDERFLOW_CONFIG)
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: agent-mode simulate at m=0.02, M=0.001, "
                                       "b=0.03: log utility needs consumption > 0\n")
    assert not out.exists()


def test_agent_mode_prefactor_past_float_range_is_a_config_error(tmp_path, capsys):
    # (1+b)/b = 1e309 is past float range: the smoothed window has no value
    cfg = write_config(tmp_path, {"grid": {"m": [0.02], "M": [0.05], "b": [1e-309]},
                                  "simulation": {"replications": 20, "seed": 3, "mode": "agent"}})
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: agent-mode simulate at m=0.02, M=0.05, "
                                       "b=1e-309: the prefactor inf leaves float range\n")
    assert not out.exists()


def test_a_failed_run_keeps_an_out_directory_that_existed(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {**_GRID, "b": [0.03]}, "horizon": 10**15})
    out = tmp_path / "out"
    out.mkdir()
    for target in (out, out / "new" / "deeper"):  # the directories the run made go
        assert cli_run(["profile", "--config", cfg, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("config error: out of memory")
        assert out.is_dir() and list(out.iterdir()) == []


def test_agent_mode_head_counts_beyond_int64_are_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02], "M": [0.05], "b": [0.03]},
        "simulation": {"replications": 20, "seed": 3, "mode": "agent",
                       "n0_values": [10, 100_000_000_000_000_000_000]},
    })
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: simulation.n0_values: head counts must be "
                                       "a non-empty list of positive integers below 2**63\n")
    assert not out.exists()
    largest = {"grid": {"m": [0.02], "M": [0.05]},
               "simulation": {"mode": "agent", "n0_values": [2**63 - 1]}}
    assert cli.RunConfig.from_dict(largest).n0_values == [2**63 - 1]
    with pytest.raises(cli.ConfigError, match="n0_values"):
        cli.RunConfig.from_dict({**largest, "simulation": {"mode": "agent", "n0_values": [2**63]}})


# [1, 2**63] and [10**20] are beyond numpy's int64, which holds the populations
@pytest.mark.parametrize("n0_values", [[0], [1, 2.5], [1, 2**63], [10**20], [True], [2.0], [],
                                       "12", 12, None, {"1": 1}])
def test_config_and_study_reject_the_same_head_counts_with_one_message(n0_values):
    message = "head counts must be a non-empty list of positive integers below 2**63"
    with pytest.raises(ValueError) as study:
        abm_smoothing_study(HazardParams(m=0.1, M=0.1, b=0.1), ConsumptionPath.constant(1.0),
                            UtilitySpec.linear(), n0_values,
                            SimulationConfig(replications=10, seed=0, mode="agent"))
    assert type(study.value) is ValueError and str(study.value) == message
    with pytest.raises(cli.ConfigError) as config:
        cli.RunConfig.from_dict({"grid": {"m": [0.1], "M": [0.1], "b": [0.1]},
                                 "simulation": {"mode": "agent", "n0_values": n0_values}})
    assert str(config.value) == f"simulation.n0_values: {message}"


def _counted_study(params, log, **kwargs):
    """abm_smoothing_study, noting its start in the file log; a point with births sleeps first."""
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{params.b}\n")
    if params.b > 0.0:
        time.sleep(0.2)
    return abm_smoothing_study(params, **kwargs)


def test_agent_mode_runs_none_of_its_queued_studies_after_a_point_fails(
        tmp_path, capsys, monkeypatch):
    # the first of 10 points fails at once, beside the second, and no other study starts
    log = tmp_path / "starts"
    monkeypatch.setattr(cli, "abm_smoothing_study", functools.partial(_counted_study, log=log))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02], "M": [0.05], "b": [0.01 * k for k in range(10)]},
        "simulation": {"replications": 20, "seed": 3, "mode": "agent", "n0_values": [1, 2]},
    })
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: agent-mode simulate at m=0.02, M=0.05, "
                                       "b=0.0: social welfare needs b > 0: its closed form "
                                       "divides by b\n")
    assert not out.exists()
    assert sorted(log.read_text(encoding="utf-8").splitlines()) == ["0.0", "0.01"]


def test_agent_mode_population_grown_past_int64_is_a_config_error_naming_the_cause(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02], "M": [0.005], "b": [0.5]},
        "simulation": {"replications": 50, "seed": 1, "mode": "agent", "n0_values": [1]},
    })
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: agent-mode simulate at m=0.02, M=0.005, b=0.5: "
                          "the head count from n0=1 outgrows int64 at period ")
    assert not out.exists()


@pytest.mark.parametrize("M", [0.5, 1.0])
def test_agent_mode_bernoulli_pairs_above_b_2_are_a_config_error_at_every_hazard(tmp_path, capsys,
                                                                                 M):
    # at M = 1 no run lives past date 0, so no birth is drawn: the check comes before the draws
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.1], "M": [M], "b": [3.0]},
        "simulation": {"replications": 50, "seed": 1, "mode": "agent",
                       "offspring_law": "bernoulli-pair"},
    })
    out = tmp_path / "abm"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: agent-mode simulate at m=0.1, M={M}, "
                                       "b=3.0: bernoulli-pair needs b <= 2 (pair probability b/2)\n")
    assert not out.exists()


def _run_fresh(argv):
    """Run ``python argv`` in a fresh interpreter that imports extrisk from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _run_twice_in_fresh_processes(tmp_path, args):
    """Run ``extrisk.cli args`` in two fresh interpreters; return their two --out dirs."""
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        _run_fresh(["-m", "extrisk.cli", *args, "--out", str(out)])
        outputs.append(out)
    return outputs


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # the pool's modules load only when an agent-mode run needs them, not at start-up
    proc = _run_fresh(["-c", "import sys, extrisk.cli; "
                             "print([m for m in ('multiprocessing', 'concurrent.futures') "
                             "if m in sys.modules])"])
    assert proc.stdout == "[]\n"


def test_simulate_agent_mode_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"m": [0.02, 0.1], "M": [0.05], "b": [0.03]},
        "path": {"prefix": [0.8, 1.1, 1.25, 1.18, 1.3], "tail": "constant"},
        "utility": {"family": "log"},
        "simulation": {"replications": 300, "seed": 17, "mode": "agent",
                       "n0_values": [1, 10, 100]},
    })
    outputs = _run_twice_in_fresh_processes(tmp_path, ["simulate", "--config", cfg])
    for name in ("simulate.csv", "simulate.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    rows = read_csv(outputs[0] / "simulate.csv")
    assert len(rows) == 6 and all(float(r["welfare_gap_se"]) > 0.0 for r in rows)


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli_run(["verify", "--reps", "20000", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") + printed.count("FAIL") >= 60
    assert (out / "verify.csv").exists() and (out / "verify.json").exists()


# the flags each subcommand reads; it accepts these and no others
_READS = {
    "eval": {"config", "out", "tolerance", "strict", "format"},
    "simulate": {"config", "out", "seed", "reps", "tolerance", "strict", "format"},
    "sweep": {"config", "out", "tolerance", "strict", "format"},
    "profile": {"config", "out", "format"},
    "sensitivity": {"config", "out", "format", "step"},
    "table1": {"config", "out", "format"},
    "verify": {"out", "seed", "reps", "strict", "format"},
}
_FLAG_ARGV = {"config": ["--config", "/nonexistent.json"], "out": ["--out", "o"],
              "seed": ["--seed", "-5"], "reps": ["--reps", "0"], "tolerance": ["--tolerance", "1e-3"],
              "strict": ["--strict"], "format": ["--format", "csv"], "step": ["--step", "1e-3"]}


@pytest.mark.parametrize("sub, flag", [(sub, flag) for sub, reads in _READS.items()
                                       for flag in _FLAG_ARGV if flag not in reads])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, sub, flag):
    # a flag the subcommand would ignore is a usage error, checked before anything runs
    with pytest.raises(SystemExit) as exc:
        cli_run([sub, *_FLAG_ARGV[flag], "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--reps", "0"], ["--seed", "-1"],
                                   ["--seed", str(2**64 - 1)], ["--reps", str(10**20)]])
def test_verify_rejects_replications_and_seeds_it_cannot_run(tmp_path, capsys, flags):
    # the grid's last point runs on seed + 1000003 * 11, which must fit in 64 bits too
    # the replication count is SimulationConfig's to check, as for simulate
    out = tmp_path / "v"
    assert cli_run(["verify", *flags, "--out", str(out)]) == 1
    name = "replications" if flags[0] == "--reps" else flags[0]
    assert capsys.readouterr().err.startswith(f"config error: {name} must ")
    assert not out.exists()


def _verify_row(ok: bool) -> dict:
    mc = 1.0 if ok else 1.1
    return {"functional": "eu_individual", "point": 0, **VERIFY_GRID[0].cells(population=False),
            "analytic": 1.0, "mc_mean": mc, "mc_se": 0.01, "abs_error": abs(mc - 1.0),
            "ok": ok, "truncated_mass": 0.0}


def test_verify_strict_exits_four_on_a_failed_comparison(tmp_path, monkeypatch):
    rows = [_verify_row(True), _verify_row(False)]
    monkeypatch.setattr(cli, "verify_oracle_grid", lambda replications, seed: rows)
    assert cli_run(["verify", "--out", str(tmp_path / "a")]) == 0
    assert cli_run(["verify", "--strict", "--out", str(tmp_path / "b")]) == 4
    rows.pop()
    assert cli_run(["verify", "--strict", "--out", str(tmp_path / "c")]) == 0


def test_verify_reruns_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "va", tmp_path / "vb"
    cli_run(["verify", "--reps", "5000", "--seed", "11", "--out", str(out_a)])
    cli_run(["verify", "--reps", "5000", "--seed", "11", "--out", str(out_b)])
    assert (out_a / "verify.csv").read_bytes() == (out_b / "verify.csv").read_bytes()
    assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("EXTRISK_OUT", str(env_dir))
    assert cli_run(["table1", "--format", "csv"]) == 0
    assert (env_dir / "table1.csv").exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)])
def test_outputs_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert cli_run(["table1", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("table1.csv", "table1.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_a_write_never_touches_the_process_umask(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called during a write")

    monkeypatch.setattr(os, "umask", umask)
    assert cli_run(["table1", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table1.csv", "table1.json"]


def test_format_csv_only(tmp_path):
    out = tmp_path / "fmt"
    cli_run(["table1", "--out", str(out), "--format", "csv"])
    assert (out / "table1.csv").exists()
    assert not (out / "table1.json").exists()


def test_seed_and_reps_overrides(tmp_path):
    cfg = write_config(tmp_path, {
        "cases": ["individual"],
        "grid": {"m": [0.02], "M": [0.01]},
        "simulation": {"replications": 1000, "seed": 1},
    })
    out = tmp_path / "ovr"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out),
                    "--reps", "2000", "--seed", "9"]) == 0
    rows = json.loads((out / "simulate.json").read_text())
    assert rows[0]["replications"] == 2000


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_a_partial_simulation_object_keeps_the_default_replication_count(tmp_path):
    base = {"cases": ["individual"], "grid": {"m": [0.02], "M": [0.01]}}
    counts = []
    for i, extra in enumerate([{}, {"simulation": {"seed": 3}}]):
        cfg = write_config(tmp_path, {**base, **extra})
        out = tmp_path / f"run{i}"
        assert cli_run(["simulate", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        counts.append([r["replications"] for r in read_csv(out / "simulate.csv")])
    assert counts == [["100000"], ["100000"]]


def test_non_finite_results_are_null_in_json_and_inf_in_csv(tmp_path):
    cfg = write_config(tmp_path, {"cases": ["individual"], "grid": {"m": [1.0], "M": [0.5]}})
    out = tmp_path / "inf"
    assert cli_run(["sweep", "--config", cfg, "--out", str(out), "--format", "both"]) == 0
    text = (out / "sweep.json").read_text(encoding="utf-8")
    rows = json.loads(text, parse_constant=_reject_constant)
    assert rows[0]["rate_log"] is None
    assert read_csv(out / "sweep.csv")[0]["rate_log"] == "inf"


def test_smoothed_simulate_matches_library_and_reports_each_case(tmp_path):
    from extrisk import SimulationConfig, mc_eg_lineage, mc_eu_individual, mc_ev_dynasty
    cfg = write_config(tmp_path, {
        "cases": ["individual", "dynasty", "dynasty_theta", "lineage", {"known_extinction": 2}],
        "grid": {"m": [0.02], "M": [0.01, 0.0], "b": [0.03], "theta": [0.5]},
        "path": {"prefix": [0.9, 1.2, 1.1], "tail": "constant"},
        "simulation": {"replications": 4000, "seed": 5},
    })
    out = tmp_path / "sim"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "simulate.csv")
    assert [r["status"].split(":")[0] for r in rows] == [
        "ok", "ok", "ok", "ok", "deterministic (no sampling)",
        "ok", "rejected", "rejected", "rejected", "deterministic (no sampling)",
    ]
    params = HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5)
    path = ConsumptionPath(prefix=(0.9, 1.2, 1.1))
    u, sim = UtilitySpec.log(), SimulationConfig(replications=4000, seed=5)
    expected = [
        mc_eu_individual(params, path, u, sim),
        mc_ev_dynasty(params, path, u, 1.0, sim),
        mc_ev_dynasty(params, path, u, None, sim),
        mc_eg_lineage(params, path, u, sim),
    ]
    for row, est in zip(rows, expected):
        assert float(row["mc_mean"]) == est.mean
        assert float(row["mc_se"]) == est.standard_error


def test_smoothed_simulate_writes_what_verify_writes_at_its_first_point(tmp_path):
    # both go through simulate.mc_compare; verify seeds point 0 with --seed itself
    params = VERIFY_GRID[0]
    cfg = write_config(tmp_path, {
        "grid": {k: [v] for k, v in params.cells(population=False).items()},
        "path": {"prefix": list(VERIFY_PATH.prefix)},
        "utility": {"family": "log"},
        "simulation": {"replications": 3000, "seed": 41},
    })
    assert cli_run(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert cli_run(["verify", "--reps", "3000", "--seed", "41", "--out", str(tmp_path / "v")]) == 0
    verify = [r for r in read_csv(tmp_path / "v" / "verify.csv") if r["point"] == "0"]
    simulate = read_csv(tmp_path / "s" / "simulate.csv")
    assert len(simulate) == len(verify) == 5
    for s, v in zip(simulate, verify):
        assert (s["analytic"], s["mc_mean"], s["mc_se"]) == (v["analytic"], v["mc_mean"], v["mc_se"])
        assert s["mc_se"] != ""


_DECAYING = {"prefix": [1.0], "tail": "geometric", "ratio": 0.99}


@pytest.mark.parametrize("path, utility, flagged_cases", [
    (None, None, {"dynasty", "social_welfare"}),
    # log u(c_t) grows linearly in t: the weights' growth decides, as on a constant path
    (_DECAYING, {"family": "log"}, {"dynasty", "social_welfare"}),
    # linear u(c_t) decays: (1+n) g = 1.0094 * 0.99 = 0.9993 < 1 bounds every per-draw sum
    (_DECAYING, {"family": "linear"}, set()),
], ids=["constant-log", "decaying-log", "decaying-linear"])
def test_simulate_flags_infinite_variance_rows(tmp_path, path, utility, flagged_cases):
    # (1-M)(1+n)**2 = 0.99 * 1.0094**2 = 1.0087 >= 1: the dynasty and social-welfare
    # weights alone give infinite variance; theta = 0.5 and alpha = 0.5 stay below 1
    payload = {
        "cases": ["individual", "dynasty", "dynasty_theta", "lineage", "social_welfare"],
        "grid": {"m": [0.02], "M": [0.01], "b": [0.03], "theta": [0.5], "alpha": [0.5]},
        "simulation": {"replications": 2000, "seed": 4},
    }
    payload.update({k: v for k, v in (("path", path), ("utility", utility)) if v is not None})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "var"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    flagged = "ok: infinite variance, mc_se is not an error bar"
    status = {r["case"]: r["status"] for r in read_csv(out / "simulate.csv")}
    assert status == {case: flagged if case in flagged_cases else "ok" for case in payload["cases"]}


def test_simulate_keeps_rows_whose_sampled_consumption_underflows(tmp_path):
    # 0.5**t reaches 0.0 near t = 1075, far inside the cap of ~27,600 periods at
    # M = 0.001, so log utility fails on the sampled path; the closed form never
    # forms those c_t, so the row is ok and keeps its analytic value
    payload = {
        "cases": ["individual", "dynasty"],
        "grid": {"m": [0.02], "M": [0.001], "b": [0.01]},
        "path": {"prefix": [1.0], "tail": "geometric", "ratio": 0.5},
        "utility": {"family": "log"},
        "simulation": {"replications": 2000, "seed": 3},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "under"
    assert cli_run(["simulate", "--config", cfg, "--out", str(out), "--strict"]) == 0
    assert cli_run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    sweep = {r["case"]: r for r in read_csv(out / "sweep.csv")}
    rows = read_csv(out / "simulate.csv")
    assert [r["case"] for r in rows] == ["individual", "dynasty"]
    for r in rows:
        assert r["status"] == "ok: not sampled: log utility needs consumption > 0"
        assert sweep[r["case"]]["status"] == "ok"
        assert r["analytic"] == sweep[r["case"]]["value"]
        assert r["mc_mean"] == "" and r["within_3se"] == ""


# Every verdict kind: ok, finiteness-divergent (m=0, M=.01, b=.03 dynasty), CRRA-tail
# divergent (m=.02, M=.01, b=.03 dynasty), M = 0 with 1+n above and below 1, m = M = 0,
# social welfare at b = 0, and a known extinction date.
CONSISTENCY_CONFIG = {
    "cases": ["individual", "dynasty", "dynasty_theta", "lineage", "social_welfare",
              {"known_extinction": 3}],
    "grid": {"m": [0.0, 0.02], "M": [0.0, 0.01, 0.05], "b": [0.0, 0.03], "theta": [0.5]},
    "path": {"prefix": [0.9, 1.2, 1.1], "tail": "geometric", "ratio": 0.99},
    "utility": {"family": "crra", "sigma": 3.0},
    "simulation": {"replications": 2000, "seed": 5},
}


def _sim_status(status: str) -> str:
    """A simulate status as the analytic verdict it carries."""
    return "ok" if status.startswith(("ok", "deterministic")) else status


@pytest.mark.parametrize("grid", [
    CONSISTENCY_CONFIG["grid"],
    {"m": [0.02], "M": [0.0], "b": [0.0, 0.03]},  # only M = 0 points, one with 1+n > 1
], ids=["every-verdict", "M0-only"])
def test_eval_sweep_simulate_agree_on_every_row(tmp_path, grid):
    cfg = write_config(tmp_path, {**CONSISTENCY_CONFIG, "grid": grid})
    codes, statuses = {}, {}
    for sub in ("eval", "sweep", "simulate"):
        out = tmp_path / sub
        codes[sub] = cli_run([sub, "--strict", "--config", cfg, "--out", str(out)])
        rows = read_csv(out / f"{sub}.csv")
        statuses[sub] = [((r["m"], r["M"], r["b"], r["case"]), r["status"]) for r in rows]
    assert statuses["eval"] == statuses["sweep"]
    assert [(k, _sim_status(s)) for k, s in statuses["simulate"]] == statuses["sweep"]
    assert codes["eval"] == codes["sweep"] == codes["simulate"]
    if grid is CONSISTENCY_CONFIG["grid"]:
        seen = {s.split(";")[0] for _, s in statuses["sweep"]}
        assert {"ok", "divergent",
                "rejected: social welfare needs b > 0: its closed form divides by b"} <= seen
        assert any(s.startswith("rejected: M = 0") for s in seen)
        sweep = read_csv(tmp_path / "sweep" / "sweep.csv")
        assert any(r["finite"] == "True" and r["status"] == "divergent" for r in sweep)  # CRRA tail
        assert codes["sweep"] == 2
    else:
        assert codes["sweep"] == 0


# --- output writer ---------------------------------------------------------------


def test_sweep_json_writes_one_row_per_line_nulling_only_non_finite_cells(tmp_path):
    # at m = 1 rate_log is inf; the m = 0.5 rows are finite throughout
    cfg = write_config(tmp_path, {"cases": ["individual"], "grid": {"m": [0.5, 1.0], "M": [0.01, 0.5]}})
    out = tmp_path / "lines"
    assert cli_run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "sweep.json").read_text(encoding="utf-8")
    rows = json.loads(text, parse_constant=_reject_constant)
    lines = text.split("\n")
    assert len(rows) == 4 and lines[0] == "[" and lines[-2:] == ["]", ""]
    assert len(text.splitlines()) == len(rows) + 2
    middle = lines[1:-2]
    assert all(line.endswith(",") for line in middle[:-1]) and not middle[-1].endswith(",")
    assert [json.loads(line.removesuffix(",")) for line in middle] == rows
    assert ["null" in line for line in middle] == [False, False, True, True]
    cells = read_csv(out / "sweep.csv")
    assert [r["m"] for r in cells] == ["0.5", "0.5", "1.0", "1.0"]
    assert [[k for k, v in r.items() if v == "inf"] for r in cells] == [[], [], ["rate_log"], ["rate_log"]]
    assert [[k for k, v in r.items() if v is None] for r in rows] == [[], [], ["rate_log"], ["rate_log"]]
    for row, csv_row in zip(rows, cells):  # every other float re-parses to its CSV repr
        assert all(repr(v) == csv_row[k] for k, v in row.items() if isinstance(v, float))


def test_profile_without_a_birth_rate_writes_an_empty_array(tmp_path):
    cfg = write_config(tmp_path, {"grid": {"m": [0.02, 0.1], "M": [0.01], "b": [0.0]}})
    out = tmp_path / "empty"
    assert cli_run(["profile", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "profile.json").read_text(encoding="utf-8") == "[]\n"
    assert (out / "profile.csv").read_text(encoding="utf-8") == \
        "m,M,b,theta,alpha,case,parameter,t,value\n"


def test_every_cell_type_is_written_as_pinned(tmp_path, capsys):
    columns = ["x", "small", "big", "yes", "no", "k", "empty", "status"]
    row = {"x": 0.1, "small": 1e-10, "big": float("inf"), "yes": True, "no": False, "k": 7,
           "empty": None, "status": "rejected: M = 0, b > 0"}
    cli._write_rows(tmp_path, "cells", columns, [row], "both")
    assert (tmp_path / "cells.csv").read_text(encoding="utf-8") == (
        "x,small,big,yes,no,k,empty,status\n"
        '0.1,1e-10,inf,True,False,7,,"rejected: M = 0, b > 0"\n')
    assert (tmp_path / "cells.json").read_text(encoding="utf-8") == (
        '[\n{"x": 0.1, "small": 1e-10, "big": null, "yes": true, "no": false, "k": 7, '
        '"empty": null, "status": "rejected: M = 0, b > 0"}\n]\n')
    assert capsys.readouterr().out.count("wrote ") == 2


def test_sweep_reruns_in_fresh_processes_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {**CONSISTENCY_CONFIG,
                                  "grid": {**CONSISTENCY_CONFIG["grid"], "m": [0.0, 0.02, 1.0]}})
    outputs = _run_twice_in_fresh_processes(tmp_path, ["sweep", "--config", cfg])
    for name in ("sweep.csv", "sweep.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    assert b"null" in (outputs[0] / "sweep.json").read_bytes()  # the m = 1 rows have an inf cell


def test_json_text_peaks_below_three_times_its_length(tmp_path):
    cfg = cli.RunConfig.from_dict({"grid": {"m": {"linspace": [0.01, 0.2, 50]},
                                            "M": {"linspace": [0.001, 0.05, 20]}, "b": [0.03]}})
    results = scenario_sweep(_points(cfg.grid), cfg.cases, cfg.path, cfg.utility, cfg.tolerance)
    rows = [r.to_dict() for r in results]  # the sweep columns, in order
    assert len(rows) == 5_000 and list(rows[0]) == cli._SWEEP_COLUMNS
    tracemalloc.start()
    try:
        cli._write_rows(tmp_path, "sweep", cli._SWEEP_COLUMNS, rows, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "sweep.json").read_text(encoding="utf-8")
    assert peak < 3 * len(text)


_ORACLE_COLUMNS = ["a", "b,c", "d\"", "%s", "\u00e9", "f"]  # header cells need quoting too
_REJECTED = 'rejected: M = 0, b > 0; "b"\nsee the README'
_ORACLE_CELLS = st.one_of(
    st.floats(),  # subnormals, both zeros, inf and nan included
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, -2.5e-310, float("inf"), float("-inf"),
                     float("nan"), 1e16, 1e-5]),  # values that repeat across cells
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from(',"\n\r ab\u00e9\u6f22\U0001f600'), max_size=6),
    st.just(_REJECTED),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.fixed_dictionaries({c: _ORACLE_CELLS for c in _ORACLE_COLUMNS}),
                     max_size=5))
@example(rows=[dict(zip(_ORACLE_COLUMNS, [0.0, -0.0, 0.0, -0.0, 1.0, True])),
               dict(zip(_ORACLE_COLUMNS, [1, 1.0, True, False, 0, 0.0])),
               dict(zip(_ORACLE_COLUMNS, [5e-324, 5e-324, float("nan"), float("inf"),
                                          np.float64(0.1), 0.1])),
               dict(zip(_ORACLE_COLUMNS, [_REJECTED, "a,b", 'q"', "x\r", "\u00e9", None])),
               dict(zip(_ORACLE_COLUMNS, ["rejected: a\rb", "\r", '\r"', "\r\n", "", 0.5]))])
def test_writer_matches_the_csv_and_json_encoders(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("oracle")
    with contextlib.redirect_stdout(io.StringIO()):
        cli._write_rows(out, "o", _ORACLE_COLUMNS, rows, "both")
    check_written_as_the_encoders_write(out, rows)


# one type with None in each column, then ints and bools; a name a JSON key must escape
_BLOCK_COLUMNS = _ORACLE_COLUMNS + ["bool", "int", "str", "ints and bools", 'k"%s": }{%%']


def _block_scale_row(i):
    """Row i of a table spanning three writer blocks; each column takes one path of the writer."""
    last = 2 * cli._WRITE_BLOCK + 3  # the one row of the last block with a zero in column d"
    return dict(zip(_BLOCK_COLUMNS, [
        [0.0, -0.0, 0.1, np.float64(-0.0), float("nan")][i % 5],  # floats with both zeros
        [1, 1.0, True, None, '"q"\r', -0.0, False, 0, 0.0][i % 9],  # mixed types with zeros
        -0.0 if i == last else [np.float64(0.1), 1e-300, float("inf"), float("-inf"), None][i % 5],
        [1, 1.0, True, None, "\r", "a,b", np.float64(2.5), float("nan")][i % 8],
        float(i),  # 0.0 in the first block only
        f"r{i % 3}\r",
        [True, None, False][i % 3],
        [2**53 + 1, None, 0, -(2**63), 10**30 + i][i % 5],  # beyond a float's exact integers
        ["", None, 'say "hi"', "a,b", "null", "\u00e9"][i % 6],  # "" and None: one CSV text
        [1, True, 0, False][i % 4],  # equal as values, apart as texts
        [0.5, None, 1e300][i % 3],
    ]))


def test_writer_matches_the_encoders_across_blocks(tmp_path, capsys):
    rows = [_block_scale_row(i) for i in range(2 * cli._WRITE_BLOCK + 11)]
    cli._write_rows(tmp_path, "o", _BLOCK_COLUMNS, rows, "both")
    check_written_as_the_encoders_write(tmp_path, rows, _BLOCK_COLUMNS)
    assert capsys.readouterr().out.count("wrote ") == 2


def _block_scale_columns(rows):
    return {col: [row[col] for row in rows] for col in _BLOCK_COLUMNS}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_one_block_is_joined_in_slices_of_write_block_rows(tmp_path, capsys, fmt):
    rows = [_block_scale_row(i) for i in range(2 * cli._WRITE_BLOCK + 11)]
    block = _block_scale_columns(rows)
    cli._write_columns(tmp_path, "o", _BLOCK_COLUMNS, [block], fmt)
    if fmt != "both":  # the other file, from the other format alone
        cli._write_columns(tmp_path, "o", _BLOCK_COLUMNS, [block], "json" if fmt == "csv" else "csv")
    check_written_as_the_encoders_write(tmp_path, rows, _BLOCK_COLUMNS)

    class Lines(io.StringIO):  # the line breaks of each write
        def write(self, text):
            self.counts.append(text.count("\n"))
            return super().write(text)

    csv_fh, json_fh = Lines(), Lines()
    csv_fh.counts, json_fh.counts = [], []
    cli._stream_columns(csv_fh, json_fh, _BLOCK_COLUMNS, [block])
    assert csv_fh.counts == [1, cli._WRITE_BLOCK, cli._WRITE_BLOCK, 11]  # the header first
    assert json_fh.counts == [cli._WRITE_BLOCK, cli._WRITE_BLOCK, 11, 2]  # "[\n" or ",\n" a row


def test_a_cell_list_given_again_in_the_next_block_is_formatted_once(tmp_path, capsys, monkeypatch):
    rows = [_block_scale_row(i) for i in range(2 * cli._WRITE_BLOCK + 11)]
    first = _block_scale_columns(rows)
    again = {col: cells if col == "int" else cells[::-1] for col, cells in first.items()}
    formatted = []
    column_texts = cli._column_texts
    monkeypatch.setattr(cli, "_column_texts",
                        lambda cells: formatted.append(cells) or column_texts(cells))
    cli._write_columns(tmp_path, "o", _BLOCK_COLUMNS, [first, again], "both")
    assert len(formatted) == 2 * len(_BLOCK_COLUMNS) - 1
    assert sum(cells is first["int"] for cells in formatted) == 1
    check_written_as_the_encoders_write(
        tmp_path, rows + [dict(zip(again, cells)) for cells in zip(*again.values())], _BLOCK_COLUMNS)


def check_written_as_the_encoders_write(out, rows, columns=_ORACLE_COLUMNS):
    """o.csv and o.json in out hold rows as csv.writer and json.dumps write them."""
    def cell(v):  # csv.writer's text, but a field with a lone "\r" is always quoted
        if isinstance(v, str) and "\r" in v:
            return '"' + v.replace('"', '""') + '"'
        if v is None or v == "":  # csv.writer quotes these only as a row's one field
            return ""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([v])
        return buf.getvalue()[:-1]

    expected = "".join(",".join(cell(v) for v in line) + "\n" for line in
                       [columns] + [[row[c] for c in columns] for row in rows])
    assert (out / "o.csv").read_bytes() == expected.encode("utf-8")
    with open(out / "o.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert records[0] == columns and len(records) == len(rows) + 1
    for row, record in zip(rows, records[1:]):
        assert all(text == row[c] for c, text in zip(columns, record)
                   if isinstance(row[c], str))
    lines = [json.dumps({c: None if isinstance(row[c], float) and not math.isfinite(row[c])
                         else row[c] for c in columns}, allow_nan=False)
             for row in rows]
    assert (out / "o.json").read_bytes() == \
        ("[\n" + ",\n".join(lines) + "\n]\n" if rows else "[]\n").encode("utf-8")


class _Unwritable:
    def __repr__(self):
        raise RuntimeError("no text for this cell")


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_a_failed_write_keeps_the_old_files_and_leaves_no_temp_file(tmp_path, capsys, fmt):
    old = {"x.csv": b"a,b\n0.5,old\n", "x.json": b'[\n{"a": 0.5, "b": "old"}\n]\n'}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    rows = [{"a": 0.25, "b": "new"}, {"a": _Unwritable(), "b": "new"}]
    with pytest.raises(TypeError):
        cli._write_rows(tmp_path, "x", ["a", "b"], rows, fmt)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sub", ["eval", "sweep"])
def test_sweep_and_eval_print_rows_by_status(tmp_path, capsys, sub):
    cfg = write_config(tmp_path, CONSISTENCY_CONFIG)
    out = tmp_path / sub
    assert cli_run([sub, "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / f"{sub}.csv")
    statuses = [r["status"].split(":")[0] for r in rows]
    unconverged = sum(r["converged"] == "False" for r in rows)
    assert (len(rows), statuses.count("ok"), statuses.count("divergent"),
            statuses.count("rejected"), unconverged) == (72, 37, 15, 20, 4)
    assert capsys.readouterr().out.splitlines()[0] == \
        f"{sub}: 72 rows, 37 ok, 15 divergent, 20 rejected; 4 not converged"


# floats that repeat across cells and key on their bits: both zeros, NaNs, infinities,
# the smallest subnormal, and values whose repr switches notation
_FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cells=st.lists(st.one_of(_FLOAT_CELLS, st.none()), min_size=1, max_size=40),
       as_np=st.booleans())
def test_float_columns_are_written_as_each_cell_alone(cells, as_np):
    """A float column's texts, as a list with None or a float64 array, are _texts of each cell."""
    expected = list(map(cli._texts, cells))
    if as_np:
        cells = [None if v is None else np.float64(v) for v in cells]
    assert list(zip(*cli._column_texts(cells))) == expected
    floats = [v for v in cells if v is not None]
    if floats:
        texts = cli._column_texts(np.array(floats, dtype=float))
        assert list(zip(*texts)) == list(map(cli._texts, floats))


_AXIS = st.lists(st.floats(0.0, 1.0) | st.just(-0.0), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=_AXIS, M=_AXIS, b=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3),
       theta=_AXIS, alpha=st.lists(st.floats(1e-9, 1.0, exclude_max=True), min_size=1, max_size=2))
def test_grid_columns_give_the_cells_and_factors_of_their_points(m, M, b, theta, alpha):
    """Parameter cells built from the grid's columns, and _batch's exponents, factors and
    growths, equal bit for bit those built from each point's HazardParams one row at a time."""
    grid = {"m": m, "M": M, "b": b, "theta": theta, "alpha": alpha, "N0": [2.5]}
    columns = cli.RunConfig.from_dict({"grid": grid}).grid
    points = [HazardParams(*p) for p in itertools.product(*grid.values())]
    cases = cli._DEFAULT_CASES + (known_extinction(3),)
    blocks = [cells for _, cells in analysis._factor_columns(columns, cases, prefix_len=1)]
    for key in points[0].cells():
        cells = np.concatenate([block[key] for block in blocks])
        expected = np.array([p.cells()[key] for p in points for _ in cases])
        assert np.array_equal(cells.view(np.int64), expected.view(np.int64)), key

    def power(x, e):  # _pow's Python float power, one cell at a time
        return 1.0 if e == 0.0 else x if e == 1.0 else x**e

    rows = _batch(columns, cases)
    exps, factor, growth = [], [], []
    for p in points:
        for case in cases:
            eM, eb, em = factor_exponents(case, p)
            births, deaths = ((power(p.gross_growth, eb), 1.0) if eb == em
                              else (power(1.0 + p.b, eb), power(1.0 - p.m, em)))
            exps.append((eM, eb, em))
            factor.append(power(1.0 - p.M, eM) * births * deaths)
            growth.append(births * deaths)
    for got, want in ((rows.exps, exps), (rows.factor, factor), (rows.growth, growth)):
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
