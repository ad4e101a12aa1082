"""End-to-end CLI behavior, run in-process through main(argv)."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probleak import (
    DEFAULT_TRUNCATED_CONFIG,
    Dataset,
    Evidence,
    ModelSpec,
    _text,
    fit_model,
    gen_truncated_regression,
    leakage_profile,
    load_dataset,
    regression,
    schemas,
)
from probleak._text import _json_text
from probleak.cli import _MAX_GRID_POINTS, main

# the domains that --grid and --grid-points name when they refuse a value
GRID_DOMAIN = f"name=lo:hi:count with finite lo < hi and 2 to {_MAX_GRID_POINTS} points"
GRID_POINTS_DOMAIN = f"an integer from 2 to {_MAX_GRID_POINTS}"

@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, 40)
    y = 0.2 + 0.3 * x + rng.normal(0.0, 0.5, 40)
    rows = ["y,x1"] + [f"{repr(float(yi))},{repr(float(xi))}" for yi, xi in zip(y, x)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture()
def cc_csv(tmp_path):
    path = tmp_path / "cc.csv"
    code = main(["simulate", "callcenter", "--out", str(path)])
    assert code == 0
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check(name, text):
    doc = json.loads(text)
    jsonschema.validate(doc, schemas.load(name))
    return doc


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("probleak ")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "leak-profile" in out


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert err != ""


def test_bad_support_string_is_usage_error(capsys, toy_csv):
    code, _, err = run(
        capsys,
        ["leak", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "bogus"],
    )
    assert code == 1
    assert "support" in err


def test_missing_file_is_data_error(capsys):
    code, _, err = run(
        capsys, ["fit", "--data", "/nonexistent.csv", "--response", "y"]
    )
    assert code == 2
    assert "probleak: error:" in err


def test_json_errors_flag_moves_error_to_stdout(capsys):
    code, out, err = run(
        capsys,
        ["fit", "--data", "/nonexistent.csv", "--response", "y", "--json-errors"],
    )
    assert code == 2
    assert err == ""
    check("error", out)


def test_a_cell_past_the_csv_field_limit_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("y,x1\n1.0,0." + "0" * csv.field_size_limit() + "1\n2.0,3.0\n")
    code, out, err = run(capsys, ["fit", "--data", str(path), "--response", "y"])
    assert (code, out) == (2, "")
    assert err.startswith("probleak: error: ") and "field larger than field limit" in err
    code, out, err = run(capsys, ["fit", "--data", str(path), "--response", "y", "--json-errors"])
    assert (code, err) == (2, "")
    assert "field larger than field limit" in check("error", out)["error"]


def _assert_unwritable_exits_two(capsys, argv, target):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("probleak: error: ") and str(target) in err
    code, out, err = run(capsys, [*argv, "--json-errors"])
    assert (code, err) == (2, "")
    assert str(target) in check("error", out)["error"]


def test_an_unwritable_out_file_is_an_error_not_a_traceback(capsys, toy_csv, tmp_path):
    target = tmp_path / "missing" / "fit.json"
    argv = ["fit", "--data", toy_csv, "--response", "y", "--out", str(target)]
    _assert_unwritable_exits_two(capsys, argv, target)


def test_an_unwritable_curves_file_is_an_error_not_a_traceback(capsys, toy_csv, tmp_path):
    target = tmp_path / "missing" / "curves.csv"
    argv = ["report", "--data", toy_csv, "--response", "y", "--support", "[0,inf)",
            "--out-curves", str(target)]
    _assert_unwritable_exits_two(capsys, argv, target)


def test_an_unwritable_calibrate_curve_leaves_stdout_one_json_value(capsys, toy_csv, tmp_path):
    # the curves are written before the document, so the error document is
    # the only thing on stdout
    prefix = tmp_path / "missing" / "cal"
    argv = ["calibrate", "--data", toy_csv, "--response", "y", "--covariates", "x1",
            "--holdout", "0.25", "--curves", str(prefix)]
    _assert_unwritable_exits_two(capsys, argv, prefix)


def test_a_directory_as_the_out_file_is_an_error_not_a_traceback(capsys, toy_csv, tmp_path):
    argv = ["fit", "--data", toy_csv, "--response", "y", "--out", str(tmp_path)]
    _assert_unwritable_exits_two(capsys, argv, tmp_path)


def test_model_error_exits_two(capsys, tmp_path):
    # n = p: no residual degrees of freedom
    path = tmp_path / "tiny.csv"
    path.write_text("y,x1\n1.0,0.0\n2.0,1.0\n")
    code, out, _ = run(
        capsys,
        ["fit", "--data", str(path), "--response", "y", "--covariates", "x1",
         "--json-errors"],
    )
    assert code == 2
    assert "posterior improper" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_summary_document(capsys, toy_csv):
    code, out, _ = run(
        capsys, ["fit", "--data", toy_csv, "--response", "y", "--covariates", "x1"]
    )
    assert code == 0
    doc = check("fit_summary", out)
    assert doc["n"] == 40
    assert doc["p"] == 2
    assert doc["df"] == 38
    assert set(doc["coefficients"]) == {"(intercept)", "x1"}
    assert doc["s2"] > 0.0


def test_fit_hand_values(capsys, tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text("y,x\n1.0,1.0\n1.0,2.0\n4.0,3.0\n")
    code, out, _ = run(
        capsys, ["fit", "--data", str(path), "--response", "y", "--covariates", "x"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["(intercept)"] == pytest.approx(-1.0, abs=1e-12)
    assert doc["coefficients"]["x"] == pytest.approx(1.5, abs=1e-12)
    assert doc["s2"] == pytest.approx(1.5, abs=1e-12)


def test_out_writes_file_and_keeps_stdout_quiet(capsys, toy_csv, tmp_path):
    out_path = tmp_path / "fit.json"
    code, out, _ = run(
        capsys,
        ["fit", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    check("fit_summary", out_path.read_text())


# ---------------------------------------------------------------------------
# leak
# ---------------------------------------------------------------------------


def test_leak_document_medians(capsys, toy_csv):
    code, out, _ = run(
        capsys,
        ["leak", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "[0,inf)"],
    )
    assert code == 0
    doc = check("leak_report", out)
    assert doc["at"] == "medians"
    assert len(doc["reports"]) == 1
    rep = doc["reports"][0]
    assert 0.0 < rep["leakage"] < 1.0
    assert rep["below_mass"] == rep["leakage"]
    assert rep["above_mass"] == 0.0


def test_leak_at_json_point(capsys, toy_csv):
    code, out, _ = run(
        capsys,
        ["leak", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "[0,inf)", "--at", '{"x1": 0.0}'],
    )
    assert code == 0
    doc = check("leak_report", out)
    assert doc["at"] == "point"
    assert doc["reports"][0]["x_star"] == {"x1": 0.0}


AT_COMMANDS = ["leak", "falsify", "report", "leak-profile"]


def at_argv(command, cc_csv, tmp_path, point, *extra):
    """A subcommand that takes a JSON --at point, with what else it needs."""
    needs = {
        "leak": ["--support", "[0,inf)"],
        "falsify": ["--value", "0.5"],
        "report": ["--support", "[0,inf)", "--out-curves", str(tmp_path / "curves.csv")],
        "leak-profile": ["--support", "[0,inf)", "--grid", "calls=0:3000:5"],
    }[command]
    model = ["--response", "abandonment", "--covariates", "calls,absentees,location"]
    return [command, "--data", cc_csv, *model, *needs, "--at", point, *extra]


@pytest.mark.parametrize("bad", ["null", '"abc"', "[1, 2]", "1e400", "true", "false", '"3"'])
@pytest.mark.parametrize("command", AT_COMMANDS)
def test_at_value_that_is_no_finite_number_is_a_model_error(capsys, cc_csv, tmp_path, command, bad):
    # a JSON bool or numeric string is no number, though float() takes both;
    # leak names its point as falsify does
    point = '{"calls": 1500.0, "absentees": %s, "location": "B"}' % bad
    label = {"report": "at_point", "leak-profile": "grid point"}.get(command, "point")
    want = f"{label} 0: covariate 'absentees' needs a finite number, got "
    code, out, err = run(capsys, at_argv(command, cc_csv, tmp_path, point))
    assert (code, out) == (2, "")
    assert err.startswith("probleak: error: " + want)
    code, out, err = run(capsys, at_argv(command, cc_csv, tmp_path, point, "--json-errors"))
    assert (code, err) == (2, "")
    assert json.loads(out)["error"].startswith(want)


@pytest.mark.parametrize("bad", ["null", '"abc"', "[1, 2]", "1e400", "true", '"3"'])
def test_leak_profile_refuses_a_bad_at_value_for_the_grid_covariate(capsys, cc_csv, tmp_path, bad):
    point = '{"calls": %s, "absentees": 5.0, "location": "B"}' % bad
    code, out, err = run(capsys, at_argv("leak-profile", cc_csv, tmp_path, point))
    assert (code, out) == (2, "")
    assert err.startswith("probleak: error: ")
    assert "covariate 'calls' needs a finite number, got " in err


def test_leak_profile_grid_replaces_a_valid_at_value(capsys, cc_csv, tmp_path):
    outputs = []
    for point in ['{"calls": 1500.0, "absentees": 5.0, "location": "B"}',
                  '{"absentees": 5.0, "location": "B"}']:
        code, out, err = run(capsys, at_argv("leak-profile", cc_csv, tmp_path, point))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert out.startswith("calls,leakage\n0.0,")


@pytest.mark.parametrize("command", AT_COMMANDS)
def test_at_names_outside_the_covariates_are_a_model_error(capsys, cc_csv, tmp_path, command):
    point = '{"calls": 1500.0, "absentees": 5.0, "location": "B", "bogus": 1}'
    code, out, _ = run(capsys, at_argv(command, cc_csv, tmp_path, point, "--json-errors"))
    assert code == 2
    assert json.loads(out) == {"error": "unknown covariate(s) in --at point: ['bogus']"}


@pytest.mark.parametrize("value", ["1e200", "-1e308"])
@pytest.mark.parametrize("command", AT_COMMANDS)
def test_an_at_point_too_large_for_the_fit_is_a_model_error(capsys, cc_csv, tmp_path, command, value):
    # the predictive's leverage overflows: an error document, no numpy warning, no traceback
    point = f'{{"calls": 1500.0, "absentees": {value}, "location": "B"}}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, at_argv(command, cc_csv, tmp_path, point, "--json-errors"))
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "covariates too large for the fit: a predictive is not finite"}
    assert not (tmp_path / "curves.csv").exists()


def test_at_point_values_echo_with_their_own_json_text(capsys, tmp_path):
    rng = np.random.default_rng(4)
    columns = {name: rng.normal(size=30) for name in ("y", "a", "b", "c")}
    path = tmp_path / "mixed.csv"
    Dataset({**columns, "site": np.array(["A", "B"] * 15)}).to_csv(path)
    point = '{"a": 3, "b": 2.5, "c": 1e-05, "site": "B"}'
    code, out, _ = run(capsys, ["leak", "--data", str(path), "--response", "y", "--covariates",
                                "a,b,c,site", "--support", "[0,inf)", "--at", point])
    assert code == 0
    assert json.dumps(json.loads(out)["reports"][0]["x_star"]) == point
    assert '"a": 3,' in out and '"c": 1e-05' in out
    # the library gives x_star entries as Python scalars, so json needs no default
    result = fit_model(load_dataset(path), ModelSpec("y", ("a", "b", "c", "site")))
    profile = leakage_profile(result, Evidence.interval(0.0, np.inf), {
        "a": np.array([3, 4]), "b": np.array([2.5, 1.0]),
        "c": np.array([1e-05, 0.5]), "site": np.array(["B", "A"]),
    })
    for report in profile:
        assert [type(v) for v in report.x_star.values()] == [int, float, float, str]
    assert json.dumps(profile[0].x_star) == point


def test_intercept_only_model_scores_its_one_empty_point(capsys, toy_csv, tmp_path):
    model = ["--data", toy_csv, "--response", "y", "--support", "[0,inf)"]
    code, out, _ = run(capsys, ["leak", *model, "--at", "minima"])
    assert code == 0
    assert [r["x_star"] for r in json.loads(out)["reports"]] == [{}]
    code, out, _ = run(capsys, ["report", *model, "--at", "{}", "--out-curves", str(tmp_path / "c.csv")])
    assert code == 0
    leak = json.loads(out)["leakage"]
    for key in ("at_medians", "at_minima", "at_point"):
        assert leak[key] == [{**leak["null_x"], "x_star": {}}]
    code, out, _ = run(capsys, ["falsify", "--data", toy_csv, "--response", "y", "--value", "0.5"])
    assert (code, json.loads(out)["falsified"]) == (0, True)


def test_leak_categorical_expands_levels(capsys, cc_csv):
    code, out, _ = run(
        capsys,
        ["leak", "--data", cc_csv, "--response", "abandonment",
         "--covariates", "calls,absentees,location", "--support", "[0,inf)",
         "--at", "minima"],
    )
    assert code == 0
    doc = check("leak_report", out)
    assert [r["x_star"]["location"] for r in doc["reports"]] == ["A", "B"]


# ---------------------------------------------------------------------------
# leak-profile
# ---------------------------------------------------------------------------


def test_leak_profile_csv(capsys, toy_csv):
    code, out, _ = run(
        capsys,
        ["leak-profile", "--data", toy_csv, "--response", "y",
         "--covariates", "x1", "--support", "[0,inf)",
         "--grid", "x1=0:1:11"],
    )
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["x1", "leakage"]
    assert len(rows) == 12
    xs = [float(r[0]) for r in rows[1:]]
    assert xs == pytest.approx(list(np.linspace(0, 1, 11)))
    leaks = [float(r[1]) for r in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in leaks)


def test_leak_profile_bad_grid_is_usage_error(capsys, toy_csv):
    code, _, err = run(
        capsys,
        ["leak-profile", "--data", toy_csv, "--response", "y",
         "--covariates", "x1", "--support", "[0,inf)", "--grid", "x1=0-1-5"],
    )
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("grid", ["x1=0:inf:5", "x1=-inf:0:5", "x1=-1e308:1e308:3"])
def test_leak_profile_grid_without_a_finite_span_is_usage_error(capsys, toy_csv, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys,
            ["leak-profile", "--data", toy_csv, "--response", "y",
             "--covariates", "x1", "--support", "[0,inf)", "--grid", grid],
        )
    assert code == 1 and out == ""
    assert f"argument --grid: expected {GRID_DOMAIN}, got '{grid}'" in err


def test_leak_profile_unpinned_categorical_is_usage_error(capsys, cc_csv):
    code, _, err = run(
        capsys,
        ["leak-profile", "--data", cc_csv, "--response", "abandonment",
         "--covariates", "calls,absentees,location", "--support", "[0,inf)",
         "--grid", "calls=200:2900:5"],
    )
    assert code == 1
    assert "location" in err


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------


def test_falsify_point_mode_continuous_always(capsys, toy_csv):
    # a continuous predictive puts probability exactly zero on every point,
    # so the strict rule falsifies it on any exact observation
    code, out, _ = run(
        capsys,
        ["falsify", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--value", "-0.5"],
    )
    assert code == 0
    doc = check("falsification_verdict", out)
    assert doc["falsified"] is True
    assert doc["mode"] == "point_event"
    assert doc["witness"]["value"] == -0.5


def test_falsify_interval_mode(capsys, toy_csv):
    code, out, _ = run(
        capsys,
        ["falsify", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--value", "-0.5", "--mode", "interval", "--resolution", "0.1"],
    )
    assert code == 0
    doc = check("falsification_verdict", out)
    assert doc["mode"] == "interval_event"
    assert doc["falsified"] is False  # t tail is positive on [-0.55, -0.45]


def test_falsify_interval_without_resolution_is_usage_error(capsys, toy_csv):
    code, _, err = run(
        capsys,
        ["falsify", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--value", "-0.5", "--mode", "interval"],
    )
    assert code == 1
    assert "resolution" in err


@pytest.mark.parametrize(
    "extra",
    [["--mode", "interval", "--resolution", "0"], ["--resolution", "-1"],
     ["--mode", "interval", "--resolution", "inf"]],
)
def test_falsify_nonpositive_resolution_is_usage_error(capsys, toy_csv, extra):
    code, out, err = run(
        capsys,
        ["falsify", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--value", "-0.5", *extra],
    )
    assert code == 1 and out == ""
    assert f"argument --resolution: expected a positive finite number, got '{extra[-1]}'" in err


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_document_and_curves(capsys, tmp_path):
    data = tmp_path / "sim.csv"
    assert main(["simulate", "truncated", "--out", str(data)]) == 0
    prefix = str(tmp_path / "cal")
    code, out, _ = run(
        capsys,
        ["calibrate", "--data", str(data), "--response", "y",
         "--covariates", "x1", "--holdout", "0.25", "--curves", prefix],
    )
    assert code == 0
    doc = check("calibration_report", out)
    assert doc["holdout_fraction"] == 0.25
    assert doc["n_train"] == 1500
    assert doc["n_holdout"] == 500
    assert len(doc["pit_values"]) == 500
    assert doc["seed"] == 0
    for kind in ("probability", "exceedance", "marginal"):
        text = (tmp_path / f"cal_{kind}.csv").read_text()
        assert len(text.strip().splitlines()) > 1


def test_calibrate_reports_a_null_crps_where_the_t_has_no_mean(capsys, tmp_path):
    # two training rows and an intercept leave df = 1: the t has no finite
    # mean, so no CRPS, and every other diagnostic is still reported
    data = tmp_path / "three.csv"
    data.write_text("y\n1.0\n2.5\n4.0\n")
    code, out, err = run(
        capsys, ["calibrate", "--data", str(data), "--response", "y", "--holdout", "0.34"]
    )
    assert code == 0, err
    doc = check("calibration_report", out)
    assert (doc["n_train"], doc["n_holdout"]) == (2, 1)
    assert doc["mean_crps"] is None
    assert len(doc["pit_values"]) == 1


def test_report_reports_a_null_crps_where_the_t_has_no_mean(capsys, tmp_path):
    # three rows and two coefficients leave df = 1: the CRPS is undefined,
    # and the leakage audit and every other section are still written
    data = tmp_path / "three.csv"
    data.write_text("y,x\n1,0.5\n2,0.7\n3,0.1\n")
    code, out, err = run(
        capsys,
        ["report", "--data", str(data), "--response", "y", "--covariates", "x",
         "--support", "[0,inf)", "--out-curves", str(tmp_path / "curves.csv")],
    )
    assert code == 0, err
    doc = check("audit_report", out)
    assert doc["model"]["df"] == 1
    assert doc["calibration"]["mean_crps"] is None
    assert set(doc["leakage"]) == {"null_x", "at_medians", "at_minima"}


def test_calibrate_seed_changes_split(capsys, toy_csv):
    _, out_a, _ = run(
        capsys,
        ["calibrate", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--holdout", "0.3"],
    )
    _, out_a2, _ = run(
        capsys,
        ["calibrate", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--holdout", "0.3"],
    )
    _, out_b, _ = run(
        capsys,
        ["calibrate", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--holdout", "0.3", "--seed", "7"],
    )
    assert out_a == out_a2
    assert json.loads(out_a)["pit_values"] != json.loads(out_b)["pit_values"]


def test_calibrate_holdout_bounds(capsys, toy_csv):
    for frac in ("0", "1", "-0.2"):
        code, _, err = run(
            capsys,
            ["calibrate", "--data", toy_csv, "--response", "y",
             "--covariates", "x1", "--holdout", frac],
        )
        assert code == 1
        assert "holdout" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_truncated_csv(capsys):
    code, out, _ = run(capsys, ["simulate", "truncated"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "y,x1"
    assert len(rows) == 2001
    ys = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert ys.min() >= 0.0


def test_simulate_seed_override_changes_data(capsys):
    _, out_a, _ = run(capsys, ["simulate", "truncated"])
    _, out_b, _ = run(capsys, ["simulate", "truncated", "--seed", "5"])
    _, out_b2, _ = run(capsys, ["simulate", "truncated", "--seed", "5"])
    assert out_a != out_b
    assert out_b == out_b2


def test_simulate_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "seed": 4}))
    code, out, _ = run(capsys, ["simulate", "truncated", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 26


def test_simulate_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, out, _ = run(
        capsys, ["simulate", "truncated", "--config", str(cfg), "--json-errors"]
    )
    assert code == 2
    assert "bogus" in json.loads(out)["error"]


def simulate_with(capsys, tmp_path, kind, doc, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run(capsys, ["simulate", kind, "--config", str(cfg), *extra])


# sha256 of the CSV each config writes to stdout: the tables are part of the contract
@pytest.mark.parametrize(
    "kind, doc, extra, rows, digest",
    [
        ("callcenter", {"per_location_n": 12, "calls_range": [900, 2400], "y_floor": -2.5}, (), 25,
         "f64d68c863f46c388d2304b7cb0e57652c5182367d71309295a73b2c8f998821"),
        ("truncated", {"support_lower": None, "n": "600"}, (), 601,
         "f22feeca6c8d2c7001d01034d8d1ce1e51ff3c8141da1854dab133810adefd32"),
        ("truncated", {"support_lower": None, "n": 600.0}, (), 601,
         "f22feeca6c8d2c7001d01034d8d1ce1e51ff3c8141da1854dab133810adefd32"),
        ("truncated", {"n": 40, "seed": 4}, ("--seed", "9"), 41,
         "59af5ccdc33e963309fc9d5970fbfad16ec40d6429396542015a4ad80ed634ba"),
    ],
)
def test_simulate_config_values_convert_to_the_field_types(capsys, tmp_path, kind, doc, extra, rows, digest):
    code, out, err = simulate_with(capsys, tmp_path, kind, doc, *extra)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_config_null_support_lower_means_no_floor(capsys, tmp_path):
    _, out, _ = simulate_with(capsys, tmp_path, "truncated", {"support_lower": None, "n": 600})
    ys = np.array([float(r.split(",")[0]) for r in out.splitlines()[1:]])
    assert ys.min() < 0.0


def test_simulate_seed_flag_overrides_the_config_seed(capsys, tmp_path):
    _, seeded, _ = simulate_with(capsys, tmp_path, "truncated", {"n": 40, "seed": 9})
    _, overridden, _ = simulate_with(capsys, tmp_path, "truncated", {"n": 40, "seed": 4}, "--seed", "9")
    assert overridden == seeded


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("truncated", {"coefficients": 3}, "bad simulate config: 'int' object is not iterable"),
        ("callcenter", {"per_location_n": 10, "noise_sd": 1.0}, "unknown simulate config keys: ['noise_sd']"),
    ],
)
def test_simulate_bad_config_is_a_data_error(capsys, tmp_path, kind, doc, message):
    code, out, err = simulate_with(capsys, tmp_path, kind, doc)
    assert (code, out, err) == (2, "", f"probleak: error: {message}\n")


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("truncated", {"seed": -1}, "seed must be a non-negative integer, got -1"),
        ("callcenter", {"seed": -7}, "seed must be a non-negative integer, got -7"),
        ("truncated", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("truncated", {"n": 2.7}, "n must be an integer, got 2.7"),
        ("truncated", {"n": math.inf}, "n must be an integer, got inf"),
        ("callcenter", {"per_location_n": 52.5}, "per_location_n must be an integer, got 52.5"),
    ],
)
def test_simulate_config_refuses_what_int_would_truncate_or_numpy_refuse(capsys, tmp_path, kind, doc, message):
    code, out, err = simulate_with(capsys, tmp_path, kind, doc)
    assert (code, out, err) == (2, "", f"probleak: error: bad simulate config: {message}\n")


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("truncated", {"n": 1e15}, "simulate writes at most 10000000 cells, got 2000000000000000"),
        ("callcenter", {"per_location_n": 1e15},
         "simulate writes at most 10000000 cells, got 8000000000000000"),
        ("truncated", {"covariate_ranges": [[-1e308, 1e308]]},
         "bad simulate config: malformed covariate range (-1e+308, 1e+308)"),
        ("truncated", {"support_lower": math.nan},
         "bad simulate config: support_lower must be a number or -inf, got nan"),
        ("truncated", {"noise_sd": 1e308, "coefficients": [1e308, 1e308]},
         "simulated values are not finite: the config's scales overflow float64"),
    ],
)
def test_simulate_config_outside_its_domain_is_a_data_error(capsys, tmp_path, kind, doc, message):
    # no MemoryError or OverflowError traceback, no numpy warning, and no
    # table written that load_dataset would refuse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = simulate_with(capsys, tmp_path, kind, doc)
    assert (code, out, err) == (2, "", f"probleak: error: {message}\n")


def test_simulate_config_takes_an_integral_float_as_its_integer(capsys, tmp_path):
    _, as_int, _ = simulate_with(capsys, tmp_path, "truncated", {"n": 40, "seed": 9})
    _, as_float, _ = simulate_with(capsys, tmp_path, "truncated", {"n": 40.0, "seed": 9.0})
    assert as_float == as_int and len(as_int.splitlines()) == 41


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_document_and_curves(capsys, cc_csv, tmp_path):
    curves = tmp_path / "curves.csv"
    code, out, _ = run(
        capsys,
        ["report", "--data", cc_csv, "--response", "abandonment",
         "--covariates", "calls,absentees,location", "--support", "[0,inf)",
         "--out-curves", str(curves)],
    )
    assert code == 0
    doc = check("audit_report", out)
    assert doc["model"]["n"] == 104
    assert 0.0 < doc["leakage"]["null_x"]["leakage"] < 1.0
    med = doc["leakage"]["at_medians"]
    assert [r["x_star"]["location"] for r in med] == ["A", "B"]
    # point mode: the continuous predictive is falsified by the first
    # training observation it sees
    assert doc["falsification"]["falsified"] is True
    assert "witness" in doc["falsification"]
    assert doc["calibration"]["n_cases"] == 104
    assert doc["curves_file"] == str(curves)

    rows = list(csv.reader(curves.read_text().strip().splitlines()))
    header = rows[0]
    assert header[0] == "y" and header[-1] == "marker"
    assert "density_null" in header
    ys = [float(r[0]) for r in rows[1:]]
    assert ys == sorted(ys)
    markers = [r[-1] for r in rows[1:]]
    assert markers.count("support_bound") == 1
    bound_row = rows[1 + markers.index("support_bound")]
    assert float(bound_row[0]) == 0.0


def test_report_curve_header_quotes_levels_with_a_delimiter_or_a_quote(capsys, tmp_path):
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 2.0, 30)
    site = np.array(["A,1", 'B"2'] * 15, dtype=object)
    y = 1.0 + 0.5 * x + (site == "A,1") + rng.normal(0.0, 0.4, 30)
    data = tmp_path / "sites.csv"
    Dataset({"y": y, "x": x, "site": site}).to_csv(data)
    curves = tmp_path / "curves.csv"
    code, _, err = run(
        capsys,
        ["report", "--data", str(data), "--response", "y", "--covariates", "x,site",
         "--support", "[0,inf)", "--out-curves", str(curves), "--grid-points", "11"],
    )
    assert code == 0, err
    with open(curves, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["y", "density_null", "density_A,1", 'density_B"2', "marker"]
    assert {len(row) for row in rows} == {5}


# covariate names that csv quotes (a leading and an embedded quote) and one
# that is not ASCII, the last categorical with levels that csv quotes too
_AWKWARD = ['"lead', 'mid"dle', "größe"]
_AWKWARD_LEVELS = ['"Zürich', 'B"2']


@pytest.fixture()
def awkward_csv(tmp_path):
    rng = np.random.default_rng(23)
    a, b = rng.uniform(0.0, 2.0, 40), rng.uniform(-1.0, 1.0, 40)
    level = np.array(_AWKWARD_LEVELS * 20)
    y = 1.0 + 0.5 * a - 0.3 * b + (level == _AWKWARD_LEVELS[1]) + rng.normal(0.0, 0.4, 40)
    path = tmp_path / "awkward.csv"
    Dataset(dict(zip(["y", *_AWKWARD], [y, a, b, level]))).to_csv(path)
    return str(path)


def _read_back(path):
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert {len(row) for row in rows} == {len(header)}
    return header, rows


def _float_cells(rows, width):
    # every cell of the first ``width`` columns, checked to be its value's repr
    cells = [row[:width] for row in rows]
    for row in cells:
        assert row == [repr(float(cell)) for cell in row]
    return np.array(cells, dtype=float)


def test_leak_profile_csv_reads_back_names_that_csv_quotes(capsys, awkward_csv, tmp_path):
    out = tmp_path / "profile.csv"
    at = json.dumps({"größe": _AWKWARD_LEVELS[1]})
    code, _, err = run(
        capsys,
        ["leak-profile", "--data", awkward_csv, "--response", "y",
         "--covariates", ",".join(_AWKWARD), "--support", "[0,inf)",
         "--grid", '"lead=0:2:5', "--at", at, "--out", str(out)],
    )
    assert code == 0, err
    header, rows = _read_back(out)
    assert header == ['"lead', "leakage"]
    data = load_dataset(awkward_csv)
    fit = fit_model(data, ModelSpec("y", tuple(_AWKWARD)))
    grid = np.linspace(0.0, 2.0, 5)
    columns = {
        '"lead': grid,
        'mid"dle': np.full(5, np.median(data.column('mid"dle'))),
        "größe": np.repeat(_AWKWARD_LEVELS[1], 5),
    }
    want = leakage_profile(fit, Evidence.interval(0.0, np.inf), columns).leakage
    assert rows == [[repr(x), repr(v)] for x, v in zip(grid.tolist(), want.tolist())]


def test_report_curves_read_back_levels_that_csv_quotes(capsys, awkward_csv, tmp_path):
    curves = tmp_path / "curves.csv"
    code, _, err = run(
        capsys,
        ["report", "--data", awkward_csv, "--response", "y", "--covariates", ",".join(_AWKWARD),
         "--support", "[0,inf)", "--out-curves", str(curves), "--grid-points", "51"],
    )
    assert code == 0, err
    header, rows = _read_back(curves)
    labels = [f"density_{level}" for level in sorted(_AWKWARD_LEVELS)]
    assert header == ["y", "density_null", *labels, "marker"]
    values = _float_cells(rows, 4)
    assert [(y, row[4]) for y, row in zip(values[:, 0], rows) if row[4]] == [(0.0, "support_bound")]


def test_calibrate_curves_read_back_as_the_document_gives_them(capsys, awkward_csv, tmp_path):
    prefix = str(tmp_path / "cal")
    code, out, err = run(
        capsys,
        ["calibrate", "--data", awkward_csv, "--response", "y", "--covariates", ",".join(_AWKWARD),
         "--holdout", "0.25", "--curves", prefix],
    )
    assert code == 0, err
    doc = json.loads(out)
    names = {
        "probability": ["p", "frequency"],
        "exceedance": ["y", "mean_pooled_quantile"],
        "marginal": ["y", "mean_predictive_cdf", "pooled_empirical_cdf"],
    }
    for which, want in names.items():
        header, rows = _read_back(f"{prefix}_{which}.csv")
        assert header == want
        assert rows == [list(map(repr, row)) for row in doc[f"{which}_curve"]], which


def test_simulate_csv_reads_back_every_generated_value(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    code, _, err = run(capsys, ["simulate", "truncated", "--seed", "3", "--out", str(out)])
    assert code == 0, err
    header, rows = _read_back(out)
    table = gen_truncated_regression(dataclasses.replace(DEFAULT_TRUNCATED_CONFIG, seed=3))
    assert header == list(table.names)
    values = _float_cells(rows, len(header))
    assert np.array_equal(values, np.column_stack(list(table.columns.values())))


@pytest.mark.parametrize(
    "flag, value",
    [("--resolution", "-1"), ("--resolution", "0"), ("--resolution", "inf"),
     ("--grid-points", "-5"), ("--grid-points", "0"), ("--grid-points", "1")],
)
def test_report_bad_resolution_or_grid_points_is_usage_error(
    capsys, toy_csv, tmp_path, flag, value
):
    curves = tmp_path / "curves.csv"
    code, out, err = run(
        capsys,
        ["report", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "[0,inf)", "--out-curves", str(curves), flag, value],
    )
    rule = {"--resolution": "a positive finite number", "--grid-points": GRID_POINTS_DOMAIN}
    assert code == 1 and out == ""
    assert f"argument {flag}: expected {rule[flag]}, got '{value}'" in err
    assert not curves.exists()


def test_grid_sizes_past_the_cap_are_usage_errors(capsys, toy_csv, tmp_path):
    out = tmp_path / "profile.csv"
    code, _, err = run(
        capsys,
        ["leak-profile", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "[0,inf)", "--grid", f"x1=0:1:{_MAX_GRID_POINTS + 1}", "--out", str(out)],
    )
    assert code == 1 and f"argument --grid: expected {GRID_DOMAIN}, got " in err
    assert not out.exists()
    curves, doc = tmp_path / "curves.csv", tmp_path / "report.json"
    code, _, err = run(
        capsys,
        ["report", "--data", toy_csv, "--response", "y", "--covariates", "x1",
         "--support", "[0,inf)", "--out-curves", str(curves), "--out", str(doc),
         "--grid-points", str(_MAX_GRID_POINTS + 1)],
    )
    assert code == 1 and f"argument --grid-points: expected {GRID_POINTS_DOMAIN}, got " in err
    assert not curves.exists() and not doc.exists()


def _argv_with(command, data, tmp_path, flag, value):
    """``command`` with a valid value for each option it requires, then
    ``flag`` given ``value``, which argparse takes over an earlier one."""
    model = ["--data", data, "--response", "y", "--covariates", "x1"]
    needs = {
        "leak": [*model, "--support", "[0,inf)"],
        "leak-profile": [*model, "--support", "[0,inf)", "--grid", "x1=0:1:5"],
        "falsify": [*model, "--value", "0.5"],
        "calibrate": [*model, "--holdout", "0.25"],
        "simulate": ["truncated", "--config", data],
        "report": [*model, "--support", "[0,inf)", "--out-curves", str(tmp_path / "curves.csv")],
    }[command]
    return [command, *needs, "--out", str(tmp_path / "out"), flag, value]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("leak", "--support", "[inf,inf]"),
        ("leak", "--at", "[1, 2]"),
        ("leak-profile", "--support", "bogus"),
        ("leak-profile", "--grid", "x1=0:1:2001000000"),
        ("leak-profile", "--grid", "x1=-1e308:1e308:3"),
        ("leak-profile", "--at", "medians"),
        ("falsify", "--value", "nan"),
        ("falsify", "--resolution", "0"),
        ("falsify", "--at", "{"),
        ("calibrate", "--holdout", "1"),
        ("calibrate", "--seed", "-1"),
        ("simulate", "--seed", "1.5"),
        ("report", "--support", "(-inf,-inf)"),
        ("report", "--grid-points", "1"),
        ("report", "--at", "minima"),
        ("report", "--resolution", "inf"),
        ("report", "--seed", "seven"),
    ],
)
def test_a_value_outside_its_domain_is_refused_before_the_data_are_read(capsys, tmp_path, command, flag, value):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, _argv_with(command, missing, tmp_path, flag, value))
    assert (code, out) == (1, "")
    assert f"argument {flag}: expected " in err and f", got {value!r}" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("support", ["[inf,inf]", "(-inf,-inf)", "[inf,-inf]"])
def test_evidence_with_no_real_point_is_a_usage_error(capsys, toy_csv, support):
    # every outcome is impossible under such evidence: refused, not scored 0
    code, out, err = run(
        capsys,
        ["leak", "--data", toy_csv, "--response", "y", "--covariates", "x1", "--support", support],
    )
    assert (code, out) == (1, "")
    assert f"argument --support: expected a support such as [0,inf) or lattice(0,inf,1), got {support!r}" in err


def test_report_pipeline_is_deterministic(capsys, tmp_path):
    outputs = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.csv"
        assert main(["simulate", "truncated", "--out", str(data)]) == 0
        code, out, _ = run(
            capsys,
            ["leak", "--data", str(data), "--response", "y",
             "--covariates", "x1", "--support", "[0,inf)", "--at",
             '{"x1": 1.0}'],
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# --seed
# ---------------------------------------------------------------------------


def _seeded_argv(command, data, tmp_path, seed):
    model = ["--data", data, "--response", "y", "--covariates", "x1"]
    return {
        "report": ["report", *model, "--support", "[0,inf)",
                   "--out-curves", str(tmp_path / "curves.csv")],
        "calibrate": ["calibrate", *model, "--holdout", "0.25"],
        "simulate": ["simulate", "truncated"],
    }[command] + ["--seed", seed]


@pytest.mark.parametrize("command", ["report", "calibrate", "simulate"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
def test_a_seed_that_is_no_non_negative_integer_is_a_usage_error(capsys, toy_csv, tmp_path, command, seed):
    code, out, err = run(capsys, _seeded_argv(command, toy_csv, tmp_path, seed))
    assert (code, out) == (1, "")
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in err


@pytest.mark.parametrize("command", ["report", "calibrate", "simulate"])
def test_a_seed_past_64_bits_still_seeds(capsys, toy_csv, tmp_path, command):
    seed = 2**70 + 3
    code, out, err = run(capsys, _seeded_argv(command, toy_csv, tmp_path, str(seed)))
    assert code == 0, err
    if command == "report":
        assert json.loads(out)["calibration"]["seed"] == seed
    elif command == "calibrate":
        assert check("calibration_report", out)["seed"] == seed
    else:
        assert out.startswith("y,x1\r\n")


# ---------------------------------------------------------------------------
# output files: rewritten in place
# ---------------------------------------------------------------------------


def _report_argv(data, out, curves):
    return ["report", "--data", data, "--response", "y", "--covariates", "x1",
            "--support", "[0,inf)", "--out-curves", str(curves), "--out", str(out)]


@pytest.mark.parametrize("old", [b"", b"{}", b"x" * 10**6], ids=["empty", "shorter", "longer"])
def test_outputs_over_an_old_file_equal_a_fresh_run(capsys, toy_csv, tmp_path, monkeypatch, old):
    # relative names, so that the curves_file the report echoes is the same
    written = {}
    for run_dir, stale in (("fresh", None), ("over", old)):
        work = tmp_path / run_dir
        work.mkdir()
        monkeypatch.chdir(work)
        names = ("a.json", "c.csv", "s.csv")
        if stale is not None:
            for name in names:
                Path(name).write_bytes(stale)
        assert main(_report_argv(toy_csv, "a.json", "c.csv")) == 0
        assert main(["simulate", "truncated", "--out", "s.csv"]) == 0
        written[run_dir] = [Path(name).read_bytes() for name in names]
    assert written["over"] == written["fresh"]


def test_an_out_file_behind_a_symlink_is_written_through(capsys, toy_csv, tmp_path):
    real = tmp_path / "real.json"
    real.write_text("stale " * 1000)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert main(["fit", "--data", toy_csv, "--response", "y", "--out", str(link)]) == 0
    assert link.is_symlink()
    check("fit_summary", real.read_text())


def test_dev_null_is_an_output_file(capsys, toy_csv):
    # a character device is written but not truncated, which it refuses
    assert main(["fit", "--data", toy_csv, "--response", "y", "--out", os.devnull]) == 0
    assert main(["simulate", "truncated", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_an_existing_out_file_keeps_its_mode_and_a_new_one_gets_open_w_mode(capsys, toy_csv, tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("stale")
    kept.chmod(0o640)
    assert main(["fit", "--data", toy_csv, "--response", "y", "--out", str(kept)]) == 0
    assert kept.stat().st_mode & 0o777 == 0o640
    new, plain = tmp_path / "new.json", tmp_path / "plain.json"
    assert main(["fit", "--data", toy_csv, "--response", "y", "--out", str(new)]) == 0
    with open(plain, "w"):
        pass
    assert new.stat().st_mode == plain.stat().st_mode


def test_a_write_that_raises_leaves_only_what_it_wrote(tmp_path, monkeypatch):
    n = 3 * regression._BLOCK_ROWS
    table = Dataset({"y": np.arange(n) / 7.0, "x": np.arange(n) * 1e-5})
    expected = tmp_path / "expected.csv"
    table.to_csv(expected)
    target = tmp_path / "t.csv"
    target.write_bytes(b"old bytes\r\n" * 10**5)  # longer than the new table
    formatted = []
    original = _text._csv_text

    def fails_on_the_third_call(*args):
        if len(formatted) == 2:  # the header and the first block went out
            raise RuntimeError("disk gone")
        formatted.append(original(*args))
        return formatted[-1]

    monkeypatch.setattr(_text, "_csv_text", fails_on_the_third_call)
    with pytest.raises(RuntimeError, match="disk gone"):
        table.to_csv(target)
    written = "".join(formatted).encode()
    assert target.read_bytes() == written
    assert expected.read_bytes().startswith(written) and len(written) < expected.stat().st_size


# ---------------------------------------------------------------------------
# JSON text: json.dumps(doc, indent=2)'s bytes, from orjson
# ---------------------------------------------------------------------------


def _bits_to_float(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_json_floats = st.one_of(
    # each layout class of repr's and orjson's: the band orjson writes out in
    # full, the small and the large exponents, signed zero and subnormals,
    # then any 64-bit pattern, NaN payloads and infinities among them
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(-1e-4, -1e-5, exclude_min=True),
    st.floats(-1e-5, 1e-5, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.just(-0.0),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.integers(0, 2**64 - 1).map(_bits_to_float),
)
_json_ints = st.one_of(
    st.integers(-(2**65), 2**65),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64)]),
)
_json_strings = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x08\x1f\n\r\t\x7e\x7f\x80é \U0001f600𐏿'),
        st.characters(exclude_categories=()),  # lone surrogates too
    ),
    max_size=8,
)
_json_docs = st.recursive(
    st.none() | st.booleans() | _json_floats | _json_ints | _json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_json_docs)
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf")], "none": None})
@example({"big": 2**64, "small": 1.23e-05, "exp": [1e-07, 1e16, -0.0, 5e-324]})
def test_json_text_is_json_dumps_indented(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "value", [["--value", "nan"], ["--value", "inf"], ["--value=-inf"]], ids=["nan", "inf", "-inf"]
)
def test_a_non_finite_falsify_value_is_a_usage_error(capsys, toy_csv, value):
    # no observation is NaN or infinite, and JSON has no token for either
    code, out, err = run(capsys, ["falsify", "--data", toy_csv, "--response", "y", *value])
    assert (code, out) == (1, "")
    text = value[-1].split("=")[-1]
    assert f"argument --value: expected a finite number, got '{text}'" in err


def test_no_default_document_takes_the_json_dumps_path(tmp_path, monkeypatch):
    # the tool pins BLAS threads in os.environ; teardown restores them, so that
    # later tests' subprocesses run as they would alone
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", Path(__file__).parents[1] / "tools" / "cli_outputs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    indented, dumps = [], json.dumps

    def spy(*args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    monkeypatch.chdir(tmp_path)  # the tool works in its output directory
    assert tool.write_outputs(tmp_path / "out") == 0
    assert indented == []
    configs = {"sim500.json", "sim20000.json"}  # the tool's own inputs
    documents = [p for p in (tmp_path / "out").glob("*.json") if p.name not in configs]
    assert len(documents) == 33
    for path in documents:
        text = path.read_text()
        assert text == dumps(json.loads(text), indent=2) + "\n", path.name


# ---------------------------------------------------------------------------
# every value option, fed values from the edges of its domain
# ---------------------------------------------------------------------------

# numbers as a user may type them: NaN, infinities, signed zeros, negatives,
# subnormals, the ends of float64, integers past 64 bits, and non-numbers
_NUMBER_TEXTS = [
    "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0", "0.0", "-0.0", "-1", "-2.5",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300", "1e308", "-1e308",
    "1.7976931348623157e308", "1e309", str(2**64 + 1), str(-(2**70)), "", " ", "abc",
    "1_0", "0x10", "1,2", "0.01", "0.25", "0.5", "1", "2", "7", "100",
]
_INTEGER_TEXTS = [
    "0", "1", "7", "-1", "-0", "1.5", "1e3", str(2**64 + 1), str(2**70), "abc", "", " 3 ",
    "nan", "inf", "1_000",
]
_GRID_POINT_TEXTS = ["2", "3", "50", "1", "0", "-5", "2.5", "1e3", "abc", "", "nan",
                     str(_MAX_GRID_POINTS + 1), str(2**70)]
_BOUND_TEXTS = ["0", "-1", "1", "-0.0", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "abc"]
_COUNT_TEXTS = ["2", "5", "1", "0", "-3", "1.5", "abc", str(_MAX_GRID_POINTS + 1), str(2**70)]
# JSON values for --at covariates and --config fields
_JSON_TEXTS = [
    "0", "-1", "1", "4", "40", "2.5", "0.5", "1e308", "-1e308", "5e-324", "1e400", "-1e400",
    "NaN", "Infinity", "-Infinity", "null", "true", '"abc"', '"600"', "[]", "[0, 1]",
    "[[0, 1]]", "[[-1e308, 1e308]]", "[[0, 1, 2]]", "[[0, 1], [2, 3]]", "[1e308, 1e308]",
    "[1, 0.5]", "[0, 1e300]", "[1.5, 4]", "{}", str(2**64 + 1), "10000000", "1" + "0" * 400,
]
_ODD_JSON = ["[]", "1", "null", '"medians"', "{", "", "Medians", "[" * 5000, '{"x1": ' * 2000,
             "1" * 5000, '{"x1": 1} {}']
_CONFIG_KEYS = ["n", "coefficients", "noise_sd", "covariate_ranges", "support_lower", "seed",
                "per_location_n", "calls_range", "absentee_range", "y_floor", "bogus"]

_numbers = st.sampled_from(_NUMBER_TEXTS)
_supports = st.one_of(
    st.sampled_from(["[0,inf)", "(-inf,inf)", "[-1,2]", "bogus", "", "[1 2]", "lattice(1,2)"]),
    st.builds("[{},{}]".format, st.sampled_from(_BOUND_TEXTS), st.sampled_from(_BOUND_TEXTS)),
    st.builds("lattice({},{},{})".format, *[st.sampled_from(_BOUND_TEXTS)] * 3),
)
_grids = st.one_of(
    st.sampled_from(["x1=0:1:5", "x1", "x1=0:1", "x1=0:1:2:3", "=0:1:5", "x1=0-1-5", ""]),
    st.builds("{}={}:{}:{}".format, st.sampled_from(["x1", " x1 ", "bogus", ""]),
              st.sampled_from(_BOUND_TEXTS), st.sampled_from(_BOUND_TEXTS),
              st.sampled_from(_COUNT_TEXTS)),
)
_at_objects = st.one_of(
    st.sampled_from(["{}", '{"x1": 0.5}', '{"x1": false}', '{"x1": "0.5"}', '{"bogus": 1}', *_ODD_JSON]),
    st.builds('{{"x1": {}}}'.format, st.sampled_from(_JSON_TEXTS)),
)
_at_any = st.one_of(st.sampled_from(["medians", "minima"]), _at_objects)
_configs = st.one_of(
    st.sampled_from(["{}", *_ODD_JSON, "\udcff"]),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_JSON_TEXTS), max_size=3).map(
        lambda doc: "{" + ", ".join(f'"{key}": {value}' for key, value in doc.items()) + "}"
    ),
)
# the value options of each subcommand, each with the texts it is fed
_VALUE_OPTIONS = {
    "fit": {},
    "leak": {"--support": _supports, "--at": _at_any},
    "leak-profile": {"--support": _supports, "--grid": _grids, "--at": _at_objects},
    "falsify": {"--value": _numbers, "--mode": st.sampled_from(["point", "interval"]),
                "--resolution": _numbers, "--at": _at_any},
    "calibrate": {"--holdout": _numbers, "--seed": st.sampled_from(_INTEGER_TEXTS)},
    "simulate": {"--seed": st.sampled_from(_INTEGER_TEXTS), "--config": _configs},
    "report": {"--support": _supports, "--grid-points": st.sampled_from(_GRID_POINT_TEXTS),
               "--at": _at_objects, "--resolution": _numbers,
               "--seed": st.sampled_from(_INTEGER_TEXTS)},
}
_JSON_COMMANDS = {"fit", "leak", "falsify", "calibrate", "report"}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _integer(text):
    try:
        return int(text)
    except ValueError:
        return None


def _json(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _support_in_domain(text):
    """The evidence holds a real number: [a,b] with a <= b, a < inf and
    b > -inf, or lattice(lo,hi,step) with finite lo <= hi and finite step > 0."""
    if text.startswith("lattice(") and text.endswith(")") and text.count(",") == 2:
        lo, hi, step = map(_number, text[8:-1].split(","))
        return math.isfinite(lo) and hi >= lo and 0.0 < step < math.inf
    if text[:1] in "[(" and text[-1:] in "])" and text.count(",") == 1:
        lo, hi = map(_number, text[1:-1].split(","))
        return lo <= hi and lo < math.inf and hi > -math.inf
    return False


def _at_in_domain(text):
    """medians, minima, or a JSON object whose every value is a number, not a
    bool, that is finite as a float."""
    if text in ("medians", "minima"):
        return True
    doc = _json(text)
    return isinstance(doc, dict) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(_number(str(v)))
        for v in doc.values()
    )


def _grid_in_domain(text):
    bounds = text.partition("=")[2].split(":")
    if len(bounds) != 3 or _integer(bounds[2]) is None:
        return False
    lo, hi = _number(bounds[0]), _number(bounds[1])
    return lo < hi and math.isfinite(hi - lo) and 2 <= _integer(bounds[2]) <= _MAX_GRID_POINTS


_IN_DOMAIN = {
    "--value": lambda text: math.isfinite(_number(text)),
    "--resolution": lambda text: 0.0 < _number(text) < math.inf,
    "--holdout": lambda text: 0.0 < _number(text) < 1.0,
    "--seed": lambda text: _integer(text) is not None and _integer(text) >= 0,
    "--grid-points": lambda text: 2 <= (_integer(text) or 0) <= _MAX_GRID_POINTS,
    "--grid": _grid_in_domain,
    "--support": _support_in_domain,
    "--at": _at_in_domain,
    "--config": lambda text: isinstance(_json(text), dict),
    "--mode": lambda text: True,
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["leak", "--support", "[0,1e308]"], 0),  # the t CDF at a bound past its range
        (["report", "--support", "[0,1e308]"], 0),  # and the density curve there
        (["falsify", "--value", "1e308", "--mode", "interval", "--resolution=1.7976931348623157e308"], 0),
        (["leak", "--support", "[0,inf)", "--at", '{"x1": 1%s}' % ("0" * 400)], 2),
    ],
    ids=["leak-support-1e308", "report-support-1e308", "falsify-window-past-1e308", "at-int-past-float64"],
)
def test_values_past_float64s_range_give_an_answer_or_an_error_not_a_warning(capsys, toy_csv, tmp_path, argv, code):
    # each of these ended in a numpy RuntimeWarning or an OverflowError traceback
    command, *rest = argv
    model = ["--data", toy_csv, "--response", "y", "--covariates", "x1"]
    curves = ["--out-curves", str(tmp_path / "curves.csv")] if command == "report" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, [command, *model, *rest, *curves])
    assert got == code, err
    if code == 2:
        assert out == "" and "covariate 'x1' needs a finite number, got 1000" in err


@pytest.fixture(scope="module")
def domain_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("domains")
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, 40)
    Dataset({"y": 0.2 + 0.3 * x + rng.normal(0.0, 0.5, 40), "x1": x}).to_csv(work / "toy.csv")
    return work


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_VALUE_OPTIONS)), st.booleans())
def test_every_value_option_keeps_to_its_domain(domain_dir, data, command, json_errors):
    # each option is left out or fed a text from the edges of its domain, and
    # the options a subcommand requires get a valid value unless fed one
    given_texts = {}
    for flag, texts in _VALUE_OPTIONS[command].items():
        if data.draw(st.booleans(), label=f"give {flag}"):
            given_texts[flag] = data.draw(texts, label=flag)
    values = dict(given_texts)
    if "--config" in values:  # the text is the file's content
        config = domain_dir / "config.json"
        config.write_bytes(values["--config"].encode("utf-8", "surrogateescape"))
        values["--config"] = str(config)
    model = ["--data", str(domain_dir / "toy.csv"), "--response", "y", "--covariates", "x1"]
    needs = {
        "fit": model,
        "leak": [*model, "--support", "[0,inf)"],
        "leak-profile": [*model, "--support", "[0,inf)", "--grid", "x1=0:1:5"],
        "falsify": [*model, "--value", "0.5"],
        "calibrate": [*model, "--holdout", "0.25"],
        "simulate": ["truncated"],
        "report": [*model, "--support", "[0,inf)", "--out-curves", str(domain_dir / "curves.csv")],
    }[command]
    # flag=value, so that argparse takes a text such as "-inf" as the value
    argv = [command, *needs, *(f"{flag}={value}" for flag, value in values.items())]
    argv += ["--json-errors"] if json_errors else []
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the example
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 0:
        outside = [flag for flag, text in given_texts.items() if not _IN_DOMAIN[flag](text)]
        assert outside == [], argv
        if command in _JSON_COMMANDS:
            json.loads(out)  # exactly one JSON value
        if command == "simulate":  # the loader reads back what simulate writes
            table = regression.load_dataset_text(out)
            assert all(table.is_numeric(name) for name in table.names)
    elif code == 1 or not json_errors:
        assert out == "" and err.startswith("probleak"), argv
    else:
        assert set(json.loads(out)) == {"error"} and err == "", argv


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "probleak.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("probleak ")


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only mixture CRPS uses scipy.integrate, and it imports it on first use
    code = "import sys, probleak.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_library_logger_is_silent_unless_the_application_configures_logging():
    import logging

    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("probleak").handlers)
    # without the NullHandler, logging's last-resort handler would print the warning
    code = "import logging, probleak; logging.getLogger('probleak.calibration').warning('unseen')"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "")
