"""Tests for the scenario runner: schema, exit codes, determinism, outputs."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cartanconn import acceptance, cli, models
from cartanconn import principal as pr
from cartanconn import transport as tp


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gravity_config(out, **overrides):
    doc = {
        "scenario": "develop-gravity",
        "model": {"V": "9.81", "W": "0"},
        "trajectory": {"preset": "freefall", "x0": 0.0, "v0": 0.0, "t1": 1.0},
        "integrator": {"step": 0.001},
        "output": {"path": str(out), "format": "csv"},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_develop_gravity_freefall_reports_straight(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, gravity_config(out))])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "STRAIGHT"
    assert summary["max_second_difference"] < 1e-6
    table = (out / "develop-gravity.csv").read_text()
    assert table.splitlines()[0] == "t,x,y_dev,second_diff"
    assert "\r" not in table


def test_develop_gravity_perturbed_reports_curved(tmp_path):
    out = tmp_path / "out"
    doc = gravity_config(out)
    doc["trajectory"] = {"preset": "perturbed-freefall", "t1": 1.0}
    code = cli.main(["run", write_config(tmp_path, doc)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "CURVED"
    assert summary["max_second_difference"] > 1e-2


def test_develop_gravity_expression_trajectory(tmp_path):
    out = tmp_path / "out"
    doc = gravity_config(out)
    doc["trajectory"] = {"x": "0.5*9.81*t^2", "xdot": "9.81*t", "t1": 1.0}
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "STRAIGHT"


def test_holonomy_statuses(tmp_path):
    flat_out = tmp_path / "flat"
    doc = {
        "scenario": "holonomy",
        "model": {"V": "9.81"},
        "loop": {"corner": [0.0, 0.0], "side": 0.5},
        "output": {"path": str(flat_out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc, "flat.json")]) == 0
    summary = json.loads((flat_out / "summary.json").read_text())
    assert summary["status"] == "FLAT"
    assert summary["log_holonomy_norm"] < 1e-7

    curved_out = tmp_path / "curved"
    doc = {
        "scenario": "holonomy",
        "model": {"V": "9.81 + 0.3*x"},
        "loop": {"corner": [0.0, 0.0], "side": 0.1},
        "output": {"path": str(curved_out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc, "curved.json")]) == 0
    summary = json.loads((curved_out / "summary.json").read_text())
    assert summary["status"] == "CURVED"
    assert abs(summary["log_holonomy"]["eps_v"] + 0.3 * 0.01) < 0.05 * 0.3 * 0.01


def test_check_axioms_scenario(tmp_path):
    out = tmp_path / "out"
    doc = {
        "scenario": "check-axioms",
        "model": {"name": "projective"},
        "samples": 200,
        "output": {"path": str(out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "PASS"


def test_maxwell_preset_scenario(tmp_path):
    out = tmp_path / "out"
    doc = {
        "scenario": "maxwell",
        "model": {"preset": "coulomb", "eps0": 1.0, "mu0": 1.0},
        "grid": {"t": [0.0], "x": [1.0, 1.5]},
        "output": {"path": str(out), "format": "json"},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "SATISFIED"
    assert (out / "maxwell.json").exists()


def test_maxwell_csv_grid_scenario(tmp_path):
    axes = [[0.0, 0.5, 1.0]] * 4
    comps = {
        "E1": lambda t, x1, x2, x3: x1,
        "E2": lambda t, x1, x2, x3: x2,
        "E3": lambda t, x1, x2, x3: x3,
        "rho": lambda t, x1, x2, x3: 3.0 / (4.0 * math.pi),
    }
    zero = lambda t, x1, x2, x3: 0.0
    names = {}
    for comp in ["E1", "E2", "E3", "B1", "B2", "B3", "D1", "D2", "D3",
                 "H1", "H2", "H3", "rho", "j1", "j2", "j3"]:
        fn = comps.get(comp, comps.get(comp.replace("D", "E")) if comp.startswith("D") else zero) or zero
        path = tmp_path / f"{comp}.csv"
        with open(path, "w") as fh:
            fh.write("t,x1,x2,x3,value\n")
            for t, x1, x2, x3 in itertools.product(*axes):
                fh.write(f"{t},{x1},{x2},{x3},{fn(t, x1, x2, x3)}\n")
        names[comp] = str(path)
    out = tmp_path / "out"
    doc = {
        "scenario": "maxwell",
        "model": {"csv": names},
        "output": {"path": str(out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["source"] == "csv"
    assert summary["status"] == "SATISFIED"


@pytest.mark.parametrize("space", ["galileo", "affine", "projective", "mobius"])
def test_homogeneous_demo_scenario(tmp_path, space):
    out = tmp_path / "out"
    doc = {
        "scenario": "homogeneous-demo",
        "model": {"space": space},
        "integrator": {"step": 0.005},
        "output": {"path": str(out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "FLAT"
    # the JSON table holds the same numbers as the CSV one
    doc["output"] = {"path": str(tmp_path / "json"), "format": "json"}
    assert cli.main(["run", write_config(tmp_path, doc, "json.json")]) == 0
    rows = json.loads((tmp_path / "json" / "homogeneous-demo.json").read_text())["rows"]
    table = np.loadtxt(out / "homogeneous-demo.csv", delimiter=",", skiprows=1)
    assert table.shape == (201, 5) and np.array_equal(np.array(rows), table)


def test_kepler_scenario_coarse(tmp_path):
    out = tmp_path / "out"
    doc = {
        "scenario": "develop-kepler",
        "model": {"mu": 1.0, "a": 1.0, "e": 0.5},
        "integrator": {"step": 0.002},
        "output": {"path": str(out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "STRAIGHT"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_outputs_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    doc1 = gravity_config(out1)
    doc2 = gravity_config(out2)
    assert cli.main(["run", write_config(tmp_path, doc1, "a.json")]) == 0
    assert cli.main(["run", write_config(tmp_path, doc2, "b.json")]) == 0
    assert (out1 / "develop-gravity.csv").read_bytes() == (out2 / "develop-gravity.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2


def test_seed_and_out_overrides(tmp_path):
    out = tmp_path / "cli-out"
    doc = {
        "scenario": "homogeneous-demo",
        "model": {"space": "galileo"},
        "integrator": {"step": 0.01},
        "output": {"path": str(tmp_path / "ignored")},
        "seed": 5,
    }
    code = cli.main(["run", write_config(tmp_path, doc), "--seed", "9", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 9


# ---------------------------------------------------------------------------
# Failure modes and exit codes
# ---------------------------------------------------------------------------

def test_unknown_key_rejected(tmp_path):
    doc = gravity_config(tmp_path / "out")
    doc["surprise"] = 1
    assert cli.main(["run", write_config(tmp_path, doc)]) == 2


@pytest.mark.parametrize("where, key", [
    ("integrator", "step"), (None, "tolerance"), (None, "samples"), (None, "seed"),
    ("trajectory", "t1"), ("model", "V"),
])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_for_a_number_rejected(tmp_path, capsys, where, key, value):
    # Python counts bool as int, so without a check `true` ran as 1
    doc = gravity_config(tmp_path / "out")
    (doc.setdefault(where, {}) if where else doc)[key] = value
    assert cli.main(["run", write_config(tmp_path, doc)]) == 2
    assert f"{key} has the wrong type" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def scenario_config(out, scenario, where, key, value):
    doc = {"scenario": scenario, where: {key: value}, "output": {"path": str(out)}}
    if scenario == "holonomy":
        doc["model"] = {"V": "9.81"}
    return doc


@pytest.mark.parametrize("scenario, where, key, value", [
    ("holonomy", "loop", "corner", [True, 0]),
    ("holonomy", "loop", "corner", ["a", 0]),
    ("holonomy", "loop", "corner", []),
    ("maxwell", "grid", "t", ["x"]),
    ("maxwell", "grid", "x", [1.0, False]),
    ("maxwell", "grid", "x", [[1.0], 1.4]),
    ("maxwell", "grid", "t", []),
])
def test_number_lists_reject_booleans_non_numbers_and_empty_lists(tmp_path, capsys, scenario, where, key, value):
    # Python counts bool as int and float() of a string raises ValueError
    # (exit 3); an empty probe grid has no point to check
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, scenario_config(out, scenario, where, key, value))]) == 2
    assert f"{where}.{key} must be a non-empty list of numbers" in capsys.readouterr().err
    assert not out.exists()


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def write_raw_config(tmp_path, doc, literal):
    """Config text with the string ``"VALUE"`` replaced by a raw JSON
    literal, such as ``1e999``, that ``json.dumps`` does not write."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', literal))
    return str(path)


@pytest.mark.parametrize("where, key", [("integrator", "step"), (None, "tolerance"), ("model", "V")])
@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_number_rejected(tmp_path, capsys, where, key, literal):
    # Python's json reads NaN, Infinity and 1e999 as floats: a NaN
    # tolerance ran to CURVED and wrote NaN, which is not valid JSON, into
    # summary.json, and an infinite step ran to STRAIGHT from two samples
    doc = gravity_config(tmp_path / "out")
    (doc.setdefault(where, {}) if where else doc)[key] = "VALUE"
    assert cli.main(["run", write_raw_config(tmp_path, doc, literal)]) == 2
    assert f"{where or 'config'}.{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, where, key", [("holonomy", "loop", "corner"), ("maxwell", "grid", "x")])
@pytest.mark.parametrize("literal", NON_FINITE)
def test_number_lists_reject_non_finite_numbers(tmp_path, capsys, scenario, where, key, literal):
    out = tmp_path / "out"
    doc = scenario_config(out, scenario, where, key, [0.5, "VALUE"])
    assert cli.main(["run", write_raw_config(tmp_path, doc, literal)]) == 2
    assert f"{where}.{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, where, key", [("holonomy", "loop", "side"), ("maxwell", "model", "h")])
@pytest.mark.parametrize("value", [0, -0.5])
def test_nonpositive_loop_side_and_maxwell_step_rejected(tmp_path, capsys, scenario, where, key, value):
    # a nonpositive side makes no loop, and h = 0 divides the differences
    # by zero (NaN residuals are not valid JSON)
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, scenario_config(out, scenario, where, key, value))]) == 2
    assert f"{where}.{key} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_scenario_rejected(tmp_path):
    assert cli.main(["run", write_config(tmp_path, {"scenario": "nope"})]) == 2


def test_bad_expression_rejected(tmp_path):
    doc = gravity_config(tmp_path / "out")
    doc["model"]["V"] = "9.81 +"
    assert cli.main(["run", write_config(tmp_path, doc)]) == 2


def test_check_axioms_rejects_bad_model_parameters(tmp_path, capsys):
    bad = [
        ({"name": "galilean", "W": "0.3*x"}, "missing required key 'V'"),
        ({"name": "affine", "V": "1"}, "bad parameters for model 'affine'"),
        ({"name": "galilean", "space": "affine"}, "bad parameters for model 'galilean'"),
    ]
    for i, (model, message) in enumerate(bad):
        doc = {"scenario": "check-axioms", "model": model, "samples": 5,
               "output": {"path": str(tmp_path / f"out{i}")}}
        assert cli.main(["run", write_config(tmp_path, doc, f"{i}.json")]) == 2
        assert message in capsys.readouterr().err


def test_check_axioms_rejects_an_audit_without_samples(tmp_path, capsys):
    for samples in (0, -3):
        doc = {"scenario": "check-axioms", "samples": samples, "output": {"path": str(tmp_path / "out")}}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_axioms_accepts_model_parameters(tmp_path):
    good = [
        {"name": "galilean", "V": "9.81", "W": "0.3*x"},
        {"name": "galilean"},
        {"name": "homogeneous", "space": "affine", "n": 2},
        {"name": "mobius", "n": 2},
    ]
    for i, model in enumerate(good):
        out = tmp_path / f"out{i}"
        doc = {"scenario": "check-axioms", "model": model, "samples": 5,
               "output": {"path": str(out)}}
        assert cli.main(["run", write_config(tmp_path, doc, f"{i}.json")]) == 0
        assert json.loads((out / "summary.json").read_text())["status"] == "PASS"


def test_missing_config_file_is_io_error():
    assert cli.main(["run", "/nonexistent/config.json"]) == 4


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # the field blows up inside the integration window
    doc = gravity_config(tmp_path / "out")
    doc["model"]["V"] = "1/(1-t)"
    assert cli.main(["run", write_config(tmp_path, doc)]) == 3


def test_expression_failures_exit_numerical(tmp_path):
    # 0^(-1) and a non-real power at the starting point x0 = 0
    for i, v in enumerate(["x^(-1)", "(x - 5)^0.5"]):
        doc = {"scenario": "develop-gravity", "model": {"V": v},
               "trajectory": {"preset": "freefall", "x0": 0.0},
               "output": {"path": str(tmp_path / f"out{i}")}}
        assert cli.main(["run", write_config(tmp_path, doc, f"{i}.json")]) == 3


def test_failures_inside_a_block_exit_numerical(tmp_path, capsys):
    # V is singular at t = 0.5, in the middle of the first block of steps;
    # the orbit starts at its perihelion a (1 - e) = 5e-4 from the Kepler
    # centre, inside the excluded disk (a slow orbit, whose derivative
    # passes the path check)
    cases = [
        (gravity_config(tmp_path / "out0", model={"V": "1/(t - 0.5)"}), "divide(1.0, 0.0)"),
        ({"scenario": "develop-kepler", "model": {"mu": 1e-12, "a": 1.25e-3, "e": 0.6},
          "integrator": {"step": 0.1}, "output": {"path": str(tmp_path / "out1")}}, "excluded disk"),
    ]
    for i, (doc, message) in enumerate(cases):
        assert cli.main(["run", write_config(tmp_path, doc, f"{i}.json")]) == 3
        assert message in capsys.readouterr().err


def test_expression_fields_match_python_lambdas():
    # the CLI's batched expression fields and trajectory against the same
    # formulas as per-point Python callables: every node within 1e-12
    model = {"V": "9.81 - 0.3*x*(0.5 + 9.81*t) + sin(3*t)^2", "W": "0.3*x"}
    cs, v_fn = cli._gravity_structure(model)
    path = cli._gravity_trajectory({"x": "0.2 + 0.5*t + 0.5*9.81*t^2", "xdot": "0.5 + 9.81*t"}, v_fn)
    assert pr.is_batched(cs.conn.coeff) and pr.is_batched(path.x) and pr.is_batched(path.xdot)
    reference = models.galilean_gravity(models.GravityField(
        lambda t, x: 9.81 - 0.3 * x * (0.5 + 9.81 * t) + math.sin(3 * t) ** 2,
        lambda t, x: 0.3 * x,
    ))
    ref_path = tp.SmoothPath(
        0.0, 1.0,
        lambda t: np.array([t, 0.2 + 0.5 * t + 0.5 * 9.81 * t ** 2]),
        lambda t: np.array([1.0, 0.5 + 9.81 * t]),
    )
    dev = cs.develop_base_path(path, step=1e-3)
    ref = reference.develop_base_path(ref_path, step=1e-3)
    assert np.max(np.abs(dev.values - ref.values)) < 1e-12
    assert np.max(np.abs(path.points(dev.ts) - np.array([ref_path.point(t) for t in ref.ts]))) < 1e-12
    # the presets too
    for preset in ("freefall", "perturbed-freefall"):
        path = cli._gravity_trajectory({"preset": preset, "x0": 0.3, "v0": -0.2}, v_fn)
        pointwise = tp.SmoothPath(0.0, 1.0, lambda t: path.x(float(t)), lambda t: path.xdot(float(t)))
        ts = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(path.points(ts) - pointwise.points(ts))) < 1e-12
        assert np.max(np.abs(path.velocities(ts) - pointwise.velocities(ts))) < 1e-12


def old_csv_bytes(header, rows) -> bytes:
    """The per-cell formatter the CSV writer had before it took arrays."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row) + "\n")
    return "".join(lines).encode()


def test_csv_writer_bytes_match_the_per_cell_formatter(tmp_path):
    rng = np.random.default_rng(13)
    table = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
    table[3, 1], table[7, 2], table[9, 0] = -0.0, 1e-300, 7.0
    header = ["t", "a", "b", "c"]
    cli._write_csv(tmp_path / "array.csv", header, table)
    assert (tmp_path / "array.csv").read_bytes() == old_csv_bytes(header, table)
    mixed = [(int(7), "eps_v", -0.0, 1e-300), ("x", np.float64(2.5), 3, -1.25e-17)] + table.tolist()
    cli._write_csv(tmp_path / "mixed.csv", header, mixed)
    assert (tmp_path / "mixed.csv").read_bytes() == old_csv_bytes(header, mixed)


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2


# ---------------------------------------------------------------------------
# Selftest wiring
# ---------------------------------------------------------------------------

def test_selftest_prints_table_and_reports(monkeypatch, capsys):
    fake = [
        acceptance.CriterionResult(1, "alpha", True, "fine", 0.1, 5.0),
        acceptance.CriterionResult(2, "beta", True, "fine", 0.2, 5.0),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: fake)
    assert cli.main(["--selftest"]) == 0
    captured = capsys.readouterr().out
    assert "ALL CRITERIA PASS" in captured
    assert captured.count("[PASS]") == 2

    bad = [acceptance.CriterionResult(1, "alpha", False, "broken", 0.1, 5.0)]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: bad)
    assert cli.main(["--selftest"]) == 3


def test_package_runs_as_a_module():
    # ``python -m cartanconn`` reaches cli.main without the console script
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "cartanconn", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Scenario runner" in done.stdout
