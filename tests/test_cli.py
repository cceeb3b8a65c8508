"""Tests for the scenario runner: schema, exit codes, determinism, outputs."""

import decimal
import fractions
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cartanconn import _floatcells, acceptance, cli, models
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


def write_static_field_csvs(tmp_path, **overrides):
    """The sixteen component CSVs of the linear static solution E = D = x,
    rho = 3 / (4 pi), on the lattice {0, 0.5, 1}^4; ``overrides`` replaces
    a component's function. Returns the ``model.csv`` section."""
    axes = [[0.0, 0.5, 1.0]] * 4
    comps = {
        "E1": lambda t, x1, x2, x3: x1,
        "E2": lambda t, x1, x2, x3: x2,
        "E3": lambda t, x1, x2, x3: x3,
        "rho": lambda t, x1, x2, x3: 3.0 / (4.0 * math.pi),
        **overrides,
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
    return names


def test_maxwell_csv_grid_scenario(tmp_path):
    out = tmp_path / "out"
    doc = {
        "scenario": "maxwell",
        "model": {"csv": write_static_field_csvs(tmp_path)},
        "output": {"path": str(out)},
    }
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["source"] == "csv"
    assert summary["status"] == "SATISFIED"


def test_maxwell_csv_with_an_infinite_sample_exits_3(tmp_path, capsys):
    # inf at two lattice points two steps apart along x2 would make the
    # central x2-difference of H1 at the point between them inf - inf = NaN,
    # a NaN residual that read SATISFIED; the loader rejects the file instead
    spike = lambda t, x1, x2, x3: math.inf if (t, x1, x3) == (0.5, 0.5, 0.5) and x2 != 0.5 else 0.0
    doc = {
        "scenario": "maxwell",
        "model": {"csv": write_static_field_csvs(tmp_path, H1=spike)},
        "output": {"path": str(tmp_path / "out")},
    }
    with np.errstate(invalid="ignore"):
        assert cli.main(["run", write_config(tmp_path, doc)]) == 3
    assert re.search(r"H1\.csv: non-finite sample in data row \d+$", capsys.readouterr().err.strip())
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("doc, reads", [
    ({"scenario": "develop-gravity", "model": {"V": "9.81"},
      "trajectory": {"x": "0.2 + 0.4*t + 0.5*9.81*t^2", "xdot": "0.4 + 9.81*t"}}, 2),
    ({"scenario": "develop-kepler", "integrator": {"step": 0.002}}, 2),
    ({"scenario": "homogeneous-demo", "integrator": {"step": 0.005}}, 2),
], ids=lambda v: v["scenario"] if isinstance(v, dict) else str(v))
def test_developments_write_the_points_their_lift_read(tmp_path, monkeypatch, doc, reads):
    # the path is read for its probes and by its one lift (the homogeneous
    # demo transports along the development's lift), never again for the
    # table's points
    calls, points = [], tp.SmoothPath.points

    def counted(self, ts, out=None):
        calls.append(len(ts))
        return points(self, ts, out)

    monkeypatch.setattr(tp.SmoothPath, "points", counted)
    summary = cli.run(doc, out_dir=str(tmp_path))
    assert len(calls) == reads
    table = np.loadtxt(tmp_path / f"{doc['scenario']}.csv", delimiter=",", skiprows=1)
    assert len(table) == summary.get("samples", len(table)) == (calls[1] + 1) // 2


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


# a section each scenario does not read, in a document it would run without it
FOREIGN_SECTIONS = [
    ("develop-gravity", {"model": {"V": "9.81"}}, "samples", 5),
    ("develop-kepler", {}, "trajectory", {"anything": [1, 2]}),
    ("develop-kepler", {}, "loop", {"side": -3, "bogus": 1}),
    ("holonomy", {"model": {"V": "9.81"}}, "trajectory", {"preset": "nope"}),
    ("check-axioms", {"samples": 5}, "integrator", {"step": 0.01}),
    ("maxwell", {}, "tolerance", 1e-3),
    ("homogeneous-demo", {}, "grid", {"t": [0.0]}),
]


@pytest.mark.parametrize("scenario, doc, section, value", FOREIGN_SECTIONS,
                         ids=[f"{s}-{k}" for s, _, k, _ in FOREIGN_SECTIONS])
def test_a_section_the_scenario_does_not_read_is_rejected(tmp_path, capsys, scenario, doc, section, value):
    # such a section was accepted and ignored, so a typo in it went unseen
    out = tmp_path / "out"
    doc = {"scenario": scenario, **doc, section: value, "output": {"path": str(out)}}
    assert cli.main(["run", write_config(tmp_path, doc)]) == 2
    assert f"scenario '{scenario}' does not read the section '{section}'" in capsys.readouterr().err
    assert not out.exists()
    del doc[section]
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0


def documented_configs():
    """The example configurations of the ``cli`` docstring and of README."""
    docstring = cli.__doc__.split("Example configuration::", 1)[1]
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    readme = readme.split("## Command-line scenarios", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    return [json.loads(docstring), json.loads(readme)]


def test_documented_configs_run_straight(tmp_path):
    docs = documented_configs()
    assert docs[0]["scenario"] == docs[1]["scenario"] == "develop-gravity"
    for i, doc in enumerate(docs):
        summary = cli.run(doc, out_dir=str(tmp_path / str(i)))
        assert summary["status"] == "STRAIGHT"


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


HUGE_INTEGERS = ["1" + "0" * 400, "-1" + "0" * 400]


@pytest.mark.parametrize("scenario, where, key", [
    ("develop-gravity", "integrator", "step"), ("develop-gravity", None, "tolerance"), ("holonomy", "loop", "side"),
])
@pytest.mark.parametrize("literal", HUGE_INTEGERS, ids=["1e400", "-1e400"])
def test_integers_past_the_float_range_rejected(tmp_path, capsys, scenario, where, key, literal):
    # float() of such an integer raised an uncaught OverflowError (exit 1)
    out = tmp_path / "out"
    doc = gravity_config(out) if scenario == "develop-gravity" else scenario_config(out, scenario, where, key, 0.5)
    (doc.setdefault(where, {}) if where else doc)[key] = "VALUE"
    assert cli.main(["run", write_raw_config(tmp_path, doc, literal)]) == 2
    assert f"{where or 'config'}.{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("literal", HUGE_INTEGERS, ids=["1e400", "-1e400"])
def test_number_lists_reject_integers_past_the_float_range(tmp_path, capsys, literal):
    out = tmp_path / "out"
    doc = scenario_config(out, "holonomy", "loop", "corner", [0.5, "VALUE"])
    assert cli.main(["run", write_raw_config(tmp_path, doc, literal)]) == 2
    assert "loop.corner must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_a_huge_integer_seed_is_still_a_seed(tmp_path):
    # integer-only keys are not read as floats, and numpy takes any size of seed
    doc = gravity_config(tmp_path / "out", integrator={"step": 0.01})
    doc["seed"] = "VALUE"
    assert cli.main(["run", write_raw_config(tmp_path, doc, HUGE_INTEGERS[0])]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["seed"] == 10 ** 400


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


def hard_cells() -> np.ndarray:
    """Cells at the edges of the array formatter, five to a row: signed
    zeros and non-finite values, subnormals, powers of two (asymmetric
    rounding intervals), the ends of the fast path, the doubles nearest
    10^k and their neighbours, the classic 0.1 + 0.2, and two exact ties
    between the nearest shortest decimals (2^40 + 3/32 = ...776.09375 and
    2^49 + 3/4 = ...312.75, which repr rounds to even)."""
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    cells = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308],
        2.0 ** np.arange(-60, 61), -(2.0 ** np.arange(-60, 61)),
        [1e15, np.nextafter(1e15, 0), 1e16, 1e22, 1e-290, np.nextafter(1e-290, 0), 0.1 + 0.2],
        [2.0 ** 40 + 3 / 32, 2.0 ** 49 + 0.75],
        np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf),
    ])
    return np.concatenate([cells, np.zeros(-len(cells) % 5)]).reshape(-1, 5)


@pytest.mark.parametrize("table", [
    np.array([[-0.0, np.nan, np.inf], [-np.inf, 1e16, 1e-05], [5e-324, 0.1, -2.5]]),
    np.array([[1.0, -0.0, 1e-05, 5e-324]]),
    np.array([[np.nan], [1e16], [-np.inf]]),
    hard_cells(),
], ids=["table", "row", "column", "hard"])
def test_csv_cells_are_the_shortest_reprs_of_each_row(tmp_path, table):
    path = tmp_path / "t.csv"
    cli._write_csv(path, [f"c{j}" for j in range(table.shape[1])], table)
    reference = [",".join(f"c{j}" for j in range(table.shape[1]))]
    reference += [",".join(map(repr, row)) for row in table.tolist()]
    assert path.read_bytes() == ("\n".join(reference) + "\n").encode()


def test_array_cells_match_repr_on_every_kind_of_double():
    # 200k cells: random bit patterns (every exponent, NaNs and infinities
    # among them), log-uniform magnitudes from 1e-300 to 1e20, short
    # decimals (up to 15 digits) and dyadic rationals (exact binary fractions)
    rng = np.random.default_rng(35)
    n = 50_000
    digits = rng.integers(1, 10 ** rng.integers(1, 16, n))
    cells = np.concatenate([
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-300.0, 20.0, n) * rng.choice([-1.0, 1.0], n),
        [float(f"{d}e{e}") for d, e in zip(digits.tolist(), rng.integers(-30, 1, n).tolist())],
        rng.integers(-2 ** 40, 2 ** 40, n) / 2.0 ** rng.integers(0, 60, n),
    ])
    table = cells.reshape(-1, 8)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert _floatcells.rows_text(table) == expected


def test_exact_ties_round_to_even_in_the_array_passes(monkeypatch):
    # 2^b + m 2^(b - 52) for b in 40..49 are dyadic with few fraction bits,
    # and many lie exactly halfway between the two nearest shortest
    # decimals; y is exact there (10^k is a double), so the passes round
    # those to even as repr does instead of handing them to repr
    cells = np.array([2.0 ** b + m * 2.0 ** (b - 52) for b in range(40, 50) for m in range(1, 400)])
    ties = set()
    for v in cells.tolist():
        digits = decimal.Decimal(repr(v))
        if fractions.Fraction(v) / fractions.Fraction(10) ** digits.as_tuple().exponent % 1 == 0.5:
            ties.add(v)
    calls = []
    monkeypatch.setattr(_floatcells, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    table = cells.reshape(-1, 10)
    assert _floatcells.rows_text(table) == "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert len(ties) > 100 and not ties & set(calls)


def test_a_develop_gravity_table_sends_few_cells_to_repr(tmp_path, monkeypatch):
    # the array passes decide all but a handful of the 40,004 cells (the
    # powers of two among the times and the like, so repr is called at
    # least once); a formatter that sent every cell back to repr would be
    # correct, and as slow as the per-cell writer
    calls = []
    monkeypatch.setattr(_floatcells, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    doc = gravity_config(tmp_path / "out", integrator={"step": 1e-4},
                         model={"V": "9.81 - 0.3*x*(0.5 + 9.81*t)", "W": "0.3*x"},
                         trajectory={"x": "0.2 + 0.5*t + 0.5*9.81*t^2", "xdot": "0.5 + 9.81*t"})
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    table = np.loadtxt(tmp_path / "out" / "develop-gravity.csv", delimiter=",", skiprows=1)
    assert table.shape == (10_001, 4)
    assert 0 < len(calls) <= 0.01 * table.size, len(calls)


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


def test_a_two_node_development_exits_numerical(tmp_path, capsys):
    # the curve x = 5 t^3 at step 1.0 develops to two nodes, which cannot be
    # read STRAIGHT or CURVED; at step 0.5 (three nodes) it reads CURVED
    doc = gravity_config(tmp_path / "out", trajectory={"x": "5*t^3", "xdot": "15*t^2", "t1": 1.0},
                         integrator={"step": 1.0})
    assert cli.main(["run", write_config(tmp_path, doc)]) == 3
    assert "the development has 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()
    doc["integrator"] = {"step": 0.5}
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["samples"], summary["status"]) == (3, "CURVED")
    assert abs(summary["max_second_difference"] - 5.19) < 5e-3


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


def one_shot_csv_bytes(header, table) -> bytes:
    """The writer the CLI had before it wrote arrays in chunks: the whole
    table joined in one piece."""
    cells = map(repr, table.astype(float, copy=False).ravel().tolist())
    lines = map(",".join, zip(*[cells] * table.shape[1]))
    return ("\n".join([",".join(header), *lines]) + "\n").encode()


def test_chunked_csv_bytes_match_the_one_shot_writer(tmp_path, monkeypatch):
    c = cli._CSV_CHUNK_ROWS
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, 1e16, 1e-5, 5e-324, 0.1 + 0.2])
    rng = np.random.default_rng(30)
    path = tmp_path / "t.csv"
    for n_rows in (0, 1, c - 1, c, c + 1, 3 * c + 7):
        for n_cols in range(8):
            table = rng.choice(specials, size=(n_rows, n_cols))
            header = [f"c{j}" for j in range(n_cols)]
            cli._write_csv(path, header, table)
            assert path.read_bytes() == one_shot_csv_bytes(header, table), (n_rows, n_cols)
    # the tables the develop scenarios and the homogeneous demo emit
    written, write_csv = [], cli._write_csv

    def recorded(path, header, rows):
        written.append((path, header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    docs = [
        gravity_config(tmp_path / "gravity", integrator={"step": 1e-4}),
        {"scenario": "develop-kepler", "integrator": {"step": 2e-4}, "output": {"path": str(tmp_path / "kepler")}},
        {"scenario": "homogeneous-demo", "model": {"space": "projective"}, "integrator": {"step": 4e-4},
         "output": {"path": str(tmp_path / "demo")}},
    ]
    for i, doc in enumerate(docs):
        assert cli.main(["run", write_config(tmp_path, doc, f"{i}.json")]) == 0
    assert len(written) == 3
    for path, header, rows in written:
        assert isinstance(rows, np.ndarray) and len(rows) > c
        assert path.read_bytes() == one_shot_csv_bytes(header, rows)


def test_csv_writer_memory_is_bounded_by_one_chunk(tmp_path):
    # a writer that holds the whole table as floats, strings and text before
    # writing traces over 20 MB at 100,001 rows
    rng = np.random.default_rng(31)
    for n_rows in (10_001, 100_001):
        table = rng.standard_normal((n_rows, 4))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ["t", "a", "b", "c"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (n_rows, peak)


FIRST_WRITE = """\
import sys, tracemalloc
import numpy as np
from cartanconn import cli
table = np.random.default_rng(31).standard_normal((10_001, 4))
assert "cartanconn._floatcells" not in sys.modules
tracemalloc.start()
cli._write_csv(sys.argv[1], ["t", "a", "b", "c"], table)
print(tracemalloc.get_traced_memory()[1])
"""


def test_the_first_csv_write_is_bounded_too(tmp_path):
    # the first array table imports the formatter, and compiling its source
    # is the largest allocation of that call; a fresh interpreter that reads
    # and writes no cached bytecode (an empty pycache prefix, -B) compiles it
    done = fresh_python("-B", "-X", f"pycache_prefix={tmp_path / 'pycache'}", "-c", FIRST_WRITE,
                        str(tmp_path / "t.csv"))
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2 ** 20


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


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_package_runs_as_a_module():
    # ``python -m cartanconn`` reaches cli.main without the console script
    done = fresh_python("-m", "cartanconn", "--help")
    assert done.returncode == 0, done.stderr
    assert "Scenario runner" in done.stdout


def test_start_up_loads_maxwell_and_acceptance_only_where_they_run():
    # the package loads its core modules; cli adds fieldexpr (expression
    # models) but not maxwell or acceptance, which only their runners import
    done = fresh_python("-c", "import json, sys\n"
                        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('cartanconn'))\n"
                        "import cartanconn\nbefore = loaded()\nimport cartanconn.cli\n"
                        "print(json.dumps([before, loaded()]))")
    assert done.returncode == 0, done.stderr
    package, cli_start = (set(names) for names in json.loads(done.stdout))
    core = {"liegroup", "principal", "transport", "cartan", "models", "errors", "settings", "_records"}
    assert package == {"cartanconn"} | {f"cartanconn.{name}" for name in core}
    assert cli_start == package | {"cartanconn.fieldexpr", "cartanconn.cli"}


def test_start_up_generates_no_dataclass_code():
    # a dataclass compiles its methods when its module is imported; the
    # records are plain classes, in every module the CLI can load
    done = fresh_python("-c", "import inspect, json, sys\n"
                        "import cartanconn.cli, cartanconn.maxwell, cartanconn.acceptance\n"
                        "classes = {f'{name}.{key}': value for name, module in list(sys.modules.items())\n"
                        "           if name.startswith('cartanconn') for key, value in vars(module).items()\n"
                        "           if inspect.isclass(value)}\n"
                        "print(json.dumps([sorted(classes), sorted(name for name, value in classes.items()\n"
                        "                                   if hasattr(value, '__dataclass_fields__'))]))")
    assert done.returncode == 0, done.stderr
    classes, dataclasses = json.loads(done.stdout)
    assert {"cartanconn.liegroup.GroupTag", "cartanconn.maxwell.MaxwellReport",
            "cartanconn.acceptance.CriterionResult"} <= set(classes)
    assert dataclasses == []


def test_maxwell_scenario_and_selftest_run_in_fresh_processes(tmp_path):
    doc = {"scenario": "maxwell", "model": {"preset": "plane-wave"}, "output": {"path": str(tmp_path / "out")}}
    done = fresh_python("-m", "cartanconn", "run", write_config(tmp_path, doc))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "SATISFIED"
    done = fresh_python("-m", "cartanconn", "--selftest")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("[PASS]") == 10
    assert "ALL CRITERIA PASS (10/10)" in done.stdout
