"""Deterministic scenario runner.

Usage:

    cartanconn run <config.json> [--seed N] [--out DIR]
    cartanconn --selftest [--seed N]

A scenario configuration is a JSON document; unknown keys are rejected.
Outputs are a CSV table plus a ``summary.json`` with stable key order, and
runs are byte-identical given the same configuration and seed (no clocks,
no unseeded randomness). Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 input/output failure.

Example configuration::

    {
      "scenario": "develop-gravity",
      "model": {"V": "9.81", "W": "0"},
      "trajectory": {"preset": "freefall", "x0": 0.0, "v0": 0.0, "t1": 1.0},
      "integrator": {"step": 0.001},
      "output": {"path": "out", "format": "csv"}
    }
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from . import fieldexpr as fe
from . import liegroup as lg
from . import maxwell as mx
from . import models
from . import principal as pr
from . import transport as tp
from .errors import ConfigError, ExprEvalError, ExprSyntaxError, GeometryError

SCENARIOS = (
    "develop-gravity",
    "develop-kepler",
    "holonomy",
    "check-axioms",
    "maxwell",
    "homogeneous-demo",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def _require_finite(value, where: str) -> None:
    """Reject the non-finite numbers a JSON document can carry: ``NaN``,
    ``Infinity``, ``-Infinity`` and literals past the float range such as
    ``1e999``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number")


def _require_keys(obj: dict, allowed: dict, where: str) -> None:
    """Reject unknown keys and type-check the known ones.

    ``allowed`` maps key -> (types, required). JSON booleans are no
    numbers here, although Python counts ``bool`` as ``int``, and numbers
    must be finite.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key, (types, required) in allowed.items():
        if key in obj:
            if isinstance(obj[key], bool) or not isinstance(obj[key], types):
                raise ConfigError(f"{where}.{key} has the wrong type")
            _require_finite(obj[key], f"{where}.{key}")
        elif required:
            raise ConfigError(f"missing required key '{key}' in {where}")


NUMBER = (int, float)


def _number_list(obj: dict, key: str, default: list, where: str) -> list[float]:
    """``obj[key]`` (``default`` when absent) as floats: a non-empty list of
    finite JSON numbers, booleans excluded."""
    values = obj.get(key, default)
    if not values or any(isinstance(v, bool) or not isinstance(v, NUMBER) for v in values):
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    for v in values:
        _require_finite(v, f"{where}.{key}")
    return [float(v) for v in values]


_COMMON = {
    "scenario": (str, True),
    "seed": (int, False),
    "integrator": (dict, False),
    "output": (dict, False),
    "model": (dict, False),
    "trajectory": (dict, False),
    "loop": (dict, False),
    "grid": (dict, False),
    "tolerance": (NUMBER, False),
    "samples": (int, False),
}


def validate_config(config: dict) -> dict:
    """Validate the configuration document and fill in defaults."""
    _require_keys(config, _COMMON, "config")
    scenario = config["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}'; expected one of {', '.join(SCENARIOS)}")

    integrator = dict(config.get("integrator", {}))
    _require_keys(integrator, {"step": (NUMBER, False)}, "integrator")
    step = float(integrator.get("step", 1e-3))
    if step <= 0:
        raise ConfigError("integrator.step must be positive")

    output = dict(config.get("output", {}))
    _require_keys(output, {"path": (str, False), "format": (str, False)}, "output")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")

    return {
        "scenario": scenario,
        "seed": int(config.get("seed", 0)),
        "step": step,
        "out_dir": output.get("path", "out"),
        "format": fmt,
        "model": dict(config.get("model", {})),
        "trajectory": dict(config.get("trajectory", {})),
        "loop": dict(config.get("loop", {})),
        "grid": dict(config.get("grid", {})),
        "tolerance": config.get("tolerance"),
        "samples": int(config.get("samples", 1000)),
    }


def _expression_field(source, variables) -> callable:
    """Compile an expression string (or a number) into a batched function of
    ``variables``: scalars give a float, arrays an array of their shape."""
    if isinstance(source, (int, float)):
        tree = fe.Num(float(source))
    else:
        try:
            tree = fe.parse(source)
        except ExprSyntaxError as exc:
            raise ConfigError(f"bad expression {source!r}: {exc}") from exc
    unknown = fe.free_variables(tree) - set(variables)
    if unknown:
        raise ConfigError(f"expression {source!r} uses unknown variables {sorted(unknown)}")

    @pr.batched
    def fn(*args):
        return fe.evaluate(tree, dict(zip(variables, args)))

    return fn


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a table: ``rows`` is a float array, one join per row over its
    ``tolist()`` floats, or a sequence of rows mixing numbers and strings."""
    if isinstance(rows, np.ndarray):
        lines = [",".join(map(repr, row)) for row in rows.astype(float, copy=False).tolist()]
    else:
        lines = [",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row)
                 for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(out_dir: Path, name: str, header, rows, summary: dict, fmt: str) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / f"{name}.{fmt}"   # fmt is "csv" or "json"
    if fmt == "csv":
        _write_csv(table, header, rows)
    else:
        _write_json(table, {"header": header,
                            "rows": [[v if isinstance(v, str) else float(v) for v in row] for row in rows]})
    summary = {**summary, "outputs": sorted([table.name, "summary.json"])}
    _write_json(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------

def _gravity_structure(model_cfg: dict):
    _require_keys(model_cfg, {"V": ((str, *NUMBER), True), "W": ((str, *NUMBER), False)}, "model")
    v_fn = _expression_field(model_cfg["V"], ("t", "x"))
    w_fn = _expression_field(model_cfg.get("W", 0.0), ("t", "x"))
    return models.galilean_gravity(models.GravityField(v_fn, w_fn)), v_fn


def _gravity_trajectory(traj_cfg: dict, v_at_start) -> tp.SmoothPath:
    allowed = {
        "preset": (str, False),
        "x": (str, False),
        "xdot": (str, False),
        "x0": (NUMBER, False),
        "v0": (NUMBER, False),
        "t0": (NUMBER, False),
        "t1": (NUMBER, False),
        "amp": (NUMBER, False),
        "freq": (NUMBER, False),
    }
    _require_keys(traj_cfg, allowed, "trajectory")
    t0 = float(traj_cfg.get("t0", 0.0))
    t1 = float(traj_cfg.get("t1", 1.0))
    if "x" in traj_cfg:
        if "xdot" not in traj_cfg:
            raise ConfigError("trajectory.x needs trajectory.xdot")
        x_fn = _expression_field(traj_cfg["x"], ("t",))
        xdot_fn = _expression_field(traj_cfg["xdot"], ("t",))
        return _graph_path(t0, t1, x_fn, xdot_fn)
    preset = traj_cfg.get("preset", "freefall")
    x0 = float(traj_cfg.get("x0", 0.0))
    v0 = float(traj_cfg.get("v0", 0.0))
    g0 = v_at_start(t0, x0)
    if preset == "freefall":
        return _graph_path(
            t0, t1,
            lambda t: x0 + v0 * (t - t0) + 0.5 * g0 * (t - t0) ** 2,
            lambda t: v0 + g0 * (t - t0),
        )
    if preset == "perturbed-freefall":
        amp = float(traj_cfg.get("amp", 0.1))
        freq = float(traj_cfg.get("freq", 5.0))
        return _graph_path(
            t0, t1,
            lambda t: x0 + v0 * (t - t0) + 0.5 * g0 * (t - t0) ** 2 + amp * np.sin(freq * (t - t0)),
            lambda t: v0 + g0 * (t - t0) + amp * freq * np.cos(freq * (t - t0)),
        )
    raise ConfigError(f"unknown trajectory preset '{preset}'")


def _graph_path(t0: float, t1: float, x_fn, xdot_fn) -> tp.SmoothPath:
    """Batched path ``t -> (t, x(t))`` with velocity ``(1, x'(t))`` from
    scalar functions that also take arrays of times."""
    def x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, x_fn(t)], axis=-1)

    def xdot(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), xdot_fn(t)], axis=-1)

    return tp.SmoothPath(t0, t1, pr.batched(x), pr.batched(xdot))


def _run_develop_gravity(cfg: dict, out_dir: Path) -> dict:
    cs, v_fn = _gravity_structure(cfg["model"])
    path = _gravity_trajectory(cfg["trajectory"], v_fn)
    dev = cs.develop_base_path(path, step=cfg["step"])
    second = dev.second_differences()
    norms = np.zeros(len(dev.ts))
    if len(second):
        norms[1:-1] = np.linalg.norm(second, axis=1)
    rows = np.column_stack([dev.ts, path.points(dev.ts)[:, 1], dev.values[:, 1], norms])
    tol = float(cfg["tolerance"] if cfg["tolerance"] is not None else 1e-6)
    max_sd = dev.max_second_difference()
    status = "STRAIGHT" if max_sd < tol else "CURVED"
    summary = {
        "scenario": "develop-gravity",
        "status": status,
        "max_second_difference": max_sd,
        "straightness_tolerance": tol,
        "initial_tangent": [float(v) for v in dev.initial_tangent],
        "samples": len(dev.ts),
        "step": cfg["step"],
        "seed": cfg["seed"],
    }
    return _emit(out_dir, "develop-gravity", ["t", "x", "y_dev", "second_diff"], rows, summary, cfg["format"])


def _run_develop_kepler(cfg: dict, out_dir: Path) -> dict:
    model_cfg = cfg["model"]
    _require_keys(
        model_cfg,
        {"mu": (NUMBER, False), "a": (NUMBER, False), "e": (NUMBER, False)},
        "model",
    )
    mu = float(model_cfg.get("mu", 1.0))
    a = float(model_cfg.get("a", 1.0))
    e = float(model_cfg.get("e", 0.6))
    cs = models.galilean_gravity_3d(models.kepler_acceleration(mu))
    orbit = models.kepler_orbit(mu=mu, a=a, e=e)
    dev = cs.develop_base_path(orbit, step=cfg["step"])
    second = dev.second_differences()
    norms = np.zeros(len(dev.ts))
    if len(second):
        norms[1:-1] = np.linalg.norm(second, axis=1)
    rows = np.column_stack([dev.ts, orbit.points(dev.ts)[:, 1:], dev.values, norms])
    tol = float(cfg["tolerance"] if cfg["tolerance"] is not None else 1e-4)
    max_sd = dev.max_second_difference()
    summary = {
        "scenario": "develop-kepler",
        "status": "STRAIGHT" if max_sd < tol else "CURVED",
        "max_second_difference": max_sd,
        "straightness_tolerance": tol,
        "eccentricity": e,
        "mu": mu,
        "semi_major_axis": a,
        "samples": len(dev.ts),
        "step": cfg["step"],
        "seed": cfg["seed"],
    }
    header = ["t", "x", "y", "dev_a", "dev_b1", "dev_b2", "second_diff"]
    return _emit(out_dir, "develop-kepler", header, rows, summary, cfg["format"])


def _run_holonomy(cfg: dict, out_dir: Path) -> dict:
    cs, _ = _gravity_structure(cfg["model"])
    loop_cfg = cfg["loop"]
    _require_keys(loop_cfg, {"corner": (list, False), "side": (NUMBER, False)}, "loop")
    corner = _number_list(loop_cfg, "corner", [0.0, 0.0], "loop")
    side = float(loop_cfg.get("side", 0.5))
    if len(corner) != 2:
        raise ConfigError("loop.corner must have two entries")
    if side <= 0:
        raise ConfigError("loop.side must be positive")
    loop = tp.square_loop(corner, side)
    hol = tp.holonomy(cs.conn, loop, step=cfg["step"])
    coords = lg.algebra_coords(lg.log(hol))
    names = ["eps_v", "eps_a", "eps_b"]
    rows = list(zip(names, coords))
    tol = float(cfg["tolerance"] if cfg["tolerance"] is not None else 1e-7)
    norm = float(np.linalg.norm(coords))
    summary = {
        "scenario": "holonomy",
        "status": "FLAT" if norm < tol else "CURVED",
        "log_holonomy_norm": norm,
        "log_holonomy": {n: float(c) for n, c in zip(names, coords)},
        "flatness_tolerance": tol,
        "loop_corner": corner,
        "loop_side": side,
        "step": cfg["step"],
        "seed": cfg["seed"],
    }
    return _emit(out_dir, "holonomy", ["coefficient", "value"], rows, summary, cfg["format"])


def _run_check_axioms(cfg: dict, out_dir: Path) -> dict:
    if cfg["samples"] < 1:
        raise ConfigError("samples must be at least 1")
    model_cfg = dict(cfg["model"])
    allowed = {
        "name": (str, False),
        "V": ((str, *NUMBER), False),
        "W": ((str, *NUMBER), False),
        "n": (int, False),
        "space": (str, False),
    }
    _require_keys(model_cfg, allowed, "model")
    name = model_cfg.pop("name", "galilean")
    if name == "galilean" and ("V" in model_cfg or "W" in model_cfg):
        cs, _ = _gravity_structure(model_cfg)
    else:
        try:
            cs = models.build_model(name, **model_cfg)
        except TypeError as exc:
            raise ConfigError(f"bad parameters for model '{name}': {exc}") from exc
    report = pr.check_axioms(cs.conn, samples=cfg["samples"], seed=cfg["seed"])
    rows = [
        ("fundamental_field_residual", report.residual_fundamental),
        ("equivariance_residual", report.residual_equivariance),
    ]
    summary = {
        "scenario": "check-axioms",
        "status": "PASS" if report.passed else "FAIL",
        "model": name,
        "samples": report.samples,
        "residual_fundamental": report.residual_fundamental,
        "residual_equivariance": report.residual_equivariance,
        "tolerance": report.tolerance,
        "seed": cfg["seed"],
    }
    return _emit(out_dir, "check-axioms", ["quantity", "value"], rows, summary, cfg["format"])


def _run_maxwell(cfg: dict, out_dir: Path) -> dict:
    model_cfg = dict(cfg["model"])
    allowed = {
        "preset": (str, False),
        "eps0": (NUMBER, False),
        "mu0": (NUMBER, False),
        "csv": (dict, False),
        "h": (NUMBER, False),
    }
    _require_keys(model_cfg, allowed, "model")
    constants = mx.EMConstants(
        eps0=float(model_cfg.get("eps0", 1.0)), mu0=float(model_cfg.get("mu0", 1.0))
    )
    h = float(model_cfg.get("h", 1e-4))
    if h <= 0:
        raise ConfigError("model.h must be positive")
    if "csv" in model_cfg:
        components = model_cfg["csv"]
        wanted = ["E1", "E2", "E3", "B1", "B2", "B3", "D1", "D2", "D3",
                  "H1", "H2", "H3", "rho", "j1", "j2", "j3"]
        missing = [k for k in wanted if k not in components]
        if missing:
            raise ConfigError(f"model.csv missing components {missing}")
        loaded = {k: mx.GridSampledField.from_csv(components[k]) for k in wanted}
        report = mx.maxwell_check_sampled(
            (loaded["E1"], loaded["E2"], loaded["E3"]),
            (loaded["B1"], loaded["B2"], loaded["B3"]),
            (loaded["D1"], loaded["D2"], loaded["D3"]),
            (loaded["H1"], loaded["H2"], loaded["H3"]),
            loaded["rho"],
            (loaded["j1"], loaded["j2"], loaded["j3"]),
        )
        source = "csv"
    else:
        preset = model_cfg.get("preset", "plane-wave")
        if preset not in mx.PRESETS:
            raise ConfigError(f"unknown maxwell preset '{preset}'")
        fields = mx.PRESETS[preset](constants)
        grid_cfg = cfg["grid"]
        _require_keys(grid_cfg, {"t": (list, False), "x": (list, False)}, "grid")
        ts = _number_list(grid_cfg, "t", [0.0, 0.4], "grid")
        xs = _number_list(grid_cfg, "x", [1.0, 1.4, 1.8], "grid")
        report = mx.maxwell_check(*fields, points=mx.probe_grid(ts, xs), h=h)
        source = preset
    rows = report.rows()
    summary = {
        "scenario": "maxwell",
        "status": "SATISFIED" if report.satisfied else "VIOLATED",
        "source": source,
        "points": report.points,
        "residuals": {name: float(v) for name, v in rows},
        "wave_speed": constants.c,
        "seed": cfg["seed"],
    }
    return _emit(out_dir, "maxwell", ["residual", "value"], rows, summary, cfg["format"])


def _run_homogeneous_demo(cfg: dict, out_dir: Path) -> dict:
    model_cfg = dict(cfg["model"])
    _require_keys(model_cfg, {"space": (str, False), "n": (int, False)}, "model")
    space = model_cfg.get("space", "galileo")
    n = int(model_cfg.get("n", 2))
    cs = models._build_homogeneous(space=space, n=n)
    rng = np.random.default_rng(cfg["seed"])
    dim = cs.base_dim
    coeff = 0.3 * rng.standard_normal((2, dim))
    base = rng.standard_normal(dim)

    @pr.batched
    def x(t):
        phase = 2 * np.pi * np.asarray(t, dtype=float)[..., None]
        return base + coeff[0] * np.sin(phase) + coeff[1] * (np.cos(phase) - 1.0)

    @pr.batched
    def xdot(t):
        phase = 2 * np.pi * np.asarray(t, dtype=float)[..., None]
        return 2 * np.pi * (coeff[0] * np.cos(phase) - coeff[1] * np.sin(phase))

    path = tp.SmoothPath(0.0, 1.0, x, xdot)
    dev = cs.develop_base_path(path, step=cfg["step"])
    points = path.points(dev.ts)
    gap = float(np.max(np.abs(dev.values - points)))
    z0 = cs.spec.origin + 0.2 * rng.standard_normal(dim)
    transported = tp.parallel_transport(cs.conn, path, cs.spec, z0, step=cfg["step"])
    transport_gap = float(np.max(np.abs(transported - z0)))
    rows = np.column_stack([dev.ts, points, dev.values])
    header = ["t"] + [f"x{i+1}" for i in range(dim)] + [f"dev{i+1}" for i in range(dim)]
    tol = float(cfg["tolerance"] if cfg["tolerance"] is not None else 1e-8)
    ok = gap < tol and transport_gap < tol
    summary = {
        "scenario": "homogeneous-demo",
        "status": "FLAT" if ok else "UNEXPECTED",
        "space": space,
        "development_gap": gap,
        "transport_gap": transport_gap,
        "tolerance": tol,
        "step": cfg["step"],
        "seed": cfg["seed"],
    }
    return _emit(out_dir, "homogeneous-demo", header, rows, summary, cfg["format"])


_RUNNERS = {
    "develop-gravity": _run_develop_gravity,
    "develop-kepler": _run_develop_kepler,
    "holonomy": _run_holonomy,
    "check-axioms": _run_check_axioms,
    "maxwell": _run_maxwell,
    "homogeneous-demo": _run_homogeneous_demo,
}


def run(config: dict, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Validate and execute one scenario; returns the summary document."""
    cfg = validate_config(config)
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    return _RUNNERS[cfg["scenario"]](cfg, Path(cfg["out_dir"]))


def _selftest(seed: int) -> int:
    results = acceptance.run_all(seed)
    for result in results:
        print(result.line())
    ok = all(r.passed and r.in_budget for r in results)
    print(f"{'ALL CRITERIA PASS' if ok else 'FAILURES PRESENT'} "
          f"({sum(r.passed and r.in_budget for r in results)}/{len(results)})")
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cartanconn",
        description="Scenario runner for connections, developments, holonomy "
        "and the exterior-calculus form of Maxwell's equations.",
    )
    parser.add_argument("command", nargs="?", choices=["run"], help="subcommand")
    parser.add_argument("config", nargs="?", help="path to a JSON scenario configuration")
    parser.add_argument("--selftest", action="store_true", help="run the acceptance battery")
    parser.add_argument("--seed", type=int, default=None, help="override the configuration seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    args = parser.parse_args(argv)

    if args.selftest:
        return _selftest(args.seed if args.seed is not None else 0)

    if args.command != "run" or args.config is None:
        parser.print_usage(sys.stderr)
        print("error: expected 'run <config.json>' or --selftest", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with open(args.config) as fh:
            document = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: configuration is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run(document, seed=args.seed, out_dir=args.out)
    except (ConfigError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GeometryError, ExprEvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
