"""The benchmark's workloads: seeded inputs, ops and independent references.

Each workload is a fixed round of ops. ``setup`` builds everything a round
needs from the seed (models, paths, configurations and the reference
values the checks compare against) and imports ``cartanconn`` itself, so
the harness can time set-up including the import. An op has a ``run``
part, which is timed and calls only the library, and a ``check`` part,
which is not timed and compares the result with a reference the library
does not produce (an analytic solution, an input the library must
recover, or a known classification).

A failed check is *silent* when the library returned a result without
raising or reporting a failure status (no status, or STRAIGHT, FLAT,
SATISFIED, PASS, "cartan"), and *loud* when it raised or reported a
negative status. Both count as failed ops; a silent one also makes the
run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Outcome:
    passed: bool
    silent: bool = False
    checks: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0
    note: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    conns: list = field(default_factory=list)
    path_evals: list[int] = field(default_factory=lambda: [0])
    sizes: dict = field(default_factory=dict)
    min_ops: int = 0   # keep measuring until this many ops, so p90 has 10 samples beyond it


# ---------------------------------------------------------------------------
# Documentation of the workloads (copied into every results file)
# ---------------------------------------------------------------------------

WORKLOADS = {
    "develop-long": {
        "why": "A few long developments: the per-step lift loop, coefficient "
        "evaluation (models closures and fieldexpr) and the development "
        "post-pass do nearly all the work; per-lift fixed cost, log and the "
        "audits do almost none.",
        "round": "2 x Kepler half orbit (galilean_gravity_3d, e = 0.6) through "
        "develop_base_path + max_second_difference; 1 x cli.run develop-gravity "
        "with expression strings for V, W and the trajectory, CSV and "
        "summary.json written to a scratch directory",
        "seed": "Kepler mu in [0.8, 1.25] with a = mu^(1/3) (period and step "
        "count fixed), start time t0 in [0, 1]; gravity constants g, c and "
        "initial state x0, v0 of the CLI scenario, printed with fixed digits "
        "so the expression trees have the same size for every seed",
        "references": "both paths are geodesics, so the development is the "
        "straight line (t - t0) * (1, v(t0)) with v(t0) from the closed form "
        "(Kepler perihelion speed sqrt(mu (1+e) / (a (1-e))), free-fall v0); "
        "CLI status STRAIGHT; each summary.json byte-identical to the warm-up's",
        "bypasses": ["liegroup.log", "principal.check_axioms", "principal.curvature",
                     "cartan.is_cartan", "cartan.soldering_matrix", "maxwell"],
        "criteria": ["9 (Kepler development; here at step 1e-3, the criterion uses 1e-4)",
                     "3 (straight half only: free fall develops straight, through the CLI)"],
    },
    "holonomy-grid": {
        "why": "Many short closed loops: per-lift fixed cost (path probes, "
        "PiecewisePath checks, the horizontality audit, one GroupElement per "
        "node), liegroup.log and principal.curvature dominate; fieldexpr is "
        "bypassed.",
        "round": "100 square loops alternating curved Galilean gravity "
        "(Python callables V, W; nilpotent log) and affine_structure(2, "
        "gamma=callable) on Aff(2) (log through scipy logm); each op builds the "
        "loop from benchmark callables and computes holonomy, log and curvature "
        "at the loop centre",
        "seed": "field coefficients (gravity k, w; affine Christoffel "
        "coefficient arrays), the grid offset and the grid cell of each loop; "
        "loop sides cycle through a fixed list, so the work per round does not "
        "depend on the seed",
        "references": "log(holonomy) = -d^2 F(centre) within 3 d relative "
        "(the O(d^3) remainder), F from the closed-form curvature of the "
        "benchmark's own fields; library curvature within 1e-6 of it",
        "bypasses": ["fieldexpr", "cli", "maxwell", "cartan.develop_base_path",
                     "principal.check_axioms"],
        "criteria": ["4 (holonomy of a curved gravity loop against the curvature)"],
    },
    "audit": {
        "why": "No transport: liegroup driven through random_element, inverse, "
        "compose and projection on every family (GL, SO, O(p,q), Aff, Galileo, "
        "PGL) by the axiom audits, plus classification, soldering and the "
        "Maxwell check.",
        "round": "check_axioms at 1000 samples for the six registered models "
        "and for a GL(3) and an SO(3) connection; is_cartan and "
        "soldering_matrix (16 points) for an invertible-endomorphism affine, a "
        "zero-endomorphism affine and a curved gravity structure; maxwell_check "
        "on the CLI default probe grid for plane-wave, coulomb and polynomial "
        "in eps0 = mu0 = 1 units and for the SI plane wave at defaults",
        "seed": "check_axioms and is_cartan seeds, the GL/SO coefficient "
        "arrays, the affine endomorphism, the gravity gradient, the soldering "
        "points, the plane-wave direction and polarization, the Coulomb charge",
        "references": "axiom residuals below 1e-8; kinds cartan / neither / "
        "cartan; soldering returns the endomorphism (zero, identity); every "
        "Maxwell preset is an exact solution, so SATISFIED. The SI plane wave "
        "reports VIOLATED at this commit (its time step is not scaled by 1/c) "
        "and is counted as a failed op",
        "bypasses": ["transport", "fieldexpr", "cli", "liegroup.log"],
        "criteria": ["1 (connection-form axioms, 1000 samples, every model)",
                     "6 (affine criterion: cartan / neither, soldering returns the endomorphism)",
                     "8 (Maxwell plane-wave residuals only; not the dictionary or constitutive parts)"],
    },
}

CRITERIA_NOT_COVERED = [
    "2 flat homogeneous model (transport and development on the flat model)",
    "3 perturbed half (a perturbed trajectory must not develop straight)",
    "5 soldering choice independence and tangency",
    "7 conformal model space",
    "8 component dictionary and constitutive identity",
    "10 integrator order under step halving",
]

SIZES = {
    "full": {
        "kepler_step": 1e-3, "kepler_gap_tol": 1e-8,
        "cli_step": 1e-4, "cli_straightness_tol": 1e-5, "cli_gap_tol": 1e-9,
        "loops": 100, "loop_step": 2.5e-3, "loop_sides": (0.02, 0.04, 0.06, 0.08, 0.1),
        "axiom_samples": 1000, "cartan_samples": 20, "soldering_points": 16,
        "min_ops": 100,
    },
    "smoke": {
        "kepler_step": 2e-2, "kepler_gap_tol": 1e-5,
        "cli_step": 2e-2, "cli_straightness_tol": 1e-5, "cli_gap_tol": 1e-9,
        "loops": 4, "loop_step": 1e-2, "loop_sides": (0.04, 0.08),
        "axiom_samples": 20, "cartan_samples": 4, "soldering_points": 2,
        "min_ops": 0,
    },
}

KEPLER_E = 0.6
MAX_SECOND_DIFFERENCE = 1e-4   # criterion 9's straightness bound
HOLONOMY_REL_PER_SIDE = 3.0    # log-holonomy vs -d^2 F: relative gap <= 3 d
CURVATURE_TOL = 1e-6           # library curvature (central differences) vs closed form
AXIOM_TOL = 1e-8
SOLDERING_TOL = 1e-9


def setup(name: str, seed: int, smoke: bool, work_dir: Path) -> Workload:
    sizes = SIZES["smoke" if smoke else "full"]
    builders = {"develop-long": _develop_long, "holonomy-grid": _holonomy_grid, "audit": _audit}
    wl = builders[name](np.random.default_rng(seed), seed, sizes, work_dir)
    wl.sizes = dict(sizes)
    return wl


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _second_differences(ts: np.ndarray, values: np.ndarray) -> float:
    h = ts[1] - ts[0]
    sd = (values[2:] - 2 * values[1:-1] + values[:-2]) / h**2
    return float(np.max(np.linalg.norm(sd, axis=1)))


# ---------------------------------------------------------------------------
# develop-long
# ---------------------------------------------------------------------------

def _develop_long(rng, seed, sizes, work_dir: Path) -> Workload:
    from cartanconn import cli, models

    mu = float(rng.uniform(0.8, 1.25))
    a = mu ** (1.0 / 3.0)
    t0 = float(rng.uniform(0.0, 1.0))
    kepler = models.galilean_gravity_3d(models.kepler_acceleration(mu))
    orbit = models.kepler_orbit(mu=mu, a=a, e=KEPLER_E, t0=t0)
    perihelion_speed = math.sqrt(mu * (1 + KEPLER_E) / (a * (1 - KEPLER_E)))
    kepler_step = sizes["kepler_step"]

    def kepler_run():
        dev = kepler.develop_base_path(orbit, step=kepler_step)
        return dev, dev.max_second_difference()

    def kepler_check(result) -> Outcome:
        dev, msd = result
        line = np.outer(dev.ts - t0, [1.0, 0.0, perihelion_speed])
        gap = _max_abs(dev.values - line)
        own_msd = _second_differences(dev.ts, dev.values)
        ok = gap < sizes["kepler_gap_tol"] and msd < MAX_SECOND_DIFFERENCE and own_msd < MAX_SECOND_DIFFERENCE
        return Outcome(ok, silent=not ok, checks={
            "check.kepler_line_gap": gap,
            "check.kepler_max_second_difference": msd,
        })

    # Free fall x = x0 + v0 t + g t^2 / 2 is a geodesic of V = g - c x (v0 + g t),
    # W = c x, because V + W x' = g = x'' along it. Fixed-digit literals keep
    # the expression trees (and so the fieldexpr work) the same for every seed.
    g = f"{rng.uniform(5.0, 15.0):.6f}"
    c = f"{rng.uniform(0.1, 0.5):.6f}"
    x0 = f"{rng.uniform(0.1, 1.0):.6f}"
    v0 = f"{rng.uniform(0.1, 1.0):.6f}"
    config = {
        "scenario": "develop-gravity",
        "model": {"V": f"{g} - {c}*x*({v0} + {g}*t)", "W": f"{c}*x"},
        "trajectory": {"x": f"{x0} + {v0}*t + 0.5*{g}*t^2", "xdot": f"{v0} + {g}*t",
                       "t0": 0.0, "t1": 1.0},
        "integrator": {"step": sizes["cli_step"]},
        "tolerance": sizes["cli_straightness_tol"],
        "output": {"format": "csv"},
    }
    out_dir = work_dir / "develop-gravity"
    summary_path = out_dir / "summary.json"
    warm_summary: list[bytes] = []

    def cli_run():
        return cli.run(config, seed=seed, out_dir=str(out_dir))

    def cli_check(summary) -> Outcome:
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        raw = summary_path.read_bytes()
        table = np.loadtxt(out_dir / "develop-gravity.csv", delimiter=",", skiprows=1, ndmin=2)
        for p in out_dir.iterdir():
            p.unlink()
        if not warm_summary:
            warm_summary.append(raw)
        same = raw == warm_summary[0]
        gap = _max_abs(table[:, 2] - float(v0) * table[:, 0])
        straight = summary["status"] == "STRAIGHT"
        line_ok = gap < sizes["cli_gap_tol"]
        ok = straight and line_ok and same
        return Outcome(
            ok,
            silent=not (line_ok and same) and straight,
            checks={"check.cli_line_gap": gap,
                    "check.cli_max_second_difference": summary["max_second_difference"],
                    "check.cli_summary_identical": float(same)},
            bytes_written=written,
            note="" if ok else f"status {summary['status']}, line gap {gap:.3e}, identical {same}",
        )

    ops = [
        Op("kepler", kepler_run, kepler_check),
        Op("kepler", kepler_run, kepler_check),
        Op("cli-develop-gravity", cli_run, cli_check),
    ]
    return Workload(ops, conns=[kepler.conn])


# ---------------------------------------------------------------------------
# holonomy-grid
# ---------------------------------------------------------------------------

def _holonomy_grid(rng, seed, sizes, work_dir: Path) -> Workload:
    from cartanconn import liegroup as lg
    from cartanconn import models
    from cartanconn import principal as pr
    from cartanconn import transport as tp

    # curved gravity: V = g + k sin(x) (1 + cos(t)/2), W = w t x, so
    # F(d/dt, d/dx) = (dV/dx - dW/dt) eps_v + W eps_b
    g0 = 9.81
    k = float(rng.uniform(0.5, 1.0))
    w = float(rng.uniform(0.2, 0.5))
    gravity = models.galilean_gravity(models.GravityField(
        lambda t, x: g0 + k * math.sin(x) * (1.0 + 0.5 * math.cos(t)),
        lambda t, x: w * t * x,
    ))

    def gravity_curvature(p):
        t, x = p
        out = np.zeros((3, 3))
        out[1, 0] = k * math.cos(x) * (1.0 + 0.5 * math.cos(t)) - w * x
        out[1, 2] = w * t * x
        return out

    # affine: Gamma(x) = C0 + C1 sin(x0) + C2 x1; F has the Riemann tensor
    # d0 Gamma_1 - d1 Gamma_0 + [Gamma_0, Gamma_1] as linear part and the
    # torsion Gamma[:, 1, 0] - Gamma[:, 0, 1] as translation part
    c0, c1, c2 = 0.3 * rng.standard_normal((3, 2, 2, 2))
    affine = models.affine_structure(2, gamma=lambda x: c0 + c1 * math.sin(x[0]) + c2 * x[1])

    def affine_curvature(p):
        gam = c0 + c1 * math.sin(p[0]) + c2 * p[1]
        g_0, g_1 = gam[:, :, 0], gam[:, :, 1]
        out = np.zeros((3, 3))
        out[:2, :2] = c1[:, :, 1] * math.cos(p[0]) - c2[:, :, 0] + g_0 @ g_1 - g_1 @ g_0
        out[:2, 2] = gam[:, 1, 0] - gam[:, 0, 1]
        return out

    families = (
        ("gravity", gravity, np.array([0.2, -0.5]), gravity_curvature),
        ("affine", affine, np.array([-0.5, -0.5]), affine_curvature),
    )
    counter = [0]
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    legs = (e1, e2, -e1, -e2)

    def leg(start, rate, t_start, t_end):
        def x(t):
            counter[0] += 1
            return start + (t - t_start) * rate

        def xdot(t):
            counter[0] += 1
            return rate

        return tp.SmoothPath(t_start, t_end, x, xdot)

    offset = rng.uniform(0.0, 0.1, size=2)
    step = sizes["loop_step"]
    sides = sizes["loop_sides"]
    ops = []
    for i in range(sizes["loops"]):
        label, structure, lower, curvature_fn = families[i % 2]
        d = sides[(i // 2) % len(sides)]
        centre = lower + offset + 0.1 * rng.integers(0, 9, size=2) + 0.05
        corner = centre - 0.5 * d * (e1 + e2)
        f_ref = curvature_fn(centre)
        predicted = -d * d * f_ref
        conn = structure.conn

        def run(conn=conn, corner=corner, d=d, centre=centre):
            # parameter time is arc length, as in transport.square_loop
            pieces, p = [], corner
            for j, rate in enumerate(legs):
                pieces.append(leg(p, rate, j * d, (j + 1) * d))
                p = p + d * rate
            hol = tp.holonomy(conn, tp.PiecewisePath(pieces), step=step)
            return lg.log(hol).mat, pr.curvature(conn, centre, e1, e2).mat

        def check(result, d=d, predicted=predicted, f_ref=f_ref, label=label) -> Outcome:
            log_mat, f_mat = result
            rel = _max_abs(log_mat - predicted) / _max_abs(predicted)
            curv_gap = _max_abs(f_mat - f_ref)
            ok = rel <= HOLONOMY_REL_PER_SIDE * d and curv_gap <= CURVATURE_TOL * max(1.0, _max_abs(f_ref))
            return Outcome(ok, silent=not ok, checks={
                f"check.{label}_holonomy_rel_gap_per_side": rel / d,
                f"check.{label}_curvature_gap": curv_gap,
            })

        ops.append(Op(f"loop-{label}", run, check))
    return Workload(ops, conns=[gravity.conn, affine.conn], path_evals=counter,
                    min_ops=sizes["min_ops"])


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit(rng, seed, sizes, work_dir: Path) -> Workload:
    from cartanconn import liegroup as lg
    from cartanconn import maxwell as mx
    from cartanconn import models
    from cartanconn import principal as pr

    conns = []
    axiom_targets = []
    for name in sorted(models.MODEL_BUILDERS):
        structure = models.build_model(name)
        conns.append(structure.conn)
        axiom_targets.append((name, structure.conn))
    for label, tag, skew in (("gl3", lg.gl_tag(3), False), ("so3", lg.so_tag(3), True)):
        base, slope = 0.3 * rng.standard_normal((2, 2, 3, 3))
        if skew:
            base, slope = base - base.transpose(0, 2, 1), slope - slope.transpose(0, 2, 1)

        def coeff(x, dx, tag=tag, base=base, slope=slope):
            mat = sum(dx[i] * (base[i] + math.sin(x[i]) * slope[i]) for i in range(2))
            return lg.AlgebraElement(tag, mat)

        axiom_targets.append((label, pr.LocalConnection(pr.ChartDomain.unbounded(2), tag, coeff)))

    samples = sizes["axiom_samples"]
    axiom_ops = []
    for label, conn in axiom_targets:
        def run(conn=conn):
            return pr.check_axioms(conn, samples=samples, seed=seed)

        def check(report, label=label) -> Outcome:
            worst = max(report.residual_fundamental, report.residual_equivariance)
            ok = worst < AXIOM_TOL
            return Outcome(ok and report.passed, silent=report.passed and not ok,
                           checks={f"check.axioms_{label}_residual": worst})

        axiom_ops.append(Op(f"axioms-{label}", run, check))

    sigma = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    slope = float(rng.uniform(0.1, 0.5))
    gravity = models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + slope * x))
    structures = (
        ("affine", models.affine_structure(2, sigma0=sigma), "cartan", sigma),
        ("affine-zero", models.affine_structure(2, sigma0=np.zeros((2, 2))), "neither", np.zeros((2, 2))),
        ("gravity", gravity, "cartan", np.eye(2)),
    )
    points = rng.standard_normal((sizes["soldering_points"], 2))
    fast_ops = []
    for label, structure, kind, expected in structures:
        conns.append(structure.conn)

        def cartan_run(structure=structure):
            return structure.is_cartan(samples=sizes["cartan_samples"], seed=seed)

        def cartan_check(report, kind=kind, label=label) -> Outcome:
            ok = report.kind == kind
            return Outcome(ok, silent=not ok, checks={f"check.is_cartan_{label}_min_singular_value":
                                                     report.min_singular_value})

        def solder_run(structure=structure):
            return [structure.soldering_matrix(x) for x in points]

        def solder_check(mats, expected=expected, label=label) -> Outcome:
            gap = max(_max_abs(m - expected) for m in mats)
            ok = gap < SOLDERING_TOL
            return Outcome(ok, silent=not ok, checks={f"check.soldering_{label}_gap": gap})

        fast_ops.append(Op(f"is-cartan-{label}", cartan_run, cartan_check))
        fast_ops.append(Op(f"soldering-{label}", solder_run, solder_check))

    unit = mx.EMConstants(eps0=1.0, mu0=1.0)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    polar = np.cross(direction, rng.standard_normal(3))
    polar /= np.linalg.norm(polar)
    presets = (
        ("plane-wave", mx.preset_plane_wave(unit, k=tuple(rng.uniform(0.5, 1.5) * direction), e0=tuple(polar))),
        ("coulomb", mx.preset_coulomb(unit, q=float(rng.uniform(0.5, 2.0)))),
        ("polynomial", mx.preset_polynomial(unit)),
        ("si-plane-wave", mx.preset_plane_wave(mx.SI)),
    )
    grid = mx.probe_grid([0.0, 0.4], [1.0, 1.4, 1.8])   # the CLI default grid
    for label, fields in presets:
        def run(fields=fields):
            return mx.maxwell_check(*fields, points=grid, h=1e-4)

        def check(report, label=label) -> Outcome:
            # every preset is an exact solution: VIOLATED is a loud failure
            return Outcome(report.satisfied, checks={
                f"check.maxwell_{label}_max_dF": report.max_dF,
                f"check.maxwell_{label}_max_dG": report.max_dG_minus_4piJ,
            }, note="" if report.satisfied else f"{label}: VIOLATED, max dF {report.max_dF:.3e}")

        fast_ops.append(Op(f"maxwell-{label}", run, check))

    # interleave the slow axiom audits with the fast ops
    ops = []
    for i in range(max(len(axiom_ops), len(fast_ops))):
        ops.extend(axiom_ops[i:i + 1] + fast_ops[i:i + 1])
    return Workload(ops, conns=conns, min_ops=sizes["min_ops"])
