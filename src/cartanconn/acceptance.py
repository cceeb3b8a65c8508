"""Acceptance suite: the library's end-to-end checks as plain functions.

Each criterion returns a :class:`CriterionResult`; :func:`run_all` executes
the whole battery. The test-suite wrapper asserts every criterion and the
command-line runner prints the same table under ``--selftest``, so the
battery is executable without a test harness. A NaN reading fails its
criterion: every guard reads ``not (x < bound)`` and every worst value is a
NaN-propagating maximum.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import liegroup as lg
from . import maxwell as mx
from . import models
from . import principal as pr
from . import transport as tp
from ._records import ValueRecord, set_field
from .errors import PointAtInfinityError


class CriterionResult(ValueRecord):
    _fields = ("number", "name", "passed", "detail", "elapsed", "budget")

    def __init__(self, number: int, name: str, passed: bool, detail: str, elapsed: float, budget: float):
        set_field(self, "number", number)
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)
        set_field(self, "elapsed", elapsed)
        set_field(self, "budget", budget)

    @property
    def in_budget(self) -> bool:
        return self.elapsed < self.budget

    def line(self) -> str:
        status = "PASS" if (self.passed and self.in_budget) else "FAIL"
        return (
            f"[{status}] {self.number:2d} {self.name:28s} "
            f"{self.detail}  ({self.elapsed:.2f}s / budget {self.budget:.0f}s)"
        )


def _run(number: int, name: str, budget: float, fn: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    return CriterionResult(number, name, passed, detail, elapsed, budget)


def _random_smooth_path(rng: np.random.Generator, dim: int, amp: float = 0.4) -> tp.SmoothPath:
    base = rng.standard_normal(dim)
    modes = 3
    a = amp * rng.standard_normal((modes, dim)) / np.arange(1, modes + 1)[:, None]
    b = amp * rng.standard_normal((modes, dim)) / np.arange(1, modes + 1)[:, None]
    ks = np.arange(1, modes + 1)
    omega = 2 * np.pi

    @pr.batched
    def x(t):
        phase = np.multiply.outer(t, ks * omega)
        return base + np.sin(phase) @ a + np.cos(phase) @ b

    @pr.batched
    def xdot(t):
        phase = np.multiply.outer(t, ks * omega)
        return omega * ((ks * np.cos(phase)) @ a - (ks * np.sin(phase)) @ b)

    return tp.SmoothPath(0.0, 1.0, x, xdot)


def _freefall(g0: float = 9.81) -> tp.SmoothPath:
    return _perturbed_freefall(g0, amp=0.0)   # adding 0.0 leaves every value bit for bit


def _perturbed_freefall(g0: float = 9.81, amp: float = 0.1, freq: float = 5.0) -> tp.SmoothPath:
    return tp.SmoothPath(
        0.0,
        1.0,
        pr.batched(lambda t: np.stack([t, 0.5 * g0 * t * t + amp * np.sin(freq * t)], axis=-1)),
        pr.batched(lambda t: np.stack([np.ones_like(t), g0 * t + amp * freq * np.cos(freq * t)], axis=-1)),
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1_connection_axioms(seed: int = 0) -> CriterionResult:
    """Both connection-form axioms hold on 1000 samples for every model."""

    def body():
        worst = 0.0
        for name in sorted(models.MODEL_BUILDERS):
            cs = models.build_model(name)
            report = pr.check_axioms(cs.conn, samples=1000, seed=seed)
            worst = float(np.max([worst, report.residual_fundamental, report.residual_equivariance]))
            if not (report.residual_fundamental < 1e-8 and report.residual_equivariance < 1e-8):
                return False, f"{name}: residuals {report.residual_fundamental:.2e} / {report.residual_equivariance:.2e}"
        return True, f"worst residual {worst:.2e} < 1e-8"

    return _run(1, "connection-form axioms", 5.0, body)


def criterion_2_flat_model(seed: int = 0) -> CriterionResult:
    """Flat model: transport is the identity, developments reproduce paths."""

    def body():
        cs = models.build_model("homogeneous")
        rng = np.random.default_rng(seed)
        worst_transport = 0.0
        worst_dev = 0.0
        for _ in range(20):
            path = _random_smooth_path(rng, 2)
            z0 = rng.standard_normal(2)
            lifted = tp.horizontal_lift(cs.conn, path, 5e-3)   # one lift for both
            moved = cs.spec.act(lifted.mats[-1], z0)
            worst_transport = float(np.maximum(worst_transport, np.max(np.abs(moved - z0))))
            dev = cs._develop_lift(lifted)
            worst_dev = float(np.maximum(worst_dev, np.max(np.abs(dev.values - dev.points))))
        ok = worst_transport < 1e-8 and worst_dev < 1e-8
        return ok, f"transport gap {worst_transport:.2e}, development gap {worst_dev:.2e} < 1e-8"

    return _run(2, "flat homogeneous model", 10.0, body)


def criterion_3_freefall_development(seed: int = 0) -> CriterionResult:
    """Free fall develops straight; a perturbed trajectory does not."""

    def body():
        cs = models.galilean_gravity(models.GravityField.constant(9.81))
        straight = cs.develop_base_path(_freefall(), step=1e-3).max_second_difference()
        crooked = cs.develop_base_path(_perturbed_freefall(), step=1e-3).max_second_difference()
        ok = straight < 1e-6 and crooked > 1e-2
        return ok, f"straight {straight:.2e} < 1e-6, perturbed {crooked:.2e} > 1e-2"

    return _run(3, "free-fall development", 5.0, body)


def criterion_4_integrability(seed: int = 0) -> CriterionResult:
    """Constant gravity is integrable; a gradient produces the holonomy the
    curvature predicts."""

    def body():
        flat = models.galilean_gravity(models.GravityField.constant(9.81))
        hol_flat = tp.holonomy(flat.conn, tp.square_loop([0.0, 0.0], 0.5), step=1e-3)
        flat_norm = lg.log(hol_flat).norm()
        if not flat_norm < 1e-7:
            return False, f"constant-V loop log norm {flat_norm:.2e}"

        k, d = 0.3, 0.1
        curved = models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + k * x))
        hol = tp.holonomy(curved.conn, tp.square_loop([0.0, 0.0], d), step=1e-3)
        measured = lg.algebra_coords(lg.log(hol))
        predicted = -(d ** 2) * lg.algebra_coords(
            pr.curvature(curved.conn, [0.0, 0.0], [1, 0], [0, 1])
        )
        rel = abs(measured[0] - predicted[0]) / abs(predicted[0])
        ok = rel < 0.05 and flat_norm < 1e-7
        return ok, (
            f"flat log {flat_norm:.2e} < 1e-7; boost coefficient "
            f"{measured[0]:.4e} vs prediction {predicted[0]:.4e} (rel {rel:.2%} < 5%)"
        )

    return _run(4, "integrability dichotomy", 10.0, body)


def criterion_5_soldering(seed: int = 0) -> CriterionResult:
    """Soldering is choice-independent and matches the development velocity."""

    def body():
        cs = models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + 0.3 * x))
        # per base point: x, w, then 5 choices of g' and of the vertical
        k = len(cs.spec.stabilizer_basis)
        draws = np.random.default_rng(seed).standard_normal((100, 4 + 10 * k))
        xs, ws = np.repeat(draws[:, :2], 5, axis=0), np.repeat(draws[:, 2:4], 5, axis=0)
        choices = draws[:, 4:].reshape(500, 2, k)
        values = cs.soldering_with_choices(xs, ws, cs.spec._stabilizer_elements(choices[:, 0], scale=0.5),
                                           cs.spec._stabilizer_algebra(choices[:, 1], scale=0.5))
        worst = float(np.max(np.abs(values - cs.soldering(xs, ws))))
        if not worst < 1e-9:
            return False, f"construction choices disagree by {worst:.2e}"

        path = _perturbed_freefall()
        dev = cs.develop_base_path(path, step=1e-3)
        sigma_w = cs.soldering(path.point(0.0), path.velocity(0.0))
        tangency = float(np.max(np.abs(dev.initial_tangent - sigma_w)))
        ok = tangency < 1e-6
        return ok, f"choice spread {worst:.2e} < 1e-9, tangency gap {tangency:.2e} < 1e-6"

    return _run(5, "soldering isomorphism", 10.0, body)


def criterion_6_affine_criterion(seed: int = 0) -> CriterionResult:
    """Invertible endomorphism = Cartan; zero endomorphism = neither;
    soldering returns the endomorphism."""

    def body():
        good = models.affine_structure(2)
        bad = models.affine_structure(2, sigma0=np.zeros((2, 2)))
        kind_good = good.is_cartan(samples=20, seed=seed).kind
        kind_bad = bad.is_cartan(samples=20, seed=seed).kind
        if kind_good != "cartan" or kind_bad != "neither":
            return False, f"classifications {kind_good} / {kind_bad}"
        sigma = np.array([[1.5, 0.25], [-0.5, 2.0]])
        cs = models.affine_structure(2, sigma0=sigma)
        rng = np.random.default_rng(seed)
        worst = float(np.max(np.abs(cs.soldering_matrix(rng.standard_normal((20, 2))) - sigma)))
        ok = worst < 1e-9
        return ok, f"id->cartan, 0->neither, soldering gap {worst:.2e} < 1e-9"

    return _run(6, "affine criterion", 5.0, body)


def criterion_7_conformal_model(seed: int = 0) -> CriterionResult:
    """Null cone of the plane rays, rotation equivariance and roundtrip of
    the Mobius action on its plane chart, and the excluded ray."""

    def body():
        rng = np.random.default_rng(seed)
        spec = models.mobius_homogeneous_spec(2)
        zs, rots = [], []
        for _ in range(100):
            zs.append(2.0 * rng.standard_normal(2))
            rots.append(np.linalg.qr(rng.standard_normal((2, 2)))[0])
        zs, rots = np.array(zs), np.array(rots)
        rays = models._plane_rays(zs)
        rays = rays / np.max(np.abs(rays), axis=-1, keepdims=True)
        worst_q = float(np.max(np.abs(np.sum(rays[:, 1:] ** 2, axis=-1) - rays[:, 0] ** 2)))
        moved = spec.act(np.array([models.mobius_rotation(q).mat for q in rots]), zs)
        worst_eq = float(np.max(np.abs(moved - (rots @ zs[..., None])[..., 0])))
        worst_rt = float(np.max(np.abs(spec.act(np.eye(4), zs) - zs)))
        try:
            # the reflection x3 -> -x3 carries o to the ray x0 + x3 = 0
            spec.act(np.diag([1.0, 1.0, 1.0, -1.0]), spec.origin)
            return False, "excluded ray failed to raise"
        except PointAtInfinityError:
            pass
        ok = worst_q < 1e-10 and worst_eq < 1e-10 and worst_rt < 1e-10
        return ok, (
            f"Q {worst_q:.2e}, equivariance {worst_eq:.2e}, "
            f"roundtrip {worst_rt:.2e} < 1e-10; excluded ray raises"
        )

    return _run(7, "conformal model space", 2.0, body)


def criterion_8_maxwell(seed: int = 0) -> CriterionResult:
    """Component dictionary, plane-wave residuals, constitutive identity."""

    def body():
        rng = np.random.default_rng(seed)
        # polynomial dictionary at 1e-8
        E = (
            lambda t, x1, x2, x3: x2 * x2,
            lambda t, x1, x2, x3: t * x3,
            lambda t, x1, x2, x3: x1 * x2,
        )
        B = (
            lambda t, x1, x2, x3: x3 * x3,
            lambda t, x1, x2, x3: x1 * x1,
            lambda t, x1, x2, x3: t * x3,
        )
        form = mx.build_F(E, B)
        points = rng.uniform(-2, 2, size=(50, 4))
        t, x1, x2, x3 = points.T
        expected = np.stack([t, x1 - t, -x2, -2 * x2 + x3], axis=-1)
        worst_dict = float(np.max(np.abs(mx.d_numeric(form, points) - expected)))
        if not worst_dict < 1e-8:
            return False, f"dictionary gap {worst_dict:.2e}"

        constants = mx.EMConstants(eps0=1.0, mu0=1.0)
        # skew wave vector so the finite-difference errors cannot cancel
        fields = mx.preset_plane_wave(constants, k=(0.6, 0.5, 0.3), e0=(0.5, -0.6, 0.0))
        F = mx.build_F(fields[0], fields[1])
        G = mx.build_G(fields[2], fields[3])
        points = rng.uniform(-2, 2, size=(30, 4))
        worst_wave = float(np.max(np.abs([mx.d_numeric(form, points, h=1e-4) for form in (F, G)])))
        if not worst_wave < 1e-6:
            return False, f"plane-wave residual {worst_wave:.2e}"

        odd = mx.EMConstants(eps0=0.8, mu0=1.25)
        gaps = []
        for _ in range(100):
            e = rng.standard_normal(3)
            b = rng.standard_normal(3)
            lhs = mx.build_G(odd.eps0 * e, b / odd.mu0)((0, 0, 0, 0))
            rhs = odd.impedance_ratio * mx.hodge_matrix(odd.alpha) @ mx.build_F(e, b)((0, 0, 0, 0))
            gaps.append(np.max(np.abs(lhs - rhs)))
        worst_const = float(np.max(gaps))
        ok = worst_const < 1e-10
        return ok, (
            f"dictionary {worst_dict:.2e} < 1e-8, plane wave {worst_wave:.2e} < 1e-6, "
            f"constitutive {worst_const:.2e} < 1e-10"
        )

    return _run(8, "Maxwell reformulation", 10.0, body)


def criterion_9_kepler(seed: int = 0) -> CriterionResult:
    """Half-period Kepler orbit develops straight at fine step."""

    def body():
        cs = models.galilean_gravity_3d(models.kepler_acceleration(1.0))
        orbit = models.kepler_orbit(mu=1.0, a=1.0, e=0.6)
        dev = cs.develop_base_path(orbit, step=1e-4)
        gap = dev.max_second_difference()
        return gap < 1e-4, f"max second difference {gap:.2e} < 1e-4 (step 1e-4)"

    return _run(9, "Kepler development", 60.0, body)


def criterion_10_integrator_order(seed: int = 0) -> CriterionResult:
    """Halving the lift step cuts the endpoint error by about 16."""

    def body():
        cs = models.galilean_gravity(models.GravityField.constant(9.81))
        path = _perturbed_freefall()
        ref = tp.horizontal_lift(cs.conn, path, step=1.25e-3).end.mat
        errors = [
            float(np.max(np.abs(tp.horizontal_lift(cs.conn, path, step=s).end.mat - ref)))
            for s in (1e-2, 5e-3)
        ]
        factor = errors[0] / errors[1]
        return 12.0 <= factor <= 20.0, f"error reduction factor {factor:.2f} in [12, 20]"

    return _run(10, "integrator order", 10.0, body)


ALL_CRITERIA = (
    criterion_1_connection_axioms,
    criterion_2_flat_model,
    criterion_3_freefall_development,
    criterion_4_integrability,
    criterion_5_soldering,
    criterion_6_affine_criterion,
    criterion_7_conformal_model,
    criterion_8_maxwell,
    criterion_9_kepler,
    criterion_10_integrator_order,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run the whole battery and return one result per criterion."""
    return [criterion(seed) for criterion in ALL_CRITERIA]
