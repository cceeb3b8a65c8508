"""Tests for the shipped geometries."""

import dataclasses

import numpy as np
import pytest

from cartanconn import acceptance
from cartanconn import liegroup as lg
from cartanconn import models
from cartanconn import principal as pr
from cartanconn import transport as tp
from cartanconn.errors import (
    DomainError,
    GeometryError,
    PointAtInfinityError,
    SingularFieldError,
)

from conftest import trig_path


# ---------------------------------------------------------------------------
# Axioms on every shipped model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
def test_every_model_passes_axiom_audit(name):
    cs = models.build_model(name)
    report = pr.check_axioms(cs.conn, samples=200, seed=0)
    assert report.passed, (name, report)


def test_homogeneous_specs_validate():
    # projection of the identity, stabilizer fixing the base point, coset
    # sections as right inverses, and the dimension count
    rng = np.random.default_rng(0)
    specs = [
        models.galileo_homogeneous_spec(2),
        models.galileo_homogeneous_spec(3),
        models.affine_homogeneous_spec(2),
        models.affine_homogeneous_spec(3),
        models.projective_homogeneous_spec(2),
        models.mobius_homogeneous_spec(2),
        models.mobius_homogeneous_spec(3),
    ]
    for spec in specs:
        spec.validate(rng)


def test_validate_rejects_a_bad_coset_section():
    spec = models.affine_homogeneous_spec(2)
    shifted = dataclasses.replace(spec, coset_section=lambda zs: spec.coset_section(zs + 0.1))
    with pytest.raises(GeometryError, match="right inverse"):
        shifted.validate()
    sheared = dataclasses.replace(spec, coset_section=lambda zs: spec.coset_section(zs) + 0.1)
    with pytest.raises(GeometryError, match="leaves the group"):
        sheared.validate()
    scaled = dataclasses.replace(spec, coset_section=lambda zs: spec.coset_section(zs) * [2.0, 2.0, 1.0])
    with pytest.raises(GeometryError, match="not the identity"):
        scaled.validate()


# ---------------------------------------------------------------------------
# Galilean gravity
# ---------------------------------------------------------------------------

def printed_gravity_form(V, W, state, velocity):
    """Closed-form connection form of the gravity structure at the frame
    (t, x, v, a, b) on (dt, dx, dv, da, db): the oracle for full_form."""
    t, x, v, a, b = state
    dt, dx, dv, da, db = velocity
    cv = -V(t, x) * dt - W(t, x) * dx + dv
    ca = dt + da
    cb = -(v + a * V(t, x)) * dt + (1.0 - a * W(t, x)) * dx - v * da + db
    return np.array([cv, ca, cb])


def test_gravity_full_form_matches_printed_formula():
    V = lambda t, x: 9.81 + 0.3 * x + 0.1 * t
    W = lambda t, x: 0.2 * np.sin(x)
    cs = models.galilean_gravity(models.GravityField(V, W))
    rng = np.random.default_rng(0)
    for _ in range(200):
        t, x, v, a, b = rng.uniform(-2, 2, size=5)
        dt, dx, dv, da, db = rng.uniform(-2, 2, size=5)
        p = pr.PrincipalPoint([t, x], lg.galileo_element(v, a, b))
        dg = np.zeros((3, 3))
        dg[1, 0], dg[0, 2], dg[1, 2] = dv, da, db
        got = lg.algebra_coords(pr.full_form(cs.conn, p, pr.PrincipalTangent([dt, dx], dg)))
        want = printed_gravity_form(V, W, (t, x, v, a, b), (dt, dx, dv, da, db))
        assert np.max(np.abs(got - want)) < 1e-12


def test_gravity_straightness_criterion_both_directions():
    # development is straight exactly when V + W x' - x'' vanishes
    V = lambda t, x: 2.0 + 0.5 * x
    W = lambda t, x: 0.3
    cs = models.galilean_gravity(models.GravityField(V, W))

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: [y[1], V(t, y[0]) + W(t, y[0]) * y[1]],
        (0.0, 1.0),
        [0.1, 0.2],
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    path = tp.SmoothPath(
        0.0,
        1.0,
        lambda t: np.array([t, sol.sol(t)[0]]),
        lambda t: np.array([1.0, sol.sol(t)[1]]),
    )
    dev = cs.develop_base_path(path, step=1e-3)
    assert dev.max_second_difference() < 1e-5

    crooked = tp.SmoothPath(
        0.0,
        1.0,
        lambda t: np.array([t, sol.sol(t)[0] + 0.05 * np.sin(4 * t)]),
        lambda t: np.array([1.0, sol.sol(t)[1] + 0.2 * np.cos(4 * t)]),
    )
    dev2 = cs.develop_base_path(crooked, step=1e-3)
    assert dev2.max_second_difference() > 1e-2


def test_constant_gravity_curvature_vanishes():
    cs = models.galilean_gravity(models.GravityField.constant(9.81))
    f = pr.curvature(cs.conn, [0.3, 0.7], [1, 0], [0, 1])
    assert f.norm() < 1e-8


def test_gravity_curvature_splits_into_newtonian_part_and_torsion():
    # F(dt, dx) = (dx V - dt W) eps_v + W eps_b: the eps_b part lies in
    # g/g' (the velocity coupling W is torsion), the eps_v part in g'
    V = pr.batched(lambda t, x: 9.81 + 0.7 * np.sin(x) * (1 + np.cos(t) / 2))
    W = pr.batched(lambda t, x: 0.3 * t * x)
    t, x = 0.3, 0.2
    expected = [0.7 * np.cos(x) * (1 + np.cos(t) / 2) - 0.3 * x, 0.0, 0.3 * t * x]
    for field, closed_form in ((models.GravityField(V, W), expected),
                               (models.GravityField(V), [expected[0] + 0.3 * x, 0.0, 0.0])):
        cs = models.galilean_gravity(field)
        f = lg.algebra_coords(pr.curvature(cs.conn, [t, x], [1, 0], [0, 1]))
        assert np.max(np.abs(f - closed_form)) < 1e-8
        # the torsion, the g/g' part of F, is (0, W): zero for V alone
        assert np.max(np.abs(cs.spec.fiber_map @ f - closed_form[1:])) < 1e-8


# ---------------------------------------------------------------------------
# Three-dimensional gravity and the Kepler field
# ---------------------------------------------------------------------------

def test_uniform_motion_develops_straight_3d():
    cs = models.galilean_gravity_3d(lambda t, x, y: np.array([0.0, 0.0]))
    path = tp.SmoothPath(
        0.0,
        1.0,
        lambda t: np.array([t, 0.3 * t, -0.2 * t + 0.5]),
        lambda t: np.array([1.0, 0.3, -0.2]),
    )
    dev = cs.develop_base_path(path, step=1e-3)
    assert dev.max_second_difference() < 1e-9


def test_projectile_parabola_develops_straight():
    g = 9.81
    cs = models.galilean_gravity_3d(lambda t, x, y: np.array([0.0, -g]))
    path = tp.SmoothPath(
        0.0,
        1.0,
        lambda t: np.array([t, 2.0 * t, 3.0 * t - 0.5 * g * t * t]),
        lambda t: np.array([1.0, 2.0, 3.0 - g * t]),
    )
    dev = cs.develop_base_path(path, step=1e-3)
    assert dev.max_second_difference() < 1e-6


def test_kepler_orbit_satisfies_equation_of_motion():
    # finite-difference second derivative against the field: the oracle
    # for the closed-form ellipse
    mu = 1.0
    orbit = models.kepler_orbit(mu=mu, a=1.0, e=0.6)
    accel = models.kepler_acceleration(mu)
    h = 1e-5
    for t in np.linspace(orbit.t0 + 0.1, orbit.t1 - 0.1, 7):
        xpp = (orbit.point(t + h) - 2 * orbit.point(t) + orbit.point(t - h)) / h**2
        expected = accel(t, *orbit.point(t)[1:])
        assert np.max(np.abs(xpp[1:] - expected)) < 1e-4
        assert abs(xpp[0]) < 1e-4


def test_kepler_orbit_shares_one_solve_bit_exactly():
    # x and xdot, called in any order, equal the formulas with their own
    # Newton solve bit for bit
    mu, a, e, t0 = 1.3, 1.1, 0.6, 0.25
    orbit = models.kepler_orbit(mu=mu, a=a, e=e, t0=t0)
    n_mean = np.sqrt(mu / a**3)
    b = a * np.sqrt(1.0 - e * e)

    def anomaly(t):
        m = n_mean * (t - t0)
        ecc = m if e < 0.8 else np.pi
        for _ in range(50):
            delta = (ecc - e * np.sin(ecc) - m) / (1.0 - e * np.cos(ecc))
            ecc -= delta
            if abs(delta) < 1e-15:
                break
        return ecc

    rng = np.random.default_rng(23)
    for t in rng.uniform(orbit.t0, orbit.t1, size=100):
        ecc = anomaly(t)
        rate = n_mean / (1.0 - e * np.cos(ecc))
        x = np.array([t, a * (np.cos(ecc) - e), b * np.sin(ecc)])
        xdot = np.array([1.0, -a * np.sin(ecc) * rate, b * np.cos(ecc) * rate])
        if rng.random() < 0.5:
            assert np.array_equal(orbit.x(t), x) and np.array_equal(orbit.xdot(t), xdot)
        else:
            assert np.array_equal(orbit.xdot(t), xdot) and np.array_equal(orbit.x(t), x)


def test_kepler_development_straight_coarse():
    # coarse-step version of the orbit development (the fine-step run lives
    # in the acceptance suite)
    cs = models.galilean_gravity_3d(models.kepler_acceleration(1.0))
    orbit = models.kepler_orbit(mu=1.0, a=1.0, e=0.6)
    dev = cs.develop_base_path(orbit, step=1e-3)
    assert dev.max_second_difference() < 1e-4


def test_kepler_excluded_disk_raises():
    accel = models.kepler_acceleration(1.0, min_radius=1e-3)
    with pytest.raises(SingularFieldError):
        accel(0.0, 1e-4, 0.0)
    # one point inside the disk fails a whole stack
    with pytest.raises(SingularFieldError):
        accel(np.zeros(3), np.array([1.0, 1e-4, 0.5]), np.zeros(3))


def test_kepler_batched_route_matches_per_point_wrappers():
    # the batched orbit and field against per-point wrappers of each, which
    # the lift calls once per node: every developed node within 1e-12
    orbit = models.kepler_orbit(mu=1.1, a=1.1 ** (1 / 3), e=0.6, t0=0.3)
    accel = models.kepler_acceleration(1.1)
    assert pr.is_batched(orbit.x) and pr.is_batched(orbit.xdot) and pr.is_batched(accel)
    batched = models.galilean_gravity_3d(accel)
    assert pr.is_batched(batched.conn.coeff)
    per_point = models.galilean_gravity_3d(lambda t, x, y: accel(t, x, y))
    assert pr.is_batched(per_point.conn.coeff)   # model maps are always batched
    wrapped = tp.SmoothPath(orbit.t0, orbit.t1, lambda t: orbit.x(t), lambda t: orbit.xdot(t))
    fast = batched.develop_base_path(orbit, step=2e-3)
    slow = per_point.develop_base_path(wrapped, step=2e-3)
    assert np.array_equal(fast.ts, slow.ts)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12
    ts = fast.ts
    assert np.max(np.abs(orbit.points(ts) - np.array([orbit.x(t) for t in ts]))) < 1e-12
    assert np.max(np.abs(orbit.velocities(ts) - np.array([orbit.xdot(t) for t in ts]))) < 1e-12


def test_library_maps_and_paths_are_batched():
    # library code evaluates through pr.stacked; a map or path of its own
    # that lost its declaration would fall back to one call per node
    per_node_paths = [trig_path(np.random.default_rng(1), 2)]
    structures = [models.build_model(name) for name in sorted(models.MODEL_BUILDERS)] + [
        models.affine_structure(2, gamma=lambda x: np.zeros((2, 2, 2)), sigma0=lambda x: np.eye(2)),
        models.galilean_gravity(models.GravityField(lambda t, x: 9.81, lambda t, x: 0.1 * x)),
        models.galilean_gravity_3d(lambda t, x, y: np.array([0.0, -9.81])),
    ]
    assert all(pr.is_batched(cs.conn.coeff) for cs in structures)
    rng = np.random.default_rng(2)
    paths = [tp.line_segment([0.0, 0.0], [1.0, 2.0], 0.0, 1.0), models.kepler_orbit(),
             acceptance._random_smooth_path(rng, 2), acceptance._freefall(), acceptance._perturbed_freefall(),
             *tp.square_loop([0.0, 0.0], 0.5).segments]
    paths += [p.reverse() for p in paths + per_node_paths]
    paths += list(tp.square_loop([0.0, 0.0], 0.5).reverse().segments)
    paths += list(tp.concat(*per_node_paths).reverse().segments)
    assert all(pr.is_batched(p.x) and pr.is_batched(p.xdot) for p in paths)


@pytest.mark.parametrize("error", [SingularFieldError, DomainError])
def test_undeclared_field_error_propagates_unchanged(error):
    # a per-node field raising at one node: the lift stops with its error
    def V(t, x):
        if x > 0.5:
            raise error(f"no field at x = {x}")
        return 9.81

    cs = models.galilean_gravity(models.GravityField(V))
    with pytest.raises(error, match=r"^no field at x = 0\.50"):
        tp.horizontal_lift(cs.conn, tp.line_segment([0.0, 0.0], [0.0, 1.0], 0.0, 1.0), step=1e-3)
    accel = models.kepler_acceleration(1.0, min_radius=0.5)
    per_node = models.galilean_gravity_3d(lambda t, x, y: accel(t, x, y))
    with pytest.raises(SingularFieldError, match="excluded disk"):
        tp.horizontal_lift(per_node.conn, tp.line_segment([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], 0.0, 1.0))


def test_kepler_newton_stops_per_element():
    # near perihelion and near aphelion Newton needs different numbers of
    # iterations; each element of a stack equals its own scalar solve
    orbit = models.kepler_orbit(mu=1.0, a=1.0, e=0.6)
    ts = np.array([0.0, 1e-9, 0.01, 1.0, 2.5, orbit.t1 - 1e-6, orbit.t1])
    stacked = orbit.points(ts)
    for t, row in zip(ts, stacked):
        assert np.max(np.abs(row - orbit.x(t))) < 1e-15


# ---------------------------------------------------------------------------
# Flat homogeneous structures
# ---------------------------------------------------------------------------

def test_flat_transport_is_identity_and_holonomy_trivial():
    cs = models.build_model("homogeneous")
    rng = np.random.default_rng(1)
    path = trig_path(rng, 2)
    z0 = rng.standard_normal(2)
    out = tp.parallel_transport(cs.conn, path, cs.spec, z0, step=1e-2)
    assert np.max(np.abs(out - z0)) < 1e-10
    loop = tp.square_loop([0.2, -0.1], 0.8)
    hol = tp.holonomy(cs.conn, loop, step=1e-2)
    assert np.max(np.abs(hol.mat - np.eye(3))) < 1e-8


def test_flat_development_is_base_path_in_fibre():
    for space in ("galileo", "affine", "projective", "mobius"):
        cs = models._build_homogeneous(space=space)
        rng = np.random.default_rng(2)
        path = trig_path(rng, cs.base_dim, amp=0.3)
        dev = cs.develop_base_path(path, step=1e-2)
        expected = np.array([path.point(t) for t in dev.ts])
        assert np.max(np.abs(dev.values - expected)) < 1e-8


# ---------------------------------------------------------------------------
# Affine structures
# ---------------------------------------------------------------------------

def test_affine_flat_development_translates_segments():
    cs = models.affine_structure(2)
    seg = tp.line_segment([0.5, 1.0], [1.5, 0.0], 0.0, 1.0)
    dev = cs.develop_base_path(seg, step=1e-2)
    expected = np.array([seg.point(t) - seg.point(0.0) for t in dev.ts])
    assert np.max(np.abs(dev.values - expected)) < 1e-9


def test_affine_scaled_endomorphism_soldering():
    cs = models.affine_structure(2, sigma0=2.0)
    w = np.array([0.7, -0.4])
    assert np.allclose(cs.soldering([0.0, 0.0], w), 2.0 * w, atol=1e-12)


def test_affine_classification_matches_invertibility():
    assert models.affine_structure(2).is_cartan(samples=10).kind == "cartan"
    assert models.affine_structure(2, sigma0=np.zeros((2, 2))).is_cartan(samples=10).kind == "neither"
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert models.affine_structure(2, sigma0=singular).is_cartan(samples=10).kind == "neither"


def test_affine_with_linear_connection_coefficients():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.4
    cs = models.affine_structure(2, gamma=gamma)
    assert cs.is_cartan(samples=10).kind == "cartan"
    report = pr.check_axioms(cs.conn, samples=100, seed=3)
    assert report.passed


# ---------------------------------------------------------------------------
# Mobius space
# ---------------------------------------------------------------------------

def null_form(rays):
    """Q(x0, ..., x_{n+1}) = x1^2 + ... + x_{n+1}^2 - x0^2 of a stack of rays."""
    return np.sum(rays[..., 1:] ** 2, axis=-1) - rays[..., 0] ** 2


def test_plane_embedding_lands_on_null_cone():
    rays = models._plane_rays(np.random.default_rng(4).standard_normal((100, 3)))
    assert np.all(np.abs(null_form(rays)) < 1e-10 * np.sum(rays**2, axis=-1))


def test_plane_embedding_of_origin_is_base_point():
    # the ray through (1/2, 0, 0, 1/2) charts to o, which the identity fixes
    spec = models.mobius_homogeneous_spec(2)
    assert np.array_equal(models._plane_rays(spec.origin), [0.5, 0.0, 0.0, 0.5])
    assert np.array_equal(spec.act(np.eye(4), spec.origin), spec.origin)


def test_stereographic_roundtrip():
    spec = models.mobius_homogeneous_spec(2)
    zs = 3.0 * np.random.default_rng(5).standard_normal((100, 2))
    assert np.max(np.abs(spec.act(np.eye(4), zs) - zs)) < 1e-10


def test_excluded_ray_raises_point_at_infinity():
    # the reflection x3 -> -x3 carries o to the ray x0 + x3 = 0
    spec = models.mobius_homogeneous_spec(2)
    with pytest.raises(PointAtInfinityError, match="^Mobius action left the plane chart$"):
        spec.act(np.diag([1.0, 1.0, 1.0, -1.0]), spec.origin)


def test_mobius_action_and_point_chart_agree_and_keep_their_messages():
    # the stacked action is the plane chart of the moved plane ray, point
    # by point, and a stack with one excluded ray raises as a whole
    spec = models.mobius_homogeneous_spec(2)
    rng = np.random.default_rng(11)
    g = lg.random_element(spec.tag, rng, scale=0.5).mat
    zs = rng.standard_normal((6, 2))
    per_point = [models._plane_chart(g @ models._plane_rays(z), "point chart") for z in zs]
    assert np.max(np.abs(spec.act(g, zs) - per_point)) < 1e-12 * np.max(np.abs(per_point))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(PointAtInfinityError, match="^Mobius action left the plane chart$"):
        spec.act(np.stack([np.eye(4), flip]), np.zeros(2))
    with pytest.raises(PointAtInfinityError, match="^point chart$"):
        models._plane_chart(flip @ models._plane_rays(np.zeros(2)), "point chart")


def test_plane_chart_is_south_pole_stereographic_projection():
    # the unit sphere sits on the slice x0 = 1 as the rays through (1, y)
    ys = np.random.default_rng(6).standard_normal((20, 3))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    ys = ys[np.abs(1.0 + ys[:, -1]) >= 1e-6]
    zs = models._plane_chart(np.hstack([np.ones((len(ys), 1)), ys]), "south pole")
    assert np.allclose(zs, ys[:, :-1] / (1.0 + ys[:, -1:]), atol=1e-12)


def test_rotation_equivariance_of_plane_embedding():
    spec = models.mobius_homogeneous_spec(2)
    rng = np.random.default_rng(7)
    qs = np.array([np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(30)])
    zs = rng.standard_normal((30, 2))
    moved = spec.act(np.array([models.mobius_rotation(q).mat for q in qs]), zs)
    assert np.max(np.abs(moved - (qs @ zs[..., None])[..., 0])) < 1e-10


def test_orthogonal_action_preserves_null_cone():
    rng = np.random.default_rng(8)
    tag = lg.orthogonal_tag(3, 1)
    mats = np.array([lg.random_element(tag, rng).mat for _ in range(100)])
    moved = (mats @ models._plane_rays(rng.standard_normal((100, 2)))[..., None])[..., 0]
    assert np.all(np.abs(null_form(moved)) < 1e-9 * np.sum(moved**2, axis=-1))


# ---------------------------------------------------------------------------
# Projective space
# ---------------------------------------------------------------------------

def test_projective_identity_action():
    spec = models.projective_homogeneous_spec(2)
    zs = np.array([[0.2, 1.0], [-0.4, 5.0], [0.0, 0.0]])
    assert np.array_equal(spec.act(np.eye(3), zs), zs)


def test_projective_action_is_homomorphism():
    spec = models.projective_homogeneous_spec(2)
    rng = np.random.default_rng(11)
    g1, g2 = (np.array([lg.random_element(spec.tag, rng).mat for _ in range(100)]) for _ in range(2))
    zs = rng.standard_normal((100, 2))
    lhs = spec.act(g1 @ g2, zs)
    rhs = spec.act(g1, spec.act(g2, zs))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_rejects_unknown_model():
    with pytest.raises(GeometryError):
        models.build_model("nonexistent")


def test_registry_builds_all_models():
    for name in models.MODEL_BUILDERS:
        cs = models.build_model(name)
        assert cs.conn.domain.dim == cs.spec.fiber_dim
