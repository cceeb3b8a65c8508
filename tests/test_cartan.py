"""Tests for Cartan structures: reductions, induced forms, soldering,
classification, development, parallelization."""

import dataclasses

import numpy as np
import pytest
from numpy.exceptions import ComplexWarning

from cartanconn import liegroup as lg
from cartanconn import models
from cartanconn import principal as pr
from cartanconn.cartan import CartanStructure
from cartanconn.errors import GeometryError, NotCartanError

from conftest import freefall_path, perturbed_freefall_path, trig_path


@pytest.fixture(scope="module")
def gravity():
    return models.galilean_gravity(models.GravityField.constant(9.81))


@pytest.fixture(scope="module")
def gradient_gravity():
    return models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + 0.3 * x))


@pytest.fixture(scope="module")
def flat_galileo():
    return models.homogeneous_flat(models.galileo_homogeneous_spec(2))


# ---------------------------------------------------------------------------
# Reduction membership and induced form
# ---------------------------------------------------------------------------

def test_reduction_membership_default_section(gravity):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2)
    boost = lg.exp(gravity.spec.random_stabilizer_algebra(rng))
    assert gravity.in_reduction(pr.PrincipalPoint(x, boost))
    mover = lg.galileo_element(0.0, 0.5, 0.0)  # moves the fibre base point
    assert not gravity.in_reduction(pr.PrincipalPoint(x, mover))


def test_induced_form_on_stabilizer_vertical_returns_generator(gravity):
    # vertical tangents from the subgroup algebra are reproduced exactly
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(2)
        gp = gravity.spec.random_stabilizer_element(rng)
        p = pr.PrincipalPoint(x, gp)
        eta = gravity.spec.random_stabilizer_algebra(rng)
        v = pr.fundamental_vector(eta, p)
        assert (gravity.induced_form(p, v) - eta).norm() < 1e-10


def test_induced_form_values_leave_subalgebra(gravity):
    # on base directions the induced form picks up time/space translations
    p = pr.PrincipalPoint([0.0, 0.0], lg.identity(lg.GALILEO2))
    v = pr.PrincipalTangent([1.0, 0.0], np.zeros((3, 3)))
    out = gravity.induced_form(p, v)
    coords = lg.algebra_coords(out)
    assert abs(coords[1]) > 0.5  # time-translation component present


def test_induced_form_zero_tangent(gravity):
    p = pr.PrincipalPoint([0.2, 0.1], lg.identity(lg.GALILEO2))
    v = pr.PrincipalTangent(np.zeros(2), np.zeros((3, 3)))
    assert gravity.induced_form(p, v).norm() == 0.0


def test_induced_form_is_maurer_cartan_on_flat_structure(flat_galileo):
    # the reduction of the flat structure is a copy of the group and the
    # induced form is the left-invariant pairing: tangent g xi evaluates to xi
    cs = flat_galileo
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = lg.random_element(cs.spec.tag, rng)
        x = cs.spec.act(g.mat, cs.spec.origin)
        xi = lg.random_algebra(cs.spec.tag, rng)
        dx = cs.spec.push(g.mat) @ lg.algebra_coords(xi)
        v = pr.PrincipalTangent(dx, g.mat @ xi.mat)
        p = pr.PrincipalPoint(x, g)
        assert cs.in_reduction(p)
        assert (cs.induced_form(p, v) - xi).norm() < 1e-9


def test_induced_form_rejects_nonmember(gravity):
    p = pr.PrincipalPoint([0.0, 0.0], lg.galileo_element(0.0, 1.0, 2.0))
    v = pr.PrincipalTangent(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(GeometryError):
        gravity.induced_form(p, v)


def test_induced_form_rejects_nontangent(gravity):
    p = pr.PrincipalPoint([0.0, 0.0], lg.identity(lg.GALILEO2))
    # group velocity along eps_a leaves the reduction
    v = pr.PrincipalTangent(np.zeros(2), lg.galileo_algebra(0.0, 1.0, 0.0).mat)
    with pytest.raises(GeometryError):
        gravity.induced_form(p, v)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_gravity_classifies_cartan(gradient_gravity):
    report = gradient_gravity.is_cartan(samples=20, seed=0)
    assert report.kind == "cartan"
    assert report.min_singular_value > 1e-8


def test_flat_structures_classify_cartan(flat_galileo):
    assert flat_galileo.is_cartan(samples=20, seed=1).kind == "cartan"


def test_zero_endomorphism_classifies_neither():
    cs = models.affine_structure(2, sigma0=np.zeros((2, 2)))
    report = cs.is_cartan(samples=10, seed=2)
    assert report.kind == "neither"
    assert report.min_singular_value < 1e-8


def test_generalized_structure_flagged():
    # base of dimension 1 inside a fibre of dimension 2: kernel-free but
    # not dimension-matched
    spec = models.galileo_homogeneous_spec(2)
    domain = pr.ChartDomain.unbounded(1)
    conn = pr.LocalConnection(
        domain,
        spec.tag,
        lambda x, d: lg.galileo_algebra(0.0, d[0], 0.3 * d[0]),
    )
    cs = CartanStructure("thin-base", spec, conn)
    assert cs.is_cartan(samples=10, seed=3).kind == "generalized"


SIGMA = np.array([[1.2, 0.3], [-0.4, 0.9]])
FORM_STRUCTURES = {
    "affine-sigma": lambda: models.affine_structure(2, sigma0=SIGMA),
    "affine-zero": lambda: models.affine_structure(2, sigma0=np.zeros((2, 2))),
    "gravity": lambda: models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + 0.3 * x)),
    **{name: lambda name=name: models.build_model(name) for name in models.MODEL_BUILDERS},
}


def column_by_column(conn, p, tangents):
    """Algebra coordinates of the form on each tangent, one full_form call per column."""
    return np.column_stack([lg.algebra_coords(pr.full_form(conn, p, v, check_domain=False)) for v in tangents])


@pytest.mark.parametrize("name", sorted(FORM_STRUCTURES))
def test_reduced_form_matrix_matches_column_by_column_reference(name):
    cs = FORM_STRUCTURES[name]()
    rng = np.random.default_rng(14)
    m = cs.base_dim
    for _ in range(10):
        x = cs.conn.domain.sample(rng)
        gprime = cs.spec.random_stabilizer_element(rng)
        frame = lg.GroupElement(cs.spec.tag, cs._frames(x[None])[0])
        p = pr.PrincipalPoint(x, lg.compose(frame, gprime))
        framed = frame.mat @ gprime.mat
        # for PGL the point is framed scaled to its normalized representative;
        # tangents at it scale alike (the least-squares ratio is exact here)
        scale = np.vdot(p.g.mat, framed) / np.vdot(framed, framed)
        tangents = [pr.PrincipalTangent(w, scale * cs._frame_derivatives(x[None], w[None])[0] @ gprime.mat)
                    for w in np.eye(m)]
        tangents += [pr.PrincipalTangent(np.zeros(m), scale * framed @ eta.mat) for eta in cs.spec.stabilizer_basis]
        expected = column_by_column(cs.conn, p, tangents)
        assert np.allclose(cs.reduced_form_matrix(x[None], gprime.mat[None])[0], expected, rtol=0.0, atol=1e-14)


def test_reduced_form_matrix_of_a_stack_matches_each_point():
    cs = FORM_STRUCTURES["projective"]()
    rng = np.random.default_rng(16)
    xs = 2.0 * rng.standard_normal((6, cs.base_dim))
    gps = np.array([cs.spec.random_stabilizer_element(rng).mat for _ in xs])
    stack = cs.reduced_form_matrix(xs, gps)
    assert stack.shape == (6, lg.algebra_dim(cs.spec.tag), cs.base_dim + len(cs.spec.stabilizer_basis))
    for x, gp, matrix in zip(xs, gps, stack):
        assert np.array_equal(cs.reduced_form_matrix(x[None], gp[None])[0], matrix)


@pytest.mark.parametrize("name", ["affine", "affine-sigma", "gravity", "projective"])
def test_horizontal_space_dimension_matches_column_by_column_reference(name, monkeypatch):
    cs = FORM_STRUCTURES[name]()
    conn, rng = cs.conn, np.random.default_rng(15)
    m, svd, seen = cs.base_dim, np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
    for _ in range(10):
        p = pr.PrincipalPoint(conn.domain.sample(rng), lg.random_element(conn.tag, rng))
        tangents = [pr.PrincipalTangent(w, np.zeros_like(p.g.mat)) for w in np.eye(m)]
        tangents += [pr.fundamental_vector(eta, p) for eta in lg.algebra_basis(conn.tag)]
        expected = column_by_column(conn, p, tangents)
        seen.clear()
        assert pr.horizontal_space_dimension(conn, p) == m
        assert np.allclose(seen[-1], expected, rtol=0.0, atol=1e-14)


# kind and smallest singular value of the column-by-column classification
# (20 samples, seed 11); the stacked evaluation reproduces them
CLASSIFICATIONS = [
    ("affine", "cartan", 0.6074771679866998),
    ("affine-zero", "neither", 0.0),
    ("gravity", "cartan", 0.09626141422453093),
    ("galilean", "cartan", 0.10077084978840996),
    ("galilean3d", "cartan", 0.10077084978841),
    ("homogeneous", "cartan", 0.7807764064044153),
    ("mobius", "cartan", 0.8904522603671603),
    ("projective", "cartan", 0.5331750552140108),
]


@pytest.mark.parametrize("name, kind, smallest", CLASSIFICATIONS, ids=[c[0] for c in CLASSIFICATIONS])
def test_is_cartan_keeps_its_classification(name, kind, smallest):
    report = FORM_STRUCTURES[name]().is_cartan(samples=20, seed=11)
    assert report.kind == kind
    assert abs(report.min_singular_value - smallest) <= 1e-14


def test_affine_sigma_structure_solders_by_its_endomorphism():
    cs = FORM_STRUCTURES["affine-sigma"]()
    rng = np.random.default_rng(17)
    for _ in range(5):
        assert np.allclose(cs.soldering_matrix(cs.conn.domain.sample(rng)), SIGMA, rtol=0.0, atol=1e-12)
    assert cs.is_cartan(samples=20, seed=11).kind == "cartan"


def test_classification_needs_a_sample(gravity):
    with pytest.raises(ValueError, match="at least one sample"):
        gravity.is_cartan(samples=0)


def test_classification_stable_under_refinement():
    for name in models.MODEL_BUILDERS:
        cs = models.build_model(name)
        kinds = {cs.is_cartan(samples=s, seed=4).kind for s in (10, 20)}
        assert len(kinds) == 1


# ---------------------------------------------------------------------------
# Soldering
# ---------------------------------------------------------------------------

def test_gravity_soldering_is_identity(gradient_gravity):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.allclose(gradient_gravity.soldering_matrix(x), np.eye(2), atol=1e-10)


def test_affine_soldering_reproduces_endomorphism():
    sigma = np.array([[2.0, 0.5], [-0.3, 1.5]])
    cs = models.affine_structure(2, sigma0=sigma)
    rng = np.random.default_rng(6)
    for _ in range(10):
        assert np.allclose(cs.soldering_matrix(rng.standard_normal(2)), sigma, atol=1e-9)


def test_soldering_linear_and_zero(gravity):
    x = np.array([0.4, -0.1])
    assert np.max(np.abs(gravity.soldering(x, np.zeros(2)))) == 0.0
    w1, w2 = np.array([1.0, 2.0]), np.array([-0.5, 0.3])
    lhs = gravity.soldering(x, 2.0 * w1 + w2)
    rhs = 2.0 * gravity.soldering(x, w1) + gravity.soldering(x, w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_soldering_matrix_invertible_on_cartan_models():
    rng = np.random.default_rng(12)
    for name in models.MODEL_BUILDERS:
        cs = models.build_model(name)
        for _ in range(5):
            matrix = cs.soldering_matrix(cs.conn.domain.sample(rng, scale=0.5))
            smallest = np.linalg.svd(matrix, compute_uv=False)[-1]
            assert smallest > 1e-8, name


def test_soldering_matrix_matches_per_direction_soldering():
    # one form evaluation on all base directions against the column-by-
    # column definition
    rng = np.random.default_rng(13)
    structures = [models.build_model(name) for name in sorted(models.MODEL_BUILDERS)]
    structures.append(models.affine_structure(2, sigma0=rng.standard_normal((2, 2))))
    for cs in structures:
        for _ in range(5):
            x = cs.conn.domain.sample(rng, scale=0.5)
            reference = np.column_stack([cs.soldering(x, w) for w in np.eye(cs.base_dim)])
            assert np.max(np.abs(cs.soldering_matrix(x) - reference)) < 1e-14, cs.spec.name


@pytest.mark.parametrize("model", ["galilean", "affine", "homogeneous", "mobius", "projective"])
def test_soldering_independent_of_choices(model):
    # the defining formula uses an arbitrary reduction point and an
    # arbitrary lift of the base tangent; all choices must agree
    cs = models.build_model(model)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = cs.conn.domain.sample(rng, scale=0.5)
        w = rng.standard_normal(cs.base_dim)
        reference = cs.soldering(x, w)
        for _ in range(5):
            gp = cs.spec.random_stabilizer_element(rng, scale=0.4)
            eta = cs.spec.random_stabilizer_algebra(rng, scale=0.4)
            value = cs.soldering_with_choices(x, w, gp, eta)
            assert np.max(np.abs(value - reference)) < 1e-9


# ---------------------------------------------------------------------------
# Development of base paths
# ---------------------------------------------------------------------------

def test_freefall_develops_straight(gravity):
    dev = gravity.develop_base_path(freefall_path(), step=1e-3)
    assert dev.max_second_difference() < 1e-6


def test_perturbed_freefall_develops_crooked(gravity):
    dev = gravity.develop_base_path(perturbed_freefall_path(), step=1e-3)
    assert dev.max_second_difference() > 1e-2


def test_tangency_identity(gradient_gravity):
    # the initial velocity of the development equals the soldering image of
    # the initial base velocity
    path = perturbed_freefall_path()
    dev = gradient_gravity.develop_base_path(path, step=1e-3)
    sigma_w = gradient_gravity.soldering(path.point(0.0), path.velocity(0.0))
    assert np.max(np.abs(dev.initial_tangent - sigma_w)) < 1e-6


def test_flat_development_reproduces_base_path(flat_galileo):
    rng = np.random.default_rng(8)
    for _ in range(5):
        path = trig_path(rng, 2)
        dev = flat_galileo.develop_base_path(path, step=1e-2)
        expected = np.array([path.point(t) for t in dev.ts])
        assert np.max(np.abs(dev.values - expected)) < 1e-8


def test_shipped_models_match_dimension_condition():
    for name in models.MODEL_BUILDERS:
        cs = models.build_model(name)
        assert cs.base_dim == cs.spec.fiber_dim


SPECS = [
    models.galileo_homogeneous_spec(2),
    models.galileo_homogeneous_spec(3),
    models.affine_homogeneous_spec(2),
    models.affine_homogeneous_spec(3),
    models.projective_homogeneous_spec(2),
    models.projective_homogeneous_spec(3),
    models.mobius_homogeneous_spec(2),
    models.mobius_homogeneous_spec(3),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_projection_of_a_stack_is_the_action_on_the_origin(spec):
    # develop_base_path projects all node matrices by one act call at o, and
    # develop_total_path moves all fibre points by one act call: the stacked
    # action must equal the action row by row, bit for bit
    rng = np.random.default_rng(14)
    mats = np.stack([lg.random_element(spec.tag, rng, scale=0.6).mat for _ in range(25)])
    points = 0.5 * rng.standard_normal((25, spec.fiber_dim))
    projected = spec.act(mats, spec.origin)
    moved = spec.act(mats, points)
    assert projected.shape == moved.shape == (25, spec.fiber_dim)
    for mat, point, row, moved_row in zip(mats, points, projected, moved):
        assert np.array_equal(row, spec.act(mat, spec.origin))
        assert np.array_equal(moved_row, spec.act(mat, point))
    # one matrix against a stack of points broadcasts the same way
    assert np.array_equal(spec.act(mats[0], points), np.array([spec.act(mats[0], p) for p in points]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_act_jacobian_matches_central_difference(spec):
    # the soldering map pushes through spec.push, the Jacobian of act along
    # the group at o: column i is d/ds act(g expm(s b_i), o) at s = 0
    rng = np.random.default_rng(15)
    h = 1e-6
    basis = lg.algebra_basis_matrices(spec.tag)
    mats = np.stack([lg.random_element(spec.tag, rng, scale=0.6).mat for _ in range(5)])
    pushed = spec.push(mats)
    assert pushed.shape == (5, spec.fiber_dim, len(basis))
    for mat, push in zip(mats, pushed):
        ahead = spec.act(mat @ lg.expm_matrix(spec.tag, h * basis), spec.origin)
        behind = spec.act(mat @ lg.expm_matrix(spec.tag, -h * basis), spec.origin)
        assert np.max(np.abs(push - (ahead - behind).T / (2 * h))) < 1e-7


def test_fiber_map_is_the_projection_on_algebra_coordinates():
    # the derived fibre maps equal the matrices the spaces used to spell out
    def galileo(dim):
        return np.hstack([np.zeros((dim, dim - 1)), np.eye(dim)])

    def affine(n):
        return np.hstack([np.zeros((n, n * n)), np.eye(n)])

    def projective(n):
        return np.column_stack([b.mat[1:, 0] for b in lg.algebra_basis(lg.pgl_tag(n))])

    def mobius(n):
        # the stereographic Jacobian at o = [1, 0, ..., 0, 1] on xi o
        return np.column_stack([b.mat[1:-1, 0] + b.mat[1:-1, -1] for b in lg.algebra_basis(lg.orthogonal_tag(n + 1, 1))]) / 2

    expected = [galileo(2), galileo(3), affine(2), affine(3), projective(2), projective(3), mobius(2), mobius(3)]
    for spec, fiber_map in zip(SPECS, expected):
        assert np.array_equal(spec.fiber_map, fiber_map), spec.name
        assert np.array_equal(spec.push(np.eye(spec.tag.size)), fiber_map), spec.name


def test_fiber_map_rejects_an_act_that_drops_imaginary_parts():
    # an act that casts to float passes validate, but its derivative is zero
    spec = models.affine_homogeneous_spec(2)
    real = dataclasses.replace(spec, act=lambda mats, points: spec.act(np.asarray(mats, dtype=float), points))
    real.validate()
    with pytest.warns(ComplexWarning), pytest.raises(GeometryError, match="^affine2/linear: .* rank 2$"):
        real.fiber_map


@pytest.mark.parametrize("space", ["galileo", "affine", "projective", "mobius"])
def test_flat_soldering_is_the_identity(space):
    # the flat structure develops every path to itself, so the soldering
    # map, the initial velocity of the development, is the identity
    cs = models._build_homogeneous(space=space)
    rng = np.random.default_rng(16)
    for x in 0.5 * rng.standard_normal((5, cs.base_dim)):
        # the projective coset derivative is a central difference
        assert np.max(np.abs(cs.soldering_matrix(x) - np.eye(cs.base_dim))) < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_coset_derivative_matches_central_difference(spec):
    # points of scale 2 put the projective pivot off the leading 1 (|z| > 1)
    rng = np.random.default_rng(17)
    zs = 2.0 * rng.standard_normal((20, spec.fiber_dim))
    ws = rng.standard_normal((20, spec.fiber_dim))
    h = 1e-5
    reference = (spec.coset_section(zs + h * ws) - spec.coset_section(zs - h * ws)) / (2 * h)
    derivs = spec.coset_derivative(zs, ws)
    assert derivs.shape == (20, spec.tag.size, spec.tag.size)
    assert np.max(np.abs(derivs - reference)) <= 1e-7 * max(1.0, np.max(np.abs(reference)))
    if spec.tag.kind is lg.GroupKind.PGL:
        assert np.any(np.abs(lg.normalize_projective(spec.coset_section(zs))[:, 0, 0]) < 1.0)


@pytest.mark.parametrize("space", ["galileo", "affine", "projective", "mobius"])
def test_reduction_frames_lie_in_the_reduction(space):
    # the frame is the coset section at the section's value, so every
    # stacked frame, and every frame times a stabilizer element, is in H'
    cs = models._build_homogeneous(space=space)
    rng = np.random.default_rng(18)
    xs = 2.0 * rng.standard_normal((20, cs.base_dim))
    gps = np.array([cs.spec.random_stabilizer_element(rng).mat for _ in xs])
    for frames in (cs._frames(xs), cs._reduction_point(xs, gps)[0]):
        for x, frame in zip(xs, frames):
            assert cs.in_reduction(pr.PrincipalPoint(x, lg.GroupElement(cs.spec.tag, frame)))
    if space == "projective":
        assert np.any(np.max(np.abs(xs), axis=1) > 1.0)


def test_diagonal_section_frames_a_curved_structure_in_its_reduction(gravity):
    # a diagonal section cannot disagree with its frame: the reduction
    # point of a curved structure is in H' and the structure stays Cartan
    cs = CartanStructure("diagonal-gravity", gravity.spec, gravity.conn, diagonal=True)
    rng = np.random.default_rng(19)
    for x in rng.standard_normal((10, 2)):
        point = cs._reduction_point(x[None])[0][0]
        assert cs.in_reduction(pr.PrincipalPoint(x, lg.GroupElement(cs.spec.tag, point)))
        assert not gravity.in_reduction(pr.PrincipalPoint(x, lg.GroupElement(cs.spec.tag, point)))
    assert cs.is_cartan(samples=10, seed=3).kind == "cartan"


def test_diagonal_section_needs_matching_dimensions():
    spec = models.galileo_homogeneous_spec(2)
    conn = pr.zero_connection(pr.ChartDomain.unbounded(1), spec.tag)
    with pytest.raises(GeometryError, match="diagonal section"):
        CartanStructure("thin-diagonal", spec, conn, diagonal=True)
    with pytest.raises(GeometryError, match="diagonal section"):
        models.homogeneous_flat(spec, pr.ChartDomain.unbounded(3))


def test_shipped_fiber_actions_satisfy_action_laws():
    rng = np.random.default_rng(11)
    for name in models.MODEL_BUILDERS:
        models.build_model(name).spec.validate(rng, samples=10)


# ---------------------------------------------------------------------------
# Parallelization
# ---------------------------------------------------------------------------

def test_parallelization_frame_roundtrip(flat_galileo):
    cs = flat_galileo
    rng = np.random.default_rng(9)
    basis = lg.algebra_basis(cs.spec.tag)
    for _ in range(10):
        g = lg.random_element(cs.spec.tag, rng)
        p = pr.PrincipalPoint(cs.spec.act(g.mat, cs.spec.origin), g)
        frame = cs.parallelization_frame(p)
        assert len(frame) == len(basis)
        for vec, eta in zip(frame, basis):
            out = pr.full_form(cs.conn, p, vec, check_domain=False)
            assert (out - eta).norm() < 1e-9


def test_parallelization_frame_invertible_at_many_points(gradient_gravity):
    cs = gradient_gravity
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(2)
        gp = cs.spec.random_stabilizer_element(rng)
        p = pr.PrincipalPoint(x, gp)
        matrix = cs.reduced_form_matrix(x[None], gp.mat[None])[0]
        assert abs(np.linalg.det(matrix)) > 1e-8


def test_parallelization_requires_cartan():
    cs = models.affine_structure(2, sigma0=np.zeros((2, 2)))
    p = pr.PrincipalPoint(np.zeros(2), lg.identity(cs.spec.tag))
    with pytest.raises(NotCartanError):
        cs.parallelization_frame(p)


def test_projective_tangents_are_tangent_to_the_reduction():
    # the point of H' is stored as a normalized PGL representative, so its
    # tangent basis and the parallelization must be scaled with it
    cs = models.build_model("projective")
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = cs.conn.domain.sample(rng)
        gprime = cs.spec.random_stabilizer_element(rng)
        frame = lg.GroupElement(cs.spec.tag, cs._frames(x[None])[0])
        p = pr.PrincipalPoint(x, lg.compose(frame, gprime))
        _, dxs, dgs = cs._reduction_tangent_basis(x[None], gprime.mat[None])
        tangents = [pr.PrincipalTangent(dx, dg) for dx, dg in zip(dxs[0], dgs[0])]
        for v in tangents + cs.parallelization_frame(p):
            assert cs.reduction_tangency_residual(p, v) < 1e-8
