"""Tests for Cartan structures: reductions, induced forms, soldering,
classification, development."""

import numpy as np
import pytest
from numpy.exceptions import ComplexWarning

from cartanconn import liegroup as lg
from cartanconn import models
from cartanconn import principal as pr
from cartanconn.cartan import CartanStructure
from cartanconn.errors import GeometryError, InvalidElementError

from conftest import freefall_path, perturbed_freefall_path, rebuilt, trig_path


@pytest.fixture(scope="module")
def gravity():
    return models.galilean_gravity(models.GravityField.constant(9.81))


@pytest.fixture(scope="module")
def gradient_gravity():
    return models.galilean_gravity(models.GravityField(lambda t, x: 9.81 + 0.3 * x))


@pytest.fixture(scope="module")
def flat_galileo():
    return models.homogeneous_flat(models.galileo_homogeneous_spec(2))


def stabilizer_algebra(spec, rng, scale=0.5):
    """A random matrix of the stabilizer algebra: one row of ``spec``'s stacked draw."""
    return spec._stabilizer_algebra(rng.standard_normal((1, len(spec.stabilizer_basis))), scale)[0]


def stabilizer_element(spec, rng, scale=0.5):
    """A random matrix of the stabilizer: one row of ``spec``'s stacked draw."""
    return spec._stabilizer_elements(rng.standard_normal((1, len(spec.stabilizer_basis))), scale)[0]


# ---------------------------------------------------------------------------
# Reduction membership and induced form
# ---------------------------------------------------------------------------

def test_reduction_membership_default_section(gravity):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2)
    boost = lg.exp(lg.AlgebraElement(gravity.spec.tag, stabilizer_algebra(gravity.spec, rng)))
    assert gravity.in_reduction(pr.PrincipalPoint(x, boost))
    mover = lg.galileo_element(0.0, 0.5, 0.0)  # moves the fibre base point
    assert not gravity.in_reduction(pr.PrincipalPoint(x, mover))
    assert not gravity.in_reduction(pr.PrincipalPoint(x, lg.galileo_element(0.0, 1.0, 2.0)))


def test_tangency_residual_reads_one_off_the_reduction(gravity):
    # a boost is tangent to H' at the identity, a time translation moves o
    # at unit rate
    p = pr.PrincipalPoint([0.0, 0.0], lg.identity(lg.GALILEO2))
    along_a = pr.PrincipalTangent(np.zeros(2), lg.galileo_algebra(0.0, 1.0, 0.0).mat)
    along_v = pr.PrincipalTangent(np.zeros(2), lg.galileo_algebra(1.0, 0.0, 0.0).mat)
    assert gravity.reduction_tangency_residual(p, along_a) == 1.0
    assert gravity.reduction_tangency_residual(p, along_v) == 0.0


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
    return np.column_stack([lg.algebra_coords(pr.full_form(conn, p, v)) for v in tangents])


@pytest.mark.parametrize("name", sorted(FORM_STRUCTURES))
def test_reduced_form_matrix_matches_column_by_column_reference(name):
    cs = FORM_STRUCTURES[name]()
    rng = np.random.default_rng(14)
    m = cs.base_dim
    for _ in range(10):
        x = cs.conn.domain.sample(rng)
        gprime = lg.GroupElement(cs.spec.tag, stabilizer_element(cs.spec, rng))
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
    gps = np.array([stabilizer_element(cs.spec, rng) for _ in xs])
    stack = cs.reduced_form_matrix(xs, gps)
    assert stack.shape == (6, lg.algebra_dim(cs.spec.tag), cs.base_dim + len(cs.spec.stabilizer_basis))
    for x, gp, matrix in zip(xs, gps, stack):
        assert np.array_equal(cs.reduced_form_matrix(x[None], gp[None])[0], matrix)


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
    # exact: the earlier pin 0.5331750552140108 carried the rounding error of
    # the projective coset derivative's central difference (step 1e-6); a
    # fourth-order difference at h = 1e-2 to 1e-3 reads 0.5331750552252195
    ("projective", "cartan", 0.5331750552252191),
]


@pytest.mark.parametrize("name, kind, smallest", CLASSIFICATIONS, ids=[c[0] for c in CLASSIFICATIONS])
def test_is_cartan_keeps_its_classification(name, kind, smallest):
    report = FORM_STRUCTURES[name]().is_cartan(samples=20, seed=11)
    assert report.kind == kind
    assert abs(report.min_singular_value - smallest) <= 1e-14


def per_sample_classification(cs, samples, seed):
    """Draws of the classification made one sample at a time (a base point,
    then the stabilizer coordinates), each element exponentiated alone, and
    the smallest singular value of the form matrix at each."""
    rng, xs, smallest = np.random.default_rng(seed), [], []
    for _ in range(samples):
        x = cs.conn.domain.sample(rng)
        coords = rng.standard_normal(len(cs.spec.stabilizer_basis))
        xi = sum(c * b.mat for c, b in zip(coords, cs.spec.stabilizer_basis))
        gp = lg.exp(lg.AlgebraElement(cs.spec.tag, 0.5 * xi / np.linalg.norm(xi)))
        xs.append(x)
        smallest.append(np.linalg.svd(cs.reduced_form_matrix(x[None], gp.mat[None])[0], compute_uv=False)[-1])
    return np.array(xs), np.array(smallest)


@pytest.mark.parametrize("domain", [pr.ChartDomain.unbounded(2), pr.ChartDomain.box([-1.0, 0.5], [2.0, 3.0])],
                         ids=["unbounded", "box"])
def test_is_cartan_draws_the_per_sample_stream(domain):
    # one sample_rows draw is the stream of drawing sample after sample, on
    # an unbounded domain (one normal draw) and on a box (row by row)
    model = models.build_model("projective")
    cs = CartanStructure("projective", model.spec, pr.LocalConnection(domain, model.conn.tag, model.conn.coeff))
    report = cs.is_cartan(samples=20, seed=23)
    xs, smallest = per_sample_classification(cs, 20, 23)
    i = int(np.argmin(smallest))
    assert np.array_equal(report.worst_point[0], xs[i])
    assert abs(report.min_singular_value - smallest[i]) <= 1e-14
    assert np.all(domain.contains(xs))


@pytest.mark.parametrize("samples", [1, 20])
def test_is_cartan_makes_one_coeff_and_one_exponential_call(samples, monkeypatch):
    model = FORM_STRUCTURES["gravity"]()
    coeff_calls, expm_calls, expm = [], [], lg.expm_matrix
    coeff = pr.batched(lambda x, dx: coeff_calls.append(len(x)) or model.conn.coeff(x, dx))
    cs = CartanStructure("counted", model.spec, pr.LocalConnection(model.conn.domain, model.conn.tag, coeff))
    monkeypatch.setattr(lg, "expm_matrix", lambda tag, mat: expm_calls.append(mat.shape) or expm(tag, mat))
    report = cs.is_cartan(samples=samples, seed=24)
    width = cs.base_dim + len(cs.spec.stabilizer_basis)
    assert coeff_calls == [samples * width]
    assert expm_calls == [(samples, 3, 3)]
    assert report.samples == samples and report.kind == "cartan"


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


SOLDERED = {
    "affine-sigma": FORM_STRUCTURES["affine-sigma"],
    "flat-projective": lambda: models._build_homogeneous(space="projective"),
    **{name: lambda name=name: models.build_model(name) for name in models.MODEL_BUILDERS},
}


@pytest.mark.parametrize("name", sorted(SOLDERED))
def test_soldering_matrix_of_a_stack_matches_each_point(name):
    # a stack of points is soldered as one and equals the per-point calls
    # bit for bit; a single point (m,) still gives one (fiber_dim, m) matrix
    cs = SOLDERED[name]()
    xs = 2.0 * np.random.default_rng(20).standard_normal((7, cs.base_dim))
    stack = cs.soldering_matrix(xs)
    assert stack.shape == (7, cs.spec.fiber_dim, cs.base_dim)
    for x, matrix in zip(xs, stack):
        single = cs.soldering_matrix(x)
        assert single.shape == (cs.spec.fiber_dim, cs.base_dim)
        assert np.array_equal(single, matrix)
    if name == "flat-projective":   # frames whose pivot is off the leading entry (|z| > 1)
        assert np.any(np.abs(cs._frames(xs)[:, 0, 0]) < 1.0)


def counted_soldering(monkeypatch, model, xs):
    """Soldering matrices of ``xs`` under ``model`` with the rows of every
    coefficient call and the shape of every ``spec.push`` call recorded
    (``fiber_map``, cached on the spec, is read before counting)."""
    coeff_calls, pushed = [], []
    coeff = pr.batched(lambda x, dx: coeff_calls.append(np.array(dx)) or model.conn.coeff(x, dx))
    cs = CartanStructure("counted", model.spec, pr.LocalConnection(model.conn.domain, model.conn.tag, coeff),
                         model.diagonal)
    push, _ = cs.spec.push, cs.spec.fiber_map
    monkeypatch.setattr(cs.spec, "push", lambda mats: pushed.append(mats.shape) or push(mats))
    return cs.soldering_matrix(xs), coeff_calls, pushed


def test_soldering_matrix_of_a_stack_makes_one_coeff_call_and_pushes_only_on_the_diagonal(monkeypatch):
    # the constant section solders by fiber_map alone; the diagonal section
    # pushes the whole stack of reduction points once
    xs = np.random.default_rng(21).standard_normal((16, 2))
    matrices, coeff_calls, pushed = counted_soldering(monkeypatch, FORM_STRUCTURES["affine-sigma"](), xs)
    assert len(coeff_calls) == 1 and np.array_equal(coeff_calls[0], np.tile(np.eye(2), (16, 1)))
    assert pushed == []
    assert np.max(np.abs(matrices - SIGMA)) < 1e-12
    matrices, coeff_calls, pushed = counted_soldering(monkeypatch, SOLDERED["flat-projective"](), xs)
    assert len(coeff_calls) == 1 and np.array_equal(coeff_calls[0], np.tile(np.eye(2), (16, 1)))
    assert pushed == [(16, 3, 3)]
    assert np.max(np.abs(matrices - np.eye(2))) <= 1e-14


CONSTANT_SECTION = {
    **{name: lambda name=name: models.build_model(name) for name in ("affine", "galilean", "galilean3d")},
    "affine-sigma": FORM_STRUCTURES["affine-sigma"],
    "affine-sigma0-zero": lambda: models.affine_structure(2, sigma0=0),
    "gravity-undeclared-V": FORM_STRUCTURES["gravity"],
}


@pytest.mark.parametrize("name", sorted(CONSTANT_SECTION))
def test_constant_section_soldering_is_the_definition_bit_for_bit(name):
    # under the constant section soldering_matrix and soldering read
    # fiber_map P(A(x, w)); the definition, at the identity reduction point
    # and the horizontal lift, gives the same bits
    cs = CONSTANT_SECTION[name]()
    assert not cs.diagonal
    n, m = cs.spec.tag.size, cs.base_dim
    rng = np.random.default_rng(22)
    xs, ws = 0.7 * rng.standard_normal((6, m)), rng.standard_normal((6, m))
    gps, verticals = np.tile(np.eye(n), (6 * m, 1, 1)), np.zeros((6 * m, n, n))
    columns = cs.soldering_with_choices(np.repeat(xs, m, axis=0), np.tile(np.eye(m), (6, 1)), gps, verticals)
    reference = columns.reshape(6, m, -1).swapaxes(1, 2)
    assert np.array_equal(cs.soldering_matrix(xs), reference)
    for x, matrix in zip(xs, reference):
        assert np.array_equal(cs.soldering_matrix(x), matrix)
    assert np.array_equal(cs.soldering(xs, ws), cs.soldering_with_choices(xs, ws, gps[:6], verticals[:6]))


def test_soldering_rejects_a_non_finite_coefficient():
    model = FORM_STRUCTURES["affine-sigma"]()
    coeff = pr.batched(lambda x, dx: np.where(x[:, :1, None] > 0, np.nan, pr.coeff_matrices(model.conn, x, dx)))
    cs = CartanStructure("nan", model.spec, pr.LocalConnection(model.conn.domain, model.conn.tag, coeff))
    x = np.array([0.5, 0.0])
    with pytest.raises(InvalidElementError, match="not finite"):
        cs.soldering_matrix(x)
    with pytest.raises(InvalidElementError, match="not finite"):
        cs.soldering(x, np.array([1.0, 0.0]))
    assert np.isfinite(cs.soldering_matrix(-x)).all()


@pytest.mark.parametrize("model", ["galilean", "affine", "homogeneous", "mobius", "projective"])
def test_soldering_independent_of_choices(model):
    # the defining formula uses an arbitrary reduction point and an
    # arbitrary lift of the base tangent; all choices must agree, and the
    # choices soldered as one stack give the per-point values
    cs = models.build_model(model)
    rng = np.random.default_rng(7)
    choices, values = [], []
    for _ in range(25):
        x = cs.conn.domain.sample(rng, scale=0.5)
        w = rng.standard_normal(cs.base_dim)
        reference = cs.soldering(x, w)
        for _ in range(5):
            gp = stabilizer_element(cs.spec, rng, scale=0.4)
            eta = stabilizer_algebra(cs.spec, rng, scale=0.4)
            value = cs.soldering_with_choices(x, w, gp, eta)
            assert np.max(np.abs(value - reference)) < 1e-9
            choices.append((x, w, gp, eta))
            values.append(value)
    stack = cs.soldering_with_choices(*map(np.array, zip(*choices)))
    assert stack.shape == (125, cs.spec.fiber_dim)
    assert np.array_equal(stack, values)


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
    # HomogeneousSpec.validate moves stacks of points by stacks of matrices:
    # the stacked action must equal the action row by row, bit for bit
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
    # an act that casts to float has a zero derivative
    spec = models.affine_homogeneous_spec(2)
    real = rebuilt(spec, act=lambda mats, points: spec.act(np.asarray(mats, dtype=float), points))
    with pytest.warns(ComplexWarning), pytest.raises(GeometryError, match="^affine2/linear: .* rank 2$"):
        real.fiber_map
    with pytest.warns(ComplexWarning), pytest.raises(GeometryError, match="^affine2/linear: the complex-step"):
        real.validate()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_validate_rejects_a_coset_section_that_drops_imaginary_parts(spec):
    # the frame derivative of such a section is zero, which would solder
    # the flat structures by a wrong map instead of failing
    real = rebuilt(spec, coset_section=lambda zs: spec.coset_section(np.asarray(zs, dtype=float)))
    with pytest.warns(ComplexWarning), pytest.raises(GeometryError, match=f"^{spec.name}: the complex-step"):
        real.validate()


@pytest.mark.parametrize("space", ["galileo", "affine", "projective", "mobius"])
def test_flat_soldering_is_the_identity(space):
    # the flat structure develops every path to itself, so the soldering
    # map, the initial velocity of the development, is the identity
    cs = models._build_homogeneous(space=space)
    rng = np.random.default_rng(16)
    for x in 0.5 * rng.standard_normal((5, cs.base_dim)):
        assert np.max(np.abs(cs.soldering_matrix(x) - np.eye(cs.base_dim))) < 1e-9


@pytest.mark.parametrize("space", ["galileo", "affine", "projective", "mobius"])
def test_flat_soldering_is_exact_off_the_leading_pivot(space):
    # the frame derivative is exact to round-off, also where points of
    # scale 2 put the projective pivot off the leading 1
    cs = models._build_homogeneous(space=space)
    xs = 2.0 * np.random.default_rng(16).standard_normal((20, cs.base_dim))
    assert np.max(np.abs(cs.soldering_matrix(xs) - np.eye(cs.base_dim))) <= 1e-14
    if space == "projective":
        assert np.any(np.max(np.abs(xs), axis=1) > 1.0)


def closed_form_coset_derivative(spec, zs, ws):
    """Derivatives of the shipped coset sections, written out by hand."""
    n, count = spec.tag.size, len(zs)
    out = np.zeros((count, n, n))
    if spec.tag.kind is lg.GroupKind.PGL:
        # the section is M / p, with M the identity with z in its first
        # column and p its largest-|entry|: W / p - M w_p / p^2
        mats = np.tile(np.eye(n), (count, 1, 1))
        mats[:, 1:, 0], out[:, 1:, 0] = zs, ws
        pivot = np.abs(mats.reshape(count, -1)).argmax(axis=1)
        p = mats.reshape(count, -1)[np.arange(count), pivot][:, None, None]
        w_p = out.reshape(count, -1)[np.arange(count), pivot][:, None, None]
        return out / p - mats * w_p / p ** 2
    if spec.tag.kind is lg.GroupKind.ORTHOGONAL:
        # the null translation in light-cone coordinates (u, x, w)
        to_cone = np.eye(n)
        to_cone[0, -1] = to_cone[-1, 0] = 1.0
        to_cone[-1, -1] = -1.0
        out[:, 1:-1, 0] = ws
        out[:, -1, 0] = 2.0 * np.sum(zs * ws, axis=-1)
        out[:, -1, 1:-1] = 2.0 * ws
        return np.linalg.inv(to_cone) @ out @ to_cone
    out[:, :-1, -1] = ws
    return out


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_coset_derivative_matches_closed_forms(spec):
    rng = np.random.default_rng(20)
    zs = 2.0 * rng.standard_normal((20, spec.fiber_dim))
    ws = rng.standard_normal((20, spec.fiber_dim))
    reference = closed_form_coset_derivative(spec, zs, ws)
    assert np.max(np.abs(spec.coset_derivative(zs, ws) - reference)) <= 1e-15 * np.max(np.abs(reference))
    if spec.tag.kind is lg.GroupKind.PGL:
        assert np.any(np.abs(lg.normalize_projective(spec.coset_section(zs))[:, 0, 0]) < 1.0)


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
    gps = np.array([stabilizer_element(cs.spec, rng) for _ in xs])
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
    for spec in SPECS:
        spec.validate(rng, samples=10)


# ---------------------------------------------------------------------------
# Tangent bases of the reduction
# ---------------------------------------------------------------------------

def test_reduced_form_matrix_invertible_at_many_points(gradient_gravity):
    cs = gradient_gravity
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(2)
        gp = stabilizer_element(cs.spec, rng)
        matrix = cs.reduced_form_matrix(x[None], gp[None])[0]
        assert abs(np.linalg.det(matrix)) > 1e-8


def test_projective_tangents_are_tangent_to_the_reduction():
    # the point of H' is stored as a normalized PGL representative, so its
    # tangent basis must be scaled with it
    cs = models.build_model("projective")
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = cs.conn.domain.sample(rng)
        gprime = lg.GroupElement(cs.spec.tag, stabilizer_element(cs.spec, rng))
        frame = lg.GroupElement(cs.spec.tag, cs._frames(x[None])[0])
        p = pr.PrincipalPoint(x, lg.compose(frame, gprime))
        _, dxs, dgs, _ = cs._induced_coords(x[None], gprime.mat[None])
        tangents = [pr.PrincipalTangent(dx, dg) for dx, dg in zip(dxs[0], dgs[0])]
        for v in tangents:
            assert cs.reduction_tangency_residual(p, v) < 1e-8
