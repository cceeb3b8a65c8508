"""Tests for connection forms on trivialized principal bundles."""

import functools
import re

import numpy as np
import pytest

from cartanconn import liegroup as lg
from cartanconn import models
from cartanconn import principal as pr
from cartanconn import transport as tp
from cartanconn.errors import DomainError, InvalidElementError

from conftest import gravity_connection


@pytest.fixture
def const_gravity():
    return gravity_connection(lambda t, x: 10.0, lambda t, x: 0.0)


def test_full_form_reduces_to_coefficients_on_identity_section(const_gravity):
    p = pr.PrincipalPoint([0.3, -0.2], lg.identity(lg.GALILEO2))
    v = pr.PrincipalTangent([1.0, 0.5], np.zeros((3, 3)))
    out = pr.full_form(const_gravity, p, v)
    assert (out - const_gravity.coeff(p.x, v.dx)).norm() < 1e-14


def test_full_form_gravity_hand_value(const_gravity):
    # point (t, x, v, a, b) = (0, 0, 2, 0.5, 0), tangent (dt, dx) = (1, 0):
    # substitution into the reconstructed form gives coefficients
    # (-V, 1, -(v + a V)) = (-10, 1, -7) on (eps_v, eps_a, eps_b)
    p = pr.PrincipalPoint([0.0, 0.0], lg.galileo_element(2.0, 0.5, 0.0))
    v = pr.PrincipalTangent([1.0, 0.0], np.zeros((3, 3)))
    out = pr.full_form(const_gravity, p, v)
    assert np.allclose(lg.algebra_coords(out), [-10.0, 1.0, -7.0], atol=1e-12)


def test_full_form_on_vertical_tangent_returns_generator(const_gravity):
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = lg.random_element(lg.GALILEO2, rng)
        xi = lg.random_algebra(lg.GALILEO2, rng)
        p = pr.PrincipalPoint(rng.standard_normal(2), g)
        v = pr.PrincipalTangent(np.zeros(2), g.mat @ xi.mat)
        assert (pr.full_form(const_gravity, p, v) - xi).norm() < 1e-10


def test_full_form_projects_onto_the_algebra():
    # a PGL tangent along the homothety of the representative carries no
    # algebra component: g (eta + s I) evaluates to eta
    tag = lg.pgl_tag(2)
    conn = pr.zero_connection(pr.ChartDomain.unbounded(2), tag)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = pr.PrincipalPoint(rng.standard_normal(2), lg.random_element(tag, rng))
        eta = lg.random_algebra(tag, rng)
        v = pr.PrincipalTangent(np.zeros(2), p.g.mat @ (eta.mat + rng.standard_normal() * np.eye(3)))
        assert (pr.full_form(conn, p, v) - eta).norm() < 1e-14


def test_full_form_outside_domain_raises():
    domain = pr.ChartDomain.box([-1, -1], [1, 1])
    conn = pr.LocalConnection(domain, lg.GALILEO2, lambda x, d: lg.galileo_algebra(0, d[0], d[1]))
    p = pr.PrincipalPoint([2.0, 0.0], lg.identity(lg.GALILEO2))
    with pytest.raises(DomainError):
        pr.full_form(conn, p, pr.PrincipalTangent([1.0, 0.0], np.zeros((3, 3))))


@pytest.mark.parametrize("domain", [pr.ChartDomain.unbounded(2), pr.ChartDomain.box([-1.0, 0.0], [1.0, 2.0])],
                         ids=["unbounded", "box"])
def test_contains_reads_each_point_of_a_stack(domain):
    # the whole-stack test and the row-by-row reading agree with a per-point reference
    inside = np.array([[0.5, 1.0], [-1.0, 0.0], [1.0, 2.0]])
    assert domain.contains(inside).dtype == bool and domain.contains(inside).all()
    for bad in ([np.nan, 1.0], [0.0, np.inf], [1.5, 1.0], [0.0, -1e-12]):
        stack = np.vstack([inside, [bad], inside])
        expected = [domain.contains(row) for row in stack]
        assert expected[3] is (domain.lower is None and bool(np.isfinite(bad).all()))
        assert domain.contains(stack).tolist() == expected
    assert domain.contains([0.5, 1.0]) is True and domain.contains([0.5, 1.0, 0.0]) is False
    assert domain.contains(np.zeros((4, 3))).tolist() == [False] * 4


def test_box_sample_shrinks_about_the_centre():
    box = pr.ChartDomain.box([0.0, -2.0], [10.0, 2.0])
    rng = np.random.default_rng(4)
    points = np.array([box.sample(rng, scale=0.01) for _ in range(200)])
    assert np.all(np.abs(points - [5.0, 0.0]) <= [0.05, 0.02])
    # the default draws the whole box, exactly as rng.uniform(lower, upper)
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        assert np.array_equal(box.sample(a), b.uniform([0.0, -2.0], [10.0, 2.0]))
    for scale in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="scale"):
            box.sample(rng, scale=scale)


@pytest.mark.parametrize("args, message", [
    ((2, (0.0,), (1.0,)), "2 entries"),                 # one bound for both axes
    ((1, (0.0, 0.0), (1.0, 1.0)), "1 entries"),         # two bounds on one axis
    ((2, (0.0, 0.0)), "both its lower and its upper"),  # no upper bound
    ((2, None, (1.0, 1.0)), "both its lower and its upper"),
    ((1, (1.0,), (0.0,)), "below upper"),               # an empty box
    ((2, (0.0, 0.0), (1.0, 0.0)), "below upper"),
    ((2, (0.0, 0.0), (1.0,)), "equal lengths"),
])
def test_chart_domain_rejects_bounds_that_do_not_make_a_box(args, message):
    with pytest.raises(ValueError, match=message):
        pr.ChartDomain(*args)


def test_chart_domain_stores_its_bounds_as_float_tuples():
    domain = pr.ChartDomain(2, [0, -1], np.array([1, 2]))
    assert domain == pr.ChartDomain.box([0.0, -1.0], [1.0, 2.0])
    assert domain.lower == (0.0, -1.0) and domain.upper == (1.0, 2.0)
    assert all(type(v) is float for v in domain.lower + domain.upper)
    assert domain.contains([0.5, 1.5]) is True


def test_fundamental_vector_basics():
    rng = np.random.default_rng(1)
    g = lg.random_element(lg.GALILEO2, rng)
    p = pr.PrincipalPoint([0.0, 0.0], g)
    zero = pr.fundamental_vector(lg.AlgebraElement(lg.GALILEO2, np.zeros((3, 3))), p)
    assert np.all(zero.dg == 0) and np.all(zero.dx == 0)
    eta = lg.random_algebra(lg.GALILEO2, rng)
    at_identity = pr.fundamental_vector(eta, pr.PrincipalPoint([0.0, 0.0], lg.identity(lg.GALILEO2)))
    assert np.array_equal(at_identity.dg, eta.mat)


def test_fundamental_then_form_is_identity(const_gravity):
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = pr.PrincipalPoint(rng.standard_normal(2), lg.random_element(lg.GALILEO2, rng))
        eta = lg.random_algebra(lg.GALILEO2, rng)
        v = pr.fundamental_vector(eta, p)
        assert (pr.full_form(const_gravity, p, v) - eta).norm() < 1e-10


def test_coefficients_linear_in_tangent(const_gravity):
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.standard_normal(2)
        d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
        a, b = rng.standard_normal(2)
        lhs = const_gravity.coeff(x, a * d1 + b * d2)
        rhs = a * const_gravity.coeff(x, d1) + b * const_gravity.coeff(x, d2)
        assert (lhs - rhs).norm() < 1e-12


# ---------------------------------------------------------------------------
# Axiom audit
# ---------------------------------------------------------------------------

def test_axioms_flat_model():
    conn = pr.zero_connection(pr.ChartDomain.unbounded(2), lg.GALILEO2)
    report = pr.check_axioms(conn, samples=200, seed=0)
    assert report.passed
    assert report.residual_fundamental < 1e-12
    assert report.residual_equivariance < 1e-12


def test_axioms_gravity_model(const_gravity):
    report = pr.check_axioms(const_gravity, samples=300, seed=1)
    assert report.passed
    assert report.residual_fundamental < 1e-10
    assert report.residual_equivariance < 1e-10


def test_axioms_detect_corrupted_form(const_gravity):
    # add a right-translation-dependent term: breaks equivariance only
    def corrupted(p, v):
        good = pr.full_form(const_gravity, p, v)
        a_entry = p.g.mat[0, -1]
        return good + lg.galileo_algebra(a_entry * v.dx[0], 0.0, 0.0)

    report = pr.check_axioms(const_gravity, samples=200, seed=2, form=corrupted)
    assert not report.passed
    assert report.residual_equivariance > 1e-3


def test_axioms_detect_fundamental_corruption_only(const_gravity):
    # eps_b is central in the Galileo algebra: adding it breaks axiom (i) only
    def shifted(p, v):
        return pr.full_form(const_gravity, p, v) + lg.galileo_algebra(0.0, 0.0, 0.01)

    report = pr.check_axioms(const_gravity, samples=200, seed=3, form=shifted)
    assert not report.passed
    assert abs(report.residual_fundamental - 0.01) < 1e-15
    assert report.residual_equivariance < 1e-12


def test_axioms_fail_on_a_non_finite_form(const_gravity):
    def blows_up(p, v):
        good = pr.full_form(const_gravity, p, v)
        return good if p.x[0] < 1.0 else np.nan * good

    report = pr.check_axioms(const_gravity, samples=200, seed=3, form=blows_up)
    assert np.isnan(report.residual_fundamental) and np.isnan(report.residual_equivariance)
    assert not report.passed
    assert report.worst_fundamental[0][0] >= 1.0


def per_sample_audit(conn, samples, seed, form=None):
    """Worst residuals of both axioms, one validated sample at a time, in
    the sampling order that :func:`pr.check_axioms` documents, and the
    sample ``(x, g, eta)`` of the worst residual of axiom (i); ``form``
    defaults to ``Ad_{g^{-1}} A(x, dx) + g^{-1} dg`` from validated group
    operations, independently of :func:`pr.full_form`."""
    tag = conn.tag
    form = form or (lambda p, v: lg.Ad(p.g.inv(), conn.coeff(p.x, v.dx)) + lg.maurer_cartan(p.g, v.dg))
    rng = np.random.default_rng(seed)
    worst_i = worst_ii = 0.0
    witness = ()
    for _ in range(samples):
        x = conn.domain.sample(rng)
        g = lg.random_element(tag, rng, scale=0.6)
        p = pr.PrincipalPoint(x, g)
        eta = lg.random_algebra(tag, rng)
        residual = (form(p, pr.fundamental_vector(eta, p)) - eta).norm()
        if residual > worst_i:
            worst_i, witness = residual, (x, g, eta)
        dx = rng.standard_normal(conn.domain.dim)
        zeta = lg.random_algebra(tag, rng)
        g0 = lg.random_element(tag, rng, scale=0.6)
        translated = lg.compose(g, g0)
        raw = g.mat @ g0.mat   # the stored representative may be a rescaling (PGL)
        scale = np.vdot(translated.mat, raw) / np.vdot(translated.mat, translated.mat)
        v = pr.PrincipalTangent(dx, g.mat @ zeta.mat)
        lhs = form(pr.PrincipalPoint(x, translated), pr.PrincipalTangent(dx, v.dg @ g0.mat / scale))
        rhs = lg.inverse_matrix(tag, g0.mat) @ form(p, v).mat @ g0.mat
        worst_ii = max(worst_ii, float(np.linalg.norm(lhs.mat - rhs)))
    return worst_i, worst_ii, witness


@pytest.mark.parametrize("name", ["galilean", "affine", "mobius", "projective"])
def test_axiom_audit_matches_per_sample_audit(name):
    conn = models.build_model(name).conn

    def exact(p, v):
        return pr.full_form(conn, p, v)

    def skewed(p, v):
        # residuals of order one that differ from sample to sample, so that
        # agreement of the worst ones means the same samples were drawn
        return (1.0 + p.x[0] + p.g.mat.sum()) * exact(p, v)

    for form in (None, exact, skewed):
        report = pr.check_axioms(conn, samples=150, seed=4, form=form)
        expected = per_sample_audit(conn, 150, 4, form)
        assert abs(report.residual_fundamental - expected[0]) < 1e-13
        assert abs(report.residual_equivariance - expected[1]) < 1e-13
    assert report.residual_fundamental > 0.1 and report.residual_equivariance > 0.1


def offset_connection(conn, shift):
    """``conn`` with ``(1 + x0^2) shift`` added to its coefficients, for a
    constant algebra matrix ``shift``, batched when ``conn.coeff`` is.
    ``A(x, 0) = (1 + x0^2) shift`` breaks axiom (i) by
    ``(1 + x0^2) |Ad_{g^{-1}} shift|``, which depends on the draw of ``x``
    even where ``Ad`` is an isometry (SO(3))."""
    def shifted(x, dx):
        factor = 1.0 + np.asarray(x, dtype=float)[..., 0] ** 2
        return lg.AlgebraElement(conn.tag, conn.coeff(x, dx).mat + factor[..., None, None] * shift)

    return pr.LocalConnection(conn.domain, conn.tag, pr.batched(shifted) if pr.is_batched(conn.coeff) else shifted)


def per_point(conn):
    """``conn`` with an undeclared coefficient map that calls ``conn.coeff`` per point."""
    return pr.LocalConnection(conn.domain, conn.tag, lambda x, dx: conn.coeff(x, dx))


def curved_connection(tag, seed, domain=pr.ChartDomain.unbounded(2)):
    """Connection on the (x0, x1) plane (``domain``) with position-dependent,
    mutually non-commuting coefficients ``A = sum_i dx_i (B_i + sin(x_{1-i}) C_i)``."""
    rng = np.random.default_rng(seed)
    base, slope = (
        [lg.project_to_algebra(tag, rng.standard_normal((tag.size, tag.size))) for _ in range(2)]
        for _ in range(2)
    )

    def coeff(x, dx):
        mat = sum(dx[i] * (base[i] + np.sin(x[1 - i]) * slope[i]) for i in range(2))
        return lg.AlgebraElement(tag, mat)

    return pr.LocalConnection(domain, tag, coeff)


@pytest.mark.parametrize("tag", [
    lg.pgl_tag(2), lg.orthogonal_tag(3, 1), lg.so_tag(3),
], ids=lambda tag: tag.name)
def test_axioms_hold_for_curved_connections(tag):
    conn = curved_connection(tag, seed=5)
    assert pr.curvature(conn, [0.3, -0.2], [1, 0], [0, 1]).norm() > 0.1
    report = pr.check_axioms(conn, samples=300, seed=6)
    assert report.passed
    assert report.residual_fundamental < 1e-12
    assert report.residual_equivariance < 1e-12


DEFAULT_ROUTE_CASES = {
    **{name: lambda name=name: models.build_model(name).conn
       for name in ("galilean", "affine", "mobius", "projective")},
    **{tag.name: lambda tag=tag: curved_connection(tag, seed=5) for tag in (
        lg.pgl_tag(2), lg.orthogonal_tag(3, 1), lg.so_tag(3))},
    "per-point galilean": lambda: per_point(models.build_model("galilean").conn),
    # a box chart interleaves its uniform draws with the normal ones
    "box PGL(2)": lambda: curved_connection(lg.pgl_tag(2), seed=5, domain=pr.ChartDomain.box([-1.0, 0.5], [2.0, 3.0])),
}


@pytest.mark.parametrize("case", DEFAULT_ROUTE_CASES)
def test_default_audit_matches_per_sample_audit(case):
    # the stacked route of form=None against validated per-sample calls of
    # full_form; the shifted connection makes axiom (i) fail by amounts
    # that depend on the draws of x and g, so equal worst residuals at the
    # same worst sample (x, g, eta) mean the same draws in the same order
    conn = DEFAULT_ROUTE_CASES[case]()
    rng = np.random.default_rng(8)
    shift = lg.project_to_algebra(conn.tag, rng.standard_normal((conn.tag.size, conn.tag.size)))
    for target in (conn, offset_connection(conn, shift)):
        report = pr.check_axioms(target, samples=120, seed=7)
        expected = per_sample_audit(target, 120, 7)
        assert abs(report.residual_fundamental - expected[0]) < 1e-13
        assert abs(report.residual_equivariance - expected[1]) < 1e-13
    assert report.residual_fundamental > 0.1 and report.residual_equivariance < 1e-12
    (x, g, eta), (x_ref, g_ref, eta_ref) = report.worst_fundamental, expected[2]
    assert np.array_equal(x, x_ref)
    assert np.max(np.abs(g.mat - g_ref.mat)) < 1e-13 and (eta - eta_ref).norm() < 1e-13


def counted(fn, calls):
    """``fn`` wrapped with ``functools.wraps`` (as the benchmark tracer does),
    appending copies of its arguments to ``calls`` on each call."""
    @functools.wraps(fn)
    def wrapper(*args):
        calls.append([np.array(arg) for arg in args])
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("declared", [True, False], ids=["batched", "per-point"])
def test_default_audit_calls_the_coefficients_once_per_stack(declared):
    # one stack of the rows (x, 0) and then (x, dx), with x and dx where the
    # documented draw order puts them
    conn = models.build_model("galilean").conn
    assert pr.is_batched(conn.coeff)
    conn = conn if declared else per_point(conn)
    calls = []
    traced = pr.LocalConnection(conn.domain, conn.tag, counted(conn.coeff, calls))
    reference = pr.check_axioms(conn, samples=40, seed=2)
    report = pr.check_axioms(traced, samples=40, seed=2)
    assert len(calls) == (1 if declared else 2 * 40)
    xs, dxs = calls[0] if declared else map(np.array, zip(*calls))
    m, k = conn.domain.dim, lg.algebra_dim(conn.tag)
    draws = np.random.default_rng(2).standard_normal((40, 2 * m + 4 * k))
    x, dx = draws[:, :m], draws[:, m + 2 * k:2 * m + 2 * k]
    assert np.array_equal(xs, np.concatenate([x, x]))
    assert np.array_equal(dxs, np.concatenate([np.zeros_like(dx), dx]))
    assert (report.residual_fundamental, report.residual_equivariance) == (
        reference.residual_fundamental, reference.residual_equivariance)


def test_audit_needs_a_sample(const_gravity):
    for samples in (0, -1):
        with pytest.raises(ValueError, match="at least one sample"):
            pr.check_axioms(const_gravity, samples=samples)


@pytest.mark.parametrize("declared", [True, False], ids=["batched", "per-point"])
def test_default_audit_raises_on_a_non_finite_coefficient(declared):
    def coeff(x, dx):
        a = np.where(np.asarray(x)[..., 0] > 1.0, np.nan, np.asarray(dx)[..., 0])
        mat = np.zeros(np.shape(a) + (3, 3))
        mat[..., 0, -1] = a
        return lg.AlgebraElement(lg.GALILEO2, mat)

    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, pr.batched(coeff) if declared else coeff)
    with pytest.raises(InvalidElementError, match="not finite"):
        pr.check_axioms(conn, samples=200, seed=0)
    p = pr.PrincipalPoint([2.0, 0.0], lg.identity(lg.GALILEO2))
    with pytest.raises(InvalidElementError):
        pr.full_form(conn, p, pr.PrincipalTangent([1.0, 0.0], np.zeros((3, 3))))
    assert pr.check_axioms(conn, samples=200, seed=0, form=lambda p, v: pr.full_form(
        conn, pr.PrincipalPoint(np.minimum(p.x, 0.0), p.g), v)).passed


def test_batched_coefficient_with_wrong_shape_raises_in_lift_and_audit():
    # one (3, 3) matrix for a whole stack is not a stack
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2,
                              pr.batched(lambda x, d: lg.galileo_algebra(0.0, 1.0, 0.0)))
    message = "batched coefficient map returned shape"
    with pytest.raises(ValueError, match=message):
        tp.horizontal_lift(conn, tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0), step=0.1)
    with pytest.raises(ValueError, match=message):
        pr.check_axioms(conn, samples=10)
    with pytest.raises(ValueError, match=message):
        pr.coeff_matrices(conn, np.zeros((4, 2)), np.ones((4, 2)))


def test_stacked_calls_a_batched_callable_once_and_any_other_per_row():
    calls = []

    def values(t, x):
        calls.append(np.shape(t))
        return np.stack([t, x * x], axis=-1)

    ts, xs = np.linspace(0.0, 1.0, 5), np.arange(5.0)
    want = np.stack([ts, xs * xs], axis=-1)
    out = np.empty((5, 2))
    assert pr.stacked(values, ts, xs, out=out) is out and np.array_equal(out, want)
    assert calls == [()] * 5
    assert np.array_equal(pr.stacked(pr.batched(values), ts, xs), want) and calls[5:] == [(5,)]


def test_undeclared_stacked_calls_in_row_order_on_the_rows_themselves():
    seen = []

    def record(t, x):
        seen.append((t, x))
        return x * t

    ts, xs = np.linspace(0.0, 1.0, 6), np.arange(12.0).reshape(6, 2)
    assert np.array_equal(pr.stacked(record, ts, xs), xs * ts[:, None])
    assert [float(t) for t, _ in seen] == list(ts)
    assert all(type(t) is np.float64 for t, _ in seen)   # numpy scalars of a 1-d stack
    assert all(np.shares_memory(x, xs) and np.array_equal(x, row) for (_, x), row in zip(seen, xs))   # row views


@pytest.mark.parametrize("algebra_rows", [[0, 1, 2, 3], [2], [0, 3]])
def test_undeclared_stacked_reads_algebra_elements_as_matrices(algebra_rows):
    mats = np.random.default_rng(9).standard_normal((4, 3, 3))
    values = iter([lg.AlgebraElement(lg.GALILEO2, m) if i in algebra_rows else m for i, m in enumerate(mats)])
    out = np.empty((4, 3, 3))
    assert pr.stacked(lambda t: next(values), np.arange(4.0), out=out) is out and np.array_equal(out, mats)


def test_undeclared_stacked_keeps_its_errors_on_algebra_elements():
    rows = [lg.AlgebraElement(lg.GALILEO2, np.zeros((3, 3))), np.zeros((2, 2))]
    with pytest.raises(ValueError) as numpy_error:
        np.asarray([np.zeros((3, 3)), np.zeros((2, 2))], dtype=float)
    message = f"coefficient map returned values of unequal shapes or types: {numpy_error.value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pr.stacked(lambda t: rows[int(t)], np.arange(2.0), what="coefficient map")
    with pytest.raises(TypeError):   # neither a number nor an algebra element
        pr.stacked(lambda t: object(), np.arange(2.0))


def test_stacked_rejects_rows_of_inconsistent_shapes():
    ts = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="shape"):
        pr.stacked(lambda t: np.zeros(2) if t < 0.5 else np.zeros(3), ts)
    with pytest.raises(ValueError, match="shape"):
        pr.stacked(lambda t: np.zeros(3), ts, out=np.empty((4, 2)))
    with pytest.raises(ValueError, match="shape"):
        tp.SmoothPath(0.0, 1.0, lambda t: np.array([t, t]) if t < 0.5 else np.array([t]),
                      lambda t: np.array([1.0, 1.0]))
    bent = models.affine_structure(2, gamma=lambda x: np.zeros((2, 2, 2)) if x[0] < 0.5 else np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        tp.horizontal_lift(bent.conn, tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0), step=0.1)


def test_coeff_matrices_fill_the_given_array():
    conn = models.build_model("galilean").conn
    rng = np.random.default_rng(12)
    xs, dxs = rng.standard_normal((2, 7, 2))
    out = np.full((7, 3, 3), np.nan)
    assert pr.coeff_matrices(conn, xs, dxs, out=out) is out
    for x, dx, mat in zip(xs, dxs, out):
        assert np.array_equal(mat, pr.coeff_matrices(per_point(conn), x[None], dx[None])[0])
        assert np.allclose(mat, conn.coeff(x, dx).mat, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def test_curvature_antisymmetry_is_exact(const_gravity):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2)
    d = rng.standard_normal(2)
    assert pr.curvature(const_gravity, x, d, d).norm() == 0.0
    d2 = rng.standard_normal(2)
    f12 = pr.curvature(const_gravity, x, d, d2)
    f21 = pr.curvature(const_gravity, x, d2, d)
    assert (f12 + f21).norm() == 0.0


def test_curvature_vanishes_for_constant_gravity(const_gravity):
    f = pr.curvature(const_gravity, [0.2, 0.4], [1, 0], [0, 1])
    assert f.norm() < 1e-8


def test_curvature_linear_gravity_gradient():
    # V = g0 + k x, W = 0: the only curvature term is (dV/dx) eps_v
    k = 0.3
    conn = gravity_connection(lambda t, x: 9.81 + k * x, lambda t, x: 0.0)
    f = pr.curvature(conn, [0.1, 0.7], [1, 0], [0, 1])
    expected = lg.galileo_algebra(k, 0.0, 0.0)
    assert (f - expected).norm() < 1e-9


def test_curvature_matches_finite_difference_order(monkeypatch):
    conn = gravity_connection(lambda t, x: np.sin(x) + t, lambda t, x: 0.0)
    exact = np.cos(0.5)  # d/dx V at the probe point
    errs = []
    for h in (1e-2, 5e-3):
        monkeypatch.setattr(pr, "CURVATURE_STEP", h)
        f = pr.curvature(conn, [0.2, 0.5], [1, 0], [0, 1])
        errs.append(abs(lg.algebra_coords(f)[0] - exact))
    # central differences: quartering the error when halving the step
    assert errs[1] < errs[0] / 3.0


def test_curvature_near_boundary_raises():
    domain = pr.ChartDomain.box([0, 0], [1, 1])
    conn = pr.LocalConnection(domain, lg.GALILEO2, lambda x, d: lg.galileo_algebra(0, d[0], d[1]))
    with pytest.raises(DomainError):
        pr.curvature(conn, [1.0 - 1e-9, 0.5], [1, 0], [0, 1])


def test_curvature_zero_for_maurer_cartan_connection():
    conn = pr.zero_connection(pr.ChartDomain.unbounded(3), lg.aff_tag(2))
    rng = np.random.default_rng(5)
    f = pr.curvature(conn, rng.standard_normal(3), [1, 0, 0], [0, 0, 1])
    assert f.norm() == 0.0
