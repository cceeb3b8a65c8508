"""Tests for the exterior-calculus form of Maxwell's equations."""

import itertools
import math

import numpy as np
import pytest

from cartanconn import maxwell as mx
from cartanconn import principal as pr
from cartanconn.errors import GeometryError

NATURAL = mx.EMConstants(eps0=1.0, mu0=1.0)
ODD_UNITS = mx.EMConstants(eps0=0.25, mu0=2.0)


# ---------------------------------------------------------------------------
# Form construction
# ---------------------------------------------------------------------------

def test_zero_fields_give_zero_form():
    F = mx.build_F((0, 0, 0), (0, 0, 0))
    assert np.all(F((0.3, 1.0, -2.0, 0.5)) == 0.0)


def test_unit_b1_is_pure_dx2_dx3():
    F = mx.build_F((0, 0, 0), (1, 0, 0))
    assert np.array_equal(F((0, 0, 0, 0)), [1, 0, 0, 0, 0, 0])


def test_electric_field_sits_in_dt_slots_with_plus_sign():
    F = mx.build_F((2, 3, 4), (0, 0, 0))
    assert np.array_equal(F((0, 0, 0, 0)), [0, 0, 0, 2, 3, 4])


def test_magnetic_field_enters_G_with_minus_sign():
    G = mx.build_G((0, 0, 0), (5, 6, 7))
    assert np.array_equal(G((0, 0, 0, 0)), [0, 0, 0, -5, -6, -7])


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------

def test_d_of_constant_form_vanishes():
    F = mx.build_F((1.0, -2.0, 0.5), (0.3, 0.0, 4.0))
    assert np.max(np.abs(mx.d_numeric(F, (0.1, 0.2, 0.3, 0.4)))) == 0.0


def test_nonsolenoidal_b_shows_up_as_divergence():
    # B = (x1, 0, 0): the spatial-volume coefficient of dF is div B = 1
    F = mx.build_F((0, 0, 0), (lambda t, x1, x2, x3: x1, 0, 0))
    df = mx.d_numeric(F, (0.0, 0.7, -0.3, 0.2))
    assert abs(df[0] - 1.0) < 1e-10
    assert np.max(np.abs(df[1:])) < 1e-10


def test_component_dictionary_on_polynomial_fields():
    # degree-two coefficients: central differences are exact, and the
    # expected values come from differentiating by hand
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
    F = mx.build_F(E, B)
    rng = np.random.default_rng(0)
    for _ in range(25):
        t, x1, x2, x3 = rng.uniform(-2, 2, size=4)
        df = mx.d_numeric(F, (t, x1, x2, x3))
        div_b = t
        curl_e_plus_dbdt = np.array([x1 - t, -x2, -2 * x2 + x3])
        assert abs(df[0] - div_b) < 1e-8
        assert np.max(np.abs(df[1:] - curl_e_plus_dbdt)) < 1e-8


def test_plane_wave_satisfies_classical_identities_exactly():
    # analytic-derivative oracle: rot E = -dB/dt and div B = 0 pointwise
    c = NATURAL.c
    k = np.array([1.0, 0.0, 0.0])
    e0 = np.array([0.0, 1.0, 0.0])
    omega = c * np.linalg.norm(k)
    b0 = np.cross(k, e0) / omega
    rng = np.random.default_rng(1)
    for _ in range(20):
        t, x1, x2, x3 = rng.uniform(-3, 3, size=4)
        phase = k @ (x1, x2, x3) - omega * t
        curl_e = -np.sin(phase) * np.cross(k, e0)
        db_dt = omega * np.sin(phase) * b0
        assert np.max(np.abs(curl_e + db_dt)) < 1e-12
        assert abs(np.dot(k, b0)) < 1e-12


def test_plane_wave_form_residuals():
    # skew wave vector: finite-difference errors are genuinely exercised
    fields = mx.preset_plane_wave(NATURAL, k=(0.6, 0.5, 0.3), e0=(0.5, -0.6, 0.0))
    F = mx.build_F(fields[0], fields[1])
    G = mx.build_G(fields[2], fields[3])
    rng = np.random.default_rng(2)
    for _ in range(20):
        point = tuple(rng.uniform(-2, 2, size=4))
        assert np.max(np.abs(mx.d_numeric(F, point, h=1e-4))) < 1e-6
        assert np.max(np.abs(mx.d_numeric(G, point, h=1e-4))) < 1e-6


def test_negated_components_keep_one_call_per_batched_field():
    # G holds -H: a batched field stays batched through the negation, so
    # each is called once for all points and their neighbours; the same
    # fields called point by point give the same derivatives
    calls = []

    def counted(f, batched):
        def field(*args):
            calls.append(1)
            return f(*args)
        return pr.batched(field) if batched else field

    wave = mx.preset_plane_wave(NATURAL, k=(0.6, 0.5, 0.3), e0=(0.5, -0.6, 0.0))
    points = np.random.default_rng(4).uniform(-2, 2, size=(30, 4))
    derivatives = []
    for batched in (True, False):
        calls.clear()
        G = mx.build_G(*([counted(f, batched) for f in fields] for fields in wave[2:4]))
        derivatives.append(mx.d_numeric(G, points))
        assert len(calls) == (6 if batched else 6 * 9 * len(points))
        assert all(pr.is_batched(f) == batched for f in G.coeffs[3:])
    assert np.allclose(derivatives[0], derivatives[1], rtol=0, atol=1e-12)


def test_plane_wave_residual_scales_with_square_of_step():
    fields = mx.preset_plane_wave(NATURAL, k=(0.6, 0.5, 0.3), e0=(0.5, -0.6, 0.0))
    F = mx.build_F(fields[0], fields[1])
    point = (0.3, 0.7, -0.4, 1.1)
    r1 = np.max(np.abs(mx.d_numeric(F, point, h=1e-2)))
    r2 = np.max(np.abs(mx.d_numeric(F, point, h=5e-3)))
    assert r1 > 0 and 3.0 < r1 / r2 < 5.0


def test_exterior_derivatives_on_point_stacks_match_per_point_calls():
    # batched presets (numpy cos, libm pow) and per-point user lambdas: one
    # call on (N, 4) points equals N single-point calls bit for bit
    wave = mx.preset_plane_wave(NATURAL, k=(0.6, 0.5, 0.3), e0=(0.5, -0.6, 0.0))
    coulomb = mx.preset_coulomb(NATURAL)
    poly = (lambda t, x1, x2, x3: x2 * x2 - t * x1, lambda t, x1, x2, x3: t * x3, 0.5)
    twos = [mx.build_F(wave[0], wave[1]), mx.build_G(wave[2], wave[3]),
            mx.build_F(coulomb[0], coulomb[1]), mx.build_F(poly, poly[::-1])]
    points = np.random.default_rng(5).uniform(0.5, 2.0, size=(40, 4))
    for form in twos:
        stacked = mx.d_numeric(form, points, h=1e-3)
        per_point = np.array([mx.d_numeric(form, p, h=1e-3) for p in points])
        assert stacked.shape == (40, 4) and stacked.tobytes() == per_point.tobytes()


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def _oracle_star_matrix(alpha: float) -> np.ndarray:
    """Independent star construction from the defining property
    beta ^ (star omega) = <beta, omega> vol on the two-form basis."""
    pairs = [(2, 3), (3, 1), (1, 2), (1, 0), (2, 0), (3, 0)]  # axis order (t,1,2,3)
    ginv = np.array([-1.0 / alpha, 1.0, 1.0, 1.0])

    def perm_sign(seq):
        sign = 1
        seq = list(seq)
        for i in range(len(seq)):
            for jj in range(i + 1, len(seq)):
                if seq[i] > seq[jj]:
                    sign = -sign
        return sign

    def wedge(p, q):
        if set(p) & set(q):
            return 0.0
        return float(perm_sign([*p, *q]))

    gram = np.diag([ginv[a] * ginv[b] for a, b in pairs])
    wedge_mat = np.array([[wedge(p, q) for q in pairs] for p in pairs])
    return np.linalg.solve(wedge_mat, math.sqrt(alpha) * gram)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 4.0, mx.SI.alpha])
def test_hodge_matrix_matches_defining_property(alpha):
    assert np.allclose(mx.hodge_matrix(alpha), _oracle_star_matrix(alpha), rtol=1e-12, atol=1e-300)


def test_star_of_zero_is_zero():
    F = mx.build_F((0, 0, 0), (0, 0, 0))
    assert np.all(mx.hodge_matrix(mx.SI.alpha) @ F((0, 0, 0, 0)) == 0.0)


def test_double_star_is_minus_identity():
    # Lorentzian signature on two-forms: the star squares to -1
    for alpha in (0.5, 1.0, 9.0):
        m = mx.hodge_matrix(alpha)
        assert np.allclose(m @ m, -np.eye(6), atol=1e-12)
    # spelled out on one basis element
    m = mx.hodge_matrix(1.0)
    e12 = np.array([0, 0, 1.0, 0, 0, 0])
    assert np.allclose(m @ (m @ e12), -e12)


@pytest.mark.parametrize("constants", [NATURAL, ODD_UNITS, mx.SI])
def test_constitutive_hodge_identity(constants):
    # with D = eps0 E and H = B / mu0 the excitation form is
    # sqrt(eps0/mu0) times the star of the field form, once the time-time
    # metric coefficient is calibrated to c^2
    rng = np.random.default_rng(3)
    for _ in range(100):
        e = rng.standard_normal(3)
        b = rng.standard_normal(3)
        F = mx.build_F(e, b)
        G = mx.build_G(constants.eps0 * e, b / constants.mu0)
        point = tuple(rng.standard_normal(4))
        lhs = G(point)
        rhs = constants.impedance_ratio * (mx.hodge_matrix(constants.alpha) @ F(point))
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_calibration_alpha_is_unique():
    # the constitutive identity singles out alpha = c^2 among candidates
    constants = ODD_UNITS
    e = np.array([1.0, 0.3, -0.2])
    b = np.array([0.4, -1.0, 0.8])
    F_vals = mx.build_F(e, b)((0, 0, 0, 0))
    G_vals = mx.build_G(constants.eps0 * e, b / constants.mu0)((0, 0, 0, 0))
    for alpha in (0.1, 1.0, constants.alpha, 10.0, 4.0 * constants.alpha):
        gap = np.max(
            np.abs(G_vals - constants.impedance_ratio * mx.hodge_matrix(alpha) @ F_vals)
        )
        if np.isclose(alpha, constants.alpha):
            assert gap < 1e-12
        else:
            assert gap > 1e-3


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

def test_all_zero_fields_report_zero_residuals():
    zero = (0.0, 0.0, 0.0)
    report = mx.maxwell_check(zero, zero, zero, zero, 0.0, zero, [(0, 0, 0, 0)])
    assert report.max_dF == 0.0
    assert report.max_dG_minus_4piJ == 0.0
    assert report.identification_gap == 0.0


def test_coulomb_field_away_from_origin():
    fields = mx.preset_coulomb(NATURAL)
    grid = mx.probe_grid([0.0], [1.0, 1.5, 2.0])
    report = mx.maxwell_check(*fields, points=grid, h=1e-4)
    assert report.max_dG_minus_4piJ < 1e-5
    assert report.max_dF < 1e-5
    assert report.identification_gap < 1e-8


def test_polynomial_preset_is_exact_solution():
    fields = mx.preset_polynomial(NATURAL)
    grid = mx.probe_grid([0.0, 0.5], [-1.0, 0.3, 1.0])
    report = mx.maxwell_check(*fields, points=grid, h=1e-4)
    assert report.max_dF < 1e-10
    assert report.max_dG_minus_4piJ < 1e-10
    assert report.identification_gap < 1e-10


def test_inconsistent_magnetic_field_flagged():
    # div B = 1 everywhere: the dF residual must equal it
    B = (lambda t, x1, x2, x3: x1, 0.0, 0.0)
    zero = (0.0, 0.0, 0.0)
    grid = mx.probe_grid([0.0], [0.2, 0.9])
    report = mx.maxwell_check(zero, B, zero, zero, 0.0, zero, points=grid)
    assert abs(report.max_dF - 1.0) < 1e-8
    assert abs(report.max_div_B - 1.0) < 1e-8
    assert report.identification_gap < 1e-8


def test_continuity_residual_detects_charge_leak():
    # rho = t with no current: d(rho dx1^dx2^dx3) has a dt component
    zero = (0.0, 0.0, 0.0)
    rho = lambda t, x1, x2, x3: t
    report = mx.maxwell_check(zero, zero, zero, zero, rho, zero, [(0.0, 0, 0, 0)])
    assert abs(report.continuity_residual - 1.0) < 1e-10
    # the residual is d rho/dt + div j: a current carrying the charge off
    # conserves it, a current with sources leaks their sum
    points = mx.probe_grid([0.0, 0.5], [-1.0, 0.3])
    outflow = (lambda t, x1, x2, x3: -x1, lambda t, x1, x2, x3: -x2, lambda t, x1, x2, x3: -x3)
    source = (lambda t, x1, x2, x3: x1, lambda t, x1, x2, x3: 2.0 * x2, lambda t, x1, x2, x3: 3.0 * x3)
    rho3 = lambda t, x1, x2, x3: 3.0 * t
    assert mx.maxwell_check(zero, zero, zero, zero, rho3, outflow, points).continuity_residual < 1e-10
    assert abs(mx.maxwell_check(zero, zero, zero, zero, 0.0, source, points).continuity_residual - 6.0) < 1e-10


@pytest.mark.parametrize("points", [[], mx.probe_grid([], [1.0]), mx.probe_grid([0.0], [])])
def test_check_without_probe_points_is_rejected(points):
    # over no point every worst residual is 0, which would read as satisfied
    zero = (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="at least one probe point"):
        mx.maxwell_check(zero, zero, zero, zero, 0.0, zero, points=points)


def test_a_nan_residual_reads_violated():
    # a NaN charge density makes dG - 4 pi J NaN while dF stays 0.0; the
    # largest of the two would drop the NaN (max(0.0, nan) is 0.0)
    zero = (0.0, 0.0, 0.0)
    report = mx.maxwell_check(zero, zero, zero, zero, float("nan"), zero,
                              points=mx.probe_grid([0, 0.4], [1, 1.4, 1.8]))
    assert report.max_dF == 0.0 and math.isnan(report.max_dG_minus_4piJ)
    assert not report.satisfied


@pytest.mark.parametrize("h", [0.0, -1e-4, float("nan")])
def test_difference_step_must_be_positive(h):
    zero, point = (0.0, 0.0, 0.0), (0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="step h must be positive"):
        mx.maxwell_check(zero, zero, zero, zero, 0.0, zero, points=[point], h=h)
    with pytest.raises(ValueError, match="step h must be positive"):
        mx.d_numeric(mx.build_F(zero, zero), point, h=h)


# ---------------------------------------------------------------------------
# Grid-sampled fields
# ---------------------------------------------------------------------------

def _write_grid_csv(path, fn, axes):
    with open(path, "w") as fh:
        fh.write("t,x1,x2,x3,value\n")
        for t, x1, x2, x3 in itertools.product(*axes):
            fh.write(f"{t},{x1},{x2},{x3},{fn(t, x1, x2, x3)}\n")


def test_grid_sampled_linear_solution(tmp_path):
    axes = [np.linspace(0, 1, 4)] * 4
    names = {}
    # the linear static solution: exact for grid central differences
    comps = {
        "e1": lambda t, x1, x2, x3: x1,
        "e2": lambda t, x1, x2, x3: x2,
        "e3": lambda t, x1, x2, x3: x3,
        "zero": lambda t, x1, x2, x3: 0.0,
        "rho": lambda t, x1, x2, x3: 3.0 / (4.0 * math.pi),
    }
    for name, fn in comps.items():
        p = tmp_path / f"{name}.csv"
        _write_grid_csv(p, fn, axes)
        names[name] = mx.GridSampledField.from_csv(p)

    E = (names["e1"], names["e2"], names["e3"])
    zero3 = (names["zero"],) * 3
    report = mx.maxwell_check_sampled(E, zero3, E, zero3, names["rho"], zero3)
    assert report.max_dF < 1e-12
    assert report.max_dG_minus_4piJ < 1e-12


def test_grid_csv_rejects_incomplete_lattice(tmp_path):
    p = tmp_path / "bad.csv"
    with open(p, "w") as fh:
        fh.write("t,x1,x2,x3,value\n0,0,0,0,1.0\n0,0,0,1,2.0\n1,0,0,0,3.0\n")
    with pytest.raises(GeometryError):
        mx.GridSampledField.from_csv(p)


def test_grid_csv_rejects_duplicate_with_missing_point(tmp_path):
    # the row count fills the lattice, but one point is given twice and
    # another not at all
    lattice = list(itertools.product([0.0, 1.0], repeat=4))
    rows = lattice[:-1] + [lattice[0]]
    p = tmp_path / "dup.csv"
    with open(p, "w") as fh:
        fh.write("t,x1,x2,x3,value\n")
        fh.writelines(f"{t},{x1},{x2},{x3},1.0\n" for t, x1, x2, x3 in rows)
    with pytest.raises(GeometryError, match="duplicate or missing"):
        mx.GridSampledField.from_csv(p)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", [1, 4])
def test_grid_csv_rejects_non_finite_samples(tmp_path, bad, column):
    # a coordinate or value that is not finite, in the third data row
    rows = [[*point, 1.0] for point in itertools.product([0.0, 1.0], repeat=4)]
    rows[2][column] = bad
    p = tmp_path / "inf.csv"
    p.write_text("t,x1,x2,x3,value\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    with pytest.raises(GeometryError, match=r"inf\.csv: non-finite sample in data row 3$"):
        mx.GridSampledField.from_csv(p)


def _quadratic_fields(seed=5):
    """Sixteen random quadratics in (t, x1, x2, x3): a field set with
    nonzero sources and nonzero residuals on every face, on which central
    differences are exact up to rounding."""
    rng = np.random.default_rng(seed)

    def quadratic(c, g, q):
        def f(t, x1, x2, x3):
            p = (t, x1, x2, x3)
            return c + sum(g[a] * p[a] for a in range(4)) + sum(
                q[a, b] * p[a] * p[b] for a in range(4) for b in range(a, 4)
            )

        return f

    fs = [quadratic(*rng.standard_normal(1), rng.standard_normal(4), rng.standard_normal((4, 4)))
          for _ in range(16)]
    return fs[0:3], fs[3:6], fs[6:9], fs[9:12], fs[12], fs[13:16]


def test_sampled_and_callable_checks_agree_on_quadratic_fields():
    E, B, D, Hm, rho, j = _quadratic_fields()
    axes = (np.linspace(-0.5, 0.5, 5), np.linspace(-1.0, 1.0, 5),
            np.linspace(0.0, 2.0, 5), np.linspace(-2.0, 0.0, 5))
    lattice = np.meshgrid(*axes, indexing="ij")
    sample = lambda f: mx.GridSampledField(axes, f(*lattice))
    sampled = mx.maxwell_check_sampled(
        [sample(f) for f in E], [sample(f) for f in B], [sample(f) for f in D],
        [sample(f) for f in Hm], sample(rho), [sample(f) for f in j],
    )
    interior = list(itertools.product(*(a[1:-1] for a in axes)))
    direct = mx.maxwell_check(E, B, D, Hm, rho, j, interior)
    assert sampled.points == direct.points == 81
    for (name, a), (_, b) in zip(sampled.rows(), direct.rows()):
        assert abs(a - b) < 1e-10, name
    # the fields are no solution: the residuals are far from rounding
    assert min(direct.max_dF, direct.max_dG_minus_4piJ, direct.continuity_residual) > 0.1
    assert direct.identification_gap < 1e-10


def test_batched_and_per_point_user_fields_give_identical_reports():
    fields = _quadratic_fields()
    calls = []

    def declared(f):
        def g(t, x1, x2, x3):
            calls.append(np.shape(t))
            return f(t, x1, x2, x3)

        return pr.batched(g)

    grid = mx.probe_grid([0.0, 0.4], [1.0, 1.4, 1.8])
    E, B, D, Hm, rho, j = fields
    per_point = mx.maxwell_check(*fields, points=grid)
    batched = mx.maxwell_check([declared(f) for f in E], [declared(f) for f in B],
                               [declared(f) for f in D], [declared(f) for f in Hm],
                               declared(rho), [declared(f) for f in j], points=grid)
    assert batched == per_point
    # each field is called once, on the probe points and their 8 neighbours
    assert calls == [(9 * len(grid),)] * 16


def test_field_error_at_one_probe_point_propagates_unchanged():
    error = ZeroDivisionError("singular probe")

    def field(t, x1, x2, x3):
        if x1 > 1.3:
            raise error
        return x1 * x2

    zero = (0.0, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError) as info:
        mx.maxwell_check((field, 0.0, 0.0), zero, zero, zero, 0.0, zero,
                         points=mx.probe_grid([0.0], [1.0, 1.4]))
    assert info.value is error


def test_per_point_field_with_unequal_rows_is_rejected():
    ragged = lambda t, x1, x2, x3: np.zeros(2) if x1 > 1.2 else 0.0
    zero = (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="unequal shapes"):
        mx.maxwell_check(zero, (ragged, 0.0, 0.0), zero, zero, 0.0, zero,
                         points=mx.probe_grid([0.0], [1.0, 1.4]))


@pytest.mark.parametrize("preset", sorted(mx.PRESETS))
def test_presets_and_constant_fields_are_batched(preset):
    E, B, D, Hm, rho, j = mx.PRESETS[preset](NATURAL)
    fields = [mx.as_field(f) for f in (*E, *B, *D, *Hm, rho, *j)]
    assert all(pr.is_batched(f) for f in fields)


def test_wave_speed_definition():
    assert np.isclose(NATURAL.c, 1.0)
    assert np.isclose(ODD_UNITS.c, 1.0 / math.sqrt(0.5))
    assert np.isclose(mx.SI.c, 299792458.0, rtol=1e-9)
