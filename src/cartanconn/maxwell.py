"""Maxwell's equations as exterior calculus on (t, x1, x2, x3).

Two-forms are stored by their coefficients on the ordered basis

    [dx2^dx3, dx3^dx1, dx1^dx2, dx1^dt, dx2^dt, dx3^dt]

and their exterior derivatives are returned on the three-form basis

    [dx1^dx2^dx3, dx2^dx3^dt, dx3^dx1^dt, dx1^dx2^dt],

so antisymmetry is structural. The field strength and excitation forms,
and the source three-form, are

    F = B1 dx2^dx3 + B2 dx3^dx1 + B3 dx1^dx2 + (E1 dx1 + E2 dx2 + E3 dx3) ^ dt
    G = D1 dx2^dx3 + D2 dx3^dx1 + D3 dx1^dx2 - (H1 dx1 + H2 dx2 + H3 dx3) ^ dt
    J = rho dx1^dx2^dx3 - (j1 dx2^dx3 + j2 dx3^dx1 + j3 dx1^dx2) ^ dt

and the classical equations become ``dF = 0`` and ``dG = 4 pi J``: expanding
the exterior derivative componentwise gives the dictionary

    dF = (div B) dx1^dx2^dx3 + (rot E + dB/dt)_i dxj^dxk^dt
    dG - 4 pi J = (div D - 4 pi rho) dx1^dx2^dx3
                  + (dD/dt - rot H + 4 pi j)_i dxj^dxk^dt .

The Hodge star uses the diagonal metric diag(-alpha, 1, 1, 1) with
orientation dt^dx1^dx2^dx3. The normalization alpha is calibrated by the
constitutive relations D = eps0 E, H = B / mu0: requiring
``G = sqrt(eps0/mu0) * (star F)`` forces ``alpha = c^2`` with
``c = 1/sqrt(eps0 mu0)`` (see docs/hodge-calibration.md for the expansion
over the six-dimensional basis). With that normalization the star squares
to minus the identity on two-forms, as the Lorentzian signature demands.

The residual check evaluates each callable field once, through
:func:`principal.stacked`, on the probe points and their 8 stencil
neighbours; grid-sampled fields give their partials by ``np.gradient``, and
one assembly turns either table into residuals and dictionary gap. ``J``
is not stored as a form: the assembly reads it, and the continuity
residual ``dJ``, from the arrays of ``rho`` and ``j``.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from ._records import FrozenRecord, ValueRecord, set_field
from .errors import GeometryError
from .principal import batched, is_batched, stacked

BASIS_2FORMS = ("dx2^dx3", "dx3^dx1", "dx1^dx2", "dx1^dt", "dx2^dt", "dx3^dt")
BASIS_3FORMS = ("dx1^dx2^dx3", "dx2^dx3^dt", "dx3^dx1^dt", "dx1^dx2^dt")


class EMConstants(ValueRecord):
    """Vacuum permittivity and permeability (SI values by default)."""

    _fields = ("eps0", "mu0")

    def __init__(self, eps0: float = 8.8541878128e-12, mu0: float = 1.25663706212e-6):
        set_field(self, "eps0", eps0)
        set_field(self, "mu0", mu0)

    @property
    def c(self) -> float:
        """Wave speed 1 / sqrt(eps0 mu0)."""
        return 1.0 / math.sqrt(self.eps0 * self.mu0)

    @property
    def alpha(self) -> float:
        """Calibrated time-time metric coefficient (c squared)."""
        return self.c ** 2

    @property
    def impedance_ratio(self) -> float:
        return math.sqrt(self.eps0 / self.mu0)


SI = EMConstants()

ScalarField = Callable[[float, float, float, float], float]


def as_field(value) -> ScalarField:
    """Lift constants to :func:`batched` constant fields; callables pass
    through."""
    if callable(value):
        return value
    const = float(value)
    return batched(lambda t, x1, x2, x3: const)


def _negated(f: ScalarField) -> ScalarField:
    """The field ``-f``, :func:`batched` when ``f`` is."""
    neg = lambda t, x1, x2, x3: -f(t, x1, x2, x3)
    return batched(neg) if is_batched(f) else neg


def _triple(fields) -> tuple[ScalarField, ScalarField, ScalarField]:
    if len(fields) != 3:
        raise GeometryError("vector field needs exactly three components")
    return tuple(as_field(f) for f in fields)


class Form2Field(FrozenRecord):
    """Two-form with callable coefficients on :data:`BASIS_2FORMS`."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[ScalarField, ...]):
        set_field(self, "coeffs", coeffs)
        if len(coeffs) != len(BASIS_2FORMS):
            raise GeometryError(f"a two-form needs {len(BASIS_2FORMS)} coefficient functions")

    def __call__(self, point) -> np.ndarray:
        t, x1, x2, x3 = point
        return np.array([c(t, x1, x2, x3) for c in self.coeffs])


def build_F(E, B) -> Form2Field:
    """Field-strength two-form from the electric field and the magnetic
    induction (note the +E ^ dt placement)."""
    e1, e2, e3 = _triple(E)
    b1, b2, b3 = _triple(B)
    return Form2Field((b1, b2, b3, e1, e2, e3))


def build_G(D, Hm) -> Form2Field:
    """Excitation two-form from the displacement and the magnetic field
    (note the -H ^ dt placement)."""
    d1, d2, d3 = _triple(D)
    h1, h2, h3 = _triple(Hm)
    return Form2Field((d1, d2, d3, _negated(h1), _negated(h2), _negated(h3)))


# ---------------------------------------------------------------------------
# Numerical exterior derivative
# ---------------------------------------------------------------------------

def _partials(fields: Sequence[ScalarField], points, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(K, N)`` and central-difference partials ``(K, 4, N)`` of
    ``K`` scalar fields at ``N`` points. Each field is evaluated once, by
    :func:`stacked`, on the points and their 8 neighbours ``points +- h e_a``.
    A step ``h`` that is not positive (NaN included) raises ``ValueError``."""
    if not h > 0:
        raise ValueError(f"the difference step h must be positive, got {h}")
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    stencil = np.repeat(points[None], 9, axis=0)
    for axis in range(4):
        stencil[1 + 2 * axis, :, axis] += h
        stencil[2 + 2 * axis, :, axis] -= h
    cols = stencil.reshape(-1, 4).T
    values = np.stack(
        [np.broadcast_to(stacked(f, *cols, what="field"), cols.shape[1:]) for f in fields]
    ).reshape(len(fields), 9, -1)
    return values[:, 0], (values[:, 1::2] - values[:, 2::2]) / (2.0 * h)


def _d2(p: np.ndarray) -> np.ndarray:
    """Exterior derivative of a two-form on :data:`BASIS_3FORMS` from the
    partials ``p[i, axis]`` of its six coefficients."""
    return np.array(
        [
            p[0, 1] + p[1, 2] + p[2, 3],
            p[0, 0] + p[5, 2] - p[4, 3],
            p[1, 0] + p[3, 3] - p[5, 1],
            p[2, 0] + p[4, 1] - p[3, 2],
        ]
    )


def d_numeric(form: Form2Field, point, h: float = 1e-4) -> np.ndarray:
    """Exterior derivative of a two-form at a point ``(4,)`` or at each of a
    stack of points ``(N, 4)``, as coefficients on :data:`BASIS_3FORMS`,
    ``(4,)`` or ``(N, 4)``; central differences, O(h^2) and exact for
    polynomial coefficients of degree at most two. A step ``h`` that is
    not positive raises ``ValueError``."""
    d = _d2(_partials(form.coeffs, point, h)[1]).T
    return d if np.ndim(point) == 2 else d[0]


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def hodge_matrix(alpha: float) -> np.ndarray:
    """Matrix of the star on two-form coefficients for the metric
    diag(-alpha, 1, 1, 1) and orientation dt^dx1^dx2^dx3."""
    root = math.sqrt(alpha)
    mat = np.zeros((6, 6))
    for i in range(3):
        mat[i + 3, i] = -root       # dxj^dxk -> -sqrt(alpha) dxi^dt
        mat[i, i + 3] = 1.0 / root  # dxi^dt  ->  dxj^dxk / sqrt(alpha)
    return mat


# ---------------------------------------------------------------------------
# Residual report
# ---------------------------------------------------------------------------

class MaxwellReport(ValueRecord):
    """Worst-case residuals of dF = 0 and dG = 4 pi J over the probe points,
    together with the classical vector-calculus residuals and the gap of
    the component dictionary identifying the two."""

    _fields = ("points", "max_dF", "max_dG_minus_4piJ", "max_curl_E_plus_dBdt", "max_div_B",
               "max_curl_H_minus_dDdt_minus_4pij", "max_div_D_minus_4pirho", "identification_gap",
               "continuity_residual")

    def __init__(self, points: int, max_dF: float, max_dG_minus_4piJ: float, max_curl_E_plus_dBdt: float,
                 max_div_B: float, max_curl_H_minus_dDdt_minus_4pij: float, max_div_D_minus_4pirho: float,
                 identification_gap: float, continuity_residual: float):
        set_field(self, "points", points)
        set_field(self, "max_dF", max_dF)
        set_field(self, "max_dG_minus_4piJ", max_dG_minus_4piJ)
        set_field(self, "max_curl_E_plus_dBdt", max_curl_E_plus_dBdt)
        set_field(self, "max_div_B", max_div_B)
        set_field(self, "max_curl_H_minus_dDdt_minus_4pij", max_curl_H_minus_dDdt_minus_4pij)
        set_field(self, "max_div_D_minus_4pirho", max_div_D_minus_4pirho)
        set_field(self, "identification_gap", identification_gap)
        set_field(self, "continuity_residual", continuity_residual)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("dF", self.max_dF),
            ("dG_minus_4piJ", self.max_dG_minus_4piJ),
            ("curl_E_plus_dBdt", self.max_curl_E_plus_dBdt),
            ("div_B", self.max_div_B),
            ("curl_H_minus_dDdt_minus_4pij", self.max_curl_H_minus_dDdt_minus_4pij),
            ("div_D_minus_4pirho", self.max_div_D_minus_4pirho),
            ("identification_gap", self.identification_gap),
            ("continuity", self.continuity_residual),
        ]

    @property
    def satisfied(self) -> bool:
        # each residual on its own: max(0.0, nan) is 0.0, and a NaN must read violated
        return self.max_dF < 1e-5 and self.max_dG_minus_4piJ < 1e-5


def _report(values: np.ndarray, partials: np.ndarray) -> MaxwellReport:
    """Worst residuals over the points from the values ``(16, N)`` and the
    partials ``(16, 4, N)`` of E, B, D, H, rho and j, in that order."""
    E, B, D, H, j = (partials[i:i + 3] for i in (0, 3, 6, 9, 13))
    four_pi = 4.0 * math.pi
    # form side: F = [B, E], G = [D, -H], J = [rho, -j]
    dF = _d2(np.concatenate([B, E]))
    dG = _d2(np.concatenate([D, -H])) - four_pi * np.concatenate([values[12:13], -values[13:]])
    continuity = partials[12, 0] + j[0, 1] + j[1, 2] + j[2, 3]   # dJ on dt^dx1^dx2^dx3
    # classical side
    curl = lambda f: np.array([f[2, 2] - f[1, 3], f[0, 3] - f[2, 1], f[1, 1] - f[0, 2]])
    div = lambda f: f[0, 1] + f[1, 2] + f[2, 3]
    curl_e = curl(E) + B[:, 0]
    curl_h = curl(H) - D[:, 0] - four_pi * values[13:]
    div_b, div_d = div(B), div(D) - four_pi * values[12]
    # componentwise identification of the form residuals with the classical ones
    gap = np.concatenate([dF - np.vstack([div_b, curl_e]), dG - np.vstack([div_d, -curl_h])])
    worst = lambda a: float(np.max(np.abs(a), initial=0.0))
    return MaxwellReport(
        points=values.shape[1],
        max_dF=worst(dF),
        max_dG_minus_4piJ=worst(dG),
        max_curl_E_plus_dBdt=worst(curl_e),
        max_div_B=worst(div_b),
        max_curl_H_minus_dDdt_minus_4pij=worst(curl_h),
        max_div_D_minus_4pirho=worst(div_d),
        identification_gap=worst(gap),
        continuity_residual=worst(continuity),
    )


def maxwell_check(
    E,
    B,
    D,
    Hm,
    rho,
    j,
    points: Sequence,
    h: float = 1e-4,
) -> MaxwellReport:
    """Evaluate both faces of the reformulation over the probe points.

    Reports the form residuals (dF, dG - 4 pi J), the classical residuals
    (rot E + dB/dt, div B, rot H - dD/dt - 4 pi j, div D - 4 pi rho), the
    worst gap of the componentwise identification between the two, and the
    charge-continuity residual d(4 pi J) / 4 pi. Each field is evaluated
    once on all points ``+- h e_a``: one call if :func:`batched`, else one per point.
    No probe point, or a step ``h`` that is not positive, raises ``ValueError``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    if not len(points):
        raise ValueError("the Maxwell check needs at least one probe point")
    fields = [*_triple(E), *_triple(B), *_triple(D), *_triple(Hm), as_field(rho), *_triple(j)]
    return _report(*_partials(fields, points, h))


# ---------------------------------------------------------------------------
# Closed-form presets
# ---------------------------------------------------------------------------

def _displacement(constants: EMConstants, E) -> tuple[ScalarField, ...]:
    """The constitutive partner D = eps0 E of a batched electric field."""
    return tuple(batched(lambda t, x1, x2, x3, f=f: constants.eps0 * f(t, x1, x2, x3)) for f in E)


def preset_plane_wave(constants: EMConstants = SI, k=(1.0, 0.0, 0.0), e0=(0.0, 1.0, 0.0)):
    """Vacuum plane wave: E = e0 cos(k.x - w t), B = (k x e0)/w cos(...),
    w = c |k|; the constitutive fields and zero sources complete the set.
    The fields of every preset are :func:`batched` numpy expressions."""
    k = np.asarray(k, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    if abs(float(np.dot(k, e0))) > 1e-12:
        raise GeometryError("plane wave needs e0 orthogonal to k")
    omega = constants.c * float(np.linalg.norm(k))
    b0 = np.cross(k, e0) / omega

    def phase(t, x1, x2, x3):
        return k[0] * x1 + k[1] * x2 + k[2] * x3 - omega * t

    E = tuple(batched(lambda t, x1, x2, x3, a=a: a * np.cos(phase(t, x1, x2, x3))) for a in e0)
    B = tuple(batched(lambda t, x1, x2, x3, a=a: a * np.cos(phase(t, x1, x2, x3))) for a in b0)
    Hm = tuple(batched(lambda t, x1, x2, x3, f=f: f(t, x1, x2, x3) / constants.mu0) for f in B)
    return E, B, _displacement(constants, E), Hm, 0.0, (0.0, 0.0, 0.0)


def preset_coulomb(constants: EMConstants = SI, q: float = 1.0):
    """Static field q r / |r|^3 with its constitutive partners; sources
    vanish away from the origin, where the probe grids must stay."""

    def component(i):
        @batched
        def f(t, x1, x2, x3):
            r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            # libm pow, bit-identical to r ** 3 on floats, unlike np.power
            return q * (x1, x2, x3)[i] / np.float_power(r, 3)

        return f

    E = tuple(component(i) for i in range(3))
    zero = (0.0, 0.0, 0.0)
    return E, zero, _displacement(constants, E), zero, 0.0, zero


def preset_polynomial(constants: EMConstants = SI):
    """Linear static solution E = (x1, x2, x3) with the uniform charge
    density div D = 4 pi rho demands; exact for the finite differences."""
    E = tuple(batched(lambda t, x1, x2, x3, i=i: (x1, x2, x3)[i]) for i in range(3))
    rho = 3.0 * constants.eps0 / (4.0 * math.pi)
    zero = (0.0, 0.0, 0.0)
    return E, zero, _displacement(constants, E), zero, rho, zero


PRESETS = {
    "plane-wave": preset_plane_wave,
    "coulomb": preset_coulomb,
    "polynomial": preset_polynomial,
}


def probe_grid(t_values, x_values) -> list[tuple[float, float, float, float]]:
    """Cartesian probe grid from one time axis and one shared space axis."""
    return list(itertools.product(t_values, x_values, x_values, x_values))


# ---------------------------------------------------------------------------
# Grid-sampled fields (CSV interface)
# ---------------------------------------------------------------------------

class GridSampledField(FrozenRecord):
    """Scalar field sampled on a full regular lattice in (t, x1, x2, x3)."""

    _fields = ("axes", "values")

    def __init__(self, axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], values: np.ndarray):
        set_field(self, "axes", axes)
        set_field(self, "values", values)

    @classmethod
    def from_csv(cls, path) -> "GridSampledField":
        """Load from a CSV file with header ``t,x1,x2,x3,value``; the rows
        must fill a complete lattice with finite samples."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header] != ["t", "x1", "x2", "x3", "value"]:
                raise GeometryError(f"{path}: expected header t,x1,x2,x3,value")
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise GeometryError(f"{path}: no samples")
        data = np.asarray(rows)
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            raise GeometryError(f"{path}: non-finite sample in data row {np.argmin(finite) + 1}")
        axes = tuple(np.unique(data[:, i]) for i in range(4))
        shape = tuple(len(a) for a in axes)
        if len(rows) != int(np.prod(shape)):
            raise GeometryError(f"{path}: samples do not fill a complete lattice")
        values = np.full(shape, np.nan)
        values[tuple(np.searchsorted(axis, data[:, i]) for i, axis in enumerate(axes))] = data[:, 4]
        if np.any(np.isnan(values)):
            raise GeometryError(f"{path}: duplicate or missing lattice points")
        return cls(axes, values)

    def partial(self, axis: int) -> np.ndarray:
        """Central-difference derivative array along the given axis."""
        if len(self.axes[axis]) < 3:
            raise GeometryError("need at least three samples along each axis")
        return np.gradient(self.values, self.axes[axis], axis=axis, edge_order=2)


def maxwell_check_sampled(E, B, D, Hm, rho, j) -> MaxwellReport:
    """Residuals of the reformulation for grid-sampled fields, evaluated on
    interior lattice points with grid-spacing central differences; the
    same assembly as :func:`maxwell_check`, identification gap included."""
    fields = [*E, *B, *D, *Hm, rho, *j]
    axes = fields[0].axes
    for f in fields:
        if any(len(a) != len(b) or np.max(np.abs(a - b)) > 0 for a, b in zip(f.axes, axes)):
            raise GeometryError("all sampled fields must share one lattice")

    interior = (slice(1, -1),) * 4
    values = np.array([f.values[interior].ravel() for f in fields])
    partials = np.array([[f.partial(axis)[interior].ravel() for axis in range(4)] for f in fields])
    return _report(values, partials)
