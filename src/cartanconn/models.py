"""Ready-made geometries.

* flat homogeneous structures over any of the shipped homogeneous spaces
  (the base equals the fibre, the connection has zero local coefficients,
  parallel transport is the identity in the trivialization)
* affine structures on R^n built from a linear connection and an
  endomorphism field; the structure is Cartan exactly when the endomorphism
  is invertible, and the endomorphism is recovered as the soldering map
* Galilean gravity on a (t, x_1, ..., x_s) spacetime chart of any
  dimension: the connection whose straight developments are exactly the
  trajectories with x'' = V + W x', for an acceleration V (a scalar when
  s = 1) and an optional scalar velocity coupling W; central-force fields
  make Kepler orbits develop straight
* the projective model space P(n, R) with its PGL action on the affine
  chart z -> [1, z]
* the Mobius space: the projectivized null cone of the quadratic form
  x1^2 + ... + x_{n+1}^2 - x0^2 with the O(n + 1, 1) action on the plane
  (stereographic) chart, and the rotations of R^n inside the group

Each homogeneous space is given by its one stacked action ``act`` and its
coset section, both carrying complex input: the derivatives that soldering
needs are taken from them by a complex step (:class:`HomogeneousSpec`).

A string registry (:data:`MODEL_BUILDERS`, :func:`build_model`) exposes the
models to the scenario runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import liegroup as lg
from .cartan import CartanStructure, HomogeneousSpec, _affine_act, _apply
from .errors import (
    GeometryError,
    PointAtInfinityError,
    SingularFieldError,
)
from .principal import ChartDomain, LocalConnection, batched, stacked, zero_connection
from .transport import SmoothPath


# ---------------------------------------------------------------------------
# Homogeneous space data
# ---------------------------------------------------------------------------

def _translation_section(points) -> np.ndarray:
    """Coset section of the Galileo and affine spaces on a stack of points
    ``(N, dim)``: the identity with each point in its last column."""
    points = np.asarray(points)
    mats = np.tile(np.eye(points.shape[-1] + 1, dtype=np.result_type(points, float)), (len(points), 1, 1))
    mats[:, :-1, -1] = points
    return mats


def galileo_homogeneous_spec(spacetime_dim: int = 2) -> HomogeneousSpec:
    """Galileo group modulo boosts: the fibre carries coordinates (a, b)."""
    tag = lg.galileo_tag(spacetime_dim)
    s = spacetime_dim - 1
    dim = spacetime_dim

    # algebra coordinates are ordered (boosts, time shift, space shifts)
    stabilizer = tuple(lg.algebra_basis(tag)[:s])
    return HomogeneousSpec(
        name=f"galileo{spacetime_dim}/boosts",
        tag=tag,
        fiber_dim=dim,
        origin=np.zeros(dim),
        act=_affine_act,
        coset_section=_translation_section,
        stabilizer_basis=stabilizer,
    )


def affine_homogeneous_spec(n: int) -> HomogeneousSpec:
    """Affine group of R^n modulo the linear group: the fibre is R^n."""
    tag = lg.aff_tag(n)

    # algebra coordinates are (linear block entries, translations)
    stabilizer = tuple(lg.algebra_basis(tag)[: n * n])
    return HomogeneousSpec(
        name=f"affine{n}/linear",
        tag=tag,
        fiber_dim=n,
        origin=np.zeros(n),
        act=_affine_act,
        coset_section=_translation_section,
        stabilizer_basis=stabilizer,
    )


def projective_homogeneous_spec(n: int) -> HomogeneousSpec:
    """Projective space P(n, R) as PGL(n) modulo the stabilizer of
    o = [1, 0, ..., 0], on the affine chart z -> [1, z]."""
    tag = lg.pgl_tag(n)

    def act(mats, points):
        points = np.asarray(points, dtype=float)
        w = _apply(mats, np.concatenate([np.ones(points.shape[:-1] + (1,)), points], axis=-1))
        # |w0| <= 1e-12 max |w|, without a slow reduction along the short axis
        if np.any(np.abs(w[..., :1]) <= 1e-12 * np.abs(w)):
            raise PointAtInfinityError("projective action left the affine chart")
        return w[..., 1:] / w[..., :1]

    def coset_section(points):
        mats = np.tile(np.eye(n + 1, dtype=np.result_type(np.asarray(points), float)), (len(points), 1, 1))
        mats[:, 1:, 0] = points
        return lg.normalize_projective(mats)

    stabilizer = tuple(b for b in lg.algebra_basis(tag) if np.all(b.mat[1:, 0] == 0.0))
    return HomogeneousSpec(
        name=f"projective{n}",
        tag=tag,
        fiber_dim=n,
        origin=np.zeros(n),
        act=act,
        coset_section=coset_section,
        stabilizer_basis=stabilizer,
    )


# -- Mobius space -----------------------------------------------------------

def _plane_rays(points) -> np.ndarray:
    """Null vectors ((1 + |z|^2)/2, z, (1 - |z|^2)/2) of plane points z
    (one, or a stack ``(..., n)``), not normalized."""
    z = np.asarray(points, dtype=float)
    s = np.sum(z * z, axis=-1, keepdims=True)
    return np.concatenate([(1.0 + s) / 2.0, z, (1.0 - s) / 2.0], axis=-1)


def _plane_chart(rays: np.ndarray, message: str) -> np.ndarray:
    """Plane chart z_i = x_i / (x0 + x_{n+1}) of rays (one, or a stack
    ``(..., n + 2)``); raises ``PointAtInfinityError(message)`` where
    |x0 + x_{n+1}| <= 1e-12 max |x|."""
    den = rays[..., :1] + rays[..., -1:]
    if np.any(np.abs(den) <= 1e-12 * np.abs(rays)):
        raise PointAtInfinityError(message)
    return rays[..., 1:-1] / den


def mobius_rotation(rot) -> lg.GroupElement:
    """Embed an orthogonal matrix of R^n as the Mobius transformation fixing
    the x0 and x_{n+1} coordinates."""
    rot = np.asarray(rot, dtype=float)
    n = rot.shape[0]
    mat = np.eye(n + 2)
    mat[1:-1, 1:-1] = rot
    return lg.group_element(lg.orthogonal_tag(n + 1, 1), mat)


def mobius_homogeneous_spec(n: int) -> HomogeneousSpec:
    """Mobius space of dimension n as O(n+1, 1) modulo the stabilizer of the
    null ray o, on the plane (stereographic) chart."""
    tag = lg.orthogonal_tag(n + 1, 1)

    def act(mats, points):
        return _plane_chart(_apply(mats, _plane_rays(points)), "Mobius action left the plane chart")

    # the origin embeds as the ray through p0 = (1, 0, ..., 0, 1)
    p0 = np.zeros(n + 2)
    p0[0] = 1.0
    p0[-1] = 1.0

    # the coset section is the null translation by each point, mapping the
    # plane ray of z to that of z + c; it is built in
    # light-cone coordinates (u, x, w) = (x0 + x_{n+1}, x, x0 - x_{n+1})
    to_cone = np.zeros((n + 2, n + 2))
    to_cone[0, 0] = 1.0
    to_cone[0, -1] = 1.0
    to_cone[1:-1, 1:-1] = np.eye(n)
    to_cone[-1, 0] = 1.0
    to_cone[-1, -1] = -1.0
    from_cone = np.linalg.inv(to_cone)

    def coset_section(points):
        mid = np.tile(np.eye(n + 2, dtype=np.result_type(points, float)), (len(points), 1, 1))
        mid[:, 1:-1, 0] = points
        mid[:, -1, 0] = np.sum(points * points, axis=-1)
        mid[:, -1, 1:-1] = 2.0 * points
        return from_cone @ mid @ to_cone

    basis = lg.algebra_basis(tag)
    # stabilizer of the ray: xi p0 proportional to p0, i.e. the null space of
    # the infinitesimal motion transverse to the ray
    ray_complement = np.eye(n + 2) - np.outer(p0, p0) / float(np.dot(p0, p0))
    motion = np.column_stack([ray_complement @ (b.mat @ p0) for b in basis])
    _, svals, vt = np.linalg.svd(motion)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    stabilizer = tuple(lg.algebra_from_coords(tag, vt[i]) for i in range(rank, len(basis)))
    return HomogeneousSpec(
        name=f"mobius{n}",
        tag=tag,
        fiber_dim=n,
        origin=np.zeros(n),
        act=act,
        coset_section=coset_section,
        stabilizer_basis=stabilizer,
    )


# ---------------------------------------------------------------------------
# Flat homogeneous structures
# ---------------------------------------------------------------------------

def homogeneous_flat(spec: HomogeneousSpec, domain: ChartDomain | None = None) -> CartanStructure:
    """Flat structure over the homogeneous space itself: base = fibre,
    zero local coefficients, diagonal section x -> (x, x).

    Parallel transport is the identity in the trivialization, the
    development of any base path is the path itself read in the fibre over
    its starting point, and the induced form on the reduction is the
    Maurer-Cartan form.
    """
    domain = domain or ChartDomain.unbounded(spec.fiber_dim)
    return CartanStructure(f"flat-{spec.name}", spec, zero_connection(domain, spec.tag), diagonal=True)


# ---------------------------------------------------------------------------
# Affine structures
# ---------------------------------------------------------------------------

def _rows(p, d):
    """Base points and tangents (one each, or stacks) as ``(N, m)`` stacks,
    and the leading shape of the tangents."""
    p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
    return p.reshape(-1, p.shape[-1]), d.reshape(-1, d.shape[-1]), d.shape[:-1]


def affine_structure(
    n: int,
    gamma=None,
    sigma0=None,
    domain: ChartDomain | None = None,
) -> CartanStructure:
    """Affine structure on R^n from a linear connection and an endomorphism.

    ``gamma`` holds the linear-connection coefficients, constant as an
    (n, n, n) array or as a function of the base point, contributing the
    linear part ``sum_k gamma[i, j, k] w_k``; ``sigma0`` is the endomorphism
    field contributing the translation part, and is recovered by the
    soldering map. The structure is Cartan exactly when ``sigma0`` is
    invertible (identity endomorphism by default). The coefficient map is
    batched; it evaluates ``gamma`` and ``sigma0`` through
    :func:`~cartanconn.principal.stacked`.
    """
    domain = domain or ChartDomain.unbounded(n)
    if domain.dim != n:
        raise GeometryError("domain dimension must equal n")
    tag = lg.aff_tag(n)

    # constant fields broadcast over a stack of points
    if gamma is None:
        gamma_fn = batched(lambda x, zero=np.zeros((n, n, n)): zero)
    elif callable(gamma):
        gamma_fn = gamma
    else:
        gamma_const = np.asarray(gamma, dtype=float)
        if gamma_const.shape != (n, n, n):
            raise GeometryError(f"gamma must have shape {(n, n, n)}")
        gamma_fn = batched(lambda x: gamma_const)

    if sigma0 is None:
        sigma_fn = batched(lambda x, eye=np.eye(n): eye)
    elif callable(sigma0):
        sigma_fn = sigma0
    else:
        sigma_const = np.asarray(sigma0, dtype=float) * np.eye(n) if np.isscalar(sigma0) else np.asarray(sigma0, dtype=float)
        if sigma_const.shape != (n, n):
            raise GeometryError(f"sigma0 must have shape {(n, n)}")
        sigma_fn = batched(lambda x: sigma_const)

    @batched
    def coeff(x, w):
        xs, ws, shape = _rows(x, w)
        mat = np.zeros((len(ws), n + 1, n + 1))
        mat[:, :n, :n] = (stacked(gamma_fn, xs) @ ws[:, None, :, None])[..., 0]
        mat[:, :n, n] = (stacked(sigma_fn, xs) @ ws[..., None])[..., 0]
        return lg.AlgebraElement._holding(tag, mat.reshape(shape + (n + 1, n + 1)))

    return CartanStructure(
        name="affine",
        spec=affine_homogeneous_spec(n),
        conn=LocalConnection(domain, tag, coeff),
    )


# ---------------------------------------------------------------------------
# Galilean gravity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GravityField:
    """Gravity data on the (t, x_1, ..., x_s) chart: the acceleration V, a
    scalar when s = 1 and s components otherwise, and the optional scalar
    velocity coupling W, functions of a time and a position (of arrays of
    both when declared :func:`~cartanconn.principal.batched`)."""

    V: Callable[..., float | np.ndarray]
    W: Callable[..., float] | None = None

    @staticmethod
    def constant(g0: float | tuple[float, ...]) -> "GravityField":
        """The constant field ``g0``, whose value is one ``(1, s)`` row at any points."""
        row = np.reshape(np.asarray(g0, dtype=float), (1, -1))
        row.setflags(write=False)
        return GravityField(batched(lambda t, *x: row))


def _field_rows(fn: Callable, ps: np.ndarray, width: int, name: str) -> np.ndarray:
    """Values of the field ``fn`` at the points ``ps`` (N, 1 + s) as ``(N, width)``
    or one constant row ``(1, width)``, and for ``width`` 1 also ``(N,)`` or one
    number; any other shape, such as ``(N,)`` for ``width = N > 1``, is a :class:`GeometryError`."""
    values, n = stacked(fn, *ps.T), len(ps)
    if values.shape in ((n, width), (1, width)) or (width == 1 and values.ndim < 2 and values.size in (1, n)):
        return values.reshape(-1, width)
    scalar = " or (N,)" if width == 1 else ""
    raise GeometryError(f"gravity field {name} gave shape {values.shape} at {n} points; expected "
                        f"(N, {width}) = ({n}, {width}){scalar}, or a constant (1, {width})")


def galilean_gravity(field: GravityField, domain: ChartDomain | None = None) -> CartanStructure:
    """Gravity structure on the spacetime of dimension ``domain.dim``
    (2 by default), with ``s = domain.dim - 1`` space dimensions.

    The local coefficients are
    ``A(dt, dx) = (-V dt - W dx) . eps_v + dt eps_a + dx . eps_b``;
    in 1+1 the reconstructed form at a frame (v, a, b) works out to

        (-V dt - W dx + dv) eps_v + (dt + da) eps_a
        + (-(v + a V) dt + (1 - a W) dx - v da + db) eps_b,

    the soldering map is the identity, and the development of a trajectory
    (t, x(t)) is a straight line exactly when V + W x' - x'' = 0, in every
    dimension. The curvature in 1+1 is

        F(dt, dx) = (dx V - dt W) eps_v + W eps_b.

    Its ``eps_b`` part lies in ``g/g'`` (the boosts ``eps_v`` span ``g'``),
    so ``W`` is torsion; ``V`` alone gives Cartan's torsion-free Newtonian
    connection. ``V`` may raise ``SingularFieldError`` on an excluded set
    (e.g. the center of a Kepler field). The coefficient map is batched; it
    evaluates ``V`` and ``W`` through :func:`~cartanconn.principal.stacked`,
    and a batched ``V`` maps arrays ``(N,)`` of t, x_1, ..., x_s to
    ``(N,)`` when ``s = 1`` and to ``(N, s)`` otherwise; a constant one may
    give one ``(1, s)`` row. Any other shape of ``V`` or ``W`` raises
    :class:`GeometryError` when the coefficients are evaluated.
    """
    domain = domain or ChartDomain.unbounded(2)
    s, tag = domain.dim - 1, lg.galileo_tag(domain.dim)

    @batched
    def coeff(p, d):
        ps, ds, shape = _rows(p, d)
        mat = np.zeros((len(ds), s + 2, s + 2))
        mat[:, 1:-1, 0] = -_field_rows(field.V, ps, s, "V") * ds[:, :1]
        if field.W is not None:
            mat[:, 1:-1, 0] -= _field_rows(field.W, ps, 1, "W") * ds[:, 1:]
        mat[:, :-1, -1] = ds
        return lg.AlgebraElement._holding(tag, mat.reshape(shape + (s + 2, s + 2)))

    return CartanStructure(
        name="galilean-gravity" if s == 1 else f"galilean-gravity-{domain.dim}d",
        spec=galileo_homogeneous_spec(domain.dim),
        conn=LocalConnection(domain, tag, coeff),
    )


def galilean_gravity_3d(accel: Callable[[float, float, float], np.ndarray],
                        domain: ChartDomain | None = None) -> CartanStructure:
    """:func:`galilean_gravity` on a (t, x, y) spacetime with acceleration
    ``accel``: trajectories with (x'', y'') = accel(t, x, y) develop straight."""
    return galilean_gravity(GravityField(accel), domain or ChartDomain.unbounded(3))


def kepler_acceleration(mu: float = 1.0, min_radius: float = 1e-3):
    """Central attraction -mu r / |r|^3 toward the origin of the (x, y)
    plane, raising inside the excluded disk around the singular center
    (batched)."""

    @batched
    def accel(t, x, y):
        r2 = x * x + y * y
        if np.any(r2 < min_radius * min_radius):
            raise SingularFieldError("trajectory entered the excluded disk around the Kepler center")
        return -mu * np.stack([x, y], axis=-1) / (r2 ** 1.5)[..., None]

    return accel


def kepler_orbit(mu: float = 1.0, a: float = 1.0, e: float = 0.6,
                 t0: float = 0.0, t1: float | None = None) -> SmoothPath:
    """Closed-form elliptical orbit (t, x(t), y(t)) with gravitational
    parameter mu, semi-major axis a and eccentricity e, starting at
    perihelion; spans half a period by default.

    Positions come from the eccentric anomaly E(t) solving
    M = E - e sin E (one Newton solve, elementwise over an array of times,
    and one ``sin E`` and ``cos E`` serve ``x`` and ``xdot`` at the same
    times), so the trajectory
    satisfies (x'', y'') = -mu r / |r|^3 to round-off. The path is batched.
    """
    if not 0 <= e < 1:
        raise ValueError("eccentricity must lie in [0, 1)")
    n_mean = np.sqrt(mu / a**3)
    b = a * np.sqrt(1.0 - e * e)
    if t1 is None:
        t1 = t0 + np.pi / n_mean  # half a period

    last = [None, None]   # x and xdot at the same times share the solve, sin E and cos E

    def anomaly(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sin E`` and ``cos E`` of the eccentric anomaly ``E`` at the times ``t``."""
        if last[0] is not None and np.array_equal(last[0], t):
            return last[1]
        m = n_mean * (t - t0)
        ecc = m if e < 0.8 else np.full_like(m, np.pi)
        todo = np.ones(m.shape, dtype=bool)
        # Newton per element, each stopping after its first |delta| < 1e-15
        for _ in range(50):
            delta = np.where(todo, (ecc - e * np.sin(ecc) - m) / (1.0 - e * np.cos(ecc)), 0.0)
            ecc = ecc - delta
            todo &= np.abs(delta) >= 1e-15
            if not todo.any():
                break
        last[:] = t.copy(), (np.sin(ecc), np.cos(ecc))
        return last[1]

    @batched
    def x(t):
        t = np.asarray(t, dtype=float)
        sin_e, cos_e = anomaly(t)
        return np.stack([t, a * (cos_e - e), b * sin_e], axis=-1)

    @batched
    def xdot(t):
        t = np.asarray(t, dtype=float)
        sin_e, cos_e = anomaly(t)
        rate = n_mean / (1.0 - e * cos_e)
        return np.stack([np.ones_like(t), -a * sin_e * rate, b * cos_e * rate], axis=-1)

    return SmoothPath(t0, t1, x, xdot)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _build_homogeneous(space: str = "galileo", n: int = 2) -> CartanStructure:
    specs = {
        "galileo": lambda: galileo_homogeneous_spec(2),
        "affine": lambda: affine_homogeneous_spec(n),
        "mobius": lambda: mobius_homogeneous_spec(n),
        "projective": lambda: projective_homogeneous_spec(n),
    }
    if space not in specs:
        raise GeometryError(f"unknown homogeneous space '{space}'")
    return homogeneous_flat(specs[space]())


def _build_galilean(V=9.81, W=None) -> CartanStructure:
    v_fn = V if callable(V) else batched(lambda t, x, v0=float(V): v0)
    w_fn = None if W is None else (W if callable(W) else batched(lambda t, x, w0=float(W): w0))
    return galilean_gravity(GravityField(v_fn, w_fn))


MODEL_BUILDERS: dict[str, Callable[..., CartanStructure]] = {
    "homogeneous": _build_homogeneous,
    "affine": lambda n=2, gamma=None, sigma0=None: affine_structure(n, gamma, sigma0),
    "galilean": _build_galilean,
    "galilean3d": lambda accel=None: galilean_gravity_3d(accel or GravityField.constant((0.0, -9.81)).V),
    "mobius": lambda n=2: homogeneous_flat(mobius_homogeneous_spec(n)),
    "projective": lambda n=2: homogeneous_flat(projective_homogeneous_spec(n)),
}


def build_model(name: str, **params) -> CartanStructure:
    """Build a registered model by name."""
    if name not in MODEL_BUILDERS:
        raise GeometryError(
            f"unknown model '{name}'; available: {', '.join(sorted(MODEL_BUILDERS))}"
        )
    return MODEL_BUILDERS[name](**params)
