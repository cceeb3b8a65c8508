"""Trivialized principal bundles over a single chart.

A principal bundle with structure group ``G`` over a chart domain
``U`` in R^m is realized as the product ``U x G``. A connection is stored
through its local coefficient map ``A(x, dx)``: the pullback of the
connection form by the identity section ``g = e``, linear in ``dx`` and
valued in the Lie algebra of ``G``.

The full connection form at an arbitrary point ``(x, g)`` is reconstructed
from the local data by

    omega(dx, dg) = Ad_{g^{-1}} A(x, dx) + g^{-1} dg

which is the unique extension of ``A`` that reproduces generators on
fundamental vertical fields and transforms by ``Ad_{g^{-1}}`` under right
translation. :func:`check_axioms` audits both properties on random
samples, evaluating the library's form on stacks of samples and a
user-supplied form per sample; :func:`curvature` evaluates ``dA + [A, A]``
with ``d`` taken by central finite differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import liegroup as lg
from ._records import FrozenRecord, ValueRecord, set_field
from .errors import DomainError, InvalidElementError, TagMismatchError
from .settings import AXIOM, CURVATURE_STEP


class ChartDomain(ValueRecord):
    """Axis-aligned box (or all of R^m) on which a chart is valid."""

    _fields = ("dim", "lower", "upper")

    def __init__(self, dim: int, lower: tuple[float, ...] | None = None, upper: tuple[float, ...] | None = None):
        if dim < 1:
            raise ValueError("chart domain needs dimension >= 1")
        if (lower is None) != (upper is None):
            raise ValueError("a box needs both its lower and its upper bounds")
        if lower is not None:
            lower, upper = tuple(map(float, lower)), tuple(map(float, upper))
            if len(lower) != len(upper):
                raise ValueError("box bounds must have equal lengths")
            if len(lower) != dim:
                raise ValueError(f"box bounds must have {dim} entries, one per axis")
            if not all(lo < hi for lo, hi in zip(lower, upper)):
                raise ValueError("box lower bounds must be below upper bounds")
        set_field(self, "dim", dim)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)

    @staticmethod
    def unbounded(dim: int) -> "ChartDomain":
        return ChartDomain(dim)

    @staticmethod
    def box(lower, upper) -> "ChartDomain":
        lower = tuple(lower)
        return ChartDomain(len(lower), lower, upper)

    def contains(self, x):
        """Whether ``x`` lies in the domain (per point for a stack ``(N, dim)``)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            return False if x.ndim != 2 else np.zeros(len(x), dtype=bool)
        inside = np.isfinite(x)
        if self.lower is not None:
            inside &= (x >= np.asarray(self.lower)) & (x <= np.asarray(self.upper))
        if inside.all():   # the whole stack at once; row by row only when a point is out
            return np.ones(len(x), dtype=bool) if x.ndim == 2 else True
        inside = inside.all(axis=-1)
        return inside if x.ndim == 2 else bool(inside)

    def sample(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """Random point of the domain: normal with standard deviation
        ``scale`` on an unbounded domain, uniform on a box shrunk about its
        centre by the factor ``scale`` in (0, 1] (the whole box at 1)."""
        return self.sample_rows(rng, 1, scale=scale)[0]

    def sample_rows(self, rng: np.random.Generator, count: int, normals: int = 0, scale: float = 1.0) -> np.ndarray:
        """``count`` rows, each a point drawn as by :meth:`sample` followed
        by ``normals`` standard normal draws, as ``(count, dim + normals)``
        in the stream of drawing row after row. On an unbounded domain that
        stream is one normal draw of the whole stack; a box interleaves its
        uniform draws with the normal ones, so it draws row by row."""
        if self.lower is None:
            return rng.standard_normal((count, self.dim + normals)) * np.repeat([scale, 1.0], [self.dim, normals])
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"box sample scale must lie in (0, 1], got {scale}")
        lo, hi = np.asarray(self.lower), np.asarray(self.upper)
        pad = (hi - lo) * (1.0 - scale) / 2
        return np.array([np.concatenate([rng.uniform(lo + pad, hi - pad), rng.standard_normal(normals)])
                         for _ in range(count)]).reshape(count, self.dim + normals)


def batched(fn: Callable) -> Callable:
    """Declare that ``fn`` takes a leading axis of nodes, and return it.

    A batched callable given arrays over ``N`` nodes returns the stacked
    values of its per-point calls: a path ``x(ts)`` with ``ts`` of shape
    ``(N,)`` returns ``(N, dim)``, a coefficient map ``coeff(xs, dxs)``
    with ``(N, m)`` arrays returns an algebra element whose ``mat`` is
    ``(N, n, n)``, and a scalar field returns values broadcastable against
    its arguments. :func:`stacked` calls a batched callable once per stack
    of nodes and any other once per node; the mark is a function attribute,
    so it survives ``functools.wraps``.
    """
    fn.batched = True
    return fn


def is_batched(fn: Callable) -> bool:
    """Whether ``fn`` was declared with :func:`batched`."""
    return getattr(fn, "batched", False) is True


def stacked(fn: Callable, *args, out: np.ndarray | None = None, what: str = "callable") -> np.ndarray:
    """Values of ``fn`` on stacks ``args`` that share a leading axis of
    ``N`` rows, as one array ``(N, ...)``, written into ``out`` when given;
    algebra elements are read as their matrices.

    A :func:`batched` ``fn`` gets one call on the whole stacks, any other
    one call per row (in order, on the rows' numpy scalars or views, through
    one ``map``), which costs its own calls plus about 0.04 us a float and
    0.2 us a short array returned (2-vCPU Xeon). Rows of unequal shapes, or
    values that do not have the shape of ``out``, raise ``ValueError``;
    without ``out`` the values are returned as they are, so a batched
    constant field may broadcast.
    """
    declared = is_batched(fn)
    values = _value(fn(*args)) if declared else list(map(fn, *args))
    try:
        try:
            values = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            if declared:
                raise
            values = np.asarray([_value(v) for v in values], dtype=float)   # algebra elements among the rows
    except ValueError as exc:
        raise ValueError(f"{what} returned values of unequal shapes or types: {exc}") from exc
    if out is None:
        return values
    if len(out) and values.shape != out.shape:
        raise ValueError(f"{'batched ' * declared}{what} returned shape {values.shape} for {len(out)} nodes")
    out[...] = values.reshape(out.shape)
    return out


def _value(value):
    return value.mat if isinstance(value, lg.AlgebraElement) else value


class LocalConnection(FrozenRecord):
    """Chart-level connection data: ``A(x, dx)``, linear in ``dx``.

    ``coeff`` maps a base point and a base tangent to an algebra element of
    ``tag``. The map must be linear in the tangent slot; this is audited by
    the test-suite rather than enforced per call. The library evaluates it
    through :func:`coeff_matrices` and leaves ``coeff`` as given: a lift
    calls a :func:`batched` ``coeff`` once per block of nodes and the axiom
    audit once per stack of samples, on ``(N, m)`` stacks of points and
    tangents, and needs ``mat`` of shape ``(N, n, n)`` back; any other
    ``coeff`` is called once per node.
    """

    _fields = ("domain", "tag", "coeff")

    def __init__(self, domain: ChartDomain, tag: lg.GroupTag,
                 coeff: Callable[[np.ndarray, np.ndarray], lg.AlgebraElement]):
        set_field(self, "domain", domain)
        set_field(self, "tag", tag)
        set_field(self, "coeff", coeff)


def zero_connection(domain: ChartDomain, tag: lg.GroupTag) -> LocalConnection:
    """The connection with ``A = 0`` (Maurer-Cartan only)."""
    shape = (tag.size, tag.size)
    return LocalConnection(domain, tag, batched(
        lambda x, dx: lg.AlgebraElement._holding(tag, np.zeros(np.shape(dx)[:-1] + shape))))


class PrincipalPoint(FrozenRecord):
    """Point ``(x, g)`` of the trivialized bundle ``U x G``."""

    _fields = ("x", "g")

    def __init__(self, x: np.ndarray, g: lg.GroupElement):
        set_field(self, "x", np.asarray(x, dtype=float))
        set_field(self, "g", g)


class PrincipalTangent(FrozenRecord):
    """Tangent ``(dx, dg)`` attached at a bundle point; ``dg`` is a raw
    matrix tangent at the group component."""

    _fields = ("dx", "dg")

    def __init__(self, dx: np.ndarray, dg: np.ndarray):
        set_field(self, "dx", np.asarray(dx, dtype=float))
        set_field(self, "dg", np.asarray(dg, dtype=float))


def coeff_matrices(conn: LocalConnection, xs, dxs, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficient matrices ``A(x_i, dx_i)`` of stacks ``(N, m)`` of points
    and tangents as ``(N, n, n)``, filled into ``out`` when given, through
    :func:`stacked`."""
    out = np.empty((len(xs), conn.tag.size, conn.tag.size)) if out is None else out
    return stacked(conn.coeff, xs, dxs, out=out, what="coefficient map")


def _algebra_part(tag: lg.GroupTag, mats) -> np.ndarray:
    """Projection of ``(..., n, n)`` onto the algebra; :class:`InvalidElementError` if not finite."""
    mats = lg.project_to_algebra(tag, mats)
    if not np.isfinite(mats).all():
        raise InvalidElementError(f"connection form of {tag.name} is not finite")
    return mats


def _form_matrices(tag: lg.GroupTag, coeffs, gs, dgs) -> np.ndarray:
    """Connection form ``_algebra_part(g^{-1} (A g + dg))``, ``(..., n, n)``, from
    stacks of coefficient matrices ``A`` and group tangents ``dgs`` at elements
    ``gs`` (one, or a stack broadcast against them); no domain check."""
    return _algebra_part(tag, lg.inverse_matrix(tag, gs) @ (coeffs @ gs + dgs))


def full_form(conn: LocalConnection, p: PrincipalPoint, v: PrincipalTangent) -> lg.AlgebraElement:
    """Connection form at ``p`` applied to ``v``:
    ``Ad_{g^{-1}} A(x, dx) + g^{-1} dg``."""
    if not conn.domain.contains(p.x):
        raise DomainError(f"base point {p.x} lies outside the chart domain")
    coeffs = coeff_matrices(conn, p.x[None], v.dx[None])
    return lg.AlgebraElement(conn.tag, _form_matrices(conn.tag, coeffs, p.g.mat, v.dg[None])[0])


def fundamental_vector(eta: lg.AlgebraElement, p: PrincipalPoint) -> PrincipalTangent:
    """Value at ``p`` of the fundamental vertical field of ``eta``:
    zero base velocity and group velocity ``g eta``."""
    if eta.tag != p.g.tag:
        raise TagMismatchError(
            f"algebra element of {eta.tag.name} cannot act on a {p.g.tag.name} bundle point"
        )
    return PrincipalTangent(np.zeros_like(p.x), p.g.mat @ eta.mat)


class AxiomReport(ValueRecord):
    """Outcome of a connection-form audit.

    ``residual_fundamental`` is the worst gap in ``omega(eta-hat) = eta``;
    ``residual_equivariance`` the worst gap in the ``Ad_{g^{-1}}``
    transformation rule under right translation.
    """

    _fields = ("samples", "residual_fundamental", "residual_equivariance", "tolerance",
               "worst_fundamental", "worst_equivariance")
    _hidden = ("worst_fundamental", "worst_equivariance")

    def __init__(self, samples: int, residual_fundamental: float, residual_equivariance: float, tolerance: float,
                 worst_fundamental: tuple = (), worst_equivariance: tuple = ()):
        set_field(self, "samples", samples)
        set_field(self, "residual_fundamental", residual_fundamental)
        set_field(self, "residual_equivariance", residual_equivariance)
        set_field(self, "tolerance", tolerance)
        set_field(self, "worst_fundamental", worst_fundamental)
        set_field(self, "worst_equivariance", worst_equivariance)

    @property
    def passed(self) -> bool:
        return self.residual_fundamental < self.tolerance and self.residual_equivariance < self.tolerance


def check_axioms(
    conn: LocalConnection,
    samples: int = 200,
    seed: int = 0,
    *,
    form: Callable[[PrincipalPoint, PrincipalTangent], lg.AlgebraElement] | None = None,
) -> AxiomReport:
    """Audit the two defining properties of a connection form on random
    samples, drawn once in the order ``x``, ``g``, ``eta``, ``dx``, ``zeta``,
    ``g0``; elements, products and inverses are computed on arrays over all
    samples. The form is evaluated on the fundamental field of ``eta`` at
    ``(x, g)``, and on ``(dx, g zeta)`` at ``(x, g)`` and right-translated
    by ``g0``.

    ``form`` defaults to the form reconstructed from ``conn``, from two
    coefficient evaluations per sample, ``A(x, 0)`` and ``A(x, dx)``, made
    in one stack (one call of a batched ``conn.coeff``); ``A(x, dx)`` is
    shared by both sides of the equivariance rule, and ``g^{-1}`` by both
    forms at ``(x, g)``.
    Pass another callable, called per sample on bundle points and tangents,
    to audit an externally supplied (possibly corrupted) form.
    """
    if samples < 1:
        raise ValueError("the axiom audit needs at least one sample")
    tag = conn.tag
    rng = np.random.default_rng(seed)
    m, k, n = conn.domain.dim, lg.algebra_dim(tag), tag.size
    draws = conn.domain.sample_rows(rng, samples, m + 4 * k)   # x, g, eta, dx, zeta, g0
    xs, dxs = draws[:, :m], draws[:, m + 2 * k:2 * m + 2 * k]
    coords = np.stack([draws[:, j:j + k] for j in (m, 2 * m + 3 * k, m + k, 2 * m + 2 * k)])
    basis = lg.algebra_basis_matrices(tag).reshape(k, n * n)
    mats = (coords @ basis).reshape(4, samples, n, n)   # exponents of g, g0; eta, zeta
    norms = _frobenius(mats)
    scale = np.array([0.6, 0.6, 0.5, 0.5])[:, None]
    mats *= np.divide(scale, norms, out=np.ones_like(norms), where=norms > 0)[..., None, None]
    eta, zeta = mats[2:]

    # valid (for PGL, normalized) representatives, tangents rescaled with them
    projective = tag.kind is lg.GroupKind.PGL
    points = lg.expm_matrix(tag, mats[:2])
    g, g0 = lg.normalize_projective(points) if projective else points
    raw = g @ g0
    gg0 = lg.normalize_projective(raw) if projective else raw
    factor = np.einsum("sij,sij->s", gg0, raw) / np.einsum("sij,sij->s", gg0, gg0)
    dg = g @ zeta
    dg_translated = dg @ g0 / factor[:, None, None]

    if form is None:
        coeffs = coeff_matrices(conn, np.concatenate([xs, xs]), np.concatenate([np.zeros_like(dxs), dxs]))
        fundamental, untranslated = _form_matrices(tag, coeffs.reshape(2, samples, n, n), g, np.stack([g @ eta, dg]))
        translated = _form_matrices(tag, coeffs[samples:], gg0, dg_translated)
    else:
        fundamental, translated, untranslated = np.empty((3, samples, n, n))
        for i in range(samples):
            p = PrincipalPoint(xs[i], lg.GroupElement(tag, g[i]))
            fundamental[i] = form(p, PrincipalTangent(np.zeros(m), g[i] @ eta[i])).mat
            q = PrincipalPoint(xs[i], lg.GroupElement(tag, gg0[i]))
            translated[i] = form(q, PrincipalTangent(dxs[i], dg_translated[i])).mat
            untranslated[i] = form(p, PrincipalTangent(dxs[i], dg[i])).mat

    worst_i, i = _worst(_frobenius(fundamental - eta))
    worst_ii, j = _worst(_frobenius(translated - lg.inverse_matrix(tag, g0) @ untranslated @ g0))
    witness_i = () if i is None else (xs[i], lg.GroupElement(tag, g[i]), lg.AlgebraElement(tag, eta[i]))
    witness_ii = () if j is None else (xs[j], lg.GroupElement(tag, g[j]), lg.GroupElement(tag, g0[j]))
    return AxiomReport(samples, worst_i, worst_ii, AXIOM, witness_i, witness_ii)


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit-identical to ``np.linalg.norm`` of each."""
    flat = mats.reshape(*mats.shape[:-2], 1, mats.shape[-2] * mats.shape[-1])
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _worst(residuals: np.ndarray) -> tuple[float, int | None]:
    """Largest residual (NaN first) and its first index, or ``(0.0, None)`` if all are 0."""
    i = int(np.argmax(residuals)) if np.any(residuals != 0) else None
    return (0.0, None) if i is None else (float(residuals[i]), i)


def curvature(conn: LocalConnection, x, dx1, dx2) -> lg.AlgebraElement:
    """Curvature two-form ``dA(dx1, dx2) + [A(dx1), A(dx2)]`` at ``x``.

    ``dA`` is evaluated by central finite differences of the coefficient
    map along the two directions, with the step ``settings.CURVATURE_STEP``;
    ``x`` must sit at least one step inside the chart domain along both.
    """
    x, dx1, dx2 = (np.asarray(v, dtype=float) for v in (x, dx1, dx2))
    h = CURVATURE_STEP
    probes = np.array([x + h * dx1, x - h * dx1, x + h * dx2, x - h * dx2])
    if not conn.domain.contains(probes).all():
        raise DomainError("point too close to the chart boundary for the difference step")
    a = coeff_matrices(conn, np.concatenate([probes, [x, x]]), np.array([dx2, dx2, dx1, dx1, dx1, dx2]))
    d1 = (a[0] - a[1]) / (2 * h)
    d2 = (a[2] - a[3]) / (2 * h)
    return lg.algebra_element(conn.tag, d1 - d2 + (a[4] @ a[5] - a[5] @ a[4]), project=True)
