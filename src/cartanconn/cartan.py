"""Cartan structures on homogeneous-fibre bundles.

A Cartan structure couples a connection on a trivialized principal
``G``-bundle with homogeneous data: the fibre is a chart of ``F = G / G'``
with base point ``o``, and a global section ``s0`` of the associated bundle
singles out the reduction

    H' = { (x, g) : g(o) = s0(x) },

a principal ``G'``-bundle. The connection form restricted to ``H'`` (the
induced form) takes values in the full algebra of ``G``; the structure is

* ``cartan``       when the induced form has zero kernel on each tangent
                   space of ``H'`` and ``dim B = dim F``,
* ``generalized``  when only the kernel condition holds (``dim B < dim F``),
* ``neither``      otherwise.

For Cartan structures the induced form produces the soldering isomorphism

    sigma(w) = T_o h' . T_e pi . omega(W')

for any point ``h'`` of ``H'`` over ``x`` and any tangent ``W'`` of ``H'``
projecting to ``w``; the value is independent of both choices, and this
independence is exercised as a property test rather than assumed.

Development of a base path ``x(t)`` into the fibre over ``x(t0)`` follows
the factorization through the horizontal lift ``h(t)`` started at the
canonical reduction point: with ``g(t) = h(t)^{-1} h'(t)`` the development
is ``y(t) = h'(t0) g(t) (o)`` and its initial velocity equals
``sigma(x'(t0))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import liegroup as lg
from .errors import GeometryError, NotCartanError
from .principal import LocalConnection, PrincipalPoint, PrincipalTangent, _form_matrices, full_form
from .settings import DEFAULT_TOLERANCES, Tolerances
from .transport import DevelopedPath, FiberAction, Path, horizontal_lift


@dataclass(eq=False)
class HomogeneousSpec:
    """Homogeneous-space data for a fibre ``F = G / G'`` realized on a chart.

    act             left action of ``G`` on the fibre chart
    project         quotient projection ``G -> F`` in chart coordinates,
                    ``project(g) = act(g, o)``, on a matrix or a stack of
                    matrices ``(..., n, n)``, giving ``(..., fiber_dim)``
    coset_section   right inverse of ``project``: a group element mapping
                    ``o`` to the given chart point
    stabilizer_basis  basis of the Lie algebra of ``G'``
    fiber_map       matrix of the projection ``T_e(G) -> T_o F`` on algebra
                    coordinates (built by finite differences of the
                    infinitesimal action when not supplied)
    act_jacobian    derivative of ``act(g, .)`` at a chart point (finite
                    differences when not supplied)
    """

    name: str
    tag: lg.GroupTag
    fiber_dim: int
    origin: np.ndarray
    act: Callable[[lg.GroupElement, np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    coset_section: Callable[[np.ndarray], lg.GroupElement]
    stabilizer_basis: tuple[lg.AlgebraElement, ...]
    fiber_map: np.ndarray | None = None
    act_jacobian: Callable[[lg.GroupElement, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if self.fiber_map is None:
            self.fiber_map = self._fiber_map_fd()
        self.fiber_map = np.asarray(self.fiber_map, dtype=float)

    def _fiber_map_fd(self, h: float = 1e-6) -> np.ndarray:
        cols = []
        for xi in lg.algebra_basis(self.tag):
            plus = self.act(lg.exp(h * xi), self.origin)
            minus = self.act(lg.exp((-h) * xi), self.origin)
            cols.append((np.asarray(plus) - np.asarray(minus)) / (2 * h))
        return np.column_stack(cols)

    def algebra_to_fiber(self, xi: lg.AlgebraElement) -> np.ndarray:
        """Tangent of the quotient projection at the identity applied to xi."""
        return self.fiber_map @ lg.algebra_coords(xi)

    def jacobian(self, g: lg.GroupElement, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
        if self.act_jacobian is not None:
            return np.asarray(self.act_jacobian(g, point), dtype=float)
        cols = []
        for i in range(self.fiber_dim):
            e = np.zeros(self.fiber_dim)
            e[i] = h
            cols.append((self.act(g, point + e) - self.act(g, point - e)) / (2 * h))
        return np.column_stack(cols)

    def random_stabilizer_algebra(self, rng: np.random.Generator, scale: float = 0.5) -> lg.AlgebraElement:
        coords = rng.standard_normal(len(self.stabilizer_basis))
        mat = sum(c * b.mat for c, b in zip(coords, self.stabilizer_basis))
        xi = lg.AlgebraElement(self.tag, mat)
        n = xi.norm()
        return (scale / n) * xi if n > 0 else xi

    def random_stabilizer_element(self, rng: np.random.Generator, scale: float = 0.5) -> lg.GroupElement:
        return lg.exp(self.random_stabilizer_algebra(rng, scale))

    def fiber_action(self) -> FiberAction:
        return FiberAction(self.tag, self.fiber_dim, self.origin, self.act)

    def validate(self, rng: np.random.Generator | None = None, samples: int = 10,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        """Structural checks: the projection sends e to o, the stabilizer
        fixes o, sections are right inverses, and dimensions add up."""
        rng = rng or np.random.default_rng(0)
        e = lg.identity(self.tag)
        if np.max(np.abs(self.project(e.mat) - self.origin)) > tol.structural:
            raise GeometryError(f"{self.name}: projection of the identity is not the base point")
        if len(self.stabilizer_basis) + self.fiber_dim != lg.algebra_dim(self.tag):
            raise GeometryError(f"{self.name}: dim G != dim G' + dim F")
        for _ in range(samples):
            gp = self.random_stabilizer_element(rng)
            if np.max(np.abs(self.act(gp, self.origin) - self.origin)) > 1e-9:
                raise GeometryError(f"{self.name}: stabilizer element moved the base point")
            z = self.origin + 0.5 * rng.standard_normal(self.fiber_dim)
            sec = self.coset_section(z)
            if np.max(np.abs(self.act(sec, self.origin) - z)) > 1e-9:
                raise GeometryError(f"{self.name}: coset section is not a right inverse")


@dataclass(frozen=True)
class CartanReport:
    """Outcome of a kernel / dimension classification."""

    kind: str  # "cartan" | "generalized" | "neither"
    min_singular_value: float
    base_dim: int
    fiber_dim: int
    samples: int
    worst_point: tuple = field(repr=False, default=())

    @property
    def is_cartan(self) -> bool:
        return self.kind == "cartan"


@dataclass(eq=False)
class CartanStructure:
    """Connection plus homogeneous data plus a section of the associated bundle.

    ``section`` defaults to the constant section at the fibre base point, in
    which case the reduction is ``B x G'`` and ``frame_section`` is the
    identity; the flat homogeneous geometry instead uses the diagonal
    section with the coset section as its canonical reduction frame.
    """

    name: str
    spec: HomogeneousSpec
    conn: LocalConnection
    section: Callable[[np.ndarray], np.ndarray] | None = None
    frame_section: Callable[[np.ndarray], lg.GroupElement] | None = None
    frame_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.conn.tag != self.spec.tag:
            raise GeometryError("connection and homogeneous data use different groups")

    # -- geometry of the reduction -------------------------------------------------

    @property
    def base_dim(self) -> int:
        return self.conn.domain.dim

    def section_value(self, x) -> np.ndarray:
        if self.section is None:
            return self.spec.origin.copy()
        return np.asarray(self.section(np.asarray(x, dtype=float)), dtype=float)

    def frame_at(self, x) -> lg.GroupElement:
        if self.frame_section is None:
            return lg.identity(self.spec.tag)
        return self.frame_section(np.asarray(x, dtype=float))

    def _frame_derivative(self, x, w, h: float = 1e-6) -> np.ndarray:
        """Derivative of the reduction frame along the base direction w."""
        if self.frame_section is None:
            return np.zeros((self.spec.tag.size, self.spec.tag.size))
        if self.frame_jacobian is not None:
            return np.asarray(self.frame_jacobian(np.asarray(x, float), np.asarray(w, float)), float)
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return (self.frame_at(x + h * w).mat - self.frame_at(x - h * w).mat) / (2 * h)

    def in_reduction(self, p: PrincipalPoint, tol: float = 1e-10) -> bool:
        """Membership test for H': the point maps o onto the section."""
        image = self.spec.act(p.g, self.spec.origin)
        return bool(np.max(np.abs(image - self.section_value(p.x))) <= tol)

    def reduction_tangency_residual(self, p: PrincipalPoint, v: PrincipalTangent,
                                    h: float = 1e-6) -> float:
        """Residual of the differentiated membership constraint along v."""
        def constraint(s: float) -> np.ndarray:
            g = lg.GroupElement(p.g.tag, p.g.mat + s * v.dg)
            return self.spec.act(g, self.spec.origin) - self.section_value(p.x + s * v.dx)

        return float(np.max(np.abs((constraint(h) - constraint(-h)) / (2 * h))))

    # -- induced form ---------------------------------------------------------------

    def induced_form(self, p: PrincipalPoint, v: PrincipalTangent, *,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> lg.AlgebraElement:
        """Restriction of the connection form to the reduction.

        The point must belong to H' and the tangent must be tangent to H'
        (checked by differentiating the membership constraint); values lie
        in the full algebra of G, not merely in that of G'.
        """
        if not self.in_reduction(p):
            raise GeometryError("point does not belong to the reduction H'")
        if self.reduction_tangency_residual(p, v) > tol.axiom * (1.0 + float(np.max(np.abs(v.dg)))):
            raise GeometryError("tangent vector is not tangent to the reduction H'")
        return full_form(self.conn, p, v)

    # -- tangent frames of the reduction --------------------------------------------

    def _reduction_point(self, x, gprime: lg.GroupElement | None = None) -> PrincipalPoint:
        g = self.frame_at(x)
        if gprime is not None:
            g = lg.compose(g, gprime)
        return PrincipalPoint(np.asarray(x, dtype=float), g)

    def _reduction_tangent_basis(self, x, gprime: lg.GroupElement | None = None):
        """Basis of T H' at the point over x framed by ``frame * gprime``, as
        stacks ``(dxs, dgs)``: base directions follow the frame section,
        verticals span g'. For PGL the point is stored normalized (as
        :func:`lg.compose` returns it), and the tangents are scaled with it."""
        x = np.asarray(x, dtype=float)
        m, stabilizer = self.base_dim, self.spec.stabilizer_basis
        gp_mat = np.eye(self.spec.tag.size) if gprime is None else gprime.mat
        total = self.frame_at(x).mat @ gp_mat
        if self.spec.tag.kind is lg.GroupKind.PGL:
            pivot = total.flat[np.argmax(np.abs(total))]   # as lg.normalize_projective
            total, gp_mat = total / pivot, gp_mat / pivot
        dgs = [self._frame_derivative(x, w) @ gp_mat for w in np.eye(m)]
        return np.eye(m + len(stabilizer), m), np.array(dgs + [total @ eta.mat for eta in stabilizer])

    def reduced_form_matrix(self, x, gprime: lg.GroupElement | None = None) -> np.ndarray:
        """Matrix of the induced form on the tangent basis of H' at x,
        expressed in algebra coordinates of G (columns = basis tangents),
        evaluated on all basis tangents at once."""
        p = self._reduction_point(x, gprime)
        mats = _form_matrices(self.conn, p.x, p.g.mat, *self._reduction_tangent_basis(x, gprime))
        return lg.algebra_coords(lg.AlgebraElement(self.conn.tag, mats)).T

    # -- classification ---------------------------------------------------------------

    def is_cartan(self, samples: int = 20, seed: int = 0, *,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> CartanReport:
        """Classify the structure by sampling the induced form's kernel.

        The form matrix is assembled at random reduction points; the
        structure is kernel-free when the smallest singular value stays
        above the rank threshold at every sample.
        """
        rng = np.random.default_rng(seed)
        worst = np.inf
        witness = ()
        for _ in range(samples):
            x = self.conn.domain.sample(rng)
            gprime = self.spec.random_stabilizer_element(rng)
            matrix = self.reduced_form_matrix(x, gprime)
            svals = np.linalg.svd(matrix, compute_uv=False)
            smallest = float(svals[-1]) if matrix.shape[0] >= matrix.shape[1] else 0.0
            if smallest < worst:
                worst, witness = smallest, (x,)
        kernel_free = worst > tol.rank
        if kernel_free and self.base_dim == self.spec.fiber_dim:
            kind = "cartan"
        elif kernel_free and self.base_dim < self.spec.fiber_dim:
            kind = "generalized"
        else:
            kind = "neither"
        return CartanReport(
            kind=kind,
            min_singular_value=worst,
            base_dim=self.base_dim,
            fiber_dim=self.spec.fiber_dim,
            samples=samples,
            worst_point=witness,
        )

    # -- soldering ---------------------------------------------------------------------

    def soldering_with_choices(self, x, w, gprime: lg.GroupElement,
                               vertical: lg.AlgebraElement) -> np.ndarray:
        """Soldering value computed from an explicit admissible choice of
        reduction point (framed by ``gprime``) and lift (shifted by the
        stabilizer direction ``vertical``); used to exercise independence."""
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        p = self._reduction_point(x, gprime)
        dg = self._frame_derivative(x, w) @ gprime.mat + p.g.mat @ vertical.mat
        omega = full_form(self.conn, p, PrincipalTangent(w, dg), check_domain=False)
        fiber_vec = self.spec.algebra_to_fiber(omega)
        push = self.spec.jacobian(p.g, self.spec.origin)
        return push @ fiber_vec

    def soldering(self, x, w) -> np.ndarray:
        """Soldering map at x applied to the base tangent w: a tangent to
        the fibre at the section point, independent of construction choices."""
        e_prime = lg.identity(self.spec.tag)
        return self.soldering_with_choices(x, w, e_prime, lg.zero_algebra(self.spec.tag))

    def soldering_matrix(self, x) -> np.ndarray:
        """Soldering map at x on the coordinate basis, from one evaluation
        of the induced form on the base directions of H'."""
        e_prime = lg.identity(self.spec.tag)
        push = self.spec.jacobian(self._reduction_point(x, e_prime).g, self.spec.origin)
        return push @ self.spec.fiber_map @ self.reduced_form_matrix(x, e_prime)[:, :self.base_dim]

    # -- development ---------------------------------------------------------------------

    def develop_base_path(self, path: Path, step: float = 1e-3, *,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> DevelopedPath:
        """Development of a base path in the fibre over its starting point.

        The horizontal lift ``h`` starts at the canonical reduction point
        ``h'(t0)``; the development is
        ``y(t) = act(h'(t0) h(t)^{-1} h'(t), o)``, computed for all nodes
        in one ``spec.project`` call. The node points come from one
        ``points`` call per segment; a node on a corner belongs to the
        earlier segment.
        """
        segments = path.segments
        x0 = segments[0].point(segments[0].t0)
        h0 = self.frame_at(x0)
        lifted = horizontal_lift(self.conn, path, h0, step, tol=tol)
        ts, tag = lifted.ts, self.spec.tag
        movers = lg.inverse_matrix(tag, lifted.mats)
        # without a frame section h' is the identity everywhere
        if self.frame_section is not None:
            movers = h0.mat @ movers
            xs = np.empty((len(ts), self.base_dim))
            cuts = [0, *np.searchsorted(ts, [seg.t1 + 1e-15 for seg in segments[:-1]], side="right"), len(ts)]
            for seg, i0, i1 in zip(segments, cuts, cuts[1:]):
                seg.points(np.clip(ts[i0:i1], seg.t0, seg.t1), out=xs[i0:i1])
            for i, x in enumerate(xs):
                movers[i] = movers[i] @ self.frame_at(x).mat
        return DevelopedPath(ts.copy(), self.spec.project(movers), x0)

    # -- parallelization -------------------------------------------------------------------

    def parallelization_frame(self, p: PrincipalPoint, *,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> list[PrincipalTangent]:
        """Tangent frame of H' at p indexed by the algebra basis of G:
        the inverse images of the basis under the induced form.

        Only defined for Cartan structures; raises when the dimension
        condition fails or the form matrix is singular at p.
        """
        if self.base_dim != self.spec.fiber_dim:
            raise NotCartanError("dimension condition dim B = dim F fails")
        if not self.in_reduction(p):
            raise GeometryError("point does not belong to the reduction H'")
        # frame the point as frame(x) * g' to reuse the tangent basis
        gprime = lg.compose(lg.inverse(self.frame_at(p.x)), p.g)
        dxs, dgs = self._reduction_tangent_basis(p.x, gprime)
        matrix = self.reduced_form_matrix(p.x, gprime)
        svals = np.linalg.svd(matrix, compute_uv=False)
        if svals[-1] <= tol.rank:
            raise NotCartanError(
                f"induced form is singular at the requested point (sigma_min = {svals[-1]:.3e})"
            )
        coeffs = np.linalg.inv(matrix)  # column j: coordinates of frame vector j
        return [PrincipalTangent(c @ dxs, np.tensordot(c, dgs, 1)) for c in coeffs.T]
