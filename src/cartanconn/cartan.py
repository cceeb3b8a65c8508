"""Cartan structures on homogeneous-fibre bundles.

A Cartan structure couples a connection on a trivialized principal
``G``-bundle with homogeneous data: the fibre is a chart of ``F = G / G'``
with base point ``o``, and one datum fixes the fibre side, the action of
``G`` on that chart (:attr:`HomogeneousSpec.act`, on stacks of raw
matrices and points): the projection ``G -> F`` is the action on ``o``,
and transport and development apply it to a lift. A global section ``s0``
of the associated bundle singles out the reduction

    H' = { (x, g) : g(o) = s0(x) },

a principal ``G'``-bundle. The section is the constant one at ``o``, or
the diagonal ``x -> x`` when base and fibre share a chart; the canonical
reduction point over ``x`` is the frame ``h'(x) = coset_section(s0(x))``,
which lies in ``H'`` by construction. Frames, tangent bases of ``H'`` and
the induced form are evaluated on stacks of base points as raw matrices.

The connection form restricted to ``H'`` (the
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
from .principal import LocalConnection, PrincipalPoint, PrincipalTangent, _form_matrices, coeff_matrices, full_form
from .settings import AXIOM, RANK, STRUCTURAL
from .transport import DevelopedPath, Path, horizontal_lift


@dataclass(eq=False)
class HomogeneousSpec:
    """Homogeneous-space data for a fibre ``F = G / G'`` realized on a chart.

    act             left action of ``G`` on the fibre chart, on raw group
                    matrices ``(..., n, n)`` and chart points
                    ``(..., fiber_dim)`` that broadcast against each other,
                    giving ``(..., fiber_dim)``; the quotient projection
                    ``G -> F`` is ``act(mats, origin)``
    coset_section   right inverse of the projection on a stack of chart
                    points ``(N, fiber_dim)``: raw group matrices
                    ``(N, n, n)`` mapping ``o`` to each point, the identity
                    at ``o``
    coset_derivative  derivative of ``coset_section`` at a stack of points
                    along a stack of directions, both ``(N, fiber_dim)``,
                    as ``(N, n, n)``
    stabilizer_basis  basis of the Lie algebra of ``G'``
    fiber_map       matrix of the projection ``T_e(G) -> T_o F`` on algebra
                    coordinates
    act_jacobian    derivative of ``act(mat, .)`` at a chart point, for one
                    raw group matrix ``(n, n)``
    """

    name: str
    tag: lg.GroupTag
    fiber_dim: int
    origin: np.ndarray
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    coset_section: Callable[[np.ndarray], np.ndarray]
    coset_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stabilizer_basis: tuple[lg.AlgebraElement, ...]
    fiber_map: np.ndarray
    act_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.fiber_map = np.asarray(self.fiber_map, dtype=float)

    def algebra_to_fiber(self, xi: lg.AlgebraElement) -> np.ndarray:
        """Tangent of the quotient projection at the identity applied to xi."""
        return self.fiber_map @ lg.algebra_coords(xi)

    def random_stabilizer_algebra(self, rng: np.random.Generator, scale: float = 0.5) -> lg.AlgebraElement:
        coords = rng.standard_normal(len(self.stabilizer_basis))
        mat = sum(c * b.mat for c, b in zip(coords, self.stabilizer_basis))
        xi = lg.AlgebraElement(self.tag, mat)
        n = xi.norm()
        return (scale / n) * xi if n > 0 else xi

    def random_stabilizer_element(self, rng: np.random.Generator, scale: float = 0.5) -> lg.GroupElement:
        return lg.exp(self.random_stabilizer_algebra(rng, scale))

    def validate(self, rng: np.random.Generator | None = None, samples: int = 10) -> None:
        """Structural checks on stacks of samples: the identity fixes the
        base point and every sampled point, the action obeys the composition
        law ``act(g1 g2, z) = act(g1, act(g2, z))``, the stabilizer fixes o,
        the coset section lies in the group, is a right inverse of the
        projection ``act(., o)`` and is the identity at o, and dimensions
        add up."""
        rng = rng or np.random.default_rng(0)
        if len(self.stabilizer_basis) + self.fiber_dim != lg.algebra_dim(self.tag):
            raise GeometryError(f"{self.name}: dim G != dim G' + dim F")
        zs = np.vstack([self.origin, self.origin + 0.5 * rng.standard_normal((samples, self.fiber_dim))])
        if np.max(np.abs(self.act(np.eye(self.tag.size), zs) - zs)) > STRUCTURAL:
            raise GeometryError(f"{self.name}: the identity moves points of the fibre")
        pairs = np.array([[lg.random_element(self.tag, rng, scale=0.4).mat for _ in range(2)] for _ in zs])
        g1, g2 = pairs[:, 0], pairs[:, 1]
        if np.max(np.abs(self.act(g1 @ g2, zs) - self.act(g1, self.act(g2, zs)))) > STRUCTURAL:
            raise GeometryError(f"{self.name}: the action violates the composition law")
        stabilizer = np.array([self.random_stabilizer_element(rng).mat for _ in range(samples)])
        if np.max(np.abs(self.act(stabilizer, self.origin) - self.origin)) > 1e-9:
            raise GeometryError(f"{self.name}: stabilizer element moved the base point")
        secs = self.coset_section(zs)
        if not np.max(lg.group_defect(self.tag, secs)) <= STRUCTURAL:
            raise GeometryError(f"{self.name}: coset section leaves the group")
        if np.max(np.abs(self.act(secs, self.origin) - zs)) > 1e-9:
            raise GeometryError(f"{self.name}: coset section is not a right inverse")
        if np.max(np.abs(secs[0] - np.eye(self.tag.size))) > STRUCTURAL:
            raise GeometryError(f"{self.name}: coset section of the base point is not the identity")


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

    The section is the constant one at the fibre base point ``o`` unless
    ``diagonal`` is set, in which case it is ``x -> x`` (which needs
    ``dim B = dim F``; the flat homogeneous geometry uses it). The
    reduction frame over ``x`` is always the coset section at the
    section's value, ``spec.coset_section(s(x))``, so it lies in ``H'`` by
    construction: the constant section frames every point by
    ``coset_section(o)``, the identity, and has a zero frame derivative.
    """

    name: str
    spec: HomogeneousSpec
    conn: LocalConnection
    diagonal: bool = False

    def __post_init__(self):
        if self.conn.tag != self.spec.tag:
            raise GeometryError("connection and homogeneous data use different groups")
        if self.diagonal and self.base_dim != self.spec.fiber_dim:
            raise GeometryError("the diagonal section needs base dimension = fibre dimension")

    # -- geometry of the reduction -------------------------------------------------

    @property
    def base_dim(self) -> int:
        return self.conn.domain.dim

    def section_value(self, x) -> np.ndarray:
        """Section at a base point (or at each row of a stack ``(N, m)``)."""
        x = np.asarray(x, dtype=float)
        if self.diagonal:
            return x.copy()
        return np.broadcast_to(self.spec.origin, x.shape[:-1] + self.spec.origin.shape).copy()

    def _frames(self, xs) -> np.ndarray:
        """Reduction frames ``(N, n, n)`` at a stack of base points ``(N, m)``."""
        return self.spec.coset_section(self.section_value(xs))

    def _frame_derivatives(self, xs, ws) -> np.ndarray:
        """Derivatives ``(N, n, n)`` of the reduction frames at base points
        ``xs`` along base directions ``ws``, both ``(N, m)``."""
        ws = np.asarray(ws, dtype=float)
        section_tangents = ws if self.diagonal else np.zeros(ws.shape[:-1] + self.spec.origin.shape)
        return self.spec.coset_derivative(self.section_value(xs), section_tangents)

    def in_reduction(self, p: PrincipalPoint) -> bool:
        """Membership test for H': the point maps o onto the section."""
        image = self.spec.act(p.g.mat, self.spec.origin)
        return bool(np.max(np.abs(image - self.section_value(p.x))) <= STRUCTURAL)

    def reduction_tangency_residual(self, p: PrincipalPoint, v: PrincipalTangent) -> float:
        """Residual of the differentiated membership constraint along v (central difference, step 1e-6)."""
        def constraint(s: float) -> np.ndarray:
            return self.spec.act(p.g.mat + s * v.dg, self.spec.origin) - self.section_value(p.x + s * v.dx)

        return float(np.max(np.abs((constraint(1e-6) - constraint(-1e-6)) / 2e-6)))

    # -- induced form ---------------------------------------------------------------

    def induced_form(self, p: PrincipalPoint, v: PrincipalTangent) -> lg.AlgebraElement:
        """Restriction of the connection form to the reduction.

        The point must belong to H' and the tangent must be tangent to H'
        (checked by differentiating the membership constraint); values lie
        in the full algebra of G, not merely in that of G'.
        """
        if not self.in_reduction(p):
            raise GeometryError("point does not belong to the reduction H'")
        if self.reduction_tangency_residual(p, v) > AXIOM * (1.0 + float(np.max(np.abs(v.dg)))):
            raise GeometryError("tangent vector is not tangent to the reduction H'")
        return full_form(self.conn, p, v)

    # -- tangent frames of the reduction --------------------------------------------

    def _reduction_point(self, xs, gps=None):
        """Points ``frame(x) g'`` of H' over a stack of base points ``(N, m)``
        as raw matrices ``(N, n, n)``, with the factors ``g'`` (identities by
        default) rescaled alike: for PGL the point is stored normalized (as
        :func:`lg.compose` returns it), so ``points = frames @ gps`` holds
        for the returned pair."""
        frames = self._frames(xs)
        if gps is None:
            gps = np.broadcast_to(np.eye(self.spec.tag.size), frames.shape)
        points = frames @ gps
        if self.spec.tag.kind is lg.GroupKind.PGL:
            pivots = lg._pivots(points)[:, None, None]   # as lg.normalize_projective
            points, gps = points / pivots, gps / pivots
        return points, gps

    def _reduction_tangent_basis(self, xs, gps=None):
        """Points of H' over a stack of base points ``(N, m)`` framed by
        ``frame * gps`` (as :meth:`_reduction_point`) and a basis of T H'
        at each, as ``(points, dxs, dgs)`` with ``dxs`` ``(N, m + k, m)``
        and ``dgs`` ``(N, m + k, n, n)``: base directions follow the frame,
        verticals span g'. For PGL the tangents are scaled with the
        normalized point."""
        xs = np.asarray(xs, dtype=float)
        (count, m), n = xs.shape, self.spec.tag.size
        points, gps = self._reduction_point(xs, gps)
        derivs = self._frame_derivatives(np.repeat(xs, m, axis=0), np.tile(np.eye(m), (count, 1)))
        stabilizer = np.array([eta.mat for eta in self.spec.stabilizer_basis]).reshape(-1, n, n)
        dgs = np.concatenate([derivs.reshape(count, m, n, n) @ gps[:, None], points[:, None] @ stabilizer], axis=1)
        return points, np.broadcast_to(np.eye(dgs.shape[1], m), (count, dgs.shape[1], m)), dgs

    def reduced_form_matrix(self, xs, gps=None) -> np.ndarray:
        """Matrices ``(N, dim G, m + k)`` of the induced form on the tangent
        bases of H' over a stack of base points ``(N, m)``, framed by
        ``frame * gps`` (raw matrices ``(N, n, n)``, identities by default),
        in algebra coordinates of G (columns = basis tangents); one form
        evaluation on all basis tangents of all points."""
        xs = np.asarray(xs, dtype=float)
        points, dxs, dgs = self._reduction_tangent_basis(xs, gps)
        count, width, m = dxs.shape
        coeffs = coeff_matrices(self.conn, np.repeat(xs, width, axis=0), dxs.reshape(-1, m))
        mats = _form_matrices(self.conn.tag, coeffs, np.repeat(points, width, axis=0), dgs.reshape(-1, *points.shape[1:]))
        coords = lg.algebra_coords(lg.AlgebraElement(self.conn.tag, mats))
        return coords.reshape(count, width, -1).swapaxes(1, 2)

    # -- classification ---------------------------------------------------------------

    def is_cartan(self, samples: int = 20, seed: int = 0) -> CartanReport:
        """Classify the structure by sampling the induced form's kernel.

        The form matrices are assembled at random reduction points (drawn
        one sample at a time, then evaluated as one stack); the structure
        is kernel-free when the smallest singular value stays above the
        rank threshold at every sample.
        """
        if samples < 1:
            raise ValueError("classification needs at least one sample")
        rng = np.random.default_rng(seed)
        xs, gps = [], []
        for _ in range(samples):
            xs.append(self.conn.domain.sample(rng))
            gps.append(self.spec.random_stabilizer_element(rng).mat)
        xs = np.array(xs)
        matrices = self.reduced_form_matrix(xs, np.array(gps))
        rows, cols = matrices.shape[1:]
        smallest = np.linalg.svd(matrices, compute_uv=False)[:, -1] if rows >= cols else np.zeros(samples)
        i = int(np.argmin(smallest))
        worst = float(smallest[i])
        kernel_free = worst > RANK
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
            worst_point=(xs[i],),
        )

    # -- soldering ---------------------------------------------------------------------

    def _push(self, point: np.ndarray) -> np.ndarray:
        """``T_o h' . T_e pi`` at a reduction point given as a raw matrix."""
        return self.spec.act_jacobian(point, self.spec.origin) @ self.spec.fiber_map

    def soldering_with_choices(self, x, w, gprime: lg.GroupElement,
                               vertical: lg.AlgebraElement) -> np.ndarray:
        """Soldering value computed from an explicit admissible choice of
        reduction point (framed by ``gprime``) and lift (shifted by the
        stabilizer direction ``vertical``); used to exercise independence."""
        xs, ws = np.asarray(x, dtype=float)[None], np.asarray(w, dtype=float)[None]
        points, gps = self._reduction_point(xs, gprime.mat[None])
        dgs = self._frame_derivatives(xs, ws) @ gps + points @ vertical.mat
        omega = _form_matrices(self.conn.tag, coeff_matrices(self.conn, xs, ws), points, dgs)[0]
        return self._push(points[0]) @ lg.algebra_coords(lg.AlgebraElement(self.spec.tag, omega))

    def soldering(self, x, w) -> np.ndarray:
        """Soldering map at x applied to the base tangent w: a tangent to
        the fibre at the section point, independent of construction choices."""
        e_prime = lg.identity(self.spec.tag)
        return self.soldering_with_choices(x, w, e_prime, lg.zero_algebra(self.spec.tag))

    def soldering_matrix(self, x) -> np.ndarray:
        """Soldering map at x on the coordinate basis, from one evaluation
        of the induced form on the base directions of H'."""
        xs = np.asarray(x, dtype=float)[None]
        points, _ = self._reduction_point(xs)
        return self._push(points[0]) @ self.reduced_form_matrix(xs)[0, :, :self.base_dim]

    # -- development ---------------------------------------------------------------------

    def develop_base_path(self, path: Path, step: float = 1e-3) -> DevelopedPath:
        """Development of a base path in the fibre over its starting point.

        The horizontal lift started at the reduction point ``h'(t0)`` is
        ``h(t) = P(t) h'(t0)``, with ``P`` the lift started at the identity,
        so the development ``y(t) = act(h'(t0) h(t)^{-1} h'(t), o)`` is
        ``act(P(t)^{-1} h'(t), o)``: one stacked inverse, one stacked frame
        call and one ``spec.act`` call for all nodes. Under the
        diagonal section the node points come from one ``points`` call per
        segment (a node on a corner belongs to the earlier segment); the
        constant section frames every node by the identity.
        """
        segments, tag = path.segments, self.spec.tag
        lifted = horizontal_lift(self.conn, path, None, step)
        ts, movers = lifted.ts, lg.inverse_matrix(tag, lifted.mats)
        if self.diagonal:
            xs = np.empty((len(ts), self.base_dim))
            cuts = [0, *np.searchsorted(ts, [seg.t1 + 1e-15 for seg in segments[:-1]], side="right"), len(ts)]
            for seg, i0, i1 in zip(segments, cuts, cuts[1:]):
                seg.points(np.clip(ts[i0:i1], seg.t0, seg.t1), out=xs[i0:i1])
            movers = movers @ self._frames(xs)
        return DevelopedPath(ts.copy(), self.spec.act(movers, self.spec.origin), segments[0].point(segments[0].t0))

    # -- parallelization -------------------------------------------------------------------

    def parallelization_frame(self, p: PrincipalPoint) -> list[PrincipalTangent]:
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
        xs = p.x[None]
        gps = lg.inverse_matrix(self.spec.tag, self._frames(xs)) @ p.g.mat
        _, dxs, dgs = self._reduction_tangent_basis(xs, gps)
        matrix = self.reduced_form_matrix(xs, gps)[0]
        svals = np.linalg.svd(matrix, compute_uv=False)
        if svals[-1] <= RANK:
            raise NotCartanError(
                f"induced form is singular at the requested point (sigma_min = {svals[-1]:.3e})"
            )
        coeffs = np.linalg.inv(matrix)  # column j: coordinates of frame vector j
        return [PrincipalTangent(c @ dxs[0], np.tensordot(c, dgs[0], 1)) for c in coeffs.T]
