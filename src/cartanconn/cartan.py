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
The derivatives of ``act`` and ``coset_section`` are taken by one complex
step, so they must accept complex matrices and complex points.

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
independence is exercised as a property test rather than assumed. Under
the constant section ``h' = I`` and ``W' = (w, 0)`` give
``sigma(w) = fiber_map . P(A(x, w))``, ``P`` the algebra projection.

Development of a base path ``x(t)`` into the fibre over ``x(t0)`` follows
the factorization through the horizontal lift ``h(t)`` started at the
canonical reduction point: with ``g(t) = h(t)^{-1} h'(t)`` the development
is ``y(t) = h'(t0) g(t) (o)`` and its initial velocity equals
``sigma(x'(t0))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import liegroup as lg
from .errors import GeometryError, InvalidElementError, NotCartanError
from .principal import (LocalConnection, PrincipalPoint, PrincipalTangent, _algebra_part, _form_matrices, _frobenius,
                        coeff_matrices, full_form)
from .settings import AXIOM, RANK, STRUCTURAL
from .transport import DevelopedPath, LiftedPath, Path, horizontal_lift


def _complex_step(f: Callable[[np.ndarray], np.ndarray], x, dx) -> np.ndarray:
    """Derivative of ``f`` at ``x`` along ``dx`` as ``Im f(x + 1e-30j dx) / 1e-30``,
    exact to round-off for an analytic ``f`` (complex step, Squire & Trapp 1998)."""
    return np.imag(f(x + 1e-30j * np.asarray(dx))) / 1e-30


def _apply(mats, vecs) -> np.ndarray:
    """Products ``mats @ vecs`` of broadcasting stacks of matrices
    ``(..., r, c)`` and vectors ``(..., c)``, summed one column at a time,
    which on small matrices is much faster than a stacked ``matmul``."""
    vecs = np.asarray(vecs, dtype=float)
    out = mats[..., :, 0] * vecs[..., :1]
    for j in range(1, vecs.shape[-1]):
        out = out + mats[..., :, j] * vecs[..., j, None]
    return out


def _affine_act(mats, points) -> np.ndarray:
    """Action ``z -> L z + t`` of affine matrices ``[[L, t], [0, 1]]`` on
    stacks. The Galileo groups are affine: ``(v, a2, b2)`` sends ``(a, b)``
    to ``(a + a2, b + b2 + v a)``."""
    return _apply(mats[..., :-1, :-1], points) + mats[..., :-1, -1]


@dataclass(eq=False)
class HomogeneousSpec:
    """Homogeneous-space data for a fibre ``F = G / G'`` realized on a chart.

    act             left action of ``G`` on the fibre chart, on raw group
                    matrices ``(..., n, n)`` and chart points
                    ``(..., fiber_dim)`` that broadcast against each other,
                    giving ``(..., fiber_dim)``; the quotient projection
                    ``G -> F`` is ``act(mats, origin)``. It is the only
                    implementation of the chart: it must accept complex
                    matrices and keep their imaginary parts, because
                    :meth:`push` and :attr:`fiber_map` differentiate it by
                    a complex step
    coset_section   right inverse of the projection on a stack of chart
                    points ``(N, fiber_dim)``: raw group matrices
                    ``(N, n, n)`` mapping ``o`` to each point, the identity
                    at ``o``. It must accept complex points and keep their
                    imaginary parts, for :meth:`coset_derivative`
    stabilizer_basis  basis of the Lie algebra of ``G'``; random elements of
                    ``G'`` are drawn as stacks by one exponential, and the
                    ``random_stabilizer_*`` methods are the one-row case
    """

    name: str
    tag: lg.GroupTag
    fiber_dim: int
    origin: np.ndarray
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    coset_section: Callable[[np.ndarray], np.ndarray]
    stabilizer_basis: tuple[lg.AlgebraElement, ...]

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)

    def push(self, mats) -> np.ndarray:
        """``T_o g . T_e pi`` at raw group matrices ``(..., n, n)`` on algebra
        coordinates, ``(..., fiber_dim, dim G)``: column ``i`` is the
        derivative of ``act(g exp(s b_i), o)`` at ``s = 0``, exact to round-off
        as ``Im act(g + 1e-30j g b_i, o) / 1e-30`` (complex step)."""
        mats = np.asarray(mats)[..., None, :, :]
        moved = _complex_step(lambda g: self.act(g, self.origin), mats, mats @ lg.algebra_basis_matrices(self.tag))
        return np.swapaxes(moved, -1, -2)

    def coset_derivative(self, points, directions) -> np.ndarray:
        """Derivative ``(N, n, n)`` of :attr:`coset_section` at points along
        directions, both ``(N, fiber_dim)``: ``Im coset_section(z + 1e-30j w) / 1e-30``."""
        return _complex_step(self.coset_section, np.asarray(points, dtype=float), directions)

    @cached_property
    def fiber_map(self) -> np.ndarray:
        """Matrix ``(fiber_dim, dim G)`` of the projection ``T_e(G) -> T_o F``
        on algebra coordinates, ``push(I)``; raises when its rank is not
        ``fiber_dim`` (an ``act`` that drops imaginary parts gives zero)."""
        fiber_map = self.push(np.eye(self.tag.size))
        if np.linalg.matrix_rank(fiber_map) != self.fiber_dim:
            raise GeometryError(f"{self.name}: the derivative of act at o does not have rank {self.fiber_dim}")
        return fiber_map

    def _stabilizer_algebra(self, coords, scale: float = 0.5) -> np.ndarray:
        """Matrices ``(N, n, n)`` of g' with coordinate rows ``(N, k)``, each
        scaled to Frobenius norm ``scale`` (a zero row stays zero)."""
        basis = np.array([eta.mat.ravel() for eta in self.stabilizer_basis])
        mats = (np.asarray(coords, dtype=float) @ basis).reshape(-1, self.tag.size, self.tag.size)
        norms = _frobenius(mats)
        return mats * np.divide(scale, norms, out=np.ones_like(norms), where=norms > 0)[:, None, None]

    def _stabilizer_elements(self, coords, scale: float = 0.5) -> np.ndarray:
        """``exp`` of :meth:`_stabilizer_algebra` as raw matrices ``(N, n, n)``
        by one stacked exponential (for PGL, normalized); raises as
        :func:`lg.group_element` when one violates the group relations."""
        mats = lg.expm_matrix(self.tag, self._stabilizer_algebra(coords, scale))
        mats = lg.normalize_projective(mats) if self.tag.kind is lg.GroupKind.PGL else mats
        defect = np.max(lg.group_defect(self.tag, mats))
        if not defect <= STRUCTURAL:
            raise InvalidElementError(
                f"matrix violates the defining relations of {self.tag.name}: residual {defect:.3e}")
        return mats

    def random_stabilizer_algebra(self, rng: np.random.Generator, scale: float = 0.5) -> lg.AlgebraElement:
        coords = rng.standard_normal((1, len(self.stabilizer_basis)))
        return lg.AlgebraElement(self.tag, self._stabilizer_algebra(coords, scale)[0])

    def random_stabilizer_element(self, rng: np.random.Generator, scale: float = 0.5) -> lg.GroupElement:
        coords = rng.standard_normal((1, len(self.stabilizer_basis)))
        return lg.GroupElement(self.tag, self._stabilizer_elements(coords, scale)[0])

    def validate(self, rng: np.random.Generator | None = None, samples: int = 10) -> None:
        """Structural checks on stacks of samples: the identity fixes the
        base point and every sampled point, the action obeys the composition
        law ``act(g1 g2, z) = act(g1, act(g2, z))``, the stabilizer fixes o,
        the coset section lies in the group, is a right inverse of the
        projection ``act(., o)``, is the identity at o and carries complex
        points (its complex-step derivative projects onto the direction),
        and dimensions add up."""
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
        stabilizer = self._stabilizer_elements(rng.standard_normal((samples, len(self.stabilizer_basis))))
        if np.max(np.abs(self.act(stabilizer, self.origin) - self.origin)) > 1e-9:
            raise GeometryError(f"{self.name}: stabilizer element moved the base point")
        secs = self.coset_section(zs)
        if not np.max(lg.group_defect(self.tag, secs)) <= STRUCTURAL:
            raise GeometryError(f"{self.name}: coset section leaves the group")
        if np.max(np.abs(self.act(secs, self.origin) - zs)) > 1e-9:
            raise GeometryError(f"{self.name}: coset section is not a right inverse")
        if np.max(np.abs(secs[0] - np.eye(self.tag.size))) > STRUCTURAL:
            raise GeometryError(f"{self.name}: coset section of the base point is not the identity")
        ws = rng.standard_normal(zs.shape)
        moved = _complex_step(lambda z: self.act(self.coset_section(z), self.origin), zs, ws)
        if not np.max(np.abs(moved - ws)) <= 1e-9:
            raise GeometryError(f"{self.name}: the complex-step derivative of the coset section does not project "
                                "onto its direction (coset_section must keep imaginary parts)")


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
        return x.copy() if self.diagonal else np.zeros(x.shape[:-1] + self.spec.origin.shape) + self.spec.origin

    def _frames(self, xs) -> np.ndarray:
        """Reduction frames ``(N, n, n)`` at a stack of base points ``(N, m)``."""
        return self.spec.coset_section(self.section_value(xs))

    def _frame_derivatives(self, xs, ws) -> np.ndarray:
        """Derivatives ``(N, n, n)`` of the reduction frames at base points
        ``xs`` along base directions ``ws``, both ``(N, m)``; zero under the
        constant section, whose frame is the identity everywhere."""
        if self.diagonal:
            return self.spec.coset_derivative(xs, ws)
        return np.zeros(np.shape(ws)[:-1] + (self.spec.tag.size,) * 2)

    def in_reduction(self, p: PrincipalPoint) -> bool:
        """Membership test for H': the point maps o onto the section."""
        image = self.spec.act(p.g.mat, self.spec.origin)
        return bool(np.max(np.abs(image - self.section_value(p.x))) <= STRUCTURAL)

    def reduction_tangency_residual(self, p: PrincipalPoint, v: PrincipalTangent) -> float:
        """Residual of the differentiated membership constraint along v: the complex-step
        derivative of ``act(g, o)`` along ``dg``, minus ``dx`` under the diagonal section."""
        moved = _complex_step(lambda g: self.spec.act(g, self.spec.origin), p.g.mat, v.dg)
        return float(np.max(np.abs((moved - v.dx) if self.diagonal else moved)))

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
        as raw matrices ``(N, n, n)``, with the elements ``g'`` (identities by
        default) rescaled alike: for PGL the point is stored normalized (as
        :func:`lg.compose` returns it), so ``points = frames @ gps`` holds
        for the returned pair."""
        frames = self._frames(xs)
        gps = np.zeros(frames.shape) + np.eye(self.spec.tag.size) if gps is None else gps
        points = frames @ gps
        if self.spec.tag.kind is lg.GroupKind.PGL:
            pivots = lg._pivots(points)[:, None, None]   # as lg.normalize_projective
            points, gps = points / pivots, gps / pivots
        return points, gps

    def _induced_coords(self, xs, gps=None, ws=None, verticals=None):
        """Points ``frame * gps`` of H' over base points ``(N, m)`` (as
        :meth:`_reduction_point`), tangents of H' there, ``dxs`` ``(N, j, m)``
        and ``dgs`` ``(N, j, n, n)``, and the induced form's coordinates on
        them ``(N, dim G, j)``, from one frame-derivative, coefficient and
        form evaluation. Tangent ``i`` lifts ``ws[i]`` along the frame and
        adds ``point @ verticals[i]``; by default the tangents are the basis
        of T H', the ``m`` base directions, then verticals spanning g'."""
        xs = np.asarray(xs, dtype=float)
        (count, m), n = xs.shape, self.spec.tag.size
        if ws is None:
            stabilizer = np.reshape([eta.mat for eta in self.spec.stabilizer_basis], (-1, n, n))
            ws, verticals = np.eye(m + len(stabilizer), m), np.concatenate([np.zeros((m, n, n)), stabilizer])
        dxs = np.zeros((count,) + np.shape(ws)[-2:]) + ws
        rows, flat = np.repeat(xs, dxs.shape[1], axis=0), dxs.reshape(-1, m)
        points, gps = self._reduction_point(xs, gps)
        dgs = self._frame_derivatives(rows, flat).reshape(dxs.shape[:2] + (n, n)) @ gps[:, None]
        dgs = dgs if verticals is None else dgs + points[:, None] @ verticals
        coeffs = coeff_matrices(self.conn, rows, flat).reshape(dgs.shape)
        mats = _form_matrices(self.conn.tag, coeffs, points[:, None], dgs)
        return points, dxs, dgs, lg._matrix_coords(self.conn.tag, mats).swapaxes(1, 2)

    def reduced_form_matrix(self, xs, gps=None) -> np.ndarray:
        """Matrices ``(N, dim G, m + k)`` of the induced form on the tangent
        bases of H' over a stack of base points ``(N, m)``, framed by
        ``frame * gps`` (raw matrices ``(N, n, n)``, identities by default),
        in algebra coordinates of G (columns = basis tangents)."""
        return self._induced_coords(xs, gps)[3]

    # -- classification ---------------------------------------------------------------

    def is_cartan(self, samples: int = 20, seed: int = 0) -> CartanReport:
        """Classify the structure by sampling the induced form's kernel.

        One ``sample_rows`` draw (per sample a base point, then the
        coordinates of ``g'``), one stacked exponential and one
        :meth:`reduced_form_matrix` call; kernel-free when the smallest
        singular value stays above the rank threshold at every sample.
        """
        if samples < 1:
            raise ValueError("classification needs at least one sample")
        draws = self.conn.domain.sample_rows(np.random.default_rng(seed), samples, len(self.spec.stabilizer_basis))
        xs = draws[:, :self.base_dim]
        matrices = self.reduced_form_matrix(xs, self.spec._stabilizer_elements(draws[:, self.base_dim:]))
        rows, cols = matrices.shape[1:]
        smallest = np.linalg.svd(matrices, compute_uv=False)[:, -1] if rows >= cols else np.zeros(samples)
        i = int(np.argmin(smallest))
        worst = float(smallest[i])
        kind = "neither"
        if worst > RANK and self.base_dim <= self.spec.fiber_dim:
            kind = "cartan" if self.base_dim == self.spec.fiber_dim else "generalized"
        return CartanReport(kind=kind, min_singular_value=worst, base_dim=self.base_dim,
                            fiber_dim=self.spec.fiber_dim, samples=samples, worst_point=(xs[i].copy(),))

    # -- soldering ---------------------------------------------------------------------

    def soldering_with_choices(self, x, w, gps, verticals) -> np.ndarray:
        """Soldering value from explicit choices of reduction point (framed by
        ``gps``) and lift (shifted by the stabilizer direction ``verticals``):
        at one point and tangent ``(m,)`` with raw matrices ``(n, n)``, or at
        stacks ``(N, m)`` and ``(N, n, n)`` in one form evaluation."""
        x, n = np.asarray(x, dtype=float), self.spec.tag.size
        points, _, _, coords = self._induced_coords(
            x.reshape(-1, self.base_dim), np.reshape(gps, (-1, n, n)), np.reshape(w, (-1, 1, self.base_dim)),
            np.reshape(verticals, (-1, 1, n, n)))
        return (self.spec.push(points) @ coords).reshape(x.shape[:-1] + (self.spec.fiber_dim,))

    def _solder(self, x, ws) -> np.ndarray:
        """Soldering images ``(..., fiber_dim, j)`` of base directions ``ws``, ``(N, j, m)``
        or ``(j, m)``, at base points ``(..., m)``: ``fiber_map P(A(x, w))`` under the
        constant section, else ``push(h') omega(W')`` at the canonical reduction points."""
        xs = np.asarray(x, dtype=float).reshape(-1, self.base_dim)
        if self.diagonal:
            points, _, _, coords = self._induced_coords(xs, ws=ws)
            solder = self.spec.push(points) @ coords
        else:
            dxs = np.zeros((len(xs),) + np.shape(ws)[-2:]) + ws
            coeffs = coeff_matrices(self.conn, np.repeat(xs, dxs.shape[1], axis=0), dxs.reshape(-1, self.base_dim))
            mats = _algebra_part(self.conn.tag, coeffs.reshape(dxs.shape[:2] + coeffs.shape[1:]))
            solder = self.spec.fiber_map @ lg._matrix_coords(self.conn.tag, mats).swapaxes(1, 2)
        return solder.reshape(np.shape(x)[:-1] + solder.shape[1:])

    def soldering(self, x, w) -> np.ndarray:
        """Soldering map at x applied to the base tangent w (one, or stacks as
        :meth:`soldering_with_choices`): ``fiber_map P(A(x, w))`` under the constant section."""
        return self._solder(x, np.reshape(w, (-1, 1, self.base_dim)))[..., 0]

    def soldering_matrix(self, x) -> np.ndarray:
        """Soldering map on the coordinate basis at a base point ``(m,)``, as
        ``(fiber_dim, m)``, or at each point of a stack ``(N, m)``, as
        ``(N, fiber_dim, m)``, from one coefficient call: column ``j`` is
        ``fiber_map P(A(x, e_j))`` under the constant section."""
        return self._solder(x, np.eye(self.base_dim))

    # -- development ---------------------------------------------------------------------

    def develop_base_path(self, path: Path, step: float = 1e-3) -> DevelopedPath:
        """Development of a base path in the fibre over its starting point.

        The horizontal lift started at the reduction point ``h'(t0)`` is
        ``h(t) = P(t) h'(t0)``, with ``P`` the lift started at the identity,
        so the development ``y(t) = act(h'(t0) h(t)^{-1} h'(t), o)`` is
        ``act(P(t)^{-1} h'(t), o)``: one stacked inverse, one stacked frame
        call and one ``spec.act`` call for all nodes. Under the
        diagonal section the frames are taken at the lift's own points, so
        only the lift reads the path; the constant section frames every node
        by the identity.
        """
        return self._develop_lift(horizontal_lift(self.conn, path, None, step))

    def _develop_lift(self, lifted: LiftedPath) -> DevelopedPath:
        """:meth:`develop_base_path` from a lift started at the identity, so that a
        caller can also transport along the path (``act(lifted.mats[-1], z0)``).
        A Galileo space with the affine action and the origin 0, under the
        constant section, reads ``act(g^{-1}, 0) = (0.0 - a, (0.0 - b) + v a)``
        from the nodes as :func:`~cartanconn.liegroup.inverse_matrix` rounds it
        (never -0.0); any other takes the stacked inverse, frames and ``act``."""
        spec, mats = self.spec, lifted.mats
        galilean = spec.tag.kind is lg.GroupKind.GALILEO and spec.act is _affine_act
        if galilean and not (self.diagonal or spec.origin.any()):
            a, values = mats[:, 0, -1], np.empty((len(mats), spec.fiber_dim))
            np.subtract(0.0, a, out=values[:, 0])
            np.subtract(0.0, mats[:, 1:-1, -1], out=values[:, 1:])
            values[:, 1:] += mats[:, 1:-1, 0] * a[:, None]
            return DevelopedPath(lifted.ts.copy(), values, lifted.points)
        movers = lg.inverse_matrix(spec.tag, mats)
        if self.diagonal:
            movers = movers @ self._frames(lifted.points)
        return DevelopedPath(lifted.ts.copy(), spec.act(movers, spec.origin), lifted.points)

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
        gps = lg.inverse_matrix(self.spec.tag, self._frames(p.x[None])) @ p.g.mat
        _, dxs, dgs, matrix = (stack[0] for stack in self._induced_coords(p.x[None], gps))
        svals = np.linalg.svd(matrix, compute_uv=False)
        if svals[-1] <= RANK:
            raise NotCartanError(f"induced form is singular at the requested point (sigma_min = {svals[-1]:.3e})")
        coeffs = np.linalg.inv(matrix)  # column j: coordinates of frame vector j
        return [PrincipalTangent(c @ dxs, np.tensordot(c, dgs, 1)) for c in coeffs.T]
