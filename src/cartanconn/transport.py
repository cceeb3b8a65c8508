"""Horizontal lifts, parallel transport, holonomy and development.

Lifting a base path ``t -> x(t)`` through a connection means solving the
group-valued initial value problem obtained from horizontality of the
lifted tangent,

    Ad_{g^{-1}} A(x, x') + g^{-1} g' = 0   i.e.   g' = -A(x(t), x'(t)) g,

with a fourth-order Magnus method on the matrix representation: the
equation is linear in ``g`` and ``A`` does not depend on ``g``, so the lift
is an ordered product of per-step exponentials, which stays on the group
without re-projection. A lift reads its whole path once, then runs in
blocks of steps that may span segments, on arrays over each block's nodes.
A Galileo block whose coefficients are finite and exactly on the algebra
pattern, from a start exactly on the group's pattern, runs in algebra
coordinates, where the algebra is nilpotent: each step's ``Omega`` and
exponential in closed form, and the block's product as three running sums
composed with the start's coordinates, written into the nodes' pattern
entries with no matrix stack of its own. Any other block, and every block
after it, takes its step exponentials by matrices and their product by a
doubling scan. Through
:func:`~cartanconn.principal.stacked`, the coefficient map is called once
per block and a path once per segment per lift when declared
:func:`~cartanconn.principal.batched`, else once per node.

Every node's group defect is checked against the round-trip tolerance,
except where the lift is exact by construction: when every block ran in
algebra coordinates, each node is a product of exact Galileo-pattern
matrices, whose off-pattern entries stay exactly 0 and 1, so its defect
is 0.0.
The step is not adapted: :func:`lift_error_estimate` returns the Richardson
estimate ``|g_h - g_{h/2}| / 15``, which is the endpoint error of the lift
at half the step, not of the lift at ``step``.

Orientation and sign conventions used by loop computations: a loop is
traversed in the direction of increasing parameter; with the ODE above, the
holonomy of a small coordinate square of side ``d`` spanned by directions
``(e1, e2)`` (first leg along ``e1``) satisfies
``log(holonomy) = -d^2 F(e1, e2) + O(d^3)`` where ``F`` is
:func:`cartanconn.principal.curvature`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import liegroup as lg
from .errors import DomainError, GeometryError, LiftDivergedError, LoopNotClosedError
from .principal import LocalConnection, batched, coeff_matrices, stacked
from .settings import LOOP_CLOSURE, PATH_CHECK, ROUNDTRIP

if TYPE_CHECKING:   # cartan imports this module
    from .cartan import HomogeneousSpec


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SmoothPath:
    """Time-parameterized curve in the base with caller-supplied derivative.

    ``x`` and ``xdot`` map a time to a point and a velocity of the base,
    or, when declared :func:`~cartanconn.principal.batched`, an array of
    ``N`` times to ``(N, dim)`` values in one call. The library reads them
    only through :meth:`points` and :meth:`velocities` (:meth:`point` and
    :meth:`velocity` are their one-row case), which call a batched callable
    once per array and any other once per time. On construction ``x`` is
    read in one call at ten probe times and at those times +- h, ``xdot``
    at the probes; both must give ``(N, dim)`` values, and the derivative
    is checked against the central differences ``D(h)``, where one disagrees
    against ``(4 D(h/2) - D(h)) / 3`` from one more read of ``x`` (Richardson:
    :func:`~cartanconn.models.kepler_orbit` passes at e = 0.995, not at
    0.999). ``h = 1e-6 (1 + |t0| + |t1|)``, at most an eighth of the
    interval, so that every read lies in ``[t0, t1]``.
    """

    t0: float
    t1: float
    x: Callable[[float], np.ndarray]
    xdot: Callable[[float], np.ndarray]
    _PROBES = np.tile(np.arange(10.0), 3), np.repeat([0.0, 1.0, -1.0], 10)   # ten probes, then each + h, - h

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError("path needs t0 < t1")
        self._validate()

    def _validate(self):
        h, n = min(1e-6 * (1.0 + abs(self.t0) + abs(self.t1)), (self.t1 - self.t0) / 8), 10
        (index, shift), start, stop = self._PROBES, self.t0 + 2 * h, self.t1 - 2 * h
        times = index * ((stop - start) / (n - 1)) + start   # np.linspace(start, stop, n), thrice
        times[n - 1::n] = stop
        times += h * shift
        probes, points, derivs = times[:n], self.points(times), self.velocities(times[:n])
        if points.ndim != 2 or len(points) != 3 * n or derivs.shape != (n, points.shape[1]):
            raise ValueError(f"path callables returned shapes {points.shape} and {derivs.shape} "
                             f"for {3 * n} and {n} times; expected (N, dim) for N times")
        finite = np.isfinite(points[:n]).all(axis=-1) & np.isfinite(derivs).all(axis=-1)
        if not finite.all():
            raise ValueError(f"path is not finite at t = {probes[np.argmin(finite)]}")
        fd = (points[n:2 * n] - points[2 * n:]) / (2 * h)
        errors = np.abs(fd - derivs).max(axis=-1)
        redo = errors > PATH_CHECK
        if redo.any():
            plus, minus = np.split(self.points(np.concatenate([probes[redo] + h / 2, probes[redo] - h / 2])), 2)
            fine = (plus - minus) / h
            errors[redo] = np.abs((4 * fine - fd[redo]) / 3 - derivs[redo]).max(axis=-1)
        agrees = errors <= PATH_CHECK
        if not agrees.all():
            raise ValueError(
                f"declared derivative disagrees with finite differences at t = {probes[np.argmin(agrees)]}"
            )

    @property
    def segments(self) -> tuple["SmoothPath", ...]:
        return (self,)

    def point(self, t: float) -> np.ndarray:
        return self.points([t])[0]

    def velocity(self, t: float) -> np.ndarray:
        return self.velocities([t])[0]

    def points(self, ts, out: np.ndarray | None = None) -> np.ndarray:
        """Points at the times ``ts`` (N,), shape (N, dim), written into ``out`` if given."""
        return stacked(self.x, np.asarray(ts, dtype=float), out=out, what="path")

    def velocities(self, ts, out: np.ndarray | None = None) -> np.ndarray:
        """Velocities at the times ``ts`` (N,), shape (N, dim), written into ``out`` if given."""
        return stacked(self.xdot, np.asarray(ts, dtype=float), out=out, what="path")

    def reverse(self) -> "SmoothPath":
        """Time reversal on the same parameter interval (batched)."""
        return _reparameterized(self, self.t0, self.t1, self.t1, -1.0)


class PiecewisePath:
    """Concatenation of time-contiguous smooth pieces.

    Lifts and transports step each piece on its own grid, so corners cost
    no integration accuracy. ``ends[j]`` holds segment ``j``'s points at ``t0`` and ``t1``.
    """

    def __init__(self, segments: Sequence[SmoothPath]):
        segments = tuple(segments)
        if not segments:
            raise ValueError("need at least one segment")
        self.ends = [segments[0].points([segments[0].t0, segments[0].t1])]
        for a, b in zip(segments, segments[1:]):
            if abs(a.t1 - b.t0) > 1e-12:
                raise ValueError("segments must be contiguous in time")
            self.ends.append(b.points([b.t0, b.t1]))
            if np.max(np.abs(self.ends[-2][1] - self.ends[-1][0])) > 1e-9:
                raise ValueError("segments must be continuous in space")
        self.pieces = segments
        self.t0 = segments[0].t0
        self.t1 = segments[-1].t1

    @property
    def segments(self) -> tuple[SmoothPath, ...]:
        return self.pieces

    def point(self, t: float) -> np.ndarray:
        if not self.t0 <= t <= self.t1:
            raise ValueError("time outside path interval")
        return next(seg for seg in self.pieces if t <= seg.t1).point(t)

    def reverse(self) -> "PiecewisePath":
        # each piece, reversed, on the mirrored slot of the interval
        total = self.t0 + self.t1
        return PiecewisePath([_reparameterized(seg, total - seg.t1, total - seg.t0, seg.t1, -1.0)
                              for seg in reversed(self.pieces)])


Path = SmoothPath | PiecewisePath


def _reparameterized(path: SmoothPath, a: float, b: float, s0: float, scale: float) -> SmoothPath:
    """``path`` read at the times ``s0 + (t - a) scale`` for ``t`` in [a, b] (batched)."""
    return SmoothPath(
        a,
        b,
        batched(lambda t: path.points(s0 + (t - a) * scale)),
        batched(lambda t: scale * path.velocities(s0 + (t - a) * scale)),
    )


def line_segment(p, q, t0: float, t1: float) -> SmoothPath:
    """Straight segment from ``p`` to ``q`` over [t0, t1] (batched)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    rate = (q - p) / (t1 - t0)
    return SmoothPath(
        t0,
        t1,
        batched(lambda t: p + (np.asarray(t)[..., None] - t0) * rate),
        batched(lambda t: np.broadcast_to(rate, np.shape(t) + rate.shape)),
    )


def concat(*paths: Path) -> PiecewisePath:
    return PiecewisePath([seg for p in paths for seg in p.segments])


def square_loop(corner, side: float, t0: float = 0.0) -> PiecewisePath:
    """Closed square loop of side ``side`` in the plane of the first two
    coordinates, starting at ``corner`` and traversing the first axis's leg
    first.

    Parameter time equals arc length, so the loop closes at
    ``t0 + 4 side``; closure is exact.
    """
    corner = np.asarray(corner, dtype=float)
    legs = np.zeros((2, corner.size))
    legs[0, 0] = legs[1, 1] = side
    corners = [corner, corner + legs[0], corner + legs[0] + legs[1], corner + legs[1], corner]
    return PiecewisePath([line_segment(p, q, t0 + k * side, t0 + (k + 1) * side)
                          for k, (p, q) in enumerate(zip(corners, corners[1:]))])


# ---------------------------------------------------------------------------
# Horizontal lift
# ---------------------------------------------------------------------------

class LiftedPath:
    """Sampled horizontal lift of a base path.

    Stores the node times ``ts`` (N,), matrices ``mats`` (N, n, n) and the
    base ``points`` (N, dim) the lift read there (a corner's from the segment
    ending at it); ``elements`` and ``end`` present the matrices.
    """

    def __init__(self, tag: lg.GroupTag, ts, mats, points):
        self.tag = tag
        self.ts = np.asarray(ts, dtype=float)
        self.mats = np.asarray(mats, dtype=float)
        self.mats.setflags(write=False)
        self.points = np.asarray(points, dtype=float)

    def _element(self, i: int) -> lg.GroupElement:
        return lg.GroupElement(self.tag, self.mats[i])

    @property
    def elements(self) -> list[lg.GroupElement]:
        return [self._element(i) for i in range(len(self.ts))]

    @property
    def end(self) -> lg.GroupElement:
        return self._element(-1)

    def group_defects(self) -> np.ndarray:
        return lg.group_defect(self.tag, self.mats)


_BLOCK = 512   # steps per pass through the lift's stages; bounds their arrays


@functools.cache
def _pattern(tag: lg.GroupTag) -> np.ndarray:
    """Flat indices into an ``n x n`` matrix of the Galileo algebra coordinates (v, a, b)."""
    n = tag.size
    return lg._matrix_coords(tag, np.arange(n * n, dtype=float).reshape(n, n)).astype(np.intp)


@functools.cache
def _off_pattern(tag: lg.GroupTag) -> np.ndarray:
    """Flat indices into an ``n x n`` matrix of the entries off the Galileo algebra pattern."""
    return np.setdiff1d(np.arange(tag.size * tag.size), _pattern(tag))


def _galilean_coords(tag: lg.GroupTag, coeffs: np.ndarray) -> np.ndarray | None:
    """Algebra coordinates ``(N, 2s+1)`` of a Galileo coefficient stack
    ``(N, n, n)`` that is finite and exactly on the algebra pattern, else None."""
    flat = coeffs.reshape(len(coeffs), -1)
    if flat[:, _off_pattern(tag)].any():   # NaN counts as nonzero
        return None
    coords = flat[:, _pattern(tag)]
    return coords if np.isfinite(coords).all() else None


def _block_product(props: np.ndarray, out: np.ndarray) -> None:
    """Write ``props[k] @ ... @ props[0] @ out[0]`` into ``out[k + 1]`` for
    the step propagators ``props`` (B, n, n), overwriting ``props``, by a
    doubling scan: ``ceil(log2 B)`` batched matmuls."""
    span = 1   # props[k] becomes props[k] @ ... @ props[0]
    while span < len(props):
        props[span:] = props[span:] @ props[:-span]
        span *= 2
    np.matmul(props, out[0], out=out[1:])


def _galilean_product(tag: lg.GroupTag, h, c0: np.ndarray, ch: np.ndarray, c1: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """Write the Magnus propagators of Galileo steps, composed onto the
    block start ``out[0]``, into the algebra pattern entries of ``out[1:]``
    and return their algebra coordinates (v, a, b), ``(B, 2s+1)``, from the
    coordinates of the coefficients at each step's start, midpoint and
    end, rounded as the matrix route rounds them. The algebra is nilpotent:
    ``Omega`` is ``-(h/6)(c0 + 4 ch + c1)`` plus ``(h^2/12)(v1 a0 - v0 a1)``
    in ``b``, and ``exp(Omega)`` adds ``v a / 2`` to ``b``. ``P g`` for
    ``g = [[1, 0, a], [v, I, b], [0, 0, 1]]`` has ``a + a(P)``, ``v + v(P)``
    and ``b + b(P) + v(P) a``: three running sums from the identity, to
    round at the block's scale, then the start's ``a + a0``, ``v + v0`` and
    ``(v a0 + b0) + b``, the order in which ``P @ out[0]`` rounds them. The
    start and the entries of ``out[1:]`` off the pattern must be exactly
    those of the group: they are not read or written.
    """
    s = tag.dims[0] - 1
    coords = np.multiply(ch, 4)   # -(h/6)(c0 + 4 ch + c1), in place
    coords += c0
    coords += c1
    coords *= -(h / 6)
    v, a, b = coords[:, :s], coords[:, s], coords[:, s + 1:]
    term = np.multiply(c1[:, :s], c0[:, s:s + 1])   # (h^2/12)(v1 a0 - v0 a1)
    term -= c0[:, :s] * c1[:, s:s + 1]
    term *= h * h / 12
    b += term
    np.multiply(v, a[:, None], out=term)   # v a / 2
    term /= 2
    b += term
    np.cumsum(a, out=a)
    b[1:] += np.multiply(v[1:], a[:-1, None], out=term[1:])
    np.cumsum(v, axis=0, out=v)
    np.cumsum(b, axis=0, out=b)
    start = out[0]
    np.multiply(v, start[0, -1], out=term)   # (v a0 + b0) + b
    term += start[1:-1, -1]
    b += term
    a += start[0, -1]
    v += start[1:-1, 0]
    out[1:].reshape(len(coords), -1)[:, _pattern(tag)] = coords
    return coords


def _magnus_path(conn, segments: Sequence[SmoothPath], step: float, g0: np.ndarray):
    """Node times ``(N,)``, matrices ``(N, n, n)`` and points ``(N, dim)``
    of the lift from ``g0`` along ``segments``, and whether every block ran
    in algebra coordinates, which implies a start exactly on the pattern.
    Each segment is cut into the fewest equal steps no longer than
    ``step``; a segment of ``n`` steps has its own ``2 n + 1`` Simpson
    nodes, the last at ``t1`` exactly, so a corner is a node of both its
    segments.

    Magnus-4 step, with ``M = -A`` and the step ``h`` of its segment:
    ``Omega = (h/6)(M0 + 4 Mh + M1) + (h^2/12)[M1, M0]``,
    ``g_{k+1} = exp(Omega) g_k``. First the points and velocities at every
    node (one call per segment), and one domain check naming the first node
    outside. Then the steps run in blocks of ``_BLOCK`` that may span
    segments, each in stages on arrays over its nodes: one coefficient call,
    the product of the step propagators and a finiteness check naming the
    first non-finite node. A Galileo block whose coefficients are finite and
    exactly on the algebra pattern runs in algebra coordinates
    (:func:`_galilean_product`, whose coordinates the finiteness check
    reads) while every block before it did, from a start whose entries off
    the pattern are exactly the identity's; the lift writes the identity
    there once for all its nodes. Any other block, and every later one,
    takes every ``Omega``, one batched exponential and
    :func:`_block_product`, which carry an off-pattern start or node. A
    block that continues a segment reuses the previous block's last
    coefficient, so a step costs two coefficient evaluations.
    """
    # the slack keeps round-off (0.07 / 0.0025 = 28.000000000000004) from adding a step
    counts = [max(1, math.ceil((seg.t1 - seg.t0) / step * (1.0 - 1e-9))) for seg in segments]
    tag, total = conn.tag, sum(counts)
    hs = np.array([(seg.t1 - seg.t0) / n for seg, n in zip(segments, counts)])
    node_ts = np.empty(2 * total + len(segments))   # each segment's 2 n + 1 nodes in turn
    xs, vs = np.empty((2, len(node_ts), conn.domain.dim))
    r = 0   # the segment's first row
    for seg, n, h in zip(segments, counts, hs):
        seg_rows, starts = slice(r, r + 2 * n + 1), seg.t0 + np.arange(n + 1) * h
        starts[-1] = seg.t1   # t0 + n h may round past t1
        node_ts[seg_rows][::2], node_ts[seg_rows][1::2] = starts, starts[:-1] + h / 2
        seg.points(node_ts[seg_rows], out=xs[seg_rows])
        seg.velocities(node_ts[seg_rows], out=vs[seg_rows])
        r += 2 * n + 1
    inside = conn.domain.contains(xs)
    if not inside.all():
        raise DomainError(f"path left the chart domain at t = {node_ts[np.argmin(inside)]}")
    seg_of = np.repeat(np.arange(len(segments)), counts)   # each step's segment
    row0, h_of = 2 * np.arange(total) + seg_of, hs[seg_of]   # each step's first row and its h
    lift_rows = np.concatenate([[0], row0 + 2])   # the lift's nodes: the start and each step's end
    ts, mats = node_ts[lift_rows], np.empty((total + 1,) + g0.shape)
    coeffs = np.empty((2 * min(total, _BLOCK) + min(len(segments), _BLOCK), tag.size, tag.size))
    by_coords = tag.kind is lg.GroupKind.GALILEO
    if by_coords:   # the running sums carry only a start exactly on the pattern
        off, identity = _off_pattern(tag), np.eye(tag.size)
        by_coords = np.array_equal(g0.reshape(-1)[off], identity.reshape(-1)[off])
        mats[1:] = identity   # off the pattern, what the coordinate blocks leave unwritten
    mats[0] = g0
    for k0 in range(0, total, _BLOCK):
        k1 = min(k0 + _BLOCK, total)
        r0, rows = row0[k0], row0[k1 - 1] + 3 - row0[k0]   # the block's first row and row count
        first = int(k0 > 0 and seg_of[k0 - 1] == seg_of[k0])   # row 0 is then the previous block's last node
        coeff_matrices(conn, xs[r0 + first:r0 + rows], vs[r0 + first:r0 + rows], out=coeffs[first:rows])
        coords = _galilean_coords(tag, coeffs[:rows]) if by_coords else None
        by_coords = coords is not None
        stack = coeffs if coords is None else coords
        if seg_of[k0] == seg_of[k1 - 1]:
            h, a0, ah, a1 = h_of[k0], stack[0:rows - 1:2], stack[1:rows:2], stack[2:rows:2]
        else:   # each later segment's rows are shifted by one more
            i0 = row0[k0:k1] - r0
            h = h_of[k0:k1].reshape((-1,) + (1,) * (stack.ndim - 1))
            a0, ah, a1 = stack[i0], stack[i0 + 1], stack[i0 + 2]
        out = mats[k0:k1 + 1]
        if coords is None:
            omega = (h * h / 12) * (a1 @ a0 - a0 @ a1) - (h / 6) * (a0 + 4 * ah + a1)
            _block_product(lg.expm_matrix(tag, omega), out)
            nodes = out[1:].reshape(k1 - k0, -1)
        else:
            nodes = _galilean_product(tag, h, a0, ah, a1, out)
        if not np.isfinite(nodes).all():   # whole block first, node by node only to name one
            finite = np.isfinite(nodes).all(axis=1)
            raise LiftDivergedError(f"lift diverged near t = {ts[k0 + 1 + np.argmin(finite)]}")
        coeffs[0] = coeffs[rows - 1]
    return ts, mats, xs[lift_rows], by_coords


def horizontal_lift(
    conn: LocalConnection,
    path: Path,
    g0: lg.GroupElement | None = None,
    step: float = 1e-3,
) -> LiftedPath:
    """Horizontal lift of ``path`` starting at ``g0`` (identity by default).

    Each smooth segment is cut into the fewest equal steps no longer than
    ``step``, and the whole path is integrated in one pass with a
    fourth-order Magnus method, which keeps the nodes on the group without
    re-projection (the path read once, then one coefficient call,
    exponential and product per block of steps, across segments: in algebra
    coordinates on a Galileo block whose coefficients are finite and on the
    algebra pattern while every block before it did, from a start exactly
    on the group's pattern, else by matrices and a doubling scan). A path
    point outside the chart raises ``DomainError`` before any coefficient is
    evaluated; a non-finite step, or a node whose group defect exceeds
    ``settings.ROUNDTRIP``, raises ``LiftDivergedError``. The node defects
    are skipped only where they are 0.0 by construction: every block ran in
    algebra coordinates, which it does only from an exact start.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if g0 is None:
        g0 = lg.identity(conn.tag)
    if g0.tag != conn.tag:
        raise lg.TagMismatchError("initial element tag does not match the connection")

    ts, mats, points, by_coords = _magnus_path(conn, path.segments, step, g0.mat)
    if conn.tag.kind is lg.GroupKind.PGL:
        # scaling commutes with left multiplication: normalizing once at the
        # end picks the same representatives as normalizing every step
        mats = lg.normalize_projective(mats)
    lifted = LiftedPath(conn.tag, ts, mats, points)
    if not by_coords:
        defect = float(np.max(lifted.group_defects()))
        if defect > ROUNDTRIP:
            raise LiftDivergedError(f"lift left the group manifold: defect {defect:.3e}")
    return lifted


def lift_error_estimate(
    conn: LocalConnection,
    path: Path,
    g0: lg.GroupElement | None = None,
    step: float = 1e-3,
) -> float:
    """Richardson estimate ``|g_h - g_{h/2}| / 15`` of the endpoint error of
    the lift at ``step / 2`` (``g_h`` is the lift's endpoint at step ``h``).

    It estimates the half-step lift, not the lift at ``step``, whose error
    is about 16 times larger in the fourth-order regime. For gravity
    ``V = 200 sin 40t``, ``W = 30 cos 25t`` along ``x = sin 3t`` the
    endpoint error of the lift at ``step`` divided by the estimate is
    15.6-16.0 for steps 0.1 to 1e-3 (at 0.1: estimate 0.0868, error 1.3556
    against a step-1e-4 reference), while from step 0.02 the estimate is
    7.65e-5 against a true 7.54e-5 at step 0.01.
    """
    full = horizontal_lift(conn, path, g0, step)
    half = horizontal_lift(conn, path, g0, step / 2)
    gap = np.max(np.abs(full.end.mat - half.end.mat))
    return float(gap / (2 ** 4 - 1))


# ---------------------------------------------------------------------------
# Transport, holonomy, development
# ---------------------------------------------------------------------------

def parallel_transport(
    conn: LocalConnection,
    path: Path,
    spec: HomogeneousSpec,
    z0,
    step: float = 1e-3,
) -> np.ndarray:
    """Parallel transport of the fibre point ``z0`` along ``path``, in the
    chart of the homogeneous space ``spec``.

    In the trivialization the transport map is ``act(g(t1) g(t0)^{-1}, .)``
    where ``g`` is any horizontal lift: ``act(g(t1), .)`` for the lift from the identity.
    """
    return spec.act(horizontal_lift(conn, path, None, step).mats[-1], z0)


def holonomy(conn: LocalConnection, loop: Path, step: float = 1e-3) -> lg.GroupElement:
    """Holonomy ``g(t0)^{-1} g(t1)`` of a closed loop: the end of its lift from the
    identity. A :class:`PiecewisePath`'s closure gap comes from its stored ``ends``."""
    ends = loop.ends if isinstance(loop, PiecewisePath) else [loop.points([loop.t0, loop.t1])]
    gap = np.max(np.abs(ends[0][0] - ends[-1][1]))
    if gap > LOOP_CLOSURE:
        raise LoopNotClosedError(f"loop endpoints differ by {gap:.3e}")
    return horizontal_lift(conn, loop, None, step).end


@dataclass(eq=False)
class DevelopedPath:
    """Development of a path, sampled in the fibre over the starting base point.

    ``values[i]`` are fibre-chart coordinates at time ``ts[i]``, and
    ``points[i]`` the base point the lift read there (its
    :attr:`LiftedPath.points`); ``base_point`` is ``points[0]``.
    ``initial_tangent`` is a one-sided finite-difference estimate of the
    development's velocity at ``t0`` from the leading uniformly spaced nodes
    (fourth order from five, second order from three or four).
    """

    ts: np.ndarray
    values: np.ndarray
    points: np.ndarray

    @property
    def base_point(self) -> np.ndarray:
        return self.points[0]

    @property
    def initial_tangent(self) -> np.ndarray:
        y, d = self.values, np.diff(self.ts[:5])
        h = d[0]
        uniform = 1 + int(np.cumprod(np.abs(d - h) <= 1e-9 * h).sum())   # leading uniform nodes
        if uniform == 5:
            return (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
        if uniform >= 3:
            return (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
        return (y[1] - y[0]) / h

    def second_differences(self) -> np.ndarray:
        """Discrete second derivative, rowwise over interior samples:
        ``(y_{i+1} - 2 y_i + y_{i-1}) / h^2`` on uniform spacing, else the
        three-point formula ``2 (d_i - d_{i-1}) / (h_{i-1} + h_i)`` with the
        slopes ``d_i = (y_{i+1} - y_i) / h_i``. A development of fewer than
        three samples has none and raises :class:`GeometryError`."""
        ts, y = self.ts, self.values
        h = np.diff(ts)
        if len(ts) < 3:
            raise GeometryError(f"second differences need at least three samples, the development has {len(ts)}")
        if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
            slopes = np.diff(y, axis=0) / h[:, None]
            return 2 * np.diff(slopes, axis=0) / (h[1:] + h[:-1])[:, None]
        return (y[2:] - 2 * y[1:-1] + y[:-2]) / h[0] ** 2

    def max_second_difference(self) -> float:
        return float(np.max(np.linalg.norm(self.second_differences(), axis=1)))


def develop_total_path(
    conn: LocalConnection,
    spec: HomogeneousSpec,
    base_path: Path,
    fiber_path: Callable[[float], np.ndarray],
    step: float = 1e-3,
) -> DevelopedPath:
    """Development of the total-space path ``t -> (x(t), zeta(t))`` into the
    fibre over ``x(t0)``: inverse parallel transport applied at every node,
    ``t -> act(g(t)^{-1}, zeta(t))`` for the lift ``g`` from the identity.

    The fibre path is read at the lift's node times through
    :func:`~cartanconn.principal.stacked` (once when batched), and one
    ``spec.act`` call moves all its points; values of the wrong shape raise
    ``ValueError``; ``points`` are the lift's. The development is constant
    exactly when the input path is horizontal.
    """
    lifted = horizontal_lift(conn, base_path, None, step)
    zetas = stacked(fiber_path, lifted.ts, out=np.empty((len(lifted.ts), spec.fiber_dim)), what="fibre path")
    values = spec.act(lg.inverse_matrix(conn.tag, lifted.mats), zetas)
    return DevelopedPath(lifted.ts.copy(), values, lifted.points)
