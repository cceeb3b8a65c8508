"""Tests for horizontal lifts, parallel transport, holonomy and development."""

import dataclasses
import functools
import itertools
import re

import numpy as np
import pytest
import scipy.linalg

from cartanconn import cli
from cartanconn import liegroup as lg
from cartanconn import models
from cartanconn import principal as pr
from cartanconn import transport as tp
from cartanconn.cartan import CartanStructure
from cartanconn.errors import (
    DomainError,
    GeometryError,
    LiftDivergedError,
    LoopNotClosedError,
    PointAtInfinityError,
)

from conftest import (
    freefall_path,
    gravity_connection,
    perturbed_freefall_path,
    trig_path,
)


GALILEO = models.galileo_homogeneous_spec(2)


def flat_connection(dim=2, tag=lg.GALILEO2):
    return pr.zero_connection(pr.ChartDomain.unbounded(dim), tag)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_path_derivative_consistency_enforced():
    with pytest.raises(ValueError):
        tp.SmoothPath(0.0, 1.0, lambda t: np.array([t, t * t]), lambda t: np.array([1.0, 0.0]))


@pytest.mark.parametrize("batched", [False, True])
def test_path_probes_are_one_call_per_callable(batched):
    # construction reads x at the probes and at the probes +- h in one
    # call, and xdot at the probes in one: 30 and 10 rows per node
    rows = {"x": [], "xdot": []}

    def x(t):
        rows["x"].append(np.size(t))
        return np.stack([np.asarray(t, dtype=float), np.sin(t)], axis=-1)

    def xdot(t):
        rows["xdot"].append(np.size(t))
        return np.stack([np.ones_like(t, dtype=float), np.cos(t)], axis=-1)

    mark = pr.batched if batched else (lambda fn: fn)
    tp.SmoothPath(0.0, 1.0, mark(x), mark(xdot))
    assert rows == ({"x": [30], "xdot": [10]} if batched else {"x": [1] * 30, "xdot": [1] * 10})


def test_path_probe_checks_name_what_failed():
    with pytest.raises(ValueError, match=r"^declared derivative disagrees with finite differences at t = "):
        tp.SmoothPath(0.0, 1.0, lambda t: np.array([t, t * t]), lambda t: np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"^path is not finite at t = 0\.555"):   # the sixth probe
        tp.SmoothPath(0.0, 1.0, pr.batched(lambda t: np.stack([t, np.where(t > 0.5, np.inf, t)], -1)),
                      pr.batched(lambda t: np.ones((len(t), 2))))
    # x is read at 30 times (the probes and the probes +- h), xdot at 10
    with pytest.raises(ValueError, match=r"^path callables returned shapes \(30, 2\) and \(10, 3\) for 30 and 10 times"):
        tp.SmoothPath(0.0, 1.0, lambda t: np.array([t, t]), lambda t: np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match=r"^path callables returned shapes \(2, 30\) and \(10, 2\) for 30 and 10 times"):
        tp.SmoothPath(0.0, 1.0, pr.batched(lambda t: np.array([t, t])), pr.batched(lambda t: np.ones((len(t), 2))))


def test_piecewise_point_rejects_times_outside_the_path():
    loop = tp.square_loop([0.0, 0.0], 0.5, t0=1.0)
    assert np.array_equal(loop.point(1.0), [0.0, 0.0])
    assert np.array_equal(loop.point(3.0), [0.0, 0.0])
    for t in (1.0 - 1e-9, 3.0 + 1e-9, -5.0, 10.0):
        with pytest.raises(ValueError, match="time outside path interval"):
            loop.point(t)


def test_square_loop_is_closed():
    loop = tp.square_loop([0.25, -0.5], 0.5)
    start = loop.pieces[0].point(loop.t0)
    end = loop.pieces[-1].point(loop.t1)
    assert np.array_equal(start, end)


def test_piecewise_reverse_traverses_backwards():
    loop = tp.square_loop([0.0, 0.0], 1.0)
    rev = loop.reverse()
    assert np.allclose(rev.point(rev.t0), loop.point(loop.t1))
    assert np.allclose(rev.point(rev.t0 + 0.5), loop.point(loop.t1 - 0.5))


# ---------------------------------------------------------------------------
# Horizontal lift
# ---------------------------------------------------------------------------

def test_constant_path_lifts_to_constant():
    conn = gravity_connection(lambda t, x: 3.0)
    path = tp.SmoothPath(
        0.0, 1.0, lambda t: np.array([0.4, 0.2]), lambda t: np.zeros(2)
    )
    rng = np.random.default_rng(0)
    g0 = lg.random_element(lg.GALILEO2, rng)
    lifted = tp.horizontal_lift(conn, path, g0, step=1e-2)
    for g in lifted.elements:
        assert np.max(np.abs(g.mat - g0.mat)) < 1e-12


def test_flat_connection_lift_stays_at_start():
    conn = flat_connection()
    rng = np.random.default_rng(1)
    path = trig_path(rng, 2)
    lifted = tp.horizontal_lift(conn, path, step=1e-2)
    for g in lifted.elements:
        assert np.max(np.abs(g.mat - np.eye(3))) < 1e-12


@pytest.mark.parametrize("tag", [lg.so_tag(3), lg.orthogonal_tag(3, 1)], ids=lambda t: t.name)
def test_constant_coefficient_lift_is_exponential_and_stays_on_group(tag):
    # A(x, dx) = sum_k dx_k A_k with fixed A_k: along a straight line the
    # lift from the identity ends at expm(-sum_k v_k A_k), and 10,000
    # unprojected steps keep every node on the group
    rng = np.random.default_rng(12)
    gens = [lg.random_algebra(tag, rng, scale=0.8).mat for _ in range(2)]
    conn = pr.LocalConnection(
        pr.ChartDomain.unbounded(2),
        tag,
        lambda x, d: lg.AlgebraElement(tag, d[0] * gens[0] + d[1] * gens[1]),
    )
    p, q = np.array([0.2, -0.1]), np.array([-0.9, 1.3])
    lifted = tp.horizontal_lift(conn, tp.line_segment(p, q, 0.0, 1.0), step=1e-4)
    assert len(lifted.ts) == 10_001
    v = q - p
    expected = scipy.linalg.expm(-(v[0] * gens[0] + v[1] * gens[1]))
    assert np.max(np.abs(lifted.end.mat - expected)) < 1e-11
    assert np.max(lifted.group_defects()) < 1e-11


def test_effective_step_never_exceeds_requested():
    conn = gravity_connection(lambda t, x: 9.81)
    leg = tp.line_segment([0.0, 0.0], [0.5, 0.1], 0.0, 0.5)
    lifted = tp.horizontal_lift(conn, leg, step=0.2)
    assert np.max(np.diff(lifted.ts)) <= 0.2
    assert len(lifted.ts) == 4


def only_inside(t0, t1, fn):
    """The batched ``fn``, raising when read at a time outside [t0, t1]."""
    @pr.batched
    def read(t):
        t = np.asarray(t, dtype=float)
        if t.min() < t0 or t.max() > t1:
            raise ValueError(f"path read at t = {t.max()!r} outside [{t0}, {t1}]")
        return fn(t)
    return read


@pytest.mark.parametrize("t0", [0.0, 5.0])
def test_a_short_path_is_probed_inside_its_interval(t0):
    # h is capped at an eighth of the interval: a 1e-6 segment was read
    # from t0 - 2e-6 to t1 + 2e-6 with h = 1e-6 (1 + |t0| + |t1|)
    t1 = t0 + 1e-6
    tp.SmoothPath(t0, t1, only_inside(t0, t1, lambda t: np.stack([t, np.sin(3 * t)], -1)),
                  only_inside(t0, t1, lambda t: np.stack([np.ones_like(t), 3 * np.cos(3 * t)], -1)))


@pytest.mark.parametrize("e, x_rows", [(0.6, [30]), (0.99, [30, 2]), (0.995, [30, 2])])
def test_a_steep_orbit_passes_its_probe_by_one_more_read(e, x_rows):
    # near perihelion at e = 0.99 the central difference is off by 4.0e-5,
    # over PATH_CHECK; one more read of x at the probe +- h/2 gives the
    # Richardson difference, off by 8.7e-11 (7.7e-9 at e = 0.995). A path
    # whose central differences all agree reads x once, as before
    orbit = models.kepler_orbit(e=e)
    rows = []

    @pr.batched
    def x(t):
        rows.append(len(t))
        return orbit.x(t)

    tp.SmoothPath(orbit.t0, orbit.t1, x, orbit.xdot)
    assert rows == x_rows


def test_a_wrong_derivative_of_a_steep_orbit_still_fails_its_probe():
    # off by a relative 1e-4, the Richardson difference still reads 1.4e-3
    orbit = models.kepler_orbit(e=0.99)
    with pytest.raises(ValueError, match=r"^declared derivative disagrees with finite differences at t = "):
        tp.SmoothPath(orbit.t0, orbit.t1, orbit.x, pr.batched(lambda t: (1 + 1e-4) * orbit.xdot(t)))


def test_each_segment_ends_at_its_own_t1():
    # 0 + 700 * (0.7 / 700) rounds to 0.7000000000000001: the last node of
    # a segment is pinned to t1, so a path defined only on [t0, t1] lifts
    def fall(t0, t1):
        return tp.SmoothPath(t0, t1, only_inside(t0, t1, lambda t: np.stack([t, 4.905 * t * t], -1)),
                             only_inside(t0, t1, lambda t: np.stack([np.ones_like(t), 9.81 * t], -1)))

    conn = models.galilean_gravity(models.GravityField.constant(9.81)).conn
    lifted = tp.horizontal_lift(conn, fall(0.0, 0.7), step=1e-3)
    assert len(lifted.ts) == 701 and lifted.ts[-1] == 0.7
    assert np.array_equal(lifted.points[-1], [0.7, 4.905 * 0.7 * 0.7])
    legs = tp.PiecewisePath([fall(0.0, 0.7), fall(0.7, 1.3)])
    lifted = tp.horizontal_lift(conn, legs, step=1e-3)
    assert lifted.ts[700] == 0.7 and lifted.ts[-1] == 1.3


def test_richardson_agreement_freefall():
    # constant gravity, trajectory x = g t^2 / 2 lifted from the identity:
    # halving the step moves the endpoint by less than 1e-8
    conn = gravity_connection(lambda t, x: 9.81)
    path = freefall_path()
    full = tp.horizontal_lift(conn, path, step=1e-3)
    half = tp.horizontal_lift(conn, path, step=5e-4)
    assert np.max(np.abs(full.end.mat - half.end.mat)) < 1e-8


def test_lift_rejects_nonpositive_step():
    conn = flat_connection()
    path = freefall_path()
    with pytest.raises(ValueError):
        tp.horizontal_lift(conn, path, step=0.0)


def test_lift_diverges_on_blowup_field():
    # coefficients blowing up in finite time must be reported, not hidden
    conn = gravity_connection(lambda t, x: 1.0 / (1.0 - t) ** 6)
    path = tp.SmoothPath(
        0.0, 1.0, lambda t: np.array([t, 0.0]), lambda t: np.array([1.0, 0.0])
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises((LiftDivergedError, ZeroDivisionError, FloatingPointError)):
            tp.horizontal_lift(conn, path, step=1e-3)


def test_lift_raises_when_path_exits_domain():
    domain = pr.ChartDomain.box([-0.5, -10.0], [0.5, 10.0])
    conn = pr.LocalConnection(
        domain, lg.GALILEO2, lambda x, d: lg.galileo_algebra(0.0, d[0], d[1])
    )
    path = freefall_path()  # t runs to 1.0, outside the box
    from cartanconn.errors import DomainError

    with pytest.raises(DomainError):
        tp.horizontal_lift(conn, path, step=1e-2)


@pytest.mark.parametrize("step", [0.05, 1e-3])
def test_lift_stops_at_first_node_outside_domain(step):
    # x runs along (t, 0); the chart ends at x = 0.6102. The error names the
    # first node outside, and no coefficient at or past it is evaluated (at
    # step 1e-3 that node lies in the second block of steps).
    seen = []

    def coeff(x, d):
        seen.append(x[0])
        return lg.galileo_algebra(0.0, d[0], d[1])

    domain = pr.ChartDomain.box([-1.0, -1.0], [0.6102, 1.0])
    conn = pr.LocalConnection(domain, lg.GALILEO2, coeff)
    path = tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0)
    with pytest.raises(DomainError) as info:
        tp.horizontal_lift(conn, path, step=step)
    t_out = float(re.search(r"t = (\S+)$", str(info.value)).group(1))
    assert 0.6102 < t_out <= 0.6102 + step / 2
    assert all(x < t_out for x in seen)


def test_lift_names_the_first_non_finite_step():
    # the coefficient is infinite at t = 0.5 without raising
    conn = gravity_connection(lambda t, x: np.inf if t == 0.5 else 1.0)
    path = tp.SmoothPath(
        0.0, 1.0, lambda t: np.array([t, 0.0]), lambda t: np.array([1.0, 0.0])
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(LiftDivergedError, match=r"t = 0\.5$"):
            tp.horizontal_lift(conn, path, step=0.1)


def test_lift_names_the_first_non_finite_step_in_a_later_block():
    # 1100 steps on one segment; the infinite node, step 700, lies in the
    # second block of 512 steps
    t_bad = 700 * (1.1 / 1100)
    conn = gravity_connection(lambda t, x: np.inf if t == t_bad else 1.0)
    path = tp.SmoothPath(
        0.0, 1.1, lambda t: np.array([t, 0.0]), lambda t: np.array([1.0, 0.0])
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(LiftDivergedError) as info:
            tp.horizontal_lift(conn, path, step=1e-3)
    assert float(re.search(r"t = (\S+)$", str(info.value)).group(1)) == t_bad


def test_lift_names_a_non_finite_path_point_in_a_later_block():
    # on an unbounded domain the chart check is the finiteness of the path
    # points; the NaN node, step 700 of 1100, lies in the second block of 512 steps
    t_bad = 700 * (1.1 / 1100)
    x = pr.batched(lambda t: np.stack([t, np.where(t == t_bad, np.nan, 0.5 * t)], -1))
    xdot = pr.batched(lambda t: np.stack([np.ones_like(t), np.full_like(t, 0.5)], -1))
    conn = gravity_connection(lambda t, x: 9.81)
    with pytest.raises(DomainError) as info:
        tp.horizontal_lift(conn, tp.SmoothPath(0.0, 1.1, x, xdot), step=1e-3)
    assert float(re.search(r"t = (\S+)$", str(info.value)).group(1)) == t_bad


def sequential_magnus(conn, seg, n_steps, g0):
    """Reference lift: the Magnus-4 propagators of every step, multiplied
    onto ``g0`` one step after another."""
    h = (seg.t1 - seg.t0) / n_steps
    nodes = seg.t0 + np.arange(2 * n_steps + 1) * (h / 2)
    a = pr.coeff_matrices(conn, seg.points(nodes), seg.velocities(nodes))
    a0, ah, a1 = a[0:-1:2], a[1::2], a[2::2]
    omega = (h * h / 12) * (a1 @ a0 - a0 @ a1) - (h / 6) * (a0 + 4 * ah + a1)
    mats = [g0]
    for prop in lg.expm_matrix(conn.tag, omega):
        mats.append(prop @ mats[-1])
    return np.array(mats)


def varying_connection(tag, seed):
    """Batched connection on the plane whose coefficients vary with the point:
    ``A(x, d) = d_0 (G_0 + sin(x_1) G_1) + d_1 (x_0 G_2 + G_3)``."""
    rng = np.random.default_rng(seed)
    g = [lg.random_algebra(tag, rng, scale=0.8).mat for _ in range(4)]

    @pr.batched
    def coeff(x, d):
        (x0, x1), (d0, d1) = (np.moveaxis(np.asarray(v), -1, 0)[..., None, None] for v in (x, d))
        return lg.AlgebraElement(tag, d0 * (g[0] + np.sin(x1) * g[1]) + d1 * (x0 * g[2] + g[3]))

    return pr.LocalConnection(pr.ChartDomain.unbounded(2), tag, coeff)


# Galileo blocks run in algebra coordinates (_galilean_product), the others take the doubling scan
SCAN_TAGS = [lg.gl_tag(3), lg.so_tag(3), lg.GALILEO2, lg.galileo_tag(3), lg.galileo_tag(4)]


@pytest.mark.parametrize("tag", SCAN_TAGS, ids=lambda t: t.name)
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 511, 512, 513, 1100])
def test_doubling_scan_matches_the_sequential_product(tag, steps):
    conn = varying_connection(tag, seed=steps)
    g0 = lg.random_element(tag, np.random.default_rng(1), scale=0.4)
    seg = tp.line_segment([0.3, -0.2], [-0.8, 1.1], 0.0, 1.0)
    lifted = tp.horizontal_lift(conn, seg, g0, step=1.0 / steps)
    assert len(lifted.ts) == steps + 1
    reference = sequential_magnus(conn, seg, steps, g0.mat)
    assert np.max(np.abs(lifted.mats - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("steps", [4, 1100])
def test_lift_makes_two_coefficient_calls_per_step_plus_one_per_segment(steps):
    calls = []

    def coeff(x, d):
        calls.append(1)
        return lg.galileo_algebra(-9.81 * d[0], d[0], d[1])

    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, coeff)
    lifted = tp.horizontal_lift(conn, tp.square_loop([0.0, 0.0], 0.5), step=0.5 / steps)
    assert len(lifted.ts) == 4 * steps + 1
    assert len(calls) == 4 * (2 * steps + 1)


def counting_gravity_coeff(calls, g0=9.81):
    """Batched constant-gravity coefficient map recording the points of each call."""
    @pr.batched
    def coeff(x, d):
        calls.append(np.array(x))
        mat = np.zeros(np.shape(d)[:-1] + (3, 3))
        mat[..., 1, 0] = -g0 * d[..., 0]
        mat[..., 0, 2] = d[..., 0]
        mat[..., 1, 2] = d[..., 1]
        return lg.AlgebraElement(lg.GALILEO2, mat)

    return coeff


@pytest.mark.parametrize("steps, blocks", [(4, 1), (512, 4), (1100, 9)])
def test_batched_connection_gets_one_coefficient_call_per_block(steps, blocks):
    # the 4 legs of ``steps`` steps each run in blocks of 512 steps that span
    # the corners: one call per block of the path
    calls = []
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, counting_gravity_coeff(calls))
    lifted = tp.horizontal_lift(conn, tp.square_loop([0.0, 0.0], 0.5), step=0.5 / steps)
    assert len(lifted.ts) == 4 * steps + 1
    assert len(calls) == blocks
    # every node is evaluated once: each segment has its own 2 n + 1 nodes,
    # and a block that continues a segment reuses the previous block's last node
    assert sum(len(x) for x in calls) == 4 * (2 * steps + 1)


def chained_reference(conn, path, step, g0):
    """:func:`sequential_magnus` on each segment of ``path``, each from the
    previous segment's end, joined at the corners."""
    mats = [g0[None]]
    for seg in path.segments:
        n = max(1, int(np.ceil((seg.t1 - seg.t0) / step * (1.0 - 1e-9))))
        mats.append(sequential_magnus(conn, seg, n, mats[-1][-1])[1:])
    return np.concatenate(mats)


def three_legs(durations, per_node=()):
    """Three straight legs of the plane, joined at corners, over the given
    durations; the legs in ``per_node`` are read one node at a time."""
    corners = np.array([[0.3, -0.2], [-0.8, 0.4], [0.1, 1.1], [0.9, 0.2]])
    ends = np.cumsum([0.0, *durations])
    legs = [tp.line_segment(p, q, a, b) for p, q, a, b in zip(corners, corners[1:], ends, ends[1:])]
    for i in per_node:
        leg = legs[i]
        legs[i] = tp.SmoothPath(leg.t0, leg.t1, lambda t, leg=leg: leg.x(t), lambda t, leg=leg: leg.xdot(t))
    return tp.PiecewisePath(legs)


@pytest.mark.parametrize("tag", SCAN_TAGS, ids=lambda t: t.name)
@pytest.mark.parametrize("durations, steps", [((1.0, 1.0, 1.0), 900), ((1.0, 0.8015, 0.9007), 812)])
def test_blocks_spanning_segments_match_the_per_segment_product(tag, durations, steps):
    # 300 steps on the first leg: the blocks of 512 steps straddle both
    # corners; the second case has a different step on each leg
    conn = varying_connection(tag, seed=4)
    g0 = lg.random_element(tag, np.random.default_rng(2), scale=0.4).mat
    path = three_legs(durations)
    lifted = tp.horizontal_lift(conn, path, lg.GroupElement(tag, g0), step=1.0 / 300)
    reference = chained_reference(conn, path, 1.0 / 300, g0)
    assert len(lifted.ts) == len(reference) == 1 + steps
    assert np.max(np.abs(lifted.mats - reference)) <= 1e-13 * np.max(np.abs(reference))


def doubling_product(props, g0):
    """``_block_product`` of ``props`` onto ``g0``: the doubling scan."""
    out = np.empty((len(props) + 1,) + g0.shape)
    out[0] = g0
    tp._block_product(props.copy(), out)
    return out


def simpson_coefficients(conn, seg, n_steps):
    """Coefficients at the Simpson nodes of ``seg`` cut into ``n_steps``
    steps, as the lift takes them: step starts and midpoints, ``(2 n + 1, n, n)``."""
    h = (seg.t1 - seg.t0) / n_steps
    starts = seg.t0 + np.arange(n_steps + 1) * h
    nodes = np.empty(2 * n_steps + 1)
    nodes[0::2], nodes[1::2] = starts, starts[:-1] + h / 2
    return h, pr.coeff_matrices(conn, seg.points(nodes), seg.velocities(nodes))


def matrix_propagators(tag, h, coeffs):
    """Magnus propagators by matrices: Omega by matmul, then ``lg.expm_matrix``."""
    a0, ah, a1 = coeffs[0:-1:2], coeffs[1::2], coeffs[2::2]
    omega = (h * h / 12) * (a1 @ a0 - a0 @ a1) - (h / 6) * (a0 + 4 * ah + a1)
    return lg.expm_matrix(tag, omega)


@pytest.mark.parametrize("tag", [lg.GALILEO2, lg.galileo_tag(3), lg.galileo_tag(4)], ids=lambda t: t.name)
@pytest.mark.parametrize("steps", [1, 2, 511, 512])
def test_galilean_running_sums_match_the_doubling_scan(tag, steps):
    # the coordinate route, composed onto a start exactly on the pattern into
    # a stack that holds the identity off it, against the matrix propagators
    # and the doubling scan; the returned coordinates are the nodes'
    rng = np.random.default_rng(steps)
    coeffs = np.stack([lg.random_algebra(tag, rng, scale=8.0).mat for _ in range(2 * steps + 1)])
    coords = tp._galilean_coords(tag, coeffs)
    assert np.array_equal(coords, lg._matrix_coords(tag, coeffs))
    g0 = lg.random_element(tag, rng, scale=0.6).mat
    assert lg.group_defect(tag, g0) == 0.0
    reference = doubling_product(matrix_propagators(tag, 0.1, coeffs), g0)
    out = np.tile(np.eye(tag.size), (steps + 1, 1, 1))
    out[0] = g0
    nodes = tp._galilean_product(tag, 0.1, coords[0:-1:2], coords[1::2], coords[2::2], out)
    assert np.max(np.abs(out - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert np.array_equal(nodes, lg._matrix_coords(tag, out[1:]))
    assert np.array_equal(lg.group_defect(tag, out), np.zeros(steps + 1))


def test_a_galilean_block_is_bit_for_bit_the_matrix_arithmetic():
    # one block of 400 steps of 1+2 gravity from a general start: Omega by
    # matmul, expm_matrix, the three running sums from the identity, then
    # one matmul onto the block start
    tag = lg.galileo_tag(3)
    field = models.GravityField(pr.batched(lambda t, x, y: np.stack([0.3 * np.sin(y) - x, -9.81 + 0.2 * t * x], -1)),
                                pr.batched(lambda t, x, y: 0.4 * y))
    conn = models.galilean_gravity(field, pr.ChartDomain.unbounded(3)).conn
    seg = tp.SmoothPath(0.0, 1.2, pr.batched(lambda t: np.stack([t, np.sin(t), 0.5 * t * t], -1)),
                        pr.batched(lambda t: np.stack([np.ones_like(t), np.cos(t), t], -1)))
    g0 = lg.random_element(tag, np.random.default_rng(9), scale=0.7).mat
    props = matrix_propagators(tag, *simpson_coefficients(conn, seg, 400))
    a, v, b = props[:, 0, -1], props[:, 1:-1, 0], props[:, 1:-1, -1]
    np.cumsum(a, out=a)
    b[1:] += v[1:] * a[:-1, None]
    np.cumsum(v, axis=0, out=v)
    np.cumsum(b, axis=0, out=b)
    lifted = tp.horizontal_lift(conn, seg, lg.GroupElement(tag, g0), step=1.2 / 400)
    assert np.array_equal(lifted.mats, np.concatenate([g0[None], props @ g0]))


def test_a_block_off_the_galilean_group_takes_the_doubling_scan():
    # one coefficient with an off-pattern entry of 1e-17 sends its block
    # through the matrix propagators and the doubling scan
    tag = lg.galileo_tag(3)
    t_off = 123 / 300

    @pr.batched
    def coeff(x, d):
        mat = np.zeros(np.shape(d)[:-1] + (4, 4))
        mat[..., 1:-1, 0] = -np.array([0.5, -9.81]) * d[..., :1] - 0.3 * x[..., 1:] * d[..., 1:]
        mat[..., :-1, -1] = d
        mat[..., 1, 2] = np.where(np.abs(x[..., 0] - t_off) < 1e-12, 1e-17, 0.0)
        return mat

    conn = pr.LocalConnection(pr.ChartDomain.unbounded(3), tag, coeff)
    seg = tp.line_segment([0.0, 0.2, -0.1], [1.0, 0.7, 0.4], 0.0, 1.0)
    h, coeffs = simpson_coefficients(conn, seg, 300)
    assert tp._galilean_coords(tag, coeffs) is None
    g0 = lg.random_element(tag, np.random.default_rng(7)).mat
    lifted = tp.horizontal_lift(conn, seg, lg.GroupElement(tag, g0), step=1.0 / 300)
    assert np.array_equal(lifted.mats, doubling_product(matrix_propagators(tag, h, coeffs), g0))


def test_an_off_algebra_galilean_map_fails_with_the_defect_of_the_doubling_scan():
    # a diagonal entry 1e-3 dt makes every propagator slightly off the group;
    # the running sums would drop it and report a defect of 1.0e-06
    @pr.batched
    def coeff(x, d):
        mat = np.zeros(np.shape(d)[:-1] + (3, 3))
        mat[..., 1, 0] = -9.81 * d[..., 0]
        mat[..., 0, 2] = d[..., 0]
        mat[..., 1, 2] = d[..., 1]
        mat[..., 1, 1] = 1e-3 * d[..., 0]
        return mat

    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, coeff)
    with pytest.raises(LiftDivergedError, match=r"defect 9\.995e-04"):
        tp.horizontal_lift(conn, tp.line_segment([0.0, 0.0], [1.0, 0.5], 0.0, 1.0), step=1e-3)


@pytest.mark.parametrize("tag", [lg.GALILEO2, lg.galileo_tag(3), lg.galileo_tag(4)], ids=lambda t: t.name)
def test_galilean_guard_takes_the_branch_of_the_group_defect(tag):
    # the coefficient guard: a finite stack exactly on the algebra pattern
    # runs in coordinates; an off-pattern 1e-300, 1e-17, NaN or +-inf, or a
    # non-finite entry anywhere, takes the matrix route; -0.0 stays on the pattern
    rng = np.random.default_rng(tag.size)
    base = np.stack([lg.random_algebra(tag, rng).mat for _ in range(5)])
    on_pattern = lg.project_to_algebra(tag, np.ones((tag.size, tag.size))) != 0
    branches = set()
    entries = itertools.product(range(tag.size), repeat=2)
    for (i, j), value, add in itertools.product(entries, (np.nan, np.inf, -np.inf, 1e-300, 1e-17, -0.0), (False, True)):
        coeffs = base.copy()
        coeffs[2, i, j] = coeffs[2, i, j] + value if add else value
        expected = value == 0 or (np.isfinite(value) and on_pattern[i, j])
        coords = tp._galilean_coords(tag, coeffs)
        assert (coords is not None) == expected, (i, j, value, add)
        if expected:
            assert np.array_equal(coords, lg._matrix_coords(tag, coeffs))
        branches.add(expected)
    assert branches == {True, False}


def counted_group_defects(monkeypatch):
    """The shapes of the stacks passed to ``lg.group_defect`` from now on."""
    shapes, defect = [], lg.group_defect

    def counted(tag, mat):
        shapes.append(np.shape(mat))
        return defect(tag, mat)

    monkeypatch.setattr(lg, "group_defect", counted)
    return shapes


def curved_gravity():
    return models.galilean_gravity(models.GravityField(
        pr.batched(lambda t, x: 9.81 + 0.8 * np.sin(x) * (1.0 + 0.5 * np.cos(t))),
        pr.batched(lambda t, x: 0.3 * t * x))).conn


COORDINATE_LIFTS = {   # connection, path and step of lifts whose every block runs in algebra coordinates
    "kepler": (lambda: models.galilean_gravity_3d(models.kepler_acceleration(1.0)).conn,
               lambda: models.kepler_orbit(e=0.6), 1e-3),
    "curved-square-loop": (curved_gravity, lambda: tp.square_loop([0.2, -0.5], 0.5), 1e-3),
    "constant-1+3": (lambda: models.galilean_gravity(models.GravityField.constant((0.0, 0.0, -9.81)),
                                                     pr.ChartDomain.unbounded(4)).conn,
                     lambda: tp.line_segment([0.0, 0.3, -0.2, 0.5], [1.2, 0.9, 0.4, -2.0], 0.0, 1.2), 1e-3),
    "three-legs": (lambda: varying_connection(lg.GALILEO2, seed=3), lambda: three_legs((1.0, 1.0, 1.0)), 1.0 / 300),
}


@pytest.mark.parametrize("case", COORDINATE_LIFTS)
def test_a_coordinate_lift_from_an_exact_start_is_exactly_on_the_group(monkeypatch, case):
    # products of exact Galileo-pattern matrices keep the pattern exactly,
    # so the lift skips the node defect pass and every node reads 0.0
    conn, path, step = COORDINATE_LIFTS[case]
    shapes = counted_group_defects(monkeypatch)
    lifted = tp.horizontal_lift(conn(), path(), step=step)
    assert shapes == [] and len(lifted.ts) > tp._BLOCK + 1
    assert np.array_equal(lifted.group_defects(), np.zeros(len(lifted.ts)))


def test_a_start_off_the_galilean_pattern_still_raises_with_its_defect():
    # the off-pattern (0, 0) entry 1 + 1e-6 of the start stays at every node
    g0 = np.eye(3)
    g0[0, 0] += 1e-6
    with pytest.raises(LiftDivergedError, match=r"defect 1\.000e-06"):
        tp.horizontal_lift(curved_gravity(), tp.square_loop([0.2, -0.5], 0.1), lg.GroupElement(lg.GALILEO2, g0),
                           step=2.5e-3)


@pytest.mark.parametrize("start, pass_runs", [("identity", False), ("exact", False), ("1e-12 off", True)])
def test_the_node_defect_pass_runs_unless_the_start_is_exactly_galilean(monkeypatch, start, pass_runs):
    g0 = lg.random_element(lg.GALILEO2, np.random.default_rng(4)).mat.copy()
    if start == "1e-12 off":
        g0[2, 1] = 1e-12
    shapes = counted_group_defects(monkeypatch)
    lifted = tp.horizontal_lift(curved_gravity(), tp.square_loop([0.2, -0.5], 0.1),
                                None if start == "identity" else lg.GroupElement(lg.GALILEO2, g0), step=2.5e-3)
    assert ((len(lifted.ts), 3, 3) in shapes) == pass_runs
    assert (3, 3) not in shapes   # the lift reads the start's pattern, not its defect
    if pass_runs:
        assert 0 < np.max(lifted.group_defects()) < 1e-9


def test_a_matrix_route_lift_runs_the_node_defect_pass(monkeypatch):
    shapes = counted_group_defects(monkeypatch)
    lifted = tp.horizontal_lift(varying_connection(lg.gl_tag(3), seed=5), three_legs((1.0, 1.0, 1.0)), step=1.0 / 300)
    assert shapes == [(len(lifted.ts), 3, 3)]


def onto_the_start_by_matmul(product):
    """A coordinate block product that runs ``product`` from the identity,
    then moves the whole stack onto the block start with one matmul: the
    identity stack and matmul that the coordinate blocks replace."""
    def run(tag, h, c0, ch, c1, out):
        props = np.tile(np.eye(tag.size), (len(out), 1, 1))
        product(tag, h, c0, ch, c1, props)
        np.matmul(props[1:], out[0], out=out[1:])
        return lg._matrix_coords(tag, out[1:])
    return run


def wobbling_fall():
    return tp.SmoothPath(0.0, 1.0, pr.batched(lambda t: np.stack([t, 4.905 * t * t + 0.1 * np.sin(5 * t)], -1)),
                         pr.batched(lambda t: np.stack([np.ones_like(t), 9.81 * t + 0.5 * np.cos(5 * t)], -1)))


def kepler():
    return models.galilean_gravity_3d(models.kepler_acceleration(1.0))


GALILEAN_DEVELOPMENTS = {   # structure, path and step of developments under the constant section
    "kepler-1e-3": (kepler, lambda: models.kepler_orbit(e=0.6), 1e-3),
    "kepler-2e-4": (kepler, lambda: models.kepler_orbit(e=0.6), 2e-4),
    "expression-1+1": (lambda: cli._gravity_structure({"V": "9.81 + 0.8*sin(x)*(1 + 0.5*cos(t))", "W": "0.3*t*x"})[0],
                       wobbling_fall, 1e-4),
    "constant-1+3": (lambda: models.galilean_gravity(models.GravityField.constant((0.0, 0.0, -9.81)),
                                                     pr.ChartDomain.unbounded(4)),
                     lambda: tp.line_segment([0.0, 0.3, -0.2, 0.5], [1.2, 0.9, 0.4, -2.0], 0.0, 1.2), 1e-3),
    "three-legs": (lambda: CartanStructure("three-legs", models.galileo_homogeneous_spec(2),
                                           varying_connection(lg.GALILEO2, seed=3)),
                   lambda: three_legs((1.0, 1.0, 1.0)), 1.0 / 300),
}


@pytest.mark.parametrize("case", GALILEAN_DEVELOPMENTS)
def test_galilean_lifts_and_developments_are_bit_for_bit_the_matrix_arithmetic(monkeypatch, case):
    # the lift against an identity stack moved onto each block start by matmul,
    # the development against the stacked inverse and spec.act, which never gives -0.0
    structure, path, step = GALILEAN_DEVELOPMENTS[case]
    cs, path = structure(), path()
    lifted = tp.horizontal_lift(cs.conn, path, step=step)
    dev = cs._develop_lift(lifted)
    assert np.array_equal(dev.values, cs.spec.act(lg.inverse_matrix(cs.spec.tag, lifted.mats), cs.spec.origin))
    assert not np.any(np.signbit(dev.values) & (dev.values == 0.0))
    monkeypatch.setattr(tp, "_galilean_product", onto_the_start_by_matmul(tp._galilean_product))
    reference = tp.horizontal_lift(cs.conn, path, step=step)
    assert len(lifted.ts) > tp._BLOCK + 1 and np.array_equal(lifted.mats, reference.mats)
    assert np.array_equal(cs.develop_base_path(path, step=step).values, dev.values)


def test_a_start_off_the_galilean_pattern_takes_the_matrix_route(monkeypatch):
    # a start 1e-12 off the pattern: every block by matrices and the doubling
    # scan, which carry the start, then the node defect pass
    g0 = lg.random_element(lg.GALILEO2, np.random.default_rng(4)).mat.copy()
    g0[2, 1] = 1e-12
    conn, path = varying_connection(lg.GALILEO2, seed=3), tp.line_segment([0.3, -0.2], [-0.8, 1.1], 0.0, 1.0)
    shapes = counted_group_defects(monkeypatch)
    lifted = tp.horizontal_lift(conn, path, lg.GroupElement(lg.GALILEO2, g0), step=1.0 / 700)
    assert shapes == [(701, 3, 3)]
    h, coeffs = simpson_coefficients(conn, path, 700)
    props = matrix_propagators(lg.GALILEO2, h, coeffs)
    middle = doubling_product(props[:tp._BLOCK], g0)
    assert np.array_equal(lifted.mats, np.concatenate([middle, doubling_product(props[tp._BLOCK:], middle[-1])[1:]]))
    assert np.max(np.abs(lifted.mats[:, 2, 1] - 1e-12)) == 0.0


def test_an_off_pattern_block_sends_the_rest_of_the_lift_by_matrices(monkeypatch):
    # 1300 steps of constant gravity from the identity, with one coefficient
    # 1e-17 off the pattern in the second block: the first block runs in
    # coordinates, as without that entry, the second and the third (on the
    # pattern again) by matrices from their starts; then the node defect pass runs
    def gravity(off):
        @pr.batched
        def coeff(x, d):
            mat = np.zeros(np.shape(d)[:-1] + (3, 3))
            mat[..., 1, 0], mat[..., 0, 2], mat[..., 1, 2] = -9.81 * d[..., 0], d[..., 0], d[..., 1]
            mat[..., 1, 1] = np.where(np.abs(x[..., 0] - 700 / 1300) < 1e-12, off, 0.0)
            return mat
        return pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, coeff)

    conn, path, k = gravity(1e-17), tp.line_segment([0.0, 0.0], [1.0, 0.5], 0.0, 1.0), tp._BLOCK
    shapes = counted_group_defects(monkeypatch)
    lifted = tp.horizontal_lift(conn, path, step=1.0 / 1300)
    assert shapes == [(1301, 3, 3)]
    shapes.clear()
    assert np.array_equal(lifted.mats[:k + 1], tp.horizontal_lift(gravity(0.0), path, step=1.0 / 1300).mats[:k + 1])
    assert shapes == []
    props = matrix_propagators(lg.GALILEO2, *simpson_coefficients(conn, path, 1300))
    second = doubling_product(props[k:2 * k], lifted.mats[k])
    assert np.array_equal(lifted.mats[k:2 * k + 1], second)
    assert np.array_equal(lifted.mats[2 * k:], doubling_product(props[2 * k:], second[-1]))


def counting_leg(calls, start, rate, t0, t1):
    def x(t):
        calls["x"] += 1
        return start + (t - t0) * rate

    def xdot(t):
        calls["xdot"] += 1
        return rate

    return tp.SmoothPath(t0, t1, x, xdot)


def test_holonomy_of_a_per_node_loop_calls_the_legs_for_probes_ends_and_nodes():
    # each leg: 30 + 10 probe calls; the path reads each leg's two ends once,
    # and the lift calls both callables at the 2 n + 1 nodes of each leg
    calls = {"x": 0, "xdot": 0}
    side, step, rates = 0.25, 0.0625, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    corners = np.array([0.1, 0.2]) + side * np.cumsum(np.concatenate([[[0.0, 0.0]], rates[:-1]]), axis=0)
    loop = tp.PiecewisePath([counting_leg(calls, c, r, k * side, (k + 1) * side)
                             for k, (c, r) in enumerate(zip(corners, rates))])
    assert calls == {"x": 4 * 30 + 8, "xdot": 4 * 10}
    assert all(np.array_equal(ends, [c, c + side * r]) for ends, c, r in zip(loop.ends, corners, rates))
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * np.sin(x), lambda t, x: 0.2 * t)
    hol = tp.holonomy(conn, loop, step=step)
    nodes = 4 * (2 * 4 + 1)   # four steps per leg
    assert calls == {"x": 4 * 30 + 8 + nodes, "xdot": 4 * 10 + nodes}
    assert np.array_equal(hol.mat, tp.horizontal_lift(conn, loop, step=step).end.mat)


def test_developments_read_a_piecewise_base_point_from_its_ends():
    # a development takes x(t0), and under the diagonal section its frames,
    # from the lift's nodes, so it calls the legs only there, piecewise or smooth
    calls = {"x": 0, "xdot": 0}
    side, step, rates = 0.25, 0.0625, np.array([[1.0, 0.0], [0.0, 1.0]])
    corners = np.array([[0.1, 0.2], [0.35, 0.2]])
    path = tp.PiecewisePath([counting_leg(calls, c, r, k * side, (k + 1) * side)
                             for k, (c, r) in enumerate(zip(corners, rates))])
    smooth = counting_leg(calls, corners[0], rates[0], 0.0, side)
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * np.sin(x))
    cs = models.CartanStructure("gravity", GALILEO, conn)
    diagonal = models.CartanStructure("diagonal-gravity", GALILEO, conn, diagonal=True)
    zeta = lambda t: np.array([t, 0.5 * t])
    nodes = 2 * 4 + 1   # four steps per leg
    for develop in (lambda p: tp.develop_total_path(conn, GALILEO, p, zeta, step=step),
                    lambda p: cs.develop_base_path(p, step=step),
                    lambda p: diagonal.develop_base_path(p, step=step)):
        before = dict(calls)
        dev = develop(path)
        assert calls == {"x": before["x"] + 2 * nodes, "xdot": before["xdot"] + 2 * nodes}
        assert np.array_equal(dev.base_point, corners[0])
        before = dict(calls)
        dev = develop(smooth)
        assert calls == {"x": before["x"] + nodes, "xdot": before["xdot"] + nodes}
        assert np.array_equal(dev.base_point, corners[0])


def test_piecewise_path_errors_come_pair_by_pair():
    a, b = tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0), tp.line_segment([1.0, 0.5], [1.0, 1.0], 1.0, 2.0)
    late = tp.line_segment([1.0, 0.5], [0.0, 0.0], 2.5, 3.0)
    with pytest.raises(ValueError, match="continuous in space"):   # the first pair jumps in space
        tp.PiecewisePath([a, b, late])
    with pytest.raises(ValueError, match="contiguous in time"):   # the first pair jumps in time
        tp.PiecewisePath([a, late, b])


def test_batched_and_per_node_legs_lift_in_one_pass():
    # the middle leg is read one node at a time, the others in one call per block
    conn = varying_connection(lg.gl_tag(3), seed=5)
    g0 = np.eye(3)
    mixed = three_legs((1.0, 1.0, 1.0), per_node=(1,))
    assert [pr.is_batched(seg.x) for seg in mixed.segments] == [True, False, True]
    lifted = tp.horizontal_lift(conn, mixed, step=1.0 / 300)
    assert np.array_equal(lifted.mats, tp.horizontal_lift(conn, three_legs((1.0, 1.0, 1.0)), step=1.0 / 300).mats)
    reference = chained_reference(conn, mixed, 1.0 / 300, g0)
    assert np.max(np.abs(lifted.mats - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_coefficient_rows_are_the_nodes_of_every_segment():
    # 300, 240 and 270 steps: two blocks, and 2 n + 1 nodes per segment
    calls = []
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, counting_gravity_coeff(calls))
    lifted = tp.horizontal_lift(conn, three_legs((1.0, 0.8, 0.9)), step=1.0 / 300)
    assert len(lifted.ts) == 811
    assert len(calls) == 2
    assert sum(len(x) for x in calls) == (2 * 300 + 1) + (2 * 240 + 1) + (2 * 270 + 1)


@pytest.mark.parametrize("step", [0.05, 1.0 / 300])
def test_domain_error_in_a_later_segment_names_its_first_node_outside(step):
    # the third leg runs along x1 = 1 from x0 = 0 to 1 over t in [2, 3]; the
    # chart ends at x0 = 0.6102, so the first node outside lies in (2.6102, 2.6102 + step / 2]
    calls = []
    domain = pr.ChartDomain.box([-1.0, -1.0], [0.6102, 1.5])
    conn = pr.LocalConnection(domain, lg.GALILEO2, counting_gravity_coeff(calls))
    path = tp.PiecewisePath([tp.line_segment([0.0, 0.0], [0.5, 0.0], 0.0, 1.0),
                             tp.line_segment([0.5, 0.0], [0.0, 1.0], 1.0, 2.0),
                             tp.line_segment([0.0, 1.0], [1.0, 1.0], 2.0, 3.0)])
    with pytest.raises(DomainError) as info:
        tp.horizontal_lift(conn, path, step=step)
    t_out = float(re.search(r"t = (\S+)$", str(info.value)).group(1))
    assert 2.6102 < t_out <= 2.6102 + step / 2
    assert calls == []   # the whole path is checked before any coefficient


def test_lift_names_the_first_non_finite_node_in_a_later_segment():
    # the coefficient is infinite at the 37th step end of the second leg
    t_bad = 1.0 + 37 * 0.01
    conn = gravity_connection(lambda t, x: np.inf if t == t_bad else 1.0)
    path = tp.PiecewisePath([tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0),
                             tp.line_segment([1.0, 0.0], [2.0, 0.0], 1.0, 2.0)])
    with np.errstate(invalid="ignore"):
        with pytest.raises(LiftDivergedError) as info:
            tp.horizontal_lift(conn, path, step=0.01)
    assert float(re.search(r"t = (\S+)$", str(info.value)).group(1)) == t_bad


@pytest.mark.parametrize("batched", [False, True])
def test_batched_and_per_point_routes_agree(batched):
    # one gravity field and one path, declared batched or called per node,
    # against the per-point reference connection
    def V(t, x):
        return 9.81 + 0.3 * np.sin(x) * t

    def W(t, x):
        return 0.2 * x

    def x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, 0.3 * np.sin(2 * t) + 0.1 * t * t], axis=-1)

    def xdot(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), 0.6 * np.cos(2 * t) + 0.2 * t], axis=-1)

    mark = pr.batched if batched else (lambda fn: fn)
    reference = tp.horizontal_lift(gravity_connection(V, W), tp.SmoothPath(0.0, 1.5, x, xdot), step=1e-3)
    structure = models.galilean_gravity(models.GravityField(mark(V), mark(W)))
    assert pr.is_batched(structure.conn.coeff)   # model maps are always batched
    lifted = tp.horizontal_lift(structure.conn, tp.SmoothPath(0.0, 1.5, mark(x), mark(xdot)), step=1e-3)
    assert np.max(np.abs(lifted.mats - reference.mats)) < 1e-12


@pytest.mark.parametrize("step", [0.05, 1e-3])
def test_batched_lift_raises_domain_error_before_the_coefficients_of_its_block(step):
    # as test_lift_stops_at_first_node_outside_domain, with one coefficient
    # call per block: every node is checked before any block's coefficients
    calls = []
    domain = pr.ChartDomain.box([-1.0, -1.0], [0.6102, 1.0])
    conn = pr.LocalConnection(domain, lg.GALILEO2, counting_gravity_coeff(calls))
    with pytest.raises(DomainError) as info:
        tp.horizontal_lift(conn, tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0), step=step)
    t_out = float(re.search(r"t = (\S+)$", str(info.value)).group(1))
    assert 0.6102 < t_out <= 0.6102 + step / 2
    assert calls == []


def test_batched_path_with_wrong_shape_raises_at_construction():
    # np.array([t, t]) stacks times along the first axis: (2, N), not (N, 2)
    good_x = pr.batched(lambda t: np.stack([t, 2 * np.asarray(t)], axis=-1))
    good_v = pr.batched(lambda t: np.stack(np.broadcast_arrays(1.0, 2.0 + 0 * np.asarray(t)), axis=-1))
    tp.SmoothPath(0.0, 1.0, good_x, good_v)
    with pytest.raises(ValueError, match="shape"):
        tp.SmoothPath(0.0, 1.0, pr.batched(lambda t: np.array([t, 2 * t])), good_v)
    with pytest.raises(ValueError, match="shape"):
        tp.SmoothPath(0.0, 1.0, good_x, pr.batched(lambda t: np.array([1.0, 2.0])))


def test_batched_coefficient_with_wrong_shape_raises():
    # one (3, 3) matrix for a whole block is not a stack
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2,
                              pr.batched(lambda x, d: lg.galileo_algebra(0.0, 1.0, 0.0)))
    with pytest.raises(ValueError, match="shape"):
        tp.horizontal_lift(conn, tp.line_segment([0.0, 0.0], [1.0, 0.0], 0.0, 1.0), step=0.1)


def test_traced_wrappers_keep_the_batched_route():
    # the benchmark's tracer wraps conn.coeff and path callables with
    # functools.wraps; the lift must still call the coefficients once per
    # block and the path once per lift
    def traced(fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter.append(1)
            return fn(*args, **kwargs)
        return wrapper

    coeff_calls, x_calls, v_calls = [], [], []
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(2), lg.GALILEO2, counting_gravity_coeff([]))
    object.__setattr__(conn, "coeff", traced(conn.coeff, coeff_calls))
    segment = tp.line_segment([0.0, 0.0], [1.0, 0.5], 0.0, 1.0)
    path = tp.SmoothPath(0.0, 1.0, traced(segment.x, x_calls), traced(segment.xdot, v_calls))
    assert pr.is_batched(conn.coeff) and pr.is_batched(path.x) and pr.is_batched(path.xdot)
    x_calls.clear(), v_calls.clear()
    tp.horizontal_lift(conn, path, step=1e-3)   # 1000 steps: two blocks
    assert (len(coeff_calls), len(x_calls), len(v_calls)) == (2, 1, 1)


@pytest.mark.parametrize("steps, blocks", [(4, 1), (512, 3), (1500, 9)])
def test_each_lift_reads_its_path_and_checks_the_chart_once(monkeypatch, steps, blocks):
    # one x and one xdot call per batched leg, one per node of the per-node
    # middle leg and one chart check, however many blocks the lift takes
    calls = {"x": 0, "xdot": 0, "contains": 0, "coeff": 0}

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    path = tp.PiecewisePath([tp.SmoothPath(leg.t0, leg.t1, counted(leg.x, "x"), counted(leg.xdot, "xdot"))
                             for leg in three_legs((1.0, 1.0, 1.0), per_node=(1,)).segments])
    conn = varying_connection(lg.gl_tag(3), seed=5)
    object.__setattr__(conn, "coeff", counted(conn.coeff, "coeff"))
    monkeypatch.setattr(pr.ChartDomain, "contains", counted(pr.ChartDomain.contains, "contains"))
    calls.update(dict.fromkeys(calls, 0))
    lifted = tp.horizontal_lift(conn, path, step=1.0 / steps)
    nodes = 2 * steps + 1
    assert len(lifted.ts) == 3 * steps + 1
    assert calls == {"x": 2 + nodes, "xdot": 2 + nodes, "contains": 1, "coeff": blocks}


@pytest.mark.parametrize("per_node", [(), (1,), (0, 2)])
def test_lifted_points_are_the_segments_points_at_the_node_times(per_node):
    # 1,500 steps on each of three legs: 9 blocks, two of them across a
    # corner; a corner's point is the end of the segment before it
    path = three_legs((1.0, 1.0, 1.0), per_node=per_node)
    lifted = tp.horizontal_lift(varying_connection(lg.GALILEO2, seed=3), path, step=1.0 / 1500)
    assert len(lifted.ts) == 3 * 1500 + 1
    expected = [path.segments[0].point(lifted.ts[0])]
    for j, seg in enumerate(path.segments):   # nodes 1500 j + 1 to 1500 (j + 1), the corner last
        expected += [seg.point(t) for t in lifted.ts[1 + 1500 * j:1 + 1500 * (j + 1)]]
    assert np.array_equal(lifted.points, expected)


def test_line_segment_points_match_per_point_calls():
    rng = np.random.default_rng(3)
    seg = tp.line_segment(rng.standard_normal(3), rng.standard_normal(3), 0.5, 2.0)
    ts = np.linspace(0.5, 2.0, 7)
    assert np.array_equal(seg.points(ts), np.array([seg.point(t) for t in ts]))
    assert np.array_equal(seg.velocities(ts), np.array([seg.velocity(t) for t in ts]))
    back = seg.reverse()
    assert pr.is_batched(back.x) and pr.is_batched(back.xdot)
    assert np.array_equal(back.points(ts), np.array([back.point(t) for t in ts]))


def test_reversed_and_retimed_per_node_pieces_match_the_forward_path():
    # a piecewise path of undeclared callables: its reversal is batched and
    # reads the pieces through SmoothPath.points, one call per time
    rng = np.random.default_rng(8)
    first = trig_path(rng, 2, 0.0, 0.5)
    corner = first.point(0.5)
    second = tp.SmoothPath(0.5, 1.25, lambda t: corner + np.array([t - 0.5, (t - 0.5) ** 2]),
                           lambda t: np.array([1.0, 2 * (t - 0.5)]))
    assert not pr.is_batched(first.x) and not pr.is_batched(second.x)
    forward = tp.PiecewisePath([first, second])
    back = forward.reverse()
    assert [(seg.t0, seg.t1) for seg in back.segments] == [(0.0, 0.75), (0.75, 1.25)]
    for t in np.linspace(0.0, 1.25, 11):
        seg = back.segments[0 if t <= 0.75 else 1]
        src = forward.segments[1 if t <= 0.75 else 0]
        s = 1.25 - t
        assert np.max(np.abs(back.point(t) - forward.point(s))) < 1e-12
        assert np.max(np.abs(seg.velocity(t) + src.velocity(s))) < 1e-12
    assert np.array_equal(back.segments[1].points([1.0, 1.1]),
                          np.array([back.segments[1].point(1.0), back.segments[1].point(1.1)]))
    # lifting there and back returns to the identity
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * x, lambda t, x: 0.2 * t)
    there = tp.horizontal_lift(conn, forward, step=1e-3).end
    home = tp.horizontal_lift(conn, back, g0=there, step=1e-3).end
    assert np.max(np.abs(home.mat - np.eye(3))) < 1e-9


def test_fiber_action_validation():
    rng = np.random.default_rng(11)
    GALILEO.validate(rng)
    # (v, a2, b2) sends (a, b) to (a + a2, b + b2 + v a)
    g = lg.galileo_element(0.7, 0.2, -0.3)
    assert np.allclose(GALILEO.act(g.mat, [0.5, 1.0]), [0.5 + 0.2, 1.0 - 0.3 + 0.7 * 0.5], rtol=0, atol=1e-15)

    # fixes every point under the identity but does not compose
    bad = dataclasses.replace(GALILEO, act=lambda mats, points: points + mats[..., 0, -1, None] ** 2)
    with pytest.raises(GeometryError, match="composition law"):
        bad.validate(rng)


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

def test_transport_along_constant_path_is_identity():
    conn = gravity_connection(lambda t, x: 5.0)
    path = tp.SmoothPath(0.0, 1.0, lambda t: np.array([0.1, 0.2]), lambda t: np.zeros(2))
    z0 = np.array([0.3, -0.7])
    out = tp.parallel_transport(conn, path, GALILEO, z0, step=1e-2)
    assert np.max(np.abs(out - z0)) < 1e-12


def test_flat_transport_is_identity_in_trivialization():
    # the integrable connection transports (x0, y) to (x1, y)
    conn = flat_connection()
    rng = np.random.default_rng(2)
    for _ in range(5):
        path = trig_path(rng, 2)
        z0 = rng.standard_normal(2)
        out = tp.parallel_transport(conn, path, GALILEO, z0, step=1e-2)
        assert np.max(np.abs(out - z0)) < 1e-10


def test_transport_reverse_composition_returns_start():
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * x, lambda t, x: 0.1 * np.sin(t))
    rng = np.random.default_rng(3)
    for _ in range(3):
        path = trig_path(rng, 2)
        z0 = rng.standard_normal(2)
        mid = tp.parallel_transport(conn, path, GALILEO, z0, step=1e-3)
        back = tp.parallel_transport(conn, path.reverse(), GALILEO, mid, step=1e-3)
        assert np.max(np.abs(back - z0)) < 1e-7


def test_transport_concatenation_is_composition():
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * x)
    rng = np.random.default_rng(4)
    first = trig_path(rng, 2, t0=0.0, t1=1.0)
    second_raw = trig_path(rng, 2, t0=1.0, t1=2.0)
    # shift the second path to start where the first ends
    gap = first.point(1.0) - second_raw.point(1.0)
    second = tp.SmoothPath(
        1.0, 2.0, lambda t: second_raw.point(t) + gap, lambda t: second_raw.velocity(t)
    )
    z0 = rng.standard_normal(2)
    step_by_step = tp.parallel_transport(
        conn, second, GALILEO, tp.parallel_transport(conn, first, GALILEO, z0, step=1e-3), step=1e-3
    )
    joined = tp.parallel_transport(conn, tp.concat(first, second), GALILEO, z0, step=1e-3)
    assert np.max(np.abs(step_by_step - joined)) < 1e-7


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

def test_holonomy_requires_closed_loop():
    conn = flat_connection()
    path = freefall_path()
    with pytest.raises(LoopNotClosedError):
        tp.holonomy(conn, path)


def test_flat_holonomy_is_identity():
    conn = flat_connection()
    loop = tp.square_loop([0.1, 0.3], 0.7)
    hol = tp.holonomy(conn, loop, step=1e-2)
    assert np.max(np.abs(hol.mat - np.eye(3))) < 1e-8


def test_constant_gravity_holonomy_trivial():
    # integrable connection: square loop of side 0.5 gives the identity
    conn = gravity_connection(lambda t, x: 9.81)
    hol = tp.holonomy(conn, tp.square_loop([0.0, 0.0], 0.5), step=1e-3)
    assert lg.log(hol).norm() < 1e-7


def test_gradient_gravity_holonomy_matches_curvature():
    # V = 9.81 + k x: log(holonomy) of a small square of side d equals
    # -d^2 F(e_t, e_x) on the boost coefficient, with the time leg first
    k, d = 0.3, 0.1
    conn = gravity_connection(lambda t, x: 9.81 + k * x)
    hol = tp.holonomy(conn, tp.square_loop([0.0, 0.0], d), step=1e-3)
    measured = lg.algebra_coords(lg.log(hol))
    predicted_curv = pr.curvature(conn, [0.0, 0.0], [1, 0], [0, 1])
    predicted = -(d ** 2) * lg.algebra_coords(predicted_curv)
    # boost coefficient carries the curvature; relative error under 5 percent
    assert abs(measured[0] - predicted[0]) < 0.05 * abs(predicted[0])
    assert abs(measured[0] - (-k * d * d)) < 0.05 * k * d * d
    # remaining coefficients are higher order in the side length
    assert np.max(np.abs(measured[1:])) < d * abs(measured[0])


# ---------------------------------------------------------------------------
# Development of total-space paths
# ---------------------------------------------------------------------------

def test_development_of_horizontal_path_is_constant():
    conn = gravity_connection(lambda t, x: 9.81 + 0.3 * x)
    rng = np.random.default_rng(5)
    base = trig_path(rng, 2)
    z0 = rng.standard_normal(2)
    lifted = tp.horizontal_lift(conn, base, step=1e-3)
    # the development samples the fibre path at the lift's own node times
    nodes = dict(zip(lifted.ts, lifted.elements))
    zeta = lambda t: GALILEO.act(nodes[t].mat, z0)
    dev = tp.develop_total_path(conn, GALILEO, base, zeta, step=1e-3)
    assert np.max(np.abs(dev.values - dev.values[0])) < 1e-7


def test_development_over_constant_base_is_fiber_path():
    conn = gravity_connection(lambda t, x: 2.0)
    base = tp.SmoothPath(0.0, 1.0, lambda t: np.array([0.3, 0.1]), lambda t: np.zeros(2))
    zeta = lambda t: np.array([np.sin(t), np.cos(t)])
    dev = tp.develop_total_path(conn, GALILEO, base, zeta, step=1e-2)
    expected = np.array([zeta(t) for t in dev.ts])
    assert np.max(np.abs(dev.values - expected)) < 1e-12


def test_flat_development_of_section_image_reproduces_base_path():
    # image of the diagonal section over x(t) develops to t -> x(t)
    conn = flat_connection()
    rng = np.random.default_rng(6)
    base = trig_path(rng, 2)
    dev = tp.develop_total_path(conn, GALILEO, base, lambda t: base.point(t), step=1e-2)
    expected = np.array([base.point(t) for t in dev.ts])
    assert np.max(np.abs(dev.values - expected)) < 1e-10


@pr.batched
def wavy_fiber_path(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t), np.cos(3 * t)], axis=-1)


@pytest.mark.parametrize("structure", ["gravity", "flat"])
def test_development_matches_per_node_action(structure):
    # one stacked act call against act(g_i^{-1}, zeta(t_i)) node by node
    if structure == "gravity":
        cs = models.galilean_gravity(models.GravityField(
            pr.batched(lambda t, x: 9.81 + 0.7 * np.sin(x)), pr.batched(lambda t, x: 0.3 * t * x)))
        conn, spec = cs.conn, cs.spec
    else:
        conn, spec = flat_connection(), GALILEO
    base = trig_path(np.random.default_rng(9), 2)
    dev = tp.develop_total_path(conn, spec, base, wavy_fiber_path, step=1e-3)
    lifted = tp.horizontal_lift(conn, base, step=1e-3)
    expected = [spec.act(lg.inverse(g).mat, wavy_fiber_path(t)) for t, g in zip(lifted.ts, lifted.elements)]
    assert np.array_equal(dev.ts, lifted.ts)
    assert np.max(np.abs(dev.values - np.array(expected))) < 1e-14


def test_development_reads_a_batched_fiber_path_once():
    calls = []

    @pr.batched
    def zeta(t):
        calls.append(np.array(t))
        return wavy_fiber_path(t)

    base = trig_path(np.random.default_rng(10), 2)
    dev = tp.develop_total_path(gravity_connection(lambda t, x: 9.81), GALILEO, base, zeta, step=1e-3)
    assert len(calls) == 1 and np.array_equal(calls[0], dev.ts)


def test_development_rejects_a_fiber_path_of_the_wrong_shape():
    base = trig_path(np.random.default_rng(11), 2)
    conn = flat_connection()
    for zeta in (lambda t: np.zeros(3), pr.batched(lambda t: np.zeros((len(t), 3))),
                 pr.batched(lambda t: np.zeros((len(t) - 1, 2)))):
        with pytest.raises(ValueError, match="fibre path"):
            tp.develop_total_path(conn, GALILEO, base, zeta, step=1e-2)


def test_development_raises_where_the_projective_action_leaves_the_chart():
    # A = dx (E_10 - E_01) on a line: the inverse lift at x = pi/2 rotates
    # the fibre origin [1, 0, 0] onto the hyperplane at infinity
    spec = models.projective_homogeneous_spec(2)
    rotation = np.zeros((3, 3))
    rotation[1, 0], rotation[0, 1] = 1.0, -1.0
    conn = pr.LocalConnection(pr.ChartDomain.unbounded(1), spec.tag,
                              lambda x, dx: lg.AlgebraElement(spec.tag, dx[0] * rotation))
    zeta = pr.batched(lambda t: np.zeros((len(t), 2)))
    short = tp.line_segment([0.0], [1.0], 0.0, 1.0)
    assert np.all(np.isfinite(tp.develop_total_path(conn, spec, short, zeta, step=1e-2).values))
    with pytest.raises(PointAtInfinityError, match="left the affine chart"):
        tp.develop_total_path(conn, spec, tp.line_segment([0.0], [np.pi / 2], 0.0, 1.0), zeta, step=1e-2)


def test_initial_tangent_reads_only_the_uniform_leading_nodes():
    # a first leg of 1.5 steps is cut into two steps of 7.5e-4, and the
    # spacing changes at the corner: the tangent uses the three leading nodes
    cs = models.galilean_gravity(models.GravityField(lambda t, x: 9.81, lambda t, x: 0.0))
    fall = freefall_path(v0=0.3)
    split = tp.PiecewisePath([tp.SmoothPath(0.0, 0.0015, fall.x, fall.xdot),
                              tp.SmoothPath(0.0015, 1.0, fall.x, fall.xdot)])
    dev = cs.develop_base_path(split, step=1e-3)
    assert np.allclose(np.diff(dev.ts[:4]), [7.5e-4, 7.5e-4, 9.995e-4])
    assert np.max(np.abs(dev.initial_tangent - cs.soldering(fall.point(0.0), fall.velocity(0.0)))) < 1e-6
    # on uniform nodes it is the five-point formula
    whole = cs.develop_base_path(fall, step=1e-3)
    y, h = whole.values, whole.ts[1] - whole.ts[0]
    five = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    assert np.array_equal(whole.initial_tangent, five)


def cubic_fall(t0, t1):
    """The curved trajectory ``x = 5 t^3`` over [t0, t1] (batched)."""
    return tp.SmoothPath(t0, t1, pr.batched(lambda t: np.stack([t, 5 * t ** 3], -1)),
                         pr.batched(lambda t: np.stack([np.ones_like(t), 15 * t * t], -1)))


@pytest.mark.parametrize("step", [1e-3, 0.1])
def test_second_differences_read_a_curve_on_two_node_spacings(step):
    # split at 0.3705, each segment keeps its own equal steps, so the
    # development has two node spacings; it reads its one-segment value
    cs = models.galilean_gravity(models.GravityField.constant(9.81))
    whole = cs.develop_base_path(cubic_fall(0.0, 1.0), step=step)
    split = cs.develop_base_path(tp.concat(cubic_fall(0.0, 0.3705), cubic_fall(0.3705, 1.0)), step=step)
    assert len(split.ts) == len(whole.ts) + 1 and len(split.second_differences()) == len(split.ts) - 2
    assert abs(split.max_second_difference() - whole.max_second_difference()) < 0.02 * whole.max_second_difference()
    if step == 1e-3:
        assert abs(split.max_second_difference() - 20.16) < 1e-3
        # a straight development on uniform nodes still reads about 0
        assert cs.develop_base_path(freefall_path(v0=0.3), step=step).max_second_difference() < 1e-6


def test_a_two_node_development_has_no_second_differences():
    # one step of the curve x = 5 t^3: the development has two nodes, so no
    # second difference can call it straight; three nodes read it curved
    cs = models.galilean_gravity(models.GravityField.constant(9.81))
    short = cs.develop_base_path(cubic_fall(0.0, 1.0), step=1.0)
    assert len(short.ts) == 2
    for read in (short.second_differences, short.max_second_difference):
        with pytest.raises(GeometryError, match="at least three samples, the development has 2"):
            read()
    assert abs(cs.develop_base_path(cubic_fall(0.0, 1.0), step=0.5).max_second_difference() - 5.19) < 5e-3


def parabola(ts):
    return tp.DevelopedPath(ts, np.stack([3 * ts * ts - ts + 2, -0.5 * ts * ts], -1), np.zeros((len(ts), 2)))


def test_second_differences_on_uneven_nodes_are_exact_for_a_parabola():
    # the three-point formula differentiates quadratics exactly on any spacing
    uneven = parabola(np.array([0.0, 0.1, 0.25, 0.3, 0.7, 0.71]))
    assert np.allclose(uneven.second_differences(), [6.0, -1.0], rtol=0, atol=1e-10)
    # uniform spacing keeps the classical formula
    uniform = parabola(np.linspace(0.0, 1.0, 6))
    y, h = uniform.values, uniform.ts[1]
    assert np.array_equal(uniform.second_differences(), (y[2:] - 2 * y[1:-1] + y[:-2]) / h ** 2)
    assert np.allclose(uniform.second_differences(), [6.0, -1.0], rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Integrator order
# ---------------------------------------------------------------------------

def test_rk4_order_under_step_halving():
    conn = gravity_connection(lambda t, x: 9.81)
    path = perturbed_freefall_path()
    ref = tp.horizontal_lift(conn, path, step=1e-3 / 4).end.mat
    errs = []
    for step in (1e-2, 5e-3):
        end = tp.horizontal_lift(conn, path, step=step).end.mat
        errs.append(np.max(np.abs(end - ref)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_lift_error_estimate_positive_and_small():
    conn = gravity_connection(lambda t, x: 9.81)
    est = tp.lift_error_estimate(conn, perturbed_freefall_path(), step=1e-2)
    assert 0 <= est < 1e-6
