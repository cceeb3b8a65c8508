"""Shared test helpers."""

import numpy as np

from cartanconn import liegroup as lg
from cartanconn import principal as pr
from cartanconn import transport as tp


def rebuilt(record, **changes):
    """A new record of ``record``'s class from its fields, with ``changes`` in
    place of some of them; the constructor checks them again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def gravity_connection(V, W=None):
    """Gravity connection on the (t, x) chart for scalar fields V, W."""
    W = W or (lambda t, x: 0.0)
    domain = pr.ChartDomain.unbounded(2)

    def coeff(xy, d):
        t, x = xy
        return lg.galileo_algebra(-V(t, x) * d[0] - W(t, x) * d[1], d[0], d[1])

    return pr.LocalConnection(domain, lg.GALILEO2, coeff)


def trig_path(rng, dim, t0=0.0, t1=1.0, modes=3, amp=0.4):
    """Random smooth path built from a low-order trigonometric polynomial."""
    base = rng.standard_normal(dim)
    a = amp * rng.standard_normal((modes, dim)) / np.arange(1, modes + 1)[:, None]
    b = amp * rng.standard_normal((modes, dim)) / np.arange(1, modes + 1)[:, None]
    omega = 2 * np.pi / (t1 - t0)

    def x(t):
        phase = omega * (t - t0)
        ks = np.arange(1, modes + 1)
        return base + a.T @ np.sin(ks * phase) + b.T @ np.cos(ks * phase)

    def xdot(t):
        phase = omega * (t - t0)
        ks = np.arange(1, modes + 1)
        return omega * (a.T @ (ks * np.cos(ks * phase)) - b.T @ (ks * np.sin(ks * phase)))

    return tp.SmoothPath(t0, t1, x, xdot)


def freefall_path(g0=9.81, x0=0.0, v0=0.0, t0=0.0, t1=1.0):
    """Trajectory (t, x(t)) with x'' = g0 exactly."""
    return tp.SmoothPath(
        t0,
        t1,
        lambda t: np.array([t, x0 + v0 * t + 0.5 * g0 * t * t]),
        lambda t: np.array([1.0, v0 + g0 * t]),
    )


def perturbed_freefall_path(g0=9.81, amp=0.1, freq=5.0, t0=0.0, t1=1.0):
    return tp.SmoothPath(
        t0,
        t1,
        lambda t: np.array([t, 0.5 * g0 * t * t + amp * np.sin(freq * t)]),
        lambda t: np.array([1.0, g0 * t + amp * freq * np.cos(freq * t)]),
    )
