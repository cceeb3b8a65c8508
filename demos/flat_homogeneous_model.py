"""The flat structure over a homogeneous space.

Base and fibre are the same homogeneous space; the connection has zero
local coefficients. Parallel transport is the identity in the
trivialization, developments reproduce the base path inside a single
fibre, and the form induced on the reduction is the left-invariant
(Maurer-Cartan) pairing of the group.
"""

import numpy as np

from cartanconn import parallel_transport
from cartanconn.models import galileo_homogeneous_spec, homogeneous_flat

structure = homogeneous_flat(galileo_homogeneous_spec(2))

path_coeff = np.array([[0.4, -0.2], [0.1, 0.5]])


def x(t):
    return path_coeff[0] * np.sin(2 * np.pi * t) + path_coeff[1] * (1 - np.cos(2 * np.pi * t))


def xdot(t):
    return 2 * np.pi * (path_coeff[0] * np.cos(2 * np.pi * t) + path_coeff[1] * np.sin(2 * np.pi * t))


from cartanconn import SmoothPath

path = SmoothPath(0.0, 0.75, x, xdot)

z0 = np.array([0.3, -0.8])
z1 = parallel_transport(structure.conn, path, structure.spec, z0, step=1e-2)
print(f"transport of the fibre point {z0} along a wandering path: {z1}")
print(f"  (identity in the trivialization: gap {np.max(np.abs(z1 - z0)):.2e})")

dev = structure.develop_base_path(path, step=1e-2)
gap = np.max(np.abs(dev.values - np.array([path.point(t) for t in dev.ts])))
print(f"development of the path in the fibre over x(0): reproduces the path, gap {gap:.2e}")
print(f"  classification: {structure.is_cartan(samples=10).kind}")
