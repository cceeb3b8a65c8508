"""The Mobius space: the homogeneous model of conformal geometry.

Points are null rays of the quadratic form x1^2 + ... + x_{n+1}^2 - x0^2.
The unit sphere embeds on the slice x0 = 1 and the flat plane through
((1 + |z|^2)/2, z, (1 - |z|^2)/2); the plane chart z_i = x_i / (x0 + x_{n+1})
of the sphere rays is stereographic projection. The Mobius group acts on
the plane chart through one stacked action, rotations act equivariantly,
and one ray (x0 + x_{n+1} = 0) plays the point at infinity of the chart.
"""

import numpy as np

from cartanconn.errors import PointAtInfinityError
from cartanconn.models import _plane_chart, _plane_rays, mobius_homogeneous_spec, mobius_rotation

spec = mobius_homogeneous_spec(2)

z = np.array([1.2, -0.7])
ray = _plane_rays(z)
ray = ray / np.max(np.abs(ray))
print(f"plane point {z} embeds as the ray {ray}")
print(f"  Q(ray) = {np.sum(ray[1:] ** 2) - ray[0] ** 2:.2e}")
print(f"  chart roundtrip: {spec.act(np.eye(4), z)}")

y = np.array([0.6, 0.0, 0.8])
sphere_ray = np.concatenate([[1.0], y])
print(f"sphere point {y} embeds as {sphere_ray}")
print(f"  its plane chart (stereographic from the south pole): {_plane_chart(sphere_ray, 'south pole')}")
print(f"  direct formula y'/(1 + y_last): {y[:2] / (1 + y[2])}")

theta = 0.7
rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
zs = np.stack([z, 0.5 * z, [0.0, 2.0]])
gap = np.max(np.abs(spec.act(mobius_rotation(rot).mat, zs) - zs @ rot.T))
print(f"rotation equivariance gap on {len(zs)} points: {gap:.2e}")

try:
    # the reflection x3 -> -x3 carries the origin to the excluded ray
    spec.act(np.diag([1.0, 1.0, 1.0, -1.0]), spec.origin)
except PointAtInfinityError as exc:
    print(f"the excluded ray: {exc}")

print(f"group {spec.tag.name}: dim algebra = {len(spec.stabilizer_basis) + spec.fiber_dim}, "
      f"stabilizer dim = {len(spec.stabilizer_basis)}, fibre dim = {spec.fiber_dim}")
print(f"projection T_e G -> T_o F on algebra coordinates (derived from act):\n{spec.fiber_map}")
