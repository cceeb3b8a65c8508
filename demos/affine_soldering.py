"""Affine structures: a linear connection plus an endomorphism field.

A connection on the bundle of affine frames decomposes into a linear
connection (the linear block) and a translation-valued part that is
equivalent to an endomorphism field of the tangent bundle. The structure
is Cartan exactly when that endomorphism is invertible, and the soldering
map recovers it. The classical affine case is the identity endomorphism.
"""

import numpy as np

from cartanconn import affine_structure

# soldering_matrix takes a stack of base points and returns one matrix per point
points = np.array([[0.3, -0.4], [1.0, 2.0]])

identity_case = affine_structure(2)
print("sigma0 = identity:", identity_case.is_cartan(samples=10).kind)
for x, matrix in zip(points, identity_case.soldering_matrix(points)):
    print(f"  soldering matrix at {x.tolist()}:")
    print(" ", str(matrix).replace("\n", "\n  "))

sigma = np.array([[2.0, 0.5], [-0.3, 1.5]])
twisted = affine_structure(2, sigma0=sigma)
print("sigma0 =", sigma.tolist(), "->", twisted.is_cartan(samples=10).kind)
for x, matrix in zip(points, twisted.soldering_matrix(points)):
    print(f"  recovered by the soldering map at {x.tolist()}:")
    print(" ", str(matrix).replace("\n", "\n  "))

degenerate = affine_structure(2, sigma0=np.zeros((2, 2)))
report = degenerate.is_cartan(samples=10)
print(f"sigma0 = 0 -> {report.kind} (induced form has a kernel, "
      f"smallest singular value {report.min_singular_value:.1e})")

# with zero linear connection and identity endomorphism, developments of
# straight segments are the segments themselves, moved to the start fibre
from cartanconn import line_segment

seg = line_segment([0.5, 1.0], [1.5, 0.0], 0.0, 1.0)
dev = identity_case.develop_base_path(seg, step=1e-2)
print("development of a straight segment starts at", dev.values[0], "and ends at", dev.values[-1])
print("  (the segment translated to the tangent space at its start)")
