"""Connections on trivialized principal bundles and Cartan geometries.

The package is organized as a small stack:

* :mod:`cartanconn.liegroup`   matrix Lie groups and algebras
* :mod:`cartanconn.principal`  trivialized principal bundles, connection
  forms and their two defining axioms, local curvature
* :mod:`cartanconn.transport`  horizontal lifts, parallel transport,
  holonomy, development of paths
* :mod:`cartanconn.cartan`     Cartan structures: reductions, induced forms,
  soldering, development of base paths, parallelization
* :mod:`cartanconn.models`     ready-made geometries (flat homogeneous,
  affine, Galilean gravity, projective and Mobius model spaces)
* :mod:`cartanconn.maxwell`    Maxwell's equations as exterior calculus
* :mod:`cartanconn.fieldexpr`  small arithmetic expression language
* :mod:`cartanconn.acceptance` end-to-end acceptance battery
* :mod:`cartanconn.cli`        deterministic scenario runner
"""

from .liegroup import (
    GALILEO2,
    Ad,
    AlgebraElement,
    GroupElement,
    GroupKind,
    GroupTag,
    aff_tag,
    algebra_basis,
    algebra_coords,
    algebra_element,
    algebra_from_coords,
    bracket,
    compose,
    exp,
    galileo_algebra,
    galileo_element,
    galileo_tag,
    galileo_triple,
    gl_tag,
    group_element,
    identity,
    inverse,
    log,
    maurer_cartan,
    orthogonal_tag,
    pgl_tag,
    product_tag,
    so_tag,
)
from .principal import (
    ChartDomain,
    LocalConnection,
    PrincipalPoint,
    PrincipalTangent,
    batched,
    check_axioms,
    curvature,
    full_form,
    fundamental_vector,
    zero_connection,
)
from .transport import (
    DevelopedPath,
    LiftedPath,
    PiecewisePath,
    SmoothPath,
    develop_total_path,
    holonomy,
    horizontal_lift,
    lift_error_estimate,
    line_segment,
    parallel_transport,
    square_loop,
)
from .cartan import CartanReport, CartanStructure, HomogeneousSpec
from .models import (
    MODEL_BUILDERS,
    GravityField,
    affine_structure,
    build_model,
    galilean_gravity,
    galilean_gravity_3d,
    homogeneous_flat,
    kepler_acceleration,
    kepler_orbit,
)

__all__ = [
    "GALILEO2",
    "Ad",
    "AlgebraElement",
    "GroupElement",
    "GroupKind",
    "GroupTag",
    "aff_tag",
    "algebra_basis",
    "algebra_coords",
    "algebra_element",
    "algebra_from_coords",
    "bracket",
    "compose",
    "exp",
    "galileo_algebra",
    "galileo_element",
    "galileo_tag",
    "galileo_triple",
    "gl_tag",
    "group_element",
    "identity",
    "inverse",
    "log",
    "maurer_cartan",
    "orthogonal_tag",
    "pgl_tag",
    "product_tag",
    "so_tag",
    "ChartDomain",
    "LocalConnection",
    "PrincipalPoint",
    "PrincipalTangent",
    "batched",
    "check_axioms",
    "curvature",
    "full_form",
    "fundamental_vector",
    "zero_connection",
    "DevelopedPath",
    "LiftedPath",
    "PiecewisePath",
    "SmoothPath",
    "develop_total_path",
    "holonomy",
    "horizontal_lift",
    "lift_error_estimate",
    "line_segment",
    "parallel_transport",
    "square_loop",
    "CartanReport",
    "CartanStructure",
    "HomogeneousSpec",
    "MODEL_BUILDERS",
    "GravityField",
    "affine_structure",
    "build_model",
    "galilean_gravity",
    "galilean_gravity_3d",
    "homogeneous_flat",
    "kepler_acceleration",
    "kepler_orbit",
]

__version__ = "0.1.0"
