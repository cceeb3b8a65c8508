"""Numeric gates shared across the library.

Each accept/reject threshold and difference step is a fixed module
constant, read where it is used; no call takes a tolerance argument.
"""

STRUCTURAL = 1e-10  # defining-relation residual of a group or algebra element, spec laws
ROUNDTRIP = 1e-9  # exp/log and transport round trips; group defect at lift nodes
AXIOM = 1e-8  # connection-form axiom residuals accepted by audits
RANK = 1e-8  # singular-value threshold deciding kernel/rank questions
LOOP_CLOSURE = 1e-12  # absolute coordinate gap accepted for a closed loop
PATH_CHECK = 1e-5  # derivative-consistency bound for user-supplied paths
CURVATURE_STEP = 1e-5  # curvature's central-difference step: near eps^(1/3), where h^2 error meets eps/h
