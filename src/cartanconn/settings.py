"""Numeric settings shared across the library.

All tolerances live in one record. Defaults bind when each function is
defined, so rebinding ``DEFAULT_TOLERANCES`` changes nothing; to tighten or
relax a tolerance, pass a ``Tolerances`` record to the call (``tol=``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by validation, integration and rank tests.

    structural      defining-relation residual accepted when an element of a
                    matrix group (or its algebra) is constructed
    roundtrip       exp/log and transport round-trip agreement, and the group
                    defect accepted at the nodes of a horizontal lift
    axiom           connection-form axiom residuals accepted by audits
    rank            singular-value threshold deciding kernel/rank questions
    loop_closure    absolute coordinate gap accepted for a closed loop
    path_check      derivative-consistency bound for user-supplied paths
    """

    structural: float = 1e-10
    roundtrip: float = 1e-9
    axiom: float = 1e-8
    rank: float = 1e-8
    loop_closure: float = 1e-12
    path_check: float = 1e-5


DEFAULT_TOLERANCES = Tolerances()
