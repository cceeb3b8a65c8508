"""Numeric settings shared across the library.

All tolerances live in one record so they can be tightened or relaxed
globally; individual operations accept an optional override.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


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
    fd_step         default step of central finite differences
    path_check      derivative-consistency bound for user-supplied paths
    """

    structural: float = 1e-10
    roundtrip: float = 1e-9
    axiom: float = 1e-8
    rank: float = 1e-8
    loop_closure: float = 1e-12
    fd_step: float = 1e-5
    path_check: float = 1e-5

    def with_(self, **kwargs) -> "Tolerances":
        """Copy of the record with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
