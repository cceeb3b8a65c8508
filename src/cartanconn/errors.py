"""Exception hierarchy for the library."""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class TagMismatchError(GeometryError):
    """Two elements with different group tags were combined."""


class InvalidElementError(GeometryError):
    """A matrix does not satisfy the defining relations of its tag."""


class NoPrincipalLogarithmError(GeometryError):
    """The element lies outside the domain of the principal logarithm."""


class DomainError(GeometryError):
    """A base point lies outside the chart domain (or too close to its edge)."""


class LiftDivergedError(GeometryError):
    """Horizontal lift produced a non-finite node or left the group manifold."""


class LoopNotClosedError(GeometryError):
    """Holonomy was requested for a path whose endpoints do not coincide."""


class PointAtInfinityError(GeometryError):
    """A point left the coordinate chart of the fibre (e.g. the excluded ray
    of the stereographic chart)."""


class SingularFieldError(GeometryError):
    """A field was evaluated inside its excluded singular set."""


class ExprSyntaxError(GeometryError):
    """Expression parsing failed; ``position`` is the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprEvalError(GeometryError):
    """Expression evaluation failed (unbound variable or domain error)."""


class ConfigError(GeometryError):
    """A scenario configuration violates the schema."""
