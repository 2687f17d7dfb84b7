"""Exception hierarchy shared by every layer of the package."""

from __future__ import annotations


class ConprojError(Exception):
    """Base class for all structured errors raised by this package."""


class DomainError(ConprojError):
    """A real-valued operation left its mathematical domain.

    ``path`` holds the innermost failing subexpression when the failure
    happened while evaluating a parsed expression, and ``point`` the chart
    point where it failed.  The evaluator sets both as it records each
    point's first failure; raw jet arithmetic raises with the message alone.
    """

    def __init__(self, message: str, *, path: str | None = None, point=None):
        super().__init__(message)
        self.message = message
        self.path = path
        self.point = tuple(point) if point is not None else None

    def __str__(self) -> str:
        parts = [self.message]
        if self.path is not None:
            parts.append(f"in '{self.path}'")
        if self.point is not None:
            parts.append(f"at point {self.point}")
        return " ".join(parts)


class ExpressionError(ConprojError):
    """Problem with expression source text; ``offset`` is a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    """Source text does not match the expression grammar."""


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class UnknownFunctionError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown function '{name}'", offset)
        self.name = name


class ScenarioError(ConprojError):
    """Scenario document violates the schema; ``path`` locates the offender."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class DegenerateMetric(ConprojError):
    """Metric condition number exceeds 1 / rank tolerance; ``det`` is its determinant."""

    def __init__(self, det: float, point=None, detail: str | None = None):
        self.det = float(det)
        self.point = tuple(point) if point is not None else None
        where = f" at point {self.point}" if self.point is not None else ""
        extra = f"; {detail}" if detail else ""
        super().__init__(
            f"metric is numerically degenerate{where} (det={self.det:.6e}){extra}"
        )


class NonConvergence(ConprojError):
    """Adaptive Gauss-Kronrod 7-15, with an error estimate |K15 - G7| per segment, ran out of
    segments; the message names the integral's end points, summed estimate and segments used."""


class TooFewVectors(ConprojError):
    def __init__(self, got: int, needed: int):
        super().__init__(f"need at least {needed} null vectors, got {got}")
        self.got = got
        self.needed = needed


class NonGenericConfiguration(ConprojError):
    """Null-vector set does not pin down a one-dimensional solution space."""

    def __init__(self, nullity: int):
        super().__init__(f"annihilator space has dimension {nullity}, expected 1")
        self.nullity = nullity
