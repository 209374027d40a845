"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "StaralgError",
    "PreconditionError",
    "NotComparableError",
    "UnsolvableError",
    "NumericError",
    "MatrixFormatError",
]


class StaralgError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(StaralgError):
    """An operation was called with inputs violating its contract."""


class NotComparableError(PreconditionError):
    """Two matrices are not related by the star order.

    Carries the two defining residuals (AA* vs BA*, A*A vs A*B) so callers
    can report how badly the order fails.
    """

    def __init__(self, message: str, residuals: tuple[float, float]):
        super().__init__(message)
        self.residuals = residuals


class UnsolvableError(StaralgError):
    """An equation or system has no solution; carries the criterion residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NumericError(StaralgError):
    """A numerical routine (e.g. SVD) failed, or a product left the double range."""


class MatrixFormatError(StaralgError):
    """A matrix file or stream does not conform to the text format."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column
