"""Exception types shared across the package, and `require_positive`, the
one check that a dilation, radius, width or ratio is positive and finite."""

from __future__ import annotations

import math


class CircletError(Exception):
    """Base class for all package-specific failures."""


class AliasingError(CircletError):
    """Signal carries too much energy in the unresolved top of its spectrum."""


class DecayError(CircletError):
    """Signal does not decay toward the chart boundary as the operation requires."""


class SupportEscapeError(CircletError):
    """A transformed support would leave the half-circle chart or the window."""


class GridMismatchError(CircletError):
    """Two objects that must share a grid do not."""


class FormatError(CircletError):
    """A signal/report file is malformed.

    ``line`` is the 1-based offending CSV line when known, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def require_positive(name: str, value: float) -> None:
    """Raise ValueError "<name> must be positive and finite, got <value>" unless 0 < value < inf."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
