"""Exception types raised by the package, and the integer check behind every count and seed."""

from __future__ import annotations

import numbers


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ValidationError(ValueError):
    """A measurement or a strategy document failed validation."""


class OptimizationError(RuntimeError):
    """No optimizer restart produced a feasible candidate."""


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int if it is an integer in [low, high), numpy integers included; else DomainError.

    bool is rejected although Python counts it as an integer.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value >= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)
