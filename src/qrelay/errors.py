"""Exception types raised by the package, and the type checks behind every count, seed, number and sequence argument."""

from __future__ import annotations

import numbers


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ValidationError(ValueError):
    """A measurement or a strategy document failed validation."""


class OptimizationError(RuntimeError):
    """The optimizer's best candidate is not a valid measurement."""


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int if it is an integer in [low, high), numpy integers included; else DomainError.

    bool is rejected although Python counts it as an integer.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value >= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


# per kind: the abstract number class, and the builtin types that pass before the slower test against it
_KINDS = {float: (numbers.Real, (float, int)), complex: (numbers.Complex, (complex, float, int))}


def check_number(value, name: str, kind: type = float) -> None:
    """DomainError unless value is a real (kind float) or complex (kind complex) number, numpy scalars included.

    bool is rejected although Python counts it as a number.
    """
    abstract, exact = _KINDS[kind]
    if type(value) not in exact and (isinstance(value, bool) or not isinstance(value, abstract)):
        raise DomainError(f"{name} must be a {abstract.__name__.lower()} number, got {value!r}")


def check_items(value, name: str, kind: type) -> tuple:
    """value as a tuple if it is an iterable of kind instances; else DomainError naming the first item that is not."""
    try:
        items = tuple(value)
    except TypeError:
        raise DomainError(f"{name} is a {type(value).__name__}, not a {kind.__name__} sequence") from None
    for k, item in enumerate(items):
        if not isinstance(item, kind):
            raise DomainError(f"{name}[{k}] is a {type(item).__name__}, not a {kind.__name__}")
    return items
