"""Exception types raised by the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ValidationError(ValueError):
    """A measurement or a strategy document failed validation."""


class RepairError(RuntimeError):
    """The frame is singular; the candidate should be discarded."""


class OptimizationError(RuntimeError):
    """No optimizer restart produced a feasible candidate."""
