"""Numerical tolerances shared across the package.

All absolute thresholds live in one frozen record so that every module
draws the same line between "zero" and "signal". The defaults assume
operators of order unity (states, measurement elements, frame operators),
which is the only regime this package works in.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-9
    """Largest allowed deviation of a state's squared norm from 1 at construction."""

    negligible: float = 1e-12
    """Amplitude magnitude treated as exactly zero by the phase convention, and largest
    entrywise gap at which the search merges two unit Bloch vectors as one."""

    psd: float = 1e-12
    """An eigenvalue >= -psd still counts as positive semidefinite."""

    identity_sum: float = 1e-9
    """Entrywise slack when measurement elements must sum to the identity."""

    degenerate: float = 1e-12
    """Eigenvalue gap below which a 2x2 spectrum is treated as a tie."""

    pseudo_inverse: float = 1e-10
    """Frame-operator eigenvalues at or below this are dropped when inverting."""

    probability: float = 1e-12
    """Born probabilities may undershoot zero by this much before clamping."""


TOL = Tolerances()
