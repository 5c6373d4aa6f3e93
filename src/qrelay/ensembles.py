"""Symmetric ensembles of equiprobable qubit states on a common latitude circle.

The m states share the colatitude theta and sit at equally spaced longitudes
2*pi*j/m for j = 0..m-1, so each state is obtained from the previous one by
advancing the |-> amplitude's phase by 2*pi/m. At theta = 0 all states
coincide with |+>.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bloch
from .errors import DomainError
from .qubit import PureQubit, make_qubit


@dataclass(frozen=True)
class SymmetricEnsemble:
    """Equiprobable signal states; vectors holds their Bloch vectors n[m, 3]."""

    m: int
    theta: float
    states: tuple[PureQubit, ...]
    prior: float

    @cached_property
    def vectors(self) -> np.ndarray:
        return bloch.vectors(self.states)


def check_domain(m: int, theta: float) -> None:
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 2:
        raise DomainError(f"ensemble size must be an integer >= 2, got {m!r}")
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError(f"theta {theta!r} outside [0, pi/2]")


def symmetric_ensemble(m: int, theta: float) -> SymmetricEnsemble:
    """Ensemble of m equiprobable states at colatitude theta, longitudes 2*pi*j/m."""
    check_domain(m, theta)
    m = int(m)
    states = tuple(make_qubit(theta, 2.0 * math.pi * j / m) for j in range(m))
    return SymmetricEnsemble(m=m, theta=theta, states=states, prior=1.0 / m)


def apply_generator(s: PureQubit, m: int) -> PureQubit:
    """Advance the |-> amplitude's phase by 2*pi/m, the ensemble's generating rotation.

    Applying it m times returns to the start; on |+> and |-> it acts as the
    identity once the phase convention is restored.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 2:
        raise DomainError(f"generator order must be an integer >= 2, got {m!r}")
    return PureQubit(s.amp_plus, s.amp_minus * cmath.exp(2j * math.pi / m))
