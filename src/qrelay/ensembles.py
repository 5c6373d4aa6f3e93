"""Symmetric ensembles of equiprobable qubit states on a common latitude circle.

The m states share the colatitude theta and sit at equally spaced longitudes
2*pi*j/m for j = 0..m-1, so each state is obtained from the previous one by
advancing the |-> amplitude's phase by 2*pi/m. At theta = 0 all states
coincide with |+>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, check_integer, check_number
from .qubit import PureQubit, make_qubit


@dataclass(frozen=True)
class SymmetricEnsemble:
    """The ensemble of m equiprobable states at colatitude theta.

    prior, states and their Bloch vectors n[m, 3] are derived from (m, theta)
    on first use, so an ensemble that is only described costs nothing per state.
    """

    m: int
    theta: float

    def __post_init__(self) -> None:
        check_domain(self.m, self.theta)
        object.__setattr__(self, "m", int(self.m))

    @cached_property
    def prior(self) -> float:
        return 1.0 / self.m

    @cached_property
    def states(self) -> tuple[PureQubit, ...]:
        return tuple(make_qubit(self.theta, 2.0 * math.pi * j / self.m) for j in range(self.m))

    @cached_property
    def vectors(self) -> np.ndarray:
        """Closed form (sin theta cos phi_j, sin theta sin phi_j, cos theta), phi_j = 2 pi j/m."""
        phi = 2.0 * np.pi * np.arange(self.m) / self.m
        st = math.sin(self.theta)
        return np.stack((st * np.cos(phi), st * np.sin(phi), np.full(self.m, math.cos(self.theta))),
                        axis=1)


def check_domain(m: int, theta: float) -> None:
    check_integer(m, "ensemble size", 2)
    check_number(theta, "theta")
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError(f"theta {theta!r} outside [0, pi/2]")


def symmetric_ensemble(m: int, theta: float) -> SymmetricEnsemble:
    """Ensemble of m equiprobable states at colatitude theta, longitudes 2*pi*j/m."""
    return SymmetricEnsemble(m=m, theta=theta)
