"""Probability operator measures over qubits and discrimination error rates.

A measurement is a tuple of positive semidefinite 2x2 operators summing to
the identity, one per outcome label. Alongside generic validation and Born
probabilities this module builds the square-root measurement of an ensemble
and evaluates the minimum achievable identification error for symmetric
ensembles, both numerically through a measurement and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble, check_domain
from .errors import DomainError, ValidationError
from .qubit import Hermitian2, PureQubit
from .tolerances import TOL, Tolerances


@dataclass(frozen=True)
class Pom:
    """Probability operator measure: one Hermitian element per outcome label.

    Construction checks structure only (at least one element, labels unique
    and of matching length). Positivity and completeness are diagnosed
    separately by validate_pom so that candidate measurements can be built
    and inspected before being declared sound. terms holds the elements as
    Bloch terms (t[K], r[K, 3]), built once on first use.
    """

    elements: tuple[Hermitian2, ...]
    labels: tuple[int, ...] = ()
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        labels = tuple(self.labels) if self.labels else tuple(range(len(elements)))
        if not elements:
            raise DomainError("a measurement needs at least one element")
        if len(labels) != len(elements):
            raise DomainError(f"{len(labels)} labels for {len(elements)} elements")
        if len(set(labels)) != len(labels):
            raise DomainError("outcome labels must be unique")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        return bloch.terms(self.elements)


@dataclass(frozen=True)
class Assignment:
    """Map from outcome label to the index of the signal state it is read as."""

    outcome_to_signal: Mapping[int, int]


def identity_sum_residual(p: Pom) -> float:
    """Largest entrywise deviation of the element sum from the identity; NaN if an entry is not finite."""
    total, polar, azimuthal = bloch.completeness(*p.terms)
    return float(max(total + polar, azimuthal))


def validate_pom(p: Pom, tol: Tolerances = TOL) -> list[str]:
    """Collect human-readable violations; an empty list means the measure is sound."""
    t, r = p.terms
    low = bloch.lowest(t, r)
    violations = []
    for pos, value in enumerate(low.tolist()):
        if not value >= -tol.psd:
            what = ("has a non-finite entry" if math.isnan(value) else
                    f"is not positive semidefinite (minimum eigenvalue {value:.3e})")
            violations.append(f"element {pos} (label {p.labels[pos]}) {what}")
    residual = identity_sum_residual(p)
    if not residual <= tol.identity_sum:
        violations.append(f"elements do not sum to the identity (residual {residual:.3e})")
    return violations


def square_root_measurement(e: SymmetricEnsemble, tol: Tolerances = TOL) -> Pom:
    """Square-root measurement of the ensemble, one outcome per signal state.

    Each element is S^(-1/2) |psi_j><psi_j| S^(-1/2) where S is the sum of the
    signal projectors. When S is singular the inverse square root is taken on
    the support only (an eigenvalue at or below the pseudo-inverse cutoff is
    dropped) and the result is flagged with meta["rank_deficient"] = True.
    """
    t, r, lam_minus = bloch.frame_normalize(np.full(e.m, 0.5), e.vectors, tol)
    meta: dict[str, Any] = {}
    if lam_minus <= tol.pseudo_inverse:
        # S has trace m, so its larger eigenvalue is at least m/2 and stays
        meta["rank_deficient"] = True
        meta["support_dimension"] = 1
    return Pom(elements=bloch.operators(t, r), labels=tuple(range(e.m)), meta=meta)


def _probabilities(p: Pom, n: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Born probabilities P[j, k] of a validated measurement on the states with vectors n."""
    violations = validate_pom(p, tol)
    if violations:
        raise ValidationError("; ".join(violations))
    probs = bloch.born(*p.terms, n)
    if probs.min() < -tol.probability:
        raise ValidationError(
            f"outcome probability {probs.min():.3e} below the clamping window")
    return np.clip(probs, 0.0, 1.0)


def outcome_probabilities(s: PureQubit, p: Pom, tol: Tolerances = TOL) -> np.ndarray:
    """Born probabilities of every outcome of a validated measurement, in label order."""
    return _probabilities(p, bloch.vectors((s,)), tol)[0]


def _signal_indices(p: Pom, a: Assignment, m: int) -> list[int]:
    """Signal index each outcome is read as, in label order; every label must map into 0..m-1."""
    read_as = []
    for label in p.labels:
        if label not in a.outcome_to_signal:
            raise DomainError(f"outcome label {label} has no assigned signal")
        j = a.outcome_to_signal[label]
        if not 0 <= j < m:
            raise DomainError(f"assigned signal index {j} outside 0..{m - 1}")
        read_as.append(j)
    return read_as


def error_probability(e: SymmetricEnsemble, p: Pom, a: Assignment) -> float:
    """Probability that the assigned signal differs from the transmitted one.

    Every outcome label must be assigned to a signal index in range; the
    measurement itself is taken on trust here.
    """
    probs = bloch.born(*p.terms, e.vectors).tolist()
    return 1.0 - e.prior * sum(probs[j][k] for k, j in enumerate(_signal_indices(p, a, e.m)))


def greedy_assignment(e: SymmetricEnsemble, p: Pom) -> Assignment:
    """Assign each outcome to the signal of largest joint probability.

    With equal priors that is the signal maximizing the element's expectation;
    ties go to the lowest signal index.
    """
    best = bloch.born(*p.terms, e.vectors).argmax(axis=0).tolist()
    return Assignment(outcome_to_signal=dict(zip(p.labels, best)))


def min_error_analytic(m: int, theta: float) -> float:
    """Exact minimum identification error for the symmetric ensemble: 1 - (1 + sin theta)/m."""
    check_domain(m, theta)
    return 1.0 - (1.0 + math.sin(theta)) / m
