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
from typing import Any, Mapping

import numpy as np

from .ensembles import SymmetricEnsemble, check_domain
from .errors import DomainError, ValidationError
from .qubit import Hermitian2, PureQubit, hermitian_eig2
from .tolerances import TOL, Tolerances


@dataclass(frozen=True)
class Pom:
    """Probability operator measure: one Hermitian element per outcome label.

    Construction checks structure only (at least one element, labels unique
    and of matching length). Positivity and completeness are diagnosed
    separately by validate_pom so that candidate measurements can be built
    and inspected before being declared sound.
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


@dataclass(frozen=True)
class Assignment:
    """Map from outcome label to the index of the signal state it is read as."""

    outcome_to_signal: Mapping[int, int]


def identity_sum_residual(p: Pom) -> float:
    """Largest entrywise deviation of the element sum from the identity; NaN if any is NaN."""
    total = Hermitian2.zero()
    for el in p.elements:
        total = total + el
    deviations = (abs(total.a - 1.0), abs(total.d - 1.0), abs(total.b))
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def validate_pom(p: Pom, tol: Tolerances = TOL) -> list[str]:
    """Collect human-readable violations; an empty list means the measure is sound."""
    violations = []
    for pos, el in enumerate(p.elements):
        low = el.eigenvalues()[1]
        if not low >= -tol.psd:
            violations.append(
                f"element {pos} (label {p.labels[pos]}) is not positive "
                f"semidefinite (minimum eigenvalue {low:.3e})")
    residual = identity_sum_residual(p)
    if not residual <= tol.identity_sum:
        violations.append(f"elements do not sum to the identity (residual {residual:.3e})")
    return violations


def square_root_measurement(e: SymmetricEnsemble, tol: Tolerances = TOL) -> Pom:
    """Square-root measurement of the ensemble, one outcome per signal state.

    Each element is S^(-1/2) |psi_j><psi_j| S^(-1/2) where S is the sum of the
    signal projectors. When S is singular the inverse square root is taken on
    the support only (eigenvalues at or below the pseudo-inverse cutoff are
    dropped) and the result is flagged with meta["rank_deficient"] = True.
    """
    frame = Hermitian2.zero()
    for s in e.states:
        frame = frame + Hermitian2.projector(s)
    (lam1, v1), (lam2, v2) = hermitian_eig2(frame, tol)
    inv_sqrt = Hermitian2.zero()
    dropped = 0
    for lam, vec in ((lam1, v1), (lam2, v2)):
        if lam > tol.pseudo_inverse:
            inv_sqrt = inv_sqrt + lam ** -0.5 * Hermitian2.projector(vec)
        else:
            dropped += 1
    mat = inv_sqrt.to_matrix()
    elements = []
    for s in e.states:
        u = mat @ s.as_array()
        elements.append(Hermitian2.outer(u[0], u[1]))
    meta: dict[str, Any] = {}
    if dropped:
        meta["rank_deficient"] = True
        meta["support_dimension"] = 2 - dropped
    return Pom(elements=tuple(elements), labels=tuple(range(e.m)), meta=meta)


def outcome_probabilities(s: PureQubit, p: Pom, tol: Tolerances = TOL) -> np.ndarray:
    """Born probabilities of every outcome of a validated measurement, in label order."""
    violations = validate_pom(p, tol)
    if violations:
        raise ValidationError("; ".join(violations))
    probs = np.array([el.expectation(s) for el in p.elements])
    if probs.min() < -tol.probability:
        raise ValidationError(
            f"outcome probability {probs.min():.3e} below the clamping window")
    return np.clip(probs, 0.0, 1.0)


def error_probability(e: SymmetricEnsemble, p: Pom, a: Assignment) -> float:
    """Probability that the assigned signal differs from the transmitted one.

    Every outcome label must be assigned to a signal index in range; the
    measurement itself is taken on trust here.
    """
    correct = 0.0
    for pos, label in enumerate(p.labels):
        if label not in a.outcome_to_signal:
            raise DomainError(f"outcome label {label} has no assigned signal")
        j = a.outcome_to_signal[label]
        if not 0 <= j < e.m:
            raise DomainError(f"assigned signal index {j} outside 0..{e.m - 1}")
        correct += e.prior * p.elements[pos].expectation(e.states[j])
    return 1.0 - correct


def greedy_assignment(e: SymmetricEnsemble, p: Pom) -> Assignment:
    """Assign each outcome to the signal of largest joint probability.

    With equal priors that is the signal maximizing the element's expectation;
    ties go to the lowest signal index.
    """
    mapping = {}
    for pos, label in enumerate(p.labels):
        scores = [p.elements[pos].expectation(s) for s in e.states]
        mapping[label] = int(np.argmax(scores))
    return Assignment(outcome_to_signal=mapping)


def min_error_analytic(m: int, theta: float) -> float:
    """Exact minimum identification error for the symmetric ensemble: 1 - (1 + sin theta)/m."""
    check_domain(m, theta)
    return 1.0 - (1.0 + math.sin(theta)) / m
