"""Probability operator measures over qubits and discrimination error rates.

A measurement is a tuple of positive semidefinite 2x2 operators summing to
the identity, element k for outcome k. Alongside generic validation this
module builds the square-root measurement of an ensemble and evaluates the
minimum achievable identification error for symmetric ensembles, both
numerically through a measurement and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble, check_domain
from .errors import DomainError, check_instance, check_integer, check_items
from .qubit import Hermitian2
from .tolerances import DEGENERATE, IDENTITY_SUM, PSD


@dataclass(frozen=True)
class Pom:
    """Probability operator measure: element k is the operator of outcome k.

    Construction checks structure only: at least one element, each a
    Hermitian2 with finite terms. validate_pom diagnoses positivity and
    completeness, so that candidates can be built and inspected first. terms
    holds the elements as Bloch terms (t[K], r[K, 3]), built with the record.
    """

    elements: tuple[Hermitian2, ...]
    terms: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = check_items(self.elements, "elements", Hermitian2)
        if not elements:
            raise DomainError("a measurement needs at least one element")
        t, r = bloch.terms(elements)
        finite = np.isfinite(t) & np.isfinite(r).all(axis=1)
        if not finite.all():
            raise DomainError(f"element {finite.argmin()} has a non-finite entry")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "terms", (t, r))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[int, ...]:
        """Outcome labels 0..K-1, in element order."""
        return tuple(range(len(self)))


@dataclass(frozen=True)
class Assignment:
    """Map from outcome k to the index of the signal state it is read as."""

    outcome_to_signal: Mapping[int, int]


def identity_sum_residual(p: Pom) -> float:
    """Largest entrywise deviation of the element sum from the identity;
    infinite, and no warning, where partial sums pass the double range."""
    check_instance(p, "pom", Pom)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(bloch.residual(*p.terms))
    return math.inf if math.isnan(residual) else residual  # NaN: infinite partial sums cancelled


def validate_pom(p: Pom) -> list[str]:
    """Collect human-readable violations; an empty list means the measure is sound."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the double range: fails
        residual, lowest = identity_sum_residual(p), bloch.lowest(*p.terms)
    violations = [f"element {k} is not positive semidefinite (minimum eigenvalue {value:.3e})"
                  for k, value in enumerate(lowest.tolist()) if value < -PSD]
    if not residual <= IDENTITY_SUM:
        violations.append(f"elements do not sum to the identity (residual {residual:.3e})")
    return violations


def square_root_measurement(e: SymmetricEnsemble) -> Pom:
    """Square-root measurement of the ensemble, one outcome per signal state.

    Each element is S^(-1/2) |psi_j><psi_j| S^(-1/2) where S is the sum of the
    signal projectors. When S is singular the inverse square root is taken on
    the support only (an eigenvalue at or below the pseudo-inverse cutoff is
    dropped), so the elements sum to the projector onto the support and
    validate_pom reports that they do not sum to the identity.
    """
    check_instance(e, "ensemble", SymmetricEnsemble)
    t, r, _ = bloch.frame_normalize(np.full(e.m, 0.5), e.vectors)
    return Pom(elements=bloch.operators(t, r))


def _signal_indices(e: SymmetricEnsemble, p: Pom, a: Assignment) -> list[int]:
    """Signal index each outcome is read as; the assignment must map exactly the
    outcomes 0..K-1, each into 0..m-1."""
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(p, "pom", Pom)
    check_instance(a, "assignment", Assignment)
    if not isinstance(a.outcome_to_signal, Mapping):
        raise DomainError("an assignment maps outcomes to signals, got a "
                          f"{type(a.outcome_to_signal).__name__}")
    for k in a.outcome_to_signal:
        check_integer(k, "assigned outcome", 0, len(p))
    read_as = []
    for k in range(len(p)):
        if k not in a.outcome_to_signal:
            raise DomainError(f"outcome {k} has no assigned signal")
        read_as.append(check_integer(a.outcome_to_signal[k], "assigned signal index", 0, e.m))
    return read_as


def error_probability(e: SymmetricEnsemble, p: Pom, a: Assignment) -> float:
    """Probability that the assigned signal differs from the transmitted one.

    Every outcome must be assigned to a signal index in range; the
    measurement is otherwise taken on trust here.
    """
    read_as = _signal_indices(e, p, a)
    correct = bloch.born(*p.terms, e.vectors)[read_as, range(len(read_as))]
    return 1.0 - e.prior * sum(correct.tolist())


def greedy_assignment(e: SymmetricEnsemble, p: Pom) -> Assignment:
    """Assign each outcome to the signal of largest joint probability.

    With equal priors that is the signal maximizing the element's expectation;
    ties, signals within the degeneracy tolerance of the best, go to the
    lowest signal index.
    """
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(p, "pom", Pom)
    probs = bloch.born(*p.terms, e.vectors)
    tied = probs >= probs.max(axis=0) - DEGENERATE
    return Assignment(outcome_to_signal=dict(enumerate(tied.argmax(axis=0).tolist())))


def min_error_analytic(m: int, theta: float) -> float:
    """Exact minimum identification error for the symmetric ensemble: 1 - (1 + sin theta)/m."""
    check_domain(m, theta)
    return 1.0 - (1.0 + math.sin(theta)) / m
