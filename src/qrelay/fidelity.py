"""Average retransmission fidelity of measure-and-retransmit strategies.

A strategy measures the incoming signal with a probability operator measure
and, on outcome k, retransmits a fixed state phi_k. The figure of merit is
the ensemble-averaged overlap between what was sent and what is retransmitted,

    F = sum_j p_j sum_k <psi_j|pi_k|psi_j> |<psi_j|phi_k>|^2.

For a fixed measurement the best retransmission states are computed exactly:
outcome k contributes at most the top eigenvalue of its score operator

    O_k = sum_j p_j <psi_j|pi_k|psi_j> |psi_j><psi_j| = s0_k I + s_k.sigma,

attained by retransmitting the state whose Bloch vector points along the
score vector s_k, and |+> (+z) when s_k is zero. The module also carries
the closed-form optimum over all strategies and the measurement family
achieving it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble, check_domain
from .errors import DomainError, check_instance, check_integer, check_items
from .measurements import Pom
from .qubit import Hermitian2, PureQubit, make_qubit, state_along


@dataclass(frozen=True)
class Strategy:
    """A measurement together with one retransmission state per outcome.

    vectors holds the retransmission states' Bloch vectors v[K, 3], built
    with the record.
    """

    pom: Pom
    retransmit: tuple[PureQubit, ...]
    vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_instance(self.pom, "pom", Pom)
        retransmit = check_items(self.retransmit, "retransmit", PureQubit)
        if len(retransmit) != len(self.pom.elements):
            raise DomainError(
                f"{len(retransmit)} retransmission states for "
                f"{len(self.pom.elements)} outcomes")
        object.__setattr__(self, "retransmit", retransmit)
        object.__setattr__(self, "vectors", bloch.vectors(retransmit))


@dataclass(frozen=True)
class FidelityReport:
    """Best achievable fidelity for a fixed measurement.

    states holds, in outcome order, the retransmission state attaining each
    outcome's fidelity contribution, the top eigenvalue of its score operator.
    """

    fidelity: float
    states: tuple[PureQubit, ...]


def _retransmission(e: SymmetricEnsemble, t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's best fidelity contribution, its score operator's top eigenvalue s0 + |s|,
    and the Bloch vector attaining it, bloch.unit(s) (+z for a zero s); batch axes allowed.

    The score terms are ensemble averages of t + r.n and (t + r.n) n, so they come from
    the moments (mu, M) alone: s0 = (t + r.mu) / 2 and s = (t mu + M r) / 2.
    """
    mu, M = e.moments
    s = t[..., None] * mu + r @ M
    norm = np.sqrt(np.einsum("...c,...c->...", s, s))
    return 0.5 * (t + r @ mu + norm), bloch.unit(s, norm)


def _overlaps(e: SymmetricEnsemble, s: Strategy) -> np.ndarray:
    """|<psi_j|phi_k>|^2[j, k], the Born probability of the projector (I + n(phi_k).sigma)/2."""
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(s, "strategy", Strategy)
    return bloch.born(np.full(len(s.retransmit), 0.5), 0.5 * s.vectors, e.vectors)


def fidelity_of_strategy(e: SymmetricEnsemble, s: Strategy) -> float:
    """Average fidelity of the strategy on the ensemble, by the exact double sum."""
    joint = _overlaps(e, s)
    joint *= bloch.born(*s.pom.terms, e.vectors)
    return e.prior * float(joint.sum())


def optimal_retransmission(e: SymmetricEnsemble, p: Pom) -> FidelityReport:
    """Exact best fidelity over retransmission states for a fixed measurement.

    Independent of how the measurement was obtained: each outcome's score
    operator s0 I + s.sigma has top eigenvalue s0 + |s|, and the state to
    send points along the score vector s, or is |+> (+z) when s is zero.
    """
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(p, "pom", Pom)
    values, v = _retransmission(e, *p.terms)
    return FidelityReport(fidelity=float(values.sum()),
                          states=tuple(state_along(*n) for n in v.tolist()))


def max_fidelity_analytic(m: int, theta: float) -> float:
    """Exact maximum fidelity over all strategies.

    1 - sin(theta)^2 / 4 for m > 2; for m = 2 the two-signal optimum
    (1 + sqrt(cos(theta)^2 + sin(theta)^4)) / 2.
    """
    check_domain(m, theta)
    st = math.sin(theta)
    if m == 2:
        return 0.5 * (1.0 + math.sqrt(math.cos(theta) ** 2 + st ** 4))
    return 1.0 - 0.25 * st * st


def retransmission_colatitude(m: int, theta: float) -> float:
    """Common colatitude of the optimal retransmission states.

    cos(chi) = 2 cos(theta) / (1 + cos(theta)^2) for m > 2, and
    cos(chi) = cos(theta) / sqrt(cos(theta)^2 + sin(theta)^4) for m = 2.
    The optimum always retransmits closer to the pole than the signals sit.
    """
    check_domain(m, theta)
    ct = math.cos(theta)
    if m == 2:
        arg = ct / math.sqrt(ct * ct + math.sin(theta) ** 4)
    else:
        arg = 2.0 * ct / (1.0 + ct * ct)
    return math.acos(min(max(arg, -1.0), 1.0))


def optimal_strategy_analytic(m: int, theta: float,
                              n_outputs: int | None = None,
                              alpha: float = 0.0) -> Strategy:
    """A strategy attaining the exact maximum fidelity.

    For m > 2 the optimum is a family: n_outputs >= 2 equal-weight elements
    (1/n)[[1, exp(-i phi_l)], [exp(i phi_l), 1]] at longitudes
    phi_l = alpha + 2*pi*l/n, each retransmitting the state at that longitude
    and colatitude retransmission_colatitude(m, theta). n_outputs defaults to
    m and any phase offset alpha is allowed.

    For m = 2 the optimum is unique up to outcome order, so n_outputs and
    alpha are checked as for m > 2 and then ignored: the two orthogonal
    projectors onto (|+> +/- |->)/sqrt(2), retransmitting at longitudes 0 and pi.
    """
    check_domain(m, theta)
    n = check_integer(m if n_outputs is None else n_outputs, "n_outputs", 2)
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not math.isfinite(alpha):
        raise DomainError(f"alpha must be a finite real number, got {alpha!r}")
    colat = retransmission_colatitude(m, theta)
    if m == 2:
        elements = (Hermitian2(0.5, 0.5, 0.5 + 0.0j), Hermitian2(0.5, 0.5, -0.5 + 0.0j))
        retransmit = (make_qubit(colat, 0.0), make_qubit(colat, math.pi))
        return Strategy(pom=Pom(elements=elements), retransmit=retransmit)
    alpha = math.fmod(alpha, 2.0 * math.pi)  # exact, so a large offset keeps the spacing
    elements = []
    retransmit = []
    for l in range(n):
        phi = alpha + 2.0 * math.pi * l / n
        elements.append(Hermitian2(1.0 / n, 1.0 / n, complex(math.cos(phi), -math.sin(phi)) / n))
        retransmit.append(make_qubit(colat, phi))
    return Strategy(pom=Pom(elements=tuple(elements)), retransmit=tuple(retransmit))
