"""Derivative-free search over rank-one measurements, as an independent check
on the closed-form optima.

Candidate measurements are parameterized by weights and Bloch directions:
element k is w_k [[1 + cos th_k, exp(-i ph_k) sin th_k],
                  [exp(i ph_k) sin th_k, 1 - cos th_k]],
positive semidefinite by construction. Completeness reduces to three real
constraints: the weights sum to 1 and the weighted direction vectors cancel.

Every random start and every proposal is made feasible in one closed-form
step, the square-root (frame) normalization E_k -> S^(-1/2) E_k S^(-1/2)
with S the sum of the elements, which keeps each element rank one and makes
the set exactly complete. Only normalized candidates are scored; a candidate
whose frame is singular, or whose residual exceeds the feasibility tolerance,
is discarded.

The local search is a multi-start random walk with a decaying step; all
restarts advance in lockstep as rows of one batch so the inner loop stays in
vectorized numpy. Moves are accepted on strict objective improvement; on
near-ties the tighter weight concentration (larger sum of squared weights)
wins, which deduplicates elements pointing the same way without ever trading
away objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble
from .errors import DomainError, OptimizationError, RepairError
from .fidelity import FidelityReport, Strategy, fidelity_of_strategy, optimal_retransmission
from .measurements import Assignment, Pom, error_probability, greedy_assignment
from .tolerances import TOL, Tolerances

STEP_DECAY = 0.995
SPOT_EVERY = 100
STALL_LIMIT = 400
STALL_FLOOR = 600
RESTART_TIE = 1e-7


@dataclass(frozen=True, eq=False)
class ParamPom:
    """Rank-one measurement candidate: one (weight, colatitude, longitude) per element.

    Arrays are copied in and frozen. Feasible candidates satisfy
    sum(w) = 1, sum(w cos th) = 0 and sum(w exp(i ph) sin th) = 0, which is
    exactly completeness of the elements this parameterization generates.
    """

    weights: np.ndarray
    colatitudes: np.ndarray
    longitudes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("weights", "colatitudes", "longitudes"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DomainError(f"{name} must be one-dimensional")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.weights.size == self.colatitudes.size == self.longitudes.size):
            raise DomainError("weights, colatitudes and longitudes must have equal length")
        if self.weights.size == 0:
            raise DomainError("a candidate needs at least one element")

    @property
    def n(self) -> int:
        return self.weights.size


def _directions(TH: np.ndarray, PH: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors [..., 3] at the given angles, stored components first as the kernel likes."""
    st = np.sin(TH)
    n = np.array([st * np.cos(PH), st * np.sin(PH), np.cos(TH)])
    return n.transpose(*range(1, n.ndim), 0)


def _terms(W: np.ndarray, TH: np.ndarray, PH: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return W, W[..., None] * _directions(TH, PH)


def constraint_residuals(p: ParamPom) -> tuple[float, float, float]:
    """Residuals of (weight normalization, polar balance, azimuthal balance)."""
    return tuple(map(float, bloch.completeness(*_terms(p.weights, p.colatitudes, p.longitudes))))


def is_feasible(p: ParamPom, tol: Tolerances = TOL) -> bool:
    return max(constraint_residuals(p)) <= tol.feasibility


def to_pom(p: ParamPom, tol: Tolerances = TOL) -> Pom:
    """Realize a feasible candidate as a measurement, labels 0..n-1."""
    if not is_feasible(p, tol):
        raise DomainError(
            "candidate violates the completeness constraints "
            f"(residuals {constraint_residuals(p)})")
    if float(p.weights.min()) < -tol.psd:
        raise DomainError(f"negative weight {float(p.weights.min())!r}")
    elements = bloch.operators(*_terms(np.clip(p.weights, 0.0, None), p.colatitudes, p.longitudes))
    return Pom(elements=elements, labels=tuple(range(p.n)))


def _frame_map(W: np.ndarray, TH: np.ndarray, PH: np.ndarray, tol: Tolerances = TOL):
    """Square-root normalization of candidates, one per row (bloch.frame_normalize).

    Weights are clipped at zero first. Returns (W, TH, PH, residual) with
    colatitudes in [0, pi] and longitudes in [0, 2 pi); rows whose frame is
    singular get an infinite residual.
    """
    W, d, lam_minus = bloch.frame_normalize(np.maximum(W, 0.0), _directions(TH, PH), tol)
    TH = np.arctan2(np.hypot(d[..., 0], d[..., 1]), d[..., 2])
    PH = np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * math.pi)
    resid = np.maximum.reduce(bloch.completeness(W, d))
    return W, TH, PH, np.where(lam_minus > tol.pseudo_inverse, resid, np.inf)


def repair(p: ParamPom, tol: Tolerances = TOL) -> ParamPom:
    """Frame-normalized candidate; a feasible input comes back unchanged."""
    if is_feasible(p, tol):
        return p
    W, TH, PH, resid = _frame_map(p.weights[None], p.colatitudes[None], p.longitudes[None], tol)
    if not resid[0] <= tol.feasibility:
        raise RepairError("the frame is singular; discard the candidate")
    return ParamPom(W[0], TH[0], PH[0])


@dataclass(frozen=True)
class OptimizerConfig:
    n_elements: int = 4
    restarts: int = 16
    max_iterations: int = 2000
    step_scale: float = 0.3
    seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_elements < 2:
            raise DomainError(f"need at least 2 elements, got {self.n_elements}")
        if self.restarts < 1 or self.max_iterations < 1:
            raise DomainError("restarts and max_iterations must be >= 1")
        if self.step_scale <= 0.0 or self.tolerance <= 0.0:
            raise DomainError("step_scale and tolerance must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class SpotCheck:
    """Current candidate sampled mid-search so audits can replay the objective."""

    restart: int
    iteration: int
    params: ParamPom
    value: float


@dataclass(frozen=True)
class RestartRecord:
    restart: int
    start_value: float
    final_value: float
    iterations: int
    accepted: int


@dataclass(frozen=True)
class SearchTrace:
    """What the search did, for reproducibility audits.

    Recorded values are always the maximized objective: the fidelity itself,
    or the correct-decision probability (1 - error) for the error search.
    """

    objective: str
    records: tuple[RestartRecord, ...]
    spot_checks: tuple[SpotCheck, ...]
    failed_restarts: tuple[int, ...]
    best_restart: int
    best_params: ParamPom
    evaluations: int


def _fidelity_objective(e: SymmetricEnsemble, W, TH, PH) -> np.ndarray:
    """Best fidelity reachable with each row's measurement, retransmission
    already optimized outcome by outcome (top eigenvalue of each score operator)."""
    q = e.prior * bloch.born(*_terms(W, TH, PH), e.vectors)
    return bloch.top(*bloch.score(q, e.vectors)).sum(axis=-1)


def _correct_objective(e: SymmetricEnsemble, W, TH, PH) -> np.ndarray:
    """Probability of a correct decision under the best outcome-to-signal map."""
    return e.prior * bloch.born(*_terms(W, TH, PH), e.vectors).max(axis=-2).sum(axis=-1)


def _run_search(e: SymmetricEnsemble, cfg: OptimizerConfig, objective: Callable,
                name: str) -> tuple[ParamPom, SearchTrace]:
    n, restarts = cfg.n_elements, cfg.restarts
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n]))
    W = rng.dirichlet(np.ones(n), size=restarts)
    TH = np.arccos(rng.uniform(-1.0, 1.0, (restarts, n)))
    PH = rng.uniform(0.0, 2.0 * math.pi, (restarts, n))
    W, TH, PH, resid = _frame_map(W, TH, PH)
    alive = resid <= TOL.feasibility
    if not alive.any():
        raise OptimizationError(f"no feasible start in {restarts} restarts")
    VAL = np.where(alive, objective(e, W, TH, PH), -np.inf)
    start_vals = VAL.copy()
    CONC = (W * W).sum(axis=1)
    step = cfg.step_scale
    accepted = np.zeros(restarts, dtype=np.int64)
    stall = np.zeros(restarts, dtype=np.int64)
    spots: list[SpotCheck] = []
    evaluations = int(alive.sum())
    rows_all = np.arange(restarts)
    iterations = 0
    for it in range(cfg.max_iterations):
        iterations = it + 1
        kind = rng.random(restarts)
        noise = rng.standard_normal((3, restarts, n))
        W2, TH2, PH2 = W.copy(), TH.copy(), PH.copy()
        full = kind < 0.45
        W2[full] += (0.25 * step) * noise[0][full]
        TH2[full] += step * noise[1][full]
        PH2[full] += step * noise[2][full]
        single = (kind >= 0.45) & (kind < 0.70)
        ks = rng.integers(0, n, restarts)
        polar = rng.random(restarts) < 0.5
        g = step * rng.standard_normal(restarts)
        rows = np.where(single & polar)[0]
        TH2[rows, ks[rows]] += g[rows]
        rows = np.where(single & ~polar)[0]
        PH2[rows, ks[rows]] += g[rows]
        givers = rng.integers(0, n, restarts)
        takers = rng.integers(0, n - 1, restarts)
        takers = takers + (takers >= givers)
        amount = W[rows_all, givers] * rng.random(restarts)
        rows = np.where(kind >= 0.70)[0]
        W2[rows, givers[rows]] -= amount[rows]
        W2[rows, takers[rows]] += amount[rows]
        step *= STEP_DECAY
        W2, TH2, PH2, resid = _frame_map(W2, TH2, PH2)
        valid = alive & (resid <= TOL.feasibility)
        VAL2 = objective(e, W2, TH2, PH2)
        evaluations += int(valid.sum())
        CONC2 = (W2 * W2).sum(axis=1)
        accept = valid & ((VAL2 > VAL + cfg.tolerance)
                          | ((VAL2 >= VAL - cfg.tolerance) & (CONC2 > CONC + 1e-12)))
        W[accept] = W2[accept]
        TH[accept] = TH2[accept]
        PH[accept] = PH2[accept]
        VAL[accept] = VAL2[accept]
        CONC[accept] = CONC2[accept]
        accepted += accept
        stall = np.where(accept, 0, stall + 1)
        if iterations % SPOT_EVERY == 0:
            for r in np.where(alive)[0]:
                spots.append(SpotCheck(restart=int(r), iteration=iterations,
                                       params=ParamPom(W[r], TH[r], PH[r]),
                                       value=float(VAL[r])))
        if iterations >= STALL_FLOOR and (stall[alive] >= STALL_LIMIT).all():
            break
    best = -1
    for r in range(restarts):
        if not alive[r]:
            continue
        # lexicographic: clearly better value wins, near-ties go to the more
        # concentrated candidate, exact ties to the earlier restart
        if best < 0 or VAL[r] > VAL[best] + RESTART_TIE or (
                VAL[r] >= VAL[best] - RESTART_TIE and CONC[r] > CONC[best] + 1e-12):
            best = r
    params = ParamPom(W[best], TH[best], PH[best])
    records = tuple(
        RestartRecord(restart=r, start_value=float(start_vals[r]),
                      final_value=float(VAL[r]), iterations=iterations,
                      accepted=int(accepted[r]))
        for r in range(restarts) if alive[r])
    failed = tuple(int(r) for r in range(restarts) if not alive[r])
    trace = SearchTrace(objective=name, records=records, spot_checks=tuple(spots),
                        failed_restarts=failed, best_restart=best,
                        best_params=params, evaluations=evaluations)
    return params, trace


def optimize_fidelity(e: SymmetricEnsemble,
                      cfg: OptimizerConfig = OptimizerConfig()) -> tuple[Strategy, float, SearchTrace]:
    """Search for the measurement maximizing the retransmission fidelity.

    Returns the realized strategy (measurement plus exact best retransmission
    states), its fidelity recomputed through the exact double sum, and the
    search trace. Deterministic for a fixed (ensemble, config).
    """
    params, trace = _run_search(e, cfg, _fidelity_objective, "fidelity")
    pom = to_pom(params)
    report: FidelityReport = optimal_retransmission(e, pom)
    strategy = Strategy(pom=pom, retransmit=report.states)
    return strategy, fidelity_of_strategy(e, strategy), trace


def optimize_error(e: SymmetricEnsemble,
                   cfg: OptimizerConfig = OptimizerConfig()) -> tuple[Pom, Assignment, float, SearchTrace]:
    """Search for the measurement minimizing the identification error.

    The outcome-to-signal map is the greedy one (each outcome read as the
    signal of largest joint probability), both inside the search and in the
    returned assignment. The returned error is recomputed exactly.
    """
    params, trace = _run_search(e, cfg, _correct_objective, "error")
    pom = to_pom(params)
    assignment = greedy_assignment(e, pom)
    return pom, assignment, error_probability(e, pom, assignment), trace
