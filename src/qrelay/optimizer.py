"""Derivative-free search over rank-one measurements, as an independent check
on the closed-form optima.

A candidate is held as the element terms (t[K], r[K, 3]) the rest of the
package uses (bloch.py): element k is t_k I + r_k.sigma with |r_k| = t_k,
rank one and positive semidefinite by construction, its weight t_k and unit
Bloch vector r_k / t_k (+z for an element of weight zero). Proposals move
the weights and the vectors directly; the search hands out only measurements
(Pom), the best row realized once at the end and sampled rows as element terms.

Every random start and every proposal is made feasible in one closed-form
step, the square-root (frame) normalization E_k -> S^(-1/2) E_k S^(-1/2)
with S the sum of the elements, which keeps each element rank one and makes
the set exactly complete. Only normalized candidates are scored; a candidate
whose frame is singular, or whose completeness residual exceeds the one
validate_pom allows, is discarded.

The local search is a multi-start random walk with a decaying step; all
restarts advance in lockstep as rows of one batch so the inner loop stays in
vectorized numpy. Moves are accepted on strict objective improvement; on
near-ties the tighter weight concentration (larger sum of squared weights)
wins, which deduplicates elements pointing the same way without ever trading
away objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble
from .errors import OptimizationError, check_integer
from .fidelity import (FidelityReport, Strategy, _scores, fidelity_of_strategy,
                       optimal_retransmission)
from .measurements import Assignment, Pom, error_probability, greedy_assignment, validate_pom
from .tolerances import TOL

STEP_SCALE = 0.3
STEP_DECAY = 0.995
ACCEPT_TIE = 1e-10  # objective moves within this count as ties, won by concentration
SPOT_EVERY = 100
STALL_LIMIT = 400
STALL_FLOOR = 600
RESTART_TIE = 1e-7


def _pom(t: np.ndarray, r: np.ndarray) -> Pom:
    """One row's element terms as a measurement, element k for outcome k."""
    return Pom(elements=bloch.operators(t, r))


def _frame_map(W: np.ndarray, N: np.ndarray):
    """Square-root normalization of candidates, one per row (bloch.frame_normalize).

    N[..., k, :] is element k's Bloch vector at any nonzero length; the
    vectors are rescaled to unit length and the weights W clipped at zero.
    Returns the element terms (t, r) and bloch.residual, infinite for rows
    whose frame is singular.
    """
    N = N / np.sqrt(np.einsum("...c,...c->...", N, N))[..., None]
    t, r, lam_minus = bloch.frame_normalize(np.maximum(W, 0.0), N)
    return t, r, np.where(lam_minus > TOL.pseudo_inverse, bloch.residual(t, r), np.inf)


@dataclass(frozen=True)
class OptimizerConfig:
    n_elements: int = 4
    restarts: int = 16
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low, high in (("n_elements", 2, None), ("restarts", 1, None),
                                ("max_iterations", 1, None), ("seed", 0, 2 ** 64)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, low, high))


@dataclass(frozen=True, eq=False)
class SpotCheck:
    """Current candidate sampled mid-search, as element terms (t[K], r[K, 3]),
    so audits can replay the objective on its measurement."""

    restart: int
    iteration: int
    t: np.ndarray
    r: np.ndarray
    value: float

    @property
    def pom(self) -> Pom:
        return _pom(self.t, self.r)


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
    evaluations: int


def _fidelity_objective(e: SymmetricEnsemble, t, r) -> np.ndarray:
    """Best fidelity reachable with each row's measurement, retransmission
    already optimized outcome by outcome (top eigenvalue of each score operator)."""
    return bloch.top(*_scores(e, t, r)).sum(axis=-1)


def _correct_objective(e: SymmetricEnsemble, t, r) -> np.ndarray:
    """Probability of a correct decision under the best outcome-to-signal map."""
    return e.prior * bloch.born(t, r, e.vectors).max(axis=-2).sum(axis=-1)


def _run_search(e: SymmetricEnsemble, cfg: OptimizerConfig, objective: Callable,
                name: str) -> tuple[Pom, SearchTrace]:
    n, restarts = cfg.n_elements, cfg.restarts
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n]))
    t, r, resid = _frame_map(rng.dirichlet(np.ones(n), size=restarts),
                             rng.standard_normal((restarts, n, 3)))
    alive = resid <= TOL.identity_sum
    if not alive.any():
        raise OptimizationError(f"no feasible start in {restarts} restarts")
    VAL = np.where(alive, objective(e, t, r), -np.inf)
    start_vals = VAL.copy()
    CONC = (t * t).sum(axis=1)
    step = STEP_SCALE
    accepted = np.zeros(restarts, dtype=np.int64)
    stall = np.zeros(restarts, dtype=np.int64)
    spots: list[SpotCheck] = []
    evaluations = int(alive.sum())
    rows_all = np.arange(restarts)
    iterations = 0
    for it in range(cfg.max_iterations):
        iterations = it + 1
        kind = rng.random(restarts)
        # unit Bloch vectors, +z where an element has weight zero (and so r = 0)
        N = r / np.where(t > 0.0, t, 1.0)[..., None]
        N[..., 2] += t <= 0.0
        full = (kind < 0.45)[:, None]
        W2 = t + (0.25 * step) * full * rng.standard_normal((restarts, n))
        N2 = N + step * full[..., None] * rng.standard_normal((restarts, n, 3))
        rows = np.where((kind >= 0.45) & (kind < 0.70))[0]
        ks = rng.integers(0, n, restarts)
        N2[rows, ks[rows]] += step * rng.standard_normal((restarts, 3))[rows]
        givers = rng.integers(0, n, restarts)
        takers = rng.integers(0, n - 1, restarts)
        takers = takers + (takers >= givers)
        amount = t[rows_all, givers] * rng.random(restarts)
        rows = np.where(kind >= 0.70)[0]
        W2[rows, givers[rows]] -= amount[rows]
        W2[rows, takers[rows]] += amount[rows]
        step *= STEP_DECAY
        t2, r2, resid = _frame_map(W2, N2)
        valid = alive & (resid <= TOL.identity_sum)
        VAL2 = objective(e, t2, r2)
        evaluations += int(valid.sum())
        CONC2 = (t2 * t2).sum(axis=1)
        accept = valid & ((VAL2 > VAL + ACCEPT_TIE)
                          | ((VAL2 >= VAL - ACCEPT_TIE) & (CONC2 > CONC + 1e-12)))
        t[accept] = t2[accept]
        r[accept] = r2[accept]
        VAL[accept] = VAL2[accept]
        CONC[accept] = CONC2[accept]
        accepted += accept
        stall = np.where(accept, 0, stall + 1)
        if iterations % SPOT_EVERY == 0:
            for row in np.where(alive)[0]:
                # t[row] and r[row] are views of the live state, which later accepts overwrite
                spots.append(SpotCheck(restart=int(row), iteration=iterations, t=t[row].copy(),
                                       r=r[row].copy(), value=float(VAL[row])))
        if iterations >= STALL_FLOOR and (stall[alive] >= STALL_LIMIT).all():
            break
    best = -1
    for k in range(restarts):
        if not alive[k]:
            continue
        # lexicographic: clearly better value wins, near-ties go to the more
        # concentrated candidate, exact ties to the earlier restart
        if best < 0 or VAL[k] > VAL[best] + RESTART_TIE or (
                VAL[k] >= VAL[best] - RESTART_TIE and CONC[k] > CONC[best] + 1e-12):
            best = k
    pom = _pom(t[best], r[best])
    violations = validate_pom(pom)
    if violations:
        raise OptimizationError(f"best candidate is not a valid measurement: {violations[0]}")
    records = tuple(
        RestartRecord(restart=k, start_value=float(start_vals[k]),
                      final_value=float(VAL[k]), iterations=iterations,
                      accepted=int(accepted[k]))
        for k in range(restarts) if alive[k])
    failed = tuple(k for k in range(restarts) if not alive[k])
    trace = SearchTrace(objective=name, records=records, spot_checks=tuple(spots),
                        failed_restarts=failed, best_restart=best,
                        evaluations=evaluations)
    return pom, trace


def optimize_fidelity(e: SymmetricEnsemble,
                      cfg: OptimizerConfig = OptimizerConfig()) -> tuple[Strategy, float, SearchTrace]:
    """Search for the measurement maximizing the retransmission fidelity.

    Returns the realized strategy (measurement plus exact best retransmission
    states), its fidelity recomputed through the exact double sum, and the
    search trace. Deterministic for a fixed (ensemble, config).
    """
    pom, trace = _run_search(e, cfg, _fidelity_objective, "fidelity")
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
    pom, trace = _run_search(e, cfg, _correct_objective, "error")
    assignment = greedy_assignment(e, pom)
    return pom, assignment, error_probability(e, pom, assignment), trace
