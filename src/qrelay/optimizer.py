"""Fixed-point ascent over rank-one measurements, as an independent check on
the closed-form optima.

A candidate is held as the element terms (t[K], r[K, 3]) the rest of the
package uses (bloch.py): element k is t_k I + r_k.sigma with |r_k| = t_k,
rank one and positive semidefinite by construction. The search hands out only
measurements (Pom), the best row realized once at the end and each row's final
candidate as element terms in its RestartRecord.

Both objectives are maxima of functions linear in each element, so each has a
gradient operator G_k at element E_k: for the fidelity
sum_j p_j |<psi_j|phi_k>|^2 |psi_j><psi_j| with phi_k the best retransmission,
for the error p |psi_a(k)><psi_a(k)| with a(k) the greedy signal. The plain
step F is the Jezek-Rehacek-Fiurasek iteration (PRA 65, 060301(R), 2002)
E_k -> S^(-1/2) G_k E_k G_k S^(-1/2), S the sum of the G_k E_k G_k. Each
G_k E_k G_k is rank one again, and the normalization is the square-root
(frame) map (Hausladen and Wootters, J. Mod. Opt. 41, 2385, 1994), which
makes the set exactly complete. No step draws random numbers: the generator
only draws the starts. A complete rank-one set is w_k (I + n_k.sigma) with
sum w_k = 1 and sum w_k n_k = 0, so a start is complete as drawn: Gaussian
vectors v_k, the last minus the sum of the others, give element k
|v_k| (I + v_k.sigma / |v_k|) / sum |v| (two elements: an antipodal pair).

The map F converges only linearly, and slowly where it barely contracts (near
theta = pi/8 by about 0.995 a step), so each outer step is one safeguarded
squared extrapolation (SQUAREM; Varadhan and Roland, Scand. J. Stat. 35, 335,
2008): two plain steps x1 = F(x0) and x2 = F(x1), the point
x0 - 2 alpha d + alpha^2 c with d = x1 - x0, c = x2 - 2 x1 + x0 and
alpha = min(-|d|/|c|, -1), mapped back onto complete rank-one sets by the frame
map and scored once there. A row takes that point where its frame passes and
its objective is no lower than x2's, and x2 otherwise, so the plain ascent is
the fallback of every outer step: three frame maps and three objective
evaluations per outer step.

An element's weight can decay sublinearly towards 0 while the rest of its
row has converged, so the row would crawl to the step cap. So the frame map
zeroes every weight below PRUNE: the plain steps, the extrapolation and the
merge at the end all treat such an element as absent, and a zero weight
stays zero under F. Both searches run this one outer step; they differ only
in their objective.

All restarts advance in lockstep as rows of one batch. A row stops once an
outer step moves none of its terms by more than STOP, or when a plain step's
frame is singular or misses the completeness residual validate_pom allows; it
then keeps its candidate, which its RestartRecord holds with its value curve. The
batch stops when no row is live, or after MAX_ITERATIONS outer steps. In
the best row, elements that point the same way are merged, their weights
summed, before it is realized as a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble
from .errors import OptimizationError, check_instance, check_integer
from .fidelity import (FidelityReport, Strategy, _retransmission, fidelity_of_strategy,
                       optimal_retransmission)
from .measurements import Assignment, Pom, error_probability, greedy_assignment, validate_pom
from .tolerances import IDENTITY_SUM, PSEUDO_INVERSE

STOP = 1e-12  # an outer step that moves no term of a row by more than this ends the row
PRUNE = 1e-5  # the frame map zeroes every weight below this, dropping its element
MAX_ITERATIONS = 2000  # outer steps after which the search stops, whatever its rows do


def _pom(t: np.ndarray, r: np.ndarray) -> Pom:
    """One row's element terms as a measurement, element k for outcome k."""
    return Pom(elements=bloch.operators(t, r))


def _frame_map(W: np.ndarray, N: np.ndarray):
    """Square-root normalization of candidates, over any leading shape (bloch.frame_normalize).

    N[..., k, :] is element k's Bloch vector at any length; the vectors are
    rescaled to unit length (+z for a zero vector) and every weight below
    PRUNE, negative ones among them, is zeroed. Returns the element terms
    (t, r) and bloch.residual, infinite for rows whose frame is singular.
    """
    t, r, lam_minus = bloch.frame_normalize(np.where(W < PRUNE, 0.0, W), bloch.unit(N))
    return t, r, np.where(lam_minus > PSEUDO_INVERSE, bloch.residual(t, r), np.inf)


@dataclass(frozen=True)
class OptimizerConfig:
    n_elements: int = 4
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low, high in (("n_elements", 2, None), ("restarts", 1, None),
                                ("seed", 0, 2 ** 64)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, low, high))


@dataclass(frozen=True, eq=False)
class RestartRecord:
    """One restart: its value curve (the value at its start, then after each
    outer step it applied) and its final candidate as element terms
    (t[K], r[K, 3]), so audits can replay the objective on its measurement.
    iterations counts the batch's outer steps."""

    values: tuple[float, ...]
    iterations: int
    t: np.ndarray
    r: np.ndarray

    @property
    def accepted(self) -> int:
        return len(self.values) - 1

    @property
    def pom(self) -> Pom:
        return _pom(self.t, self.r)


@dataclass(frozen=True)
class SearchTrace:
    """What the search did, for reproducibility audits.

    Recorded values are always the maximized objective: the fidelity itself,
    or the correct-decision probability (1 - error) for the error search.
    records holds one RestartRecord per restart, in restart order.
    evaluations counts objective evaluations of single rows: one per start,
    then three per live row in each outer step.
    """

    records: tuple[RestartRecord, ...]
    best_restart: int
    evaluations: int

    @property
    def spot_checks(self) -> tuple[RestartRecord, ...]:
        """The records, under the name bench/tracer.py counts them by."""
        return self.records


def _fidelity_objective(e: SymmetricEnsemble, t, r):
    """Best fidelity reachable with each row's measurement, retransmission
    already optimized outcome by outcome (top eigenvalue of each score
    operator), and the terms (g0, g) of 2/p times its gradient operators,
    sum_j (1 + n_j.v_k) |psi_j><psi_j| with v_k the unit direction of
    outcome k's score vector: from the ensemble's moments (mu, M),
    g0 = (1 + v_k.mu) / 2p and g = (mu + M v_k) / 2p."""
    values, v = _retransmission(e, t, r)
    mu, M = e.moments
    half_m = 0.5 / e.prior
    return values.sum(axis=-1), half_m * (1.0 + v @ mu), half_m * (mu + v @ M)


def _correct_objective(e: SymmetricEnsemble, t, r):
    """Probability of a correct decision under the best outcome-to-signal map,
    and the terms (g0, g) of 2/p times its gradient operators,
    I + n_a(k).sigma with a(k) the signal of largest joint probability."""
    p = bloch.born(t, r, e.vectors)
    return (e.prior * p.max(axis=-2).sum(axis=-1), np.ones_like(t),
            e.vectors[p.argmax(axis=-2)])


def _merged(t: np.ndarray, r: np.ndarray):
    """One row with elements whose unit vectors coincide merged into the first
    of them, weights summed and the rest zeroed, then frame-normalized again.
    Vectors coincide within IDENTITY_SUM entrywise: merging them moves the
    measurement by no more than the completeness slack validate_pom grants."""
    n = bloch.unit(r)
    first = (np.abs(n[:, None] - n[None]).max(axis=-1) <= IDENTITY_SUM).argmax(axis=0)
    return _frame_map(np.bincount(first, weights=t, minlength=len(t)), n)[:2]


def _extrapolated(x0, x1, x2):
    """The squared extrapolation x0 - 2 alpha d + alpha^2 c of each row, with
    d = x1 - x0, c = x2 - 2 x1 + x0 and alpha = min(-|d|/|c|, -1), over the
    terms x = (t[B, K], r[B, K, 3]) (Varadhan and Roland, Scand. J. Stat. 35,
    335, 2008). alpha = -1, taken where c = 0, gives x2."""
    x0, x1, x2 = (np.concatenate((t[..., None], r), axis=-1) for t, r in (x0, x1, x2))
    d, c = x1 - x0, x2 - 2.0 * x1 + x0
    dd, cc = (d * d).sum(axis=(-2, -1)), (c * c).sum(axis=(-2, -1))
    alpha = np.minimum(-np.sqrt(dd / np.where(cc > 0.0, cc, np.inf)), -1.0)[:, None, None]
    x = x0 - 2.0 * alpha * d + alpha * alpha * c
    return x[..., 0], x[..., 1:]


def _run_search(e: SymmetricEnsemble, cfg: OptimizerConfig,
                objective: Callable) -> tuple[Pom, SearchTrace]:
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(cfg, "cfg", OptimizerConfig)
    n, restarts = cfg.n_elements, cfg.restarts
    v = np.random.default_rng(np.random.SeedSequence([cfg.seed, n])).standard_normal((restarts, n, 3))
    v[:, -1] = -v[:, :-1].sum(axis=1)
    r = v / np.linalg.norm(v, axis=-1).sum(axis=1)[:, None, None]
    t = np.linalg.norm(r, axis=-1)
    VAL, g0, g = objective(e, t, r)
    history = [VAL.copy()]
    live = np.ones(restarts, dtype=bool)
    applied = np.zeros(restarts, dtype=np.int64)
    evaluations = restarts
    iterations = 0

    def scored(W, N):
        """The frame-mapped terms of (W, N), whether their frame passed, and
        the objective there."""
        t, r, resid = _frame_map(W, N)
        return (t, r, resid <= IDENTITY_SUM, *objective(e, t, r))

    while live.any() and iterations < MAX_ITERATIONS:
        iterations += 1
        t1, r1, ok1, _, g0, g = scored(*bloch.sandwich(g0, g, t, r))
        t2, r2, ok2, VAL2, g0, g = scored(*bloch.sandwich(g0, g, t1, r1))
        step = live & ok1 & ok2
        tx, rx, okx, VALx, g0x, gx = scored(*_extrapolated((t, r), (t1, r1), (t2, r2)))
        fast = okx & (VALx >= VAL2)
        for kept, extrapolated in ((t2, tx), (r2, rx), (VAL2, VALx), (g0, g0x), (g, gx)):
            kept[fast] = extrapolated[fast]
        moved = np.maximum(np.abs(t2 - t).max(axis=-1), np.abs(r2 - r).max(axis=(-2, -1)))
        t[step], r[step], VAL[step] = t2[step], r2[step], VAL2[step]
        applied += step
        evaluations += 3 * int(live.sum())
        live = step & (moved > STOP)
        history.append(VAL.copy())
    best = int(np.argmax(VAL))
    pom = _pom(*_merged(t[best], r[best]))
    violations = validate_pom(pom)
    if violations:
        raise OptimizationError(f"best candidate is not a valid measurement: {violations[0]}")
    curves = np.array(history).T  # rows step from the first outer step until they stop
    records = tuple(RestartRecord(values=tuple(curves[k, :applied[k] + 1].tolist()),
                                  iterations=iterations, t=t[k], r=r[k]) for k in range(restarts))
    trace = SearchTrace(records=records, best_restart=best, evaluations=evaluations)
    return pom, trace


def optimize_fidelity(e: SymmetricEnsemble,
                      cfg: OptimizerConfig = OptimizerConfig()) -> tuple[Strategy, float, SearchTrace]:
    """Search for the measurement maximizing the retransmission fidelity.

    Returns the realized strategy (measurement plus exact best retransmission
    states), its fidelity recomputed through the exact double sum, and the
    search trace. Deterministic for a fixed (ensemble, config).
    """
    pom, trace = _run_search(e, cfg, _fidelity_objective)
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
    pom, trace = _run_search(e, cfg, _correct_objective)
    assignment = greedy_assignment(e, pom)
    return pom, assignment, error_probability(e, pom, assignment), trace
