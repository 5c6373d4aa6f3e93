"""Fixed-point ascent over rank-one measurements, as an independent check on
the closed-form optima.

A candidate is held as the element terms (t[K], r[K, 3]) the rest of the
package uses (bloch.py): element k is t_k I + r_k.sigma with |r_k| = t_k,
rank one and positive semidefinite by construction. The search hands out only
measurements (Pom), the best row realized once at the end and sampled rows as
element terms.

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
map, and one stabilizing step x3 = F of it. A row takes x3 where both frames
pass and x3's objective is no lower than x2's, and x2 otherwise, so the plain
ascent is the fallback of every outer step.

All restarts advance in lockstep as rows of one batch. A row stops once an
outer step moves none of its terms by more than STOP, or when a plain step's
frame is singular or misses the completeness residual validate_pom allows; it
then keeps its candidate. In the best row, elements that point the same way
are merged, their weights summed, before it is realized as a measurement.
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
from .tolerances import IDENTITY_SUM, NEGLIGIBLE, PSEUDO_INVERSE

SPOT_EVERY = 5  # outer steps between spot checks
STOP = 1e-12  # an outer step that moves no term of a row by more than this ends the row


def _pom(t: np.ndarray, r: np.ndarray) -> Pom:
    """One row's element terms as a measurement, element k for outcome k."""
    return Pom(elements=bloch.operators(t, r))


def _frame_map(W: np.ndarray, N: np.ndarray):
    """Square-root normalization of candidates, over any leading shape (bloch.frame_normalize).

    N[..., k, :] is element k's Bloch vector at any length; the vectors are
    rescaled to unit length (+z for a zero vector) and the weights W clipped
    at zero. Returns the element terms (t, r) and bloch.residual, infinite
    for rows whose frame is singular.
    """
    t, r, lam_minus = bloch.frame_normalize(np.maximum(W, 0.0), bloch.unit(N))
    return t, r, np.where(lam_minus > PSEUDO_INVERSE, bloch.residual(t, r), np.inf)


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
    """A row's candidate sampled mid-search, as element terms (t[K], r[K, 3]),
    so audits can replay the objective on its measurement. The search samples
    every SPOT_EVERY outer steps, each row that applied a step since the last
    sample, so a stopped row's final candidate is kept once."""

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
    """One restart's values; iterations counts the batch's outer steps,
    accepted the outer steps this row applied."""

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
    evaluations counts objective evaluations of single rows: one per start,
    then four per live row in each outer step. spot_checks holds
    min(ceil(accepted / SPOT_EVERY), iterations // SPOT_EVERY) samples of each
    restart (SpotCheck).
    """

    objective: str
    records: tuple[RestartRecord, ...]
    spot_checks: tuple[SpotCheck, ...]
    best_restart: int
    evaluations: int


def _fidelity_objective(e: SymmetricEnsemble, t, r):
    """Best fidelity reachable with each row's measurement, retransmission
    already optimized outcome by outcome (top eigenvalue of each score
    operator), and the terms (g0, g) of 2/p times its gradient operators,
    sum_j (1 + n_j.v_k) |psi_j><psi_j| with v_k the unit direction of
    outcome k's score vector."""
    values, v = _retransmission(e, t, r)
    q = bloch.born(np.ones_like(values), v, e.vectors)
    return (values.sum(axis=-1), *bloch.score(q, e.vectors))


def _correct_objective(e: SymmetricEnsemble, t, r):
    """Probability of a correct decision under the best outcome-to-signal map,
    and the terms (g0, g) of 2/p times its gradient operators,
    I + n_a(k).sigma with a(k) the signal of largest joint probability."""
    p = bloch.born(t, r, e.vectors)
    return (e.prior * p.max(axis=-2).sum(axis=-1), np.ones_like(t),
            e.vectors[p.argmax(axis=-2)])


def _merged(t: np.ndarray, r: np.ndarray):
    """One row with elements whose unit vectors coincide merged into the first
    of them, weights summed and the rest zeroed, then frame-normalized again."""
    n = bloch.unit(r)
    first = (np.abs(n[:, None] - n[None]).max(axis=-1) <= NEGLIGIBLE).argmax(axis=0)
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


def _run_search(e: SymmetricEnsemble, cfg: OptimizerConfig, objective: Callable,
                name: str) -> tuple[Pom, SearchTrace]:
    check_instance(cfg, "cfg", OptimizerConfig)
    n, restarts = cfg.n_elements, cfg.restarts
    v = np.random.default_rng(np.random.SeedSequence([cfg.seed, n])).standard_normal((restarts, n, 3))
    v[:, -1] = -v[:, :-1].sum(axis=1)
    r = v / np.linalg.norm(v, axis=-1).sum(axis=1)[:, None, None]
    t = np.linalg.norm(r, axis=-1)
    VAL, g0, g = objective(e, t, r)
    start_vals = VAL.copy()
    live = np.ones(restarts, dtype=bool)
    applied = np.zeros(restarts, dtype=np.int64)
    spots: list[SpotCheck] = []
    evaluations = restarts
    iterations = 0

    def plain(t, r, g0, g):
        """The map F at (t, r), whose gradient terms are (g0, g): the stepped
        terms, whether their frame passed, and the objective there."""
        t, r, resid = _frame_map(*bloch.sandwich(g0, g, t, r))
        return (t, r, resid <= IDENTITY_SUM, *objective(e, t, r))

    while live.any() and iterations < cfg.max_iterations:
        iterations += 1
        t1, r1, ok1, _, g0, g = plain(t, r, g0, g)
        t2, r2, ok2, VAL2, g0, g = plain(t1, r1, g0, g)
        step = live & ok1 & ok2
        tx, rx, resid = _frame_map(*_extrapolated((t, r), (t1, r1), (t2, r2)))
        t3, r3, ok3, VAL3, g03, g3 = plain(tx, rx, *objective(e, tx, rx)[1:])
        fast = ok3 & (resid <= IDENTITY_SUM) & (VAL3 >= VAL2)
        for kept, extrapolated in ((t2, t3), (r2, r3), (VAL2, VAL3), (g0, g03), (g, g3)):
            kept[fast] = extrapolated[fast]
        moved = np.maximum(np.abs(t2 - t).max(axis=-1), np.abs(r2 - r).max(axis=(-2, -1)))
        t[step], r[step], VAL[step] = t2[step], r2[step], VAL2[step]
        applied += step
        evaluations += 4 * int(live.sum())
        live = step & (moved > STOP)
        if iterations % SPOT_EVERY == 0:
            # rows step from the first outer step until they stop, so these are
            # the rows whose candidate changed since the last sample
            for row in np.where(applied > iterations - SPOT_EVERY)[0]:
                # t[row] and r[row] are views of the live state, which later steps overwrite
                spots.append(SpotCheck(restart=int(row), iteration=iterations, t=t[row].copy(),
                                       r=r[row].copy(), value=float(VAL[row])))
    best = int(np.argmax(VAL))
    pom = _pom(*_merged(t[best], r[best]))
    violations = validate_pom(pom)
    if violations:
        raise OptimizationError(f"best candidate is not a valid measurement: {violations[0]}")
    records = tuple(
        RestartRecord(restart=k, start_value=float(start_vals[k]),
                      final_value=float(VAL[k]), iterations=iterations,
                      accepted=int(applied[k]))
        for k in range(restarts))
    trace = SearchTrace(objective=name, records=records, spot_checks=tuple(spots),
                        best_restart=best, evaluations=evaluations)
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
