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

from .ensembles import SymmetricEnsemble
from .errors import DomainError, OptimizationError, RepairError
from .fidelity import FidelityReport, Strategy, fidelity_of_strategy, optimal_retransmission
from .measurements import Assignment, Pom, error_probability, greedy_assignment
from .qubit import Hermitian2
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


def constraint_residuals(p: ParamPom) -> tuple[float, float, float]:
    """Residuals of (weight normalization, polar balance, azimuthal balance)."""
    w = p.weights
    st = np.sin(p.colatitudes)
    rx = w @ (st * np.cos(p.longitudes))
    ry = w @ (st * np.sin(p.longitudes))
    return (abs(float(w.sum()) - 1.0),
            abs(float(w @ np.cos(p.colatitudes))),
            math.hypot(float(rx), float(ry)))


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
    w = np.clip(p.weights, 0.0, None)
    ct = np.cos(p.colatitudes)
    st = np.sin(p.colatitudes)
    off = st * np.exp(-1j * p.longitudes)
    elements = tuple(
        Hermitian2(w[k] * (1.0 + ct[k]), w[k] * (1.0 - ct[k]), w[k] * off[k])
        for k in range(p.n))
    return Pom(elements=elements, labels=tuple(range(p.n)))


def _frame_map(W: np.ndarray, TH: np.ndarray, PH: np.ndarray, tol: Tolerances = TOL):
    """Square-root normalization of candidates, one per row.

    With weights clipped at zero, each row's elements E_k = w_k (I + n_k.sigma)
    sum to the frame S = s0 I + s.sigma, and E_k -> S^(-1/2) E_k S^(-1/2)
    makes them sum to the identity while staying rank one. Along the frame
    axis u = s/|s|, with eigenvalues lam+- = s0 +- |s| = sum_k w_k (1 +- u.n_k),
    element k becomes w'_k (I + n'_k.sigma) where
        w'_k      = (w_k (1 + u.n_k) / lam+ + w_k (1 - u.n_k) / lam-) / 2,
        w'_k n'_k = (w_k (1 + u.n_k) / lam+ - w_k (1 - u.n_k) / lam-) / 2 u
                    + w_k (n_k - (u.n_k) u) / sqrt(lam+ lam-).
    1 +- u.n_k is taken as |n_k +- u|^2 / 2 so that lam- keeps its relative
    accuracy. Returns (W, TH, PH, residual) with colatitudes in [0, pi] and
    longitudes in [0, 2 pi); rows whose frame is singular get an infinite
    residual.
    """
    W = np.clip(W, 0.0, None)
    st = np.sin(TH)
    n = np.stack([st * np.cos(PH), st * np.sin(PH), np.cos(TH)])
    s = (W * n).sum(axis=2)
    norm = np.sqrt((s * s).sum(axis=0))
    u = (s / np.where(norm > 0.0, norm, 1.0))[:, :, None]
    plus = W * (0.5 * ((n + u) ** 2).sum(axis=0))
    minus = W * (0.5 * ((n - u) ** 2).sum(axis=0))
    lam_plus, lam_minus = plus.sum(axis=1), minus.sum(axis=1)
    ok = lam_minus > tol.pseudo_inverse
    plus = plus / np.where(ok, lam_plus, 1.0)[:, None]
    minus = minus / np.where(ok, lam_minus, 1.0)[:, None]
    cross = W / np.sqrt(np.where(ok, lam_plus * lam_minus, 1.0))[:, None]
    d = 0.5 * (plus - minus) * u + cross * (n - (u * n).sum(axis=0) * u)
    W = 0.5 * (plus + minus)
    TH = np.arctan2(np.hypot(d[0], d[1]), d[2])
    PH = np.mod(np.arctan2(d[1], d[0]), 2.0 * math.pi)
    st = np.sin(TH)
    resid = np.maximum.reduce([
        np.abs(W.sum(axis=1) - 1.0),
        np.abs((W * np.cos(TH)).sum(axis=1)),
        np.hypot((W * (st * np.cos(PH))).sum(axis=1), (W * (st * np.sin(PH))).sum(axis=1))])
    return W, TH, PH, np.where(ok, resid, np.inf)


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


def _signal_arrays(e: SymmetricEnsemble):
    amps = np.array([s.as_array() for s in e.states])
    cp, cm = amps[:, 0], amps[:, 1]
    cross = cp.conjugate() * cm
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag,
                      np.abs(cp) ** 2 - np.abs(cm) ** 2], axis=1)
    return bloch, np.abs(cp) ** 2, np.abs(cm) ** 2, cross.conjugate()


def _fidelity_objective(e: SymmetricEnsemble) -> Callable:
    """Best fidelity reachable with each row's measurement, retransmission
    already optimized outcome by outcome (top eigenvalue of each score operator)."""
    bloch, pa, pd, pb = _signal_arrays(e)
    pbr, pbi = pb.real, pb.imag
    inv_m = 1.0 / e.m

    def objective(W, TH, PH):
        st = np.sin(TH)
        dirs = np.stack([st * np.cos(PH), st * np.sin(PH), np.cos(TH)], axis=1)
        born = W[:, None, :] * (1.0 + bloch @ dirs)
        a = pa @ born
        d = pd @ born
        br = pbr @ born
        bi = pbi @ born
        top = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + br * br + bi * bi)
        return top.sum(axis=1) * inv_m

    return objective


def _correct_objective(e: SymmetricEnsemble) -> Callable:
    """Probability of a correct decision under the best outcome-to-signal map."""
    bloch = _signal_arrays(e)[0]
    inv_m = 1.0 / e.m

    def objective(W, TH, PH):
        st = np.sin(TH)
        dirs = np.stack([st * np.cos(PH), st * np.sin(PH), np.cos(TH)], axis=1)
        born = W[:, None, :] * (1.0 + bloch @ dirs)
        return born.max(axis=1).sum(axis=1) * inv_m

    return objective


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
    VAL = np.where(alive, objective(W, TH, PH), -np.inf)
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
        VAL2 = objective(W2, TH2, PH2)
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
    params, trace = _run_search(e, cfg, _fidelity_objective(e), "fidelity")
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
    params, trace = _run_search(e, cfg, _correct_objective(e), "error")
    pom = to_pom(params)
    assignment = greedy_assignment(e, pom)
    return pom, assignment, error_probability(e, pom, assignment), trace
