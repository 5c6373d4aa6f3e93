"""Monte Carlo simulation of measure-and-retransmit strategies.

Randomness comes from a counter-based generator: the draw for (trial, slot)
is a pure function of the seed, so any partition of the trial range into
chunks reproduces bit-identical results and no generator state is carried
between calls. Each trial spends one slot on the transmitted signal, one on
the measurement outcome and, for fidelity runs, one on the accept/reject
test of the retransmitted state against the original.

Estimates are plain frequencies with the binomial standard error
sqrt(est (1 - est) / trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble
from .errors import DomainError
from .fidelity import Strategy
from .measurements import Assignment, Pom, _probabilities, _signal_indices
from .tolerances import TOL, Tolerances

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
N_SLOTS = 4
CHUNK = 1 << 20


@dataclass(frozen=True)
class SimResult:
    trials: int
    estimate: float
    std_error: float
    counts: dict[int, int]


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 output stage; uint64 arithmetic wraps modulo 2**64 on purpose."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def counter_uniforms(seed: int, slot: int, start: int, stop: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for trials start..stop-1 of one slot's stream.

    The value at (trial, slot) depends only on the seed, never on how the
    range is split across calls.
    """
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must fit an unsigned 64-bit integer")
    if not 0 <= slot < N_SLOTS:
        raise DomainError(f"slot {slot} outside 0..{N_SLOTS - 1}")
    if start < 0 or stop < start:
        raise DomainError(f"trial range {start}..{stop} must satisfy 0 <= start <= stop")
    idx = np.arange(start, stop, dtype=np.uint64)
    counter = idx * np.uint64(N_SLOTS) + np.uint64(slot + 1)
    bits = _mix(np.uint64(seed) + counter * GOLDEN)
    return (bits >> np.uint64(11)) * (1.0 / (1 << 53))


def _outcome_table(e: SymmetricEnsemble, p: Pom, tol: Tolerances) -> np.ndarray:
    """Cumulative outcome distribution per signal, rows renormalized for sampling."""
    born = _probabilities(p, e.vectors, tol)
    born = born / born.sum(axis=1, keepdims=True)
    cum = np.cumsum(born, axis=1)
    cum[:, -1] = 1.0
    return cum


def _draw(e: SymmetricEnsemble, cum: np.ndarray, seed: int, start: int, stop: int):
    """Transmitted signal index and outcome position for trials start..stop-1.

    The outcome counts the thresholds of the signal's cumulative row at or
    below the uniform, one column at a time; the last, 1, never counts.
    """
    u_signal = counter_uniforms(seed, 0, start, stop)
    u_outcome = counter_uniforms(seed, 1, start, stop)
    signal = np.minimum((u_signal * e.m).astype(np.int64), e.m - 1)
    outcome = np.zeros(stop - start, dtype=np.int64)
    for column in cum[:, :-1].T:
        outcome += u_outcome >= column[signal]
    return signal, outcome


def _estimate(e: SymmetricEnsemble, p: Pom, trials: int, seed: int, tol: Tolerances,
              hits_in: Callable) -> SimResult:
    """Frequency of hits over the trials; hits_in(start, stop, signal, outcome) counts one chunk's."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    cum = _outcome_table(e, p, tol)
    hits = 0
    tallies = np.zeros(len(p), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        signal, outcome = _draw(e, cum, seed, start, stop)
        hits += hits_in(start, stop, signal, outcome)
        tallies += np.bincount(outcome, minlength=len(p))
    estimate = hits / trials
    return SimResult(
        trials=trials,
        estimate=estimate,
        std_error=math.sqrt(estimate * (1.0 - estimate) / trials),
        counts={label: int(tallies[pos]) for pos, label in enumerate(p.labels)},
    )


def simulate_fidelity(e: SymmetricEnsemble, s: Strategy, trials: int,
                      seed: int = 0, tol: Tolerances = TOL) -> SimResult:
    """Estimate the strategy's average fidelity by direct simulation.

    Each trial samples a signal, samples the measurement outcome from the
    Born distribution, retransmits the outcome's state and accepts with
    probability |<signal|retransmitted>|^2.
    """
    half = np.full(len(s.retransmit), 0.5)
    accept = np.clip(bloch.born(half, 0.5 * bloch.vectors(s.retransmit), e.vectors), 0.0, 1.0)
    return _estimate(e, s.pom, trials, seed, tol, lambda start, stop, signal, outcome: int(
        (counter_uniforms(seed, 2, start, stop) < accept[signal, outcome]).sum()))


def simulate_error(e: SymmetricEnsemble, p: Pom, a: Assignment, trials: int,
                   seed: int = 0, tol: Tolerances = TOL) -> SimResult:
    """Estimate the identification error of a measurement with an assignment."""
    read_as = np.array(_signal_indices(p, a, e.m), dtype=np.int64)
    return _estimate(e, p, trials, seed, tol, lambda start, stop, signal, outcome: int(
        (read_as[outcome] != signal).sum()))
