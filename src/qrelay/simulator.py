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
import numpy as np

from .ensembles import SymmetricEnsemble
from .errors import DomainError
from .fidelity import Strategy
from .measurements import Assignment, Pom, outcome_probabilities
from .qubit import overlap_prob
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


def _outcome_table(e: SymmetricEnsemble, p: Pom, tol: Tolerances):
    """Cumulative outcome distribution per signal, rows renormalized for sampling."""
    born = np.stack([outcome_probabilities(s, p, tol) for s in e.states])
    born = born / born.sum(axis=1, keepdims=True)
    cum = np.cumsum(born, axis=1)
    cum[:, -1] = 1.0
    return cum


def _draw(e: SymmetricEnsemble, cum: np.ndarray, seed: int, start: int, stop: int):
    """Transmitted signal index and outcome position for trials start..stop-1."""
    u_signal = counter_uniforms(seed, 0, start, stop)
    u_outcome = counter_uniforms(seed, 1, start, stop)
    signal = np.minimum((u_signal * e.m).astype(np.int64), e.m - 1)
    outcome = (u_outcome[:, None] >= cum[signal]).sum(axis=1)
    return signal, outcome


def simulate_fidelity(e: SymmetricEnsemble, s: Strategy, trials: int,
                      seed: int = 0, tol: Tolerances = TOL) -> SimResult:
    """Estimate the strategy's average fidelity by direct simulation.

    Each trial samples a signal, samples the measurement outcome from the
    Born distribution, retransmits the outcome's state and accepts with
    probability |<signal|retransmitted>|^2.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    cum = _outcome_table(e, s.pom, tol)
    accept = np.array([[overlap_prob(sig, out) for out in s.retransmit]
                       for sig in e.states])
    hits = 0
    tallies = np.zeros(len(s.pom), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        signal, outcome = _draw(e, cum, seed, start, stop)
        u_accept = counter_uniforms(seed, 2, start, stop)
        hits += int((u_accept < accept[signal, outcome]).sum())
        tallies += np.bincount(outcome, minlength=len(s.pom))
    estimate = hits / trials
    return SimResult(
        trials=trials,
        estimate=estimate,
        std_error=math.sqrt(estimate * (1.0 - estimate) / trials),
        counts={label: int(tallies[pos]) for pos, label in enumerate(s.pom.labels)},
    )


def simulate_error(e: SymmetricEnsemble, p: Pom, a: Assignment, trials: int,
                   seed: int = 0, tol: Tolerances = TOL) -> SimResult:
    """Estimate the identification error of a measurement with an assignment."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    cum = _outcome_table(e, p, tol)
    read_as = np.empty(len(p), dtype=np.int64)
    for pos, label in enumerate(p.labels):
        if label not in a.outcome_to_signal:
            raise DomainError(f"outcome label {label} has no assigned signal")
        read_as[pos] = a.outcome_to_signal[label]
    if read_as.min() < 0 or read_as.max() >= e.m:
        raise DomainError("assignment maps outside the signal range")
    misses = 0
    tallies = np.zeros(len(p), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        signal, outcome = _draw(e, cum, seed, start, stop)
        misses += int((read_as[outcome] != signal).sum())
        tallies += np.bincount(outcome, minlength=len(p))
    estimate = misses / trials
    return SimResult(
        trials=trials,
        estimate=estimate,
        std_error=math.sqrt(estimate * (1.0 - estimate) / trials),
        counts={label: int(tallies[pos]) for pos, label in enumerate(p.labels)},
    )
