"""Monte Carlo simulation of measure-and-retransmit strategies.

Randomness comes from a counter-based generator: the draw for (trial, slot)
is a pure function of the seed, so any partition of the trial range into
chunks reproduces bit-identical results and no generator state is carried
between calls. Each trial spends one slot on the transmitted signal, one on
the measurement outcome and, for fidelity estimates, one on the accept/reject
test of the retransmitted state against the original. When both estimates
come from one run (simulate_strategy), the signal and outcome slots are drawn
once per trial and shared, so a trial spends three slots, not five, and each
estimate is bit for bit the one its own run would give.

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
from .errors import ValidationError, check_integer
from .fidelity import Strategy, _overlaps
from .measurements import Assignment, Pom, _signal_indices, validate_pom
from .tolerances import PROBABILITY

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
N_SLOTS = 4
# counter step from one trial to the next within a slot's stream, mod 2**64
_STRIDE = np.uint64(N_SLOTS * int(GOLDEN) % (1 << 64))
# trials per block: a block's few live arrays of 8-byte values stay within a
# per-core L2 cache, so memory does not grow with the trial count
CHUNK = 1 << 16


@dataclass(frozen=True)
class SimResult:
    trials: int
    estimate: float
    std_error: float
    counts: dict[int, int]


def _mix(x: np.ndarray) -> None:
    """splitmix64 output stage, in place on a uint64 buffer; the arithmetic wraps
    modulo 2**64 on purpose."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)


def counter_uniforms(seed: int, slot: int, start: int, stop: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for trials start..stop-1 of one slot's stream.

    The value at (trial, slot) depends only on the seed, never on how the
    range is split across calls.
    """
    seed = check_integer(seed, "seed", 0, 2 ** 64)
    slot = check_integer(slot, "slot", 0, N_SLOTS)
    start = check_integer(start, "start", 0)
    stop = check_integer(stop, "stop", start)
    x = np.arange(stop - start, dtype=np.uint64)
    x *= _STRIDE
    x += np.uint64(((start * N_SLOTS + slot + 1) * int(GOLDEN) + seed) % (1 << 64))
    _mix(x)
    x >>= np.uint64(11)
    return np.multiply(x, 1.0 / (1 << 53))


def _outcome_table(e: SymmetricEnsemble, p: Pom) -> np.ndarray:
    """Cumulative outcome distribution per signal of a validated measurement, rows
    clipped into [0, 1] and renormalized for sampling."""
    violations = validate_pom(p)
    if violations:
        raise ValidationError("; ".join(violations))
    born = bloch.born(*p.terms, e.vectors)
    if born.min() < -PROBABILITY:
        raise ValidationError(f"outcome probability {born.min():.3e} below the clamping window")
    born = np.clip(born, 0.0, 1.0)
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
    for column in np.ascontiguousarray(cum[:, :-1].T):
        outcome += u_outcome >= column.take(signal)
    return signal, outcome


def _estimate(e: SymmetricEnsemble, p: Pom, trials: int, seed: int,
              *hits_in: Callable) -> tuple[SimResult, ...]:
    """Frequency of hits over the trials for each counter, all from one draw per chunk.

    Each hits_in(start, stop, signal, outcome) counts one chunk's hits; the
    outcome tallies are shared by every result.
    """
    trials = check_integer(trials, "trials", 1)
    cum = _outcome_table(e, p)
    hits = [0] * len(hits_in)
    tallies = np.zeros(len(p), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        signal, outcome = _draw(e, cum, seed, start, stop)
        for k, count in enumerate(hits_in):
            hits[k] += count(start, stop, signal, outcome)
        tallies += np.bincount(outcome, minlength=len(p))
    results = []
    for h in hits:
        estimate = h / trials
        results.append(SimResult(
            trials=trials,
            estimate=estimate,
            std_error=math.sqrt(estimate * (1.0 - estimate) / trials),
            counts=dict(enumerate(tallies.tolist())),
        ))
    return tuple(results)


def _fidelity_hits(e: SymmetricEnsemble, s: Strategy, seed: int) -> Callable:
    """Counter of trials whose retransmitted state passes the accept test on slot 2."""
    accept = np.clip(_overlaps(e, s), 0.0, 1.0)
    flat, width = accept.ravel(), accept.shape[1]
    return lambda start, stop, signal, outcome: int(
        (counter_uniforms(seed, 2, start, stop) < flat.take(signal * width + outcome)).sum())


def _error_hits(e: SymmetricEnsemble, p: Pom, a: Assignment) -> Callable:
    """Counter of trials whose outcome is read as a signal other than the one sent."""
    read_as = np.array(_signal_indices(e, p, a), dtype=np.int64)
    return lambda start, stop, signal, outcome: int((read_as[outcome] != signal).sum())


def simulate_fidelity(e: SymmetricEnsemble, s: Strategy, trials: int,
                      seed: int = 0) -> SimResult:
    """Estimate the strategy's average fidelity by direct simulation.

    Each trial samples a signal, samples the measurement outcome from the
    Born distribution, retransmits the outcome's state and accepts with
    probability |<signal|retransmitted>|^2.
    """
    hits = _fidelity_hits(e, s, seed)  # checks the records' types before s.pom is read
    return _estimate(e, s.pom, trials, seed, hits)[0]


def simulate_error(e: SymmetricEnsemble, p: Pom, a: Assignment, trials: int,
                   seed: int = 0) -> SimResult:
    """Estimate the identification error of a measurement with an assignment."""
    return _estimate(e, p, trials, seed, _error_hits(e, p, a))[0]


def simulate_strategy(e: SymmetricEnsemble, s: Strategy, a: Assignment, trials: int,
                      seed: int = 0) -> tuple[SimResult, SimResult]:
    """Fidelity and identification error of a strategy, from one shared draw.

    Returns the same two results, bit for bit, as simulate_fidelity(e, s,
    trials, seed) and simulate_error(e, s.pom, a, trials, seed), but draws
    each trial's signal and outcome once.
    """
    hits = _fidelity_hits(e, s, seed)  # checks the records' types before s.pom is read
    return _estimate(e, s.pom, trials, seed, hits, _error_hits(e, s.pom, a))
