"""Monte Carlo simulation of measure-and-retransmit strategies.

Randomness comes from a counter-based generator: the draw for (trial, slot)
is a pure function of the seed, so any partition of the trial range into
chunks reproduces bit-identical results and no generator state is carried
between calls. Each trial spends one slot on the transmitted signal, one on
the measurement outcome and, for fidelity estimates, one on the accept/reject
test of the retransmitted state against the original. A block of trials is
one index per trial, signal * K + outcome for K outcomes: its histogram gives
the outcome tallies and the error count, and the accept test looks up its
probability by it. simulate_strategy draws the index once for both estimates,
three slots a trial, not five, each bit for bit as its own run would give.

Every block of a simulation is drawn into one workspace of buffers, so only
the splitmix temporary is allocated per block, and its indices are counted in
place. A block of CHUNK = 2**15 trials spends 41 bytes a trial, 8 on each of
the counter offsets, two draw buffers, the index and the splitmix temporary
and 1 on the step mask: 1.3 MiB, within one 2 MiB per-core L2 cache. The
outcome is found by the guide-table (indexed search) method of Chen & Asau
(1974): a table of each signal's threshold counts at equal bins of [0, 1)
starts the inverse-CDF walk at the uniform's bin, so a few passes finish it
however many outcomes there are. Every uniform picks the same outcome as
counting all the thresholds.

The simulator draws each slot as the integer k = u 2**53 < 2**53 of its
uniform u and decides on k alone, each rule exact, so every result is bit for
bit that of comparing the doubles:
- signal: trunc(k0 (m 2**-53)) is trunc(u0 m), one rounding of the same exact product;
- bin: k1 >> (53 - log2 bins) is floor(u1 bins), bins a power of two;
- outcome step: k1 >= ceil(c 2**53) exactly when u1 >= c;
- accept: k2 < ceil(a 2**53) exactly when u2 < a, also for a a hair outside [0, 1].

Estimates are plain frequencies with the binomial standard error
sqrt(est (1 - est) / trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .ensembles import SymmetricEnsemble
from .errors import DomainError, ValidationError, check_integer
from .fidelity import Strategy, _overlaps
from .measurements import Assignment, Pom, _signal_indices, validate_pom

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# slot 3 is unused, but the slot count fixes each stream's counters, so it stays 4
N_SLOTS = 4
# counter step from one trial to the next within a slot's stream, mod 2**64
_STRIDE = np.uint64(N_SLOTS * int(GOLDEN) % (1 << 64))
# trials per block: the counter offsets below, the workspace every block reuses
# (two draw buffers and the index) and the splitmix temporary take 8 bytes a trial
# each, and the step mask 1, 41 bytes a trial: 1.3 MiB, which fits one 2 MiB
# per-core L2 cache with the guide table, and memory does not grow with the trials
CHUNK = 1 << 15
# most entries of a guide table, 64 KiB of int64, so that it stays cache-resident;
# one a signal where there are more signals
GUIDE_ENTRIES = 1 << 13
# counter offsets of a block's trials from its first, t * _STRIDE for t < CHUNK,
# built in place: a range is filled from it with one add a piece
_OFFSETS = np.arange(CHUNK, dtype=np.uint64)
_OFFSETS *= _STRIDE


@dataclass(frozen=True)
class SimResult:
    trials: int
    estimate: float
    std_error: float
    counts: dict[int, int]


def _mix(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 output stage, in place on a uint64 buffer, with each shift held
    in tmp, as long, so that it allocates nothing; the arithmetic wraps modulo
    2**64 on purpose."""
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=tmp)


def counter_uniforms(seed: int, slot: int, start: int, stop: int, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Uniform doubles in [0, 1) for trials start..stop-1 of one slot's stream.

    The value at (trial, slot) depends only on the seed, never on how the
    range is split across calls. Given out, a contiguous int64 array of at
    least stop - start values, it writes each value times 2**53, the integer
    below 2**53 the double is made from, into out[:stop - start] and returns
    that view.
    """
    seed = check_integer(seed, "seed", 0, 2 ** 64)
    slot = check_integer(slot, "slot", 0, N_SLOTS)
    start = check_integer(start, "start", 0)
    stop = check_integer(stop, "stop", start)
    n = stop - start
    if out is None:
        out = np.empty(n)
    elif (not isinstance(out, np.ndarray) or out.dtype != np.int64
          or out.ndim != 1 or not out.flags.c_contiguous or out.size < n):
        raise DomainError(f"out must be a contiguous 1-d int64 array of at least {n} values")
    out = out[:n]
    x = out.view(np.uint64)
    counter = (start * N_SLOTS + slot + 1) * int(GOLDEN) + seed   # of trial start
    for i in range(0, n, _OFFSETS.size):
        piece = x[i:i + _OFFSETS.size]
        np.add(_OFFSETS[:piece.size], np.uint64((counter + i * int(_STRIDE)) % (1 << 64)),
               out=piece)
    tmp = np.empty(n, dtype=np.uint64)
    _mix(x, tmp)
    # the top 53 bits, exact as a signed integer
    if out.dtype == np.int64:
        np.right_shift(x, np.uint64(11), out=x)
        return out
    np.right_shift(x, np.uint64(11), out=tmp)
    return np.multiply(tmp.view(np.int64), 1.0 / (1 << 53), out=out)


def _limits(p: np.ndarray) -> np.ndarray:
    """ceil(p 2**53) as int64: a draw k = u 2**53 has u >= p exactly when k >= it, and
    u < p exactly when k < it, as p 2**53 is exact and k an integer."""
    return np.ceil(p * float(1 << 53)).astype(np.int64)


def _signal(k: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """trunc(k (m 2**-53)) into out: one rounding of the exact product u m, as
    trunc(u m) has for u = k 2**-53 <= 1 - 2**-53, so below m for every m up to 2**52."""
    return np.multiply(k, m / (1 << 53), out=out, casting="unsafe")


def _outcome_table(e: SymmetricEnsemble, p: Pom) -> np.ndarray:
    """Cumulative outcome distribution per signal of a measurement validate_pom
    accepts, its only check: the rows are clipped into [0, 1], which moves the
    Born entries t + r.n by at most PSD and rounding, and renormalized."""
    violations = validate_pom(p)
    if violations:
        raise ValidationError("; ".join(violations))
    cum = bloch.born(*p.terms, e.vectors)
    np.clip(cum, 0.0, 1.0, out=cum)
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    cum[:, -1] = 1.0
    return cum


@dataclass(frozen=True)
class _Workspace:
    """What every block of one simulation reuses: the outcome table as integer
    thresholds, limits[j * K + k] = ceil(cum[j, k] 2**53), its guide table and the
    block buffers.

    The guide table (Chen & Asau 1974) cuts [0, 1) into bins equal parts:
    first[j * bins + b] is j * K plus the count of row j's thresholds at or below
    b / bins, and passes is the most thresholds strictly inside any one bin.
    """
    limits: np.ndarray
    bins: int
    first: np.ndarray
    passes: int
    k0: np.ndarray
    k1: np.ndarray
    index: np.ndarray
    step: np.ndarray


def _workspace(cum: np.ndarray, size: int) -> _Workspace:
    """Workspace for cum[m, K] and blocks of up to size trials; the guide table has
    at most GUIDE_ENTRIES entries, or one a row where m is larger.

    With c = cum * bins, exact, a threshold is at or below b / bins when ceil(c) <= b,
    and strictly inside bin b when c is not an integer and floor(c) = b.
    """
    m, k = cum.shape
    # the largest power of two with m * bins <= GUIDE_ENTRIES, and at least 1
    bins = max(1, 1 << (GUIDE_ENTRIES // m).bit_length() >> 1)
    c = cum * bins
    signal = np.arange(m)[:, None]
    cells = signal * (bins + 1) + np.clip(np.ceil(c), 0, bins).astype(np.int64)
    at_or_below = np.bincount(cells.ravel(), minlength=m * (bins + 1)).reshape(m, bins + 1)
    floor = np.floor(c)
    inside = (floor != c) & (floor < bins)
    passes = int(np.bincount((signal * bins + floor.astype(np.int64))[inside], minlength=1).max())
    first = (signal * k + np.cumsum(at_or_below[:, :bins], axis=1)).ravel()
    return _Workspace(_limits(cum).ravel(), bins, first, passes,
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64),
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=bool))


def _draw(e: SymmetricEnsemble, work: _Workspace, seed: int, start: int, stop: int) -> np.ndarray:
    """Index signal * K + outcome of trials start..stop-1, as a view into work's
    buffers.

    The outcome counts the thresholds of the signal's row at or below the uniform
    u. The guide table gives that count up to the lower edge of u's bin. Rows do
    not decrease, so each pass then moves the index one column on where u
    reaches the threshold it points at; the last, 1, never counts. Each rule
    runs on the draw k = u 2**53, as exactly as on u:
    - signal: trunc(k0 (m 2**-53)) rounds the product u0 m once, as trunc(u0 m) does;
    - bin: k1 >> (53 - log2 bins) is floor(u1 bins);
    - step: k1 >= ceil(c 2**53) exactly when u1 >= c.
    """
    n = stop - start
    index, step = work.index[:n], work.step[:n]
    k0 = counter_uniforms(seed, 0, start, stop, out=work.k0)
    _signal(k0, e.m, out=index)
    k1 = counter_uniforms(seed, 1, start, stop, out=work.k1)
    # k0's memory is free. Indices are always in range, and mode="wrap" writes out
    # in place where mode="raise" would buffer it.
    cell = np.right_shift(k1, 54 - work.bins.bit_length(), out=k0)
    index *= work.bins
    cell += index
    np.take(work.first, cell, out=index, mode="wrap")
    for _ in range(work.passes):
        np.greater_equal(k1, np.take(work.limits, index, out=k0, mode="wrap"), out=step)
        index += step
    return index


def _estimate(e: SymmetricEnsemble, p: Pom, trials: int, seed: int,
              accept: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """counts[j, k] of the trials that sent signal j and saw outcome k, and the trials
    that pass the accept test on slot 2, drawn only when an accept table is given:
    k2 < ceil(a 2**53) exactly when u2 < a."""
    trials = check_integer(trials, "trials", 1)
    cum = _outcome_table(e, p)
    work = _workspace(cum, min(CHUNK, trials))
    counts = np.zeros(cum.size, dtype=np.int64)
    limits = None if accept is None else _limits(accept)
    hits = 0
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        index = _draw(e, work, seed, start, stop)
        np.add.at(counts, index, 1)
        if limits is not None:
            n = stop - start
            k2 = counter_uniforms(seed, 2, start, stop, out=work.k0)
            passed = np.less(k2, np.take(limits, index, out=work.k1[:n], mode="wrap"),
                             out=work.step[:n])
            hits += int(np.count_nonzero(passed))
    return counts.reshape(cum.shape), hits


def _result(counts: np.ndarray, hits: int) -> SimResult:
    """Frequency of hits over the trials counted in counts[j, k], with their outcome tallies."""
    trials = int(counts.sum())
    estimate = hits / trials
    return SimResult(trials=trials, estimate=estimate,
                     std_error=math.sqrt(estimate * (1.0 - estimate) / trials),
                     counts=dict(enumerate(counts.sum(axis=0).tolist())))


def _errors(counts: np.ndarray, read_as: list[int]) -> int:
    """Trials counted in counts[j, k] whose outcome k is read as a signal other than j."""
    return int(counts.sum() - counts[read_as, range(len(read_as))].sum())


def simulate_fidelity(e: SymmetricEnsemble, s: Strategy, trials: int,
                      seed: int = 0) -> SimResult:
    """Estimate the strategy's average fidelity by direct simulation.

    Each trial samples a signal, samples the measurement outcome from the
    Born distribution, retransmits the outcome's state and accepts with
    probability |<signal|retransmitted>|^2.
    """
    accept = _overlaps(e, s).ravel()  # checks e and s, so it runs before s.pom is read
    return _result(*_estimate(e, s.pom, trials, seed, accept))


def simulate_error(e: SymmetricEnsemble, p: Pom, a: Assignment, trials: int,
                   seed: int = 0) -> SimResult:
    """Estimate the identification error of a measurement with an assignment."""
    read_as = _signal_indices(e, p, a)
    counts, _ = _estimate(e, p, trials, seed)
    return _result(counts, _errors(counts, read_as))


def simulate_strategy(e: SymmetricEnsemble, s: Strategy, a: Assignment, trials: int,
                      seed: int = 0) -> tuple[SimResult, SimResult]:
    """Fidelity and identification error of a strategy, from one shared draw.

    Returns the same two results, bit for bit, as simulate_fidelity(e, s,
    trials, seed) and simulate_error(e, s.pom, a, trials, seed), but draws
    each trial's index once.
    """
    accept = _overlaps(e, s).ravel()  # checks e and s, so it runs before s.pom is read
    read_as = _signal_indices(e, s.pom, a)
    counts, hits = _estimate(e, s.pom, trials, seed, accept)
    return _result(counts, hits), _result(counts, _errors(counts, read_as))
