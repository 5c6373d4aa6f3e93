"""Monte Carlo simulation of measure-and-retransmit strategies.

Randomness comes from a counter-based generator: the draw for (trial, slot)
is a pure function of the seed, so any partition of the trial range into
chunks reproduces bit-identical results and no generator state is carried
between calls. Each trial spends one slot on the transmitted signal, one on
the measurement outcome and, for fidelity estimates, one on the accept/reject
test of the retransmitted state against the original. A block of trials is
one index per trial, signal * W + outcome, for rows of W columns, the outcome
count K rounded up to a power of two: its histogram gives the outcome tallies
and the error count, and the accept test looks up its probability by it.
simulate_strategy draws the index once for both estimates, three slots a trial,
not five, each bit for bit as its own run would give.

Every block of a simulation is drawn into one workspace of buffers, the
splitmix shifts of each draw into a buffer free at that point, so no array of
a block's length is allocated per block, and its indices are counted in place.
A block of CHUNK = 2**15 trials spends 33 bytes a trial, 8 on each of the
counter offsets, two draw buffers and the index and 1 on the step mask: 1 MiB,
within one 2 MiB per-core L2 cache. The outcome is found by a binary search
(Knuth, TAOCP vol. 3, section 6.2.1) over the signal's row of the integer limits
below, padded to W columns with the limit 2**53 that no draw reaches: log2 W
rounds of one gather, one compare and one shift-add, with no table beyond the
limits. Every uniform picks the same outcome as counting all the thresholds.

counter_uniforms gives each slot's draws as the integers k = u 2**53 < 2**53
of its uniforms u, and the simulator decides on k alone, against one table of
integer limits ceil(c 2**53) a threshold c, each rule exact, so every result is
bit for bit that of comparing the doubles u:
- signal: trunc(k0 (m 2**-53)) is trunc(u0 m), one rounding of the same exact product;
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
# trials per block: the counter offsets below and the workspace every block reuses
# (two draw buffers and the index) take 8 bytes a trial each, and the step mask 1,
# 33 bytes a trial: 1 MiB, which fits one 2 MiB per-core L2 cache, and memory does
# not grow with the trials
CHUNK = 1 << 15
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


def _buffer(a: np.ndarray | None, name: str, n: int) -> np.ndarray:
    """a[:n] of a writable contiguous 1-d int64 array a of at least n values, or n new
    values where a is None."""
    if a is None:
        return np.empty(n, dtype=np.int64)
    if (not isinstance(a, np.ndarray) or a.dtype != np.int64 or a.ndim != 1
            or not (a.flags.c_contiguous and a.flags.writeable) or a.size < n):
        raise DomainError(f"{name} must be a writable contiguous 1-d int64 array of at least {n} values")
    return a[:n]


def counter_uniforms(seed: int, slot: int, start: int, stop: int, *,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Draws k = u 2**53 < 2**53, as int64, of the uniforms u in [0, 1) for trials
    start..stop-1 of one slot's stream.

    The draw at (trial, slot) depends only on the seed, never on how the range
    is split across calls. Given out, a writable contiguous int64 array of at
    least stop - start values, it writes the draws into out[:stop - start] and
    returns that view; otherwise it allocates them. Given scratch, an array of
    the same kind that does not overlap out, it holds the splitmix shifts there,
    overwriting scratch[:stop - start]; otherwise it allocates them.
    """
    seed = check_integer(seed, "seed", 0, 2 ** 64)
    slot = check_integer(slot, "slot", 0, N_SLOTS)
    start = check_integer(start, "start", 0)
    stop = check_integer(stop, "stop", start)
    n = stop - start
    out = _buffer(out, "out", n)
    tmp = _buffer(scratch, "scratch", n)
    if np.may_share_memory(out, tmp):
        raise DomainError("scratch must not overlap out")
    x = out.view(np.uint64)
    counter = (start * N_SLOTS + slot + 1) * int(GOLDEN) + seed   # of trial start
    for i in range(0, n, _OFFSETS.size):
        piece = x[i:i + _OFFSETS.size]
        np.add(_OFFSETS[:piece.size], np.uint64((counter + i * int(_STRIDE)) % (1 << 64)),
               out=piece)
    _mix(x, tmp.view(np.uint64))
    # the top 53 bits, exact as a signed integer
    np.right_shift(x, np.uint64(11), out=x)
    return out


def _limits(p: np.ndarray) -> np.ndarray:
    """ceil(p 2**53) as int64, worked out in p, which it overwrites: a draw k = u 2**53
    has u >= p exactly when k >= it, and u < p exactly when k < it, as p 2**53 is exact."""
    return np.ceil(np.multiply(p, float(1 << 53), out=p), out=p).astype(np.int64)


def _signal(k: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """trunc(k (m 2**-53)) into out: one rounding of the exact product u m, as
    trunc(u m) has for u = k 2**-53 <= 1 - 2**-53, so below m for every m up to 2**52."""
    return np.multiply(k, m / (1 << 53), out=out, casting="unsafe")


def _padded(a: np.ndarray, fill: float) -> np.ndarray:
    """a[m, K] widened with fill to W columns, K rounded up to a power of two, or a
    itself where K is one."""
    m, k = a.shape
    width = 1 << (k - 1).bit_length()
    if width == k:
        return a
    out = np.full((m, width), fill)
    out[:, :k] = a
    return out


def _outcome_limits(e: SymmetricEnsemble, p: Pom) -> np.ndarray:
    """Limits of the cumulative outcome distribution per signal of a measurement
    validate_pom accepts, its only check: the rows are clipped into [0, 1], which
    moves the Born entries t + r.n by at most PSD and rounding, and renormalized.
    Each row ends in the limit 2**53 that no draw reaches, from outcome K - 1 on
    through its padding."""
    violations = validate_pom(p)
    if violations:
        raise ValidationError("; ".join(violations))
    cum = bloch.born(*p.terms, e.vectors)
    np.clip(cum, 0.0, 1.0, out=cum)
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    cum = _padded(cum, 1.0)
    cum[:, len(p) - 1] = 1.0
    return _limits(cum)


@dataclass(frozen=True)
class _Workspace:
    """What every block of one simulation reuses: the outcome limits[j * W + k], in
    rows of W = 2**depth columns, and the block buffers."""
    limits: np.ndarray
    depth: int
    k0: np.ndarray
    k1: np.ndarray
    index: np.ndarray
    step: np.ndarray


def _workspace(limits: np.ndarray, size: int) -> _Workspace:
    """Workspace for limits[m, W] and blocks of up to size trials."""
    return _Workspace(limits.ravel(), limits.shape[1].bit_length() - 1,
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64),
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=bool))


def _draw(e: SymmetricEnsemble, work: _Workspace, seed: int, start: int, stop: int) -> np.ndarray:
    """Index signal * W + outcome of trials start..stop-1, as a view into work's
    buffers.

    The outcome counts the limits of the signal's row at or below the draw k1.
    The limits a draw can reach, those below 2**53, lead the row in nondecreasing
    order, so the count is found one bit a level, from the top: level l probes the
    limit 2**l - 1 columns past those counted so far and counts 2**l more where k1
    reaches it. The signal and step rules are the module's, each exact.
    """
    index, step = work.index[:stop - start], work.step[:stop - start]
    # each draw holds its splitmix shifts in a buffer that is free at that point
    k0 = counter_uniforms(seed, 0, start, stop, out=work.k0, scratch=work.index)
    _signal(k0, e.m, out=index)
    index <<= work.depth
    k1 = counter_uniforms(seed, 1, start, stop, out=work.k1, scratch=work.k0)
    # k0's memory is free and takes each probe. Indices are always in range, and
    # mode="wrap" writes out in place where mode="raise" would buffer it.
    for level in reversed(range(work.depth)):
        probe = np.take(work.limits[(1 << level) - 1:], index, out=k0, mode="wrap")
        index += np.left_shift(np.greater_equal(k1, probe, out=step), level, out=k0, dtype=np.int64)
    return index


def _estimate(e: SymmetricEnsemble, p: Pom, trials: int, seed: int,
              accept: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """counts[j, k] of the trials that sent signal j and saw outcome k, and the trials
    that pass the accept test on slot 2, drawn only when the accept limits
    ceil(a 2**53) are given: k2 < ceil(a 2**53) exactly when u2 < a."""
    trials = check_integer(trials, "trials", 1)
    limits = _outcome_limits(e, p)
    counts = np.zeros(limits.size, dtype=np.int64)
    work = _workspace(limits, min(CHUNK, trials))
    hits = 0
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        index = _draw(e, work, seed, start, stop)
        np.add.at(counts, index, 1)
        if accept is not None:
            k2 = counter_uniforms(seed, 2, start, stop, out=work.k0, scratch=work.k1)
            passed = np.less(k2, np.take(accept, index, out=work.k1[:k2.size], mode="wrap"),
                             out=work.step[:k2.size])
            hits += int(np.count_nonzero(passed))
    return counts.reshape(limits.shape)[:, :len(p)], hits


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
    # checks e and s, so it runs before s.pom is read; rows padded as the outcome limits
    accept = _limits(_padded(_overlaps(e, s), 0.0).ravel())
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
    # checks e and s, so it runs before s.pom is read; rows padded as the outcome limits
    accept = _limits(_padded(_overlaps(e, s), 0.0).ravel())
    read_as = _signal_indices(e, s.pom, a)
    counts, hits = _estimate(e, s.pom, trials, seed, accept)
    return _result(counts, hits), _result(counts, _errors(counts, read_as))
