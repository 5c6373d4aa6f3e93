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

Every block of a simulation is drawn into one workspace of buffers, the
splitmix shifts of each draw into a buffer free at that point, so no array of
a block's length is allocated per block, and its indices are counted in place.
A block of CHUNK = 2**15 trials spends 33 bytes a trial, 8 on each of the
counter offsets, two draw buffers and the index and 1 on the step mask: 1 MiB,
within one 2 MiB per-core L2 cache. The outcome is found by the guide-table
(indexed search) method of Chen & Asau (1974): a table of each signal's
threshold counts at equal bins of the draw range [0, 2**53), built from the
integer limits below, starts the inverse-CDF walk at the draw's bin. Its
budget of entries grows with the outcomes, so a bin holds fewer than 8 limits
on average however many there are, and after WALK_ALL passes the walk goes on
with only the trials still stepping, at most half a block, whose positions are
the one array a block may allocate. Every uniform picks the same outcome as
counting all the thresholds.

counter_uniforms gives each slot's draws as the integers k = u 2**53 < 2**53
of its uniforms u, and the simulator decides on k alone, against one table of
integer limits ceil(c 2**53) a threshold c, each rule exact, so every result is
bit for bit that of comparing the doubles u:
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
# trials per block: the counter offsets below and the workspace every block reuses
# (two draw buffers and the index) take 8 bytes a trial each, and the step mask 1,
# 33 bytes a trial: 1 MiB, which fits one 2 MiB per-core L2 cache with the guide
# table, and memory does not grow with the trials
CHUNK = 1 << 15
# most entries of a guide table, 64 KiB of int64, so that it stays cache-resident,
# or a quarter of the signal-outcome pairs where that is more, so that a signal's
# bins grow with its outcomes and the walk stays a few passes; one a signal where
# there are more signals
GUIDE_ENTRIES = 1 << 13
# passes of the guide walk over all of a block's trials: a bin holds fewer than 8
# limits on average under that budget, so after these the walk takes only the
# trials still stepping, where they are at most half
WALK_ALL = 8
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


def _outcome_limits(e: SymmetricEnsemble, p: Pom) -> np.ndarray:
    """Limits of the cumulative outcome distribution per signal of a measurement
    validate_pom accepts, its only check: the rows are clipped into [0, 1], which
    moves the Born entries t + r.n by at most PSD and rounding, and renormalized."""
    violations = validate_pom(p)
    if violations:
        raise ValidationError("; ".join(violations))
    cum = bloch.born(*p.terms, e.vectors)
    np.clip(cum, 0.0, 1.0, out=cum)
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    cum[:, -1] = 1.0
    return _limits(cum)


@dataclass(frozen=True)
class _Workspace:
    """What every block of one simulation reuses: the outcome limits[j * K + k], their
    guide table and the block buffers.

    The guide table (Chen & Asau 1974) cuts the draws [0, 2**53) into bins of
    2**shift: first[j * bins + b] is j * K plus the count of row j's limits at or
    below b 2**shift, and passes is the most limits strictly inside any one bin.
    """
    limits: np.ndarray
    shift: int
    first: np.ndarray
    passes: int
    k0: np.ndarray
    k1: np.ndarray
    index: np.ndarray
    step: np.ndarray


def _workspace(limits: np.ndarray, size: int) -> _Workspace:
    """Workspace for limits[m, K] and blocks of up to size trials; the guide table has
    at most max(GUIDE_ENTRIES, m K / 4) entries, or one a row where m is larger.

    A limit in bin b = limit >> shift, capped at bins, lies on b's lower edge
    b 2**shift when it is a multiple of 2**shift and strictly inside b otherwise;
    the limits at or below b 2**shift are those of the bins before b and b's edge.
    The table is built a chunk of about CHUNK limits at a time, so what building
    it takes beside the limits and the table does not grow with m K.
    """
    m, k = limits.shape
    # the largest power of two with m * bins within the budget, and at least 1
    bins = max(1, 1 << (max(GUIDE_ENTRIES, limits.size // 4) // m).bit_length() >> 1)
    shift = 54 - bins.bit_length()
    first = np.empty((m, bins), dtype=np.int64)
    passes = 0
    rows = max(1, CHUNK // k)
    for top in range(0, m, rows):
        part = limits[top:top + rows]
        signal = np.arange(part.shape[0])[:, None]
        off_edge = (part & ((1 << shift) - 1)) != 0
        cells = part >> shift
        np.minimum(cells, bins, out=cells)
        cells += signal * (bins + 1)
        cells <<= 1
        cells += off_edge
        # count[j, b, 1] of row j's limits strictly inside bin b, count[j, b, 0] on its edge
        count = np.bincount(cells.ravel(), minlength=2 * part.shape[0] * (bins + 1))
        count = count.reshape(-1, bins + 1, 2)[:, :bins]
        head = first[top:top + rows]
        np.cumsum(count.sum(axis=2), axis=1, out=head)
        head -= count[..., 1]
        head += (signal + top) * k
        passes = max(passes, int(count[..., 1].max()))
    return _Workspace(limits.ravel(), shift, first.ravel(), passes,
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64),
                      np.empty(size, dtype=np.int64), np.empty(size, dtype=bool))


def _draw(e: SymmetricEnsemble, work: _Workspace, seed: int, start: int, stop: int) -> np.ndarray:
    """Index signal * K + outcome of trials start..stop-1, as a view into work's
    buffers.

    The outcome counts the limits of the signal's row at or below the draw k1.
    The guide table gives that count up to the lower edge of k1's bin. Rows do
    not decrease, so each pass then moves the index one column on where k1
    reaches the limit it points at; the last, 2**53, never counts. An index that
    did not move stays, so after WALK_ALL passes the walk takes only the trials
    that moved, where they are at most half. The signal, bin and step rules are
    the module's, each exact.
    """
    index, step = work.index[:stop - start], work.step[:stop - start]
    # each draw holds its splitmix shifts in a buffer that is free at that point
    k0 = counter_uniforms(seed, 0, start, stop, out=work.k0, scratch=work.index)
    _signal(k0, e.m, out=index)
    k1 = counter_uniforms(seed, 1, start, stop, out=work.k1, scratch=work.k0)
    # k0's memory is free. Indices are always in range, and mode="wrap" writes out
    # in place where mode="raise" would buffer it.
    cell = np.right_shift(k1, work.shift, out=k0)
    index <<= 53 - work.shift
    cell += index
    np.take(work.first, cell, out=index, mode="wrap")
    for done in range(1, work.passes + 1):
        np.greater_equal(k1, np.take(work.limits, index, out=k0, mode="wrap"), out=step)
        index += step
        if done == WALK_ALL < work.passes and 2 * np.count_nonzero(step) <= step.size:
            # a trial that did not step is done, so the rest of the walk takes only
            # those that did, their draws and indices gathered into halves of k0 and k1
            live = np.flatnonzero(step)
            n = live.size
            key = np.take(k1, live, out=k0[:n], mode="wrap")
            at = np.take(index, live, out=k1[:n], mode="wrap")
            for _ in range(work.passes - done):
                limit = np.take(work.limits, at, out=k0[n:2 * n], mode="wrap")
                at += np.greater_equal(key, limit, out=step[:n])
            index[live] = at
            break
    return index


def _estimate(e: SymmetricEnsemble, p: Pom, trials: int, seed: int,
              accept: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """counts[j, k] of the trials that sent signal j and saw outcome k, and the trials
    that pass the accept test on slot 2, drawn only when the accept limits
    ceil(a 2**53) are given: k2 < ceil(a 2**53) exactly when u2 < a."""
    trials = check_integer(trials, "trials", 1)
    limits = _outcome_limits(e, p)
    # allocated before the workspace, the counts can reuse the freed float table's
    # pages: qrelay simulate at m = K = 1000 peaks 5.5 MiB lower in RSS under glibc
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
    return counts.reshape(limits.shape), hits


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
    accept = _limits(_overlaps(e, s).ravel())  # checks e and s, so it runs before s.pom is read
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
    accept = _limits(_overlaps(e, s).ravel())  # checks e and s, so it runs before s.pom is read
    read_as = _signal_indices(e, s.pom, a)
    counts, hits = _estimate(e, s.pom, trials, seed, accept)
    return _result(counts, hits), _result(counts, _errors(counts, read_as))
