"""Monte Carlo estimates and the counter-based randomness contract."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import helpers
import qrelay.simulator as simulator
from qrelay import (Assignment, DomainError, Hermitian2, Pom, SimResult, Strategy, bloch,
                    counter_uniforms, error_probability, greedy_assignment,
                    optimal_retransmission, optimal_strategy_analytic, simulate_error,
                    simulate_fidelity, simulate_strategy, square_root_measurement,
                    symmetric_ensemble, validate_pom)
from qrelay.qubit import PLUS
from qrelay.tolerances import PSD

Z_BASIS = Pom(elements=(Hermitian2(1.0, 0.0, 0j), Hermitian2(0.0, 1.0, 0j)))


def uniforms(seed, slot, start, stop) -> np.ndarray:
    """The uniforms u = k 2**-53 in [0, 1) the draws k stand for, each exact."""
    return counter_uniforms(seed, slot, start, stop) * 2.0 ** -53


def cumulative(e, pom) -> np.ndarray:
    """The thresholds the uniforms are compared with, as doubles: each signal's Born
    row clipped into [0, 1], renormalized and summed, its last entry set to 1."""
    cum = np.clip(bloch.born(*pom.terms, e.vectors), 0.0, 1.0)
    cum = np.cumsum(cum / cum.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    return cum


def test_counter_uniforms_are_deterministic_and_bounded():
    a = counter_uniforms(123, 0, 0, 5000)
    b = counter_uniforms(123, 0, 0, 5000)
    assert np.array_equal(a, b)
    assert a.dtype == np.int64 and int(a.min()) >= 0 and int(a.max()) < 2 ** 53
    # a uniform stream should cover the unit interval roughly evenly
    assert abs(float(uniforms(123, 0, 0, 5000).mean()) - 0.5) < 0.02


def test_counter_uniforms_partition_invariance():
    whole = counter_uniforms(9, 1, 0, 10_000)
    split = np.concatenate([counter_uniforms(9, 1, 0, 3000),
                            counter_uniforms(9, 1, 3000, 10_000)])
    assert np.array_equal(whole, split)


def test_counter_uniforms_streams_are_distinct():
    by_slot = [counter_uniforms(7, slot, 0, 1000) for slot in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(by_slot[i], by_slot[j])
    assert not np.array_equal(counter_uniforms(7, 0, 0, 1000),
                              counter_uniforms(8, 0, 0, 1000))


def test_counter_uniforms_domain_checks():
    with pytest.raises(DomainError):
        counter_uniforms(-1, 0, 0, 10)
    with pytest.raises(DomainError):
        counter_uniforms(2 ** 64, 0, 0, 10)
    with pytest.raises(DomainError):
        counter_uniforms(0, 4, 0, 10)
    with pytest.raises(DomainError):
        counter_uniforms(0, 0, -1, 10)
    with pytest.raises(DomainError):
        counter_uniforms(0, 0, 10, 9)
    for args in ((1.5, 0, 0, 10), (True, 0, 0, 10), (0, 0, 0.5, 10), (0, 0, 0, 10.0)):
        with pytest.raises(DomainError):
            counter_uniforms(*args)
    assert counter_uniforms(0, 0, 10, 10).size == 0
    assert np.array_equal(counter_uniforms(np.uint64(5), 1, np.int64(2), np.int32(9)),
                          counter_uniforms(5, 1, 2, 9))


def test_counter_uniforms_write_into_a_given_buffer():
    # an int64 buffer gets the draws counter_uniforms would allocate
    draws = np.full(5000, -1, dtype=np.int64)
    view = counter_uniforms(3, 2, 100, 4100, out=draws)
    assert view.size == 4000 and view.ctypes.data == draws.ctypes.data
    assert np.array_equal(view, counter_uniforms(3, 2, 100, 4100))
    assert view.max() < 2 ** 53 and np.all(draws[4000:] == -1)
    assert counter_uniforms(3, 2, 100, 100, out=draws).size == 0
    # a scratch buffer takes the splitmix shifts and leaves the draws unchanged
    scratch = np.full(5000, -1, dtype=np.int64)
    for given in ({}, {"out": draws}):
        kept = counter_uniforms(3, 2, 100, 4100, scratch=scratch, **given)
        assert np.array_equal(kept, view) and np.any(scratch[:4000] != -1)
        assert np.all(scratch[4000:] == -1)
    assert counter_uniforms(3, 2, 100, 100, out=draws, scratch=draws).size == 0
    for bad in (np.empty(4000), np.empty(3999, dtype=np.int64), np.empty(4000, dtype=np.float32),
                np.empty((2, 2000), dtype=np.int64), [0] * 4000, np.empty(4000, dtype=np.int32),
                np.empty(4000, dtype=np.uint64), np.empty(8000, dtype=np.int64)[::2],
                np.frombuffer(bytes(8 * 4000), dtype=np.int64)):   # read-only
        for name in ("out", "scratch"):
            with pytest.raises(DomainError, match=f"{name} must be a writable contiguous 1-d int64 array"):
                counter_uniforms(3, 2, 100, 4100, **{name: bad})
    # scratch may not share memory with the draws, in whole or in part
    for bad in (draws, draws[1000:], draws[:4000].view(np.uint64).view(np.int64)):
        with pytest.raises(DomainError, match="scratch must not overlap out"):
            counter_uniforms(3, 2, 100, 4100, out=draws, scratch=bad)
    scratch = np.empty(8000, dtype=np.int64)
    assert np.array_equal(counter_uniforms(3, 2, 100, 4100, out=scratch[:4000], scratch=scratch[4000:]),
                          view)


def _splitmix64_uniform(seed: int, slot: int, trial: int) -> int:
    """The stream's draw k = u 2**53 at (trial, slot), in plain Python integers mod 2**64."""
    mask = (1 << 64) - 1
    z = (seed + (trial * 4 + slot + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z >> 11


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("start", [0, 2 ** 32 - 3])
def test_counter_uniforms_match_reference_splitmix64(seed, start):
    for slot in range(4):
        expected = [_splitmix64_uniform(seed, slot, t) for t in range(start, start + 6)]
        assert counter_uniforms(seed, slot, start, start + 6).tolist() == expected
    # a range longer than a block is filled piece by piece: check each piece's ends
    stop = start + 2 * simulator.CHUNK + 5
    whole = counter_uniforms(seed, 3, start, stop)
    for t in (0, 1, simulator.CHUNK - 1, simulator.CHUNK, 2 * simulator.CHUNK, stop - start - 1):
        assert whole[t] == _splitmix64_uniform(seed, 3, start + t)


def test_degenerate_ensemble_fidelity_is_exactly_one():
    e = symmetric_ensemble(4, 0.0)
    s = Strategy(pom=Z_BASIS, retransmit=(PLUS, PLUS))
    result = simulate_fidelity(e, s, 10_000, seed=3)
    assert result.estimate == 1.0
    assert result.std_error == 0.0
    assert sum(result.counts.values()) == 10_000


def test_fidelity_estimate_brackets_the_floor():
    e = symmetric_ensemble(3, math.pi / 2)
    s = optimal_strategy_analytic(3, math.pi / 2)
    result = simulate_fidelity(e, s, 1_000_000, seed=0)
    assert abs(result.estimate - 0.75) <= 4.0 * result.std_error
    assert result.trials == 1_000_000


def test_fidelity_estimate_two_signal_case():
    e = symmetric_ensemble(2, math.pi / 3)
    s = optimal_strategy_analytic(2, math.pi / 3)
    result = simulate_fidelity(e, s, 1_000_000, seed=0)
    expected = 0.5 * (1 + math.sqrt(0.25 + 9 / 16))
    assert abs(result.estimate - expected) <= 4.0 * result.std_error


def test_error_estimate_is_exactly_zero_for_orthogonal_signals():
    e = symmetric_ensemble(2, math.pi / 2)
    pom = square_root_measurement(e)
    result = simulate_error(e, pom, helpers.identity_assignment(2), 10_000, seed=5)
    assert result.estimate == 0.0
    assert result.std_error == 0.0


def test_error_estimate_degenerate_ensemble():
    e = symmetric_ensemble(5, 0.0)
    from qrelay import greedy_assignment
    assignment = greedy_assignment(e, Z_BASIS)
    result = simulate_error(e, Z_BASIS, assignment, 200_000, seed=1)
    assert abs(result.estimate - (1 - 1 / 5)) <= 4.0 * result.std_error


def test_error_estimate_square_root_measurement():
    e = symmetric_ensemble(4, math.pi / 4)
    pom = square_root_measurement(e)
    result = simulate_error(e, pom, helpers.identity_assignment(4), 1_000_000, seed=0)
    exact = error_probability(e, pom, helpers.identity_assignment(4))
    assert abs(result.estimate - exact) <= 4.0 * result.std_error
    assert sum(result.counts.values()) == 1_000_000


def test_std_error_is_binomial():
    e = symmetric_ensemble(3, 0.9)
    s = optimal_strategy_analytic(3, 0.9)
    result = simulate_fidelity(e, s, 40_000, seed=2)
    expected = math.sqrt(result.estimate * (1 - result.estimate) / 40_000)
    assert result.std_error == pytest.approx(expected, abs=1e-15)


def test_chunked_runs_match_single_pass(monkeypatch):
    e = symmetric_ensemble(3, 1.0)
    s = optimal_strategy_analytic(3, 1.0)
    pom = square_root_measurement(e)
    ident = helpers.identity_assignment(3)
    whole_f = simulate_fidelity(e, s, 5000, seed=11)
    whole_e = simulate_error(e, pom, ident, 5000, seed=11)
    monkeypatch.setattr(simulator, "CHUNK", 700)
    assert simulate_fidelity(e, s, 5000, seed=11) == whole_f
    assert simulate_error(e, pom, ident, 5000, seed=11) == whole_e


@pytest.mark.parametrize("trials,chunk", [(999, 1 << 20), (1000, 1 << 20), (2345, 500)])
def test_shared_pass_matches_separate_estimates(monkeypatch, trials, chunk):
    e = symmetric_ensemble(5, 0.9)
    s = optimal_strategy_analytic(5, 0.9, 8, 0.3)
    assignment = greedy_assignment(e, s.pom)
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    separate = (simulate_fidelity(e, s, trials, seed=21),
                simulate_error(e, s.pom, assignment, trials, seed=21))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return counter_uniforms(*args, **kwargs)

    monkeypatch.setattr(simulator, "counter_uniforms", counted)
    for run, expected, slots in (
            (lambda: simulate_strategy(e, s, assignment, trials, seed=21), separate, 3),
            (lambda: simulate_fidelity(e, s, trials, seed=21), separate[0], 3),
            (lambda: simulate_error(e, s.pom, assignment, trials, seed=21), separate[1], 2)):
        calls.clear()
        assert run() == expected
        # signal and outcome slots, and the accept slot for a fidelity, each drawn
        # once per trial in one call per block
        drawn = collections.Counter()
        for _, slot, start, stop in calls:
            drawn[slot] += stop - start
        assert drawn == dict.fromkeys(range(slots), trials)
        assert len(calls) == slots * -(-trials // chunk)


@pytest.mark.parametrize("seed", range(8))
def test_histogram_matches_the_per_trial_oracle(monkeypatch, seed):
    """The error hits and tallies read from the index histogram equal those of
    reading each trial's outcome, for many-to-one assignments that never read
    some signals, with the draw split across the block boundaries."""
    rng = np.random.default_rng(seed)
    m, outcomes = int(rng.integers(2, 9)), int(rng.integers(2, 11))
    e = symmetric_ensemble(m, float(rng.uniform(0.0, math.pi / 2)))
    pom = helpers.random_pom(rng, outcomes)
    read = rng.choice(m, size=int(rng.integers(1, m)), replace=False)  # never all signals
    read_as = rng.choice(read, size=outcomes)
    assignment = Assignment(outcome_to_signal=dict(enumerate(read_as.tolist())))
    chunk = int(rng.integers(300, 1000))
    trials = 3 * chunk + int(rng.integers(1, chunk))
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    result = simulate_error(e, pom, assignment, trials, seed=seed)
    limits = simulator._outcome_limits(e, pom)
    cuts = [0, chunk // 2, chunk + 1, 3 * chunk - 1, trials]
    index = np.concatenate([simulator._draw(e, simulator._workspace(limits, b - a), seed, a, b)
                            for a, b in zip(cuts, cuts[1:])])
    signal, outcome = np.divmod(index, outcomes)
    assert np.array_equal(signal, np.minimum(
        (uniforms(seed, 0, 0, trials) * m).astype(np.int64), m - 1))
    assert result.estimate == np.count_nonzero(read_as[outcome] != signal) / trials
    assert result.counts == dict(enumerate(np.bincount(outcome, minlength=outcomes).tolist()))


def test_block_size_does_not_change_results(monkeypatch):
    e = symmetric_ensemble(5, 0.9)
    s = optimal_strategy_analytic(5, 0.9, 8, 0.3)
    assignment = greedy_assignment(e, s.pom)
    trials = 3 * simulator.CHUNK + 17
    blocked = simulate_strategy(e, s, assignment, trials, seed=13)
    monkeypatch.setattr(simulator, "CHUNK", 1 << 20)
    assert simulate_strategy(e, s, assignment, trials, seed=13) == blocked


def test_memory_is_bounded_by_the_block_not_the_trials():
    e = symmetric_ensemble(5, 0.9)
    s = optimal_strategy_analytic(5, 0.9, 8, 0.3)
    assignment = greedy_assignment(e, s.pom)
    trials = (1 << 20) + 5
    for run in (lambda: simulate_strategy(e, s, assignment, trials, seed=1),
                lambda: simulate_fidelity(e, s, trials, seed=1),
                lambda: simulate_error(e, s.pom, assignment, trials, seed=1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4.3 block arrays of 8-byte values: the workspace's two uniform
        # buffers, index and step, and the splitmix temporary; one array of a
        # double per trial would take 8 * trials bytes
        assert peak < 10 * 8 * simulator.CHUNK < 8 * trials


def test_signal_index_stays_below_m_at_the_largest_uniform():
    """The signal rule of _draw at the largest draw, 2**53 - 1, gives m - 1 for
    every m below 2**20 and at each 2**k - 1, 2**k and 2**k + 1 up to 2**52,
    so the signal index needs no clamp."""
    powers = 2 ** np.arange(20, 53, dtype=np.int64)
    m = np.concatenate([np.arange(1, 1 << 20), powers - 1, powers, powers + 1])
    index = simulator._signal(np.full(m.shape, 2 ** 53 - 1), m, out=np.empty_like(m))
    assert np.array_equal(index, m - 1)


def test_accept_table_a_hair_outside_the_unit_interval_passes_the_same_trials():
    """Every uniform lies in [0, 1 - 2**-53], so an accept probability rounded
    2**-52 below 0 or above 1 passes the trials that 0 or 1 would."""
    e = symmetric_ensemble(5, 0.9)
    s = optimal_strategy_analytic(5, 0.9, 8, 0.3)
    accept = np.random.default_rng(3).choice([0.0, 0.3, 1.0], size=5 * 8)
    pushed = accept + np.where(accept == 0.0, -2.0 ** -52, np.where(accept == 1.0, 2.0 ** -52, 0.0))
    assert pushed.min() < 0.0 and pushed.max() > 1.0
    counts, hits = simulator._estimate(e, s.pom, 20_000, 7, simulator._limits(accept.copy()))
    pushed_counts, pushed_hits = simulator._estimate(e, s.pom, 20_000, 7, simulator._limits(pushed))
    assert np.array_equal(pushed_counts, counts) and pushed_hits == hits
    counts = counts.ravel()
    assert counts[accept == 1.0].sum() < hits < counts[accept > 0.0].sum()


_DYADIC = [0.0, 2.0 ** -53, 2.0 ** -54, 3 * 2.0 ** -54, 1 / 8, 3 / 8, 0.5, 1.0]
# dyadic probabilities, their neighbours one ulp off, and a hair outside [0, 1]
_EDGES = (_DYADIC + np.nextafter(_DYADIC, -1.0).tolist() + np.nextafter(_DYADIC, 2.0).tolist()
          + [5e-324, 0.3, 1 / 3, -2.0 ** -52, 1.0 + 2.0 ** -52])


@pytest.mark.parametrize("a", _EDGES)
def test_draws_on_the_limits_are_classified_as_their_doubles(monkeypatch, a):
    """Outcome and accept draws k at C - 1, C and C + 1 for each limit C of the
    outcome table and of an accept probability a give the outcomes and accepts
    of comparing k 2**-53 with the doubles, over three blocks."""
    e = symmetric_ensemble(5, 0.9)
    s = optimal_strategy_analytic(5, 0.9, 8, 0.3)
    cum = cumulative(e, s.pom)
    limits = {1: simulator._outcome_limits(e, s.pom), 2: simulator._limits(np.array([a]))}
    draws = {slot: np.clip(limit[..., None] + np.arange(-1, 2), 0, 2 ** 53 - 1).ravel()
             for slot, limit in limits.items()}

    def on_the_limits(seed, slot, start, stop, *, out, scratch=None):
        if slot == 0:
            return counter_uniforms(seed, slot, start, stop, out=out, scratch=scratch)
        out[:stop - start] = np.take(draws[slot], np.arange(start, stop), mode="wrap")
        return out[:stop - start]

    trials = 2500
    monkeypatch.setattr(simulator, "CHUNK", 1000)
    monkeypatch.setattr(simulator, "counter_uniforms", on_the_limits)
    counts, hits = simulator._estimate(e, s.pom, trials, 3, simulator._limits(np.full(cum.size, a)))
    signal = (uniforms(3, 0, 0, trials) * 5).astype(np.int64)
    u1, u2 = (np.resize(draws[slot], trials) * 2.0 ** -53 for slot in (1, 2))
    outcome = (u1[:, None] >= cum[signal]).sum(axis=1)
    assert np.array_equal(counts.ravel(), np.bincount(signal * 8 + outcome, minlength=40))
    assert hits == np.count_nonzero(u2 < a)


@pytest.mark.parametrize("m", [3, 5, 7, 2 ** 20 + 1, 2 ** 52 - 1])
def test_one_multiply_signal_truncates_as_the_uniform_times_m(m):
    """trunc(k (m 2**-53)), the signal rule of _draw, is trunc((k 2**-53) m) for
    the draws within three of each boundary j 2**53 / m: every j up to 2**20 + 1,
    and 30,000 of them, the first, the last and random ones, at 2**52 - 1."""
    if m < 1 << 21:
        j = np.arange(m + 1)
    else:
        j = np.concatenate([np.arange(10_000), m - np.arange(10_000),
                            np.random.default_rng(m).integers(0, m, 10_000)])
    near = np.rint(j * (2.0 ** 53 / m)).astype(np.int64)
    for offset in range(-3, 4):
        k = np.clip(near + offset, 0, 2 ** 53 - 1)
        signal = simulator._signal(k, m, out=np.empty_like(k))
        assert np.array_equal(signal, (k * 2.0 ** -53 * m).astype(np.int64))
        assert signal.max() < m
    assert signal[np.argmax(k)] == m - 1  # at the largest draw, 2**53 - 1


@pytest.mark.parametrize("outputs", [3, 8])
def test_memory_is_bounded_for_many_signals(outputs):
    """The guide table stays within its budget of entries however many signals
    there are: a table of 1024 bins per signal would alone take 16 MB here."""
    e = symmetric_ensemble(2000, 0.9)
    s = optimal_strategy_analytic(2000, 0.9, outputs, 0.3)
    assignment = greedy_assignment(e, s.pom)
    tracemalloc.start()
    try:
        simulate_strategy(e, s, assignment, 3 * simulator.CHUNK + 5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * simulator.CHUNK


def test_memory_holds_few_signal_by_outcome_tables():
    """With as many outcomes as signals the m x K tables outweigh the blocks: the
    outcome and accept limits, the counts and what building the guide table
    takes stay below five of them at once in every entry point."""
    m = 1000
    e = symmetric_ensemble(m, 0.9)
    s = optimal_strategy_analytic(m, 0.9)
    assert len(s.pom) == m
    assignment = greedy_assignment(e, s.pom)
    for run in (lambda: simulate_strategy(e, s, assignment, 1000, seed=1),
                lambda: simulate_fidelity(e, s, 1000, seed=1),
                lambda: simulate_error(e, s.pom, assignment, 1000, seed=1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * m * m


def test_building_the_guide_table_holds_no_signal_by_outcome_temporaries():
    """With many signals the m x K tables outweigh the blocks: the guide table is
    built a chunk of limits at a time, so besides the outcome and accept limits,
    the counts and the guide table, which has at most m K / 4 entries, what the
    entry points hold at once stays within half a table."""
    m, outputs = 100_000, 8
    e = symmetric_ensemble(m, 0.9)
    s = optimal_strategy_analytic(m, 0.9, outputs, 0.0)
    assignment = greedy_assignment(e, s.pom)
    table = 8 * m * outputs
    for run, tables in ((lambda: simulate_strategy(e, s, assignment, 1000, seed=1), 3.5),
                        (lambda: simulate_fidelity(e, s, 1000, seed=1), 3.5),
                        (lambda: simulate_error(e, s.pom, assignment, 1000, seed=1), 2.5)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables * table


def test_blocks_after_the_first_allocate_no_block_array(monkeypatch):
    """Every block after the first draws into the workspace, the splitmix shifts
    included, so it allocates no array of the block's length."""
    marks = []   # traced (current, peak) bytes as each block starts, the peak reset there

    def watched(seed, slot, start, stop, **kwargs):
        if slot == 0:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return counter_uniforms(seed, slot, start, stop, **kwargs)

    monkeypatch.setattr(simulator, "counter_uniforms", watched)
    # at 20000 signals a histogram of the m * K indices, 1.25 MiB, would exceed the bound
    for m in (5, 20_000):
        e = symmetric_ensemble(m, 0.9)
        s = optimal_strategy_analytic(m, 0.9, 8, 0.3)
        assignment = greedy_assignment(e, s.pom)
        for run in (lambda: simulate_strategy(e, s, assignment, 4 * simulator.CHUNK, seed=1),
                    lambda: simulate_fidelity(e, s, 4 * simulator.CHUNK, seed=1),
                    lambda: simulate_error(e, s.pom, assignment, 4 * simulator.CHUNK, seed=1)):
            marks.clear()
            tracemalloc.start()
            try:
                run()
                marks.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert len(marks) == 5
            for (current, _), (_, peak) in zip(marks[1:], marks[2:]):
                # numpy's casting buffers only, half a block array at most
                assert peak - current < 0.6 * 8 * simulator.CHUNK


# SimResults recorded with the earlier sampler, which compared each uniform
# with every cumulative threshold of its signal's row at once
RECORDED = {
    2: (SimResult(2500, 0.9432, 0.004629201226993701, {0: 1306, 1: 1194}),
        SimResult(2500, 0.082, 0.005487294415283364, {0: 1306, 1: 1194})),
    5: (SimResult(2500, 0.842, 0.007294820080029391,
                  {0: 328, 1: 347, 2: 349, 3: 305, 4: 316, 5: 287, 6: 278, 7: 290}),
        SimResult(2500, 0.658, 0.00948759189678814,
                  {0: 328, 1: 347, 2: 349, 3: 305, 4: 316, 5: 287, 6: 278, 7: 290})),
}


@pytest.mark.parametrize("m,theta,outputs,alpha", [(2, 1.0, None, 0.0), (5, 0.9, 8, 0.3)])
@pytest.mark.parametrize("chunk", [1 << 20, 1000, 999])
def test_outcomes_match_the_all_thresholds_comparison(monkeypatch, m, theta, outputs, alpha, chunk):
    e = symmetric_ensemble(m, theta)
    s = optimal_strategy_analytic(m, theta, outputs, alpha)
    cum = cumulative(e, s.pom)
    limits = simulator._outcome_limits(e, s.pom)
    for start, stop in ((0, 3000), (1 << 20, (1 << 20) + 2000)):
        index = simulator._draw(e, simulator._workspace(limits, stop - start), 17, start, stop)
        signal, outcome = np.divmod(index, cum.shape[1])
        u = uniforms(17, 1, start, stop)
        assert np.array_equal(outcome, (u[:, None] >= cum[signal]).sum(axis=1))
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    assignment = greedy_assignment(e, s.pom)
    assert simulate_fidelity(e, s, 2500, seed=17) == RECORDED[m][0]
    assert simulate_error(e, s.pom, assignment, 2500, seed=17) == RECORDED[m][1]


# simulate_strategy over 3 * 2**16 + 17 trials at seed 17, seven blocks of CHUNK =
# 2**15, recorded with the sampler that compared uniform doubles in four of 2**16
_FIVE_ON_EIGHT = dict(enumerate([24441, 24548, 24544, 24566, 24488, 24571, 24702, 24765]))
_EIGHT_SQUARE_ROOT = dict(enumerate([24376, 24720, 24377, 24543, 24536, 24509, 24633, 24931]))
RECORDED_BLOCKS = {
    "pair": (SimResult(196625, 0.9447171010807375, 0.0005153792449103862, {0: 97969, 1: 98656}),
             SimResult(196625, 0.07950667514303877, 0.000610088375413191, {0: 97969, 1: 98656})),
    "five_on_eight": (
        SimResult(196625, 0.8463877940241576, 0.0008131640889015565, _FIVE_ON_EIGHT),
        SimResult(196625, 0.6543521932612841, 0.0010725148549566286, _FIVE_ON_EIGHT)),
    "eight_square_root": (
        SimResult(196625, 0.8463979656706929, 0.0008131420520688551, _EIGHT_SQUARE_ROOT),
        SimResult(196625, 0.7776223776223776, 0.0009378006908492848, _EIGHT_SQUARE_ROOT)),
}


@pytest.mark.parametrize("case", RECORDED_BLOCKS)
def test_results_across_blocks_match_the_recorded_ones(case):
    if case == "eight_square_root":
        e = symmetric_ensemble(8, 0.9)
        pom = square_root_measurement(e)
        s = Strategy(pom=pom, retransmit=optimal_retransmission(e, pom).states)
    else:
        e = symmetric_ensemble(*{"pair": (2, 1.0), "five_on_eight": (5, 0.9)}[case])
        s = optimal_strategy_analytic(e.m, e.theta, 8, 0.3)   # m = 2 ignores 8 and 0.3
    results = simulate_strategy(e, s, greedy_assignment(e, s.pom), 196_625, seed=17)
    assert results == RECORDED_BLOCKS[case]


_ABOVE_ONE = float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("budget,m,rows,bins,passes", [
    # 8 bins: zero-probability outcomes, thresholds repeated on bin edges, an
    # interior threshold one ulp above 1, and three thresholds inside bin 1
    (16, 2, [[0.0, 0.0, 3 / 8, 3 / 8, 0.5, _ABOVE_ONE, 1.0],
             [1 / 8, 5 / 32, 6 / 32, 7 / 32, 0.6, 0.9, 1.0]], 8, 3),
    # the same rows at the module's own budget
    (None, 2, [[0.0, 0.0, 3 / 8, 3 / 8, 0.5, _ABOVE_ONE, 1.0],
               [1 / 8, 5 / 32, 6 / 32, 7 / 32, 0.6, 0.9, 1.0]], 4096, 1),
    # three outcomes, one threshold inside a bin
    (16, 2, [[0.3, 0.7, 1.0], [0.0, _ABOVE_ONE, 1.0]], 8, 1),
    # one bin per row, at the budget and with more signals than the budget
    (16, 12, [[0.0, 0.0, 0.0, 0.25, 1.0], [0.0, 0.0, 0.5, 0.5, 1.0]], 1, 2),
    (16, 17, [[0.0, 0.0, 0.0, 0.25, 1.0], [0.0, 0.0, 0.5, 0.5, 1.0]], 1, 2),
    (None, 5000, [[0.0, 0.0, 0.0, 0.25, 1.0], [0.0, 0.0, 0.5, 0.5, 1.0]], 1, 2),
    # twelve thresholds inside bin 7, more than simulator.WALK_ALL, so the walk
    # ends on the few trials still stepping, some of them to the last pass
    (16, 2, [[0.5, *(7 / 8 + np.arange(1, 13) / 128), 1.0], [*(np.arange(1, 14) / 16), 1.0]], 8, 12),
])
def test_guide_table_matches_counting_every_threshold(monkeypatch, budget, m, rows, bins, passes):
    if budget is not None:
        monkeypatch.setattr(simulator, "GUIDE_ENTRIES", budget)
    cum = np.resize(np.array(rows), (m, len(rows[0])))
    e = symmetric_ensemble(m, 0.5)
    trials = 5000
    limits = simulator._limits(cum.copy())
    work = simulator._workspace(limits, 2000)
    # bins equal parts of the draw range [0, 2**53)
    assert (1 << 53) >> work.shift == bins and work.passes == passes
    assert work.first.size == m * bins <= max(m, simulator.GUIDE_ENTRIES, limits.size // 4)
    cuts = [0, 1999, 2000, 3999, trials]
    index = np.concatenate([simulator._draw(e, work, 4, a, b).copy()
                            for a, b in zip(cuts, cuts[1:])])
    signal = np.minimum((uniforms(4, 0, 0, trials) * m).astype(np.int64), m - 1)
    u = uniforms(4, 1, 0, trials)
    assert np.array_equal(index, signal * cum.shape[1] + (u[:, None] >= cum[signal]).sum(axis=1))
    assert np.array_equal(index, simulator._draw(e, simulator._workspace(limits, trials), 4, 0, trials))


def test_guide_table_grows_with_the_outcomes():
    """With as many outcomes as signals the guide table gets m K / 4 entries, so
    the walk takes a few dozen passes, not a scan of the row, and still picks the
    outcome of counting every threshold."""
    m = 1000
    e = symmetric_ensemble(m, 0.9)
    s = optimal_strategy_analytic(m, 0.9)
    cum = cumulative(e, s.pom)
    work = simulator._workspace(simulator._outcome_limits(e, s.pom), 2000)
    assert work.first.size <= m * m // 4 and work.passes <= 40
    for start, stop in ((0, 2000), (5 * simulator.CHUNK, 5 * simulator.CHUNK + 1500)):
        index = simulator._draw(e, work, 9, start, stop)
        signal, outcome = np.divmod(index, m)
        assert np.array_equal(outcome, (uniforms(9, 1, start, stop)[:, None] >= cum[signal]).sum(axis=1))


def _boundary_measurements(rng: np.random.Generator, m: int, count: int):
    """Ensembles of m signals with two-element measurements t0 I + r.sigma and
    (1 - t0) I - r.sigma, |r| = t0 + PSD, r anti-aligned within about 1e-9 with
    one signal: element 0's lowest eigenvalue and its Born probability of that
    signal sit at -PSD, on either side of it by rounding."""
    for _ in range(count):
        e = symmetric_ensemble(m, float(rng.uniform(0.0, math.pi / 2)))
        n = e.vectors[rng.integers(m)] + 1e-9 * rng.standard_normal(3)
        t0 = float(rng.uniform(0.05, 0.5))
        r = -(t0 + PSD) * n / np.linalg.norm(n)
        yield e, Pom(elements=bloch.operators(np.array([t0, 1.0 - t0]), np.stack([r, -r])))


def test_every_measurement_validate_pom_accepts_is_simulated():
    """validate_pom is the one validity rule: a measurement it accepts runs through
    all three entry points, also where a Born probability lies below -PSD."""
    rng = np.random.default_rng(5)
    accepted = below = 0
    for m in range(2, 9):
        for e, pom in _boundary_measurements(rng, m, 60):
            if validate_pom(pom):
                continue
            accepted += 1
            below += bloch.born(*pom.terms, e.vectors).min() < -PSD
            s = Strategy(pom=pom, retransmit=optimal_retransmission(e, pom).states)
            assignment = greedy_assignment(e, pom)
            for result in (simulate_fidelity(e, s, 50, seed=1),
                           simulate_error(e, pom, assignment, 50, seed=1),
                           *simulate_strategy(e, s, assignment, 50, seed=1)):
                assert result.trials == 50
    assert accepted > 100 and below > 5


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_measurement_is_rejected(value):
    s = optimal_strategy_analytic(3, math.pi / 2)
    bad = dataclasses.replace(s.pom.elements[0], a=value)
    # the measurement is refused when built, so no simulation can be handed it
    with pytest.raises(DomainError, match="element 0 has a non-finite entry"):
        dataclasses.replace(s, pom=dataclasses.replace(
            s.pom, elements=(bad,) + s.pom.elements[1:]))


def test_trials_must_be_positive():
    e = symmetric_ensemble(2, 1.0)
    s = optimal_strategy_analytic(2, 1.0)
    with pytest.raises(DomainError):
        simulate_fidelity(e, s, 0, seed=0)


@pytest.mark.parametrize("wrong", [{"trials": 2.5}, {"trials": True}, {"seed": 1.5},
                                   {"seed": True}, {"trials": np.float64(100.0)}])
def test_trials_and_seed_must_be_integers(wrong):
    e = symmetric_ensemble(3, 0.9)
    s = optimal_strategy_analytic(3, 0.9)
    args = {"trials": 1000, "seed": 1, **wrong}
    with pytest.raises(DomainError):
        simulate_fidelity(e, s, **args)
    with pytest.raises(DomainError):
        simulate_error(e, s.pom, greedy_assignment(e, s.pom), **args)


@pytest.mark.parametrize("simulate", [
    lambda e, s, a: simulate_error(e, s.pom, a, 100),
    lambda e, s, a: simulate_strategy(e, s, a, 100),
], ids=["simulate_error", "simulate_strategy"])
def test_assignment_that_is_not_an_assignment_is_rejected(simulate):
    e = symmetric_ensemble(3, 0.9)
    s = optimal_strategy_analytic(3, 0.9)
    with pytest.raises(DomainError, match="assignment is a dict, not a Assignment"):
        simulate(e, s, {0: 0, 1: 1, 2: 2})


def test_numpy_integer_trials_and_seed_are_accepted():
    e = symmetric_ensemble(3, 0.9)
    s = optimal_strategy_analytic(3, 0.9)
    result = simulate_fidelity(e, s, np.int64(1000), seed=np.uint64(4))
    assert result == simulate_fidelity(e, s, 1000, seed=4)
    assert type(result.trials) is int
