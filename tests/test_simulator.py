"""Monte Carlo estimates and the counter-based randomness contract."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import helpers
import property_suites
import qrelay.simulator as simulator
from qrelay import (DomainError, Hermitian2, Pom, SimResult, Strategy,
                    counter_uniforms, error_probability, greedy_assignment,
                    optimal_strategy_analytic, simulate_error, simulate_fidelity,
                    simulate_strategy, square_root_measurement, symmetric_ensemble)
from qrelay.qubit import PLUS

Z_BASIS = Pom(elements=(Hermitian2(1.0, 0.0, 0j), Hermitian2(0.0, 1.0, 0j)))


def test_counter_uniforms_are_deterministic_and_bounded():
    a = counter_uniforms(123, 0, 0, 5000)
    b = counter_uniforms(123, 0, 0, 5000)
    assert np.array_equal(a, b)
    assert float(a.min()) >= 0.0 and float(a.max()) < 1.0
    # a uniform stream should cover the unit interval roughly evenly
    assert abs(float(a.mean()) - 0.5) < 0.02


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


def _splitmix64_uniform(seed: int, slot: int, trial: int) -> float:
    """The stream's value at (trial, slot), in plain Python integers mod 2**64."""
    mask = (1 << 64) - 1
    z = (seed + (trial * 4 + slot + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return (z >> 11) / (1 << 53)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("start", [0, 2 ** 32 - 3])
def test_counter_uniforms_match_reference_splitmix64(seed, start):
    for slot in range(4):
        expected = [_splitmix64_uniform(seed, slot, t) for t in range(start, start + 6)]
        assert counter_uniforms(seed, slot, start, start + 6).tolist() == expected


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
    drawn = []

    def counted(*args):
        u = counter_uniforms(*args)
        drawn.append(len(u))
        return u

    monkeypatch.setattr(simulator, "counter_uniforms", counted)
    assert simulate_strategy(e, s, assignment, trials, seed=21) == separate
    # signal, outcome and accept slots, each drawn once per trial
    assert sum(drawn) == 3 * trials
    assert len(drawn) == 3 * -(-trials // chunk)


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
    tracemalloc.start()
    try:
        simulate_strategy(e, s, assignment, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about seven live block arrays of 8-byte values; one array of a double
    # per trial would take 8 * trials bytes
    assert peak < 10 * 8 * simulator.CHUNK < 8 * trials


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
    cum = simulator._outcome_table(e, s.pom)
    for start, stop in ((0, 3000), (1 << 20, (1 << 20) + 2000)):
        signal, outcome = simulator._draw(e, cum, 17, start, stop)
        u = counter_uniforms(17, 1, start, stop)
        assert np.array_equal(outcome, (u[:, None] >= cum[signal]).sum(axis=1))
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    assignment = greedy_assignment(e, s.pom)
    assert simulate_fidelity(e, s, 2500, seed=17) == RECORDED[m][0]
    assert simulate_error(e, s.pom, assignment, 2500, seed=17) == RECORDED[m][1]


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


def test_consistency_property():
    assert property_suites.simulator_consistency_suite() == 200


def test_determinism_property():
    assert property_suites.simulator_determinism_suite() == 4
