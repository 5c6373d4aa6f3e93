"""Search rows as measurements, the frame map that makes them complete, and the numerical searches."""

import math

import numpy as np
import pytest

import helpers
from qrelay import (DomainError, Hermitian2, OptimizationError, OptimizerConfig, Pom, bloch,
                    error_probability, fidelity_of_strategy, greedy_assignment,
                    max_fidelity_analytic, min_error_analytic, optimal_retransmission,
                    optimize_error, optimize_fidelity, optimizer,
                    square_root_measurement, symmetric_ensemble, validate_pom)
from qrelay.optimizer import PRUNE, _correct_objective, _fidelity_objective, _frame_map, _pom
from qrelay.tolerances import IDENTITY_SUM


def row(weights, colatitudes, longitudes) -> tuple[np.ndarray, np.ndarray]:
    """One search row as element terms (t, r): weights t and r = t n, n the unit vectors at the angles."""
    t = np.array(weights, dtype=float)
    return t, t[:, None] * helpers.unit_vectors(colatitudes, longitudes)


X_BASIS = row((0.5, 0.5), (math.pi / 2, math.pi / 2), (0.0, math.pi))
LOPSIDED = row((0.6, 0.4), (math.pi / 2, math.pi / 2), (0.0, math.pi))


def test_completeness_on_known_candidate():
    # the weights sum to one and R has no z part: the residual is |R_x + i R_y|,
    # R_x = 0.6 - 0.4 in doubles (0.19999999999999996) and R_y below its last bit
    assert bloch.residual(*LOPSIDED) == 0.6 - 0.4


def test_row_pom_x_basis():
    pom = _pom(*X_BASIS)
    assert validate_pom(pom) == []
    assert helpers.entrywise_gap(pom.elements[0], Hermitian2(0.5, 0.5, 0.5 + 0.0j)) <= 1e-12
    assert helpers.entrywise_gap(pom.elements[1], Hermitian2(0.5, 0.5, -0.5 + 0.0j)) <= 1e-12


def test_row_pom_poles():
    pom = _pom(*row((0.5, 0.5), (0.0, math.pi), (1.7, 0.3)))
    assert helpers.entrywise_gap(pom.elements[0], Hermitian2(1.0, 0.0, 0j)) <= 1e-12
    assert helpers.entrywise_gap(pom.elements[1], Hermitian2(0.0, 1.0, 0j)) <= 1e-12


def test_row_pom_reproduces_square_root_measurement():
    theta = 0.8
    pom = _pom(*row((1 / 3, 1 / 3, 1 / 3), (math.pi / 2,) * 3,
                    (0.0, 2 * math.pi / 3, 4 * math.pi / 3)))
    srm = square_root_measurement(symmetric_ensemble(3, theta))
    for ours, ref in zip(pom.elements, srm.elements):
        assert helpers.entrywise_gap(ours, ref) <= 1e-12


def frame_map(t, r):
    """The search's frame map applied to one row, r read as its elements' Bloch
    vectors: ((t, r) normalized, residual)."""
    t, r, resid = _frame_map(t[None], r[None])
    return (t[0], r[0]), float(resid[0])


def test_frame_map_is_identity_on_feasible_input():
    fixed, resid = frame_map(*X_BASIS)
    assert resid <= 1e-15
    for ours, ref in zip(_pom(*fixed).elements, _pom(*X_BASIS).elements):
        assert helpers.entrywise_gap(ours, ref) <= 1e-15


def test_frame_map_rebalances_forced_weights():
    (t, r), _ = frame_map(*LOPSIDED)
    assert t[0] == pytest.approx(0.5, abs=1e-9)
    assert t[1] == pytest.approx(0.5, abs=1e-9)
    # each element keeps its direction
    assert np.allclose(r / t[:, None], LOPSIDED[1] / LOPSIDED[0][:, None], atol=1e-9)


def test_frame_map_rescales_direction_vectors():
    t = np.array([0.6, 0.3, 0.1])
    n = helpers.unit_vectors((0.4, 2.0, 1.1), (0.2, 2.5, 4.0))
    unit, doubled = frame_map(t, n), frame_map(t, 2.0 * n)
    assert unit[1] <= 1e-15
    assert np.array_equal(doubled[0][0], unit[0][0]) and np.array_equal(doubled[0][1], unit[0][1])
    assert doubled[1] == unit[1]


def test_frame_map_drops_elements_below_prune():
    """A weight below PRUNE is zeroed before the square-root map, so its element
    is absent from the mapped row; a weight of PRUNE itself is kept."""
    n = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    (t, _), resid = frame_map(np.array([0.5, 0.5 - 1e-6, 1e-6]), n)
    assert t.tolist() == [0.5, 0.5, 0.0]
    assert resid <= IDENTITY_SUM
    (t, _), _ = frame_map(np.array([0.5, 0.5 - PRUNE, PRUNE]), n)
    assert t[2] > 0.0


def test_frame_map_random_infeasible_candidate():
    rng = np.random.default_rng(7)
    candidate = row(rng.uniform(0.05, 1.0, size=4), rng.uniform(0.0, math.pi, size=4),
                    rng.uniform(0.0, 2 * math.pi, size=4))
    fixed, resid = frame_map(*candidate)
    assert resid <= 1e-9
    assert bloch.residual(*fixed) <= 1e-8
    assert float(fixed[0].min()) >= 0.0
    assert validate_pom(_pom(*fixed)) == []


def test_feasibility_is_the_completeness_test_of_validate_pom():
    # entrywise residual 1e-8: within the earlier 1e-8 feasibility slack, not within validate_pom's
    near = row((0.5, 0.5 + 5e-9), (0.0, math.pi), (0.0, 0.0))
    assert any("sum to the identity" in v for v in validate_pom(_pom(*near)))
    fixed, resid = frame_map(*near)
    assert resid <= 1e-9
    assert validate_pom(_pom(*fixed)) == []


def test_frame_map_rejects_singular_frame():
    # every element along one axis: the frame has rank one and the row is discarded
    aligned = row((0.3, 0.5, 0.2), (0.4, 0.4, 0.4), (1.1, 1.1, 1.1))
    assert frame_map(*aligned)[1] == math.inf


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_frame_map_matches_matrix_oracle(n):
    rng = np.random.default_rng(100 + n)
    W = rng.dirichlet(np.ones(n), size=32)
    TH = np.arccos(rng.uniform(-1.0, 1.0, (32, n)))
    PH = rng.uniform(0.0, 2 * math.pi, (32, n))
    t, r, resid = _frame_map(W, helpers.unit_vectors(TH, PH))
    assert float(resid.max()) <= 1e-14
    assert float(t.min()) >= 0.0
    assert float(bloch.residual(t, r).max()) <= 1e-14
    for i in range(32):
        expected = helpers.frame_normalized(
            [helpers.bloch_element(*args) for args in zip(W[i], TH[i], PH[i])])
        for k, el in enumerate(bloch.operators(t[i], r[i])):
            got = helpers.matrix(el)
            assert np.abs(got - expected[k]).max() <= 1e-12
            assert abs(float(np.linalg.eigvalsh(got)[0])) <= 1e-14


def first_rows(e, cfg):
    """The terms (t, r) of the starts, as the search's first objective call receives them."""
    seen = []

    def recording(e, t, r):
        seen.append((t.copy(), r.copy()))
        return _fidelity_objective(e, t, r)

    optimizer._run_search(e, cfg, recording)
    return seen[0]


def test_outer_step_evaluates_the_objective_three_times(monkeypatch):
    """One call for the starts, then x1, x2 and the extrapolated point per outer
    step; the fidelity objective reads the moments, never the state sums."""
    def state_sum(*args):
        raise AssertionError("the fidelity objective formed a sum over the states")

    monkeypatch.setattr(bloch, "born", state_sum)
    calls = []

    def counting(e, t, r):
        calls.append(len(t))
        return _fidelity_objective(e, t, r)

    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 10)
    cfg = OptimizerConfig(restarts=4, seed=0)
    _, trace = optimizer._run_search(symmetric_ensemble(5, math.pi / 8), cfg, counting)
    iterations = trace.records[0].iterations
    assert calls == [cfg.restarts] * (1 + 3 * iterations)
    # every row applied every step, so every row counts three evaluations in each
    assert [rec.accepted for rec in trace.records] == [iterations] * cfg.restarts
    assert trace.evaluations == cfg.restarts * (1 + 3 * iterations)


@pytest.mark.parametrize("n", range(2, 9))
def test_starts_are_complete_rank_one_sets(monkeypatch, n):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 1)
    e = symmetric_ensemble(3, 0.6)
    for seed in (0, 1, 7, 2 ** 40):
        t, r = first_rows(e, OptimizerConfig(n_elements=n, restarts=8, seed=seed))
        assert t.shape == (8, n) and r.shape == (8, n, 3)
        assert float(bloch.residual(t, r).max()) <= 1e-14
        assert np.abs(t - np.linalg.norm(r, axis=-1)).max() <= 1e-16
        if n == 2:
            assert np.abs(t - 0.5).max() <= 1e-15
            assert np.abs(r[:, 0] + r[:, 1]).max() <= 1e-16


def test_config_validation():
    with pytest.raises(DomainError):
        OptimizerConfig(n_elements=1)
    with pytest.raises(DomainError):
        OptimizerConfig(restarts=0)
    with pytest.raises(DomainError):
        OptimizerConfig(seed=-1)
    with pytest.raises(DomainError):
        OptimizerConfig(seed=2 ** 64)
    cfg = OptimizerConfig()
    assert cfg.restarts == 16 and optimizer.MAX_ITERATIONS == 2000


@pytest.mark.parametrize("field,value", [("n_elements", 2.5), ("restarts", 2.5), ("seed", 1.5),
                                         ("restarts", True), ("seed", np.float64(3.0))])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(DomainError, match=field):
        OptimizerConfig(**{field: value})


def test_config_accepts_numpy_integers(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 50)
    e = symmetric_ensemble(3, 0.6)
    cfg = OptimizerConfig(n_elements=np.int64(3), restarts=np.int32(4), seed=np.uint64(11))
    plain = OptimizerConfig(n_elements=3, restarts=4, seed=11)
    assert all(type(getattr(cfg, name)) is int for name in ("n_elements", "restarts", "seed"))
    assert optimize_fidelity(e, cfg)[1] == optimize_fidelity(e, plain)[1]


@pytest.mark.parametrize("search", [optimize_fidelity, optimize_error])
def test_search_rejects_a_config_that_is_not_a_config(search):
    with pytest.raises(DomainError, match="cfg is a NoneType, not a OptimizerConfig"):
        search(symmetric_ensemble(3, 0.6), None)


def test_optimize_fidelity_degenerate_ensemble(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 300)
    e = symmetric_ensemble(4, 0.0)
    cfg = OptimizerConfig(n_elements=2, restarts=4, seed=1)
    strategy, value, trace = optimize_fidelity(e, cfg)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_optimize_fidelity_reaches_the_floor():
    e = symmetric_ensemble(3, math.pi / 2)
    cfg = OptimizerConfig(n_elements=3, restarts=8, seed=1)
    strategy, value, trace = optimize_fidelity(e, cfg)
    assert abs(value - 0.75) <= 1e-4
    assert validate_pom(strategy.pom) == []
    assert value == pytest.approx(fidelity_of_strategy(e, strategy), abs=1e-10)


def test_optimize_fidelity_two_signal_support(m2_concentration):
    strategy, value, trace = m2_concentration[:3]
    assert abs(value - max_fidelity_analytic(2, math.pi / 4)) <= 1e-4
    weights = sorted((0.5 * (el.a + el.d) for el in strategy.pom.elements), reverse=True)
    assert weights[0] + weights[1] >= 0.999 * sum(weights)


def test_two_signal_support_at_every_seed():
    """Criterion 6's search at 30 seeds: elements left a few 1e-12 apart on one
    side are merged, so the weight always sits on the antipodal pair."""
    e = symmetric_ensemble(2, math.pi / 4)
    for seed in range(30):
        strategy = optimize_fidelity(e, OptimizerConfig(n_elements=4, restarts=16, seed=seed))[0]
        weights = sorted(strategy.pom.terms[0], reverse=True)
        assert weights[0] + weights[1] >= 0.999 * sum(weights), seed


def test_optimize_fidelity_trace_contract(m2_concentration):
    strategy, trace = m2_concentration.strategy, m2_concentration.trace
    assert 0 <= trace.best_restart < 16
    assert trace.evaluations > 0
    assert len(trace.records) == 16
    assert all(rec.values[-1] >= rec.values[0] - 1e-12 for rec in trace.records)
    assert trace.spot_checks is trace.records  # the name the bench's tracer counts
    assert validate_pom(strategy.pom) == []


def test_records_replay_their_final_values(monkeypatch):
    """Each restart's final candidate gives back the final value of its curve."""
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 300)
    e = symmetric_ensemble(3, 0.2)
    cfg = OptimizerConfig(n_elements=3, restarts=4, seed=1)
    fidelity_trace = optimize_fidelity(e, cfg)[2]
    error_trace = optimize_error(e, cfg)[3]
    for trace in (fidelity_trace, error_trace):
        assert len(trace.records) == cfg.restarts
        assert trace.records[0].iterations < optimizer.MAX_ITERATIONS
    for rec in fidelity_trace.records:
        assert abs(optimal_retransmission(e, rec.pom).fidelity - rec.values[-1]) <= 1e-12
    for rec in error_trace.records:
        pom = rec.pom
        correct = 1.0 - error_probability(e, pom, greedy_assignment(e, pom))
        assert abs(correct - rec.values[-1]) <= 1e-12


def test_search_rejects_an_invalid_best_measurement(monkeypatch):
    half_identity = Pom(elements=(Hermitian2(0.5, 0.5, 0j),))
    monkeypatch.setattr(optimizer, "_pom", lambda t, r: half_identity)
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 5)
    e = symmetric_ensemble(3, 0.6)
    cfg = OptimizerConfig(n_elements=3, restarts=2, seed=1)
    with pytest.raises(OptimizationError, match="identity"):
        optimize_fidelity(e, cfg)
    with pytest.raises(OptimizationError, match="identity"):
        optimize_error(e, cfg)


def test_optimize_error_degenerate_ensemble(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 300)
    e = symmetric_ensemble(5, 0.0)
    cfg = OptimizerConfig(n_elements=2, restarts=4, seed=1)
    pom, assignment, error, trace = optimize_error(e, cfg)
    assert error == pytest.approx(1 - 1 / 5, abs=1e-9)


def test_optimize_error_matches_closed_form():
    e = symmetric_ensemble(3, math.pi / 2)
    cfg = OptimizerConfig(n_elements=3, restarts=8, seed=1)
    pom, assignment, error, trace = optimize_error(e, cfg)
    assert abs(error - min_error_analytic(3, math.pi / 2)) <= 1e-4
    assert validate_pom(pom) == []
    assert error == pytest.approx(error_probability(e, pom, assignment), abs=1e-12)


def test_optimize_error_interior_point():
    e = symmetric_ensemble(4, math.pi / 5)
    cfg = OptimizerConfig(n_elements=4, restarts=8, seed=1)
    _, _, error, _ = optimize_error(e, cfg)
    assert abs(error - min_error_analytic(4, math.pi / 5)) <= 1e-4


def test_fixed_point_stop_ends_a_converged_search(default_fidelity_sweep):
    point = default_fidelity_sweep.results[8, math.pi / 2]
    assert all(rec.iterations < optimizer.MAX_ITERATIONS for rec in point.trace.records)
    assert max(rec.accepted for rec in point.trace.records) == point.trace.records[0].iterations
    # one more step from the returned measurement leaves it where it is
    e = symmetric_ensemble(8, math.pi / 2)
    t, r = point.strategy.pom.terms
    _, g0, g = _fidelity_objective(e, t, r)
    stepped, resid = frame_map(*bloch.sandwich(g0, g, t, r))
    assert resid <= 1e-15
    assert np.abs(stepped[0] - t).max() <= 1e-12 and np.abs(stepped[1] - r).max() <= 1e-12


@pytest.mark.parametrize("m,theta", [(3, math.pi / 4), (5, math.pi / 2)])
def test_error_search_reaches_the_closed_form_before_the_cap(m, theta):
    _, _, error, trace = optimize_error(symmetric_ensemble(m, theta))
    assert trace.records[0].iterations < optimizer.MAX_ITERATIONS
    assert abs(error - min_error_analytic(m, theta)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_error_search_stops_before_the_cap_on_the_acceptance_grid(seed):
    """Near theta = pi/8 one element's weight of a row decays sublinearly towards 0;
    the frame map prunes it (zeroes weights below PRUNE), which ends the crawl, where
    unpruned rows reach the cap at (4, pi/8) and (8, pi/8). Pruning acts inside the
    plain steps, with no accept rule of its own, so each value curve is checked too."""
    for m in (2,) + helpers.M_GRID:
        for theta in helpers.THETA_GRID:
            _, _, error, trace = optimize_error(symmetric_ensemble(m, theta), OptimizerConfig(seed=seed))
            assert trace.records[0].iterations < optimizer.MAX_ITERATIONS, (m, theta)
            assert abs(error - min_error_analytic(m, theta)) <= 1e-12, (m, theta)
            assert_values_never_fall(trace)


def test_error_search_with_fewer_elements_than_signals_stops_every_row(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 1000)
    cfg = OptimizerConfig(n_elements=3, restarts=4, seed=1)
    _, _, _, trace = optimize_error(symmetric_ensemble(4, 0.6), cfg)
    assert trace.records[0].iterations < optimizer.MAX_ITERATIONS
    best = 1.0 - min_error_analytic(4, 0.6)
    assert all(abs(rec.values[-1] - best) <= 1e-13 for rec in trace.records)


def test_default_sweep_converges_before_the_cap(default_fidelity_sweep):
    for point in default_fidelity_sweep.results.values():
        assert point.trace.records[0].iterations < optimizer.MAX_ITERATIONS
        assert point.bound - point.achieved <= 1e-12


def assert_values_never_fall(trace):
    """From one outer step of a restart to its next, the value falls by rounding at most."""
    for rec in trace.records:
        assert 1 <= len(rec.values) <= rec.iterations + 1
        assert all(b >= a - 1e-12 for a, b in zip(rec.values, rec.values[1:]))


def test_value_curves_never_fall(default_fidelity_sweep):
    """On the sweep, each restart's curve never falls and the best restart ends highest."""
    for point in default_fidelity_sweep.results.values():
        assert_values_never_fall(point.trace)
        finals = [rec.values[-1] for rec in point.trace.records]
        assert finals[point.trace.best_restart] == max(finals)


def test_every_outer_step_ascends(default_fidelity_sweep):
    """Recorded at every outer step, the slowest point (5, pi/8) still ascends:
    the safeguard rejects each extrapolation that would lower a restart's value."""
    trace = default_fidelity_sweep.results[5, math.pi / 8].trace
    assert sum(rec.accepted for rec in trace.records) > len(trace.records)
    assert_values_never_fall(trace)


@pytest.mark.parametrize("m,theta", [(5, math.pi / 8), (2, math.pi / 4), (3, math.pi / 4)])
@pytest.mark.parametrize("objective", [_fidelity_objective, _correct_objective])
def test_every_complete_scored_row_is_a_valid_measurement(m, theta, objective):
    """Each row the search scores with a completeness residual within
    IDENTITY_SUM (starts, plain steps and extrapolations alike) realizes a
    measurement validate_pom accepts."""
    audited = []

    def auditing(e, t, r):
        for k in np.flatnonzero(bloch.residual(t, r) <= IDENTITY_SUM):
            assert validate_pom(_pom(t[k], r[k])) == []
            audited.append(k)
        return objective(e, t, r)

    optimizer._run_search(symmetric_ensemble(m, theta), OptimizerConfig(), auditing)
    assert audited
