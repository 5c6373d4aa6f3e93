"""Randomized invariant suites, run once each by acceptance criterion 9.

Each function checks one documented invariant over a fixed-seed random
population and raises AssertionError on the first violation. Functions return
the number of cases checked so callers can report coverage. The expensive
optimizer sweeps are not rerun here; suites that need them take the cached
results as an argument. ``pytest tests/test_acceptance.py -k criterion_9``
runs them alone, and the criterion checks each suite's exact case count.
"""

import functools
import math
import os
import traceback
from unittest import mock

import numpy as np

import helpers
from qrelay import (OptimizerConfig, Strategy, bloch, error_probability,
                    fidelity_of_strategy, max_fidelity_analytic,
                    min_error_analytic, optimal_retransmission, optimal_strategy_analytic,
                    optimize_error, optimize_fidelity, optimizer, retransmission_colatitude,
                    simulate_error, simulate_fidelity, square_root_measurement,
                    symmetric_ensemble, validate_pom)
from qrelay.qubit import hermitian_eig2


def qubit_spectral_suite(cases: int = 10_000) -> int:
    """Closed-form eigendecomposition reconstructs, traces and cross-checks against numpy."""
    rng = np.random.default_rng(901)
    for _ in range(cases):
        h = helpers.random_hermitian(rng, scale=2.0)
        (lam1, v1), (lam2, v2) = hermitian_eig2(h)
        k1, k2 = helpers.ket(v1), helpers.ket(v2)
        rebuilt = lam1 * np.outer(k1, k1.conj()) + lam2 * np.outer(k2, k2.conj())
        mat = helpers.matrix(h)
        assert np.abs(rebuilt - mat).max() <= 1e-9
        assert abs(h.a + h.d - (lam1 + lam2)) <= 1e-9
        assert abs(h.a * h.d - abs(h.b) ** 2 - lam1 * lam2) <= 1e-9
        assert abs(np.vdot(k1, k2)) <= 1e-12
        ref = np.linalg.eigvalsh(mat)
        assert abs(lam1 - ref[1]) <= 1e-9 and abs(lam2 - ref[0]) <= 1e-9
    return cases


def qubit_overlap_suite(cases: int = 10_000) -> int:
    """|<a|b>|^2 equals (1 + n_a.n_b)/2 for the Bloch vectors the kernel gives."""
    rng = np.random.default_rng(902)
    for _ in range(cases):
        a, b = helpers.random_qubit(rng), helpers.random_qubit(rng)
        n = bloch.vectors((a, b))
        overlap = abs(np.vdot(helpers.ket(a), helpers.ket(b))) ** 2
        assert abs(overlap - 0.5 * (1.0 + n[0] @ n[1])) <= 1e-10
    return cases


def ensemble_generator_suite() -> int:
    """Advancing the |-> phase of each state by 2 pi/m gives the next one, the last wrapping to the first."""
    checked = 0
    for m in range(2, 9):
        step = np.exp(2j * math.pi / m)
        for theta in np.linspace(0.0, math.pi / 2, 10):
            states = symmetric_ensemble(m, float(theta)).states
            for j, s in enumerate(states):
                after = states[(j + 1) % m]
                assert abs(after.amp_plus - s.amp_plus) <= 1e-12
                assert abs(after.amp_minus - s.amp_minus * step) <= 1e-12
                checked += 1
    return checked


def ensemble_gram_suite() -> int:
    """|<psi_j|psi_k>| depends only on (j - k) mod m."""
    checked = 0
    for m in range(2, 9):
        for theta in np.linspace(0.0, math.pi / 2, 10):
            psi = helpers.state_matrix(symmetric_ensemble(m, float(theta)))
            gram = np.abs(psi.conj() @ psi.T)
            for off in range(m):
                ring = [gram[j, (j + off) % m] for j in range(m)]
                assert max(ring) - min(ring) <= 1e-12
                checked += m
    return checked


def measurement_optimality_suite() -> int:
    """Square-root measurement read outcome-as-signal hits the closed-form error floor."""
    checked = 0
    for m in range(2, 9):
        for theta in np.linspace(0.0, math.pi / 2, 10):
            e = symmetric_ensemble(m, float(theta))
            pom = square_root_measurement(e)
            got = error_probability(e, pom, helpers.identity_assignment(m))
            assert abs(got - min_error_analytic(m, float(theta))) <= 1e-10
            checked += 1
    return checked


def measurement_born_suite(cases: int = 10_000) -> int:
    """Born probabilities of random valid measurements are a distribution."""
    rng = np.random.default_rng(903)
    checked = 0
    while checked < cases:
        pom = helpers.random_pom(rng, int(rng.integers(2, 7)))
        for _ in range(10):
            probs = bloch.born(*pom.terms, bloch.vectors((helpers.random_qubit(rng),)))[0]
            assert abs(float(probs.sum()) - 1.0) <= 1e-9
            assert float(probs.min()) >= 0.0
            checked += 1
    return checked


def measurement_trace_suite() -> int:
    """Square-root elements all carry trace 2/m away from the degenerate ensemble."""
    checked = 0
    for m in range(2, 9):
        for theta in np.linspace(0.05, math.pi / 2, 8):
            pom = square_root_measurement(symmetric_ensemble(m, float(theta)))
            for el in pom.elements:
                assert abs(el.a + el.d - 2.0 / m) <= 1e-12
                checked += 1
    return checked


def fidelity_bound_suite(poms_per_point: int = 200) -> int:
    """No measurement beats the closed-form fidelity optimum (m > 2 branch)."""
    rng = np.random.default_rng(904)
    checked = 0
    for m in helpers.M_GRID:
        for theta in helpers.THETA_GRID:
            e = symmetric_ensemble(m, theta)
            bound = max_fidelity_analytic(m, theta)
            for _ in range(poms_per_point):
                pom = helpers.random_pom(rng, int(rng.integers(2, 7)))
                assert optimal_retransmission(e, pom).fidelity <= bound + 1e-9
                checked += 1
    return checked


def fidelity_achievability_suite() -> int:
    """The closed-form strategy family attains the optimum across its free parameters."""
    checked = 0
    for m in (2,) + helpers.M_GRID:
        for theta in helpers.THETA_GRID:
            e = symmetric_ensemble(m, theta)
            bound = max_fidelity_analytic(m, theta)
            for n in (2, 3, m):
                for alpha in (0.0, 0.7):
                    s = optimal_strategy_analytic(m, theta, n_outputs=n, alpha=alpha)
                    assert validate_pom(s.pom) == []
                    assert abs(fidelity_of_strategy(e, s) - bound) <= 1e-10
                    checked += 1
    return checked


def fidelity_dominance_suite(cases: int = 500) -> int:
    """Perturbing any best retransmission state never raises the fidelity."""
    rng = np.random.default_rng(905)
    for _ in range(cases):
        m = int(rng.integers(2, 7))
        e = symmetric_ensemble(m, float(rng.uniform(0.0, math.pi / 2)))
        pom = helpers.random_pom(rng, int(rng.integers(2, 6)))
        report = optimal_retransmission(e, pom)
        states = list(report.states)
        k = int(rng.integers(0, len(states)))
        bumped = helpers.ket(states[k]) + 0.05 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        bumped /= np.linalg.norm(bumped)
        states[k] = helpers.PureQubit(complex(bumped[0]), complex(bumped[1]))
        worse = fidelity_of_strategy(e, Strategy(pom=pom, retransmit=tuple(states)))
        assert worse <= report.fidelity + 1e-12
    return cases


def fidelity_monotonicity_suite() -> int:
    """For m > 2 the optimum never increases with the signal colatitude."""
    checked = 0
    for m in helpers.M_GRID:
        grid = np.linspace(0.0, math.pi / 2, 200)
        vals = [max_fidelity_analytic(m, float(t)) for t in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        checked += len(grid)
    return checked


def fidelity_latitude_suite() -> int:
    """Retransmission sits strictly north of the signals; the m = 2 angle sits south of the m > 2 one."""
    checked = 0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 100):
        chi = retransmission_colatitude(5, float(theta))
        chi2 = retransmission_colatitude(2, float(theta))
        assert chi < theta and chi2 < theta
        assert chi2 > chi
        checked += 1
    return checked


def optimizer_bound_suite(sweep) -> int:
    """Default searches never exceed the closed-form optimum anywhere on the grid."""
    for res in sweep.results.values():
        assert res.achieved <= res.bound + 1e-6
    return len(sweep.results)


def optimizer_soundness_suite(traces) -> int:
    """Every restart's final candidate realizes a valid measurement."""
    checked = 0
    for trace in traces:
        for rec in trace.records:
            assert validate_pom(rec.pom) == []
            checked += 1
    assert checked > 0
    return checked


def optimizer_determinism_suite() -> int:
    """Identical ensemble, config and seed reproduce results bit for bit."""
    e = symmetric_ensemble(3, 0.6)
    cfg = OptimizerConfig(n_elements=3, restarts=4, seed=11)
    with mock.patch.object(optimizer, "MAX_ITERATIONS", 600):
        f1 = optimize_fidelity(e, cfg)
        f2 = optimize_fidelity(e, cfg)
        assert f1[1] == f2[1]
        p1 = optimize_error(e, cfg)
        p2 = optimize_error(e, cfg)
        assert p1[2] == p2[2]
    return 4


def optimizer_invariance_suite() -> int:
    """For m > 2 the reachable optimum does not depend on the element budget."""
    e = symmetric_ensemble(4, 0.9)
    vals = []
    with mock.patch.object(optimizer, "MAX_ITERATIONS", 2000):
        for n in (2, 3, 4, 6):
            cfg = OptimizerConfig(n_elements=n, restarts=12, seed=3)
            vals.append(optimize_fidelity(e, cfg)[1])
    assert max(vals) - min(vals) <= 2e-4
    return len(vals)


def simulator_consistency_suite(runs: int = 100, trials: int = 10_000) -> int:
    """Estimates land within five standard errors in at least 99 runs out of 100."""
    e = symmetric_ensemble(3, math.pi / 4)
    strat = optimal_strategy_analytic(3, math.pi / 4)
    exact_f = fidelity_of_strategy(e, strat)
    pom = square_root_measurement(e)
    ident = helpers.identity_assignment(3)
    exact_e = error_probability(e, pom, ident)
    hits_f = hits_e = 0
    for seed in range(runs):
        rf = simulate_fidelity(e, strat, trials, seed=seed)
        hits_f += abs(rf.estimate - exact_f) < 5.0 * rf.std_error
        re = simulate_error(e, pom, ident, trials, seed=seed)
        hits_e += abs(re.estimate - exact_e) < 5.0 * re.std_error
    assert hits_f >= runs - 1
    assert hits_e >= runs - 1
    return 2 * runs


def simulator_determinism_suite() -> int:
    """Identical inputs and seed reproduce estimates and tallies exactly."""
    e = symmetric_ensemble(4, 1.0)
    strat = optimal_strategy_analytic(4, 1.0)
    assert simulate_fidelity(e, strat, 50_000, seed=42) == simulate_fidelity(e, strat, 50_000, seed=42)
    pom = square_root_measurement(e)
    ident = helpers.identity_assignment(4)
    assert simulate_error(e, pom, ident, 50_000, seed=42) == simulate_error(e, pom, ident, 50_000, seed=42)
    return 4


def run_all(sweep) -> list[tuple[str, int]]:
    """Every invariant suite, in module order; returns (name, cases) pairs.

    A broken invariant raises AssertionError naming the suite and the failing check.
    """
    suites = [
        ("qubit spectral", qubit_spectral_suite),
        ("qubit overlap", qubit_overlap_suite),
        ("ensemble generator period", ensemble_generator_suite),
        ("ensemble gram symmetry", ensemble_gram_suite),
        ("measurement error floor", measurement_optimality_suite),
        ("measurement born sums", measurement_born_suite),
        ("measurement element traces", measurement_trace_suite),
        ("fidelity bound", fidelity_bound_suite),
        ("fidelity achievability", fidelity_achievability_suite),
        ("fidelity dominance", fidelity_dominance_suite),
        ("fidelity monotonicity", fidelity_monotonicity_suite),
        ("retransmission latitude", fidelity_latitude_suite),
        ("optimizer bound", functools.partial(optimizer_bound_suite, sweep)),
        ("optimizer soundness", functools.partial(
            optimizer_soundness_suite, [res.trace for res in sweep.results.values()])),
        ("optimizer determinism", optimizer_determinism_suite),
        ("optimizer element-count invariance", optimizer_invariance_suite),
        ("simulator consistency", simulator_consistency_suite),
        ("simulator determinism", simulator_determinism_suite),
    ]
    report = []
    for name, suite in suites:
        try:
            report.append((name, suite()))
        except AssertionError as exc:
            # a bare assert has no message: name the check by its source line
            check = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(check.filename)}:{check.lineno}"
            raise AssertionError(f"{name} suite: {str(exc) or check.line} ({where})") from exc
    return report
