"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line directly to the terminal (bypassing capture), so a
plain ``pytest -v`` run shows the verdict per criterion. Expensive optimizer
sweeps come from the session fixtures, which record their own wall time.
Criterion 9 is the only runner of the randomized invariant suites, each once;
``pytest tests/test_acceptance.py -k criterion_9`` runs them alone.
"""

import math
import time

import numpy as np
import pytest

import helpers
import property_suites
from qrelay import (fidelity_of_strategy, identity_sum_residual,
                    max_fidelity_analytic, min_error_analytic, optimal_retransmission,
                    optimal_strategy_analytic, retransmission_colatitude,
                    simulate_error, simulate_fidelity, square_root_measurement,
                    symmetric_ensemble, validate_pom)


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_1_error_probability_endpoints(report):
    worst = 0.0
    for m in range(2, 9):
        worst = max(worst,
                    abs(min_error_analytic(m, 0.0) - (1 - 1 / m)),
                    abs(min_error_analytic(m, math.pi / 2) - (1 - 2 / m)))
    report(1, "closed-form error endpoints", worst <= 1e-15,
           f"worst deviation {worst:.2e}")


def test_criterion_2_fidelity_floor(report):
    worst = max(abs(max_fidelity_analytic(m, math.pi / 2) - 0.75)
                for m in range(3, 13))
    report(2, "fidelity floor 3/4 at right angle", worst <= 1e-15,
           f"worst deviation {worst:.2e}")


def test_criterion_3_achievability_grid(report):
    start = time.perf_counter()
    worst_gap = worst_residual = 0.0
    points = 0
    for m in helpers.M_GRID:
        for theta in helpers.THETA_GRID:
            e = symmetric_ensemble(m, theta)
            bound = max_fidelity_analytic(m, theta)
            for n in (2, 3, m):
                for alpha in (0.0, 0.7):
                    s = optimal_strategy_analytic(m, theta, n_outputs=n, alpha=alpha)
                    assert validate_pom(s.pom) == []
                    worst_residual = max(worst_residual, identity_sum_residual(s.pom))
                    worst_gap = max(worst_gap,
                                    abs(fidelity_of_strategy(e, s) - bound))
                    points += 1
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_residual < 1e-12 and elapsed < 1.0
    report(3, "closed-form strategies attain the optimum", ok,
           f"{points} strategies, worst gap {worst_gap:.2e}, "
           f"worst residual {worst_residual:.2e}, {elapsed:.2f}s")


def test_criterion_4_square_root_measurement_also_optimal(report):
    start = time.perf_counter()
    worst = 0.0
    for m in helpers.M_GRID:
        for theta in helpers.THETA_GRID:
            e = symmetric_ensemble(m, theta)
            got = optimal_retransmission(e, square_root_measurement(e)).fidelity
            worst = max(worst, abs(got - max_fidelity_analytic(m, theta)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(4, "min-error measurement maximizes fidelity", ok,
           f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_numerical_search_confirms_bound(report, default_fidelity_sweep):
    sweep = default_fidelity_sweep
    overshoot = max(res.achieved - res.bound for res in sweep.results.values())
    shortfall = max(res.bound - res.achieved for res in sweep.results.values())
    ok = overshoot <= 1e-6 and shortfall <= 1e-4 and sweep.elapsed < 120.0
    report(5, "default searches bracket the closed form", ok,
           f"{len(sweep.results)} grid points, overshoot {overshoot:.2e}, "
           f"shortfall {shortfall:.2e}, {sweep.elapsed:.1f}s")


def test_criterion_6_two_signal_weight_concentration(report, m2_concentration):
    strategy = m2_concentration.strategy
    ranked = sorted((helpers.element_weight_direction(el)
                     for el in strategy.pom.elements), key=lambda t: -t[0])
    top_weight = ranked[0][0] + ranked[1][0]
    total = sum(w for w, _ in ranked)
    east = np.array([1.0, 0.0, 0.0])
    angles = sorted(helpers.angle_between(direction, east)
                    for _, direction in ranked[:2])
    # one direction near longitude 0, the other near longitude pi
    direction_error = max(angles[0], math.pi - angles[1])
    ok = (top_weight >= 0.999 * total and direction_error <= 1e-2
          and m2_concentration.elapsed < 30.0)
    report(6, "two-signal optimum concentrates on an antipodal pair", ok,
           f"top-2 weight {top_weight / total:.9f}, direction error "
           f"{direction_error:.2e} rad, {m2_concentration.elapsed:.1f}s")


def test_criterion_7_retransmission_geometry(report):
    worst = 0.0
    ordered = True
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        chi = math.acos(2 * math.cos(theta) / (1 + math.cos(theta) ** 2))
        chi2 = math.acos(math.cos(theta)
                         / math.sqrt(math.cos(theta) ** 2 + math.sin(theta) ** 4))
        for state in optimal_strategy_analytic(5, theta).retransmit:
            worst = max(worst, abs(helpers.colatitude_of(state) - chi))
        for state in optimal_strategy_analytic(2, theta).retransmit:
            worst = max(worst, abs(helpers.colatitude_of(state) - chi2))
        ordered = ordered and chi < theta and chi2 > chi
        worst = max(worst, abs(retransmission_colatitude(5, theta) - chi),
                    abs(retransmission_colatitude(2, theta) - chi2))
    ok = worst <= 1e-10 and ordered
    report(7, "retransmission colatitudes and ordering", ok,
           f"worst deviation {worst:.2e}, ordering {'holds' if ordered else 'broken'}")


def test_criterion_8_monte_carlo_consistency(report):
    start = time.perf_counter()
    e3 = symmetric_ensemble(3, math.pi / 2)
    r3 = simulate_fidelity(e3, optimal_strategy_analytic(3, math.pi / 2),
                           1_000_000, seed=0)
    z3 = (r3.estimate - 0.75) / r3.std_error
    e2 = symmetric_ensemble(2, math.pi / 3)
    target2 = 0.5 * (1 + math.sqrt(0.25 + 9 / 16))
    r2 = simulate_fidelity(e2, optimal_strategy_analytic(2, math.pi / 3),
                           1_000_000, seed=0)
    z2 = (r2.estimate - target2) / r2.std_error
    e_orth = symmetric_ensemble(2, math.pi / 2)
    r0 = simulate_error(e_orth, square_root_measurement(e_orth),
                        helpers.identity_assignment(2), 1_000_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = abs(z3) <= 4.0 and abs(z2) <= 4.0 and r0.estimate == 0.0 and elapsed < 30.0
    report(8, "simulation agrees with the closed forms", ok,
           f"z(3,pi/2) = {z3:+.2f}, z(2,pi/3) = {z2:+.2f}, "
           f"orthogonal-pair errors {r0.estimate}, {elapsed:.1f}s")


# the exact case count of each suite property_suites.run_all runs
SUITE_CASES = {
    "qubit spectral": 10_000,
    "qubit overlap": 10_000,
    "ensemble generator period": 350,
    "ensemble gram symmetry": 2030,
    "measurement error floor": 70,
    "measurement born sums": 10_000,
    "measurement element traces": 280,
    "fidelity bound": 4000,
    "fidelity achievability": 150,
    "fidelity dominance": 500,
    "fidelity monotonicity": 800,
    "retransmission latitude": 100,
    "optimizer bound": 25,
    "optimizer soundness": 400,
    "optimizer determinism": 4,
    "optimizer element-count invariance": 4,
    "simulator consistency": 200,
    "simulator determinism": 4,
}


def test_criterion_9_property_suites(report, default_fidelity_sweep):
    title = "module invariants under randomized testing"
    start = time.perf_counter()
    try:
        outcomes = property_suites.run_all(default_fidelity_sweep)
    except AssertionError as exc:
        report(9, title, False, str(exc))
    elapsed = time.perf_counter() - start
    cases = sum(n for _, n in outcomes)
    # a suite left out of run_all would run nowhere
    defined = [name for name in vars(property_suites) if name.endswith("_suite")]
    wrong = sorted(set(outcomes) ^ set(SUITE_CASES.items()))
    ok = (elapsed < 120.0 and len(outcomes) == 18 and not wrong
          and len(defined) == len(SUITE_CASES))
    detail = f"{len(outcomes)} suites, {cases} cases, {elapsed:.1f}s"
    if wrong:
        detail += f", unexpected (suite, cases): {wrong}"
    if len(defined) != len(SUITE_CASES):
        detail += f", {len(defined)} *_suite functions defined"
    report(9, title, ok, detail)
