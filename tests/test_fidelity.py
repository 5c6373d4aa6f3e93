"""Fidelity functional, score operators and the closed-form optimal strategies."""

import dataclasses
import math

import numpy as np
import pytest

import helpers
from qrelay import (DomainError, Hermitian2, Pom, Strategy, bloch, fidelity_of_strategy,
                    max_fidelity_analytic, optimal_retransmission,
                    optimal_strategy_analytic, retransmission_colatitude, simulate_strategy,
                    square_root_measurement, symmetric_ensemble, validate_pom)
from qrelay.qubit import PLUS

Z_BASIS = Pom(elements=(Hermitian2(1.0, 0.0, 0j), Hermitian2(0.0, 1.0, 0j)))


def score_operator(e, element: Hermitian2) -> Hermitian2:
    """sum_j p_j <psi_j|pi|psi_j> |psi_j><psi_j|, summed over the states' Bloch terms (1, n_j) / 2."""
    q = e.prior * bloch.born(*bloch.terms((element,)), e.vectors)
    return bloch.operators(0.5 * q.sum(axis=0), 0.5 * (q.T @ e.vectors))[0]


def test_strategy_requires_matching_lengths():
    with pytest.raises(DomainError):
        Strategy(pom=Z_BASIS, retransmit=(PLUS,))


def test_strategy_rejects_states_that_are_not_qubits():
    with pytest.raises(DomainError, match=r"retransmit\[0\] is a int, not a PureQubit"):
        Strategy(Z_BASIS, (1, 2))
    with pytest.raises(DomainError, match=r"retransmit\[1\] is a tuple"):
        Strategy(Z_BASIS, (PLUS, (1.0, 0.0)))
    with pytest.raises(DomainError, match="pom is a tuple, not a Pom"):
        Strategy(pom=(1, 2), retransmit=())


def test_strategy_vectors_are_those_of_its_states():
    s = optimal_strategy_analytic(5, 0.7)
    assert np.array_equal(s.vectors, bloch.vectors(s.retransmit))
    flipped = dataclasses.replace(s, retransmit=s.retransmit[::-1])
    assert np.array_equal(flipped.vectors, s.vectors[::-1])


def test_figures_of_merit_convert_no_states(monkeypatch):
    e = symmetric_ensemble(5, 0.7)
    s = optimal_strategy_analytic(5, 0.7)
    calls = []
    vectors = bloch.vectors

    def counted(states):
        calls.append(states)
        return vectors(states)

    monkeypatch.setattr(bloch, "vectors", counted)
    fidelity_of_strategy(e, s)
    simulate_strategy(e, s, helpers.identity_assignment(5), trials=1000)
    assert calls == []


def test_degenerate_ensemble_reaches_unit_fidelity():
    e = symmetric_ensemble(4, 0.0)
    s = Strategy(pom=Z_BASIS, retransmit=(PLUS, PLUS))
    assert fidelity_of_strategy(e, s) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_signals_retransmitted_exactly():
    e = symmetric_ensemble(2, math.pi / 2)
    pom = square_root_measurement(e)
    s = Strategy(pom=pom, retransmit=e.states)
    assert fidelity_of_strategy(e, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_matches_numpy_double_sum():
    e = symmetric_ensemble(3, math.pi / 4)
    pom = square_root_measurement(e)
    mu = tuple(helpers.equatorial_state(2 * math.pi * k / 3) for k in range(3))
    s = Strategy(pom=pom, retransmit=mu)
    value = fidelity_of_strategy(e, s)
    assert value == pytest.approx(helpers.fidelity_oracle(e, s), abs=1e-12)
    # retransmitting the measurement directions is strictly suboptimal here
    assert value < max_fidelity_analytic(3, math.pi / 4) - 1e-3


def test_equatorial_retransmission_saturates_at_right_angle():
    # at theta = pi/2 the optimal colatitude is pi/2, so the measurement
    # directions themselves become optimal and the fidelity hits 3/4 exactly
    e = symmetric_ensemble(3, math.pi / 2)
    pom = square_root_measurement(e)
    mu = tuple(helpers.equatorial_state(2 * math.pi * k / 3) for k in range(3))
    s = Strategy(pom=pom, retransmit=mu)
    assert fidelity_of_strategy(e, s) == pytest.approx(0.75, abs=1e-12)
    assert fidelity_of_strategy(e, s) == pytest.approx(helpers.fidelity_oracle(e, s), abs=1e-12)


def test_score_operator_of_zero_element_vanishes():
    e = symmetric_ensemble(3, 1.0)
    op = score_operator(e, Hermitian2(0.0, 0.0, 0j))
    assert op.a == op.d == 0.0 and op.b == 0.0


def test_score_operator_top_eigenvalue_equatorial_element():
    e = symmetric_ensemble(3, math.pi / 2)
    element = Hermitian2(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)  # (2/3)|mu_0><mu_0| on the equator
    op = score_operator(e, element)
    # weight 1/3 element: top eigenvalue w (1 - sin^2/4) = 1/4
    t, r = bloch.terms((op,))
    assert t[0] + np.linalg.norm(r[0]) == pytest.approx(0.25, abs=1e-12)
    assert np.linalg.eigvalsh(helpers.matrix(op))[1] == pytest.approx(0.25, abs=1e-12)


def test_score_operator_matches_numpy_summation():
    e = symmetric_ensemble(2, 0.9)
    element = Hermitian2(0.5, 0.5, 0.5 + 0.0j)
    op = score_operator(e, element)
    psi = helpers.state_matrix(e)
    ref = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        prob = (psi[j].conj() @ helpers.matrix(element) @ psi[j]).real
        ref += 0.5 * prob * np.outer(psi[j], psi[j].conj())
    assert np.max(np.abs(helpers.matrix(op) - ref)) <= 1e-12
    assert op.a + op.d == pytest.approx(sum(
        0.5 * (psi[j].conj() @ helpers.matrix(element) @ psi[j]).real for j in range(2)))


def test_optimal_retransmission_degenerate_ensemble():
    e = symmetric_ensemble(3, 0.0)
    report = optimal_retransmission(e, Z_BASIS)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    for state in report.states:
        assert state == PLUS


def test_optimal_retransmission_square_root_floor():
    e = symmetric_ensemble(3, math.pi / 2)
    report = optimal_retransmission(e, square_root_measurement(e))
    assert report.fidelity == pytest.approx(0.75, abs=1e-12)
    for k, state in enumerate(report.states):
        assert helpers.colatitude_of(state) == pytest.approx(math.pi / 2, abs=1e-9)
        assert helpers.longitude_of(state) == pytest.approx(2 * math.pi * k / 3, abs=1e-9)


def test_optimal_retransmission_two_signal_projective():
    e = symmetric_ensemble(2, math.pi / 3)
    pom = Pom(elements=(Hermitian2(0.5, 0.5, 0.5 + 0.0j), Hermitian2(0.5, 0.5, -0.5 + 0.0j)))
    report = optimal_retransmission(e, pom)
    expected = 0.5 * (1 + math.sqrt(0.25 + 9 / 16))
    assert report.fidelity == pytest.approx(expected, abs=1e-12)
    # one state per outcome, which attains the reported fidelity
    assert len(report.states) == 2
    assert report.fidelity == pytest.approx(fidelity_of_strategy(e, Strategy(pom, report.states)),
                                            abs=1e-12)


def test_optimal_retransmission_dominates_alternatives():
    rng = np.random.default_rng(8)
    e = symmetric_ensemble(4, 1.1)
    pom = helpers.random_pom(rng, 3)
    best = optimal_retransmission(e, pom)
    for _ in range(25):
        other = tuple(helpers.random_qubit(rng) for _ in range(3))
        value = fidelity_of_strategy(e, Strategy(pom=pom, retransmit=other))
        assert value <= best.fidelity + 1e-12


@pytest.mark.parametrize("w", [1e-12, 1e-13, 1e-14])
def test_optimal_retransmission_reaches_its_reported_fidelity(w):
    # the first element's score vector is of order w, so the report must not
    # round it to a tie that its retransmission then fails to reach
    e = symmetric_ensemble(4, math.pi / 2)
    pom = Pom(elements=(Hermitian2(w, w, w), Hermitian2(1 - w, 1 - w, -w)))
    report = optimal_retransmission(e, pom)
    assert report.fidelity - fidelity_of_strategy(e, Strategy(pom, report.states)) <= 1e-15


def test_optimal_retransmission_points_along_the_score_vectors():
    rng = np.random.default_rng(19)
    for m, theta, size in [(2, 0.4, 2), (3, 1.2, 3), (4, math.pi / 2, 5), (7, 0.05, 8)]:
        e = symmetric_ensemble(m, theta)
        for _ in range(10):
            pom = helpers.random_pom(rng, size)
            s = 0.5 * ((e.prior * bloch.born(*pom.terms, e.vectors)).T @ e.vectors)
            got = bloch.vectors(optimal_retransmission(e, pom).states)
            assert np.abs(got - bloch.unit(s)).max() <= 1e-15


def test_max_fidelity_analytic_values():
    for m in range(3, 9):
        assert max_fidelity_analytic(m, math.pi / 2) == pytest.approx(0.75, abs=1e-15)
    assert max_fidelity_analytic(2, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert max_fidelity_analytic(2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert max_fidelity_analytic(3, math.pi / 3) == pytest.approx(13 / 16, abs=1e-15)


def test_retransmission_colatitude_formulas():
    theta = math.pi / 3
    assert retransmission_colatitude(4, theta) == pytest.approx(math.acos(0.8), abs=1e-12)
    expected2 = math.acos(0.5 / math.sqrt(0.25 + 9 / 16))
    assert retransmission_colatitude(2, theta) == pytest.approx(expected2, abs=1e-12)


def test_analytic_strategy_reproduces_square_root_measurement():
    s = optimal_strategy_analytic(3, math.pi / 2, n_outputs=3, alpha=0.0)
    srm = square_root_measurement(symmetric_ensemble(3, math.pi / 2))
    for ours, ref in zip(s.pom.elements, srm.elements):
        assert helpers.entrywise_gap(ours, ref) <= 1e-12
    e = symmetric_ensemble(3, math.pi / 2)
    assert fidelity_of_strategy(e, s) == pytest.approx(0.75, abs=1e-12)
    for k, state in enumerate(s.retransmit):
        assert helpers.colatitude_of(state) == pytest.approx(math.pi / 2, abs=1e-12)
        assert helpers.longitude_of(state) == pytest.approx(2 * math.pi * k / 3, abs=1e-12)


def test_analytic_strategy_two_output_projective_case():
    s = optimal_strategy_analytic(4, math.pi / 3, n_outputs=2, alpha=0.0)
    assert len(s.pom) == 2
    for el in s.pom.elements:
        lam2, lam1 = np.linalg.eigvalsh(helpers.matrix(el))
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        assert lam2 == pytest.approx(0.0, abs=1e-12)
    for state, lon in zip(s.retransmit, (0.0, math.pi)):
        assert helpers.colatitude_of(state) == pytest.approx(math.acos(0.8), abs=1e-12)
        assert helpers.longitude_of(state) == pytest.approx(lon, abs=1e-12)
    e = symmetric_ensemble(4, math.pi / 3)
    assert fidelity_of_strategy(e, s) == pytest.approx(max_fidelity_analytic(4, math.pi / 3),
                                                       abs=1e-10)


def test_analytic_strategy_two_signal_case():
    theta = math.pi / 3
    s = optimal_strategy_analytic(2, theta)
    assert len(s.pom) == 2
    chi2 = math.acos(0.5 / math.sqrt(0.25 + 9 / 16))
    for state, lon in zip(s.retransmit, (0.0, math.pi)):
        assert helpers.colatitude_of(state) == pytest.approx(chi2, abs=1e-12)
        assert helpers.longitude_of(state) == pytest.approx(lon, abs=1e-12)
    e = symmetric_ensemble(2, theta)
    assert fidelity_of_strategy(e, s) == pytest.approx(max_fidelity_analytic(2, theta), abs=1e-10)
    # the two-signal optimum is unique: extra output slots are ignored
    again = optimal_strategy_analytic(2, theta, n_outputs=7, alpha=1.3)
    assert again == s


def test_analytic_strategy_rejects_single_output():
    # m = 2 ignores n_outputs, but checks it as every m does
    for m in (2, 3):
        for n in (1, 1.5, 2.0, True):
            with pytest.raises(DomainError, match="n_outputs"):
                optimal_strategy_analytic(m, 0.5, n_outputs=n)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, "x", 1j, True, None])
def test_analytic_strategy_rejects_non_finite_phase(alpha):
    for m in (2, 3):
        with pytest.raises(DomainError, match="alpha"):
            optimal_strategy_analytic(m, 0.5, alpha=alpha)


@pytest.mark.parametrize("alpha", [1e9, 1e15, 1e17, 1e300])
def test_analytic_strategy_keeps_large_phase_offsets_complete(alpha):
    s = optimal_strategy_analytic(3, 0.5, alpha=alpha)
    assert validate_pom(s.pom) == []
    assert abs(fidelity_of_strategy(symmetric_ensemble(3, 0.5), s)
               - max_fidelity_analytic(3, 0.5)) <= 1e-15


def test_analytic_strategy_accepts_numpy_integer_outputs():
    s = optimal_strategy_analytic(3, 0.5, n_outputs=np.int64(5))
    assert s == optimal_strategy_analytic(3, 0.5, n_outputs=5)
    assert optimal_strategy_analytic(np.int32(4), 0.5) == optimal_strategy_analytic(4, 0.5)
    for wrong in (True, 5.0, np.float64(5.0)):
        with pytest.raises(DomainError):
            optimal_strategy_analytic(3, 0.5, n_outputs=wrong)
