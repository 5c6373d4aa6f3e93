"""Measurement validation, square-root construction and error probabilities."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import helpers
from qrelay import (Assignment, DomainError, Hermitian2, Pom, Strategy, ValidationError, bloch,
                    error_probability, fidelity_of_strategy, greedy_assignment,
                    identity_sum_residual, min_error_analytic, optimal_retransmission,
                    optimal_strategy_analytic, simulate_error, square_root_measurement,
                    symmetric_ensemble, validate_pom)
from qrelay.qubit import PLUS

Z_BASIS = Pom(elements=(Hermitian2(1.0, 0.0, 0j), Hermitian2(0.0, 1.0, 0j)))
HALF_IDENTITY = Hermitian2(0.5, 0.5, 0j)


def projector(s) -> np.ndarray:
    return np.outer(helpers.ket(s), helpers.ket(s).conj())


def born(states, pom: Pom) -> np.ndarray:
    """Born probabilities P[j, k] of the states in the measurement, by the array kernel."""
    return bloch.born(*pom.terms, bloch.vectors(states))


def test_projective_pair_is_valid():
    assert validate_pom(Z_BASIS) == []
    assert identity_sum_residual(Z_BASIS) <= 1e-16


def test_half_identity_alone_reports_sum_violation():
    lonely = Pom(elements=(HALF_IDENTITY,))
    violations = validate_pom(lonely)
    assert len(violations) == 1
    assert "identity" in violations[0]
    assert identity_sum_residual(lonely) == pytest.approx(0.5)


def test_non_psd_element_reported_with_eigenvalue():
    bad = Pom(elements=(Hermitian2(1.5, 1.5, 0.0j), Hermitian2(-0.5, -0.5, 0.0j)))
    violations = validate_pom(bad)
    assert any("positive" in v for v in violations)


def test_elements_beyond_the_double_range_fail_the_test_they_break():
    # a positive semidefinite element whose |r| = 1e200 squares past the double range
    big = Pom(elements=(Hermitian2(2e200, 0.0, 0j), Hermitian2(0.0, 1.0, 0j)))
    assert validate_pom(big) == ["elements do not sum to the identity (residual 2.000e+200)"]
    # |r| itself lies past the double range: not positive semidefinite
    wide = Pom(elements=(Hermitian2(0.0, 0.0, complex(1.7e308, 1.7e308)), Hermitian2(1.0, 1.0, 0j)))
    assert validate_pom(wide)[0] == "element 0 is not positive semidefinite (minimum eigenvalue -inf)"
    # partial sums of the terms overflow in both directions
    cancel = Pom(elements=tuple(Hermitian2(1.0, 1.0, complex(x, 0.0))
                                for x in (1.7e308, 1.7e308, -1.7e308, -1.7e308)))
    assert "sum to the identity" in validate_pom(cancel)[-1]


def test_identity_sum_residual_past_the_double_range_is_infinite_without_warning():
    # the element terms are finite, their sum is not; a warning would raise here
    big = Pom(elements=(Hermitian2(1.7e308, 0.2, 0j), Hermitian2(1e308, 0.2, 0j)))
    assert identity_sum_residual(big) == math.inf
    assert validate_pom(big)[-1] == "elements do not sum to the identity (residual inf)"


def test_identity_sum_residual_is_infinite_where_pairwise_partial_sums_cancel_infinities():
    # from 8 elements on the sum of t is taken pairwise: +inf + -inf, not a rounded total
    cancel = Pom(elements=tuple(Hermitian2(x, 0.0, 0j) for x in [1.7e308] * 4 + [-1.7e308] * 4))
    assert identity_sum_residual(cancel) == math.inf
    assert validate_pom(cancel)[-1] == "elements do not sum to the identity (residual inf)"


@pytest.mark.parametrize("entry", ["a", "d", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_element_is_a_violation(entry, value):
    bad = dataclasses.replace(Z_BASIS.elements[0], **{entry: value})
    with pytest.raises(DomainError, match="element 0 has a non-finite entry"):
        Pom(elements=(bad, Z_BASIS.elements[1]))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda e, p: fidelity_of_strategy(e, Strategy(p, (PLUS, PLUS))),
    lambda e, p: error_probability(e, p, Assignment({0: 0, 1: 1})),
    greedy_assignment,
    optimal_retransmission,
], ids=["fidelity_of_strategy", "error_probability", "greedy_assignment",
        "optimal_retransmission"])
def test_non_finite_measurement_is_rejected_by_element(call, value):
    # no measurement can hold the element, so none reaches a figure of merit
    elements = (Z_BASIS.elements[0], Hermitian2(0.0, value, 0j))
    with pytest.raises(DomainError, match="element 1 has a non-finite entry"):
        call(symmetric_ensemble(3, 0.6), Pom(elements=elements))


@pytest.mark.parametrize("elements", [(1, 2), (HALF_IDENTITY, "x"), (np.eye(2),), 5, None])
def test_pom_rejects_elements_that_are_not_operators(elements):
    with pytest.raises(DomainError, match="not a Hermitian2"):
        Pom(elements=elements)


def test_pom_rejects_an_empty_element_tuple():
    with pytest.raises(DomainError, match="at least one element"):
        Pom(elements=())


def test_labels_number_the_outcomes_in_element_order():
    pom = optimal_strategy_analytic(4, 0.7, n_outputs=5).pom
    assert pom.labels == tuple(range(len(pom))) == (0, 1, 2, 3, 4)
    assert Z_BASIS.labels == (0, 1)


def test_replaced_elements_rebuild_the_terms():
    pom = optimal_strategy_analytic(3, 0.7).pom
    el = pom.elements[0]
    bent = dataclasses.replace(pom, elements=(dataclasses.replace(el, a=el.a * 1.001),)
                               + pom.elements[1:])
    t, r = bloch.terms(bent.elements)
    assert np.array_equal(bent.terms[0], t) and np.array_equal(bent.terms[1], r)
    assert bent.terms[0][0] != pom.terms[0][0]


def test_square_root_measurement_orthogonal_pair():
    pom = square_root_measurement(symmetric_ensemble(2, math.pi / 2))
    assert validate_pom(pom) == []
    for j, el in enumerate(pom.elements):
        mu = helpers.equatorial_state(math.pi * j)
        assert np.abs(helpers.matrix(el) - projector(mu)).max() <= 1e-12
        # full projector: eigenvalues 1 and 0
        lam2, lam1 = np.linalg.eigvalsh(helpers.matrix(el))
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        assert lam2 == pytest.approx(0.0, abs=1e-12)


def test_square_root_measurement_matches_direct_formula():
    m = 3
    pom = square_root_measurement(symmetric_ensemble(m, math.pi / 4))
    assert validate_pom(pom) == []
    for j, el in enumerate(pom.elements):
        assert el.a + el.d == pytest.approx(2.0 / m, abs=1e-12)
        mu = helpers.equatorial_state(2 * math.pi * j / m)
        assert np.abs(helpers.matrix(el) - (2.0 / m) * projector(mu)).max() <= 1e-12


def test_square_root_measurement_degenerate_ensemble():
    pom = square_root_measurement(symmetric_ensemble(4, 0.0))
    for el in pom.elements:
        assert np.abs(helpers.matrix(el) - 0.25 * projector(PLUS)).max() <= 1e-12
    # the sum only covers the one-dimensional support, so this one genuinely fails
    # validation, on completeness alone
    violations = validate_pom(pom)
    assert len(violations) == 1 and "identity" in violations[0]


def test_outcome_probabilities_plus_in_z_basis():
    assert born((PLUS,), Z_BASIS).tolist() == [[1.0, 0.0]]


def test_orthogonal_signals_identified_with_certainty():
    e = symmetric_ensemble(2, math.pi / 2)
    pom = square_root_measurement(e)
    probs = born(e.states, pom)[0]
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert probs[1] == pytest.approx(0.0, abs=1e-12)


def test_outcome_probabilities_match_direct_overlaps():
    e = symmetric_ensemble(3, math.pi / 2)
    pom = square_root_measurement(e)
    probs = born(e.states[:1], pom)[0]
    psi = helpers.ket(e.states[0])
    for k in range(3):
        mu = helpers.ket(helpers.equatorial_state(2 * math.pi * k / 3))
        assert probs[k] == pytest.approx((2 / 3) * abs(np.vdot(mu, psi)) ** 2, abs=1e-12)
    assert probs.argmax() == 0
    # and through the generic matrix oracle
    assert np.allclose(helpers.born_oracle(e, pom)[0], probs, atol=1e-12)


def test_outcome_probabilities_reject_invalid_pom():
    # the simulator is the one place that samples outcome probabilities
    lonely = Pom(elements=(HALF_IDENTITY,))
    with pytest.raises(ValidationError, match="identity"):
        simulate_error(symmetric_ensemble(2, 1.0), lonely, Assignment({0: 0}), 100)


def test_error_probability_certain_discrimination():
    e = symmetric_ensemble(2, math.pi / 2)
    pom = square_root_measurement(e)
    assert error_probability(e, pom, helpers.identity_assignment(2)) == pytest.approx(0.0, abs=1e-15)


def test_error_probability_degenerate_ensemble_is_guessing():
    e = symmetric_ensemble(5, 0.0)
    ident = Assignment({0: 0, 1: 1})
    assert error_probability(e, Z_BASIS, ident) == pytest.approx(1 - 1 / 5, abs=1e-15)


def test_error_probability_matches_closed_form_and_oracle():
    m, theta = 3, math.pi / 3
    e = symmetric_ensemble(m, theta)
    pom = square_root_measurement(e)
    got = error_probability(e, pom, helpers.identity_assignment(m))
    assert got == pytest.approx(min_error_analytic(m, theta), abs=1e-12)
    born = helpers.born_oracle(e, pom)
    assert got == pytest.approx(1.0 - sum(born[j, j] for j in range(m)) / m, abs=1e-12)


def test_error_probability_requires_full_assignment():
    e = symmetric_ensemble(3, 0.5)
    pom = square_root_measurement(e)
    with pytest.raises(DomainError):
        error_probability(e, pom, Assignment({0: 0, 1: 1}))
    with pytest.raises(DomainError):
        error_probability(e, pom, Assignment({0: 0, 1: 1, 2: 5}))
    for wrong in (1.5, 1.0, True, "1", -1, 3):
        with pytest.raises(DomainError, match="assigned signal index"):
            error_probability(e, pom, Assignment({0: 0, 1: wrong, 2: 2}))
    # a sequence is not a map, and every outcome named must exist
    for wrong in ([0, 1, 2], [5, 1, 0], {0: 0, 1: 1, 2: 2, 5: 1}, {0: 0, 1: 1, 2: 2, -1: 0},
                  {0: 0, 1: 1, 2: 2, "2": 0}, {0: 0, True: 1, 2: 2}):
        with pytest.raises(DomainError, match="assign"):
            error_probability(e, pom, Assignment(wrong))
        with pytest.raises(DomainError, match="assign"):
            simulate_error(e, pom, Assignment(wrong), 100)
    exact = error_probability(e, pom, Assignment({0: 0, 1: 1, 2: 2}))
    assert error_probability(e, pom, Assignment({0: 0, 1: np.int64(1), 2: 2})) == exact
    assert error_probability(e, pom, Assignment({np.int64(0): 0, 1: 1, 2: 2})) == exact


def test_error_probability_rejects_an_assignment_that_is_not_an_assignment():
    e = symmetric_ensemble(3, 0.5)
    with pytest.raises(DomainError, match="assignment is a dict, not a Assignment"):
        error_probability(e, square_root_measurement(e), {0: 0, 1: 1, 2: 2})


def test_error_probability_reads_only_the_assigned_entries():
    """The Born table is indexed, not listed: the peak stays under twice its bytes."""
    m, outcomes = 200_000, 8
    e = symmetric_ensemble(m, 0.9)
    s = optimal_strategy_analytic(m, 0.9, outcomes)
    assignment = greedy_assignment(e, s.pom)
    tracemalloc.start()
    try:
        error_probability(e, s.pom, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * m * outcomes


def test_greedy_assignment_recovers_natural_labels():
    e = symmetric_ensemble(3, math.pi / 4)
    pom = square_root_measurement(e)
    assert greedy_assignment(e, pom).outcome_to_signal == {0: 0, 1: 1, 2: 2}


def test_greedy_assignment_tracks_permuted_elements():
    e = symmetric_ensemble(3, math.pi / 4)
    pom = square_root_measurement(e)
    shuffled = Pom(elements=pom.elements[::-1])
    assert greedy_assignment(e, shuffled).outcome_to_signal == {0: 2, 1: 1, 2: 0}


def test_greedy_assignment_breaks_ties_toward_the_lowest_signal():
    # outcome 3 of six lies exactly between signals 1 and 2 of three
    e = symmetric_ensemble(3, 0.7)
    pom = optimal_strategy_analytic(3, 0.7, 6).pom
    assert greedy_assignment(e, pom).outcome_to_signal[3] == 1
    for m in (2, 3, 4, 5, 8):
        for n in (m, m + 1, m + 3, 2 * m):
            for theta in (0.3, 0.7, 1.2, math.pi / 2):
                e = symmetric_ensemble(m, theta)
                pom = optimal_strategy_analytic(m, theta, n).pom
                probs = helpers.born_oracle(e, pom)
                # first signal within the tie tolerance of each column's best
                expected = (probs >= probs.max(axis=0) - 1e-12).argmax(axis=0)
                assert greedy_assignment(e, pom).outcome_to_signal == dict(
                    enumerate(expected.tolist())), (m, n, theta)


def test_min_error_analytic_endpoints_and_interior():
    for m in range(2, 9):
        assert min_error_analytic(m, 0.0) == pytest.approx(1 - 1 / m, abs=1e-15)
        assert min_error_analytic(m, math.pi / 2) == pytest.approx(1 - 2 / m, abs=1e-15)
    assert min_error_analytic(5, math.pi / 6) == pytest.approx(0.7, abs=1e-15)


def test_min_error_analytic_domain():
    with pytest.raises(DomainError):
        min_error_analytic(1, 0.3)
    with pytest.raises(DomainError):
        min_error_analytic(3, 1.8)
