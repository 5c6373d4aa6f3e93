"""The array kernel against the independent matrix oracles."""

import math

import numpy as np
import pytest

import helpers
from qrelay import (DomainError, Hermitian2, Pom, bloch, error_probability, greedy_assignment,
                    optimal_retransmission, square_root_measurement, symmetric_ensemble,
                    validate_pom)
from qrelay.optimizer import _correct_objective, _fidelity_objective, _frame_map, _pom


@pytest.mark.parametrize("m,theta", [(2, 0.7), (3, math.pi / 4), (5, 0.0), (8, math.pi / 2)])
def test_batched_born_rows_match_matrix_oracle(m, theta):
    rng = np.random.default_rng(31 + m)
    e = symmetric_ensemble(m, theta)
    poms = [helpers.random_pom(rng, 4) for _ in range(6)]
    t = np.stack([p.terms[0] for p in poms]).reshape(2, 3, 4)
    r = np.stack([p.terms[1] for p in poms]).reshape(2, 3, 4, 3)
    probs = bloch.born(t, r, e.vectors).reshape(6, m, 4)
    for row, pom in zip(probs, poms):
        assert np.abs(row - helpers.born_oracle(e, pom)).max() <= 1e-12


def test_terms_and_operators_are_inverse():
    rng = np.random.default_rng(5)
    ops = tuple(helpers.random_hermitian(rng) for _ in range(7))
    for ours, ref in zip(bloch.operators(*bloch.terms(ops)), ops):
        assert helpers.entrywise_gap(ours, ref) <= 1e-15


def test_non_finite_element_is_rejected_before_terms():
    ops = (bloch.operators(np.array([0.5]), np.array([[0.0, 0.0, 0.5]]))[0],
           Hermitian2(math.inf, -math.inf, 0j))
    with pytest.raises(DomainError, match="element 1 has a non-finite entry"):
        Pom(elements=ops)


def test_frame_normalize_with_zero_frame_axis():
    # S = I exactly, so s = 0 and any axis is an eigenvector: the set is already complete
    w = np.array([0.25, 0.25, 0.25, 0.25])
    n = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.6, -0.8]])
    t, r, lam_minus = bloch.frame_normalize(w, n)
    assert lam_minus == 1.0
    assert np.array_equal(t, w) and np.abs(r - w[:, None] * n).max() <= 1e-16


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_frame_normalize_rows_match_each_row_alone(k):
    """Leading shapes (), (B,) and (B1, B2) give each row exactly what it gets alone."""
    rng = np.random.default_rng(90 + k)
    w = rng.dirichlet(np.ones(k), size=(2, 3))
    n = bloch.unit(rng.standard_normal((2, 3, k, 3)))
    n[0, 1] = n[0, 1, :1]  # every element along one axis: a singular frame
    w[1, 2], n[1, 2] = 1.0 / k, [(0.0, 0.0, (-1.0) ** j) for j in range(k)]  # s = 0 for even k
    rows = [tuple(bloch.frame_normalize(w[i, j], n[i, j])) for i in range(2) for j in range(3)]
    for batch in (bloch.frame_normalize(w.reshape(6, k), n.reshape(6, k, 3)),
                  tuple(x.reshape(6, *x.shape[2:]) for x in bloch.frame_normalize(w, n))):
        for b, alone in enumerate(rows):
            for ours, ref in zip(batch, alone):
                assert ours[b].shape == ref.shape and np.array_equal(ours[b], ref)


@pytest.mark.parametrize("m,theta", [(2, math.pi / 4), (3, 0.0), (4, 1.2), (8, math.pi / 2)])
def test_objective_rows_match_exact_evaluation(m, theta):
    rng = np.random.default_rng(70 + m)
    e = symmetric_ensemble(m, theta)
    W = rng.dirichlet(np.ones(4), size=12)
    TH = np.arccos(rng.uniform(-1.0, 1.0, (12, 4)))
    PH = rng.uniform(0.0, 2 * math.pi, (12, 4))
    t, r, resid = _frame_map(W, helpers.unit_vectors(TH, PH))
    assert float(resid.max()) <= 1e-14
    fidelity = _fidelity_objective(e, t, r)[0]
    correct = _correct_objective(e, t, r)[0]
    for i in range(12):
        pom = _pom(t[i], r[i])
        assert abs(fidelity[i] - optimal_retransmission(e, pom).fidelity) <= 1e-12
        exact = 1.0 - error_probability(e, pom, greedy_assignment(e, pom))
        assert abs(correct[i] - exact) <= 1e-12


@pytest.mark.parametrize("objective", [_fidelity_objective, _correct_objective])
@pytest.mark.parametrize("m,theta", [(2, math.pi / 4), (3, 0.0), (4, 1.2), (8, math.pi / 2)])
def test_objective_gradients_match_central_differences(objective, m, theta):
    """(g0, g) is 2/p times the gradient: dF = p sum_k (g0_k dt_k + g_k.dr_k)."""
    rng = np.random.default_rng(80 + m)
    e = symmetric_ensemble(m, theta)
    t, r, _ = _frame_map(rng.dirichlet(np.ones(4), size=12), rng.standard_normal((12, 4, 3)))
    dt, dr = rng.standard_normal((12, 4)), rng.standard_normal((12, 4, 3))
    _, g0, g = objective(e, t, r)
    step = 1e-6
    numeric = (objective(e, t + step * dt, r + step * dr)[0]
               - objective(e, t - step * dt, r - step * dr)[0]) / (2 * step)
    analytic = e.prior * ((g0 * dt).sum(axis=-1) + np.einsum("ikc,ikc->i", g, dr))
    assert np.abs(numeric - analytic).max() <= 1e-6


def test_sandwich_matches_matrix_products():
    """bloch.sandwich gives the terms of G E G, against 2x2 matrix products."""
    rng = np.random.default_rng(17)
    g0, t = rng.uniform(0.1, 2.0, (2, 6))
    g, r = rng.standard_normal((2, 6, 3))
    t2, r2 = bloch.sandwich(g0, g, t, r)
    for G, E, GEG in zip(*(map(helpers.matrix, bloch.operators(*terms))
                           for terms in ((g0, g), (t, r), (t2, r2)))):
        assert np.abs(G @ E @ G - GEG).max() <= 1e-12


def test_unit_directions_take_z_for_zero_vectors():
    v = np.array([[[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]], [[0.0, -2.0, 0.0], [0.0, 0.0, 0.0]]])
    assert np.array_equal(bloch.unit(v), [[[0.6, 0.0, 0.8], [0.0, 0.0, 1.0]],
                                          [[0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]])


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("theta", [0.0, 1e-3, math.pi / 8, math.pi / 4, math.pi / 2])
def test_square_root_measurement_matches_frame_oracle(m, theta):
    e = symmetric_ensemble(m, theta)
    pom = square_root_measurement(e)
    psi = helpers.state_matrix(e)
    expected = helpers.frame_normalized([np.outer(v, v.conj()) for v in psi])
    for el, ref in zip(pom.elements, expected):
        assert np.abs(helpers.matrix(el) - ref).max() <= 1e-12
    # only the rank-deficient frame at theta = 0 leaves a sum short of the identity
    assert (validate_pom(pom) != []) == (theta == 0.0)
