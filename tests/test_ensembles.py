"""Symmetric signal ensembles and the phase rotation that generates them."""

import math

import numpy as np
import pytest

import helpers
import qrelay
from qrelay import (DomainError, SymmetricEnsemble, bloch, error_probability,
                    fidelity_of_strategy, optimal_strategy_analytic, simulate_strategy,
                    symmetric_ensemble)
from qrelay.qubit import PLUS


def overlap(a, b) -> float:
    return abs(np.vdot(helpers.ket(a), helpers.ket(b))) ** 2


def test_theta_zero_collapses_to_plus():
    e = symmetric_ensemble(3, 0.0)
    assert e.m == 3 and e.prior == pytest.approx(1 / 3)
    for s in e.states:
        assert s == PLUS


def test_orthogonal_pair_at_right_angle():
    e = symmetric_ensemble(2, math.pi / 2)
    r = 1 / math.sqrt(2)
    assert e.states[0].amp_plus == pytest.approx(r)
    assert e.states[0].amp_minus == pytest.approx(r)
    assert e.states[1].amp_plus == pytest.approx(r)
    assert e.states[1].amp_minus == pytest.approx(-r)
    assert overlap(e.states[0], e.states[1]) == pytest.approx(0.0, abs=1e-15)


def test_four_states_share_colatitude_and_step_longitudes():
    e = symmetric_ensemble(4, math.pi / 3)
    for j, s in enumerate(e.states):
        assert e.vectors[j, 2] == pytest.approx(0.5, abs=1e-12)
        assert helpers.longitude_of(s) == pytest.approx(j * math.pi / 2, abs=1e-12)
    # neighbour overlaps agree, the defining symmetry of the family
    ring = [overlap(e.states[j], e.states[(j + 1) % 4]) for j in range(4)]
    assert max(ring) - min(ring) <= 1e-12


def test_defining_amplitudes():
    m, theta = 5, 0.7
    e = symmetric_ensemble(m, theta)
    for j, s in enumerate(e.states):
        assert s.amp_plus == pytest.approx(math.cos(theta / 2), abs=1e-15)
        expected = math.sin(theta / 2) * complex(math.cos(2 * math.pi * j / m),
                                                 math.sin(2 * math.pi * j / m))
        assert s.amp_minus == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13])
def test_closed_form_vectors_match_the_states(m):
    for theta in np.linspace(0.0, math.pi / 2, 17):
        e = symmetric_ensemble(m, float(theta))
        assert np.abs(e.vectors - bloch.vectors(e.states)).max() <= 1e-15


def test_figures_of_merit_build_no_states(monkeypatch):
    strategy = optimal_strategy_analytic(5, 0.7)
    assignment = helpers.identity_assignment(5)
    calls = []

    def counted(*args):
        calls.append(args)
        return qrelay.qubit.make_qubit(*args)

    for module in (qrelay, qrelay.ensembles, qrelay.fidelity):
        monkeypatch.setattr(module, "make_qubit", counted)
    simulate_strategy(symmetric_ensemble(5, 0.7), strategy, assignment, trials=1000)
    fidelity_of_strategy(symmetric_ensemble(5, 0.7), strategy)
    error_probability(symmetric_ensemble(5, 0.7), strategy.pom, assignment)
    assert calls == []


def test_domain_rejection():
    with pytest.raises(DomainError):
        symmetric_ensemble(1, 0.3)
    with pytest.raises(DomainError):
        SymmetricEnsemble(1, 0.3)
    with pytest.raises(DomainError):
        symmetric_ensemble(3, -0.01)
    with pytest.raises(DomainError):
        symmetric_ensemble(3, math.pi / 2 + 0.01)
    for theta in ("0.5", True, np.True_, None, 0.5 + 0j, math.nan):
        with pytest.raises(DomainError, match="theta"):
            symmetric_ensemble(3, theta)
    for theta in (1, np.float32(0.5), np.float64(0.5), np.int64(1)):
        assert symmetric_ensemble(3, theta).theta == theta


@pytest.mark.parametrize("m", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_sizes_are_accepted(m):
    e = symmetric_ensemble(m, 0.4)
    assert type(e.m) is int and e.m == 3
    assert e.states == symmetric_ensemble(3, 0.4).states
    assert optimal_strategy_analytic(m, 0.4) == optimal_strategy_analytic(3, 0.4)


@pytest.mark.parametrize("m", [True, np.True_, 3.0, np.float64(3.0), "3"])
def test_non_integer_sizes_are_rejected(m):
    with pytest.raises(DomainError):
        symmetric_ensemble(m, 0.4)


def test_generator_steps_to_the_next_state():
    e = symmetric_ensemble(3, math.pi / 2)
    first, second = e.states[:2]
    step = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert second.amp_plus == pytest.approx(first.amp_plus, abs=1e-12)
    assert second.amp_minus == pytest.approx(first.amp_minus * step, abs=1e-12)
    assert overlap(first, second) == pytest.approx(0.25, abs=1e-12)
