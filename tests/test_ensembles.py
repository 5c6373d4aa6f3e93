"""Symmetric signal ensembles and the phase generator."""

import math

import numpy as np
import pytest

import helpers
import property_suites
from qrelay import (DomainError, apply_generator, bloch_vector, inner,
                    optimal_strategy_analytic, overlap_prob, symmetric_ensemble)
from qrelay.qubit import PLUS


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
    assert overlap_prob(e.states[0], e.states[1]) == pytest.approx(0.0, abs=1e-15)


def test_four_states_share_colatitude_and_step_longitudes():
    e = symmetric_ensemble(4, math.pi / 3)
    for j, s in enumerate(e.states):
        assert bloch_vector(s).z == pytest.approx(0.5, abs=1e-12)
        assert helpers.longitude_of(s) == pytest.approx(j * math.pi / 2, abs=1e-12)
    # neighbour overlaps agree, the defining symmetry of the family
    ring = [overlap_prob(e.states[j], e.states[(j + 1) % 4]) for j in range(4)]
    assert max(ring) - min(ring) <= 1e-12


def test_defining_amplitudes():
    m, theta = 5, 0.7
    e = symmetric_ensemble(m, theta)
    for j, s in enumerate(e.states):
        assert s.amp_plus == pytest.approx(math.cos(theta / 2), abs=1e-15)
        expected = math.sin(theta / 2) * complex(math.cos(2 * math.pi * j / m),
                                                 math.sin(2 * math.pi * j / m))
        assert s.amp_minus == pytest.approx(expected, abs=1e-15)


def test_domain_rejection():
    with pytest.raises(DomainError):
        symmetric_ensemble(1, 0.3)
    with pytest.raises(DomainError):
        symmetric_ensemble(3, -0.01)
    with pytest.raises(DomainError):
        symmetric_ensemble(3, math.pi / 2 + 0.01)


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


def test_generator_fixes_plus():
    for m in (2, 3, 7):
        assert apply_generator(PLUS, m) == PLUS


def test_generator_fixes_minus_up_to_phase_convention():
    from qrelay.qubit import MINUS
    out = apply_generator(MINUS, 4)
    assert out == MINUS


def test_generator_steps_to_the_next_state():
    e = symmetric_ensemble(3, math.pi / 2)
    stepped = apply_generator(e.states[0], 3)
    assert abs(inner(stepped, e.states[1])) == pytest.approx(1.0, abs=1e-12)
    assert stepped.amp_plus == pytest.approx(e.states[1].amp_plus, abs=1e-12)
    assert stepped.amp_minus == pytest.approx(e.states[1].amp_minus, abs=1e-12)


def test_generator_period_property():
    assert property_suites.ensemble_generator_suite() > 0


def test_gram_symmetry_property():
    assert property_suites.ensemble_gram_suite() > 0
