"""States, Bloch geometry and the closed-form 2x2 Hermitian eigensolver."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import property_suites
from qrelay import (DomainError, Hermitian2, PureQubit, bloch_vector,
                    hermitian_eig2, inner, make_qubit, overlap_prob)
from qrelay.qubit import MINUS, PLUS

ANGLES = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
LONGITUDES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_make_qubit_poles_and_equator():
    north = make_qubit(0.0, 2.1)
    assert north.amp_plus == 1.0 and north.amp_minus == 0.0
    south = make_qubit(math.pi, 0.0)
    assert abs(south.amp_plus) <= 1e-16 and south.amp_minus == pytest.approx(1.0)
    equator = make_qubit(math.pi / 2, 0.0)
    assert equator.amp_plus == pytest.approx(1 / math.sqrt(2))
    assert equator.amp_minus == pytest.approx(1 / math.sqrt(2))


def test_make_qubit_rejects_bad_colatitude():
    with pytest.raises(DomainError):
        make_qubit(-0.1, 0.0)
    with pytest.raises(DomainError):
        make_qubit(math.pi + 0.1, 0.0)


def test_constructor_rejects_unnormalized_amplitudes():
    with pytest.raises(DomainError):
        PureQubit(1.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        PureQubit(0.0j, 0.5 + 0.0j)


def test_constructor_snaps_tiny_norm_drift():
    drift = math.sqrt(1.0 + 1e-10)
    q = PureQubit(0.6 * drift, 0.8j * drift)
    assert abs(q.amp_plus) ** 2 + abs(q.amp_minus) ** 2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("amps", [(math.nan, 0.0), (0.0, complex(0.0, math.nan)),
                                  (math.inf, 0.0), (complex(1.0, math.nan), 0.0)])
def test_constructor_rejects_non_finite_amplitudes(amps):
    with pytest.raises(DomainError):
        PureQubit(*amps)


def test_construction_is_idempotent():
    rng = np.random.default_rng(11)
    states = [helpers.random_qubit(rng) for _ in range(2000)]
    states += [make_qubit(float(c), float(l)) for c, l in
               zip(rng.uniform(0.0, math.pi, 2000), rng.uniform(-7.0, 7.0, 2000))]
    # amplitudes off unit norm by far more than rounding take the rescaling path
    states += [PureQubit(q.amp_plus * f, q.amp_minus * f)
               for q, f in zip(states[:2000], 1.0 + rng.uniform(-1e-10, 1e-10, 2000))]
    states += [PureQubit(0.6j, -0.8), PureQubit(0.0, -1j)]
    for q in states:
        again = PureQubit(q.amp_plus, q.amp_minus)
        # repr tells the sign of every zero component apart as well
        assert repr((again.amp_plus, again.amp_minus)) == repr((q.amp_plus, q.amp_minus))


def test_phase_convention_leading_component_positive():
    q = PureQubit(1j / math.sqrt(2), (1 + 0j) / math.sqrt(2))
    assert q.amp_plus.imag == 0.0 and q.amp_plus.real > 0.0
    assert q.amp_minus == pytest.approx(-1j / math.sqrt(2))
    # when the first amplitude vanishes the second carries the convention
    r = PureQubit(0.0j, -1.0 + 0.0j)
    assert r.amp_minus == 1.0 + 0j


def test_overlap_prob_reference_points():
    assert overlap_prob(PLUS, PLUS) == 1.0
    assert overlap_prob(PLUS, MINUS) == 0.0
    assert overlap_prob(PLUS, make_qubit(math.pi / 2, 0.0)) == pytest.approx(0.5)


def test_inner_is_conjugate_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = helpers.random_qubit(rng), helpers.random_qubit(rng)
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate())


def test_bloch_vectors_of_named_states():
    up = bloch_vector(PLUS)
    assert (up.x, up.y, up.z) == pytest.approx((0.0, 0.0, 1.0))
    down = bloch_vector(MINUS)
    assert (down.x, down.y, down.z) == pytest.approx((0.0, 0.0, -1.0))
    side = bloch_vector(make_qubit(math.pi / 2, math.pi / 2))
    assert (side.x, side.y, side.z) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(colat=ANGLES, lon=LONGITUDES)
def test_bloch_roundtrip_matches_spherical_coordinates(colat, lon):
    b = bloch_vector(make_qubit(colat, lon))
    assert b.x == pytest.approx(math.sin(colat) * math.cos(lon), abs=1e-12)
    assert b.y == pytest.approx(math.sin(colat) * math.sin(lon), abs=1e-12)
    assert b.z == pytest.approx(math.cos(colat), abs=1e-12)


def test_hermitian_roundtrip_and_rejection():
    h = Hermitian2(0.3, -1.2, 0.4 - 0.7j)
    again = Hermitian2.from_matrix(h.to_matrix())
    assert helpers.entrywise_gap(h, again) == 0.0
    with pytest.raises(DomainError):
        Hermitian2.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        Hermitian2.from_matrix(np.eye(3))


def test_hermitian_scalar_product_rejects_complex():
    h = Hermitian2.identity()
    doubled = 2 * h
    assert doubled.a == 2.0 and doubled.d == 2.0
    with pytest.raises(TypeError):
        1j * h


def test_expectation_matches_matrix_sandwich():
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = helpers.random_hermitian(rng)
        s = helpers.random_qubit(rng)
        direct = (s.as_array().conj() @ h.to_matrix() @ s.as_array()).real
        assert h.expectation(s) == pytest.approx(direct, abs=1e-12)


def test_eig_identity_resolves_tie_toward_plus():
    (lam1, v1), (lam2, v2) = hermitian_eig2(Hermitian2.identity())
    assert lam1 == lam2 == 1.0
    assert v1 == PLUS and v2 == MINUS


def test_eig_pauli_x():
    (lam1, v1), (lam2, v2) = hermitian_eig2(Hermitian2(0.0, 0.0, 1.0 + 0.0j))
    assert (lam1, lam2) == (1.0, -1.0)
    assert v1.amp_plus == pytest.approx(1 / math.sqrt(2))
    assert v1.amp_minus == pytest.approx(1 / math.sqrt(2))
    assert abs(inner(v1, v2)) <= 1e-15


def test_eig_matches_numpy_on_random_operators():
    rng = np.random.default_rng(7)
    for _ in range(500):
        h = helpers.random_hermitian(rng, scale=3.0)
        (lam1, v1), (lam2, v2) = hermitian_eig2(h)
        vals, vecs = np.linalg.eigh(h.to_matrix())
        assert lam1 == pytest.approx(vals[1], abs=1e-12)
        assert lam2 == pytest.approx(vals[0], abs=1e-12)
        # eigenvectors agree up to the global phase convention
        assert abs(np.vdot(vecs[:, 1], v1.as_array())) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(vecs[:, 0], v2.as_array())) == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_pair_orders_descending():
    h = Hermitian2(-2.0, 5.0, 0.25j)
    lam1, lam2 = h.eigenvalues()
    assert lam1 >= lam2
    assert lam1 + lam2 == pytest.approx(h.trace)
    assert lam1 * lam2 == pytest.approx(h.det)


def test_projector_is_idempotent_rank_one():
    q = make_qubit(1.1, 2.3)
    p = Hermitian2.projector(q)
    assert p.trace == pytest.approx(1.0)
    assert p.det == pytest.approx(0.0, abs=1e-15)
    assert p.expectation(q) == pytest.approx(1.0)


def test_spectral_invariants_random_population():
    assert property_suites.qubit_spectral_suite() == 10_000


def test_overlap_equals_bloch_dot_random_population():
    assert property_suites.qubit_overlap_suite() == 10_000
