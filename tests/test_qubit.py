"""States, their Bloch vectors and the closed-form 2x2 Hermitian eigensolver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import property_suites
from qrelay import DomainError, Hermitian2, PureQubit, bloch, hermitian_eig2, make_qubit
from qrelay.qubit import MINUS, PLUS, state_along

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


@pytest.mark.parametrize("amps", [(1e200, 0.0), (0.0, complex(1e155, 0.0)),
                                  (10 ** 400, 0.0), (complex(1e308, 1e308), 0.0)])
def test_constructor_rejects_amplitudes_beyond_double_range(amps):
    with pytest.raises(DomainError):
        PureQubit(*amps)


@pytest.mark.parametrize("build", [
    lambda: Hermitian2(None, 0, 0), lambda: Hermitian2(1j, 0, 0), lambda: Hermitian2("x", 0, 0),
    lambda: Hermitian2(0, True, 0), lambda: Hermitian2(0, 0, "1"),
    lambda: PureQubit(None, 1), lambda: PureQubit(1, "0"),
    lambda: make_qubit("a", 0), lambda: make_qubit(1.0, "x"), lambda: make_qubit(None, 0),
], ids=["h_none", "h_complex_diagonal", "h_text", "h_bool", "h_text_offdiagonal",
        "q_none", "q_text", "colatitude_text", "longitude_text", "colatitude_none"])
def test_fields_that_are_not_numbers_raise_domain_error(build):
    with pytest.raises(DomainError, match="must be a (real|complex) number"):
        build()


@pytest.mark.parametrize("fields", [(10 ** 400, 0, 0), (0, -10 ** 400, 0), (0, 0, 10 ** 400)],
                         ids=["a", "d", "b"])
def test_hermitian_fields_beyond_double_range_raise_domain_error(fields):
    with pytest.raises(DomainError, match="out of range"):
        Hermitian2(*fields)


def test_numpy_scalar_fields_are_numbers():
    assert Hermitian2(np.float64(0.5), np.int64(0), np.complex64(0.5j)) == Hermitian2(0.5, 0.0, 0.5j)
    assert PureQubit(np.complex128(1.0), np.float32(0.0)) == PLUS
    assert make_qubit(np.float32(0.0), np.float64(1.0)) == PLUS


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


def overlap(a: PureQubit, b: PureQubit) -> float:
    """|<a|b>|^2 the way the package takes it: the Born probability of b's projector in state a."""
    return float(bloch.born(np.array([0.5]), 0.5 * bloch.vectors((b,)), bloch.vectors((a,)))[0, 0])


def test_overlap_prob_reference_points():
    assert overlap(PLUS, PLUS) == 1.0
    assert overlap(PLUS, MINUS) == 0.0
    assert overlap(PLUS, make_qubit(math.pi / 2, 0.0)) == pytest.approx(0.5)


def test_bloch_vectors_of_named_states():
    up, down, side = bloch.vectors((PLUS, MINUS, make_qubit(math.pi / 2, math.pi / 2)))
    assert tuple(up) == pytest.approx((0.0, 0.0, 1.0))
    assert tuple(down) == pytest.approx((0.0, 0.0, -1.0))
    assert tuple(side) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(colat=ANGLES, lon=LONGITUDES)
def test_bloch_roundtrip_matches_spherical_coordinates(colat, lon):
    x, y, z = bloch.vectors((make_qubit(colat, lon),))[0]
    assert x == pytest.approx(math.sin(colat) * math.cos(lon), abs=1e-12)
    assert y == pytest.approx(math.sin(colat) * math.sin(lon), abs=1e-12)
    assert z == pytest.approx(math.cos(colat), abs=1e-12)


def test_expectation_matches_matrix_sandwich():
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = helpers.random_hermitian(rng)
        s = helpers.random_qubit(rng)
        direct = (helpers.ket(s).conj() @ helpers.matrix(h) @ helpers.ket(s)).real
        got = bloch.born(*bloch.terms((h,)), bloch.vectors((s,)))[0, 0]
        assert got == pytest.approx(direct, abs=1e-12)


NEAR_POLES = [(1e-9, 2e-9, 1.0), (-3e-17, 1e-17, 1.0), (1e-9, -1e-9, -1.0), (2e-17, 5e-17, -1.0),
              (1e-300, 0.0, -1.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


def directions() -> np.ndarray:
    """Random directions in both hemispheres, then directions within 1e-9 rad of a pole."""
    rng = np.random.default_rng(17)
    return np.vstack([rng.normal(size=(200, 3)), NEAR_POLES])


def test_state_along_round_trips_through_bloch_vectors():
    v = directions()
    n = bloch.vectors([state_along(*row) for row in v.tolist()])
    assert np.abs(n - bloch.unit(v)).max() <= 1e-15


@pytest.mark.parametrize("scale", [1e-200, 2.0 ** -40, 1e-3, 3.7, 1e200])
def test_state_along_ignores_the_length(scale):
    for row in directions().tolist():
        state, rescaled = state_along(*row), state_along(*(scale * c for c in row))
        assert abs(state.amp_plus - rescaled.amp_plus) <= 1e-15
        assert abs(state.amp_minus - rescaled.amp_minus) <= 1e-15


@pytest.mark.parametrize("zero", list(itertools.product((0.0, -0.0), repeat=3)))
def test_state_along_the_unit_of_a_zero_vector_is_plus(zero):
    assert state_along(*bloch.unit(np.array(zero))) == PLUS


def test_eig_identity_resolves_tie_toward_plus():
    (lam1, v1), (lam2, v2) = hermitian_eig2(Hermitian2(1.0, 1.0, 0j))
    assert lam1 == lam2 == 1.0
    assert v1 == PLUS and v2 == MINUS


def test_eig_pauli_x():
    (lam1, v1), (lam2, v2) = hermitian_eig2(Hermitian2(0.0, 0.0, 1.0 + 0.0j))
    assert (lam1, lam2) == (1.0, -1.0)
    assert v1.amp_plus == pytest.approx(1 / math.sqrt(2))
    assert v1.amp_minus == pytest.approx(1 / math.sqrt(2))
    assert abs(np.vdot(helpers.ket(v1), helpers.ket(v2))) <= 1e-15


def test_eig_matches_numpy_on_random_operators():
    rng = np.random.default_rng(7)
    for _ in range(500):
        h = helpers.random_hermitian(rng, scale=3.0)
        (lam1, v1), (lam2, v2) = hermitian_eig2(h)
        vals, vecs = np.linalg.eigh(helpers.matrix(h))
        assert lam1 == pytest.approx(vals[1], abs=1e-12)
        assert lam2 == pytest.approx(vals[0], abs=1e-12)
        # eigenvectors agree up to the global phase convention
        assert abs(np.vdot(vecs[:, 1], helpers.ket(v1))) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(vecs[:, 0], helpers.ket(v2))) == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_pair_orders_descending():
    h = Hermitian2(-2.0, 5.0, 0.25j)
    (lam1, _), (lam2, _) = hermitian_eig2(h)
    assert lam1 >= lam2
    assert lam1 + lam2 == pytest.approx(h.a + h.d)
    assert lam1 * lam2 == pytest.approx(h.a * h.d - abs(h.b) ** 2)


def test_projector_is_idempotent_rank_one():
    # a state's projector in Bloch terms, (I + n.sigma)/2, is |q><q|
    q = make_qubit(1.1, 2.3)
    p = helpers.matrix(bloch.operators(np.array([0.5]), 0.5 * bloch.vectors((q,)))[0])
    assert np.abs(p - np.outer(helpers.ket(q), helpers.ket(q).conj())).max() <= 1e-15
    assert np.abs(p @ p - p).max() <= 1e-15
    assert overlap(q, q) == pytest.approx(1.0)


def test_spectral_invariants_random_population():
    assert property_suites.qubit_spectral_suite() == 10_000


def test_overlap_equals_bloch_dot_random_population():
    assert property_suites.qubit_overlap_suite() == 10_000
