"""Shared generators and independent numpy oracles for the test suite.

The oracles deliberately avoid the library's own linear algebra: matrices are
built and reduced with numpy so that closed-form results are checked by a
second, unrelated route.
"""

import math

import numpy as np

from qrelay import Hermitian2, Pom, PureQubit, Strategy, SymmetricEnsemble

M_GRID = (3, 4, 5, 8)
THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def random_qubit(rng: np.random.Generator) -> PureQubit:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return PureQubit(complex(v[0], v[1]), complex(v[2], v[3]))


def random_hermitian(rng: np.random.Generator, scale: float = 1.0) -> Hermitian2:
    a, d, br, bi = rng.normal(scale=scale, size=4)
    return Hermitian2(a, d, complex(br, bi))


def frame_normalized(seeds: list[np.ndarray]) -> list[np.ndarray]:
    """S^(-1/2) E S^(-1/2) for every seed E, with S the sum of the seeds.

    The inverse square root is taken on the support of S: eigenvalues at or
    below 1e-10 are dropped.
    """
    vals, vecs = np.linalg.eigh(np.sum(seeds, axis=0))
    kept = vals > 1e-10
    inv_root = (vecs * (kept / np.sqrt(np.where(kept, vals, 1.0)))) @ vecs.conj().T
    return [inv_root @ s @ inv_root for s in seeds]


def random_pom(rng: np.random.Generator, size: int) -> Pom:
    """Random measurement: rank-one seeds conjugated so the elements sum to the identity."""
    seeds = []
    for _ in range(size):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        seeds.append(np.outer(v, v.conj()))
    elements = tuple(Hermitian2.from_matrix(el) for el in frame_normalized(seeds))
    return Pom(elements=elements, labels=tuple(range(size)))


def bloch_element(weight: float, colatitude: float, longitude: float) -> np.ndarray:
    """The matrix weight * (I + n.sigma) for the unit vector n at the given angles."""
    n = (math.sin(colatitude) * math.cos(longitude),
         math.sin(colatitude) * math.sin(longitude), math.cos(colatitude))
    return weight * np.array([[1.0 + n[2], n[0] - 1j * n[1]],
                              [n[0] + 1j * n[1], 1.0 - n[2]]])


def state_matrix(e: SymmetricEnsemble) -> np.ndarray:
    """Signal amplitudes, one state per row."""
    return np.array([s.as_array() for s in e.states])


def born_oracle(e: SymmetricEnsemble, p: Pom) -> np.ndarray:
    """P(outcome k | signal j) by direct matrix sandwiches; rows j, columns k."""
    psi = state_matrix(e)
    return np.array([[(psi[j].conj() @ el.to_matrix() @ psi[j]).real
                      for el in p.elements] for j in range(e.m)])


def fidelity_oracle(e: SymmetricEnsemble, s: Strategy) -> float:
    """Double-loop fidelity sum using only numpy matrix algebra."""
    psi = state_matrix(e)
    total = 0.0
    for j in range(e.m):
        for el, out in zip(s.pom.elements, s.retransmit):
            prob = (psi[j].conj() @ el.to_matrix() @ psi[j]).real
            amp = psi[j].conj() @ out.as_array()
            total += e.prior * prob * abs(amp) ** 2
    return total


def colatitude_of(s: PureQubit) -> float:
    return 2.0 * math.atan2(abs(s.amp_minus), abs(s.amp_plus))


def longitude_of(s: PureQubit) -> float:
    """Azimuth in [0, 2*pi); zero for states at either pole."""
    cross = s.amp_plus.conjugate() * s.amp_minus
    if abs(cross) < 1e-12:
        return 0.0
    return math.atan2(cross.imag, cross.real) % (2.0 * math.pi)


def element_weight_direction(el: Hermitian2) -> tuple[float, np.ndarray]:
    """Weight w = tr/2 and Bloch direction of an element w (1 + n.sigma)."""
    w = 0.5 * (el.a + el.d)
    if w <= 1e-300:
        return w, np.array([0.0, 0.0, 1.0])
    direction = np.array([el.b.real, -el.b.imag, 0.5 * (el.a - el.d)]) / w
    return w, direction


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    c = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.acos(min(max(c, -1.0), 1.0))


def equatorial_state(longitude: float) -> PureQubit:
    """(|+> + exp(i*longitude)|->)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return PureQubit(r, r * complex(math.cos(longitude), math.sin(longitude)))


def identity_assignment(m: int):
    from qrelay import Assignment
    return Assignment({j: j for j in range(m)})


def entrywise_gap(x: Hermitian2, y: Hermitian2) -> float:
    return max(abs(x.a - y.a), abs(x.d - y.d), abs(x.b - y.b))
