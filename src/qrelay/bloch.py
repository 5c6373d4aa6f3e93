"""Qubit measurement algebra on arrays of Bloch terms.

An operator [[a, b], [conj(b), d]] is t I + r.sigma with t = (a + d)/2 and
r = (Re b, -Im b, (a - d)/2), so its eigenvalues are t +- |r|; a pure state
is (I + n.sigma)/2. Elements come as terms t[..., K], r[..., K, 3] and states
as Bloch vectors n[J, 3], with leading batch axes broadcasting. The package's
Born probabilities, score operators and square-root (frame) normalization
(Hausladen and Wootters, J. Mod. Opt. 41, 2385, 1994) are written here once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .qubit import Hermitian2, PureQubit
from .tolerances import PSEUDO_INVERSE


def terms(elements: Sequence[Hermitian2]) -> tuple[np.ndarray, np.ndarray]:
    """(t[K], r[K, 3]) of operators."""
    rows = np.array([(0.5 * (el.a + el.d), el.b.real, -el.b.imag, 0.5 * (el.a - el.d))
                     for el in elements])
    return rows[:, 0], rows[:, 1:]


def operators(t: np.ndarray, r: np.ndarray) -> tuple[Hermitian2, ...]:
    """The operators t_k I + r_k.sigma, inverse of terms."""
    return tuple(Hermitian2(tk + z, tk - z, complex(x, -y))
                 for tk, (x, y, z) in zip(t.tolist(), r.tolist()))


def vectors(states: Sequence[PureQubit]) -> np.ndarray:
    """Bloch vectors n[J, 3] of pure states: x + iy = 2 conj(amp_plus) amp_minus, z = |amp_plus|^2 - |amp_minus|^2."""
    rows = []
    for s in states:
        cross = s.amp_plus.conjugate() * s.amp_minus
        rows.append((2.0 * cross.real, 2.0 * cross.imag, abs(s.amp_plus) ** 2 - abs(s.amp_minus) ** 2))
    return np.array(rows)


def unit(v: np.ndarray) -> np.ndarray:
    """v / |v| over the last axis, +z for a zero vector."""
    norm = np.sqrt(np.einsum("...c,...c->...", v, v))
    u = v / np.where(norm > 0.0, norm, np.inf)[..., None]
    u[..., 2] += norm == 0.0
    return u


def born(t: np.ndarray, r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """P[..., j, k] = t_k + r_k.n_j."""
    return t[..., None, :] + np.einsum("jc,...kc->...jk", n, r)


def score(q: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the score operators O_k = sum_j q[..., j, k] |psi_j><psi_j|."""
    return 0.5 * q.sum(axis=-2), 0.5 * np.einsum("...jk,jc->...kc", q, n)


def sandwich(g0: np.ndarray, g: np.ndarray, t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms of G E G for G = g0 I + g.sigma and E = t I + r.sigma:
    t (g0^2 + |g|^2) + 2 g0 g.r and 2 t g0 g + (g0^2 - |g|^2) r + 2 (g.r) g."""
    gr = np.einsum("...c,...c->...", g, r)
    gg = np.einsum("...c,...c->...", g, g)
    return (t * (g0 * g0 + gg) + 2.0 * g0 * gr,
            (2.0 * t * g0 + 2.0 * gr)[..., None] * g + (g0 * g0 - gg)[..., None] * r)


def top(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest eigenvalue t + |r|; its eigenvector points along r."""
    return t + np.sqrt(np.einsum("...c,...c->...", r, r))


def lowest(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue t - |r|; hypot overflows only where |r| is past the double range."""
    return t - np.hypot(np.hypot(r[..., 0], r[..., 1]), r[..., 2])


def completeness(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How far the sum T I + R.sigma of the elements is from I: (|T - 1|, |R_z|, |R_x + i R_y|)."""
    x, y, z = r.sum(axis=-2).T
    return np.abs(t.sum(axis=-1) - 1.0), np.abs(z), np.hypot(x, y)


def residual(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of the element sum from I: max(|T - 1| + |R_z|, |R_x + i R_y|)."""
    total, polar, azimuthal = completeness(t, r)
    return np.maximum(total + polar, azimuthal)


def frame_normalize(w: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square-root normalization of rank-one elements E_k = w_k (I + n_k.sigma), |n_k| = 1.

    With frame axis u = s/|s| (z when s = 0) of S = s0 I + s.sigma and its
    eigenvalues lam+- = sum_k w_k (1 +- u.n_k), S^(-1/2) E_k S^(-1/2) has terms
        t'_k = (w_k (1 + u.n_k) / lam+ + w_k (1 - u.n_k) / lam-) / 2,
        r'_k = (w_k (1 + u.n_k) / lam+ - w_k (1 - u.n_k) / lam-) / 2 u
               + w_k (n_k - (u.n_k) u) / sqrt(lam+ lam-).
    1 +- u.n_k is taken as |n_k +- u|^2 / 2 so that lam- keeps its relative
    accuracy. An eigenvalue at or below the pseudo-inverse cutoff is dropped,
    which inverts S on its support only. Returns (t', r', lam-).
    """
    u = unit(np.einsum("...k,...kc->...c", w, n))[..., None, :]
    half = 0.5 * w
    plus = half * ((n + u) ** 2).sum(axis=-1)
    minus = half * ((n - u) ** 2).sum(axis=-1)
    lam_plus, lam_minus = plus.sum(axis=-1), minus.sum(axis=-1)
    kept_plus = np.where(lam_plus > PSEUDO_INVERSE, lam_plus, np.inf)[..., None]
    kept_minus = np.where(lam_minus > PSEUDO_INVERSE, lam_minus, np.inf)[..., None]
    plus, minus = plus / kept_plus, minus / kept_minus
    cross = w / np.sqrt(kept_plus * kept_minus)
    r = (0.5 * (plus - minus))[..., None] * u + cross[..., None] * (n - (u * n).sum(axis=-1, keepdims=True) * u)
    return 0.5 * (plus + minus), r, lam_minus
