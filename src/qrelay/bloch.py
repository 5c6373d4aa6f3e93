"""Qubit measurement algebra on arrays of Bloch terms.

An operator [[a, b], [conj(b), d]] is t I + r.sigma with t = (a + d)/2 and
r = (Re b, -Im b, (a - d)/2), so its eigenvalues are t +- |r|; a pure state
is (I + n.sigma)/2. Elements come as terms t[..., K], r[..., K, 3] and states
as Bloch vectors n[J, 3], with leading batch axes broadcasting. The package's
Born probabilities and square-root (frame) normalization (Hausladen and
Wootters, J. Mod. Opt. 41, 2385, 1994) are written here once.
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


def unit(v: np.ndarray, norm: np.ndarray | None = None) -> np.ndarray:
    """v / |v| over the last axis, +z for a zero vector; norm, when given, is |v| already taken."""
    if norm is None:
        norm = np.sqrt(np.einsum("...c,...c->...", v, v))
    u = v / np.where(norm > 0.0, norm, np.inf)[..., None]
    u[..., 2] += norm == 0.0
    return u


def born(t: np.ndarray, r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """P[..., j, k] = t_k + r_k.n_j, added into the product so only P is allocated."""
    p = n @ np.swapaxes(r, -1, -2)
    p += t[..., None, :]
    return p


def sandwich(g0: np.ndarray, g: np.ndarray, t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms of G E G for G = g0 I + g.sigma and E = t I + r.sigma:
    t (g0^2 + |g|^2) + 2 g0 g.r and 2 t g0 g + (g0^2 - |g|^2) r + 2 (g.r) g."""
    gr = np.einsum("...c,...c->...", g, r)
    gg = np.einsum("...c,...c->...", g, g)
    return (t * (g0 * g0 + gg) + 2.0 * g0 * gr,
            (2.0 * t * g0 + 2.0 * gr)[..., None] * g + (g0 * g0 - gg)[..., None] * r)


def lowest(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue t - |r|; hypot overflows only where |r| is past the double range."""
    return t - np.hypot(np.hypot(r[..., 0], r[..., 1]), r[..., 2])


def residual(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of the element sum T I + R.sigma from I: max(|T - 1| + |R_z|, |R_x + i R_y|)."""
    r_sum = r.sum(axis=-2)
    return np.maximum(np.abs(t.sum(axis=-1) - 1.0) + np.abs(r_sum[..., 2]), np.hypot(r_sum[..., 0], r_sum[..., 1]))


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
    u = unit(w[..., None, :] @ n)
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
