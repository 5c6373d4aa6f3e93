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

from .qubit import Hermitian2, PureQubit, _bloch_xyz
from .tolerances import TOL, Tolerances


def terms(elements: Sequence[Hermitian2]) -> tuple[np.ndarray, np.ndarray]:
    """(t[K], r[K, 3]) of operators; one with a non-finite entry gets NaN terms throughout."""
    rows = np.array([(0.5 * (el.a + el.d), el.b.real, -el.b.imag, 0.5 * (el.a - el.d))
                     for el in elements])
    finite = np.isfinite(rows)
    if not finite.all():
        rows[~finite.all(axis=1)] = np.nan
    return rows[:, 0], rows[:, 1:]


def operators(t: np.ndarray, r: np.ndarray) -> tuple[Hermitian2, ...]:
    """The operators t_k I + r_k.sigma, inverse of terms."""
    return tuple(Hermitian2(tk + z, tk - z, complex(x, -y))
                 for tk, (x, y, z) in zip(t.tolist(), r.tolist()))


def vectors(states: Sequence[PureQubit]) -> np.ndarray:
    """Bloch vectors n[J, 3] of pure states."""
    return np.array([_bloch_xyz(s) for s in states])


def born(t: np.ndarray, r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """P[..., j, k] = t_k + r_k.n_j."""
    return t[..., None, :] + np.einsum("jc,...kc->...jk", n, r)


def score(q: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the score operators O_k = sum_j q[..., j, k] |psi_j><psi_j|."""
    return 0.5 * q.sum(axis=-2), 0.5 * np.einsum("...jk,jc->...kc", q, n)


def top(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest eigenvalue t + |r|; its eigenvector points along r."""
    return t + np.sqrt(np.einsum("...c,...c->...", r, r))


def lowest(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue t - |r|."""
    return t - np.sqrt(np.einsum("...c,...c->...", r, r))


def completeness(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How far the sum T I + R.sigma of the elements is from I: (|T - 1|, |R_z|, |R_x + i R_y|)."""
    x, y, z = r.sum(axis=-2).T
    return np.abs(t.sum(axis=-1) - 1.0), np.abs(z), np.hypot(x, y)


def frame_normalize(w: np.ndarray, n: np.ndarray,
                    tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    n = n.transpose(n.ndim - 1, *range(n.ndim - 1))  # components first: dots sum over axis 0
    s = (w * n).sum(axis=-1)
    norm = np.sqrt((s * s).sum(axis=0))
    u = s / np.where(norm > 0.0, norm, np.inf)
    u[2] += norm == 0.0
    u = u[..., None]
    half = 0.5 * w
    plus = half * ((n + u) ** 2).sum(axis=0)
    minus = half * ((n - u) ** 2).sum(axis=0)
    lam_plus, lam_minus = plus.sum(axis=-1), minus.sum(axis=-1)
    kept_plus = np.where(lam_plus > tol.pseudo_inverse, lam_plus, np.inf)[..., None]
    kept_minus = np.where(lam_minus > tol.pseudo_inverse, lam_minus, np.inf)[..., None]
    plus, minus = plus / kept_plus, minus / kept_minus
    cross = w / np.sqrt(kept_plus * kept_minus)
    r = 0.5 * (plus - minus) * u + cross * (n - (u * n).sum(axis=0) * u)
    return 0.5 * (plus + minus), r.transpose(*range(1, r.ndim), 0), lam_minus
