"""Single-qubit states, 2x2 Hermitian operators, and a closed-form eigensolver.

States are kept in the fixed orthonormal basis (|+>, |->). Everything in the
package reduces to 2x2 Hermitian algebra, so operators store just the two real
diagonals and the complex upper off-diagonal entry, and the eigensolver is the
explicit two-dimensional formula rather than a general routine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tolerances import TOL, Tolerances

NORM_ROUNDING = 8.0 * 2.0 ** -52  # 8 ulps of 1; rescaling lands a squared norm well inside it


@dataclass(frozen=True)
class PureQubit:
    """Normalized single-qubit state with a fixed global-phase convention.

    The constructor rotates the global phase so that the first component with
    magnitude above the negligibility cutoff is real and strictly positive,
    then rescales to unit norm unless the squared norm is 1 to rounding, so a
    state rebuilt from its own amplitudes comes back bit for bit. Pairs whose
    squared norm is off 1 by more than the norm tolerance, or is not finite,
    are rejected rather than silently rescaled.
    """

    amp_plus: complex
    amp_minus: complex

    def __post_init__(self) -> None:
        cp, cm = complex(self.amp_plus), complex(self.amp_minus)
        nsq = abs(cp) ** 2 + abs(cm) ** 2
        if not abs(nsq - 1.0) <= TOL.norm:
            raise DomainError(f"amplitudes have squared norm {nsq!r}, expected 1")
        if abs(cp) > TOL.negligible:
            if cp.imag != 0.0 or cp.real < 0.0:
                cp, cm = complex(abs(cp), 0.0), cm * abs(cp) / cp
                nsq = abs(cp) ** 2 + abs(cm) ** 2
        elif abs(cm) > TOL.negligible and (cm.imag != 0.0 or cm.real < 0.0):
            cp, cm = cp * abs(cm) / cm, complex(abs(cm), 0.0)
            nsq = abs(cp) ** 2 + abs(cm) ** 2
        if abs(nsq - 1.0) > NORM_ROUNDING:
            cp, cm = cp / math.sqrt(nsq), cm / math.sqrt(nsq)
        object.__setattr__(self, "amp_plus", cp)
        object.__setattr__(self, "amp_minus", cm)

    def as_array(self) -> np.ndarray:
        return np.array([self.amp_plus, self.amp_minus], dtype=complex)


PLUS = PureQubit(1.0 + 0.0j, 0.0 + 0.0j)
MINUS = PureQubit(0.0 + 0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class BlochVector:
    """Cartesian Bloch-sphere coordinates of a state; unit length for pure states."""

    x: float
    y: float
    z: float


def make_qubit(colatitude: float, longitude: float) -> PureQubit:
    """Build cos(colat/2)|+> + exp(i*longitude) sin(colat/2)|->.

    Parameters
    ----------
    colatitude : float
        Polar angle from |+>, must lie in [0, pi].
    longitude : float
        Azimuthal angle, unrestricted; enters only through exp(i*longitude).
    """
    if not 0.0 <= colatitude <= math.pi:
        raise DomainError(f"colatitude {colatitude!r} outside [0, pi]")
    half = 0.5 * colatitude
    return PureQubit(math.cos(half), cmath.exp(1j * longitude) * math.sin(half))


def inner(a: PureQubit, b: PureQubit) -> complex:
    """Inner product <a|b>."""
    return (a.amp_plus.conjugate() * b.amp_plus
            + a.amp_minus.conjugate() * b.amp_minus)


def overlap_prob(a: PureQubit, b: PureQubit) -> float:
    """|<a|b>|^2, clamped into [0, 1] against roundoff."""
    v = abs(inner(a, b)) ** 2
    return min(max(v, 0.0), 1.0)


def bloch_vector(s: PureQubit) -> BlochVector:
    """Bloch coordinates: x+iy = 2 conj(amp_plus) amp_minus, z = |amp_plus|^2 - |amp_minus|^2."""
    return BlochVector(*_bloch_xyz(s))


def _bloch_xyz(s: PureQubit) -> tuple[float, float, float]:
    cross = s.amp_plus.conjugate() * s.amp_minus
    return 2.0 * cross.real, 2.0 * cross.imag, abs(s.amp_plus) ** 2 - abs(s.amp_minus) ** 2


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian operator [[a, b], [conj(b), d]] with a, d real."""

    a: float
    d: float
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "b", complex(self.b))

    @classmethod
    def identity(cls) -> "Hermitian2":
        return cls(1.0, 1.0, 0.0j)

    @classmethod
    def zero(cls) -> "Hermitian2":
        return cls(0.0, 0.0, 0.0j)

    @classmethod
    def outer(cls, cp: complex, cm: complex) -> "Hermitian2":
        """Rank-one operator |v><v| for the (not necessarily normalized) pair (cp, cm)."""
        return cls(abs(cp) ** 2, abs(cm) ** 2, cp * complex(cm).conjugate())

    @classmethod
    def projector(cls, s: PureQubit) -> "Hermitian2":
        return cls.outer(s.amp_plus, s.amp_minus)

    @classmethod
    def from_matrix(cls, mat: np.ndarray, hermiticity_tol: float = 1e-9) -> "Hermitian2":
        m = np.asarray(mat, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
        skew = max(abs(m[0, 1] - m[1, 0].conjugate()),
                   abs(m[0, 0].imag), abs(m[1, 1].imag))
        if skew > hermiticity_tol:
            raise DomainError(f"matrix is not Hermitian (residual {skew:.3e})")
        return cls(m[0, 0].real, m[1, 1].real, 0.5 * (m[0, 1] + m[1, 0].conjugate()))

    def to_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b.conjugate(), self.d]], dtype=complex)

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - abs(self.b) ** 2

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, descending, without eigenvectors."""
        mean = 0.5 * (self.a + self.d)
        r = math.hypot(0.5 * (self.a - self.d), abs(self.b))
        return mean + r, mean - r

    def expectation(self, s: PureQubit) -> float:
        """<s|H|s>, real by Hermiticity."""
        return (self.a * abs(s.amp_plus) ** 2
                + self.d * abs(s.amp_minus) ** 2
                + 2.0 * (s.amp_plus.conjugate() * self.b * s.amp_minus).real)

    def __add__(self, other: "Hermitian2") -> "Hermitian2":
        if not isinstance(other, Hermitian2):
            return NotImplemented
        return Hermitian2(self.a + other.a, self.d + other.d, self.b + other.b)

    def __mul__(self, scalar: float) -> "Hermitian2":
        if isinstance(scalar, complex):
            return NotImplemented
        return Hermitian2(self.a * scalar, self.d * scalar, self.b * scalar)

    __rmul__ = __mul__


def hermitian_eig2(h: Hermitian2, tol: Tolerances = TOL) -> tuple[tuple[float, PureQubit], tuple[float, PureQubit]]:
    """Eigendecomposition of a 2x2 Hermitian operator, eigenvalues descending.

    Returns ((lam1, v1), (lam2, v2)) with lam1 >= lam2 and orthonormal
    eigenvectors in the PureQubit phase convention. The eigenvector formula
    picks whichever of the two null-space columns has the larger norm, which
    stays well conditioned for every non-degenerate operator. When the gap
    2r falls at or below the degeneracy tolerance any unit vector is an
    eigenvector to that accuracy; the tie is resolved toward the basis pair
    (|+>, |->) so the result favors maximal overlap with |+>.

    The thresholds are absolute, so operators are expected to be of order
    unity as they are everywhere in this package.
    """
    mean = 0.5 * (h.a + h.d)
    half = 0.5 * (h.a - h.d)
    r = math.hypot(half, abs(h.b))
    lam1, lam2 = mean + r, mean - r
    if 2.0 * r <= tol.degenerate:
        return ((lam1, PLUS), (lam2, MINUS))
    if half >= 0.0:
        vp, vm = lam1 - h.d, h.b.conjugate()
    else:
        vp, vm = h.b, lam1 - h.a
    norm = math.sqrt(abs(vp) ** 2 + abs(vm) ** 2)
    v1 = PureQubit(vp / norm, vm / norm)
    v2 = PureQubit(-v1.amp_minus.conjugate(), v1.amp_plus.conjugate())
    return ((lam1, v1), (lam2, v2))
