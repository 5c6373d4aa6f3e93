"""Single-qubit states, the 2x2 Hermitian element record, and a closed-form eigensolver.

States are kept in the fixed orthonormal basis (|+>, |->). An operator stores
just its two real diagonals and the complex upper off-diagonal entry; the
algebra on operators runs in the array kernel (bloch.py), and the eigensolver
is the explicit two-dimensional formula rather than a general routine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, check_number
from .tolerances import DEGENERATE, NEGLIGIBLE, NORM

NORM_ROUNDING = 8.0 * 2.0 ** -52  # 8 ulps of 1; rescaling lands a squared norm well inside it


@dataclass(frozen=True)
class PureQubit:
    """Normalized single-qubit state with a fixed global-phase convention.

    The constructor rotates the global phase so that the first component with
    magnitude above the negligibility cutoff is real and strictly positive,
    then rescales to unit norm unless the squared norm is 1 to rounding, so a
    state rebuilt from its own amplitudes comes back bit for bit. Pairs whose
    squared norm is off 1 by more than the norm tolerance, or is not finite,
    are rejected rather than silently rescaled, as are amplitudes that are not
    numbers.
    """

    amp_plus: complex
    amp_minus: complex

    def __post_init__(self) -> None:
        check_number(self.amp_plus, "amp_plus", complex)
        check_number(self.amp_minus, "amp_minus", complex)
        try:
            cp, cm = complex(self.amp_plus), complex(self.amp_minus)
            nsq = abs(cp) ** 2 + abs(cm) ** 2
        except OverflowError as exc:  # an amplitude too large for a double, or its square
            raise DomainError(f"amplitudes out of range: {exc}") from exc
        if not abs(nsq - 1.0) <= NORM:
            raise DomainError(f"amplitudes have squared norm {nsq!r}, expected 1")
        if abs(cp) > NEGLIGIBLE:
            if cp.imag != 0.0 or cp.real < 0.0:
                cp, cm = complex(abs(cp), 0.0), cm * abs(cp) / cp
                nsq = abs(cp) ** 2 + abs(cm) ** 2
        elif abs(cm) > NEGLIGIBLE and (cm.imag != 0.0 or cm.real < 0.0):
            cp, cm = cp * abs(cm) / cm, complex(abs(cm), 0.0)
            nsq = abs(cp) ** 2 + abs(cm) ** 2
        if abs(nsq - 1.0) > NORM_ROUNDING:
            cp, cm = cp / math.sqrt(nsq), cm / math.sqrt(nsq)
        object.__setattr__(self, "amp_plus", cp)
        object.__setattr__(self, "amp_minus", cm)


PLUS = PureQubit(1.0 + 0.0j, 0.0 + 0.0j)
MINUS = PureQubit(0.0 + 0.0j, 1.0 + 0.0j)


def make_qubit(colatitude: float, longitude: float) -> PureQubit:
    """Build cos(colat/2)|+> + exp(i*longitude) sin(colat/2)|->.

    Parameters
    ----------
    colatitude : float
        Polar angle from |+>, must lie in [0, pi].
    longitude : float
        Azimuthal angle, unrestricted; enters only through exp(i*longitude).
    """
    check_number(colatitude, "colatitude")
    check_number(longitude, "longitude")
    if not 0.0 <= colatitude <= math.pi:
        raise DomainError(f"colatitude {colatitude!r} outside [0, pi]")
    half = 0.5 * colatitude
    return PureQubit(math.cos(half), cmath.exp(1j * longitude) * math.sin(half))


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian operator [[a, b], [conj(b), d]] with a, d real; DomainError for a field
    that is not a number or lies beyond the double range."""

    a: float
    d: float
    b: complex

    def __post_init__(self) -> None:
        check_number(self.a, "a")
        check_number(self.d, "d")
        check_number(self.b, "b", complex)
        try:
            a, d, b = float(self.a), float(self.d), complex(self.b)
        except OverflowError as exc:  # an integer too large for a double
            raise DomainError(f"entries out of range: {exc}") from exc
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)


def state_along(x: float, y: float, z: float) -> PureQubit:
    """The pure state whose Bloch vector points along (x, y, z), at any length; at the
    origin the signs of the zeros pick the pole, so give a zero vector +z first."""
    return make_qubit(math.atan2(math.hypot(x, y), z), math.atan2(y, x))


def hermitian_eig2(h: Hermitian2) -> tuple[tuple[float, PureQubit], tuple[float, PureQubit]]:
    """Eigendecomposition of a 2x2 Hermitian operator, eigenvalues descending.

    Returns ((lam1, v1), (lam2, v2)) with lam1 >= lam2 and orthonormal
    eigenvectors in the PureQubit phase convention: v1 and v2 point along
    +r and -r, for the operator t I + r.sigma. When the gap 2|r| falls at or
    below the degeneracy tolerance any unit vector is an eigenvector to that
    accuracy; the tie is resolved toward the basis pair (|+>, |->) so the
    result favors maximal overlap with |+>.

    The thresholds are absolute, so operators are expected to be of order
    unity as they are everywhere in this package.
    """
    mean = 0.5 * (h.a + h.d)
    x, y, z = h.b.real, -h.b.imag, 0.5 * (h.a - h.d)
    r = math.hypot(z, abs(h.b))
    if 2.0 * r <= DEGENERATE:
        return ((mean + r, PLUS), (mean - r, MINUS))
    return ((mean + r, state_along(x, y, z)), (mean - r, state_along(-x, -y, -z)))
