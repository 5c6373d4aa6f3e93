"""Numerical tolerances shared across the package.

Every module draws the same line between "zero" and "signal" from these six
absolute thresholds. They assume operators of order unity (states,
measurement elements, frame operators), which is the only regime this
package works in.
"""

NORM = 1e-9
"""Largest allowed deviation of a state's squared norm from 1 at construction."""

NEGLIGIBLE = 1e-12
"""Amplitude magnitude treated as exactly zero by the phase convention."""

PSD = 1e-12
"""An eigenvalue >= -PSD still counts as positive semidefinite; the simulator clips
the Born probabilities of such elements, at most PSD and rounding below 0, to 0."""

IDENTITY_SUM = 1e-9
"""Entrywise slack when measurement elements must sum to the identity, and largest
entrywise gap at which the search merges two unit Bloch vectors as one."""

DEGENERATE = 1e-12
"""Eigenvalue gap below which a 2x2 spectrum is treated as a tie."""

PSEUDO_INVERSE = 1e-10
"""Frame-operator eigenvalues at or below this are dropped when inverting."""
