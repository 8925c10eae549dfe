"""Local-unitary invariants built from the Bloch decomposition.

From the polarizations p, s and the correlation matrix pi we form the
derived vectors a = pi s and b = pi^T p (each rotates with its own qubit's
frame), their cross products alpha = p x a and beta = s x b, and the
symmetric matrix t = pi pi^T. The nine scalars below are unchanged under
independent rotations of the two qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import BlochDecomposition


@dataclass(frozen=True)
class InvariantVector:
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float
    i7: float
    i8: float
    i9: float

    def to_dict(self) -> dict:
        return {
            "i1": float(self.i1),
            "i2": float(self.i2),
            "i3": float(self.i3),
            "i4": float(self.i4),
            "i5": float(self.i5),
            "i6": float(self.i6),
            "i7": float(self.i7),
            "i8": float(self.i8),
            "i9": float(self.i9),
        }


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x, y) -> list:
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def _invariants(p, s, pi) -> list:
    """The nine invariants from p, s and the rows of pi, as 3-lists of floats
    for one state or of (n,) arrays for a stack, whose rows then get the
    single-state bits: every product and sum is one IEEE operation."""
    cols = list(zip(*pi))
    a = [_dot(row, s) for row in pi]
    b = [_dot(col, p) for col in cols]
    t = [[_dot(x, y) for y in pi] for x in pi]
    alpha_pi = [_dot(_cross(p, a), col) for col in cols]
    i6, i8 = t[0][0] + t[1][1] + t[2][2], _dot(t[0], t[0]) + _dot(t[1], t[1]) + _dot(t[2], t[2])
    i7, i9 = _dot([_dot(a, col) for col in cols], b), _dot(alpha_pi, _cross(s, b))
    return [_dot(p, p), _dot(s, s), _dot(p, a), _dot(a, a), _dot(b, b), i6, i7, i8, i9]


def batch_invariants(p: np.ndarray, s: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The nine invariants of each state in a stack of Bloch fields, shape
    (n, 9); row k is invariant_vector of state k, bit for bit."""
    p, s, pi = (np.ascontiguousarray(np.moveaxis(x, 0, -1), dtype=float) for x in (p, s, pi))
    return np.stack(_invariants(p, s, pi), axis=1)


def invariant_vector(bloch: BlochDecomposition) -> InvariantVector:
    """Evaluate all nine invariants of one state; see :func:`_invariants`."""
    return InvariantVector(*_invariants(bloch.p.tolist(), bloch.s.tolist(), bloch.pi.tolist()))


def purity_residuals(i1, i2, i6):
    """Residuals (I1 - I2, 2 I1 + I6 - 3) of the two pure-state identities.

    I1 = |p|^2, I2 = |s|^2 and I6 = tr(pi pi^T); both residuals vanish
    exactly on pure states and the second is strictly negative on mixed
    ones. Works on floats and on arrays alike.
    """
    return i1 - i2, 2.0 * i1 + i6 - 3.0
