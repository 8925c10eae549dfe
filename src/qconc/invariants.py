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

from .errors import I3Mismatch
from .qstate import BlochDecomposition

I3_TOL = 1e-8


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

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.i1, self.i2, self.i3, self.i4, self.i5,
             self.i6, self.i7, self.i8, self.i9]
        )

    def to_dict(self) -> dict:
        return {f"i{k}": float(v) for k, v in enumerate(self.as_array(), start=1)}

    @classmethod
    def from_dict(cls, d: dict) -> "InvariantVector":
        return cls(**{f"i{k}": float(d[f"i{k}"]) for k in range(1, 10)})


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 3) stacks."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) stacks; same rounding as np.cross,
    without its per-call overhead."""
    return x[:, _NEXT] * y[:, _PREV] - x[:, _PREV] * y[:, _NEXT]


def batch_invariants(
    p: np.ndarray, s: np.ndarray, pi: np.ndarray, tol: float = I3_TOL
) -> np.ndarray:
    """The nine invariants of each state in a stack of Bloch fields, shape (n, 9).

    The third invariant is computed along both contractions, p . (pi s) and
    s . (pi^T p); they are equal for any correlation matrix, so a mismatch
    beyond tol signals corrupted input and raises I3Mismatch. The fields are
    made C-contiguous first so every row rounds like a single-state call.
    """
    p, s, pi = (np.ascontiguousarray(x, dtype=float) for x in (p, s, pi))
    pi_t = pi.transpose(0, 2, 1)
    a = (pi @ s[:, :, None])[:, :, 0]
    b = (pi_t @ p[:, :, None])[:, :, 0]
    t = pi @ pi_t
    out = np.empty((p.shape[0], 9))
    out[:, 2] = _dot(p, a)
    i3_sb = _dot(s, b)
    mismatch = np.abs(out[:, 2] - i3_sb) > tol
    if mismatch.any():
        k = int(np.argmax(mismatch))
        raise I3Mismatch(f"p.a = {out[k, 2]} but s.b = {i3_sb[k]}")
    out[:, 0] = _dot(p, p)
    out[:, 1] = _dot(s, s)
    out[:, 3] = _dot(a, a)
    out[:, 4] = _dot(b, b)
    out[:, 5] = np.trace(t, axis1=1, axis2=2)
    out[:, 6] = _dot((a[:, None, :] @ pi)[:, 0, :], b)
    out[:, 7] = (t * t).reshape(-1, 9).sum(axis=1)
    alpha_pi = (_cross(p, a)[:, None, :] @ pi)[:, 0, :]
    out[:, 8] = _dot(alpha_pi, _cross(s, b))
    return out


def invariant_vector(bloch: BlochDecomposition, tol: float = I3_TOL) -> InvariantVector:
    """Evaluate all nine invariants of one state; see :func:`batch_invariants`."""
    row = batch_invariants(bloch.p[None], bloch.s[None], bloch.pi[None], tol)[0]
    return InvariantVector(*(float(v) for v in row))


def purity_residuals(bloch: BlochDecomposition) -> tuple[float, float]:
    """Residuals of the two pure-state identities.

    Returns (|p|^2 - |s|^2, 2 |p|^2 + tr(pi pi^T) - 3); both vanish exactly
    on pure states and the second is strictly negative on mixed ones.
    """
    p2 = float(bloch.p @ bloch.p)
    s2 = float(bloch.s @ bloch.s)
    tr_t = float(np.sum(bloch.pi * bloch.pi))
    return p2 - s2, 2.0 * p2 + tr_t - 3.0
