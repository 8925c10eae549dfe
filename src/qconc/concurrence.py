"""Exact concurrence of a two-qubit state.

The oracle computes the standard spin-flipped eigenvalue formula through a
Hermitian product, which keeps the eigenproblem well conditioned for states
of any rank. The pure-state shortcut uses the amplitude determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigSolveFailure, NotNormalized
from .qstate import NORM_TOL, PureState, SIGMA_Y, _as_matrix, _validated_matrix

#: clamp for small negative eigenvalues produced by round-off
EIG_CLAMP = 1e-12

_YY = np.kron(SIGMA_Y, SIGMA_Y)


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped companion (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y).

    Returns a plain matrix; it is itself a valid density matrix and the map
    is an involution.
    """
    m = _as_matrix(rho)
    return _YY @ m.conj() @ _YY


@dataclass(frozen=True)
class ConcurrenceDiagnostics:
    """Spin-flip spectrum (descending square roots) and the concurrence value."""

    lambdas: tuple[float, float, float, float]
    value: float

    @classmethod
    def from_lambdas(cls, lambdas) -> "ConcurrenceDiagnostics":
        lam = tuple(sorted((float(x) for x in lambdas), reverse=True))
        value = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        return cls(lambdas=lam, value=value)


def batch_lambdas(mats: np.ndarray) -> np.ndarray:
    """Descending spin-flip roots of an (n, 4, 4) stack of trusted states.

    Works through the Hermitian equivalent sqrt(rho) rho_tilde sqrt(rho),
    whose spectrum matches the non-Hermitian product rho rho_tilde. The
    square root comes from an eigendecomposition in which eigenvalues below
    EIG_CLAMP relative to the largest are zeroed, so round-off in the null
    space cannot leak sqrt(eps)-sized noise into it. The four roots are read
    off as the singular values of sqrt(rho) (sigma_y x sigma_y)
    conj(sqrt(rho)), which factors that Hermitian matrix and so avoids
    taking sqrt of eigenvalues that sit at round-off level.
    """
    mats = np.asarray(mats, dtype=complex)
    try:
        w, v = np.linalg.eigh(mats)
        w = np.where(w > EIG_CLAMP * np.maximum(w[:, -1:], 0.0), w, 0.0)
        sq = (v * np.sqrt(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        return np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigSolveFailure(str(exc)) from exc


def batch_oracle(mats: np.ndarray) -> np.ndarray:
    """Concurrence of each state in an (n, 4, 4) stack of trusted states."""
    lam = batch_lambdas(mats)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence_oracle(rho) -> ConcurrenceDiagnostics:
    """Exact concurrence for any two-qubit density operator.

    A raw array is validated first and raises InvalidState if unphysical;
    the arithmetic is that of :func:`batch_lambdas`.
    """
    lam = batch_lambdas(_validated_matrix(rho)[None])[0]
    return ConcurrenceDiagnostics.from_lambdas(lam)


def concurrence_pure(psi) -> float:
    """Concurrence of a pure state: 2 |c00 c11 - c01 c10|.

    Accepts a PureState or a raw amplitude vector; raises NotNormalized when
    the norm is off by more than 1e-8.
    """
    if isinstance(psi, PureState):
        c = psi.amplitudes
    else:
        c = np.asarray(psi, dtype=complex).reshape(-1)
        if c.shape != (4,):
            raise NotNormalized(f"expected 4 amplitudes, got {c.shape}")
        norm2 = float(np.vdot(c, c).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise NotNormalized(f"squared norm is {norm2}, expected 1")
    return float(2.0 * abs(c[0] * c[3] - c[1] * c[2]))
