"""Exact concurrence of a two-qubit state.

The oracle reads the spin-flip roots off the eigendecomposition of the state,
as the singular values of a complex-symmetric block whose size is the rank of
the state, so no non-Hermitian eigenproblem is solved and states of any rank
stay well conditioned. The pure-state shortcut uses the amplitude determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigSolveFailure, NotNormalized
from .qstate import NORM_TOL, PureState, SIGMA_Y, _as_matrix, _validated_matrix

#: clamp for small negative eigenvalues produced by round-off
EIG_CLAMP = 1e-12

_YY = np.kron(SIGMA_Y, SIGMA_Y)
#: _YY @ x is x with its rows reversed and signed by these, without a matmul
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


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

    The roots are read off a factor of rho, not its square root: for rho =
    W W^dagger they are the singular values of the complex-symmetric B =
    W^T (sigma_y x sigma_y) W, since B B^dagger has the spectrum of
    rho rho_tilde (Wootters 1998; Uhlmann 2000). The eigendecomposition
    rho = V diag(w) V^dagger gives W = V diag(sqrt(w)). Eigenvalues below
    EIG_CLAMP relative to the largest count as zero, so round-off in the null
    space cannot leak sqrt(eps)-sized noise into the roots. A state with k
    eigenvalues left keeps only those k columns of W, so B is k x k (|B|
    itself for k = 1, with no SVD) and its 4 - k trailing roots are exact
    zeros. Rows are grouped by k, at most four groups per stack.
    """
    try:
        w, v = np.linalg.eigh(np.asarray(mats, dtype=complex))
        rank = (w > EIG_CLAMP * np.maximum(w[:, -1:], 0.0)).sum(axis=1)
        lam = np.zeros(w.shape)
        ranks = set(rank.tolist())
        for k in ranks:
            rows = slice(None) if len(ranks) == 1 else rank == k
            # eigh sorts ascending, so the kept eigenvalues are the last k
            wk = v[rows, :, 4 - k :] * np.sqrt(w[rows, None, 4 - k :])
            b = wk.transpose(0, 2, 1) @ (wk[:, ::-1] * _YY_SIGNS)
            lam[rows, :k] = np.abs(b[:, :, 0]) if k == 1 else np.linalg.svd(b, compute_uv=False)
        return lam
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
