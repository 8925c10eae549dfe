"""Two-qubit state model.

Density operators on the computational basis |00>, |01>, |10>, |11> (first
label is qubit A, 0 is the spin-up level), their Bloch-style decomposition
into two polarization vectors and a 3x3 correlation matrix, numerical rank,
local unitaries, and seeded random state generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotAState, NotNormalized

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-8
PURE_NORM_TOL = 1e-12
RANK_REL_TOL = 1e-9
UNITARY_TOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: single-qubit operators keyed by axis label; "0" is the identity
PAULI = {"0": ID2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")


def pauli_pair(i: str, j: str) -> np.ndarray:
    """Kronecker product sigma_i (x) sigma_j, with "0" meaning identity."""
    return np.kron(PAULI[i], PAULI[j])


# all sixteen two-qubit Pauli products, indexed [i, j] over ("0","x","y","z")
_PAULI_GRID = np.array(
    [[pauli_pair(i, j) for j in ("0",) + AXES] for i in ("0",) + AXES]
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _as_matrix(rho) -> np.ndarray:
    """Accept a DensityOperator or a raw 4x4 array and return the matrix."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def _validated_matrix(rho) -> np.ndarray:
    """Matrix of a DensityOperator, or of a raw array after validating it."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    return DensityOperator(rho).matrix


def _require_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidState("entries must be finite")


@dataclass(frozen=True)
class DensityOperator:
    """Validated, immutable two-qubit density matrix.

    Construction checks finiteness, hermiticity, unit trace and positivity
    within fixed tolerances and raises InvalidState otherwise.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidState(f"expected a 4x4 matrix, got shape {m.shape}")
        _require_finite(m)
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise InvalidState("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -PSD_TOL:
            raise InvalidState(f"smallest eigenvalue {evals[0]} is negative")
        object.__setattr__(self, "matrix", _freeze(m))

    def purity(self) -> float:
        m = self.matrix
        return float(np.einsum("ij,ji->", m, m).real)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.matrix)

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityOperator":
        c = psi.amplitudes
        return cls(np.outer(c, c.conj()))


@dataclass(frozen=True)
class PureState:
    """Two-qubit state vector, amplitudes ordered |00>, |01>, |10>, |11>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if c.shape != (4,):
            raise NotNormalized(f"expected 4 amplitudes, got {c.shape}")
        norm2 = float(np.vdot(c, c).real)
        if abs(norm2 - 1.0) > PURE_NORM_TOL:
            raise NotNormalized(f"squared norm is {norm2}, expected 1")
        object.__setattr__(self, "amplitudes", _freeze(c))

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a PureState after rescaling the amplitudes to unit norm."""
        c = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = np.linalg.norm(c)
        if n == 0.0:
            raise NotNormalized("zero vector cannot be normalized")
        return cls(c / n)

    def density(self) -> DensityOperator:
        return DensityOperator.from_pure(self)


@dataclass(frozen=True)
class BlochDecomposition:
    """Polarizations p (qubit A), s (qubit B) and correlation matrix pi.

    pi[i, j] is the expectation of sigma_i on A times sigma_j on B for
    i, j in (x, y, z). Non-finite entries raise InvalidState.
    """

    p: np.ndarray
    s: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        s = np.asarray(self.s, dtype=float).reshape(3)
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (3, 3):
            raise InvalidState(f"correlation matrix must be 3x3, got {pi.shape}")
        _require_finite(p, s, pi)
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "s", _freeze(s))
        object.__setattr__(self, "pi", _freeze(pi))


@dataclass(frozen=True)
class LocalUnitary:
    """Pair of single-qubit unitaries acting as u_a (x) u_b."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        for name in ("u_a", "u_b"):
            u = np.asarray(getattr(self, name), dtype=complex)
            if u.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            if np.abs(u @ u.conj().T - ID2).max() > UNITARY_TOL:
                raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")
            object.__setattr__(self, name, _freeze(u))

    def matrix(self) -> np.ndarray:
        return np.kron(self.u_a, self.u_b)

    def rotations(self) -> tuple[np.ndarray, np.ndarray]:
        """Induced rotations (R_a, R_b) on the Bloch fields.

        R[i, j] = Tr(sigma_i u sigma_j u^dag) / 2; both are proper rotations
        (determinant +1) for any unitary input.
        """
        rots = []
        for u in (self.u_a, self.u_b):
            r = np.empty((3, 3))
            ud = u.conj().T
            for i, ax_i in enumerate(AXES):
                for j, ax_j in enumerate(AXES):
                    r[i, j] = 0.5 * np.trace(PAULI[ax_i] @ u @ PAULI[ax_j] @ ud).real
            rots.append(r)
        return rots[0], rots[1]

    @classmethod
    def random(cls, seed) -> "LocalUnitary":
        """Haar-random pair of single-qubit unitaries."""
        rng = np.random.default_rng(seed)
        return cls(haar_unitary2(rng), haar_unitary2(rng))


def haar_unitary2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary drawn from the given generator."""
    g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def batch_decompose(mats: np.ndarray):
    """Bloch fields of an (n, 4, 4) stack of trusted density matrices.

    Returns C-contiguous (p, s, pi) of shapes (n, 3), (n, 3), (n, 3, 3), so
    that stacked products on them round like the single-state ones.
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    comp = np.einsum("nab,ijba->nij", mats, _PAULI_GRID).real
    p = np.ascontiguousarray(comp[:, 1:, 0])
    s = np.ascontiguousarray(comp[:, 0, 1:])
    return p, s, np.ascontiguousarray(comp[:, 1:, 1:])


def decompose(rho) -> BlochDecomposition:
    """Expand a density operator over the two-qubit Pauli basis.

    Returns the A and B polarizations and the 3x3 correlation matrix; the
    expansion is exact and inverted by :func:`assemble`. A raw array is
    validated first and raises InvalidState if unphysical.
    """
    p, s, pi = batch_decompose(_validated_matrix(rho)[None])
    return BlochDecomposition(p=p[0], s=s[0], pi=pi[0])


def assemble(bloch: BlochDecomposition) -> DensityOperator:
    """Rebuild the density operator from Bloch data.

    Raises NotAState when the data does not correspond to a positive
    semidefinite unit-trace operator.
    """
    m = np.array(_PAULI_GRID[0, 0], dtype=complex)
    for i in range(3):
        m += bloch.p[i] * _PAULI_GRID[i + 1, 0]
        m += bloch.s[i] * _PAULI_GRID[0, i + 1]
        for j in range(3):
            m += bloch.pi[i, j] * _PAULI_GRID[i + 1, j + 1]
    m *= 0.25
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -PSD_TOL:
        raise NotAState(
            f"assembled matrix has eigenvalue {evals[0]}; data is unphysical"
        )
    return DensityOperator(m)


def rank_of(rho, tol: float = RANK_REL_TOL) -> int:
    """Numerical rank: eigenvalues above tol times the largest one."""
    evals = np.linalg.eigvalsh(_as_matrix(rho))
    cutoff = tol * evals[-1]
    return int(np.count_nonzero(evals > cutoff))


def apply_local(rho, u: LocalUnitary) -> DensityOperator:
    """Conjugate the state by u_a (x) u_b."""
    m = _as_matrix(rho)
    big = u.matrix()
    return DensityOperator(big @ m @ big.conj().T)


def random_pure(seed) -> PureState:
    """Haar-random two-qubit pure state; a fixed seed fixes the output."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState(c / np.linalg.norm(c))


def random_rank_k(k: int, seed) -> DensityOperator:
    """Random state of exact rank k: Haar-orthonormal eigenvectors mixed with
    flat Dirichlet weights (resampled away from zero so the rank is stable)."""
    if k not in (1, 2, 3, 4):
        raise ValueError("rank must be between 1 and 4")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    q, _ = np.linalg.qr(g)
    while True:
        w = rng.dirichlet(np.ones(k))
        if w.min() > 1e-6:
            break
    return DensityOperator((q * w) @ q.conj().T)


_BELL_AMPLITUDES = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2),
}


def bell_state(kind: str) -> PureState:
    """One of the four Bell states: "phi+", "phi-", "psi+", "psi-"."""
    try:
        return PureState(_BELL_AMPLITUDES[kind])
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}") from None


def maximally_mixed() -> DensityOperator:
    return DensityOperator(np.eye(4, dtype=complex) / 4.0)


def werner_state(p: float) -> DensityOperator:
    """Mixture p |phi+><phi+| + (1 - p) 1/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    bell = bell_state("phi+").density().matrix
    return DensityOperator(p * bell + (1.0 - p) * np.eye(4) / 4.0)
