"""Two-qubit state model.

Density operators on the computational basis |00>, |01>, |10>, |11> (first
label is qubit A, 0 is the spin-up level), their Bloch-style decomposition
into two polarization vectors and a 3x3 correlation matrix, numerical rank,
and seeded random state generators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import InvalidState, NotAState, SamplerExhausted

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
WEIGHT_TOL = 1e-10
#: rho + this has a Cholesky factor only if rho's eigenvalues are above -PSD_TOL
_CERTIFICATE_SHIFT = (PSD_TOL - 1e-14) * np.eye(4)
#: rounds a rejection sampler draws before it raises SamplerExhausted; every
#: sampler accepts well over a third of its draws
REJECTION_LIMIT = 1000

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# all sixteen two-qubit Pauli products sigma_i (x) sigma_j, indexed [i, j]
# over ("0", "x", "y", "z"), "0" being the identity
_PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_GRID = np.array([[np.kron(a, b) for b in _PAULIS] for a in _PAULIS])


#: for each Pauli product g = _PAULI_GRID[i, j], keyed (i, j): the four
#: nonzero terms of tr(rho g) = sum of rho[a, b] g[b, a], in ascending row order
#: of rho. Each is +-Re or +-Im of rho[a, b], stored as its position in rho's 32
#: row-major floats (real, imaginary interleaved), plus 32 when negated.
_PAULI_TERMS = {
    (i, j): [2 * k + (g.real == 0) + 32 * ((g.real or -g.imag) < 0)
             for k, g in enumerate(_PAULI_GRID[i, j].T.ravel().tolist()) if g]
    for i in range(4) for j in range(4)
}
#: the terms of p, then s, then pi row by row
_BLOCH_TERMS = [
    _PAULI_TERMS[ij] for ij in [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
    + [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
]


def _complex_matrix(raw) -> np.ndarray:
    """A raw input as a complex 4x4 array; anything else raises InvalidState."""
    try:
        m = np.asarray(raw, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidState(f"expected a numeric 4x4 matrix: {exc}") from None
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


# ---------------------------------------------------------------------------
# parameter blocks
#
# A family's parameter dataclass holds one state, with float fields, or a
# block of n states, with every field an (n,) array. Its checks, matrix
# builder and closed forms are written once for both: the helpers below act
# on a float or on each entry of an array, and a block's results are its
# rows' single-state results bit for bit.
# ---------------------------------------------------------------------------


def _outside(value, low: float, high: float):
    """Whether a float, or each entry of an array, is outside [low, high] (NaN is)."""
    if isinstance(value, np.ndarray):
        return ~((low <= value) & (value <= high))
    return not low <= value <= high


def _unit(x):
    """A float, or each entry of an array, held to [0, 1], which a concurrence
    can leave by round-off and on states at validation's 1e-10 tolerances."""
    high, low = (np.maximum, np.minimum) if isinstance(x, np.ndarray) else (max, min)
    return high(0.0, low(1.0, x))


#: the numpy form of each function that gives every entry its single call's
#: bits: sqrt is correctly rounded; max(a, b) keeps a unless b > a, min unless
#: b < a, as Python's do at NaN and -0.0 ties; cos and sin match libm (tested)
_UFUNCS = {
    math.sqrt: np.sqrt, math.cos: np.cos, math.sin: np.sin,
    max: lambda a, b: np.where(b > a, b, a), min: lambda a, b: np.where(b < a, b, a),
}


def _math(fn, *args):
    """A math-module (or builtin) function of floats, or of each entry of the
    equal-length 1-d arrays among its arguments (floats are shared by all).

    A block takes the function's _UFUNCS form, or else maps the same call
    over its entries: the ufuncs of the others give other bits (arctan2,
    atan, hypot, x ** 2, the modulus of a complex number). Either way each
    row keeps its single-state bits, and an entry outside the function's
    domain (a negative sqrt, cos of inf) raises the math module's ValueError.
    """
    for a in args:
        if isinstance(a, np.ndarray):
            if fn in _UFUNCS:
                try:
                    with np.errstate(invalid="raise"):
                        return _UFUNCS[fn](*args)
                except FloatingPointError:
                    pass  # the map below raises what the single call raises
            cols = [b.tolist() if isinstance(b, np.ndarray) else repeat(b) for b in args]
            return np.fromiter(map(fn, *cols), dtype=float, count=len(a))
    return fn(*args)


def _cos_sin(x):
    """(cos x, sin x) of a float, or of each entry of an array, with libm's bits."""
    return _math(math.cos, x), _math(math.sin, x)


def _per_row(x, axes: int = 2):
    """A weight as a factor of a matrix (axes=2) or a vector (axes=1): a float
    as it is, an (n,) array with trailing axes to broadcast over the block."""
    if isinstance(x, np.ndarray):
        return x.reshape(x.shape + (1,) * axes)
    return x


def _vec4(*entries) -> np.ndarray:
    """Complex 4-vector of four floats or complexes, or an (n, 4) block of
    vectors when any entry is an (n,) array."""
    shape = np.broadcast_shapes(*(np.shape(e) for e in entries))
    v = np.empty(shape + (4,), dtype=complex)
    for k, e in enumerate(entries):
        v[..., k] = e
    return v


def _outer(v: np.ndarray) -> np.ndarray:
    """|v><v| of a 4-vector, or of each row of an (n, 4) block, by np.einsum:
    numpy does not dispatch einsum's loops, so no entry depends on the CPU's
    SIMD level."""
    return np.einsum("...i,...j->...ij", v, v.conj())


def _record(block, i: int):
    """Row i of a parameter block as a checked single-state dataclass."""
    return type(block)(
        **{f.name: getattr(block, f.name)[i].item() for f in fields(block)}
    )


class _Guards:
    """The guards of one closed form, run on floats or on a block.

    On floats the first failing guard raises, as a scalar function does. A
    block records each row's first failing guard and lets the arithmetic run
    on; settle then raises what the first failing row's single call raises.
    """

    def __init__(self):
        self.first = None  # per row of a block: its first failing guard, or -1
        self.guards: list = []  # (exception type, message, values)

    def check(self, bad, exc, message: str, *values) -> None:
        """Fail the rows where bad holds with exc(message.format(*values))."""
        if not isinstance(bad, np.ndarray):
            if not bad:
                return
            if self.first is None:
                raise exc(message.format(*values))
        elif self.first is None:
            self.first = np.full(bad.shape, -1)
        self.first[bad & (self.first < 0)] = len(self.guards)
        self.guards.append((exc, message, values))

    def failed(self, kind=Exception) -> np.ndarray:
        """Rows of a block whose first failing guard raises a kind."""
        return np.isin(self.first, [k for k, g in enumerate(self.guards) if issubclass(g[0], kind)])

    def settle(self, result, tolerated=()):
        """The result, unless a row of a block failed with an exception not
        of a tolerated kind: then the first such row's exception."""
        if self.first is not None and self.first.max(initial=-1) >= 0:
            bad = self.failed() & ~self.failed(tolerated)
            if bad.any():
                row = int(np.argmax(bad))
                exc, message, values = self.guards[self.first[row]]
                args = (v[row].item() if isinstance(v, np.ndarray) else v for v in values)
                raise exc(message.format(*args))
        return result


# The families' domain rules, each stated once: a rule fails a float, or the
# rows of a block, where it does not hold, NaN included.
def _check_finite(guards: _Guards, **values) -> None:
    """Each named float, complex, or array entry is finite."""
    for name, value in values.items():
        bad = ~np.isfinite(value) if isinstance(value, np.ndarray) else not cmath.isfinite(value)
        guards.check(bad, ValueError, "{} must be finite", name)


def _check_unit_interval(guards: _Guards, name: str, value, slack: float = 1e-12) -> None:
    guards.check(_outside(value, -slack, 1.0 + slack), ValueError, "{} must lie in [0, 1]", name)


def _check_nonnegative(guards: _Guards, message: str, *values, slack: float = 0.0) -> None:
    for value in values:
        guards.check(_outside(value, -slack, math.inf), ValueError, message)


def _check_unit_sum(guards: _Guards, total, message: str) -> None:
    """A sum of squared amplitudes or of weights is one within WEIGHT_TOL."""
    guards.check(_outside(abs(total - 1.0), 0.0, WEIGHT_TOL), ValueError, message)


def _check_ab(guards: _Guards, a, b) -> None:
    _check_nonnegative(guards, "a and b must be nonnegative", a, b)
    _check_unit_sum(guards, a * a + b * b, "a^2 + b^2 must equal 1")


def _check_correlation(guards: _Guards, x, name: str = "correlation") -> None:
    guards.check(_outside(x, -1.0 - 1e-12, 1.0 + 1e-12), ValueError, "{} must lie in [-1, 1]", name)


# a non-finite or huge state's residual or trace may overflow or come from
# inf - inf; it is rejected either way, so that gives inf or NaN quietly
@np.errstate(over="ignore", invalid="ignore")
def check_states(mats) -> np.ndarray:
    """Validate an (n, 4, 4) stack of density matrices; return a read-only copy.

    Every state must be finite, Hermitian, of unit trace and positive
    semidefinite within fixed tolerances. The first failing state in stack
    order raises InvalidState with the message of its first failing check.

    A stack passing the Hermiticity and trace checks is accepted when every
    A = rho + (PSD_TOL - 1e-14) I has a Cholesky factor R, which reads the lower
    triangle and real diagonal as eigvalsh does. Proof: R^H R = A + E >= 0 with
    |E| <= g |R^H| |R|, g = 5u / (1 - 5u) (Higham 1990, Thm 10.3; a small
    multiple of it in complex arithmetic), so ||E||_2 <= g tr A / (1 - g) + u tr A,
    u tr A bounding the rounded shift and tr A < 1 + 5e-10: about 1e-15, under
    the 1e-14 margin, so rho's eigenvalues exceed -PSD_TOL. Else eigvalsh decides.
    """
    try:
        m = np.array(mats, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidState(f"expected a numeric (n, 4, 4) stack: {exc}") from None
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise InvalidState(f"expected an (n, 4, 4) stack, got shape {m.shape}")
    # All-pass tests first, per-state messages only on failure. A non-finite
    # entry makes its state's residual or trace NaN or inf, which fails `<=`,
    # so the certificate never sees it.
    herm = np.abs(m - m.conj().swapaxes(1, 2))
    tr = m.trace(axis1=1, axis2=2).real
    ok = herm.max(initial=0.0) <= HERMITICITY_TOL
    if not (ok and (np.abs(tr - 1.0) <= TRACE_TOL).all() and _certified(m)):
        _raise_first_defect(m, herm.max(axis=(1, 2)), tr)
    m.flags.writeable = False
    return m


def _certified(m: np.ndarray) -> bool:
    """Whether every rho + _CERTIFICATE_SHIFT of the stack has a Cholesky factor."""
    try:
        np.linalg.cholesky(m + _CERTIFICATE_SHIFT)
    except np.linalg.LinAlgError:
        return False
    return True


def _raise_first_defect(m: np.ndarray, herm: np.ndarray, tr: np.ndarray) -> None:
    """Raise InvalidState for the first failing check of the first failing state, if any."""
    finite = np.isfinite(m).all(axis=(1, 2))
    low = np.zeros(len(m))
    low[finite] = np.linalg.eigvalsh(m[finite])[:, 0]
    for k in range(len(m)):
        if not finite[k]:
            raise InvalidState("entries must be finite")
        if herm[k] > HERMITICITY_TOL:
            raise InvalidState("matrix is not Hermitian within tolerance", low[k])
        if abs(tr[k] - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace is {tr[k]}, expected 1", low[k])
        if low[k] < -PSD_TOL:
            raise InvalidState(f"smallest eigenvalue {low[k]} is negative", low[k])


@dataclass(frozen=True)
class DensityOperator:
    """Validated, immutable two-qubit density matrix.

    Construction checks that the input is a numeric 4x4 array, then runs it
    as a one-state stack through :func:`check_states`; either raises
    InvalidState.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_states(_complex_matrix(self.matrix)[None])[0])

    def purity(self) -> float:
        m = self.matrix
        return float(np.einsum("ij,ji->", m, m).real)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, through eigvalsh."""
        return np.linalg.eigvalsh(self.matrix)


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
        p = np.array(self.p, dtype=float).reshape(3)
        s = np.array(self.s, dtype=float).reshape(3)
        pi = np.array(self.pi, dtype=float)
        if pi.shape != (3, 3):
            raise InvalidState(f"correlation matrix must be 3x3, got {pi.shape}")
        _require_finite(p, s, pi)
        for name, x in (("p", p), ("s", s), ("pi", pi)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)


def _bloch_fields(parts, terms=_BLOCH_TERMS) -> list:
    """Pauli expectations, by default the 15 Bloch fields, from rho's 32
    floats, for one state, or from (n,) arrays of them for a stack, whose
    rows then get the single-state bits. Sums start from +0.0, so a zero
    field is +0.0 whatever zeros it sums."""
    signed = parts + [-x for x in parts]
    return [0.0 + signed[a] + signed[b] + signed[c] + signed[d] for a, b, c, d in terms]


def _float_parts(m: np.ndarray) -> list:
    """The 32 floats of a 4x4 matrix, or (n,) arrays of them for an (n, 4, 4)
    stack, in the order _bloch_fields reads."""
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim == 2:
        return m.ravel().view(float).tolist()
    return list(np.ascontiguousarray(m.reshape(len(m), 16).view(float).T))


def batch_decompose(mats: np.ndarray):
    """Bloch fields of an (n, 4, 4) stack of trusted density matrices.

    Returns C-contiguous (p, s, pi) of shapes (n, 3), (n, 3), (n, 3, 3);
    row k is decompose of state k, bit for bit.
    """
    f = _bloch_fields(_float_parts(mats))
    p, s, pi = (np.stack(x, axis=1) for x in (f[:3], f[3:6], f[6:]))
    return p, s, pi.reshape(len(mats), 3, 3)


def decompose(rho) -> BlochDecomposition:
    """Expand a density operator over the two-qubit Pauli basis.

    Returns the A and B polarizations and the 3x3 correlation matrix, each a
    sum of four signed entries of rho; the expansion is exact and inverted by
    :func:`assemble`. A raw array is validated first and raises InvalidState
    if unphysical.
    """
    f = _bloch_fields(_float_parts(_validated_matrix(rho)))
    return BlochDecomposition(p=f[:3], s=f[3:6], pi=[f[6:9], f[9:12], f[12:]])


# huge finite entries may overflow the sum to inf or NaN, which is rejected
@np.errstate(over="ignore", invalid="ignore")
def assemble(bloch: BlochDecomposition) -> DensityOperator:
    """Rebuild the density operator from Bloch data.

    Raises InvalidState when huge entries overflow the sum, and NotAState
    when the data does not correspond to a positive semidefinite unit-trace
    operator.
    """
    m = np.array(_PAULI_GRID[0, 0], dtype=complex)
    for i in range(3):
        m += bloch.p[i] * _PAULI_GRID[i + 1, 0]
        m += bloch.s[i] * _PAULI_GRID[0, i + 1]
        for j in range(3):
            m += bloch.pi[i, j] * _PAULI_GRID[i + 1, j + 1]
    m *= 0.25
    _require_finite(m)
    try:
        return DensityOperator(m)
    except InvalidState as exc:
        # m is finite, so its check took the spectrum that names the eigenvalue
        lowest = exc.lowest_eigenvalue
        if lowest < -PSD_TOL:
            raise NotAState(
                f"assembled matrix has eigenvalue {lowest}; data is unphysical"
            ) from None
        raise


def rank_of(rho) -> int:
    """Numerical rank, the oracle's factor columns; a raw array is validated first."""
    from .concurrence import concurrence_oracle

    return concurrence_oracle(rho).rank


def _orthonormal(z: np.ndarray) -> np.ndarray:
    """The Q of the QR of an (n, d, k) block, real or complex, whose R has a
    real positive diagonal: Gram-Schmidt applied twice (CGS2) over the
    columns, the first column only normalized. The overlaps and the updates
    are np.einsum contractions and the norm a sum of per-entry squares, so Q
    depends neither on BLAS nor on numpy's SIMD dispatch. Of a Gaussian
    block it is Haar-distributed."""
    q = np.empty_like(z)
    for j in range(z.shape[2]):
        v = z[:, :, j]
        if j:
            done = q[:, :, :j]
            conj = done.conj()
            for _ in range(2):
                dots = np.einsum("nij,ni->nj", conj, v)
                v = v - np.einsum("nij,nj->ni", done, dots)
        norm = np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=1))
        q[:, :, j] = v / norm[:, None]
    return q


def batch_random_mixed(rng, n: int, rank: int) -> np.ndarray:
    """n random rank-`rank` density matrices, shape (n, 4, 4): q w q^H for flat
    Dirichlet weights w (redrawn away from zero) and q the _orthonormal
    columns of a complex Gaussian (n, 4, rank) block."""
    q = _orthonormal(rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank)))
    w = rng.dirichlet(np.ones(rank), size=n)
    for _ in range(REJECTION_LIMIT):
        bad = w.min(axis=1) < 1e-6
        if not bad.any():
            rho = np.einsum("nik,nk,njk->nij", q, w, q.conj())
            # the diagonal is a sum of w |q|^2, real: drop the einsum's round-off
            rho.imag[:, range(4), range(4)] = 0.0
            return rho
        w[bad] = rng.dirichlet(np.ones(rank), size=int(bad.sum()))
    raise SamplerExhausted(f"weights below 1e-6 after {REJECTION_LIMIT} rounds")


def random_rank_k(k: int, seed) -> DensityOperator:
    """Random state of exact rank k: the n = 1 call of batch_random_mixed."""
    if k not in (1, 2, 3, 4):
        raise ValueError("rank must be between 1 and 4")
    return DensityOperator(batch_random_mixed(np.random.default_rng(seed), 1, k)[0])


_BELL_AMPLITUDES = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2),
}


def bell_state(kind: str) -> DensityOperator:
    """The density operator |c><c| of one of the four Bell states: "phi+",
    "phi-", "psi+", "psi-"."""
    try:
        c = np.asarray(_BELL_AMPLITUDES[kind], dtype=complex)
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}") from None
    return DensityOperator(np.outer(c, c.conj()))


def werner_state(p: float) -> DensityOperator:
    """Mixture p |phi+><phi+| + (1 - p) 1/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    bell = bell_state("phi+").matrix
    return DensityOperator(p * bell + (1.0 - p) * np.eye(4) / 4.0)
