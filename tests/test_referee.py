"""The oracle against a 50-digit Wootters reference on hard states.

Each state is given by a factor W (a 4 x m float matrix), so rho = W W^dagger
is an exact state whose rank is that of W. The reference takes the textbook
route in 50-digit arithmetic: the square roots of the eigenvalues of
rho rho_tilde, rho_tilde = (sy x sy) conj(rho) (sy x sy), on the exact rho.
The oracle gets rho rounded to floats, so the difference is its forward
error with the rounding of rho included. The states are the ones where
digits are lost: spectra touching zero (ranks 1-3), concurrence near zero at
the separability boundary, and ties lambda1 ~ lambda2.
"""

import numpy as np
import pytest
from mpmath import mp

from qconc.concurrence import batch_oracle
from qconc.qstate import SIGMA_Y

REFEREE_DIGITS = 50

#: the worst forward error measured on these 102 states is 2.9e-16 with the
#: pivoted Cholesky factor, 9.2e-16 with the eigh factor before it (the 50-
#: and 100-digit references agree to 5e-26); the gate stays at 3e-15
FORWARD_ERROR_BOUND = 3e-15

_YY = np.kron(SIGMA_Y, SIGMA_Y)
_BELL = {
    "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


def reference_concurrence(w: np.ndarray):
    """Concurrence of W W^dagger by the textbook formula at 50 digits."""
    with mp.workdps(REFEREE_DIGITS):
        factor = mp.matrix(w.tolist())
        yy = mp.matrix(_YY.tolist())
        rho = factor * factor.H
        tilde = yy * rho.conjugate() * yy
        ev = mp.eig(rho * tilde, left=False, right=False)
        lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in ev), reverse=True)
        return max(lam[0] - lam[1] - lam[2] - lam[3], mp.mpf(0))


def _normalized(w):
    return w / np.sqrt(np.sum(np.abs(w) ** 2))


def _haar_u2(rng):
    """A Haar-random 2x2 unitary, drawn as the cases below were first drawn."""
    g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _local(rng, w):
    """W under a random local unitary, which keeps the spin-flip spectrum."""
    return np.kron(_haar_u2(rng), _haar_u2(rng)) @ w


def _boundary_weight(w):
    """Largest white-noise weight t that keeps (1 - t) W W^dagger + t/4 entangled,
    by bisection on the oracle (concurrence falls along that segment)."""
    rho = w @ w.conj().T
    lo, hi = 0.0, 1.0
    for _ in range(60):
        t = (lo + hi) / 2
        c = batch_oracle(((1 - t) * rho + t * np.eye(4) / 4)[None])[0]
        lo, hi = (t, hi) if c > 0 else (lo, t)
    return lo


def _noisy(w, t):
    """Factor of (1 - t) W W^dagger + t 1/4."""
    return np.hstack([np.sqrt(1 - t) * w, np.sqrt(t / 4) * np.eye(4)])


def _hard_factors():
    rng = np.random.default_rng(20260816)
    cases = []
    # spectra touching zero, and full rank for comparison
    for k, count in ((1, 20), (2, 20), (3, 20), (4, 6)):
        for _ in range(count):
            g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
            cases.append((f"rank{k}", _normalized(g)))
    # concurrence near zero: random states of rank 2-4 mixed with white noise
    # just short of the separability boundary, and Werner states at p = 1/3 +- d
    for k in (2, 3, 4):
        for gap in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            g = _normalized(rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k)))
            cases.append((f"boundary{k}", _noisy(g, _boundary_weight(g) * (1 - gap))))
    for d in (1e-3, 1e-6, 1e-9, -1e-9, -1e-6, 1e-12):
        cases.append(("werner", _noisy(_BELL["psi-"][:, None], 1 - (1 / 3 + d))))
    # ties: Bell mixtures with equal or nearly equal weights under local unitaries
    pair = np.stack([_BELL["phi+"], _BELL["phi-"]], axis=1)
    triple = np.stack([_BELL["phi+"], _BELL["phi-"], _BELL["psi+"]], axis=1)
    for d in (0.0, 0.0, 1e-12, 1e-9, 1e-6, 1e-3):
        cases.append(("tie2", _local(rng, pair * np.sqrt([0.5 + d, 0.5 - d]))))
    for weights in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.4, 0.3, 0.3)):
        cases.append(("tie3", _local(rng, triple * np.sqrt(weights))))
    # (|00><00| + |11><11|) / 2: lambda1 = lambda2 = 1/2 and C = 0
    classical = np.eye(4)[:, [0, 3]] * np.sqrt(0.5)
    for _ in range(6):
        cases.append(("tie-product", _local(rng, classical)))
    return cases


def test_the_referee_is_exact_on_closed_forms():
    # the float factors are normalized only to round-off, hence abs=1e-15
    assert reference_concurrence(_BELL["phi+"][:, None]) == pytest.approx(1.0, abs=1e-15)
    # a product state: W = |01>
    assert reference_concurrence(np.eye(4)[:, [1]]) == 0
    # Werner at p = 0.8 in the singlet form: C = (3p - 1) / 2
    w = _noisy(_BELL["psi-"][:, None], 0.2)
    with mp.workdps(REFEREE_DIGITS):
        expected = (3 * (1 - mp.mpf(0.2)) - 1) / 2
    assert abs(reference_concurrence(w) - expected) < 1e-15


def test_oracle_forward_error_on_hard_states():
    cases = _hard_factors()
    assert len(cases) >= 100
    mats = np.stack([w @ w.conj().T for _, w in cases])
    oracle = batch_oracle((mats + mats.conj().transpose(0, 2, 1)) / 2)
    errors = {}
    for (label, w), value in zip(cases, oracle):
        err = float(abs(reference_concurrence(w) - value))
        errors[label] = max(errors.get(label, 0.0), err)
    assert max(errors.values()) <= FORWARD_ERROR_BOUND, errors
