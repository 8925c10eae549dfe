"""The oracle against a referee that shares no code with it: the partial
transpose.

For two qubits a state is entangled exactly when its partial transpose has a
negative eigenvalue (Peres 1996; Horodecki, Horodecki and Horodecki 1996),
and its negativity N = ||rho^{T_B}||_1 - 1 obeys
sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C (Verstraete, Audenaert, Dehaene
and De Moor 2001). N takes one eigvalsh of the partial transpose. The states
are every stack the suites grade against the oracle at 200 samples, the
edge states of conftest and the random states of `gen --rank 1-4`.
"""

import numpy as np
from hypothesis import given, settings

from conftest import edge_states
from qconc import validate
from qconc.concurrence import batch_oracle
from qconc.qstate import check_states, random_rank_k

#: the sandwich's slack; over the suites' 135 153 states at 10^4 samples the
#: oracle's C exceeded N by at most 1.2e-15 and N fell short of the lower
#: bound by at most 5.6e-16
SANDWICH_TOL = 1e-14

#: where C and the partial transpose's lowest eigenvalue count as nonzero
SIGN_TOL = 1e-12


def _partial_transpose(mats: np.ndarray) -> np.ndarray:
    """rho^{T_B} of each state of an (n, 4, 4) stack: the second qubit's
    indices swapped."""
    return mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def _assert_ppt_sandwich(mats: np.ndarray, c: np.ndarray) -> None:
    spectrum = np.linalg.eigvalsh(_partial_transpose(mats))
    negativity = np.abs(spectrum).sum(axis=1) - 1.0
    lower = np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)
    assert np.all(negativity <= c + SANDWICH_TOL), (negativity - c).max()
    assert np.all(lower <= negativity + SANDWICH_TOL), (lower - negativity).max()
    entangled, npt = c > SIGN_TOL, spectrum[:, 0] < -SIGN_TOL
    assert np.array_equal(entangled, npt), np.flatnonzero(entangled != npt)


def test_the_referee_on_closed_forms():
    """A Bell state has N = C = 1 and a product state N = C = 0."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell = np.outer(phi, phi)[None]
    product = np.diag([0.0, 1.0, 0.0, 0.0])[None]
    _assert_ppt_sandwich(bell, np.ones(1))
    _assert_ppt_sandwich(product, np.zeros(1))
    spectrum = np.linalg.eigvalsh(_partial_transpose(bell))[0]
    assert np.allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_every_suite_stack_meets_the_ppt_referee(monkeypatch):
    graded = []

    def recording(mats, oracle=batch_oracle):
        graded.append((np.array(mats), oracle(mats)))
        return graded[-1][1]

    monkeypatch.setattr(validate, "batch_oracle", recording)
    validate.run_suites(None, 200, seed=0)
    mats = np.concatenate([m for m, _ in graded])
    c = np.concatenate([value for _, value in graded])
    # nine suites grade their 200 states, lu-invariance and rank2-roundtrip
    # 400 each, threshold its two-state bracket and region its 5151 feasible
    # cells; inversions and shots grade none
    assert len(mats) == 13 * 200 + 2 + 5151
    _assert_ppt_sandwich(mats, c)


def test_gen_rank_states_meet_the_ppt_referee():
    mats = np.stack([random_rank_k(k, 1).matrix for k in (1, 2, 3, 4)])
    _assert_ppt_sandwich(mats, batch_oracle(mats))


def _nearest_state(m: np.ndarray) -> np.ndarray:
    """The matrix's Hermitian part with its negative eigenvalues set to zero,
    over its trace."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.maximum(w, 0.0)
    return (v * (w / w.sum())) @ v.conj().T


@settings(max_examples=200, deadline=None)
@given(edge_states())
def test_edge_states_meet_the_ppt_referee(m):
    """The sandwich holds for states, and an edge matrix sits up to 1e-10
    outside them (a negative eigenvalue, its trace, a skew part), where N - C
    reaches 3e-10. So each edge matrix's nearest state is graded: a state
    whose spectrum touches zero, since the edge's lowest eigenvalue is
    clipped."""
    state = _nearest_state(m)[None]
    _assert_ppt_sandwich(state, batch_oracle(check_states(state)))
