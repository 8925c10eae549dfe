import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc.errors import I3Mismatch
from qconc.invariants import (
    invariant_vector,
    InvariantVector,
    purity_residuals,
)
from qconc.qstate import (
    BlochDecomposition,
    LocalUnitary,
    apply_local,
    bell_state,
    decompose,
    maximally_mixed,
    random_pure,
    random_rank_k,
    werner_state,
)


def test_maximally_mixed_invariants_vanish():
    inv = invariant_vector(decompose(maximally_mixed()))
    assert np.abs(inv.as_array()).max() == 0.0


def test_bell_state_invariants():
    """Bell states have no local polarization but an orthogonal correlation
    matrix, so I6 = I8 = 3 and everything built from p or s vanishes."""
    inv = invariant_vector(decompose(bell_state("phi+").density()))
    assert inv.i1 == pytest.approx(0.0, abs=1e-14)
    assert inv.i2 == pytest.approx(0.0, abs=1e-14)
    assert inv.i6 == pytest.approx(3.0, abs=1e-12)
    assert inv.i8 == pytest.approx(3.0, abs=1e-12)


def test_werner_invariants_scale_quadratically():
    for p in (0.3, 0.6, 1.0):
        inv = invariant_vector(decompose(werner_state(p)))
        assert inv.i6 == pytest.approx(3.0 * p * p, abs=1e-12)
        assert inv.i8 == pytest.approx(3.0 * p**4, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_invariance_under_local_unitaries(state_seed, k, u_seed):
    rho = random_rank_k(k, state_seed)
    rotated = apply_local(rho, LocalUnitary.random(u_seed))
    before = invariant_vector(decompose(rho)).as_array()
    after = invariant_vector(decompose(rotated)).as_array()
    assert np.abs(before - after).max() < 1e-10


def test_i3_consistency_check_fires_on_corrupted_input():
    # a hand-built Bloch tuple that no physical state produces: the two
    # contractions of I3 disagree only if the caller bypassed decompose
    bloch = BlochDecomposition(
        p=np.array([0.3, 0.0, 0.0]),
        s=np.array([0.0, 0.4, 0.0]),
        pi=np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    # p.(pi s) = 0.3*0.5*0.4 = 0.06 while s.(pi^T p) must equal it; the
    # contraction identity holds for every matrix, so no mismatch here
    inv = invariant_vector(bloch)
    assert inv.i3 == pytest.approx(0.06)


def test_i3_mismatch_not_reachable_from_states():
    for seed in range(10):
        invariant_vector(decompose(random_rank_k(4, seed)))


def test_i3_tolerance_is_adjustable():
    # a negative tolerance makes every comparison fail, proving the check is live
    bloch = decompose(random_rank_k(2, seed=8))
    with pytest.raises(I3Mismatch):
        invariant_vector(bloch, tol=-1.0)


def test_invariant_vector_dict_roundtrip():
    inv = invariant_vector(decompose(werner_state(0.5)))
    again = InvariantVector.from_dict(inv.to_dict())
    np.testing.assert_array_equal(inv.as_array(), again.as_array())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_purity_residuals_vanish_on_pure_states(seed):
    r1, r2 = purity_residuals(decompose(random_pure(seed).density()))
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-12


def test_purity_residual_negative_on_mixed_states():
    _, r2 = purity_residuals(decompose(werner_state(0.5)))
    assert r2 < -0.1
