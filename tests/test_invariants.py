import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc.invariants import (
    batch_invariants,
    invariant_vector,
    InvariantVector,
    purity_residuals,
)
from qconc.qstate import (
    BlochDecomposition,
    DensityOperator,
    batch_decompose,
    bell_state,
    decompose,
    random_rank_k,
    werner_state,
)
from qconc.validate import batch_haar_u2, batch_random_mixed, batch_random_pure


def test_maximally_mixed_invariants_vanish():
    inv = invariant_vector(decompose(werner_state(0.0)))
    assert np.abs(inv.as_array()).max() == 0.0


def test_bell_state_invariants():
    """Bell states have no local polarization but an orthogonal correlation
    matrix, so I6 = I8 = 3 and everything built from p or s vanishes."""
    inv = invariant_vector(decompose(bell_state("phi+")))
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
    u = np.kron(*batch_haar_u2(np.random.default_rng(u_seed), 2))
    rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
    before = invariant_vector(decompose(rho)).as_array()
    after = invariant_vector(decompose(rotated)).as_array()
    assert np.abs(before - after).max() < 1e-10


def test_i3_of_a_hand_built_bloch_tuple():
    # fields written by hand, not read off a matrix by decompose
    bloch = BlochDecomposition(
        p=np.array([0.3, 0.0, 0.0]),
        s=np.array([0.0, 0.4, 0.0]),
        pi=np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    # p.(pi s) = 0.3*0.5*0.4 = 0.06
    inv = invariant_vector(bloch)
    assert inv.i3 == pytest.approx(0.06)


def test_i3_equals_the_other_contraction_on_states():
    """p . (pi s) = s . (pi^T p) for every real p, s and pi, so the library
    takes I3 once; on states the other contraction agrees to round-off."""
    for seed in range(10):
        bloch = decompose(random_rank_k(4, seed))
        i3 = invariant_vector(bloch).i3
        assert i3 == pytest.approx(bloch.s @ (bloch.pi.T @ bloch.p), abs=1e-15)


def test_invariant_vector_dict_roundtrip():
    inv = invariant_vector(decompose(werner_state(0.5)))
    again = InvariantVector(**inv.to_dict())
    np.testing.assert_array_equal(inv.as_array(), again.as_array())


def _residuals(rho):
    inv = invariant_vector(decompose(rho))
    return purity_residuals(inv.i1, inv.i2, inv.i6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_purity_residuals_vanish_on_pure_states(seed):
    c = batch_random_pure(np.random.default_rng(seed), 1)[0]
    r1, r2 = _residuals(DensityOperator(np.outer(c, c.conj())))
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-12


def test_purity_residual_negative_on_mixed_states():
    _, r2 = _residuals(werner_state(0.5))
    assert r2 < -0.1


def test_purity_residuals_act_elementwise_on_arrays():
    rows = np.array(
        [invariant_vector(decompose(random_rank_k(k, k))).as_array() for k in (1, 2, 3, 4)]
    )
    r1, r2 = purity_residuals(rows[:, 0], rows[:, 1], rows[:, 5])
    for k, row in enumerate(rows):
        assert (r1[k], r2[k]) == purity_residuals(*row[[0, 1, 5]].tolist())


def _fields_of_every_rank(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return batch_decompose(np.concatenate([batch_random_mixed(rng, n, k) for k in (1, 2, 3, 4)]))


def test_single_state_invariants_are_rows_of_the_stacked_call():
    """Both paths evaluate one formula, on floats and on (n,) arrays, so each
    row has its single-state bits, as the earlier one-row stacks of the
    stacked matmuls gave."""
    p, s, pi = _fields_of_every_rank()
    inv = batch_invariants(p, s, pi)
    for k in range(len(p)):
        row = invariant_vector(BlochDecomposition(p=p[k], s=s[k], pi=pi[k])).as_array()
        assert row.tobytes() == inv[k].tobytes()


def _exact_invariants(p, s, pi):
    """The nine invariants of float fields in exact rational arithmetic."""
    p, s = [Fraction(x) for x in p], [Fraction(x) for x in s]
    pi = [[Fraction(x) for x in row] for row in pi]
    dot = lambda x, y: sum(u * v for u, v in zip(x, y))
    cross = lambda x, y: [x[i - 2] * y[i - 1] - x[i - 1] * y[i - 2] for i in range(3)]
    cols = [[row[j] for row in pi] for j in range(3)]
    a, b = [dot(row, s) for row in pi], [dot(col, p) for col in cols]
    t = [[dot(x, y) for y in pi] for x in pi]
    return [
        dot(p, p), dot(s, s), dot(p, a), dot(a, a), dot(b, b),
        sum(t[i][i] for i in range(3)),
        dot([dot(a, col) for col in cols], b),
        sum(dot(row, row) for row in t),
        dot([dot(cross(p, a), col) for col in cols], cross(s, b)),
    ]


def test_invariants_are_within_rounding_of_exact_arithmetic():
    """Every invariant is within 2e-15 of its exact value at the same float
    fields; the earlier stacked matmuls stayed as close, with bits that
    depended on the BLAS kernel."""
    p, s, pi = _fields_of_every_rank(seed=1, n=50)
    inv = batch_invariants(p, s, pi)
    for k in range(len(p)):
        exact = _exact_invariants(p[k].tolist(), s[k].tolist(), pi[k].tolist())
        for got, want in zip(inv[k].tolist(), exact):
            assert abs(Fraction(got) - want) <= Fraction(2e-15)


#: sha256 of the little-endian bytes of batch_invariants on the fields below.
#: Every product and sum is one IEEE double operation with no BLAS call, so
#: the digest holds on every platform and BLAS kernel (the earlier stacked
#: matmuls hashed differently under different OpenBLAS core types).
_UNIFORM_FIELDS_SHA256 = "d5914b5fe4606517ae8845146cf21dbb14a089f132cf0cc731a3ecf20fe1167b"


def test_invariant_bits_are_pinned():
    rng = np.random.default_rng(2026)
    n = 2000
    p, s = rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 3))
    pi = rng.uniform(-1.0, 1.0, (n, 3, 3))
    inv = np.ascontiguousarray(batch_invariants(p, s, pi), dtype="<f8")
    assert hashlib.sha256(inv.tobytes()).hexdigest() == _UNIFORM_FIELDS_SHA256


def test_huge_fields_give_each_block_row_the_single_call_invariants():
    """Fields scaled by 1e6 round p . (pi s) and s . (pi^T p) one ulp apart;
    the invariants take I3 once, so the single call and each block row return
    the same invariants, bit for bit."""
    rng = np.random.default_rng(7)
    p, s = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3))
    pi = rng.uniform(-1.0, 1.0, (3, 3, 3))
    p[1], s[1], pi[1] = 1e6 * p[1], 1e6 * s[1], 1e6 * pi[1]
    inv = batch_invariants(p, s, pi)
    for k in range(3):
        row = invariant_vector(BlochDecomposition(p=p[k], s=s[k], pi=pi[k])).as_array()
        assert row.tobytes() == inv[k].tobytes()
