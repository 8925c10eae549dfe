"""Each single-state call is one row of the stacked call, bit for bit."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qconc.concurrence import batch_lambdas, batch_oracle, concurrence_oracle
from qconc.invariants import batch_invariants, invariant_vector
from qconc.qstate import batch_decompose, decompose, random_rank_k


def _stack():
    return np.stack(
        [random_rank_k(rank, seed).matrix for rank in (1, 2, 3, 4) for seed in range(6)]
    )


def _strided(a):
    """The same values as a non-contiguous view: every other slot of a buffer."""
    buf = np.zeros((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def _fortran(a):
    """The same values with every trailing matrix stored column-major."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize(
    "layout", [lambda a: a, _strided, _fortran], ids=["contiguous", "strided", "fortran"]
)
def test_single_state_calls_are_rows_of_the_stacked_call(layout):
    mats = _stack()
    view = layout(mats)
    p, s, pi = batch_decompose(view)
    inv = batch_invariants(layout(p), layout(s), layout(pi))
    lam = batch_lambdas(view)
    value = batch_oracle(view)
    for k, m in enumerate(mats):
        bloch = decompose(m)
        assert_array_equal(bloch.p, p[k])
        assert_array_equal(bloch.s, s[k])
        assert_array_equal(bloch.pi, pi[k])
        assert_array_equal(invariant_vector(bloch).as_array(), inv[k])
        diag = concurrence_oracle(m)
        assert_array_equal(diag.lambdas, lam[k])
        assert_array_equal(diag.value, value[k])
