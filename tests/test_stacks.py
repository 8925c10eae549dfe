"""Each single-state call is one row of the stacked call, bit for bit."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qconc.concurrence import batch_lambdas, batch_oracle, concurrence_oracle
from qconc.estimators import (
    assemble_ladder,
    assemble_rank2,
    assemble_rank2_degenerate,
    assemble_rank2_sep,
    assemble_xstate,
    local_observables_rank2,
    reconstruct_rank2,
)
from qconc.invariants import batch_invariants, invariant_vector
from qconc.qstate import batch_decompose, decompose, random_rank_k
from qconc.validate import (
    SUITES,
    run_suites,
    sample_nondegenerate_rank2,
    sample_rank2_degenerate,
    sample_rank2_sep,
    sample_xstate,
)


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


def _rank2(rng):
    params = [sample_nondegenerate_rank2(rng) for _ in range(6)]
    recs = [reconstruct_rank2(*local_observables_rank2(x)) for x in params]
    return [assemble_rank2(x) for x in params + recs]


#: the state families the per-state validation suites stack, one list each
_FAMILIES = {
    "rank2": _rank2,
    "rank2-sep": lambda rng: [assemble_rank2_sep(sample_rank2_sep(rng)) for _ in range(12)],
    "rank2-degenerate-half": lambda rng: [
        assemble_rank2_degenerate(sample_rank2_degenerate(rng, lam=0.5)) for _ in range(12)
    ],
    "xstate-rank3": lambda rng: [
        assemble_xstate(sample_xstate(rng, rank3=True)) for _ in range(12)
    ],
    "ladder": lambda rng: [assemble_ladder(lam) for lam in np.linspace(0.0, 1.0, 9).tolist()],
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_family_stacks_match_single_state_calls(family):
    states = _FAMILIES[family](np.random.default_rng(11))
    mats = np.stack([rho.matrix for rho in states])
    p, s, pi = batch_decompose(mats)
    inv = batch_invariants(p, s, pi)
    value = batch_oracle(mats)
    for k, rho in enumerate(states):
        bloch = decompose(rho)
        assert_array_equal(np.concatenate([bloch.p, bloch.s]), np.concatenate([p[k], s[k]]))
        assert_array_equal(bloch.pi, pi[k])
        assert_array_equal(invariant_vector(bloch).as_array(), inv[k])
        assert_array_equal(concurrence_oracle(rho).value, value[k])


_STACKED_SUITES = [
    "rank2-roundtrip",
    "rank2-sep2",
    "rank2-degenerate",
    "projection2",
    "xstate",
    "xstate-invariant",
    "ladder",
]


@pytest.mark.parametrize("samples", [1, 9], ids=["one-chunk", "uneven-chunks"])
def test_stacked_suites_are_deterministic_at_small_sizes(samples):
    assert set(_STACKED_SUITES) <= set(SUITES)
    first = run_suites(_STACKED_SUITES, samples=samples, seed=5)
    second = run_suites(_STACKED_SUITES, samples=samples, seed=5)
    assert [r.suite for r in first] == _STACKED_SUITES
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
