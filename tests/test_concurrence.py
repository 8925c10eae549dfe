import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import concurrence_pure, edge_states

from qconc.concurrence import (
    EIG_CLAMP,
    _value,
    batch_lambdas,
    batch_oracle,
    concurrence_oracle,
)
from qconc.errors import EigSolveFailure, InvalidState
from qconc.qstate import (
    DensityOperator,
    SIGMA_Y,
    bell_state,
    check_states,
    random_rank_k,
    werner_state,
)
from qconc.stateio import state_to_dict
from qconc.validate import batch_random_pure


def test_bell_states_are_maximally_entangled():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        diag = concurrence_oracle(bell_state(kind))
        assert diag.value == pytest.approx(1.0, abs=1e-12)


def test_product_state_concurrence_zero(rng):
    for _ in range(50):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho = DensityOperator(np.outer(c, c.conj()))
        assert concurrence_oracle(rho).value <= 1e-10


def test_werner_closed_form():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence_oracle(werner_state(p)).value == pytest.approx(
            expected, abs=1e-10
        )


def test_maximally_mixed_is_separable():
    assert concurrence_oracle(werner_state(0.0)).value == 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
def test_oracle_agrees_with_brute_force(seed, k):
    """Cross-check against the non-Hermitian eigvals route from conftest."""
    from conftest import wootters_reference

    rho = random_rank_k(k, seed)
    assert concurrence_oracle(rho).value == pytest.approx(
        wootters_reference(rho.matrix), abs=2e-7
    )


def test_diagnostics_spectrum_sorted_and_consistent():
    diag = concurrence_oracle(werner_state(0.9))
    assert list(diag.lambdas) == sorted(diag.lambdas, reverse=True)
    recomputed = max(0.0, diag.lambdas[0] - sum(diag.lambdas[1:]))
    assert diag.value == recomputed


def test_value_of_roots_clamps_at_zero():
    assert _value(0.3, 0.3, 0.2, 0.2) == 0.0


def _descending(lam) -> bool:
    return all(x >= y for x, y in zip(lam, lam[1:]))


def _assert_roots_descend(mats):
    """The single-state oracle and every row of batch_lambdas give the roots
    non-increasing, as _roots returns them and _value reads them."""
    for m, row in zip(mats, batch_lambdas(mats)):
        assert _descending(concurrence_oracle(m).lambdas)
        assert _descending(row.tolist())


def test_roots_descend_on_states_of_every_rank_and_at_ties():
    ranks = [random_rank_k(k, seed).matrix for k in (1, 2, 3, 4) for seed in range(25)]
    ties = [werner_state(0.0).matrix, bell_state("psi-").matrix, werner_state(1.0 / 3.0).matrix]
    _assert_roots_descend(np.stack(ranks + ties))


@settings(max_examples=100, deadline=None)
@given(edge_states())
def test_roots_descend_on_edge_states(m):
    try:
        mats = check_states(m[None])
    except InvalidState:
        return
    _assert_roots_descend(mats)


def test_a_scaled_bell_state_gives_one_with_raw_lambdas():
    # trace 1 + 0.9e-10 passes validation; l1 - (l2 + l3 + l4) is 1 + 9e-11
    m = bell_state("phi+").matrix * (1.0 + 0.9e-10)
    diag = concurrence_oracle(m)
    assert diag.value == 1.0 and batch_oracle(m[None])[0] == 1.0
    assert diag.lambdas[0] > 1.0


@settings(max_examples=150, deadline=None)
@given(edge_states())
def test_edge_states_give_a_concurrence_in_the_unit_interval_or_raise(m):
    """States at the acceptance tolerances of validation: the single-state and
    the stacked oracle give a value in [0, 1], or validation rejects them."""
    try:
        value = concurrence_oracle(m).value
    except InvalidState:
        with pytest.raises(InvalidState):
            check_states(m[None])
        return
    assert 0.0 <= value <= 1.0
    assert batch_oracle(check_states(m[None]))[0] == value


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pure_formula_matches_oracle(seed):
    c = batch_random_pure(np.random.default_rng(seed), 1)[0]
    direct = concurrence_pure(c)
    oracle = concurrence_oracle(DensityOperator(np.outer(c, c.conj()))).value
    assert direct == pytest.approx(oracle, abs=1e-10)


def test_concurrence_pure_accepts_raw_vector():
    c = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert concurrence_pure(c) == pytest.approx(1.0)


def test_oracle_accepts_raw_matrix():
    raw = bell_state("psi+").matrix
    assert concurrence_oracle(raw).value == pytest.approx(1.0, abs=1e-12)


def _bell_matrix():
    return bell_state("phi+").matrix.copy()


def _non_hermitian_bell():
    m = _bell_matrix()
    m[0, 3] += 0.1
    return m


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(lambda: 3.0 * _bell_matrix(), id="trace-3"),
        pytest.param(lambda: np.eye(4) / 2.0, id="trace-2"),
        pytest.param(_non_hermitian_bell, id="non-hermitian"),
    ],
)
def test_oracle_validates_raw_matrix(raw):
    with pytest.raises(InvalidState):
        concurrence_oracle(raw())


def test_oracle_rejects_a_state_payload_dict():
    with pytest.raises(InvalidState, match="numeric"):
        concurrence_oracle(state_to_dict(werner_state(0.5)))


def test_oracle_on_rank2_mixture_of_bells():
    # mixture of two Bell states: C = |2w - 1| for weights (w, 1 - w)
    for w in (0.1, 0.35, 0.5, 0.9):
        m = w * bell_state("phi+").matrix + (1.0 - w) * bell_state("phi-").matrix
        assert concurrence_oracle(DensityOperator(m)).value == pytest.approx(
            abs(2.0 * w - 1.0), abs=1e-12
        )


_YY = np.kron(SIGMA_Y, SIGMA_Y)


def _sqrt_route_lambdas(m, kept):
    """The oracle as it was before the factor route: singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)), with the kept largest eigenvalues."""
    w, v = np.linalg.eigh(m)
    w = np.where(np.arange(4) >= 4 - kept, w, 0.0)
    sq = (v * np.sqrt(w)) @ v.conj().T
    return np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)


def _pivots_above_the_cut(m):
    """Count of pivots of a textbook diagonally pivoted Cholesky of m above
    EIG_CLAMP times the largest diagonal entry, in complex arithmetic."""
    s = np.array(m, dtype=complex)
    cut = EIG_CLAMP * s.diagonal().real.max()
    for count in range(4):
        d = s.diagonal().real
        p = int(np.argmax(d))
        if not d[p] > cut:
            return count
        col = s[:, p] / np.sqrt(d[p])
        s = s - np.outer(col, col.conj())
    return 4


def _bell_mixture(*kinds):
    return sum(bell_state(k).matrix for k in kinds) / len(kinds)


def _clamp_edge(factor):
    """A state whose last pivot is factor * EIG_CLAMP * its largest diagonal
    entry: a random rank-3 state on |00>, |01>, |10> plus that weight on the
    uncoupled |11>, which is also its smallest eigenvalue, so the pivot cut
    and the eigenvalue count of the reference drop the same part."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    m = np.zeros((4, 4), dtype=complex)
    m[:3, :3] = (q * [0.5, 0.3, 0.2]) @ q.conj().T
    m[3, 3] = factor * EIG_CLAMP * m.diagonal().real.max()
    return m / m.trace().real


#: (state, count of pivots the oracle keeps)
_ORACLE_CASES = {
    **{
        f"rank{k}-seed{seed}": (lambda k=k, seed=seed: random_rank_k(k, seed).matrix, k)
        for k in (1, 2, 3, 4)
        for seed in range(5)
    },
    "werner-above": (lambda: werner_state(1.0 / 3.0 + 1e-9).matrix, 4),
    "werner-below": (lambda: werner_state(1.0 / 3.0 - 1e-9).matrix, 4),
    "bell-tie2": (lambda: _bell_mixture("phi+", "phi-"), 2),
    "bell-tie2-psi": (lambda: _bell_mixture("psi+", "psi-"), 2),
    "bell-tie3": (lambda: _bell_mixture("phi+", "phi-", "psi+"), 3),
    "bell-tie4": (lambda: _bell_mixture("phi+", "phi-", "psi+", "psi-"), 4),
    "clamp-above": (lambda: _clamp_edge(1.1), 4),
    "clamp-below": (lambda: _clamp_edge(0.9), 3),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_factor_route_matches_the_sqrt_route(case):
    build, kept = _ORACLE_CASES[case]
    m = build()
    lam = batch_lambdas(m[None])[0]
    old = _sqrt_route_lambdas(m, kept)
    np.testing.assert_allclose(lam, old, rtol=0, atol=1e-13)
    value = max(0.0, old[0] - old[1] - old[2] - old[3])
    assert abs(batch_oracle(m[None])[0] - value) <= 1e-13


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_roots_beyond_the_kept_rank_are_exact_zeros(case):
    build, kept = _ORACLE_CASES[case]
    m = build()
    assert _pivots_above_the_cut(m) == kept
    lam = batch_lambdas(m[None])[0]
    assert lam[kept:].tolist() == [0.0] * (4 - kept)
    if case == "clamp-above":
        # the kept pivot of 4e-13 gives third and fourth roots of 3e-7, about
        # its square root: the leak the cut stops just below it
        assert lam[3] > 1e-13


def _failed_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("rank", [3, 4])
def test_a_failed_svd_raises_eig_solve_failure(monkeypatch, rank):
    rho = random_rank_k(rank, 5)
    monkeypatch.setattr(np.linalg, "svd", _failed_svd)
    with pytest.raises(EigSolveFailure, match="SVD did not converge"):
        concurrence_oracle(rho)


@pytest.mark.parametrize("ranks", [(3,), (4,), (3, 4)])
def test_a_failed_svd_raises_eig_solve_failure_on_a_stack(monkeypatch, ranks):
    mats = check_states(np.stack([random_rank_k(k, 5).matrix for k in ranks]))
    monkeypatch.setattr(np.linalg, "svd", _failed_svd)
    with pytest.raises(EigSolveFailure, match="SVD did not converge"):
        batch_lambdas(mats)
