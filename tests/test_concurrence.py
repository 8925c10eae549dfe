import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc.concurrence import (
    ConcurrenceDiagnostics,
    concurrence_oracle,
    concurrence_pure,
    spin_flip,
)
from qconc.errors import InvalidState, NotNormalized
from qconc.qstate import (
    DensityOperator,
    PureState,
    bell_state,
    maximally_mixed,
    random_pure,
    random_rank_k,
    werner_state,
)
from qconc.stateio import state_to_dict


def test_bell_states_are_maximally_entangled():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        diag = concurrence_oracle(bell_state(kind).density())
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
    assert concurrence_oracle(maximally_mixed()).value == 0.0


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


def test_diagnostics_from_lambdas_clamps_at_zero():
    diag = ConcurrenceDiagnostics.from_lambdas([0.3, 0.3, 0.2, 0.2])
    assert diag.value == 0.0


class TestSpinFlip:
    def test_involution(self):
        rho = random_rank_k(3, seed=7)
        np.testing.assert_allclose(
            spin_flip(spin_flip(rho)), rho.matrix, atol=1e-14
        )

    def test_preserves_statehood(self):
        flipped = DensityOperator(spin_flip(random_rank_k(4, seed=3)))
        assert flipped.purity() <= 1.0 + 1e-12

    def test_bell_state_is_fixed_point(self):
        rho = bell_state("phi+").density()
        np.testing.assert_allclose(spin_flip(rho), rho.matrix, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pure_formula_matches_oracle(seed):
    psi = random_pure(seed)
    direct = concurrence_pure(psi)
    oracle = concurrence_oracle(psi.density()).value
    assert direct == pytest.approx(oracle, abs=1e-10)


def test_concurrence_pure_accepts_raw_vector():
    c = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert concurrence_pure(c) == pytest.approx(1.0)


def test_concurrence_pure_rejects_bad_norm():
    with pytest.raises(NotNormalized):
        concurrence_pure(np.array([1.0, 0.0, 0.0, 1.0]))


def test_concurrence_pure_rejects_bad_shape():
    with pytest.raises(NotNormalized):
        concurrence_pure(np.array([1.0, 0.0]))


def test_oracle_accepts_raw_matrix():
    raw = bell_state("psi+").density().matrix
    assert concurrence_oracle(raw).value == pytest.approx(1.0, abs=1e-12)


def _bell_matrix():
    return bell_state("phi+").density().matrix.copy()


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
        m = w * bell_state("phi+").density().matrix + (1.0 - w) * bell_state(
            "phi-"
        ).density().matrix
        assert concurrence_oracle(DensityOperator(m)).value == pytest.approx(
            abs(2.0 * w - 1.0), abs=1e-12
        )
