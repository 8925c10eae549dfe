import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc.bounds import assemble_rank3_max, assemble_rank4_max
from qconc.errors import Infeasible
from qconc.measurement import (
    OBS_LABELS,
    MeasurementRecord,
    expectation,
    lambda_from_szpz,
    lambdas_from_correlations,
    sample_expectation,
)
from qconc.qstate import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_state,
    decompose,
    random_rank_k,
    werner_state,
)

_R = 1.0 / math.sqrt(2.0)

#: the single-qubit operator of each label, and the fifteen nontrivial pairs
_OPERATOR = dict(zip(OBS_LABELS, (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)))
_OBSERVABLES = [(i, j) for i in OBS_LABELS for j in OBS_LABELS if (i, j) != ("0", "0")]


class TestExpectation:
    def test_bell_correlations(self):
        rho = bell_state("phi+")
        assert expectation(rho, ("x", "x")) == pytest.approx(1.0)
        assert expectation(rho, ("y", "y")) == pytest.approx(-1.0)
        assert expectation(rho, ("z", "z")) == pytest.approx(1.0)
        assert expectation(rho, ("z", "0")) == pytest.approx(0.0)

    def test_maximally_mixed_has_no_correlations(self):
        rho = werner_state(0.0)
        for obs in _OBSERVABLES:
            assert expectation(rho, obs) == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), rank=st.integers(1, 4))
    def test_matches_the_bloch_decomposition(self, seed, rank):
        rho = random_rank_k(rank, seed)
        bloch = decompose(rho)
        axes = {"x": 0, "y": 1, "z": 2}
        for name, k in axes.items():
            assert expectation(rho, (name, "0")) == pytest.approx(bloch.p[k])
            assert expectation(rho, ("0", name)) == pytest.approx(bloch.s[k])
        for a, i in axes.items():
            for b, j in axes.items():
                assert expectation(rho, (a, b)) == pytest.approx(bloch.pi[i, j])

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError, match="unknown observable"):
            expectation(bell_state("phi+"), ("x", "q"))

    def test_same_bits_as_the_kronecker_product(self):
        for rank, seed in ((1, 0), (2, 1), (3, 2), (4, 3)):
            rho = random_rank_k(rank, seed)
            for obs in _OBSERVABLES:
                op = np.kron(_OPERATOR[obs[0]], _OPERATOR[obs[1]])
                exact = float(np.einsum("ab,ba->", rho.matrix, op).real)
                assert expectation(rho, obs) == exact


class TestRecordValidation:
    def test_shot_count_positive(self):
        with pytest.raises(ValueError):
            MeasurementRecord(
                observable=("x", "x"), expectation=0.1, shots=0, std_error=0.1
            )

    def test_sample_mean_band(self):
        with pytest.raises(ValueError, match="admissible band"):
            MeasurementRecord(
                observable=("x", "x"), expectation=1.2, shots=100, std_error=0.01
            )

    @pytest.mark.parametrize("field", ["expectation", "std_error"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_or_error_rejected(self, field, bad):
        fields = {"expectation": 0.1, "std_error": 0.01, field: bad}
        with pytest.raises(ValueError, match="finite") as single:
            MeasurementRecord(observable=("x", "x"), shots=100, **fields)
        block = {"expectation": np.full(3, 0.1), "std_error": np.full(3, 0.01)}
        block[field][1] = bad
        with pytest.raises(ValueError) as stacked:
            MeasurementRecord(observable=("x", "x"), shots=100, **block)
        assert str(stacked.value) == str(single.value)


class TestSampling:
    def test_fixed_seed_reproduces_the_record(self):
        rho = werner_state(0.6)
        a = sample_expectation(rho, ("z", "z"), 500, seed=42)
        b = sample_expectation(rho, ("z", "z"), 500, seed=42)
        assert a == b

    def test_std_error_is_the_binomial_plugin(self):
        rec = sample_expectation(bell_state("psi-"), ("x", "z"), 400, seed=1)
        assert rec.std_error == pytest.approx(
            math.sqrt((1.0 - rec.expectation**2) / 400)
        )

    def test_mean_concentrates_on_the_exact_value(self):
        rho = werner_state(0.8)
        exact = expectation(rho, ("z", "z"))
        rec = sample_expectation(rho, ("z", "z"), 10**5, seed=3)
        assert abs(rec.expectation - exact) < 5.0 * rec.std_error + 1e-12

    def test_deterministic_outcome_has_zero_error(self):
        rec = sample_expectation(bell_state("phi+"), ("x", "x"), 100, seed=0)
        assert rec.expectation == 1.0
        assert rec.std_error == 0.0

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample_expectation(bell_state("phi+"), ("x", "x"), 0)


def _mixed_stack():
    return np.stack(
        [random_rank_k(rank, seed).matrix for rank in (1, 2, 3, 4) for seed in range(5)]
    )


class TestStacks:
    def test_stack_expectations_are_the_single_state_values(self):
        mats = _mixed_stack()
        for obs in _OBSERVABLES:
            values = expectation(mats, obs)
            assert values.shape == (len(mats),)
            assert values.tolist() == [expectation(m, obs) for m in mats]

    def test_stack_sample_is_one_draw_per_state_in_stack_order(self):
        """A stack's block record holds what single calls on its states in
        stack order give, and leaves the generator where they leave it."""
        mats = _mixed_stack()
        block_rng, single_rng = np.random.default_rng(7), np.random.default_rng(7)
        block = sample_expectation(mats, ("x", "z"), 1000, block_rng)
        singles = [sample_expectation(m, ("x", "z"), 1000, single_rng) for m in mats]
        assert block.expectation.tolist() == [r.expectation for r in singles]
        assert block.std_error.tolist() == [r.std_error for r in singles]
        assert block_rng.bit_generator.state == single_rng.bit_generator.state
        assert (block.observable, block.shots) == (("x", "z"), 1000)
        assert all(type(r.expectation) is float for r in singles)

    def test_block_record_checks_every_row(self):
        with pytest.raises(ValueError, match="admissible band"):
            MeasurementRecord(
                observable=("x", "x"),
                expectation=np.array([0.1, 1.2]),
                shots=100,
                std_error=np.array([0.01, 0.01]),
            )
        with pytest.raises(ValueError, match="nonnegative std_error"):
            MeasurementRecord(
                observable=("x", "x"),
                expectation=np.array([0.1, 0.2]),
                shots=100,
                std_error=np.array([0.01, -0.01]),
            )


class TestLambdaInversion:
    def test_inverts_the_forward_map(self):
        for lam in np.linspace(0.0, 1.0, 11):
            est = lambda_from_szpz(4.0 * lam / 3.0 - 1.0)
            assert est.value == pytest.approx(float(lam), abs=1e-12)
            assert not est.clamped

    def test_roundtrip_through_the_state_family(self):
        for lam in (0.0, 0.3, 0.75, 1.0):
            rho = assemble_rank3_max(lam, math.sin(0.4), math.cos(0.4))
            est = lambda_from_szpz(expectation(rho, ("z", "z")))
            assert est.value == pytest.approx(lam, abs=1e-12)

    def test_clamps_out_of_family_data(self):
        est = lambda_from_szpz(0.9)
        assert est.value == 1.0
        assert est.clamped

    def test_correlation_range_validated(self):
        with pytest.raises(ValueError):
            lambda_from_szpz(-1.2)

    def test_nan_correlation_rejected(self):
        with pytest.raises(ValueError, match="correlation"):
            lambda_from_szpz(math.nan)


class TestWeightsInversion:
    def test_inverts_the_forward_map(self):
        for l1 in np.linspace(0.0, 1.0, 9):
            for l2 in np.linspace(0.0, 1.0 - l1, 5):
                sxpx = 1.0 - l1 - 2.0 * l2 / 3.0
                szpz = l1 + 4.0 * l2 / 3.0 - 1.0
                est = lambdas_from_correlations(sxpx, szpz)
                assert est.lambda1 == pytest.approx(float(l1), abs=1e-12)
                assert est.lambda2 == pytest.approx(float(l2), abs=1e-12)
                if min(l1, l2, 1.0 - l1 - l2) > 1e-9:
                    # flags describe the raw solution; roundoff flips them
                    # only on the simplex boundary
                    assert est.nonnegative and est.within_simplex

    def test_roundtrip_through_the_state_family(self):
        for l1, l2 in ((0.1, 0.2), (0.5, 0.1), (0.0, 0.9)):
            rho = assemble_rank4_max(l1, l2)
            est = lambdas_from_correlations(
                expectation(rho, ("x", "x")), expectation(rho, ("z", "z"))
            )
            assert est.lambda1 == pytest.approx(l1, abs=1e-12)
            assert est.lambda2 == pytest.approx(l2, abs=1e-12)

    def test_infeasible_solutions_raise(self):
        with pytest.raises(Infeasible, match="negative weight"):
            lambdas_from_correlations(1.0, 0.5)
        with pytest.raises(Infeasible, match="simplex"):
            lambdas_from_correlations(-1.0, 1.0)

    def test_small_violations_clamp_and_flag(self):
        eps = 1e-10
        sxpx = 1.0 + eps - 0.2
        szpz = -eps + 0.4 - 1.0
        est = lambdas_from_correlations(sxpx, szpz)
        assert est.lambda1 == 0.0
        assert est.lambda2 == pytest.approx(0.3)
        assert not est.nonnegative

    def test_wider_tol_admits_noisier_data(self):
        sxpx, szpz = 1.0 - 0.2 + 0.01, 0.4 - 1.0 - 0.01
        with pytest.raises(Infeasible):
            lambdas_from_correlations(sxpx, szpz)
        est = lambdas_from_correlations(sxpx, szpz, tol=0.1)
        assert est.lambda1 == 0.0

    def test_correlation_range_validated(self):
        with pytest.raises(ValueError, match="sxpx"):
            lambdas_from_correlations(1.5, 0.0)

    def test_nan_correlation_rejected(self):
        with pytest.raises(ValueError, match="sxpx"):
            lambdas_from_correlations(math.nan, 0.1)
