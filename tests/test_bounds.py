import math
from dataclasses import replace

import numpy as np
import pytest

from qconc.bounds import (
    REGION_ENTANGLED,
    REGION_INFEASIBLE,
    REGION_SEPARABLE,
    Rank3Mixture,
    Rank4Mixture,
    _sep_matrix,
    assemble_rank3_max,
    assemble_rank4_max,
    classify_weights,
    rank3_bound,
    rank3_max_concurrence,
    rank3_max_matrix,
    rank3_threshold,
    rank4_bound,
    rank4_max_concurrence,
    rank4_max_matrix,
    rank4_region,
)
from qconc.concurrence import concurrence_oracle
from qconc.qstate import rank_of

_R = 1.0 / math.sqrt(2.0)


class TestMixtures:
    def test_rank3_mixture_is_valid_state(self):
        for seed in range(6):
            m = Rank3Mixture.random(seed)
            rho = m.assemble()
            assert rank_of(rho) <= 3 or m.lam == 0.0

    def test_sep_matrix_is_separable(self):
        m = Rank3Mixture.random(2)
        sep = _sep_matrix(m)
        sep = sep / np.trace(sep).real
        assert concurrence_oracle(sep).value <= 1e-12

    def test_rank3_dominance(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            m = Rank3Mixture.random(rng)
            gap = rank3_bound(m) - concurrence_oracle(m.assemble()).value
            assert gap >= -1e-9

    def test_rank4_dominance(self):
        rng = np.random.default_rng(78)
        for _ in range(300):
            m = Rank4Mixture.random(rng)
            gap = rank4_bound(m) - concurrence_oracle(m.assemble()).value
            assert gap >= -1e-9

    @pytest.mark.parametrize("cls", [Rank3Mixture, Rank4Mixture])
    @pytest.mark.parametrize(
        "field", ["a", "theta", "phi", "sep_angle1", "sep_phase1", "sep_angle2", "sep_phase2"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, cls, field, bad):
        m = cls.random(5)
        with pytest.raises(ValueError, match="a\\^2|finite") as single:
            replace(m, **{field: bad})
        block = cls.random(5, n=3)
        column = getattr(block, field).copy()
        column[1] = bad
        with pytest.raises(ValueError) as stacked:
            replace(block, **{field: column})
        assert str(stacked.value) == str(single.value)

    def test_rank4_weight_simplex_enforced(self):
        with pytest.raises(ValueError):
            Rank4Mixture(
                lambda1=0.7, lambda2=0.5, mu=0.5, a=_R, b=_R, theta=0.3, phi=0.1
            )

    @pytest.mark.parametrize("closed_form", [rank4_max_concurrence, rank4_max_matrix])
    @pytest.mark.parametrize("weights", [(math.nan, 0.1), (0.1, math.nan)])
    def test_maximal_rank4_forms_reject_nan_weights(self, closed_form, weights):
        with pytest.raises(ValueError):
            closed_form(*weights)


_GUARDED_FORMS = {
    "rank4_max_concurrence": (rank4_max_concurrence, {"lambda1": 0.1, "lambda2": 0.2}),
    "rank4_max_matrix": (rank4_max_matrix, {"lambda1": 0.1, "lambda2": 0.2}),
    "rank3_threshold": (rank3_threshold, {"a": 0.6, "b": 0.8}),
    "rank3_max_concurrence": (rank3_max_concurrence, {"lam": 0.3, "a": 0.6, "b": 0.8}),
    "rank3_max_matrix": (rank3_max_matrix, {"lam": 0.3, "a": 0.6, "b": 0.8}),
}


@pytest.mark.parametrize(
    "form, argument",
    [(form, arg) for form, (_, args) in _GUARDED_FORMS.items() for arg in args],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_guarded_forms_name_a_non_finite_argument(form, argument, bad):
    """NaN and +-inf fail the finite rule before any range rule, for one
    float and for row 1 of a 3-row block; they once raised a range message
    ("lambda1 and lambda2 must be nonnegative", "a and b must be
    nonnegative", "a^2 + b^2 must equal 1")."""
    fn, args = _GUARDED_FORMS[form]
    with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
        fn(**{**args, argument: bad})
    block = {name: np.full(3, value) for name, value in args.items()}
    block[argument][1] = bad
    with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
        fn(**block)


class TestRank3MaxFamily:
    def test_closed_form_matches_oracle(self):
        for t in (0.2, 0.5, math.pi / 4.0, 1.2):
            a, b = math.sin(t), math.cos(t)
            for lam in np.linspace(0.0, 1.0, 21):
                rho = assemble_rank3_max(float(lam), a, b)
                expected = max(0.0, rank3_max_concurrence(float(lam), a, b))
                assert concurrence_oracle(rho).value == pytest.approx(
                    expected, abs=1e-10
                )

    def test_threshold_is_the_root_of_the_closed_form(self):
        for t in (0.3, 0.7, math.pi / 4.0):
            a, b = math.sin(t), math.cos(t)
            thr = rank3_threshold(a, b)
            assert rank3_max_concurrence(thr, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters_bracket(self):
        """For the balanced span the entanglement threshold sits strictly
        between projector weights 0.74 and 0.76."""
        assert concurrence_oracle(assemble_rank3_max(0.74, _R, _R)).value > 0.0
        assert concurrence_oracle(assemble_rank3_max(0.76, _R, _R)).value == pytest.approx(
            0.0, abs=1e-12
        )
        assert rank3_threshold(_R, _R) == pytest.approx(0.75)

    def test_oracle_positive_strictly_below_threshold(self):
        a, b = math.sin(0.5), math.cos(0.5)
        thr = rank3_threshold(a, b)
        assert concurrence_oracle(assemble_rank3_max(thr - 0.02, a, b)).value > 0.0
        assert concurrence_oracle(assemble_rank3_max(thr + 0.02, a, b)).value == 0.0


class TestRank4MaxFamily:
    def test_oracle_is_linear_in_the_weights(self):
        """Along the maximal family the oracle equals max(0, (6 - 9 l1 - 8 l2)/6);
        the quoted closed form shares its root but carries half the slope, a
        relationship the validation harness reports."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            l1 = rng.uniform(0.0, 1.0)
            l2 = rng.uniform(0.0, 1.0 - l1)
            oracle = concurrence_oracle(assemble_rank4_max(l1, l2)).value
            linear = max(0.0, (6.0 - 9.0 * l1 - 8.0 * l2) / 6.0)
            assert oracle == pytest.approx(linear, abs=1e-10)
            expr = rank4_max_concurrence(l1, l2)
            assert oracle == pytest.approx(2.0 * max(0.0, expr), abs=1e-10)

    def test_closed_form_roots_on_the_boundary(self):
        assert rank4_max_concurrence(0.0, 0.75) == pytest.approx(0.0, abs=1e-12)
        assert rank4_max_concurrence(2.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            rank4_max_concurrence(0.8, 0.3)
        with pytest.raises(ValueError):
            assemble_rank4_max(-0.1, 0.5)


class TestRegion:
    def test_classification_rules(self):
        assert classify_weights(0.0, 0.0) == REGION_ENTANGLED
        assert classify_weights(0.9, 0.9) == REGION_INFEASIBLE
        assert classify_weights(0.8, 0.1) == REGION_SEPARABLE
        # exactly on the line counts as separable (concurrence zero there)
        assert classify_weights(6.0 / 9.0, 0.0) == REGION_SEPARABLE

    def test_grid_shape_and_order(self):
        rows = rank4_region(3)
        assert len(rows) == 9
        assert rows[0][:2] == (0.0, 0.0)
        assert rows[-1][:2] == (1.0, 1.0)

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            rank4_region(1)

    def test_classes_match_oracle_on_feasible_cells(self):
        for l1, l2, cls in rank4_region(21):
            if cls == REGION_INFEASIBLE:
                assert l1 + l2 > 1.0 + 1e-12
                continue
            c = concurrence_oracle(assemble_rank4_max(l1, l2)).value
            if cls == REGION_ENTANGLED:
                assert c > 0.0
            else:
                assert c == pytest.approx(0.0, abs=1e-12)

    def test_boundary_cells_straddle_the_line(self):
        grid_n = 41
        h = 1.0 / (grid_n - 1)
        rows = rank4_region(grid_n)
        classes = {(round(l1, 9), round(l2, 9)): k for l1, l2, k in rows}
        saw_boundary = False
        for l1, l2, k in rows:
            if k == REGION_INFEASIBLE:
                continue
            for d1, d2 in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
                nb = classes.get((round(l1 + d1, 9), round(l2 + d2, 9)))
                if nb in (None, REGION_INFEASIBLE) or nb == k:
                    continue
                saw_boundary = True
                # one step across the line moves 9 l1 + 8 l2 by at most 9 h
                assert abs(9.0 * l1 + 8.0 * l2 - 6.0) <= 9.0 * h + 1e-12
        assert saw_boundary
