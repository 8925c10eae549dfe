import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import one_state

from qconc.bounds import (
    REGION_ENTANGLED,
    REGION_INFEASIBLE,
    REGION_SEPARABLE,
    Rank3Mixture,
    Rank4Mixture,
    _sep_matrix,
    assemble_rank3_max,
    assemble_rank4_max,
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


#: every entry point that takes the rank-4 weights (lambda1, lambda2)
_RANK4_WEIGHT_ENTRIES = {
    "Rank4Mixture": lambda l1, l2: Rank4Mixture(
        lambda1=l1, lambda2=l2, mu=0.5, a=_R, b=_R, theta=0.3, phi=0.1
    ),
    "rank4_max_concurrence": rank4_max_concurrence,
    "rank4_max_matrix": rank4_max_matrix,
}


class TestMixtures:
    def test_rank3_mixture_is_valid_state(self):
        for seed in range(6):
            m = one_state(Rank3Mixture.random, np.random.default_rng(seed))
            rho = m.assemble()
            assert rank_of(rho) <= 3 or m.lam == 0.0

    def test_sep_matrix_is_separable(self):
        m = one_state(Rank3Mixture.random, np.random.default_rng(2))
        sep = _sep_matrix(m)
        sep = sep / np.trace(sep).real
        assert concurrence_oracle(sep).value <= 1e-12

    def test_rank3_dominance(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            m = one_state(Rank3Mixture.random, rng)
            gap = rank3_bound(m) - concurrence_oracle(m.assemble()).value
            assert gap >= -1e-9

    def test_rank4_dominance(self):
        rng = np.random.default_rng(78)
        for _ in range(300):
            m = one_state(Rank4Mixture.random, rng)
            gap = rank4_bound(m) - concurrence_oracle(m.assemble()).value
            assert gap >= -1e-9

    @pytest.mark.parametrize("cls", [Rank3Mixture, Rank4Mixture])
    @pytest.mark.parametrize(
        "field", ["a", "theta", "phi", "sep_angle1", "sep_phase1", "sep_angle2", "sep_phase2"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, cls, field, bad):
        m = one_state(cls.random, np.random.default_rng(5))
        with pytest.raises(ValueError, match="a\\^2|finite") as single:
            replace(m, **{field: bad})
        block = cls.random(np.random.default_rng(5), 3)
        column = getattr(block, field).copy()
        column[1] = bad
        with pytest.raises(ValueError) as stacked:
            replace(block, **{field: column})
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("cls", [Rank3Mixture, Rank4Mixture])
    def test_float_weights_broadcast_over_a_payload_block(self, cls):
        """Weights and a/b given as floats, other payload fields as (n,)
        arrays: the matrix is the (n, 4, 4) stack of the single mixtures."""
        m = one_state(cls.random, np.random.default_rng(5))
        block = replace(m, mu=np.array([m.mu, 0.1]), theta=np.array([m.theta, 0.2]))
        rows = [m, replace(m, mu=0.1, theta=0.2)]
        np.testing.assert_array_equal(block.matrix(), [r.matrix() for r in rows])

    def test_rank4_weight_simplex_enforced(self):
        with pytest.raises(ValueError):
            Rank4Mixture(
                lambda1=0.7, lambda2=0.5, mu=0.5, a=_R, b=_R, theta=0.3, phi=0.1
            )

    @pytest.mark.parametrize("entry", sorted(_RANK4_WEIGHT_ENTRIES))
    @pytest.mark.parametrize("slot", [0, 1], ids=["lambda1", "lambda2"])
    def test_rank4_entry_points_share_one_weight_rule(self, entry, slot):
        """A weight 1e-13 below zero passes and one 1e-11 below fails, alike
        for the mixture and the maximal rank-4 forms."""
        make = _RANK4_WEIGHT_ENTRIES[entry]
        make(*[(-1e-13, 0.5), (0.5, -1e-13)][slot])
        with pytest.raises(ValueError, match="lambda1 and lambda2 must be nonnegative"):
            make(*[(-1e-11, 0.5), (0.5, -1e-11)][slot])

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


def _cells(grid_n):
    """rank4_region's cells as (lambda1, lambda2, class) rows of Python values."""
    return list(zip(*(a.tolist() for a in rank4_region(grid_n))))


class TestRegion:
    def test_classification_rules(self):
        # the ticks of a 4 x 4 grid are 0, 1/3, 2/3 and 1
        classes = {(l1, l2): k for l1, l2, k in _cells(4)}
        assert classes[0.0, 0.0] == REGION_ENTANGLED
        assert classes[1.0, 1.0] == REGION_INFEASIBLE
        assert classes[2.0 / 3.0, 1.0 / 3.0] == REGION_SEPARABLE
        # exactly on the line counts as separable (concurrence zero there)
        assert 2.0 / 3.0 == 6.0 / 9.0
        assert classes[6.0 / 9.0, 0.0] == REGION_SEPARABLE

    def test_grid_shape_and_order(self):
        rows = _cells(3)
        assert len(rows) == 9
        assert rows[0][:2] == (0.0, 0.0)
        assert rows[-1][:2] == (1.0, 1.0)

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            rank4_region(1)

    def test_classes_match_oracle_on_feasible_cells(self):
        for l1, l2, cls in _cells(21):
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
        rows = _cells(grid_n)
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
