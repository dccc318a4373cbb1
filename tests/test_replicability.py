import random

import numpy as np
import pytest

from pcfdr.combine import (
    BONFERRONI,
    SIMES,
    STOUFFER,
    DegenerateInputError,
    _sort_rows_in_place,
    combine_pvalues,
)
from pcfdr.partial_conjunction import _pc_pvalues_sorted, pc_path, pc_path_sorted, pc_pvalues
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ThresholdCollection,
    WeightScheme,
    step_up,
)
from pcfdr.replicability import (
    SelectionRule,
    _report,
    _select_rows,
    khat_bounds,
    replicability_analysis,
    select_features,
)


def random_matrix(rng, m, n, signal_frac=0.4):
    mat = rng.random((m, n))
    for i in range(m):
        if rng.random() < signal_frac:
            k = rng.integers(1, n + 1)
            mat[i, :k] = rng.random(k) * 1e-4
    return mat


class TestValidateMatrix:
    """The matrix checks that Steps 1 and 2 share: each entry point
    validates the matrix once, while sorting its rows."""

    RULE = SelectionRule("step_up_on_combined", alpha=0.05)

    def steps(self, mat):
        ws = WeightScheme.unit(1)
        return [lambda: select_features(mat, self.RULE, SIMES, ws),
                lambda: khat_bounds(mat, {0}, SIMES, ws, q=0.1),
                lambda: replicability_analysis(mat, self.RULE, SIMES, ws, q=0.1)]

    def test_rejects_bad_entries(self):
        for mat in ([[0.5, 1.2]], [[0.5, float("nan")]], [0.5, 0.2], [[]]):
            for step in self.steps(mat):
                with pytest.raises(ValueError):
                    step()

    def test_accepts_lists(self):
        select, khat, both = (step() for step in self.steps([[0.5, 0.2]]))
        assert select == frozenset()
        assert khat.khat == {0: 0}
        assert both.selected == frozenset()

    @pytest.mark.parametrize("g", [1, 4, 6])
    def test_weight_scheme_of_another_size_raises_in_every_step(self, g):
        mat = np.full((5, 2), 0.5)
        rule = SelectionRule("fixed_threshold_on_combined", threshold=0.1)
        for step in (lambda ws: select_features(mat, rule, SIMES, ws),
                     lambda ws: khat_bounds(mat, [0], SIMES, ws, q=0.1),
                     lambda ws: replicability_analysis(mat, rule, SIMES, ws, q=0.1)):
            with pytest.raises(ValueError, match="sized for a different feature count"):
                step(WeightScheme.unit(g))


class TestSelectFeatures:
    def test_nothing_selected_when_all_large(self):
        mat = [[0.9, 0.8], [0.7, 0.95]]
        rule = SelectionRule("step_up_on_combined", alpha=0.05)
        assert select_features(mat, rule, SIMES, WeightScheme.unit(2)) == frozenset()

    def test_single_feature(self):
        rule = SelectionRule("step_up_on_combined", alpha=0.05)
        assert select_features([[0.001]], rule, SIMES, WeightScheme.unit(1)) == {0}

    def test_bh_on_simes_rows(self):
        # rows built so the Simes global-null p-values are (0.002, 0.01, 0.2, 0.9)
        mat = [[0.002, 0.9], [0.01, 0.9], [0.2, 0.9], [0.9, 0.95]]
        ws = WeightScheme.unit(4)
        combined = [combine_pvalues(row, SIMES) for row in mat]
        expected = step_up(combined, ThresholdCollection(alpha=0.05, m=4)).indices
        rule = SelectionRule("step_up_on_combined", alpha=0.05)
        assert select_features(mat, rule, SIMES, ws) == expected == frozenset({0, 1})

    def test_fixed_threshold(self):
        mat = [[0.002, 0.9], [0.2, 0.9]]
        rule = SelectionRule("fixed_threshold_on_combined", threshold=0.01)
        assert select_features(mat, rule, SIMES, WeightScheme.unit(2)) == {0}

    def test_column_rule(self):
        mat = [[0.001, 0.9], [0.9, 0.001]]
        rule = SelectionRule("step_up_on_column", alpha=0.05, column=1)
        assert select_features(mat, rule, SIMES, WeightScheme.unit(2)) == {1}

    def test_column_outside_the_matrix(self):
        rule = SelectionRule("step_up_on_column", alpha=0.05, column=2)
        with pytest.raises(ValueError, match=r"^column 2 outside \[0, 2\)$"):
            select_features([[0.001, 0.9], [0.9, 0.001]], rule, SIMES, WeightScheme.unit(2))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SelectionRule("step_up_on_combined")  # missing alpha
        with pytest.raises(ValueError):
            SelectionRule("step_up_on_column", alpha=0.05)  # missing column
        with pytest.raises(ValueError):
            SelectionRule("fixed_threshold_on_combined")  # missing threshold
        with pytest.raises(ValueError):
            SelectionRule("lasso", alpha=0.1)


class TestKhatBounds:
    def test_running_max_rule(self):
        # thresholds fixed by m=1, |S|_v=1, q: t = q; PC p-values
        # (0.001, 0.01, 0.2) with t=0.05 give khat=2
        mat = [[0.001, 0.005, 0.2]]
        # Bonferroni PC p-values: u=1: 3*0.001=0.003; u=2: 2*0.005=0.01; u=3: 0.2
        report = khat_bounds(mat, {0}, BONFERRONI, WeightScheme.unit(1), q=0.05)
        assert report.khat[0] == 2
        assert report.threshold_used[0] == pytest.approx(0.05)

    def test_khat_zero_when_threshold_tiny(self):
        mat = [[0.3, 0.4, 0.5]]
        report = khat_bounds(mat, {0}, SIMES, WeightScheme.unit(1), q=0.01)
        assert report.khat[0] == 0

    def test_matched_selection_gives_nontrivial_bound(self):
        rng = np.random.default_rng(2)
        ws_cache = {}
        for _ in range(200):
            m, n = int(rng.integers(1, 12)), int(rng.integers(2, 5))
            mat = random_matrix(rng, m, n)
            ws = ws_cache.setdefault(m, WeightScheme.unit(m))
            rule = SelectionRule("step_up_on_combined", alpha=0.1)
            sel = select_features(mat, rule, SIMES, ws)
            report = khat_bounds(mat, sel, SIMES, ws, q=0.1)
            assert all(report.khat[i] >= 1 for i in sel)

    @pytest.mark.parametrize("rule", [
        SelectionRule("step_up_on_combined", alpha=0.1),
        SelectionRule("step_up_on_combined", alpha=0.1, shape=RECIPROCAL_SUM),
        SelectionRule("fixed_threshold_on_combined", threshold=0.01),
        SelectionRule("step_up_on_column", alpha=0.2, column=1),
    ], ids=["step-up", "step-up-by", "threshold", "column"])
    def test_analysis_sorts_once_for_both_steps_with_equal_results(self, rule):
        rng = np.random.default_rng(4)
        for method in (SIMES, BONFERRONI):
            for _ in range(40):
                m, n = int(rng.integers(1, 12)), int(rng.integers(2, 5))
                mat = random_matrix(rng, m, n)
                ws = WeightScheme.unit(m)
                report = replicability_analysis(mat, rule, method, ws, 0.1, RECIPROCAL_SUM)
                sel = select_features(mat, rule, method, ws)
                assert report == khat_bounds(mat, sel, method, ws, 0.1, RECIPROCAL_SUM)

    def test_stouffer_degenerate_selected_row_is_named(self):
        # Row 0 holds a 0 and a 1 too, but only the selected rows are combined.
        mat = [[0.0, 1.0], [0.2, 0.3], [1.0, 0.0]]
        with pytest.raises(DegenerateInputError) as err:
            khat_bounds(mat, {1, 2}, STOUFFER, WeightScheme.unit(3), 0.1)
        assert err.value.row == 2
        assert str(err.value) == "Stouffer combiner with both p=0 and p=1"

    def test_q_validation(self):
        with pytest.raises(ValueError):
            khat_bounds([[0.5]], set(), SIMES, WeightScheme.unit(1), q=0.0)

    def test_selection_volume_is_step_up_volume(self):
        # The set {3, 9, 10} iterates as [9, 10, 3]; 0.2 + 0.3 + 0.1 and
        # 0.1 + 0.2 + 0.3 differ in the last bit, and the step-up adds in
        # index order.
        v = [1.0] * 12
        v[3], v[9], v[10] = 0.1, 0.2, 0.3
        ws = WeightScheme(tuple(1.0 / x for x in v), tuple(v))
        mat = [[1e-6] * 3 if i in (3, 9, 10) else [0.9] * 3 for i in range(12)]
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        sel = select_features(mat, rule, SIMES, ws)
        assert sel == {3, 9, 10} and list(sel) != sorted(sel)
        combined = [combine_pvalues(row, SIMES) for row in mat]
        tc = ThresholdCollection(alpha=0.1, m=12, weights=ws)
        report = khat_bounds(mat, sel, SIMES, ws, q=0.1)
        assert report.selection_volume == step_up(combined, tc).fixed_point_volume


def test_public_entry_points_leave_the_callers_matrix_as_it_is():
    # The CLI sorts the rows of the matrix it read in place; the public
    # functions sort a private copy and must give the same results.
    rng = np.random.default_rng(6)
    mat = random_matrix(rng, 40, 4)
    saved = mat.copy()
    in_place = np.sort(saved, axis=1)
    # The column rule must read column 2 as given, not as sorted.
    assert not np.array_equal(saved[:, 2], in_place[:, 2])
    ws = WeightScheme.unit(40)
    rules = [SelectionRule("step_up_on_combined", alpha=0.1),
             SelectionRule("fixed_threshold_on_combined", threshold=0.01),
             SelectionRule("step_up_on_column", alpha=0.2, column=2)]
    for rule in rules:
        report = replicability_analysis(mat, rule, SIMES, ws, 0.1)
        assert np.array_equal(mat, saved)
        own = saved.copy()
        s = own[None]
        assert report == _report(s, _select_rows(s, rule, SIMES, ws), SIMES, ws, 0.1, IDENTITY)
        assert np.array_equal(own, in_place)
        assert report.selected
        assert select_features(mat, rule, SIMES, ws) == report.selected
        assert np.array_equal(mat, saved)
        assert khat_bounds(mat, report.selected, SIMES, ws, 0.1) == report
        assert np.array_equal(mat, saved)
    for u in range(1, 5):
        assert np.array_equal(pc_pvalues(mat, u, SIMES),
                              _pc_pvalues_sorted(_sort_rows_in_place(saved.copy()), u, SIMES))
        assert np.array_equal(mat, saved)
    assert np.array_equal(pc_path(mat, SIMES), pc_path_sorted(in_place, SIMES))
    assert np.array_equal(mat, saved)


class TestSelectionRuleProperties:
    def test_monotone_selection_witness(self):
        # lowering all entries never shrinks the selection volume
        rng = np.random.default_rng(3)
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        for _ in range(100):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 4))
            ws = WeightScheme.unit(m)
            mat = random_matrix(rng, m, n)
            lower = mat * rng.random((m, n))
            s_high = select_features(mat, rule, SIMES, ws)
            s_low = select_features(lower, rule, SIMES, ws)
            assert len(s_low) >= len(s_high)

    def test_stability_witness(self):
        # zeroing a selected row leaves the selection unchanged
        rng = np.random.default_rng(4)
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        for _ in range(100):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 4))
            ws = WeightScheme.unit(m)
            mat = random_matrix(rng, m, n)
            sel = select_features(mat, rule, SIMES, ws)
            for i in sel:
                zeroed = mat.copy()
                zeroed[i] = 0.0
                assert select_features(zeroed, rule, SIMES, ws) == sel


def test_reciprocal_sum_shape_shrinks_thresholds():
    mat = [[0.001, 0.005, 0.2], [0.5, 0.6, 0.7]]
    ws = WeightScheme.unit(2)
    ident = khat_bounds(mat, {0}, SIMES, ws, q=0.1)
    conservative = khat_bounds(mat, {0}, SIMES, ws, q=0.1, beta=RECIPROCAL_SUM)
    assert conservative.threshold_used[0] < ident.threshold_used[0]
    assert conservative.khat[0] <= ident.khat[0]
