import math
import random

import numpy as np
import pytest

from pcfdr.combine import SIMES, combine_pvalues
from pcfdr.partial_conjunction import pc_pvalue
from pcfdr.pc_testing import GroupLayout, compute_pc_pvalues, realized_weighted_fdp
from pcfdr.procedures import ThresholdCollection, WeightScheme, step_up


class TestGroupLayout:
    def test_validation(self):
        for labels, u, match in [
            ([0, 2, 1], [1, 1], r"labels must lie in \[0, 2\)"),  # out of range
            ([0, -1, 1], [1, 1], r"labels must lie in \[0, 2\)"),  # negative
            ([0.0, 1.0], [1, 1], "labels must be a 1-d integer array"),  # not truncated
            ([[0, 1]], [1, 1], "labels must be a 1-d integer array"),  # 2-d
            ([0, 0, 2], [1, 1, 1], r"u\[1\]=1 outside \[1, 0\]"),  # group 1 is empty
            ([0, 0], [3], r"u\[0\]=3 outside \[1, 2\]"),
            ([0, 0], [0], r"u\[0\]=0 outside \[1, 2\]"),
            ([0, 0], [1.0], "u must be a 1-d integer array"),
        ]:
            with pytest.raises(ValueError, match=match):
                GroupLayout(labels, u)

    def test_from_proportion(self):
        layout = GroupLayout.from_proportion([1, 0, 1, 0, 1, 1, 0, 1], 0.5)
        assert layout.u.tolist() == [2, 3]
        with pytest.raises(ValueError):
            GroupLayout.from_proportion([0, 0, 2], 0.5)  # group 1 is empty
        with pytest.raises(ValueError):
            GroupLayout.from_proportion([0.0, 1.0], 0.5)
        for proportion in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"^proportion must lie in \(0, 1\]$"):
                GroupLayout.from_proportion([0, 0, 1], proportion)

    def test_sizes(self):
        # Group sizes are counted from interleaved labels: 2 and 1.
        assert GroupLayout([0, 1, 0], [2, 1]).u.tolist() == [2, 1]
        with pytest.raises(ValueError, match=r"u\[1\]=2 outside \[1, 1\]"):
            GroupLayout([0, 1, 0], [1, 2])

    def test_sizes_are_counted_once(self, monkeypatch):
        # The layout keeps the sizes of its one count, read-only, and
        # compute_pc_pvalues reads them instead of counting again.
        layout = GroupLayout([1, 0, 1, 1, 2], [1, 2, 1])
        assert layout.sizes.tolist() == [1, 3, 1]
        assert layout.sizes.dtype == np.intp and not layout.sizes.flags.writeable

        def no_count(*args, **kwargs):
            raise AssertionError("np.bincount called")

        monkeypatch.setattr(np, "bincount", no_count)
        assert compute_pc_pvalues([0.1, 0.2, 0.3, 0.4, 0.5], layout, SIMES) == [0.2, 0.4, 0.5]

    def test_arrays_are_read_only_copies(self):
        labels = np.array([0, 1, 0])
        layout = GroupLayout(labels, [1, 1])
        labels[0] = 1
        assert layout.labels.tolist() == [0, 1, 0]
        for arr in (layout.labels, layout.u):
            assert arr.dtype == np.intp and not arr.flags.writeable

    def test_read_only_labels_are_handed_over(self):
        # A read-only intp vector that owns its data is kept as it is, by
        # the layout and by from_proportion; a writeable one, a view or
        # another dtype is copied.
        labels = np.array([0, 1, 0], dtype=np.intp)
        labels.setflags(write=False)
        assert GroupLayout(labels, [1, 1]).labels is labels
        assert GroupLayout.from_proportion(labels, 0.5).labels is labels
        writeable = np.array([0, 1, 0], dtype=np.intp)
        view = labels[:]
        wide = np.array([0, 1, 0], dtype=np.int32)
        wide.setflags(write=False)
        for other in (writeable, view, wide):
            kept = GroupLayout(other, [1, 1]).labels
            assert kept is not other and not np.shares_memory(kept, other)
            assert kept.tolist() == [0, 1, 0]


class TestWeightScheme:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            WeightScheme((2.0, 2.0), (1.0, 1.0))
        ws = WeightScheme((1.5, 0.5), (1.0, 1.0))
        assert ws.prior_w.tolist() == [1.5, 0.5]

    @pytest.mark.parametrize("w, v", [((math.nan, 1.0), (1.0, 1.0)),
                                      ((0.0, 2.0), (math.inf, 1.0))])
    def test_non_finite_total_is_not_normalized(self, w, v):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="= nan, expected G = 2"):
            WeightScheme(w, v)

    def test_unit(self):
        ws = WeightScheme.unit(3)
        assert ws.prior_w.tolist() == [1.0, 1.0, 1.0]
        assert ws.penalty_v is ws.prior_w and not ws.prior_w.flags.writeable

    def test_weights_are_read_only_copies(self):
        w = np.array([1.5, 0.5])
        ws = WeightScheme(w, [1.0, 1.0])
        w[0] = 9.0
        assert ws.prior_w.tolist() == [1.5, 0.5]
        for arr in (ws.prior_w, ws.penalty_v):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        # equality and hashing do not compare the arrays
        assert ws == ws and ws != WeightScheme.unit(2)
        assert len({ws, WeightScheme.unit(2)}) == 2


class TestComputePcPvalues:
    def test_matches_per_group_pc(self):
        p = [0.01, 0.2, 0.05, 0.6, 0.9]
        layout = GroupLayout([0, 0, 0, 1, 1], [2, 1])
        pc = compute_pc_pvalues(p, layout, SIMES)
        assert pc[0] == pc_pvalue([0.01, 0.2, 0.05], 2, SIMES)
        assert pc[1] == combine_pvalues([0.6, 0.9], SIMES)

    def test_singleton_groups_pass_through(self):
        p = [0.3, 0.7, 0.04]
        layout = GroupLayout([0, 1, 2], [1, 1, 1])
        assert compute_pc_pvalues(p, layout, SIMES) == pytest.approx(p)

    def test_length_check(self):
        layout = GroupLayout([0, 0], [1])
        with pytest.raises(ValueError):
            compute_pc_pvalues([0.5], layout, SIMES)


class TestTestPcFamily:
    def test_single_group_rejects_iff_below_alpha(self):
        layout = GroupLayout([0, 0, 0], [2])
        tc = ThresholdCollection(alpha=0.05, m=1)
        low = step_up(compute_pc_pvalues([0.001, 0.2, 0.9], layout, SIMES), tc)
        # two largest are (0.2, 0.9): Simes PC p-value 0.4 exceeds alpha
        assert low.indices == frozenset()
        hit = step_up(compute_pc_pvalues([0.001, 0.002, 0.003], layout, SIMES), tc)
        assert hit.indices == frozenset({0})

    def test_bh_on_four_groups(self):
        # groups engineered so the Simes PC p-values are the target values
        p = [0.002, 0.01, 0.2, 0.9]
        layout = GroupLayout([0, 1, 2, 3], [1, 1, 1, 1])
        tc = ThresholdCollection(alpha=0.05, m=4)
        r = step_up(compute_pc_pvalues(p, layout, SIMES), tc)
        assert r.indices == frozenset({0, 1})

    def test_wrong_family_size(self):
        layout = GroupLayout([0, 0], [1])
        with pytest.raises(ValueError):
            step_up(compute_pc_pvalues([0.1, 0.2], layout, SIMES),
                    ThresholdCollection(alpha=0.05, m=3))


class TestRealizedWeightedFdp:
    def test_empty_rejection(self):
        assert realized_weighted_fdp(frozenset(), {0, 1}, (1.0, 1.0)) == 0.0

    def test_all_null(self):
        assert realized_weighted_fdp({0, 1}, {0, 1, 2}, (1.0, 1.0, 1.0)) == 1.0

    def test_weighted_example(self):
        assert realized_weighted_fdp({0, 1}, {1}, (1.0, 3.0)) == pytest.approx(0.75)

    def test_unit_weights_reduce_to_counts(self):
        rng = random.Random(4)
        for _ in range(100):
            g = rng.randint(1, 10)
            rej = {i for i in range(g) if rng.random() < 0.5}
            nulls = {i for i in range(g) if rng.random() < 0.5}
            fdp = realized_weighted_fdp(rej, nulls, (1.0,) * g)
            assert fdp == len(rej & nulls) / max(len(rej), 1)

    def test_index_check(self):
        with pytest.raises(IndexError):
            realized_weighted_fdp({5}, set(), (1.0,))
