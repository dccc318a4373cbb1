import math
import random

import numpy as np
import pytest

from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    combine_pvalues,
    simes_storey,
)
from pcfdr.partial_conjunction import pc_pvalue

import oracles
from oracles import pc_pvalue_oracle

NON_ADAPTIVE = [FISHER, STOUFFER, SIMES, BONFERRONI, HOMMEL]


class TestPcPvalue:
    @pytest.mark.parametrize("method", NON_ADAPTIVE, ids=lambda m: m.kind)
    def test_u1_reduces_to_global_combiner(self, method):
        p = [0.03, 0.2, 0.77, 0.5]
        assert pc_pvalue(p, 1, method) == combine_pvalues(p, method)

    def test_u_equals_m_bonferroni_is_max(self):
        p = [0.03, 0.2, 0.77]
        assert pc_pvalue(p, 3, BONFERRONI) == 0.77

    def test_bonferroni_example(self):
        assert pc_pvalue([0.01, 0.02, 0.5], 2, BONFERRONI) == pytest.approx(0.04)

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            pc_pvalue([0.1, 0.2], 3, SIMES)
        with pytest.raises(ValueError):
            pc_pvalue([0.1, 0.2], 0, SIMES)


class TestPcStorey:
    def test_example(self):
        assert pc_pvalue([0.01, 0.02, 0.6, 0.9], 2, simes_storey(0.5)) == pytest.approx(0.12)

    def test_u1_matches_global_simes_storey(self):
        rng = random.Random(3)
        for _ in range(200):
            p = [rng.random() for _ in range(rng.randint(1, 8))]
            assert pc_pvalue(p, 1, simes_storey(0.5)) == combine_pvalues(p, simes_storey(0.5))

    def test_above_lambda_branch(self):
        assert pc_pvalue([0.01, 0.6, 0.7], 2, simes_storey(0.5)) == 1.0

    def test_matches_combiner_on_largest_tail(self):
        # The generic path applies the global Simes-Storey combiner to the
        # m-u+1 largest p-values; it equals the dedicated formula exactly.
        rng = random.Random(17)
        for _ in range(500):
            m = rng.randint(1, 8)
            u = rng.randint(1, m)
            p = [rng.random() for _ in range(m)]
            tail = sorted(p)[u - 1:]
            got = pc_pvalue(p, u, simes_storey(0.5))
            assert got == combine_pvalues(tail, simes_storey(0.5))
            assert got == oracles.pc_storey_pvalue(p, u, 0.5)

    def test_via_pc_pvalue_dispatch(self):
        p = [0.01, 0.02, 0.6, 0.9]
        assert pc_pvalue(p, 2, simes_storey(0.4)) == oracles.pc_storey_pvalue(p, 2, 0.4)


class TestOracle:
    def test_u1_single_subset(self):
        p = [0.1, 0.5, 0.9]
        assert pc_pvalue_oracle(p, 1, SIMES) == combine_pvalues(p, SIMES)

    def test_bonferroni_pairs(self):
        assert pc_pvalue_oracle([0.01, 0.02, 0.5], 2, BONFERRONI) == pytest.approx(0.04)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="oracle limited to m <= 20, got 21"):
            pc_pvalue_oracle([0.5] * 21, 2, SIMES)

    @pytest.mark.parametrize("method", NON_ADAPTIVE, ids=lambda m: m.kind)
    def test_oracle_equivalence_random(self, method):
        rng = random.Random(99)
        for _ in range(100):
            m = rng.randint(1, 8)
            p = [rng.random() for _ in range(m)]
            for u in range(1, m + 1):
                assert pc_pvalue(p, u, method) == pytest.approx(
                    pc_pvalue_oracle(p, u, method), abs=1e-12)


def test_monotone_in_each_coordinate():
    rng = random.Random(5)
    for method in NON_ADAPTIVE + [simes_storey(0.5)]:
        for _ in range(100):
            m = rng.randint(2, 7)
            u = rng.randint(1, m)
            p = [rng.random() for _ in range(m)]
            i = rng.randrange(m)
            higher = list(p)
            higher[i] = min(1.0, p[i] + rng.random() * (1.0 - p[i]))
            assert pc_pvalue(higher, u, method) >= pc_pvalue(p, u, method)


def test_superuniform_under_pc_null():
    # m-u+1 entries uniform, the rest fixed small: the PC p-value stays
    # superuniform at grid points.
    rng = np.random.default_rng(8)
    n_reps, m, u = 5000, 5, 3
    for method in (SIMES, FISHER, BONFERRONI):
        values = np.empty(n_reps)
        for r in range(n_reps):
            p = list(rng.random(m - u + 1)) + [1e-4] * (u - 1)
            values[r] = pc_pvalue(p, u, method)
        for x in (0.05, 0.2, 0.5, 0.8):
            ecdf = float((values <= x).mean())
            se = math.sqrt(x * (1 - x) / n_reps)
            assert ecdf <= x + 3 * se, (method.kind, x, ecdf)
