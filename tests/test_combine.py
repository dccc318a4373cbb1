import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    CombiningMethod,
    DegenerateInputError,
    _harmonic,
    combine_pvalues,
    simes_storey,
    sort_rows,
    storey_pi0,
)
from pcfdr.procedures import ThresholdCollection, adjusted_pvalues

import oracles

ALL_METHODS = [FISHER, STOUFFER, SIMES, BONFERRONI, HOMMEL, simes_storey(0.5)]

pvec = st.lists(st.floats(1e-8, 1.0 - 1e-8), min_size=1, max_size=10)


class TestFisher:
    def test_single_is_identity(self):
        assert combine_pvalues([0.3], FISHER) == pytest.approx(0.3, abs=1e-12)

    def test_two_halves(self):
        # closed form for df=4: exp(-x/2) * (1 + x/2)
        assert combine_pvalues([0.5, 0.5], FISHER) == pytest.approx(0.5965735902799727, abs=1e-5)

    def test_all_ones(self):
        assert combine_pvalues([1.0, 1.0], FISHER) == 1.0

    def test_zero_dominates(self):
        assert combine_pvalues([0.0, 0.7], FISHER) == pytest.approx(0.0, abs=1e-290)

    def test_log_of_zero_is_not_floored(self):
        # log(0) = -inf makes the statistic inf and the p-value exactly 0,
        # without a warning; a p below 1e-300 keeps its own value.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert combine_pvalues([0.0, 0.5], FISHER) == 0.0
            got = combine_pvalues([1e-310, 0.5], FISHER)
        stat = -2.0 * (math.log(1e-310) + math.log(0.5))
        assert got == pytest.approx(float(chdtrc(4, stat)), rel=1e-12)
        assert got == pytest.approx(3.5775e-308, rel=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            combine_pvalues([], FISHER)
        with pytest.raises(ValueError):
            combine_pvalues([1.2], FISHER)


class TestStouffer:
    def test_halves(self):
        assert combine_pvalues([0.5, 0.5], STOUFFER) == 0.5

    def test_single_is_identity(self):
        for p in (0.01, 0.4, 0.93):
            assert combine_pvalues([p], STOUFFER) == pytest.approx(p, abs=1e-12)

    def test_two_small(self):
        # Phi^{-1}(0.9772) ~ 1.99908 each; 1 - Phi(2z/sqrt(2)) via erf oracle
        assert combine_pvalues([0.0228, 0.0228], STOUFFER) == pytest.approx(0.0023484207, abs=2e-4)

    def test_boundary_conventions(self):
        assert combine_pvalues([0.0, 0.3], STOUFFER) == 0.0
        assert combine_pvalues([1.0, 0.3], STOUFFER) == 1.0
        with pytest.raises(DegenerateInputError):
            combine_pvalues([0.0, 1.0], STOUFFER)


class TestSimes:
    def test_single(self):
        assert combine_pvalues([0.42], SIMES) == 0.42

    def test_example(self):
        assert combine_pvalues([0.01, 0.02, 0.09], SIMES) == pytest.approx(0.03, abs=1e-15)

    def test_all_equal(self):
        assert combine_pvalues([0.3, 0.3, 0.3, 0.3], SIMES) == pytest.approx(0.3, abs=1e-15)


class TestBonferroniHommel:
    def test_examples(self):
        assert combine_pvalues([0.01, 0.5], BONFERRONI) == pytest.approx(0.02, abs=1e-15)
        assert combine_pvalues([0.9, 0.8], BONFERRONI) == 1.0
        assert combine_pvalues([0.37], BONFERRONI) == 0.37
        assert combine_pvalues([0.2], HOMMEL) == 0.2
        assert combine_pvalues([0.01, 0.02, 0.09], HOMMEL) == pytest.approx(0.055, abs=1e-12)
        assert combine_pvalues([0.9, 0.9], HOMMEL) == 1.0


class TestStorey:
    def test_pi0_examples(self):
        assert storey_pi0([0.1, 0.2, 0.6, 0.9], 0.5) == pytest.approx(1.5)
        assert storey_pi0([0.1, 0.2, 0.3, 0.4], 0.5) == pytest.approx(0.5)
        assert storey_pi0([0.6, 0.7], 0.5) == pytest.approx(3.0)

    def test_pi0_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                storey_pi0([0.5], lam)

    def test_simes_storey_all_above_lambda(self):
        assert combine_pvalues([0.6, 0.7, 0.9], simes_storey(0.5)) == 1.0

    def test_simes_storey_example(self):
        assert combine_pvalues([0.01, 0.2, 0.8, 0.9], simes_storey(0.5)) == \
            pytest.approx(0.06, abs=1e-12)

    def test_simes_storey_cap(self):
        assert combine_pvalues([0.45, 0.9, 0.9, 0.9], simes_storey(0.5)) == 1.0


def test_sort_rows_needs_a_2d_array():
    with pytest.raises(ValueError, match="^p-values must form a 2-d array$"):
        sort_rows([0.1, 0.2])


class TestCombiningMethod:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            CombiningMethod("simes_storey", 1.5)
        with pytest.raises(ValueError):
            CombiningMethod("fisher", 0.5)
        with pytest.raises(ValueError):
            CombiningMethod("median")
        assert CombiningMethod("simes_storey").lam == 0.5


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
@given(p=pvec, data=st.data())
@settings(max_examples=60, deadline=None)
def test_coordinatewise_monotone(method, p, data):
    # raise one coordinate; the combined p-value must not decrease
    idx = data.draw(st.integers(0, len(p) - 1))
    bump = data.draw(st.floats(0.0, 1.0))
    higher = list(p)
    higher[idx] = min(1.0, higher[idx] + bump * (1.0 - higher[idx]))
    assert combine_pvalues(higher, method) >= combine_pvalues(p, method)


@given(p=pvec)
@settings(max_examples=100, deadline=None)
def test_simes_below_bonferroni_and_hommel(p):
    s = combine_pvalues(p, SIMES)
    assert s <= combine_pvalues(p, BONFERRONI) <= 1.0
    assert s <= combine_pvalues(p, HOMMEL)


def test_simes_is_min_bh_adjusted():
    # Minimum adjusted p-value link, 1000 random vectors, exact equality.
    rng = random.Random(7)
    for _ in range(1000):
        m = rng.randint(1, 20)
        p = [rng.random() for _ in range(m)]
        adj = adjusted_pvalues(p, ThresholdCollection(alpha=0.5, m=m))
        assert combine_pvalues(p, SIMES) == min(adj)
        assert combine_pvalues(p, BONFERRONI) == min(min(1.0, m * x) for x in p)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
def test_superuniform_under_global_null(method):
    # Empirical CDF at each grid point stays within 3 binomial SEs of x.
    rng = np.random.default_rng(42)
    n, m = 10_000, 5
    draws = rng.random((n, m))
    combined = np.array([combine_pvalues(list(row), method) for row in draws])
    for x in np.arange(0.01, 1.0, 0.07):
        ecdf = float((combined <= x).mean())
        se = math.sqrt(x * (1 - x) / n)
        assert ecdf <= x + 3 * se, (method.kind, x, ecdf)


def test_simes_superuniform_under_equicorrelated_null():
    # One-factor equicorrelated Gaussians are PRDS; Simes stays valid.
    rng = np.random.default_rng(11)
    n, m, rho = 10_000, 5, 0.5
    z0 = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, m))
    x = math.sqrt(rho) * z0 + math.sqrt(1 - rho) * z
    from scipy.special import ndtr
    draws = ndtr(-x)
    combined = np.array([combine_pvalues(list(row), SIMES) for row in draws])
    for t in np.arange(0.01, 1.0, 0.07):
        ecdf = float((combined <= t).mean())
        se = math.sqrt(t * (1 - t) / n)
        assert ecdf <= t + 3 * se


@pytest.mark.parametrize("m", [1, 2, 3, 1000, 10**5, 10**6])
def test_harmonic_adds_left_to_right(m):
    assert _harmonic(m) == oracles.harmonic(m)
