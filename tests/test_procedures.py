import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfdr.combine import SIMES, combine_pvalues, storey_pi0
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    RejectionSet,
    ShapeFunction,
    ThresholdCollection,
    WeightNormalizationError,
    WeightScheme,
    _step_up_rows,
    _volumes,
    adjusted_pvalues,
    step_up,
    weighted_volume,
)

import oracles
from oracles import check_self_consistency, check_stability
from test_differential import step_up_cases


def brute_force_bh(p, alpha):
    # textbook step-up rule: reject the k smallest with
    # k = max{k: p_(k) <= k * alpha / m}
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    best = 0
    for k in range(1, m + 1):
        if p[order[k - 1]] <= k * alpha / m:
            best = k
    return frozenset(order[:best])


class TestShapeFunction:
    def test_identity(self):
        assert IDENTITY(3.0, 10) == 3.0

    def test_reciprocal_sum(self):
        h3 = 1 + 0.5 + 1 / 3
        assert RECIPROCAL_SUM(2.0, 3) == pytest.approx(2.0 / h3)

    def test_discrete_nu(self):
        beta = ShapeFunction("discrete_nu", nu=((1.0, 0.5), (3.0, 0.5)))
        assert beta(0.5, 5) == 0.0
        assert beta(2.0, 5) == pytest.approx(0.5)
        assert beta(3.0, 5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeFunction("discrete_nu")
        with pytest.raises(ValueError):
            ShapeFunction("discrete_nu", nu=((1.0, 0.7),))
        with pytest.raises(ValueError):
            ShapeFunction("identity", nu=((1.0, 1.0),))
        with pytest.raises(ValueError):
            ShapeFunction("parabola")


class TestWeightedVolume:
    def test_cardinality_under_unit_weights(self):
        assert weighted_volume({0, 2}, (1.0, 1.0, 1.0)) == 2.0

    def test_empty(self):
        assert weighted_volume(frozenset(), (1.0, 2.0)) == 0.0

    def test_weighted(self):
        assert weighted_volume({0, 1}, (0.5, 1.5)) == pytest.approx(2.0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            weighted_volume({3}, (1.0, 1.0))


class TestStepUp:
    def test_rejects_all_four(self):
        tc = ThresholdCollection(alpha=0.05, m=4)
        r = step_up([0.005, 0.01, 0.03, 0.04], tc)
        assert r.indices == frozenset({0, 1, 2, 3})
        assert r.fixed_point_volume == 4.0

    def test_all_above_alpha(self):
        tc = ThresholdCollection(alpha=0.05, m=3)
        r = step_up([0.4, 0.6, 0.9], tc)
        assert r.indices == frozenset()
        assert r.fixed_point_volume == 0.0

    def test_prior_weights(self):
        tc = ThresholdCollection(alpha=0.1, m=2, weights=WeightScheme((1.5, 0.5), (1.0, 1.0)))
        r = step_up([0.05, 0.9], tc)
        assert r.indices == frozenset({0})

    def test_matches_brute_force_bh(self):
        rng = random.Random(123)
        for _ in range(1000):
            m = rng.randint(1, 50)
            alpha = rng.choice([0.01, 0.05, 0.1, 0.25])
            p = [rng.random() ** rng.choice([1, 2, 3]) for _ in range(m)]
            tc = ThresholdCollection(alpha=alpha, m=m)
            assert step_up(p, tc).indices == brute_force_bh(p, alpha)

    def test_by_shape_equals_bh_at_scaled_level(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(1, 20)
            p = [rng.random() ** 2 for _ in range(m)]
            h = sum(1.0 / j for j in range(1, m + 1))
            by = step_up(p, ThresholdCollection(alpha=0.05, m=m, shape=RECIPROCAL_SUM))
            bh = step_up(p, ThresholdCollection(alpha=0.05 / h, m=m))
            assert by.indices == bh.indices

    def test_fixed_point_iteration_bounded(self):
        # The fixed-point map r -> |L(r)|_v, iterated from sum(v), reaches
        # the step-up's set in at most m + 1 passes; the closed form gives
        # that set in one.
        rng = random.Random(77)
        for _ in range(500):
            m = rng.randint(1, 30)
            p = [rng.random() for _ in range(m)]
            tc = ThresholdCollection(alpha=0.2, m=m)
            indices, volume, passes = oracles.step_up(p, tc)
            assert passes <= m + 1
            r = step_up(p, tc)
            assert (r.indices, r.fixed_point_volume, r.iterations) == (indices, volume, 1)

    def test_weight_normalization_enforced(self):
        with pytest.raises(WeightNormalizationError):
            WeightScheme((3.0, 3.0), (1.0, 1.0))

    def test_zero_weight_zero_pvalue_edge(self):
        # Delta(i, r) = 0 for w_i = 0; weak inequality rejects p_i = 0.
        tc = ThresholdCollection(alpha=0.05, m=2, weights=WeightScheme((0.0, 2.0), (1.0, 1.0)))
        assert 0 in step_up([0.0, 0.01], tc).indices
        assert 0 not in step_up([1e-9, 0.01], tc).indices

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            step_up([0.1], ThresholdCollection(alpha=0.05, m=2))

    def test_weight_scheme_of_another_size_raises(self):
        with pytest.raises(ValueError, match="sized for a different feature count"):
            ThresholdCollection(alpha=0.05, m=3, weights=WeightScheme.unit(2))


class TestAdaptive:
    def test_equivalent_to_bh_at_inflated_level(self):
        rng = random.Random(9)
        for _ in range(300):
            m = rng.randint(1, 20)
            p = [rng.random() for _ in range(m)]
            pi0 = storey_pi0(p, 0.5)
            adaptive = step_up(p, ThresholdCollection(alpha=0.05, m=m, adaptive_lambda=0.5))
            plain = step_up(p, ThresholdCollection(alpha=min(1.0, 0.05 / pi0), m=m))
            assert adaptive.indices == plain.indices

    def test_all_above_lambda_rejects_nothing(self):
        tc = ThresholdCollection(alpha=0.05, m=3, adaptive_lambda=0.5)
        assert step_up([0.6, 0.7, 0.8], tc).indices == frozenset()

    def test_requires_unit_prior_weights(self):
        with pytest.raises(ValueError):
            ThresholdCollection(alpha=0.05, m=2, weights=WeightScheme((1.5, 0.5), (1.0, 1.0)),
                                adaptive_lambda=0.5)

    @pytest.mark.parametrize("shape", [RECIPROCAL_SUM,
                                       ShapeFunction("discrete_nu", ((1.0, 1.0),))])
    def test_requires_identity_shape(self, shape):
        with pytest.raises(ValueError, match="require the identity shape"):
            ThresholdCollection(alpha=0.05, m=2, shape=shape, adaptive_lambda=0.5)


class TestAdjustedPvalues:
    def test_single_hypothesis(self):
        assert adjusted_pvalues([0.3], ThresholdCollection(alpha=0.05, m=1)) == [0.3]

    def test_bh_closed_form(self):
        adj = adjusted_pvalues([0.01, 0.04], ThresholdCollection(alpha=0.05, m=2))
        assert adj == pytest.approx([0.02, 0.04])

    def test_min_adjusted_is_simes(self):
        rng = random.Random(31)
        for _ in range(200):
            m = rng.randint(1, 15)
            p = [rng.random() for _ in range(m)]
            adj = adjusted_pvalues(p, ThresholdCollection(alpha=0.05, m=m))
            assert min(adj) == combine_pvalues(p, SIMES)

    def test_bisection_matches_rejection_sets(self):
        rng = random.Random(101)
        for _ in range(20):
            m = rng.randint(2, 6)
            p = [rng.random() for _ in range(m)]
            w = [rng.choice([0.5, 1.0, 1.5]) for _ in range(m)]
            v = [rng.choice([0.5, 1.0, 2.0]) for _ in range(m)]
            scale = m / sum(wi * vi for wi, vi in zip(w, v))
            w = [wi * scale for wi in w]
            ws = WeightScheme(w, v)
            tc = ThresholdCollection(alpha=1.0, m=m, weights=ws)
            adj = adjusted_pvalues(p, tc)
            for alpha in (0.03, 0.1, 0.33, 0.8):
                if any(abs(a - alpha) < 1e-7 for a in adj):
                    continue  # too close to a boundary to compare
                tc_a = ThresholdCollection(alpha=alpha, m=m, weights=ws)
                expected = step_up(p, tc_a).indices
                assert frozenset(i for i, a in enumerate(adj) if a <= alpha) == expected


class TestStructuralChecks:
    def test_empty_candidate_self_consistent(self):
        tc = ThresholdCollection(alpha=0.05, m=2)
        ok = check_self_consistency([0.5, 0.6], tc, RejectionSet(frozenset(), 0.0))
        assert ok

    def test_large_pvalue_candidate_fails(self):
        tc = ThresholdCollection(alpha=0.05, m=2)
        bad = RejectionSet(frozenset({1}), 1.0)
        assert not check_self_consistency([0.01, 0.97], tc, bad)

    def test_step_up_output_self_consistent_and_stable(self):
        rng = random.Random(55)
        for _ in range(300):
            m = rng.randint(1, 15)
            p = [rng.random() for _ in range(m)]
            tc = ThresholdCollection(alpha=0.1, m=m)
            r = step_up(p, tc)
            assert check_self_consistency(p, tc, r)
            assert check_stability(p, tc)

    def test_stability_single_hypothesis(self):
        assert check_stability([0.01], ThresholdCollection(alpha=0.05, m=1))


MODES = {"unit": ThresholdCollection(alpha=0.05, m=2),
         "weighted": ThresholdCollection(alpha=0.05, m=2,
                                         weights=WeightScheme((0.5, 1.5), (1.0, 1.0))),
         "reciprocal_sum": ThresholdCollection(alpha=0.05, m=2, shape=RECIPROCAL_SUM),
         "adaptive": ThresholdCollection(alpha=0.05, m=2, adaptive_lambda=0.5)}


class TestInputChecks:
    def test_weights_that_are_no_scheme_raise_type_error(self):
        # The old positional form passed prior weights where the scheme goes.
        with pytest.raises(TypeError, match="weights must be a WeightScheme, not tuple"):
            ThresholdCollection(0.05, 2, (1.5, 0.5))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: ShapeFunction("discrete_nu", nu=((0.0, 0.5), (1.0, 0.5))), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: ShapeFunction("discrete_nu", nu=((1.0, -0.5), (2.0, 1.5))), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: ShapeFunction("discrete_nu", nu=((1.0, float("nan")),)), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: ShapeFunction("discrete_nu", nu=((float("nan"), 1.0),)), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: ShapeFunction("discrete_nu", nu=((float("inf"), 1.0),)), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: ShapeFunction("discrete_nu", nu=((1.0, float("inf")),)), ValueError,
         "nu must live on positive support with nonnegative masses"),
        (lambda: WeightScheme((1.0, 1.0), (2.0,)), WeightNormalizationError,
         "weight vectors must have equal length"),
        (lambda: WeightScheme((-1.0, 3.0), (1.0, 1.0)), WeightNormalizationError,
         "prior weights must be nonnegative"),
        (lambda: ThresholdCollection(alpha=0.0, m=2), ValueError, "alpha=0.0 outside (0, 1]"),
        (lambda: ThresholdCollection(alpha=1.5, m=2), ValueError, "alpha=1.5 outside (0, 1]"),
        (lambda: ThresholdCollection(alpha=0.05, m=0), ValueError, "m must be positive"),
    ], ids=["nu-support-zero", "nu-mass-negative", "nu-mass-nan", "nu-support-nan",
          "nu-support-inf", "nu-mass-inf", "weights-lengths", "prior-weight-negative",
          "alpha-zero", "alpha-above-one", "m-zero"])
    def test_constructor_checks(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("call", [step_up, adjusted_pvalues])
    def test_zero_penalty_weight_raises_as_weight_scheme_does(self, call):
        # The collection holds the scheme, so the rule is checked before
        # ``call`` can run.
        with pytest.raises(WeightNormalizationError, match="penalty weights must be positive"):
            call([0.01, 0.2], ThresholdCollection(alpha=0.05, m=2,
                                                  weights=WeightScheme([1.0, 1.0], [0.0, 2.0])))

    @pytest.mark.parametrize("call", [step_up, adjusted_pvalues])
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_pvalue_outside_unit_interval_raises_in_every_mode(self, call, mode, bad):
        with pytest.raises(ValueError, match=rf"p-value {bad} outside \[0, 1\]"):
            call([bad, 0.01], MODES[mode])

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_row_is_checked(self, mode):
        with pytest.raises(ValueError, match=r"p-value 1.5 outside \[0, 1\]"):
            _step_up_rows(np.array([[0.01, 0.2], [0.01, 1.5]]), MODES[mode])


def test_volumes_add_in_index_order():
    # Left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001; sum() gives
    # 0.6 from Python 3.12 on, as it compensates.
    v = [0.1, 0.2, 0.3]
    tc = ThresholdCollection(alpha=0.05, m=3, weights=WeightScheme([1.0 / x for x in v], v))
    expected = 0.6000000000000001
    assert weighted_volume({0, 1, 2}, v) == expected
    assert oracles.step_up([0.0] * 3, tc)[1] == expected
    assert step_up([0.0] * 3, tc).fixed_point_volume == expected


def test_staircase_takes_one_sort():
    # p_(k) = alpha (k + 1/2) / m sits just above the BH level of its
    # place, so iterating the fixed-point map drops one hypothesis per
    # pass: m passes, about 1.6 s at this m on 2 cores.
    m, alpha = 20_000, 0.05
    stair = alpha * (np.arange(1, m + 1) + 0.5) / m
    tc = ThresholdCollection(alpha=alpha, m=m)
    rng = np.random.default_rng(3)
    stack = np.array([rng.permutation(stair) for _ in range(20)])

    def timed(call, *args):
        start = time.perf_counter()
        out = call(*args)
        assert time.perf_counter() - start < 0.2
        return out

    assert timed(step_up, stair, tc) == RejectionSet(frozenset(), 0.0, 1)
    assert min(timed(adjusted_pvalues, stair, tc)) > alpha
    rejected = timed(_step_up_rows, stack, tc)
    volumes = _volumes(rejected, tc.weights.penalty_v)
    assert not rejected.any() and (volumes == 0.0).all()


def complex_keys(P, tc):
    """The keys q of the (R, m) array P, and per row the keys ascending
    with the running sums of v in that order, from complex keys q + i*v:
    ties in q go by v."""
    w, v = tc.weights.prior_w, tc.weights.penalty_v
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(P == 0.0, 0.0, np.maximum(P / w, np.nextafter(0.0, 1.0)))
    z = np.sort(q + 1j * v, axis=1)
    return q, z.real, np.cumsum(z.imag, axis=1)


def complex_key_rows(P, tc):
    """The step-up's rejection masks from the complex keys."""
    q, qs, V = complex_keys(P, tc)
    level = tc.alpha * tc.shape(V, tc.m) / tc._scales(P)[:, None]
    last = np.max(qs, axis=1, where=qs <= level, initial=-1.0)
    return q <= last[:, None]


def complex_key_adjusted(p, tc):
    """The closed-form adjusted p-values from the complex keys."""
    P = np.asarray(p, dtype=float)[None]
    (q,), (qs,), (V,) = complex_keys(P, tc)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(qs == 0.0, 0.0, tc._scales(P)[0] * qs / tc.shape(V, tc.m))
    adj = np.minimum(1.0, np.minimum.accumulate(ratio[::-1])[::-1])
    return adj[np.searchsorted(qs, q, side="right") - 1].tolist()


# Few distinct values, 0 and 1 among them: rows are full of ties.
GRID = [0.0, 0.001, 0.004, 0.01, 0.02, 0.05, 0.2, 0.5, 1.0]


@st.composite
def constant_v_stacks(draw):
    """A case of ``step_up_cases`` whose v is constant, with its p-values
    as the first row of a (R, m) stack, R in {1, 3}, the rest on GRID."""
    p, tc = draw(step_up_cases(kinds=("unit", "constant", "adaptive")))
    r = draw(st.sampled_from([1, 3]))
    rows = st.lists(st.sampled_from(GRID), min_size=tc.m, max_size=tc.m)
    return np.array([p] + draw(st.lists(rows, min_size=r - 1, max_size=r - 1))), tc


@given(case=constant_v_stacks())
@settings(max_examples=300, deadline=None)
def test_float_keys_match_complex_keys_where_v_is_constant(case):
    P, tc = case
    assert tc.weights.constant_v
    assert np.array_equal(_step_up_rows(P, tc), complex_key_rows(P, tc))
    for row in P.tolist():
        assert adjusted_pvalues(row, tc) == complex_key_adjusted(row, tc)


def test_ties_go_by_v_where_one_v_differs():
    # Left to right 2.4 + 0.3 + 0.3 is 2.9999999999999996, and in
    # ascending v it is 3.0: the adjusted p-value of three tied keys,
    # 3 * q / V_3, shows which order the sums took.
    weighted = ThresholdCollection(alpha=0.05, m=3,
                                   weights=WeightScheme([1.0] * 3, [2.4, 0.3, 0.3]))
    assert not weighted.weights.constant_v
    p = [0.01] * 3
    assert 3 * 0.01 / (2.4 + 0.3 + 0.3) == 0.010000000000000002
    assert adjusted_pvalues(p, weighted) == [3 * 0.01 / (0.3 + 0.3 + 2.4)] * 3 == [0.01] * 3
    assert adjusted_pvalues(p, weighted) == complex_key_adjusted(p, weighted)
    P = np.array([p, [0.01, 0.02, 0.01]])
    assert np.array_equal(_step_up_rows(P, weighted), complex_key_rows(P, weighted))
