"""The two-step replicability procedure and the weighted step-up at laws
where their error bounds hold with equality, checked two-sided.

Least-favourable law: feature i has k_i studies at mean shift MU = 40,
whose one-sided p-values ndtr(-40 - z) are all but 0, and n - k_i studies
at iid U(0, 1). For Simes, Fisher and Stouffer, P^{u/n} of a feature is then
tiny for u <= k_i, and P^{(k_i+1)/n} is exactly U(0, 1), independent
across features. Take Step 1 as the step-up on the global-null p-values
at alpha = q with the identity shape, and weights with sum(w * v) = m:

- every feature with k_i >= 1 is selected, whatever the other features
  do, so its bound errs, khat > k_i, with probability w_i * q * beta(|S|_v)
  / m given |S|_v;
- a feature with k_i = 0 is selected exactly when P^{1/n} meets Step 2's
  first threshold, so it errs whenever it is selected, and the weighted
  step-up of Step 1 makes those the share q * sum_{k=0} w * v / m.

So the replicability error is exactly q, and q / H_m with the
reciprocal-sum shape in Step 2 when every k_i >= 1 (then |S| = m). The
weighted step-up with alternatives at p = 0 and iid U(0, 1) nulls has FDR
exactly alpha * sum_{H0} w * v / m (Blanchard & Roquain 2008). A check
that only bounds the error from above would pass a procedure that
under-reports k_hat; these gate |z| <= Z on both sides. Hommel, Bonferroni
and Simes-Storey are conservative per feature and are gated from above.
"""

import numpy as np
import pytest

from pcfdr.combine import BONFERRONI, FISHER, HOMMEL, SIMES, STOUFFER, simes_storey
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ThresholdCollection,
    WeightScheme,
    _step_up_rows,
    _volume_share,
)
from pcfdr.replicability import SelectionRule
from pcfdr.simulation import SimulationScenario, mc_replicability_error

M, N, Q, REPS, MU, Z = 200, 5, 0.1, 4000, 40.0, 4.0
METHODS = {"simes": SIMES, "fisher": FISHER, "stouffer": STOUFFER}
# Conservative per feature: P^{(k_i+1)/n} is stochastically larger than
# U(0, 1), so the error is at most q and is checked one-sided.
CONSERVATIVE = {"hommel": HOMMEL, "bonferroni": BONFERRONI,
                "simes-storey": simes_storey(0.5)}
STEP_UP = SelectionRule("step_up_on_combined", alpha=Q)
# k = 1, 2, 3, 4 in turn: every feature is selected and |S| = m.
IN_TURN = tuple(1 + i % 4 for i in range(M))
# The same at m = 10, where a Step 2 threshold at beta(|S| + 1) errs at
# 1.1 q: at m = 200 that is 1.005 q, within the Monte Carlo error.
IN_TURN_10 = IN_TURN[:10]
# 140 features with no effect, which Step 1 must select at its own rate.
MIXED = (0,) * 140 + (2,) * 60
LAWS = pytest.mark.parametrize("true_k", [IN_TURN, IN_TURN_10, MIXED],
                               ids=["k-1-to-4", "k-1-to-4-m-10", "140-k0-60-k2"])


def z_score(est, expected):
    return (est.mean - expected) / est.se


def error(true_k, method, ws=None, beta=IDENTITY):
    """The replicability error of the two-step procedure at the law above."""
    m = len(true_k)
    s = SimulationScenario(m=m, n=N, true_k=true_k, mu=MU, reps=REPS, seed=1)
    return mc_replicability_error(s, STEP_UP, method, ws or WeightScheme.unit(m), Q, beta)


@pytest.mark.parametrize("name", METHODS)
@LAWS
def test_replicability_error_is_q(name, true_k):
    assert abs(z_score(error(true_k, METHODS[name]), Q)) <= Z


@pytest.mark.parametrize("name", CONSERVATIVE)
@LAWS
def test_conservative_replicability_error_is_at_most_q(name, true_k):
    # A Bonferroni without its factor k errs far above q. A Hommel taken
    # as plain Simes, without its factor H_k, passes: Simes is exact at
    # this law, so its error is q itself (z about -0.6), and only a
    # two-sided check could tell the two apart.
    assert z_score(error(true_k, CONSERVATIVE[name]), Q) <= Z


def test_reciprocal_sum_error_is_q_over_h_m():
    h_m = float(np.sum(1.0 / np.arange(1, M + 1)))
    assert abs(z_score(error(IN_TURN, SIMES, beta=RECIPROCAL_SUM), Q / h_m)) <= Z


def test_weighted_replicability_error_is_q():
    # v = 2 on the first half and 1 on the second, w = 0.5 and 1: sum(w * v)
    # = m, while sum(v) = 1.5 m, so a Step 2 threshold without w errs at
    # 1.5 q.
    v = np.repeat([2.0, 1.0], M // 2)
    ws = WeightScheme(1.0 / v, v)
    assert abs(z_score(error(IN_TURN, FISHER, ws), Q)) <= Z


def test_weighted_step_up_fdr_is_alpha_times_null_weight():
    # Complex keys: v varies. 15 alternatives at p = 0, 35 U(0, 1) nulls.
    m, m1, alpha, rows = 50, 15, 0.1, 40_000
    rng = np.random.default_rng(1)
    v = rng.uniform(0.5, 2.0, m)
    w = rng.uniform(0.2, 3.0, m)
    w *= m / np.sum(w * v)
    tc = ThresholdCollection(alpha=alpha, m=m, weights=WeightScheme(w, v))
    p = np.zeros((rows, m))
    p[:, m1:] = rng.random((rows, m - m1))
    nulls = np.arange(m) >= m1
    rejected = _step_up_rows(p, tc)
    fdp = _volume_share(rejected & nulls, rejected, v)
    expected = alpha * np.sum((w * v)[nulls]) / m
    z = (fdp.mean() - expected) / (fdp.std(ddof=1) / np.sqrt(rows))
    assert abs(z) <= Z
