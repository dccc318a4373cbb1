"""The worst-case FDR of the step-up under arbitrary dependence, by linear
programming: no Monte Carlo error, and no assumed law.

With every hypothesis null, unit weights and thresholds
c_r = alpha * beta(r) / m, a step-up decision depends only on which cell
of the cut [0, c_1], (c_1, c_2], ..., (c_{m-1}, c_m], (c_m, 1] each
p-value lies in. Any law over the cells whose marginal cell masses equal
the cell widths extends to a joint law with U(0, 1) marginals (uniform
within each cell), so the supremum of the FDR over all dependence is a
finite linear program (Guo & Rao 2008; Lehmann & Romano 2005). The
objective and the constraints are symmetric in the hypotheses, so an
exchangeable law attains it: one variable per cell occupancy vector, a
multiset of m cells, C(2m, m) of them, with the constraint that a
p-value's expected share of each cell is that cell's width.

The edges come from the package's own ``ShapeFunction``, and each cell's
FDP from its own ``_step_up_rows`` at one p-vector of cell midpoints, all
rows at once. With all nulls the FDP is 1 if anything is rejected, else 0.
The supremum is alpha * H_m for the identity shape (Benjamini-Hochberg) and
alpha for the reciprocal-sum shape (Benjamini-Yekutieli), and each is
attained, so a wrong shape, a dropped 1/H_m or a mis-scaled threshold moves
the value off its bound. For a ``discrete_nu`` shape, beta(r) = sum over
x <= r of x * nu(x), it is at most alpha for every nu (Blanchard & Roquain
2008); nu(x) proportional to 1/x on 1, ..., m is the reciprocal sum again
and attains it.

With m1 of the m hypotheses alternatives fixed at p = 0, which every
step-up rejects, the variables are the occupancy vectors of the m0 = m - m1
nulls, C(m + m0, m0) of them, and the FDP of a cell is V / R. The
reciprocal-sum shape keeps the FDR at most alpha * m0 / m under any
dependence (Benjamini & Yekutieli 2001, Thm 1.3); the identity shape
exceeds that bound once m0 >= 2, so Benjamini-Hochberg is its negative
control.

With prior weights w (sum m) and unit penalty weights, null i is cut at its
own thresholds alpha * w_i * beta(r) / m, so the nulls are not exchangeable
and the program has one variable per vector of their cells, (m + 1)^m0 of
them. The reciprocal-sum shape keeps the FDR at most alpha times the null
weight sum over m (Blanchard & Roquain 2008); the identity shape exceeds
it, and so does a reciprocal-sum step-up that cuts every null at the
unweighted alpha * beta(r) / m when the null weights are small.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ShapeFunction,
    ThresholdCollection,
    WeightScheme,
    _step_up_rows,
)

ALPHA = 0.05
SIZES = range(3, 8)


def harmonic(m):
    return math.fsum(1.0 / k for k in range(1, m + 1))


def worst_case_fdr(m, shape, m1=0):
    """The supremum over joint laws with U(0, 1) marginals of the FDR of
    the unit-weight step-up at ALPHA with shape ``shape`` on m hypotheses,
    the last m1 of them alternatives at p = 0 and the others null."""
    m0 = m - m1
    edges = np.array([0.0, *(ALPHA * shape(np.arange(1, m + 1), m) / m), 1.0])
    mids, widths = (edges[:-1] + edges[1:]) / 2, np.diff(edges)
    cells = np.array(list(itertools.combinations_with_replacement(range(m + 1), m0)))
    counts = np.stack([(cells == j).sum(axis=1) for j in range(m + 1)])  # (m + 1, N)
    p = np.hstack([mids[cells], np.zeros((len(cells), m1))])
    rejected = _step_up_rows(p, ThresholdCollection(alpha=ALPHA, m=m, shape=shape))
    fdp = rejected[:, :m0].sum(axis=1) / np.maximum(rejected.sum(axis=1), 1)
    share = np.vstack([counts / m0, np.ones(len(cells))])
    result = linprog(-fdp, A_eq=share, b_eq=[*widths, 1.0], bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    assert len(cells) == math.comb(m + m0, m0)
    return -result.fun


@pytest.mark.parametrize("m", SIZES)
def test_benjamini_hochberg_attains_alpha_times_harmonic(m):
    assert abs(worst_case_fdr(m, IDENTITY) - ALPHA * harmonic(m)) <= 1e-9


@pytest.mark.parametrize("m", SIZES)
def test_benjamini_yekutieli_attains_alpha(m):
    assert abs(worst_case_fdr(m, RECIPROCAL_SUM) - ALPHA) <= 1e-9


def seeded_nu(seed, m):
    """A discrete nu of 3 points drawn from the halves 0.5, 1, ..., m + 1,
    so that some lie between integers and some beyond m, with masses drawn
    from a flat Dirichlet law."""
    rng = np.random.default_rng(seed)
    xs = rng.choice(np.arange(1, 2 * m + 3) / 2, size=3, replace=False)
    return tuple(zip(xs.tolist(), rng.dirichlet(np.ones(3)).tolist()))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", range(3, 7))
def test_discrete_nu_stays_within_alpha(m, seed):
    assert worst_case_fdr(m, ShapeFunction("discrete_nu", seeded_nu(seed, m))) <= ALPHA + 1e-9


@pytest.mark.parametrize("m", SIZES)
def test_discrete_nu_of_reciprocal_masses_attains_alpha(m):
    nu = tuple((float(x), 1.0 / (x * harmonic(m))) for x in range(1, m + 1))
    assert abs(worst_case_fdr(m, ShapeFunction("discrete_nu", nu)) - ALPHA) <= 1e-9


ALTERNATIVES = [(m, m1) for m in range(3, 7) for m1 in range(1, m)]


@pytest.mark.parametrize("m, m1", ALTERNATIVES)
def test_benjamini_yekutieli_with_alternatives_stays_within_alpha_m0_over_m(m, m1):
    assert worst_case_fdr(m, RECIPROCAL_SUM, m1) <= ALPHA * (m - m1) / m + 1e-9


@pytest.mark.parametrize("m, m1", [(m, m1) for m, m1 in ALTERNATIVES if m - m1 >= 2])
def test_benjamini_hochberg_with_alternatives_exceeds_alpha_m0_over_m(m, m1):
    assert worst_case_fdr(m, IDENTITY, m1) > ALPHA * (m - m1) / m + 1e-4


def weighted_worst_case_fdr(w, shape, m1):
    """The supremum over joint laws with U(0, 1) marginals of the FDR of
    the step-up at ALPHA with shape ``shape``, prior weights ``w`` and unit
    penalty weights on m = len(w) hypotheses, the last m1 of them
    alternatives at p = 0. Null i's p-value is cut at its own thresholds
    alpha * w_i * beta(r) / m (capped at 1), so the nulls are not
    exchangeable: one variable per vector of their cells, (m + 1)^m0 in
    all, with each null's share of each of its cells fixed at its width."""
    m, m0 = len(w), len(w) - m1
    levels = np.minimum(ALPHA * shape(np.arange(1, m + 1), m) / m * w[:m0, None], 1.0)
    edges = np.hstack([np.zeros((m0, 1)), levels, np.ones((m0, 1))])  # (m0, m + 2)
    mids, widths = (edges[:, :-1] + edges[:, 1:]) / 2, np.diff(edges)
    cells = np.array(list(itertools.product(range(m + 1), repeat=m0)))  # (N, m0)
    p = np.hstack([mids[np.arange(m0), cells], np.zeros((len(cells), m1))])
    tc = ThresholdCollection(alpha=ALPHA, m=m, weights=WeightScheme(w, np.ones(m)), shape=shape)
    rejected = _step_up_rows(p, tc)
    fdp = rejected[:, :m0].sum(axis=1) / np.maximum(rejected.sum(axis=1), 1)
    share = np.vstack([*(cells.T[:, None] == np.arange(m + 1)[:, None]).reshape(-1, len(cells)),
                       np.ones(len(cells))])
    result = linprog(-fdp, A_eq=share, b_eq=[*widths.ravel(), 1.0], bounds=(0, None),
                     method="highs")
    assert result.status == 0, result.message
    assert len(cells) == (m + 1) ** m0
    return -result.fun


def seeded_weights(seed, m):
    """Prior weights drawn from U(0.25, 2), scaled to sum to m."""
    w = np.random.default_rng(seed).uniform(0.25, 2.0, m)
    return w * (m / w.sum())


# Per case m, m1 and the prior weights; the nulls come first. In the last,
# four nulls of weight 0.1 face one alternative of weight 4.6: a step-up
# that cut every null at the unweighted alpha * beta(r) / m would reject a
# null whenever the alternative is rejected, which is always.
WEIGHTED = [pytest.param(m, m1, seeded_weights(seed, m), id=f"m{m}-m1_{m1}-seed{seed}")
            for seed in range(2) for m in range(3, 6) for m1 in range(m - 1)] + [
    pytest.param(5, 1, np.array([0.1, 0.1, 0.1, 0.1, 4.6]), id="small-null-weights")]


@pytest.mark.parametrize("m, m1, w", WEIGHTED)
def test_weighted_benjamini_yekutieli_stays_within_alpha_null_weight_over_m(m, m1, w):
    bound = ALPHA * w[:m - m1].sum() / m
    assert weighted_worst_case_fdr(w, RECIPROCAL_SUM, m1) <= bound + 1e-9


@pytest.mark.parametrize("m, m1, w", WEIGHTED)
def test_weighted_benjamini_hochberg_exceeds_alpha_null_weight_over_m(m, m1, w):
    bound = ALPHA * w[:m - m1].sum() / m
    assert weighted_worst_case_fdr(w, IDENTITY, m1) > bound + 1e-4
