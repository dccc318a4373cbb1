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

Each cell's FDP is read from the package's own ``_step_up_rows`` at one
p-vector of cell midpoints, all rows at once. With all nulls the FDP is 1
if anything is rejected, else 0. The supremum is alpha * H_m for the
identity shape (Benjamini-Hochberg) and alpha for the reciprocal-sum shape
(Benjamini-Yekutieli), and each is attained, so a wrong shape, a dropped
1/H_m or a mis-scaled threshold moves the value off its bound.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from pcfdr.procedures import IDENTITY, RECIPROCAL_SUM, ThresholdCollection, _step_up_rows

ALPHA = 0.05
SIZES = range(3, 8)


def harmonic(m):
    return math.fsum(1.0 / k for k in range(1, m + 1))


def worst_case_fdr(m, shape):
    """The supremum over joint laws with U(0, 1) marginals of the FDR of
    the all-null, unit-weight step-up at ALPHA with shape ``shape``."""
    scale = 1.0 if shape is IDENTITY else harmonic(m)
    edges = np.array([0.0, *(ALPHA * r / (m * scale) for r in range(1, m + 1)), 1.0])
    mids, widths = (edges[:-1] + edges[1:]) / 2, np.diff(edges)
    cells = np.array(list(itertools.combinations_with_replacement(range(m + 1), m)))
    counts = np.stack([(cells == j).sum(axis=1) for j in range(m + 1)])  # (m + 1, N)
    rejected = _step_up_rows(mids[cells], ThresholdCollection(alpha=ALPHA, m=m, shape=shape))
    fdp = rejected.any(axis=1).astype(float)
    share = np.vstack([counts / m, np.ones(len(cells))])
    result = linprog(-fdp, A_eq=share, b_eq=[*widths, 1.0], bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    assert len(cells) == math.comb(2 * m, m)
    return -result.fun


@pytest.mark.parametrize("m", SIZES)
def test_benjamini_hochberg_attains_alpha_times_harmonic(m):
    assert abs(worst_case_fdr(m, IDENTITY) - ALPHA * harmonic(m)) <= 1e-9


@pytest.mark.parametrize("m", SIZES)
def test_benjamini_yekutieli_attains_alpha(m):
    assert abs(worst_case_fdr(m, RECIPROCAL_SUM) - ALPHA) <= 1e-9
