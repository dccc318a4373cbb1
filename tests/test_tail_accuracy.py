"""Relative accuracy of every combiner and of ``pc_pvalues`` deep in the
tail, against mpmath at 40 significant digits on the same double inputs.

Rows of k = 1..50 p-values are drawn log-uniform on [10^-a, 1], with the
depth a of each row uniform on [0, 300], so strong and weak evidence mix
in one row. Wherever the exact value is 1e-300 or more, the float result
must agree with it to a relative error of 1e-11: a formula that rounds
1 - p or 1 - Phi(z) to 1 returns 0 there and misses by a factor of one.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    combine_pvalues,
    simes_storey,
)
from pcfdr.partial_conjunction import pc_pvalues

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

LAM = 0.5
ALL_METHODS = [FISHER, STOUFFER, SIMES, BONFERRONI, HOMMEL, simes_storey(LAM)]
ROWS = 60
FLOOR = 1e-300
RTOL = 1e-11


def rows(seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(ROWS):
        k = int(rng.integers(1, 51))
        out.append(np.sort(10.0 ** -rng.uniform(0.0, rng.uniform(0.0, 300.0), k)))
    return out


def probit(p):
    """Phi^{-1}(p) for a double p in (0, 1): Newton on the normal cdf from
    a start within a few units in the last place of double precision."""
    x = mp.mpf(float(ndtri(p)))
    p = mp.mpf(p)
    for _ in range(3):
        x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
    return x


def exact(tail, method):
    """The combination of the sorted doubles ``tail`` in mpmath."""
    k = len(tail)
    ps = [mp.mpf(float(x)) for x in tail]
    simes = min(1, min(k * x / j for j, x in enumerate(ps, 1)))
    if method.kind == "fisher":  # chi-square survival with 2k degrees of freedom
        return mpmath.gammainc(k, -sum(mpmath.log(x) for x in ps), mpmath.inf, regularized=True)
    if method.kind == "stouffer":
        return mpmath.ncdf(sum(probit(float(x)) for x in tail) / mpmath.sqrt(k))
    if method.kind == "simes":
        return simes
    if method.kind == "bonferroni":
        return min(1, k * ps[0])
    if method.kind == "hommel":
        return min(1, mpmath.harmonic(k) * simes)
    below = [(j, x) for j, x in enumerate(ps, 1) if x <= LAM]  # Simes-Storey
    if not below:
        return mp.mpf(1)
    pi0 = (sum(1 for x in ps if x > LAM) + 1) / ((1 - mp.mpf(LAM)) * k)
    return min(1, min(k * pi0 * x / j for j, x in below))


def misses(got, want):
    """Relative error of ``got`` where ``want`` is at least FLOOR, else 0."""
    return 0.0 if want < FLOOR else float(abs(mp.mpf(got) - want) / want)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
@mpmath.workdps(40)
def test_combiners_and_pc_pvalues_are_tail_accurate(method):
    worst = (0.0, None)
    rng = np.random.default_rng(7)
    for row in rows(11):
        k = len(row)
        cases = [(1, combine_pvalues(row, method))]
        for u in sorted({1, int(rng.integers(1, k + 1)), k}):
            cases.append((u, float(pc_pvalues([row], u, method)[0])))
        for u, got in cases:
            err = misses(got, exact(row[u - 1:], method))
            if err > worst[0]:
                worst = (err, (row.tolist(), u, got))
    assert worst[0] <= RTOL, worst


def test_strong_finite_stouffer_evidence_is_not_zero():
    # 1 - 1e-17 rounds to 1, whose probit is inf.
    assert combine_pvalues([1e-17, 0.9], STOUFFER) == pytest.approx(1.6998384e-7, rel=1e-7, abs=0)
