"""The exact FDR of the step-up under independence, against closed forms
and against the package's own step-up.

Take m1 alternatives at p = 0, rejected at every level, and m0 = m - m1
iid U(0, 1) nulls. With unit weights V_k = k, so the thresholds are
c_k = alpha * beta(k) / m. The nulls rejected number
j* = max{j: U_(j) <= d_j}, with boundaries d_j = c_{m1+j}, and the FDR is
sum_j P(j* = j) * j / (m1 + j).

P(j* = j) = C(m0, j) * d_j^j * G_j: exactly j nulls lie at or below d_j,
and the other a = m0 - j lie above it with #{U > d_i} >= m0 - i + 1 for
every i > j. G_j comes from one backward pass over the boundaries (in the
manner of Finner & Roters 2002 and Roquain & Villers 2011):

    S_i(a) = sum_{a'} C(a, a') * (d_{i+1} - d_i)^(a - a') * Q_{i+1}(a'),
    G_i = S_i(m0 - i),  Q_i(a) = S_i(a) if a >= m0 - i + 1 else 0,

from Q_m0(a) = (1 - d_m0)^a for a >= 1, with d_0 = 0. Every term is a
probability, so nothing cancels; the binomial kernels are formed in log
space, where C(m0, a) cannot overflow. The pass is O(m0^3).

The adaptive collection scales its levels by m * pi0_hat, which depends
on W = #{p > lambda}. Alternatives at 0 never exceed lambda, so W counts
nulls and is Binomial(m0, 1 - lambda). Given W = w the thresholds are
fixed, and where none exceeds lambda the w nulls above lambda are never
rejected, while the m0 - w below it are iid U(0, lambda]: the same pass,
on the boundaries divided by lambda.
"""

import functools

import numpy as np
import pytest
from scipy.special import gammaln

from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ShapeFunction,
    ThresholdCollection,
    _step_up_rows,
)

ALPHA = 0.05
# Storey's lambda. W is about 0.2 * m0 here, so the +1 of pi0_hat moves
# the FDR by several standard errors.
LAM = 0.8
NU = ShapeFunction("discrete_nu", ((1.0, 0.2), (5.0, 0.3), (20.0, 0.5)))
SHAPES = {"identity": IDENTITY, "reciprocal_sum": RECIPROCAL_SUM, "discrete_nu": NU}
SIZES = [(50, 0), (50, 15), (200, 0), (200, 60)]  # (m, m1): m1 = 0 and 0.3 m


def thresholds(shape, m):
    """c_1, ..., c_m of the unit-weight step-up at ALPHA."""
    return ALPHA * shape(np.arange(1.0, m + 1), m) / m


def null_law(d, gaps=None):
    """P(j* = j) for j = 0, ..., m0, where j* = max{j: U_(j) <= d_j} for
    m0 = len(d) iid U(0, 1) and the nondecreasing boundaries d in [0, 1].
    ``gaps`` are the widths d_{i+1} - d_i, i = 0, ..., m0 - 1 (d_0 = 0),
    where they are known exactly; equal widths share one kernel."""
    m0 = len(d)
    d = np.concatenate([[0.0], d])
    gaps = np.diff(d) if gaps is None else gaps
    a = np.arange(m0 + 1)
    lg = gammaln(a + 1.0)
    e = a[:, None] - a[None, :]  # a - a'
    log_binom = np.where(e >= 0, lg[:, None] - lg[None, :] - lg[np.abs(e)], -np.inf)
    kernels = {}
    q = np.where(a >= 1, (1.0 - d[m0]) ** a, 0.0)
    g = np.ones(m0 + 1)
    for i in range(m0 - 1, -1, -1):
        if (t := gaps[i]) > 0.0:
            if t not in kernels:
                kernels[t] = np.exp(log_binom + np.maximum(e, 0) * np.log(t))
            s = kernels[t] @ q
        else:  # no room between the boundaries: the kernel is the identity
            s = q
        g[i] = s[m0 - i]
        q = np.where(a >= m0 - i + 1, s, 0.0)
    with np.errstate(divide="ignore"):  # a boundary at 0 has d^j = 0 for j > 0
        log_power = np.concatenate([[0.0], a[1:] * np.log(d[1:])])
    return np.exp(log_binom[m0] + log_power) * g


@functools.cache
def adaptive_laws(m, m1):
    """The adaptive collection at LAM on the same p-values: per w, P(W = w)
    and P(j* = j | W = w) for j = 0, ..., m0 - w, and the mass of W left
    out: the w of mass under 1e-17, and those where c_m exceeds LAM."""
    m0 = m - m1
    w = np.arange(m0 + 1)
    pmf = np.exp(gammaln(m0 + 1.0) - gammaln(w + 1.0) - gammaln(m0 - w + 1.0)
                 + w * np.log1p(-LAM) + (m0 - w) * np.log(LAM))
    laws = {}
    for above in w[pmf > 1e-17]:
        h = ALPHA / (m * ((above + 1) / ((1.0 - LAM) * m)))  # c_k = h * k
        if h * m <= LAM:
            gaps = np.full(m0 - above, h / LAM)
            gaps[:1] = h * (m1 + 1) / LAM
            d = h * np.arange(m1 + 1, m - above + 1) / LAM
            laws[above] = pmf[above], null_law(d, gaps)
    return laws, 1.0 - sum(p for p, _ in laws.values())


def exact_adaptive_fdr(m, m1):
    """FDR of the adaptive step-up at LAM on m1 zeros and m - m1 iid
    U(0, 1) nulls, up to the mass that ``adaptive_laws`` leaves out."""
    fdr = 0.0
    for p, law_w in adaptive_laws(m, m1)[0].values():
        j = np.arange(len(law_w))
        fdr += p * float(law_w @ (j / np.maximum(m1 + j, 1)))
    return fdr


@functools.cache
def law(name, m, m1):
    """P(j* = j), j = 0, ..., m - m1, for the step-up of shape ``name``."""
    return null_law(thresholds(SHAPES[name], m)[m1:])


def exact_fdr(name, m, m1):
    """FDR of the step-up of shape ``name`` on m p-values whose first m1
    are 0 and the rest iid U(0, 1): sum_j P(j* = j) * j / (m1 + j)."""
    j = np.arange(m - m1 + 1)
    return float(law(name, m, m1) @ (j / np.maximum(m1 + j, 1)))


def exact_fdr_by(name, m, m1):
    """The same FDR by the second formula of Benjamini & Yekutieli (2001,
    proof of Thm 5.1): m0 * sum_k (c_k / k) * P(R' = k - 1), where R'
    counts the rejections among the other m - 1 p-values with thresholds
    c_2, ..., c_m; R' = m1 + j' for the same pass over m0 - 1 nulls."""
    c, j = thresholds(SHAPES[name], m), np.arange(m - m1)
    return float(len(j) * null_law(c[m1 + 1:]) @ (c[m1 + j] / (m1 + j + 1)))


@pytest.mark.parametrize("m, m1", SIZES)
@pytest.mark.parametrize("name", SHAPES)
def test_law_is_a_distribution(name, m, m1):
    assert (law(name, m, m1) >= 0.0).all()
    assert law(name, m, m1).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m, m1", SIZES)
def test_closed_forms(m, m1):
    # Benjamini & Yekutieli (2001, Thm 5.1): the identity shape gives
    # alpha * m0 / m, and the reciprocal sum that at alpha / H_m.
    m0, h = m - m1, float(np.sum(1.0 / np.arange(1, m + 1)))
    assert abs(exact_fdr("identity", m, m1) - ALPHA * m0 / m) <= 1e-12
    assert abs(exact_fdr("reciprocal_sum", m, m1) - ALPHA * m0 / (m * h)) <= 1e-12


@pytest.mark.parametrize("m, m1", SIZES)
def test_discrete_nu_by_two_formulas(m, m1):
    assert abs(exact_fdr("discrete_nu", m, m1) - exact_fdr_by("discrete_nu", m, m1)) <= 1e-12


# Replicates per (m, m1): about 10^6 p-values each.
REPS = {50: 20_000, 200: 5_000}


@pytest.mark.parametrize("m, m1", SIZES)
@pytest.mark.parametrize("name", SHAPES)
def test_step_up_matches_the_exact_fdr(name, m, m1):
    # The package's step-up on seeded uniform stacks whose first m1
    # entries are 0, within 4 standard errors of the exact value.
    shape = SHAPES[name]
    rng = np.random.default_rng([m, m1, list(SHAPES).index(name)])
    p = rng.random((REPS[m], m))
    p[:, :m1] = 0.0
    rejected = _step_up_rows(p, ThresholdCollection(alpha=ALPHA, m=m, shape=shape))
    fdp = rejected[:, m1:].sum(axis=1) / np.maximum(rejected.sum(axis=1), 1)
    se = fdp.std(ddof=1) / np.sqrt(len(fdp))
    z = (fdp.mean() - exact_fdr(name, m, m1)) / se
    assert abs(z) <= 4.0


@pytest.mark.parametrize("m, m1", SIZES)
def test_adaptive_law_meets_its_closed_form(m, m1):
    # Storey, Taylor & Siegmund (2004, Thm 3) bound the FDR of the
    # adaptive step-up by alpha * (1 - LAM^m0) where no threshold exceeds
    # LAM. Alternatives at 0 never exceed LAM, so W counts nulls only, and
    # the bound holds with equality.
    laws, left_out = adaptive_laws(m, m1)
    for _, law_w in laws.values():
        assert (law_w >= 0.0).all()
        assert law_w.sum() == pytest.approx(1.0, abs=1e-12)
    assert left_out <= 1e-12
    assert abs(exact_adaptive_fdr(m, m1) - ALPHA * (1.0 - LAM ** (m - m1))) <= 2e-12


@pytest.mark.parametrize("m, m1", SIZES)
def test_adaptive_step_up_matches_the_exact_fdr(m, m1):
    rng = np.random.default_rng([m, m1, len(SHAPES)])
    p = rng.random((REPS[m], m))
    p[:, :m1] = 0.0
    rejected = _step_up_rows(p, ThresholdCollection(alpha=ALPHA, m=m, adaptive_lambda=LAM))
    fdp = rejected[:, m1:].sum(axis=1) / np.maximum(rejected.sum(axis=1), 1)
    se = fdp.std(ddof=1) / np.sqrt(len(fdp))
    z = (fdp.mean() - exact_adaptive_fdr(m, m1)) / se
    assert abs(z) <= 4.0
