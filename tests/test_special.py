"""The loader's chi-square tail against ``scipy.special.chdtrc``, bit for bit.

Fisher's method and ``numerics.chi_square_survival`` take the chi-square
survival function as ``gammaincc(df / 2, x / 2)``, the regularized upper
incomplete gamma function of the C++ module
``scipy.special._special_ufuncs`` (see ``pcfdr._special``), where they once
called ``chdtrc(df, x)``. ``chdtrc`` is defined as exactly that, and these
tests hold the rewrite to every bit, signed zeros and NaN included: on a
grid of edge values and random ones, through the row combiner against its
old expression ``chdtrc(2k, -2 * sum(log p))``, and through the scalar
wrapper at odd df too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from pcfdr._special import ufunc
from pcfdr.combine import _fisher_rows, sort_rows
from pcfdr.numerics import chi_square_survival

TINY = np.nextafter(0.0, 1.0)  # 5e-324, the least subnormal
EDGES = np.array([0.0, -0.0, TINY, 2 * TINY, 3 * TINY, 1e-320, 1e-310, 2.2250738585072e-308,
                  np.finfo(float).tiny, 1e-300, 1e-16, 0.5, 1.0, 2.0, 1e3, 1e300, 1e308,
                  np.finfo(float).max, np.inf, np.nan])


def grid(seed):
    """EDGES and 4,000 random x: exponential draws at several scales and
    log-uniform draws over the positive doubles."""
    rng = np.random.default_rng(seed)
    scales = np.repeat([0.5, 5.0, 50.0, 500.0], 500)
    return np.concatenate([EDGES, rng.exponential(scales),
                           10.0 ** rng.uniform(-323, 308, 2000)])


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("k", range(1, 61))
def test_gammaincc_at_half_is_chdtrc_at_double(k):
    x = grid(k)
    assert np.array_equal(bits(ufunc("gammaincc")(k, x / 2)), bits(chdtrc(2 * k, x)))


@given(k=st.integers(1, 60), x=st.floats(min_value=0.0))
@settings(max_examples=300, deadline=None)
def test_gammaincc_at_half_is_chdtrc_at_double_hypothesis(k, x):
    assert bits(ufunc("gammaincc")(k, x / 2)) == bits(chdtrc(2 * k, x))


def old_fisher_rows(s):
    with np.errstate(divide="ignore"):
        return chdtrc(2 * s.shape[1], -2.0 * np.log(s).sum(axis=1))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 50])
def test_fisher_rows_equal_the_chdtrc_expression(k):
    rng = np.random.default_rng(k)
    p = rng.random((2000, k)) ** rng.choice([1.0, 8.0, 64.0], size=(2000, 1))
    p[:50] = rng.choice([0.0, TINY, 1e-300, 1.0], size=(50, k))  # zeros, subnormals, ones
    s = sort_rows(p)
    assert np.array_equal(bits(_fisher_rows(s)), bits(old_fisher_rows(s)))


@given(p=st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_fisher_rows_equal_the_chdtrc_expression_hypothesis(p):
    s = sort_rows(p)
    assert np.array_equal(bits(_fisher_rows(s)), bits(old_fisher_rows(s)))


@pytest.mark.parametrize("df", [*range(1, 62, 2), 2, 200])
def test_chi_square_survival_is_chdtrc(df):
    x = grid(df)
    x = x[~np.isnan(x)]
    got = [chi_square_survival(v, df) for v in x]
    assert np.array_equal(bits(got), bits(chdtrc(df, x)))
