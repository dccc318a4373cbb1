"""The per-feature validity of the partial conjunction p-value, checked
two-sided at the least-favourable PC null.

Law: a row has u - 1 studies at p = 0 and n - u + 1 at iid U(0, 1). The
PC p-value P^{u/n} combines the n - u + 1 largest entries, which are the
uniforms, so its CDF at t is exactly t for Simes, Fisher and Stouffer, and
1 - (1 - t/k)^k with k = n - u + 1 for Bonferroni (k times the smallest of
k uniforms). A combiner that takes one entry too many or too few moves the
CDF far outside the gate, in either direction.
"""

import numpy as np
import pytest

from pcfdr.combine import BONFERRONI, FISHER, SIMES, STOUFFER
from pcfdr.partial_conjunction import pc_pvalues

ROWS, N, Z = 200_000, 5, 4.0
T = np.array([1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5])
METHODS = {"simes": SIMES, "fisher": FISHER, "stouffer": STOUFFER, "bonferroni": BONFERRONI}


@pytest.fixture(scope="module", params=[1, 2, 4], ids=lambda u: f"u{u}")
def least_favourable(request):
    """u and ROWS rows of the law above, seeded by u."""
    u = request.param
    p = np.zeros((ROWS, N))
    p[:, u - 1:] = np.random.default_rng(u).random((ROWS, N - u + 1))
    return u, p


def expected_cdf(name, u):
    if name == "bonferroni":
        k = N - u + 1
        return 1.0 - (1.0 - T / k) ** k
    return T


@pytest.mark.parametrize("name", METHODS)
def test_pc_pvalue_cdf_at_the_least_favourable_null(least_favourable, name):
    u, p = least_favourable
    pc = pc_pvalues(p, u, METHODS[name])
    f = expected_cdf(name, u)
    observed = (pc[:, None] <= T).mean(axis=0)
    z = (observed - f) / np.sqrt(f * (1.0 - f) / ROWS)
    assert np.abs(z).max() <= Z, dict(zip(T.tolist(), np.round(z, 1).tolist()))
