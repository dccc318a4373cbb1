"""Differential tests: the array code against the scalar oracles.

Partial conjunction p-values and paths are compared with the subset oracle
and with the scalar combiners of ``oracles``; the array step-up with the
fixed-point iteration of ``oracles``; the closed-form adjusted p-values with
the bisection of ``oracles`` and with the step-up's rejection sets; a
``replicate`` run with the reciprocal-sum shape end to end with both.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfdr.cli import run
from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    DegenerateInputError,
    simes_storey,
)
from pcfdr.partial_conjunction import pc_path, pc_pvalue_oracle, pc_pvalues
from pcfdr.pc_testing import WeightScheme
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ShapeFunction,
    ThresholdCollection,
    adjusted_pvalues,
    step_up,
)

import oracles

LAM = 0.25
ALL_METHODS = [FISHER, STOUFFER, SIMES, BONFERRONI, HOMMEL, simes_storey(LAM)]
# Same operations in the same order as the oracle: exact. Fisher and
# Stouffer sum in another order: criterion 1's tolerance.
EXACT = {"simes", "bonferroni", "hommel", "simes_storey"}

# Entries mix exact 0 and 1, p = lambda and a few repeated values (ties)
# with arbitrary p-values.
entry = st.one_of(st.sampled_from([0.0, 1.0, LAM, 0.01, 0.5]),
                  st.floats(0.0, 1.0))


@st.composite
def matrices(draw, method):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        if method.kind == "stouffer" and 0.0 in row and 1.0 in row:
            row = [0.5 if x == 1.0 else x for x in row]
        rows.append(row)
    return np.array(rows)


def close(kind, a, b):
    return a == b if kind in EXACT else abs(a - b) <= 1e-12


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_pc_pvalues_and_path_match_oracles(method, data):
    mat = data.draw(matrices(method))
    n = mat.shape[1]
    path = pc_path(mat, method)
    assert path.shape == mat.shape
    for u in range(1, n + 1):
        pc = pc_pvalues(mat, u, method)
        assert np.array_equal(pc, path[:, u - 1])
        for row, got in zip(mat.tolist(), pc.tolist()):
            assert close(method.kind, got, pc_pvalue_oracle(row, u, method))
            assert close(method.kind, got, oracles.pc_pvalue(row, u, method))


def test_stouffer_degenerate_row_is_named():
    mat = [[0.2, 0.3], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(DegenerateInputError) as err:
        pc_pvalues(mat, 1, STOUFFER)
    assert err.value.row == 2


NU = ShapeFunction("discrete_nu", nu=((1.0, 0.25), (4.0, 0.5), (9.0, 0.25)))


@st.composite
def step_up_cases(draw):
    m = draw(st.integers(1, 25))
    p = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.001, 0.01, 1.0]),
                                st.floats(0.0, 1.0)), min_size=m, max_size=m))
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    kind = draw(st.sampled_from(["unit", "weighted", "adaptive"]))
    if kind == "adaptive":
        lam = draw(st.sampled_from([0.25, 0.5]))
        return p, ThresholdCollection(alpha=alpha, m=m, adaptive_lambda=lam), None
    shape = draw(st.sampled_from([IDENTITY, RECIPROCAL_SUM, NU]))
    if kind == "unit":
        return p, ThresholdCollection(alpha=alpha, m=m, shape=shape), None
    v = draw(st.lists(st.floats(0.1, 3.0), min_size=m, max_size=m))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
                        min_size=m, max_size=m))
    if not any(raw):
        raw[0] = 1.0
    scale = m / sum(r * x for r, x in zip(raw, v))
    w = tuple(r * scale for r in raw)
    return p, ThresholdCollection(alpha=alpha, m=m, prior_w=w, shape=shape), v


@given(case=step_up_cases())
@settings(max_examples=400, deadline=None)
def test_step_up_matches_fixed_point_oracle(case):
    p, tc, v = case
    got = step_up(p, tc, v)
    indices, volume, iterations = oracles.step_up(p, tc, v)
    assert got.indices == indices
    assert got.fixed_point_volume == volume
    assert got.iterations == iterations


def test_step_up_discrete_nu_shape_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        p = (rng.random(m) ** 3).tolist()
        tc = ThresholdCollection(alpha=0.3, m=m, shape=NU)
        got = step_up(p, tc)
        assert (got.indices, got.fixed_point_volume, got.iterations) == \
            oracles.step_up(p, tc)


@given(case=step_up_cases())
@settings(max_examples=200, deadline=None)
def test_adjusted_pvalues_match_bisection_and_step_up(case):
    p, tc, v = case
    adj = adjusted_pvalues(p, tc, v)
    assert max(abs(a - b) for a, b in zip(adj, oracles.adjusted_pvalues(p, tc, v))) <= 1e-10
    for alpha in (0.01, 0.05, 0.2, 0.5, 1.0):
        if any(abs(a - alpha) <= 1e-9 for a in adj):
            continue  # a boundary: rounding decides either way
        tc_a = ThresholdCollection(alpha, tc.m, tc.prior_w, tc.shape, tc.adaptive_lambda)
        rejected = frozenset(i for i, a in enumerate(adj) if a <= alpha)
        assert rejected == step_up(p, tc_a, v).indices


@pytest.mark.parametrize("tc, v", [
    (ThresholdCollection(alpha=0.05, m=4), None),
    (ThresholdCollection(alpha=0.05, m=4, shape=RECIPROCAL_SUM), None),
    # beta(V) = 0 below the first support point of nu
    (ThresholdCollection(alpha=0.05, m=4, shape=NU), [0.5, 0.5, 1.5, 1.5]),
    (ThresholdCollection(alpha=0.05, m=4, prior_w=(0.0, 0.5, 2.0, 1.0)),
     [1.0, 2.0, 1.0, 1.0]),
    (ThresholdCollection(alpha=0.05, m=4, adaptive_lambda=0.5), None),
], ids=["bh", "by", "nu", "zero-weight", "adaptive"])
def test_adjusted_pvalue_of_zero_is_zero(tc, v):
    # p = 0 is rejected at every level; the bisection can only get within
    # its tolerance of 0.
    p = [0.0, 0.3, 0.02, 0.9]
    assert adjusted_pvalues(p, tc, v)[0] == 0.0
    assert 0.0 < oracles.adjusted_pvalues(p, tc, v)[0] <= 1e-10


def test_replicate_reciprocal_sum_matches_oracle(tmp_path):
    # With the reciprocal-sum shape every threshold needs H_m; at m = 2e4
    # this run must finish and give the oracle's selection and k_hat.
    rng = np.random.default_rng(20240)
    m, n, q = 20_000, 5, 0.1
    mat = rng.random((m, n))
    signal = rng.random(m) < 0.05
    mat[signal, :3] *= 1e-5
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(format(x, ".17g") for x in row) + "\n"
                            for row in mat.tolist()))
    out = tmp_path / "r.json"
    assert run(["replicate", str(path), "--q", str(q), "--method", "simes",
                "--shape", "reciprocal_sum", "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    combined = [oracles.simes(row) for row in mat.tolist()]
    tc = ThresholdCollection(alpha=q, m=m, shape=RECIPROCAL_SUM)
    selected, volume, _ = oracles.step_up(combined, tc)
    khat = oracles.khat(mat, selected, SIMES, WeightScheme.unit(m), q, RECIPROCAL_SUM)
    assert len(selected) > 100
    assert report["selected"] == sorted(str(i) for i in selected)
    assert report["selection_volume"] == volume
    assert report["khat"] == {str(i): k for i, k in khat.items()}
