"""Differential tests: the array code against the scalar oracles.

Partial conjunction p-values and paths are compared with the subset oracle
and with the scalar combiners of ``oracles``; the array step-up with the
fixed-point iteration of ``oracles``; the closed-form adjusted p-values with
the bisection of ``oracles`` and with the step-up's rejection sets; a
``replicate`` run with the reciprocal-sum shape end to end with both; the
stacked Monte Carlo functions with the one-replicate-at-a-time loops of
``oracles``, estimate for estimate, in one process and split over two
and three; the CLI's CSV reader with the
per-line reader of ``oracles`` on random text, and its number test and the
``np.loadtxt`` behaviour it relies on with ``np.loadtxt`` itself; the
bucketed ``compute_pc_pvalues`` over interleaved group labels with
``pc_pvalue`` group by group.
"""

import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfdr import _fork, simulation
from pcfdr.cli import CliError, _is_number, read_ids, read_matrix, run
from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    DegenerateInputError,
    simes_storey,
)
from pcfdr.partial_conjunction import pc_path, pc_pvalue, pc_pvalues
from pcfdr.pc_testing import GroupLayout, compute_pc_pvalues
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ShapeFunction,
    ThresholdCollection,
    WeightScheme,
    _step_up_rows,
    _volumes,
    adjusted_pvalues,
    step_up,
)
from pcfdr.replicability import SelectionRule
from pcfdr.simulation import (
    SimulationScenario,
    _draw,
    dcc_probe,
    gen_meta_matrix,
    mc_fdr_pc,
    mc_replicability_error,
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
            assert close(method.kind, got, oracles.pc_pvalue_oracle(row, u, method))
            assert close(method.kind, got, oracles.pc_pvalue(row, u, method))


def test_stouffer_degenerate_row_is_named():
    mat = [[0.2, 0.3], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(DegenerateInputError) as err:
        pc_pvalues(mat, 1, STOUFFER)
    assert err.value.row == 2


@st.composite
def group_families(draw, method):
    """Interleaved labels of groups of 1 to 8 with mixed u, p-values, and
    for Stouffer the one group (or None) whose combined entries hold both
    a 0 and a 1."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    u = [draw(st.integers(1, n)) for n in sizes]
    labels = np.array(draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist())))
    p = np.array(draw(st.lists(entry, min_size=len(labels), max_size=len(labels))))
    bad = None
    if method.kind == "stouffer":
        for g in range(len(sizes)):
            group = labels == g
            if 0.0 in p[group] and 1.0 in p[group]:
                p[group & (p == 1.0)] = 0.5
        bad = draw(st.sampled_from([None, *np.flatnonzero(np.array(sizes) > 1).tolist()]))
        if bad is not None:
            u[bad] = 1
            p[np.flatnonzero(labels == bad)[:2]] = [0.0, 1.0]
    return labels, u, p, bad


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_compute_pc_pvalues_matches_pc_pvalue_per_group(method, data):
    labels, u, p, bad = data.draw(group_families(method))
    layout = GroupLayout(labels, u)
    if bad is not None:
        with pytest.raises(DegenerateInputError) as err:
            compute_pc_pvalues(p, layout, method)
        assert err.value.row == bad
        return
    assert compute_pc_pvalues(p, layout, method) == [
        pc_pvalue(p[labels == g], u[g], method) for g in range(len(u))]


NU = ShapeFunction("discrete_nu", nu=((1.0, 0.25), (4.0, 0.5), (9.0, 0.25)))


@st.composite
def step_up_cases(draw, kinds=("unit", "weighted", "constant", "adaptive", "boundary")):
    m = draw(st.integers(1, 25))
    p = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.001, 0.01, 1.0]),
                                st.floats(0.0, 1.0)), min_size=m, max_size=m))
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    kind = draw(st.sampled_from(kinds))
    if kind == "adaptive":
        lam = draw(st.sampled_from([0.25, 0.5]))
        return p, ThresholdCollection(alpha=alpha, m=m, adaptive_lambda=lam)
    shape = draw(st.sampled_from([IDENTITY, RECIPROCAL_SUM, NU]))
    if kind == "unit":
        return p, ThresholdCollection(alpha=alpha, m=m, shape=shape)
    if kind == "boundary":
        # p on the grid of BH thresholds and dyadic raw weights: the
        # comparisons at the fixed point tie up to float rounding.
        p = [j * alpha / m for j in draw(st.lists(st.integers(0, m), min_size=m, max_size=m))]
        dyadic = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
        v = draw(st.lists(dyadic, min_size=m, max_size=m))
        raw = draw(st.lists(st.one_of(st.just(0.0), dyadic), min_size=m, max_size=m))
    elif kind == "constant":  # v = c != 1 throughout, so w is not unit
        v = [draw(st.sampled_from([0.3, 0.7, 2.5]))] * m
        raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m))
    else:
        v = draw(st.lists(st.floats(0.1, 3.0), min_size=m, max_size=m))
        raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
                            min_size=m, max_size=m))
    if not any(raw):
        raw[0] = 1.0
    scale = m / sum(r * x for r, x in zip(raw, v))
    w = tuple(r * scale for r in raw)
    return p, ThresholdCollection(alpha=alpha, m=m, weights=WeightScheme(w, v), shape=shape)


@given(case=step_up_cases())
@settings(max_examples=500, deadline=None)
def test_step_up_matches_fixed_point_oracle(case):
    p, tc = case
    got = step_up(p, tc)
    indices, volume, _ = oracles.step_up(p, tc)
    assert got.indices == indices
    assert got.fixed_point_volume == volume
    assert got.iterations == 1


def test_step_up_compares_keys_with_unweighted_levels():
    # w * v rounds to 1 here, so the weight rule holds, but the exact
    # product of these floats alpha * w * v lies below p = alpha. The form
    # p <= alpha * w * beta(v) / m rounds up to a rejection; the key
    # p / w against alpha * beta(v) / m does not reject.
    v = 1.2117697542780028
    w, alpha = 1.0 / v, 0.05
    assert alpha * w * v / 1 >= alpha
    assert Fraction(alpha) * Fraction(w) * Fraction(v) < Fraction(alpha)
    tc = ThresholdCollection(alpha=alpha, m=1, weights=WeightScheme([w], [v]))
    assert step_up([alpha], tc).indices == frozenset() == oracles.step_up([alpha], tc)[0]
    assert adjusted_pvalues([alpha], tc)[0] > alpha


def test_step_up_discrete_nu_shape_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        p = (rng.random(m) ** 3).tolist()
        tc = ThresholdCollection(alpha=0.3, m=m, shape=NU)
        got = step_up(p, tc)
        assert (got.indices, got.fixed_point_volume, got.iterations) == \
            oracles.step_up(p, tc)[:2] + (1,)


@given(case=step_up_cases())
@settings(max_examples=250, deadline=None)
def test_adjusted_pvalues_match_bisection_and_step_up(case):
    p, tc = case
    adj = adjusted_pvalues(p, tc)
    assert max(abs(a - b) for a, b in zip(adj, oracles.adjusted_pvalues(p, tc))) <= 1e-10
    for alpha in (0.01, 0.05, 0.2, 0.5, 1.0):
        if any(abs(a - alpha) <= 1e-9 for a in adj):
            continue  # a boundary: rounding decides either way
        tc_a = ThresholdCollection(alpha, tc.m, tc.weights, tc.shape, tc.adaptive_lambda)
        rejected = frozenset(i for i, a in enumerate(adj) if a <= alpha)
        assert rejected == step_up(p, tc_a).indices


@pytest.mark.parametrize("tc", [
    ThresholdCollection(alpha=0.05, m=4),
    ThresholdCollection(alpha=0.05, m=4, shape=RECIPROCAL_SUM),
    # beta(V) = 0 below the first support point of nu
    ThresholdCollection(alpha=0.05, m=4, shape=NU,
                        weights=WeightScheme([1.0] * 4, [0.5, 0.5, 1.5, 1.5])),
    ThresholdCollection(alpha=0.05, m=4, weights=WeightScheme((0.0, 0.5, 2.0, 1.0),
                                                              (1.0, 2.0, 1.0, 1.0))),
    ThresholdCollection(alpha=0.05, m=4, adaptive_lambda=0.5),
], ids=["bh", "by", "nu", "zero-weight", "adaptive"])
def test_adjusted_pvalue_of_zero_is_zero(tc):
    # p = 0 is rejected at every level; the bisection can only get within
    # its tolerance of 0.
    p = [0.0, 0.3, 0.02, 0.9]
    assert adjusted_pvalues(p, tc)[0] == 0.0
    assert 0.0 < oracles.adjusted_pvalues(p, tc)[0] <= 1e-10


def test_adjusted_pvalue_of_underflowing_ratio_is_not_zero():
    # p / w underflows to 0 at hypothesis 13, but unlike p = 0 it is not
    # rejected while beta(V) is 0: here never, as the volume it can join,
    # 0.125 + 0.5 + 0.25, stays under nu's first support point.
    p = [0.0] + [0.001] * 5 + [0.0] + [0.001] * 6 + [5e-324] + [0.001] * 4
    v = [0.125] + [1.0] * 5 + [0.5] + [1.0] * 6 + [0.25] + [1.0] * 4
    w = [0.0] * 18
    w[13] = 72.0
    tc = ThresholdCollection(alpha=0.05, m=18, weights=WeightScheme(w, v), shape=NU)
    assert adjusted_pvalues(p, tc)[13] == 1.0 == oracles.adjusted_pvalues(p, tc)[13]


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


def test_stacked_step_up_rows_match_fixed_point_oracle():
    # The oracle's map reaches the rows' fixed points after different
    # numbers of steps; each row's set and volume must be its own.
    rng = np.random.default_rng(11)
    m = 40
    v = np.where(np.arange(m) % 2, 0.5, 2.0)
    w = np.where(np.arange(m) % 2, 1.0, 0.75)
    collections = [
        ThresholdCollection(alpha=0.3, m=m),
        ThresholdCollection(alpha=0.3, m=m, shape=RECIPROCAL_SUM),
        ThresholdCollection(alpha=0.3, m=m, shape=NU),
        ThresholdCollection(alpha=0.3, m=m, adaptive_lambda=0.5),
        ThresholdCollection(alpha=0.3, m=m, weights=WeightScheme(w, v)),
    ]
    P = rng.random((60, m)) ** rng.integers(1, 6, size=(60, 1))
    for tc in collections:
        rejected = _step_up_rows(P, tc)
        volumes = _volumes(rejected, tc.weights.penalty_v)
        expected = [oracles.step_up(row, tc) for row in P.tolist()]
        assert len({it for _, _, it in expected}) > 1
        for rej, vol, (indices, volume, _) in zip(rejected, volumes.tolist(), expected):
            assert (frozenset(np.flatnonzero(rej).tolist()), vol) == (indices, volume)


# Monte Carlo: m = 100 puts 40 replicates in a chunk, so 45 replicates
# straddle a chunk boundary; m = 2500 puts one replicate in each chunk.
def scenario(dependence, m=100, n=4, reps=45, seed=5, **kw):
    rho = 0.5 if dependence == "equicorrelated_prds" else 0.0
    return SimulationScenario(m=m, n=n, true_k=tuple(i % (n + 1) for i in range(m)),
                              mu=3.0, rho=rho, dependence=dependence, reps=reps,
                              seed=seed, **kw)


# Penalty weights that are not all 1 but add up exactly in any order,
# with sum(w * v) = m.
def dyadic_weights(m):
    odd = np.arange(m) % 2 == 1
    return WeightScheme(np.where(odd, 1.0, 0.75), np.where(odd, 0.5, 2.0))


SCENARIOS = [
    scenario("independent"),
    scenario("equicorrelated_prds"),
    # m % block_size != 0: a short last block of 2
    scenario("block_arbitrary", m=102, block_size=4),
    # one study and blocks of 8: the block means sum along a contiguous axis
    scenario("block_arbitrary", m=102, n=1, block_size=8),
    scenario("equicorrelated_prds", m=2500, reps=3),
]


@pytest.mark.parametrize("s", SCENARIOS, ids=lambda s: f"{s.dependence}-m{s.m}-n{s.n}")
def test_stacked_draw_matches_one_at_a_time(s):
    stack = _draw(s, 0, s.reps)
    assert stack.shape == (s.reps, s.m, s.n)
    for r in range(s.reps):
        one = gen_meta_matrix(s, r)
        assert np.array_equal(one, oracles.gen_meta_matrix(s, r))
        assert np.array_equal(one, stack[r])
    assert np.array_equal(_draw(s, 2, 3), stack[2:3])


FDR_CASES = [
    ("independent", SIMES, {}),
    ("equicorrelated_prds", FISHER, {}),
    ("block_arbitrary", STOUFFER, {"shape": RECIPROCAL_SUM}),
    ("equicorrelated_prds", simes_storey(0.5), {"adaptive_lambda": 0.5}),
    ("independent", HOMMEL, {"shape": NU}),
    ("equicorrelated_prds", BONFERRONI, {"weighted": True}),
]


@pytest.fixture(params=[1, 2, 3], ids=["1-core", "2-cores", "3-cores"])
def cores(request, monkeypatch):
    """The usable core count, patched, with any Monte Carlo work worth a
    split, so that each call maps its replicates on min(cores, reps)
    processes; yields the core count and the list of forks so far."""
    forks, fork = [], os.fork
    monkeypatch.setattr(_fork, "_cores", lambda: request.param)
    monkeypatch.setattr(simulation, "_MIN_DRAWS", 1)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    yield request.param, forks
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dependence, method, opts", FDR_CASES,
                         ids=[f"{d}-{m.kind}-{'-'.join(o) or 'bh'}" for d, m, o in FDR_CASES])
def test_mc_fdr_pc_matches_per_replicate_loop(dependence, method, opts, cores):
    opts = dict(opts)
    weighted = opts.pop("weighted", False)
    for s in (scenario(dependence, block_size=3), scenario(dependence, m=2500, reps=3)):
        ws = dyadic_weights(s.m) if weighted else WeightScheme.unit(s.m)
        tc = ThresholdCollection(alpha=0.2, m=s.m, weights=ws, **opts)
        est = mc_fdr_pc(s, 2, method, tc)
        assert est == oracles.mc_fdr_pc(s, 2, method, tc)
        assert est.reps == s.reps
    assert len(cores[1]) == 2 * (cores[0] - 1)


REP_CASES = [
    ("equicorrelated_prds", SIMES, SelectionRule("step_up_on_combined", alpha=0.2), False),
    ("block_arbitrary", FISHER, SelectionRule("fixed_threshold_on_combined", threshold=0.01), False),
    ("independent", simes_storey(0.5),
     SelectionRule("step_up_on_column", alpha=0.2, shape=RECIPROCAL_SUM, column=1), False),
    ("equicorrelated_prds", STOUFFER, SelectionRule("step_up_on_combined", alpha=0.2), True),
]


@pytest.mark.parametrize("dependence, method, rule, weighted", REP_CASES,
                         ids=[f"{d}-{m.kind}-{r.kind}{'-weighted' * w}"
                              for d, m, r, w in REP_CASES])
def test_mc_replicability_error_matches_per_replicate_loop(dependence, method, rule, weighted,
                                                           cores):
    for s in (scenario(dependence, block_size=3), scenario(dependence, m=2500, reps=3)):
        ws = dyadic_weights(s.m) if weighted else WeightScheme.unit(s.m)
        est = mc_replicability_error(s, rule, method, ws, 0.2, rule.shape)
        assert est == oracles.mc_replicability_error(s, rule, method, ws, 0.2, rule.shape)
        assert est.reps == s.reps
    assert len(cores[1]) == 2 * (cores[0] - 1)


@pytest.mark.parametrize("statistic", ["rejection_volume", "selection_volume_minus_row"])
@pytest.mark.parametrize("method", [FISHER, simes_storey(0.5)], ids=lambda m: m.kind)
def test_dcc_probe_matches_per_replicate_loop(statistic, method, cores):
    # m = 20 puts 204 replicates in a chunk.
    s = scenario("equicorrelated_prds", m=20, reps=300)
    grid = [0.02, 0.1, 0.5]
    got = dcc_probe(s, 2, method, grid, statistic=statistic, alpha=0.2)
    assert got == oracles.dcc_probe(s, 2, method, grid, statistic, 0.2)
    assert any(est.mean > 0 for _, est in got)
    assert len(cores[1]) == cores[0] - 1


# Random CSV text: blank and whitespace-only lines (ASCII and not), ids
# with padding and non-ASCII letters, numbers in several spellings with
# padding, LF, CRLF and CR line ends, with or without a last newline, and
# now and then a row of another width or a value outside [0, 1].
PAD = st.sampled_from(["", "", " ", "\t", "\u00a0"])
SPACE_LINE = st.text(st.sampled_from([" ", "\t", "\u3000"]), max_size=3)
NUMBER = st.one_of(st.floats(0.0, 1.0).map(repr),
                   st.floats(0.0, 1.0).map(lambda x: "%.17g" % x),
                   st.sampled_from(["0", "1", "1.0", ".5", "5e-1", "1E-3", "0.000"]))
IDENT = st.text(st.sampled_from("ab_- \u00e8\u00df0"), max_size=4)


@st.composite
def csv_texts(draw):
    n = draw(st.integers(1, 3))
    has_ids = draw(st.booleans())
    fault = draw(st.sampled_from([None] * 4 + ["width", "range"]))
    m = draw(st.integers(1, 6))
    bad = draw(st.integers(0, m - 1))
    lines = []
    for i in range(m):
        lines += draw(st.lists(SPACE_LINE, max_size=2))
        cells = [draw(PAD) + draw(NUMBER) + draw(PAD) for _ in range(n)]
        if has_ids:
            # A letter first keeps the first id a non-number to both readers.
            cells.insert(0, ("g" if i == 0 else "") + draw(IDENT))
        if i == bad and fault == "width":
            cells.append("0.5")
        elif i == bad and fault == "range":
            cells[-1] = "1.5"
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "".join(line + end for line, end in zip(lines, ends))


def read_outcome(reader, path):
    try:
        ids, mat = reader(path)
    except CliError as exc:
        return str(exc)
    return ids, mat.shape, mat.tolist()


def cli_reader(path):
    """The CLI's reader with the ids read back: every row's, checked
    against those of every other row alone."""
    has_ids, mat = read_matrix(path)
    if not has_ids:
        return None, mat
    ids = list(read_ids(path))
    assert list(read_ids(path, itertools.cycle([False, True]))) == ids[1::2]
    return ids, mat


@given(text=csv_texts())
@settings(max_examples=150, deadline=None)
def test_streaming_reader_matches_per_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "random.csv"
    path.write_bytes(text.encode())
    assert read_outcome(cli_reader, str(path)) == read_outcome(oracles.read_matrix, str(path))


@given(token=st.text(st.sampled_from("0123456789.eE+-_ \t\u00a0\u0660inf"), max_size=6))
@settings(max_examples=300, deadline=None)
def test_number_test_accepts_what_loadtxt_parses(token):
    try:
        np.loadtxt([f"0,{token}"], delimiter=",", comments=None)
    except ValueError:
        parsed = False
    else:
        parsed = True
    assert _is_number(token) == parsed


def test_loadtxt_zero_width_id_field_checks_row_widths(tmp_path):
    # read_matrix parses an id column into a zero-width bytes field: it
    # keeps no id bytes, and loadtxt still counts the column, so a row of
    # another width fails. A whitespace-only line fails too, with or
    # without ids, which is what sends the reader to its retry.
    n = 3
    with_ids = np.dtype([("id", "S"), ("p", float, (n,))])
    assert with_ids.itemsize == 8 * n
    kw = dict(delimiter=",", comments=None, ndmin=1, encoding="utf-8-sig")

    def load(text, dtype=with_ids):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        return np.loadtxt(path, dtype=dtype, **kw)["p"]

    assert load("a,0.1,0.2,0.3\r\n\nb,0.4,0.5,0.6").tolist() == [[0.1, 0.2, 0.3],
                                                              [0.4, 0.5, 0.6]]
    for text in ("a,0.1,0.2,0.3\nb,0.4,0.5\n", "a,0.1,0.2,0.3\nb,0.4,0.5,0.6,0.7\n",
                 "a,0.1,0.2,0.3\n \nb,0.4,0.5,0.6\n"):
        with pytest.raises(ValueError):
            load(text)
    with pytest.raises(ValueError):
        load("0.1\n\t\n0.2\n", np.dtype([("p", float, (1,))]))
