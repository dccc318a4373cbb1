"""Scalar reference implementations that the array code is tested against.

These are the element-by-element loops the package used before its layers
became array-native: the combiners on one Python list, the partial
conjunction p-value of one row and its maximum over all subsets, the
step-up fixed-point iteration over the keys p / w (the array code has its
closed form), the per-hypothesis thresholds Delta(i, r), the
break-at-first-failure k_hat loop, the bisection over alpha for
adjusted p-values, the self-consistency check of a candidate rejection
set, the stability witness of the array step-up, the Monte Carlo
functions drawing, testing and scoring one replicate at a time, and the
CLI's per-line CSV reader. Simes, Bonferroni, Hommel and Simes-Storey use
the same floating-point operations in the same order as the array code,
so results must agree exactly; Fisher and Stouffer sum in another order.
The Monte Carlo loops combine with the array combiners, so their
estimates must equal the stacked ones for every method. The per-line
reader must give the streaming reader's values and ids on well-formed
text without a byte-order mark.
"""

import itertools
import math

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri

from pcfdr import procedures
from pcfdr.cli import CliError
from pcfdr.combine import combine_sorted, sort_rows
from pcfdr.partial_conjunction import pc_path, pc_pvalues
from pcfdr.procedures import ThresholdCollection, WeightScheme
from pcfdr.replicability import SelectionRule
from pcfdr.simulation import _estimate

_ORACLE_MAX_M = 20


def sum_in_order(xs):
    """The floats ``xs`` added left to right, as the array code adds them.
    ``sum()`` adds in that order only before Python 3.12, which made it
    compensate."""
    total = 0.0
    for x in xs:
        total += x
    return total


def harmonic(m):
    return sum_in_order(1.0 / j for j in range(1, m + 1))


def simes(p):
    p = sorted(p)
    m = len(p)
    return min(1.0, min(m * pk / (k + 1) for k, pk in enumerate(p)))


def simes_storey(p, lam):
    ps = sorted(p)
    if ps[0] > lam:
        return 1.0
    m = len(ps)
    pi0 = (sum(1 for x in ps if x > lam) + 1) / ((1.0 - lam) * m)
    return min(1.0, min(m * pi0 * pk / (k + 1) for k, pk in enumerate(ps) if pk <= lam))


def combine(p, method):
    """The global-null combination of the list ``p``."""
    m = len(p)
    if method.kind == "simes":
        return simes(p)
    if method.kind == "bonferroni":
        return min(1.0, m * min(p))
    if method.kind == "hommel":
        return min(1.0, harmonic(m) * simes(p))
    if method.kind == "simes_storey":
        return simes_storey(p, method.lam)
    if method.kind == "fisher":
        stat = -2.0 * sum(math.log(x) if x else -math.inf for x in p)
        return float(chdtrc(2 * m, stat))
    if 0.0 in p and 1.0 in p:
        raise ValueError("Stouffer combiner with both p=0 and p=1")
    if 0.0 in p:
        return 0.0
    if 1.0 in p:
        return 1.0
    z = sum(float(ndtri(x)) for x in p)
    return float(ndtr(z / math.sqrt(m)))


def pc_pvalue(p, u, method):
    """``method`` applied to the len(p)-u+1 largest entries of ``p``."""
    return combine(sorted(p)[u - 1:], method)


def pc_pvalue_oracle(p, u, method):
    """Maximum of the combined p-value over all subsets of size m-u+1.

    Exponential in m; guarded at m <= 20. Agrees with ``pc_pvalue`` for
    every coordinatewise non-decreasing combiner.
    """
    m = len(p)
    if not 1 <= u <= m:
        raise ValueError(f"u={u} outside [1, {m}]")
    if m > _ORACLE_MAX_M:
        raise ValueError(f"oracle limited to m <= {_ORACLE_MAX_M}, got {m}")
    subsets = list(itertools.combinations(p, m - u + 1))
    return float(combine_sorted(sort_rows(subsets), method).max())


def pc_storey_pvalue(p, u, lam):
    """The dedicated Simes-Storey partial conjunction formula: 1 when
    p_(u) > lam, else the Simes minimum over the tail entries <= lam,
    inflated by the tail-restricted Storey estimator."""
    ps = sorted(p)
    if ps[u - 1] > lam:
        return 1.0
    tail = ps[u - 1:]
    n_tail = len(tail)
    pi0 = (1 + sum(1 for x in tail if x > lam)) / (n_tail * (1.0 - lam))
    return min(1.0, min(n_tail * pi0 * pk / (k + 1) for k, pk in enumerate(tail) if pk <= lam))


def thresholds(tc, p):
    """Delta(i, r) of ``tc`` as a function of one hypothesis, the Storey
    plug-in bound to the p-values ``p`` in adaptive mode."""
    m = tc.m
    if tc.adaptive_lambda is not None:
        lam = tc.adaptive_lambda
        pi0 = (sum(1 for x in p if x > lam) + 1) / ((1.0 - lam) * m)
        return lambda i, r: tc.alpha * r / (m * pi0)
    w = tc.weights.prior_w
    return lambda i, r: tc.alpha * w[i] * tc.shape(r, m) / m


def keys(p, w):
    """q_i = p_i / w_i, with q = 0 where p = 0, q = inf where w = 0 < p and
    the least positive float where a positive p / w underflows."""
    tiny = math.ulp(0.0)
    return [0.0 if x == 0.0 else math.inf if wi == 0.0 else max(x / wi, tiny)
            for x, wi in zip(p, w)]


def level(tc, p):
    """alpha * beta(r) / scale as a function of the volume r: scale is m,
    or m * pi0 with the Storey plug-in bound to ``p`` in adaptive mode."""
    m = tc.m
    scale = m
    if tc.adaptive_lambda is not None:
        lam = tc.adaptive_lambda
        scale = m * ((sum(1 for x in p if x > lam) + 1) / ((1.0 - lam) * m))
    return lambda r: tc.alpha * tc.shape(r, m) / scale


def step_up(p, tc):
    """Greatest fixed point of r -> |{i: q_i <= alpha * beta(r) / scale}|_v,
    q = p / w, by monotone iteration from sum(v), each volume added in the
    order of ascending q with ties by v; returns (indices, volume added in
    index order, iterations)."""
    v = [float(x) for x in tc.weights.penalty_v]
    q = keys(p, tc.weights.prior_w)
    order = sorted(range(tc.m), key=lambda i: (q[i], v[i]))
    t = level(tc, p)
    r = sum_in_order(v[i] for i in order)
    iterations = 0
    while True:
        iterations += 1
        rejected = [i for i in order if q[i] <= t(r)]
        vol = sum_in_order(v[i] for i in rejected)
        if vol == r:
            break
        r = vol
    return frozenset(rejected), sum_in_order(v[i] for i in sorted(rejected)), iterations


def khat(mat, selected, method, ws, q, beta):
    """k_hat per selected row: the leading u whose P^{u/n} stay under
    w_i beta(|S|_v) q / m, stopping at the first that does not."""
    m, n = len(mat), len(mat[0])
    vol = sum_in_order(ws.penalty_v[i] for i in sorted(selected))
    out = {}
    for i in sorted(selected):
        t = ws.prior_w[i] * beta(vol, m) * q / m
        k = 0
        for u in range(1, n + 1):
            if pc_pvalue(list(mat[i]), u, method) > t:
                break
            k = u
        out[i] = k
    return out


def adjusted_pvalues(p, tc, tol=1e-10):
    """Per-hypothesis minimum rejecting level by bisection over alpha, each
    probe one run of the fixed-point ``step_up``; 1.0 for hypotheses not
    rejected at alpha = 1."""
    def rejected_at(alpha):
        tc_a = type(tc)(alpha, tc.m, tc.weights, tc.shape, tc.adaptive_lambda)
        return step_up(p, tc_a)[0]

    adj = []
    top = rejected_at(1.0)
    for i in range(tc.m):
        if i not in top:
            adj.append(1.0)
            continue
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if i in rejected_at(mid):
                hi = mid
            else:
                lo = mid
        adj.append(hi)
    return adj


def check_self_consistency(p, tc, candidate):
    """True iff every candidate index i satisfies p_i <= Delta(i, |candidate|_v)."""
    delta = thresholds(tc, p)
    vol = sum_in_order(tc.weights.penalty_v[i] for i in sorted(candidate.indices))
    return all(p[i] <= delta(i, vol) for i in candidate.indices)


def check_stability(p, tc):
    """Witness check: zeroing any one p-value that the array ``step_up``
    rejects leaves its rejection set unchanged; one copy of p per rejected
    hypothesis."""
    base = procedures.step_up(p, tc).indices
    for i in base:
        q = np.array(p, dtype=float)
        q[i] = 0.0
        if procedures.step_up(q, tc).indices != base:
            return False
    return True


def gen_meta_matrix(s, rep_index):
    """One replicate's m x n p-value matrix from its own Philox stream
    keyed by (seed, rep_index), block by block for block_arbitrary."""
    key = np.array([s.seed & 0xFFFFFFFFFFFFFFFF, rep_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    m, n = s.m, s.n
    z = rng.standard_normal((m, n))
    if s.dependence == "equicorrelated_prds" and s.rho > 0.0:
        z0 = rng.standard_normal(n)
        x = math.sqrt(s.rho) * z0[None, :] + math.sqrt(1.0 - s.rho) * z
    elif s.dependence == "block_arbitrary":
        x = np.empty_like(z)
        b = s.block_size
        for start in range(0, m, b):
            block = z[start:start + b]
            k = block.shape[0]
            if k == 1:
                x[start:start + b] = block
            else:
                centered = block - block.mean(axis=0, keepdims=True)
                x[start:start + b] = centered / math.sqrt(1.0 - 1.0 / k)
    else:
        x = z
    signal = np.arange(n)[None, :] < np.asarray(s.true_k)[:, None]
    x = x + s.mu * signal
    return ndtr(-x)


def weighted_fdp(rejected, nulls, v):
    """Weighted FDP, sums of v added in index order, 0/0 = 0."""
    total = sum_in_order(v[i] for i in sorted(rejected))
    if total == 0.0:
        return 0.0
    return sum_in_order(v[i] for i in sorted(set(rejected) & set(nulls))) / total


def select(mat, rule, method, ws):
    """Step-1 selection of one matrix, with the fixed-point step-up."""
    m = len(mat)
    if rule.kind == "fixed_threshold_on_combined":
        combined = pc_pvalues(mat, 1, method)
        return frozenset(i for i in range(m) if combined[i] <= rule.threshold)
    if rule.kind == "step_up_on_column":
        values = mat[:, rule.column]
    else:
        values = pc_pvalues(mat, 1, method)
    tc = ThresholdCollection(alpha=rule.alpha, m=m, weights=ws, shape=rule.shape)
    return step_up(values, tc)[0]


def replicability_error(mat, selected, method, ws, q, beta, true_k):
    """k_hat of each selected row, with the leading u whose running maximum
    of P^{u/n} stays under w_i beta(|S|_v) q / m, scored against true_k."""
    m, n = mat.shape
    v = ws.penalty_v
    vol = sum_in_order(v[i] for i in sorted(selected))
    path = np.maximum.accumulate(pc_path(mat, method), axis=1)
    bad = []
    for i in sorted(selected):
        t = ws.prior_w[i] * beta(vol, m) * q / m
        k = 0
        while k < n and path[i, k] <= t:
            k += 1
        if k > true_k[i]:
            bad.append(i)
    if vol == 0.0:
        return 0.0
    return sum_in_order(v[i] for i in bad) / vol


def mc_fdr_pc(s, u, method, tc):
    nulls = s.true_null_features(u)
    fdps = []
    for rep in range(s.reps):
        pc = pc_pvalues(gen_meta_matrix(s, rep), u, method)
        rejected = step_up(pc, tc)[0]
        fdps.append(weighted_fdp(rejected, nulls, tc.weights.penalty_v))
    return _estimate(fdps)


def mc_replicability_error(s, rule, method, ws, q, beta):
    errors = []
    for rep in range(s.reps):
        mat = gen_meta_matrix(s, rep)
        selected = select(mat, rule, method, ws)
        errors.append(replicability_error(mat, selected, method, ws, q, beta, s.true_k))
    return _estimate(errors)


def dcc_probe(s, u, method, c_grid, statistic, alpha):
    probe = min(s.true_null_features(u))
    ws = WeightScheme.unit(s.m)
    tc = ThresholdCollection(alpha=alpha, m=s.m)
    rule = SelectionRule("step_up_on_combined", alpha=alpha)
    pairs = []
    for rep in range(s.reps):
        mat = gen_meta_matrix(s, rep)
        p_u = float(pc_pvalues(mat, u, method)[probe])
        if statistic == "rejection_volume":
            vol = step_up(pc_pvalues(mat, u, method), tc)[1]
        else:
            mat[probe] = 0.0
            vol = sum_in_order(ws.penalty_v[i] for i in sorted(select(mat, rule, method, ws)))
        pairs.append((p_u, vol))
    return [(float(c), _estimate([(1.0 / v if p <= c * v else 0.0) if v > 0 else 0.0
                                  for p, v in pairs]))
            for c in c_grid]


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_matrix(path, pvalues=True):
    """The CLI's reader before the streaming one: blank lines filtered, ids
    split off and row widths checked line by line in Python, and
    ``np.loadtxt`` fed the lines through a generator. Returns (list of ids
    or None, 2-d float array)."""
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    with fh:
        first = next((ln for ln in fh if ln.strip()), None)
        if first is None:
            raise CliError(f"{path}:1:1: empty input")
        has_ids = pvalues and not _is_number(first.split(",")[0].strip())
        commas = first.count(",")
        ids = []

        def rows():
            block = [first]
            while block:
                block = [ln for ln in block if ln.strip()]
                if has_ids:
                    if any(ln.count(",") != commas for ln in block):
                        raise ValueError("rows of unequal length")
                    ids.extend([ln.partition(",")[0].strip() for ln in block])
                yield from block
                block = fh.readlines(1 << 16)

        try:
            mat = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2,
                             usecols=range(1, commas + 1) if has_ids else None)
            if pvalues and not ((mat >= 0.0) & (mat <= 1.0)).all():
                raise ValueError("p-value outside [0, 1]")
        except ValueError as exc:
            raise _bad_cell(path, has_ids, pvalues) or CliError(f"{path}: {exc}") from None
    return (ids if has_ids else None), mat


def _bad_cell(path, has_ids, pvalues):
    width = None
    with open(path) as fh:
        for ln_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = [c.strip() for c in line.split(",")][has_ids:]
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                return CliError(f"{path}:{ln_no}:1: expected {width} values, got {len(cells)}")
            for col, cell in enumerate(cells, start=1 + has_ids):
                if not _is_number(cell):
                    return CliError(f"{path}:{ln_no}:{col}: not a number: {cell!r}")
            for col, cell in enumerate(cells, start=1 + has_ids):
                if pvalues and not 0.0 <= float(cell) <= 1.0:
                    return CliError(f"{path}:{ln_no}:{col}: p-value {float(cell)} outside [0, 1]")
    return None
