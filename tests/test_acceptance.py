"""End-to-end acceptance checks.

Each test covers one acceptance criterion and emits a single
"[ACCEPTANCE] criterion N: PASS/FAIL" line (visible with pytest -s, or in
the captured output on failure). Monte Carlo bounds use a 3-standard-error
slack; all random draws are seeded, so reruns are deterministic.
"""

import math
import random

import numpy as np
import pytest

from pcfdr.combine import (
    BONFERRONI,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    combine_pvalues,
    simes_storey,
)
from pcfdr.numerics import chi_square_survival, std_normal_cdf, std_normal_quantile
from pcfdr.partial_conjunction import pc_pvalue
from pcfdr.procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    ThresholdCollection,
    WeightScheme,
    adjusted_pvalues,
    step_up,
    weighted_volume,
)
from pcfdr.replicability import SelectionRule, khat_bounds, select_features
from pcfdr.simulation import (
    SimulationScenario,
    dcc_probe,
    mc_fdr_pc,
    mc_replicability_error,
)
import oracles
from oracles import check_stability, pc_pvalue_oracle, thresholds
from test_numerics import CHI2_ORACLE, PHI_ORACLE

NON_ADAPTIVE = [FISHER, STOUFFER, SIMES, BONFERRONI, HOMMEL]

FDR_SCENARIO = dict(m=200, n=5, true_k=(3,) * 60 + (0,) * 140, mu=3.0,
                    reps=1000, seed=20260823)
REP_SCENARIO = dict(m=100, n=4, true_k=(2,) * 30 + (0,) * 70, mu=3.0,
                    reps=1000, seed=20260823)


def report(n, ok, detail):
    print(f"[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(1000):
        m = rng.randint(1, 8)
        p = [rng.random() for _ in range(m)]
        for u in range(1, m + 1):
            for method in NON_ADAPTIVE:
                err = abs(pc_pvalue(p, u, method) - pc_pvalue_oracle(p, u, method))
                worst = max(worst, err)
    report(1, worst <= 1e-12,
           f"max |pc_pvalue - oracle| = {worst:.2e} over 1000 vectors, "
           f"m <= 8, all u, 5 methods (tolerance 1e-12)")


def test_criterion_2_min_adjusted_links():
    rng = random.Random(2)
    violations = 0
    for _ in range(1000):
        m = rng.randint(1, 20)
        p = [rng.random() for _ in range(m)]
        bh_adj = adjusted_pvalues(p, ThresholdCollection(alpha=0.05, m=m))
        if min(bh_adj) != combine_pvalues(p, SIMES):
            violations += 1
        bonf_adj = [min(1.0, m * x) for x in p]
        if min(bonf_adj) != combine_pvalues(p, BONFERRONI):
            violations += 1
    report(2, violations == 0,
           f"{violations} exact-equality violations of the min-adjusted-p "
           f"links (Simes/BH and Bonferroni) over 1000 vectors, m <= 20")


def test_criterion_3_fdr_bound_simes_family():
    tc = ThresholdCollection(alpha=0.05, m=200)
    lines, ok = [], True
    for method, label in ((SIMES, "simes"), (simes_storey(0.5), "simes_storey")):
        for rho in (0.0, 0.5):
            dep = "equicorrelated_prds" if rho > 0 else "independent"
            s = SimulationScenario(rho=rho, dependence=dep, **FDR_SCENARIO)
            est = mc_fdr_pc(s, 2, method, tc)
            bound = 0.05 * 140 / 200 + 3 * est.se
            ok = ok and est.mean <= bound
            lines.append(f"{label}/rho={rho}: {est.mean:.4f} <= {bound:.4f}")
    report(3, ok, "FDR_PC bounds (alpha*|M0|/m + 3SE): " + "; ".join(lines))


def test_criterion_4_fdr_bound_fisher_stouffer():
    tc = ThresholdCollection(alpha=0.05, m=200)
    s = SimulationScenario(rho=0.5, dependence="equicorrelated_prds",
                           **FDR_SCENARIO)
    lines, ok = [], True
    for method, label in ((FISHER, "fisher"), (STOUFFER, "stouffer")):
        est = mc_fdr_pc(s, 2, method, tc)
        bound = 0.05 + 3 * est.se
        ok = ok and est.mean <= bound
        lines.append(f"{label}: {est.mean:.4f} <= {bound:.4f}")
    report(4, ok, "FDR_PC bounds at rho=0.5 (alpha + 3SE): " + "; ".join(lines))


def test_criterion_5_fdr_bound_arbitrary_dependence():
    tc = ThresholdCollection(alpha=0.05, m=200, shape=RECIPROCAL_SUM)
    s = SimulationScenario(dependence="block_arbitrary", **FDR_SCENARIO)
    est = mc_fdr_pc(s, 2, SIMES, tc)
    bound = 0.05 + 3 * est.se
    report(5, est.mean <= bound,
           f"FDR_PC under block dependence with reciprocal_sum shape: "
           f"{est.mean:.4f} <= {bound:.4f}")


def test_criterion_6_replicability_error_bound():
    ws = WeightScheme.unit(100)
    configs = [
        ("rho=0.5/simes", 0.5, "equicorrelated_prds", SIMES, None),
        ("rho=0.5/simes_storey", 0.5, "equicorrelated_prds", simes_storey(0.5), None),
        ("independent/simes", 0.0, "independent", SIMES, None),
        ("block/reciprocal_sum", 0.0, "block_arbitrary", SIMES, RECIPROCAL_SUM),
    ]
    lines, ok = [], True
    for label, rho, dep, method, beta in configs:
        s = SimulationScenario(rho=rho, dependence=dep, **REP_SCENARIO)
        shape = beta if beta is not None else IDENTITY
        rule = SelectionRule("step_up_on_combined", alpha=0.1, shape=shape)
        est = mc_replicability_error(s, rule, method, ws, q=0.1, beta=shape)
        bound = 0.1 + 3 * est.se
        ok = ok and est.mean <= bound
        lines.append(f"{label}: {est.mean:.4f} <= {bound:.4f}")
    report(6, ok, "replicability error bounds (q + 3SE): " + "; ".join(lines))


def test_criterion_7_nontrivial_lower_bound():
    rng = np.random.default_rng(7)
    violations = total = 0
    for _ in range(500):
        m, n = int(rng.integers(1, 15)), int(rng.integers(2, 6))
        mat = rng.random((m, n))
        for i in range(m):
            if rng.random() < 0.4:
                k = int(rng.integers(1, n + 1))
                mat[i, :k] = rng.random(k) * 1e-4
        ws = WeightScheme.unit(m)
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        sel = select_features(mat, rule, SIMES, ws)
        rep = khat_bounds(mat, sel, SIMES, ws, q=0.1)
        total += len(sel)
        violations += sum(1 for i in sel if rep.khat[i] < 1)
    report(7, violations == 0,
           f"{violations} of {total} selected features (500 random matrices, "
           f"matched two-step configuration) had a trivial bound khat < 1")


def test_criterion_8_dependency_control_probes():
    base = dict(m=20, n=4, true_k=(0,) * 10 + (4,) * 10, mu=3.0, rho=0.5,
                dependence="equicorrelated_prds", reps=10_000, seed=8)
    s = SimulationScenario(**base)
    grid = [0.02, 0.05, 0.1, 0.2, 0.5]
    configs = [
        ("fisher/rejection", FISHER, "rejection_volume"),
        ("simes/rejection", SIMES, "rejection_volume"),
        ("simes_storey/selection-minus-row", simes_storey(0.5),
         "selection_volume_minus_row"),
    ]
    lines, ok = [], True
    for label, method, stat in configs:
        margins = {c: c + 3 * est.se - est.mean
                   for c, est in dcc_probe(s, 2, method, grid, statistic=stat)}
        ok = ok and all(mg >= 0.0 for mg in margins.values())
        c_min = min(margins, key=margins.get)
        lines.append(f"{label} (worst c={c_min}: margin={margins[c_min]:.4f})")
    report(8, ok, "dependency control estimates <= c + 3SE on the full "
                  "c grid for: " + "; ".join(lines))


def test_criterion_9_structural_invariants():
    rng = random.Random(9)
    violations = 0
    max_iter_excess = 0
    for _ in range(1000):
        m = rng.randint(1, 12)
        p = [rng.random() ** rng.choice([1, 2]) for _ in range(m)]
        v = (1.0,) * m
        tc = ThresholdCollection(alpha=0.2, m=m)
        r = step_up(p, tc)
        thr = thresholds(tc, p)
        vol = weighted_volume(r.indices, v)
        # self-consistency with equality: R = {i: p_i <= Delta(i, |R|_v)}
        level_set = frozenset(i for i in range(m) if p[i] <= thr(i, vol))
        if level_set != r.indices:
            violations += 1
        # non-increasing: lowering p-values never shrinks the volume
        lower = [x * rng.random() for x in p]
        if weighted_volume(step_up(lower, tc).indices, v) < vol:
            violations += 1
        # stability: zeroing any rejected p-value leaves the set unchanged
        if not check_stability(p, tc):
            violations += 1
        # concordance: with p_i fixed at 0, |R^{-i}|_v is non-increasing
        # in the remaining coordinates
        if m >= 2:
            i = rng.randrange(m)
            base = list(p)
            base[i] = 0.0
            vol_base = step_up(base, tc).fixed_point_volume
            dropped = [x * rng.random() if j != i else 0.0
                       for j, x in enumerate(base)]
            if step_up(dropped, tc).fixed_point_volume < vol_base:
                violations += 1
        # the fixed-point map takes at most m + 1 passes to reach it
        max_iter_excess = max(max_iter_excess, oracles.step_up(p, tc)[2] - (m + 1))
    report(9, violations == 0 and max_iter_excess <= 0,
           f"{violations} structural-invariant violations over 1000 random "
           f"instances; fixed-point iterations exceeded m+1 by "
           f"{max(0, max_iter_excess)}")


def test_criterion_10_numerics_oracles():
    worst_cdf = max(abs(std_normal_cdf(x) - v) for x, v in PHI_ORACLE)
    worst_chi2 = max(abs(chi_square_survival(x, df) - v)
                     for (x, df), v in CHI2_ORACLE)
    p_grid = [1e-12, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99,
              1 - 1e-4, 1 - 1e-9, 1 - 1e-12]
    worst_rt = max(abs(std_normal_cdf(std_normal_quantile(p)) - p)
                   for p in p_grid)
    ok = worst_cdf <= 1e-12 and worst_chi2 <= 1e-12 and worst_rt <= 1e-9
    report(10, ok,
           f"cdf error {worst_cdf:.2e} <= 1e-12, chi-square survival error "
           f"{worst_chi2:.2e} <= 1e-12, quantile roundtrip error "
           f"{worst_rt:.2e} <= 1e-9 on the documented grids")
