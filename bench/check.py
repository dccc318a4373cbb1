"""Output checkers, independent of the package under test.

They import nothing from ``pcfdr`` and recompute each answer with numpy and
``scipy.special``: the Simes combination and partial conjunction path for
``replicate``, the Fisher partial conjunction p-values and the closed-form
weighted step-up for ``pc-test``, and the bounds a ``verify`` report must
meet. Each ``expected_*`` runs once per benchmark run; each ``check_*``
takes a parsed report and returns a list of problems, empty when it is
correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtrc

# Matches the program's floor before log in Fisher's statistic.
_LOG_FLOOR = 1e-300
# The program sums |S| q / m in another order than numpy does.
THRESHOLD_RTOL = 1e-12
# scipy's chdtrc against the program's own chi-square tail.
PC_PVALUE_ATOL = 1e-12


def simes_pc_path(mat: np.ndarray) -> np.ndarray:
    """(m, n) array whose column u-1 is the Simes partial conjunction
    p-value P^{u/n}: Simes applied to the n-u+1 largest p-values."""
    s = np.sort(mat, axis=1)
    m, n = s.shape
    path = np.empty((m, n))
    for u in range(1, n + 1):
        length = n - u + 1
        tail = s[:, u - 1:]
        path[:, u - 1] = np.minimum(
            1.0, (length * tail / np.arange(1, length + 1)).min(axis=1))
    return path


def expected_replicate(mat: np.ndarray, ids: list[str], q: float) -> dict:
    """Two-step analysis with unit weights and the identity shape.

    Step 1 is BH on the Simes combination in closed form: k* = max{k :
    c_(k) <= q k / m}. Step 2 gives k_hat = the number of leading u whose
    running maximum of P^{u/n} stays under q |S| / m.
    """
    m = mat.shape[0]
    path = simes_pc_path(mat)
    combined = path[:, 0]
    order = np.argsort(combined, kind="stable")
    ok = combined[order] <= q * np.arange(1, m + 1) / m
    k_star = int(np.nonzero(ok)[0][-1]) + 1 if ok.any() else 0
    selected = np.sort(order[:k_star])
    threshold = k_star * q / m
    running = np.maximum.accumulate(path[selected], axis=1)
    khat = (running <= threshold).sum(axis=1)
    return {
        "q": q,
        "selected": sorted(ids[i] for i in selected),
        "khat": {ids[i]: int(k) for i, k in zip(selected, khat)},
        "threshold": threshold,
        "selection_volume": float(k_star),
    }


def check_replicate(report: dict, exp: dict) -> list[str]:
    problems = []
    if report.get("q") != exp["q"]:
        problems.append(f"q {report.get('q')} != {exp['q']}")
    if report.get("selected") != exp["selected"]:
        got = set(report.get("selected") or [])
        want = set(exp["selected"])
        problems.append(f"selected set differs: {len(got - want)} extra, "
                        f"{len(want - got)} missing")
    if report.get("selection_volume") != exp["selection_volume"]:
        problems.append(f"selection_volume {report.get('selection_volume')} "
                        f"!= {exp['selection_volume']}")
    khat = report.get("khat") or {}
    bad = [k for k, v in exp["khat"].items() if khat.get(k) != v]
    if bad or len(khat) != len(exp["khat"]):
        problems.append(f"k_hat differs on {len(bad)} features, e.g. {bad[:3]}")
    thr = report.get("threshold_used") or {}
    t = exp["threshold"]
    off = [k for k in exp["khat"]
           if not isinstance(thr.get(k), float)
           or abs(thr[k] - t) > THRESHOLD_RTOL * t]
    if off or len(thr) != len(exp["khat"]):
        problems.append(f"threshold_used differs from {t!r} on {len(off)} features")
    return problems


def fisher_pc_pvalue(p: np.ndarray, u: int) -> float:
    """Fisher's combination of the len(p)-u+1 largest p-values."""
    tail = np.sort(p)[u - 1:]
    stat = -2.0 * np.log(np.maximum(tail, _LOG_FLOOR)).sum()
    return float(chdtrc(2 * tail.size, stat))


def expected_pc_family(p_groups: list[np.ndarray], names: list[str],
                       w: np.ndarray, v: np.ndarray, alpha: float,
                       u_proportion: float) -> dict:
    """Fisher partial conjunction p-values with u_g = ceil(prop * n_g), then
    the weighted step-up with the reciprocal-sum shape in closed form: sort
    by p/w, take the cumulative v-volume V_k, and reject the first k* with
    k* = max{k : p_(k) <= alpha w_(k) (V_k / H_G) / G}."""
    u = [max(1, math.ceil(u_proportion * len(pg))) for pg in p_groups]
    pc = np.array([fisher_pc_pvalue(pg, ug) for pg, ug in zip(p_groups, u)])
    g = len(p_groups)
    harmonic = sum(1.0 / j for j in range(1, g + 1))
    order = np.argsort(pc / w, kind="stable")
    volume = np.cumsum(v[order])
    ok = pc[order] <= alpha * w[order] * (volume / harmonic) / g
    k_star = int(np.nonzero(ok)[0][-1]) + 1 if ok.any() else 0
    return {
        "groups": names,
        "u": u,
        "pc_pvalues": pc,
        "rejected_groups": sorted(names[i] for i in order[:k_star]),
    }


def check_pc_family(report: dict, exp: dict) -> list[str]:
    problems = []
    if report.get("groups") != exp["groups"]:
        problems.append("group names or their order differ")
    if report.get("u") != exp["u"]:
        problems.append("per-group u differs from ceil(0.5 n_g)")
    pc = report.get("pc_pvalues")
    if not isinstance(pc, list) or len(pc) != len(exp["pc_pvalues"]):
        problems.append("pc_pvalues missing or of the wrong length")
    else:
        err = float(np.max(np.abs(np.asarray(pc, dtype=float) - exp["pc_pvalues"])))
        if not err <= PC_PVALUE_ATOL:
            problems.append(f"pc_pvalues off by up to {err:.3g}")
    if report.get("rejected_groups") != exp["rejected_groups"]:
        got = set(report.get("rejected_groups") or [])
        want = set(exp["rejected_groups"])
        problems.append(f"rejected groups differ: {len(got - want)} extra, "
                        f"{len(want - got)} missing")
    return problems


def expected_monte_carlo(checks: list[dict]) -> list[dict]:
    """For each check, the nominal level its estimate must stay under:
    alpha times the share of partial conjunction nulls for fdr_pc, q for
    replicability. verify adds three standard errors."""
    out = []
    for chk in checks:
        sc = chk["scenario"]
        if chk["check"] == "fdr_pc":
            n_null = sum(1 for k in sc["true_k"] if k < chk["u"])
            level = chk["alpha"] * n_null / sc["m"]
        else:
            level = chk["q"]
        out.append({"check": chk["check"], "method": chk["method"],
                    "scenario": sc, "level": level})
    return out


def check_monte_carlo(report: dict, exp: list[dict], exit_code: int) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    if report.get("pass") is not True:
        problems.append("report does not pass")
    records = report.get("records") or []
    if len(records) != len(exp):
        return problems + [f"{len(records)} records, expected {len(exp)}"]
    for i, (rec, want) in enumerate(zip(records, exp)):
        if (rec.get("check"), rec.get("method")) != (want["check"], want["method"]):
            problems.append(f"record {i} is not the {want['check']} check")
        if rec.get("scenario") != want["scenario"]:
            problems.append(f"record {i} ran another scenario")
        if rec.get("pass") is not True:
            problems.append(f"record {i} does not pass")
        results = rec.get("results") or []
        if len(results) != 1:
            problems.append(f"record {i} has {len(results)} results")
            continue
        r = results[0]
        est, se = r.get("estimate"), r.get("se")
        if not (isinstance(est, float) and isinstance(se, float)):
            problems.append(f"record {i} lacks an estimate or se")
            continue
        bound = want["level"] + 3 * se
        if not est > 0:
            problems.append(f"record {i}: estimate {est} is 0, the pass is vacuous")
        if not est <= bound:
            problems.append(f"record {i}: estimate {est} over bound {bound}")
        if r.get("pass") is not True:
            problems.append(f"record {i}: result does not pass")
        if not math.isclose(r.get("bound", math.nan), bound, rel_tol=1e-12):
            problems.append(f"record {i}: bound {r.get('bound')} != {bound}")
    return problems
