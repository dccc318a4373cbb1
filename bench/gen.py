"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the CLI reads into ``out_dir`` and a
``truth.json`` beside them, and returns a dict describing the inputs. The
same seed gives byte-identical files. Floats are written with 17
significant digits, so the program parses exactly the values held here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import check

# replicate: the genomics meta-analysis shape of the paper.
REP_M, REP_N = 100_000, 5
REP_SIGNAL_SHARE = 0.05
REP_MU = 4.0
REP_Q = 0.1
REP_DEPTH = 7

# pc-family: groups of 2..50 hypotheses, about 50k in all.
PCF_GROUPS = 2_000
PCF_MIN_SIZE, PCF_MAX_SIZE = 2, 50
PCF_ALT_SHARE = 0.2
PCF_MU = 3.0
PCF_ALPHA = 0.05
PCF_U_PROPORTION = 0.5
PCF_DEPTH = 4

# monte-carlo: m x n = 200 x 5, u = 2, least-favourable partial
# conjunction nulls (true_k = u - 1 with a strong signal).
MC_M, MC_N, MC_U = 200, 5, 2
MC_ALT = 20
MC_MU = 6.0
MC_ALPHA = 0.05
MC_Q = 0.1
MC_REPS = {"fdr_simes_prds": 300, "fdr_fisher_indep": 300, "replicability": 400}


def _write_rows(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(rows))
        fh.write("\n")


def step_up_depth(p: np.ndarray, w: np.ndarray, v: np.ndarray, alpha: float,
                  harmonic: float = 1.0) -> int:
    """Steps the monotone step-up iteration r -> |{i : p_i <= alpha w_i
    (r / harmonic) / m}|_v takes from r = sum(v) to its fixed point."""
    r, steps = float(v.sum()), 0
    while True:
        steps += 1
        volume = float(v[p <= alpha * w * (r / harmonic) / p.size].sum())
        if volume == r:
            return steps
        r = volume


def _conditioned(draw, depth_of, depth: int, seed: int, stream: int):
    """First draw from the seed's sub-streams whose step-up depth is
    ``depth``. The fixed-point step-up costs one pass over the family per
    step, and the depth varies with the draw (6-8 steps for replicate, 3-5
    for pc-family), so without this the work of an invocation would change
    with the seed by up to a quarter."""
    for attempt in range(100):
        drawn = draw(np.random.default_rng([seed, stream, attempt]))
        if depth_of(drawn) == depth:
            return drawn
    raise RuntimeError(f"no draw with step-up depth {depth} for seed {seed}")


def _signal_mask(rng: np.random.Generator, k: np.ndarray, width: int) -> np.ndarray:
    """Row i carries signal in k[i] studies chosen at random."""
    rank = np.argsort(rng.random((k.size, width)), axis=1).argsort(axis=1)
    return rank < k[:, None]


def replicate(seed: int, out_dir: Path, m: int = REP_M) -> dict:
    """m x n p-value matrix with feature ids; about 5 % of rows carry
    signal in 1..n studies."""
    def draw(rng):
        signal = rng.random(m) < REP_SIGNAL_SHARE
        true_k = np.where(signal, rng.integers(1, REP_N + 1, m), 0)
        z = (rng.standard_normal((m, REP_N))
             + REP_MU * _signal_mask(rng, true_k, REP_N))
        return ndtr(-z), true_k

    def depth(drawn):
        combined = check.simes_pc_path(drawn[0])[:, 0]
        unit = np.ones(m)
        return step_up_depth(combined, unit, unit, REP_Q)

    mat, true_k = _conditioned(draw, depth, REP_DEPTH, seed, 1)
    ids = [f"gene{i:07d}" for i in range(m)]
    fmt = "%s" + ",%.17g" * REP_N
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix = out_dir / "matrix.csv"
    _write_rows(matrix, [fmt % (ids[i], *mat[i]) for i in range(m)])
    (out_dir / "truth.json").write_text(json.dumps(
        {"seed": seed, "m": m, "n": REP_N, "mu": REP_MU, "true_k": true_k.tolist()}))
    return {"matrix": mat, "ids": ids, "q": REP_Q,
            "argv": ["replicate", str(matrix), "--method", "simes",
                     "--q", str(REP_Q)]}


def pc_family(seed: int, out_dir: Path) -> dict:
    """One column of p-values with a group label per line and a w/v weights
    file. Members of a group are contiguous and labels sort in first-seen
    order, so weight row g belongs to group g."""
    def draw(rng):
        sizes = rng.integers(PCF_MIN_SIZE, PCF_MAX_SIZE + 1, PCF_GROUPS)
        u = np.array([max(1, math.ceil(PCF_U_PROPORTION * s)) for s in sizes])
        alt = rng.random(PCF_GROUPS) < PCF_ALT_SHARE
        # Null groups hold fewer than u_g signals, alternatives at least u_g.
        n_signal = np.where(alt, rng.integers(u, sizes + 1), rng.integers(0, u))
        p_groups = []
        for g in range(PCF_GROUPS):
            mask = np.zeros(sizes[g], dtype=bool)
            mask[rng.permutation(sizes[g])[:n_signal[g]]] = True
            p_groups.append(ndtr(-(rng.standard_normal(sizes[g]) + PCF_MU * mask)))
        # Penalty v grows with group size; prior w is log-normal, rescaled
        # so that sum(w * v) = G.
        v = sizes / sizes.mean()
        w = rng.lognormal(0.0, 0.5, PCF_GROUPS)
        w = w * PCF_GROUPS / float(np.dot(w, v))
        return sizes, u, n_signal, p_groups, w, v

    def depth(drawn):
        _, u, _, p_groups, w, v = drawn
        pc = np.array([check.fisher_pc_pvalue(pg, ug) for pg, ug in zip(p_groups, u)])
        return step_up_depth(pc, w, v, PCF_ALPHA,
                             sum(1.0 / j for j in range(1, PCF_GROUPS + 1)))

    sizes, u, n_signal, p_groups, w, v = _conditioned(draw, depth, PCF_DEPTH, seed, 2)
    names = [f"grp{g:05d}" for g in range(PCF_GROUPS)]
    out_dir.mkdir(parents=True, exist_ok=True)
    pvalues, labels, weights = (out_dir / "pvalues.csv", out_dir / "labels.txt",
                                out_dir / "weights.csv")
    _write_rows(pvalues, ["%.17g" % x for pg in p_groups for x in pg])
    _write_rows(labels, [names[g] for g in range(PCF_GROUPS) for _ in range(sizes[g])])
    _write_rows(weights, ["%.17g,%.17g" % (w[g], v[g]) for g in range(PCF_GROUPS)])
    (out_dir / "truth.json").write_text(json.dumps(
        {"seed": seed, "groups": PCF_GROUPS, "mu": PCF_MU, "sizes": sizes.tolist(),
         "n_signal": n_signal.tolist(), "u": u.tolist()}))
    return {"p_groups": p_groups, "names": names, "w": w, "v": v,
            "alpha": PCF_ALPHA, "u_proportion": PCF_U_PROPORTION,
            "argv": ["pc-test", str(pvalues), "--alpha", str(PCF_ALPHA),
                     "--method", "fisher", "--groups", str(labels),
                     "--u-proportion", str(PCF_U_PROPORTION),
                     "--shape", "reciprocal_sum", "--weights", str(weights)]}


def _mc_true_k(rng: np.random.Generator, alt_k_low: int) -> list[int]:
    """MC_ALT alternatives with k >= alt_k_low, the rest at k = u - 1."""
    k = np.full(MC_M, MC_U - 1)
    k[:MC_ALT] = rng.integers(alt_k_low, MC_N + 1, MC_ALT)
    return rng.permutation(k).tolist()


def monte_carlo(seed: int, out_dir: Path) -> dict:
    """Scenario file for ``pcfdr verify``: Simes under PRDS, Fisher under
    independence, and a replicability check, all at least-favourable nulls."""
    rng = np.random.default_rng([seed, 3])
    seeds = [int(s) for s in rng.integers(0, 2**31, 3)]

    def scenario(true_k, dependence, rho, rep_key, s):
        return {"m": MC_M, "n": MC_N, "true_k": true_k, "mu": MC_MU,
                "rho": rho, "dependence": dependence, "reps": MC_REPS[rep_key],
                "seed": s, "block_size": 4}

    checks = [
        {"check": "fdr_pc", "method": "simes", "u": MC_U, "alpha": MC_ALPHA,
         "scenario": scenario(_mc_true_k(rng, MC_U), "equicorrelated_prds",
                              0.5, "fdr_simes_prds", seeds[0])},
        {"check": "fdr_pc", "method": "fisher", "u": MC_U, "alpha": MC_ALPHA,
         "scenario": scenario(_mc_true_k(rng, MC_U), "independent", 0.0,
                              "fdr_fisher_indep", seeds[1])},
        # Replicability: k_hat overstates a k = u - 1 feature when its
        # next partial conjunction p-value falls under the threshold.
        {"check": "replicability", "method": "simes", "q": MC_Q,
         "rule": "step-up",
         "scenario": scenario(_mc_true_k(rng, MC_N), "equicorrelated_prds",
                              0.5, "replicability", seeds[2])},
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "scenario.json"
    path.write_text(json.dumps({"checks": checks}, indent=1))
    (out_dir / "truth.json").write_text(json.dumps(
        {"seed": seed, "true_k": [c["scenario"]["true_k"] for c in checks]}))
    return {"checks": checks, "argv": ["verify", "--scenario", str(path)]}


GENERATORS = {"replicate": replicate, "pc-family": pc_family,
              "monte-carlo": monte_carlo}
