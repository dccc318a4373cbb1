"""Monte Carlo harness for the meta-analysis setting.

Scenarios draw an m x n matrix of one-sided p-values from a Gaussian model:
within each study a one-factor equicorrelation structure (PRDS for rho >= 0),
independent entries, or negatively correlated exchangeable blocks as an
arbitrary-dependence stressor. Studies are mutually independent. Replicates
are keyed by (seed, rep_index) through a counter-based Philox stream, so
parallel and serial execution agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from .combine import CombiningMethod
from .partial_conjunction import pc_pvalues
from .pc_testing import WeightScheme, realized_weighted_fdp
from .procedures import (
    IDENTITY,
    ShapeFunction,
    ThresholdCollection,
    step_up,
    weighted_volume,
)
from .replicability import (
    SelectionRule,
    khat_bounds,
    realized_replicability_error,
    select_features,
)

__all__ = [
    "SimulationScenario",
    "McEstimate",
    "gen_meta_matrix",
    "mc_fdr_pc",
    "mc_replicability_error",
    "dcc_probe",
]

_DEPENDENCE = ("independent", "equicorrelated_prds", "block_arbitrary")


@dataclass(frozen=True)
class SimulationScenario:
    """Ground truth and sampling model for one Monte Carlo experiment.

    Feature i has an effect (mean shift mu) in its first true_k[i] studies.
    """

    m: int
    n: int
    true_k: tuple[int, ...]
    mu: float = 0.0
    rho: float = 0.0
    dependence: str = "independent"
    reps: int = 1
    seed: int = 0
    block_size: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_k", tuple(int(k) for k in self.true_k))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if len(self.true_k) != self.m:
            raise ValueError("true_k must have one entry per feature")
        if any(not 0 <= k <= self.n for k in self.true_k):
            raise ValueError("true_k entries must lie in [0, n]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.dependence not in _DEPENDENCE:
            raise ValueError(f"unknown dependence {self.dependence!r}")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.dependence == "block_arbitrary" and self.block_size < 2:
            raise ValueError("block_size must be at least 2")

    def true_null_features(self, u: int) -> frozenset[int]:
        return frozenset(i for i, k in enumerate(self.true_k) if k < u)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationScenario":
        d = dict(d)
        d["true_k"] = tuple(d["true_k"])
        return cls(**d)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    se: float
    reps: int


def _estimate(values: Sequence[float]) -> McEstimate:
    arr = np.asarray(values, dtype=float)
    n = arr.size
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(float(arr.mean()), se, n)


def gen_meta_matrix(s: SimulationScenario, rep_index: int) -> np.ndarray:
    """Draw one m x n p-value matrix, deterministically keyed by
    (scenario seed, rep_index)."""
    from scipy.special import ndtr
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
    return ndtr(-x)  # one-sided upper-tail p-values


def mc_fdr_pc(s: SimulationScenario, u: int, method: CombiningMethod,
              ws: WeightScheme, tc: ThresholdCollection) -> McEstimate:
    """Monte Carlo estimate of the weighted FDR over the family of
    per-feature partial conjunction hypotheses at parameter u."""
    if not 1 <= u <= s.n:
        raise ValueError(f"u={u} outside [1, {s.n}]")
    nulls = s.true_null_features(u)
    fdps = []
    for rep in range(s.reps):
        pc = pc_pvalues(gen_meta_matrix(s, rep), u, method)
        rej = step_up(pc, tc, ws.penalty_v)
        fdps.append(realized_weighted_fdp(rej.indices, nulls, ws.penalty_v))
    return _estimate(fdps)


def mc_replicability_error(s: SimulationScenario, rule: SelectionRule,
                           method: CombiningMethod, ws: WeightScheme,
                           q: float, beta: ShapeFunction = IDENTITY) -> McEstimate:
    """Monte Carlo estimate of the weighted proportion of selected features
    with an erroneous replicability lower bound."""
    errors = []
    for rep in range(s.reps):
        mat = gen_meta_matrix(s, rep)
        sel = select_features(mat, rule, method, ws)
        report = khat_bounds(mat, sel, method, ws, q, beta)
        errors.append(realized_replicability_error(report, s.true_k, ws.penalty_v))
    return _estimate(errors)


def dcc_probe(s: SimulationScenario, u: int, method: CombiningMethod,
              c_grid: Sequence[float],
              statistic: str = "rejection_volume",
              alpha: float = 0.05) -> list[tuple[float, McEstimate]]:
    """Probe the dependency control condition E[1(U <= c V)/V] <= c.

    U is the partial conjunction p-value of a fixed true-null feature; V is a
    non-increasing statistic of the matrix: either the weighted rejection
    volume of the BH-type step-up at level ``alpha`` applied to all the
    partial conjunction p-values, or the selection volume obtained after
    zeroing the probed feature's row (the stable-procedure witness).
    Zero-volume replicates contribute 0.
    """
    if statistic not in ("rejection_volume", "selection_volume_minus_row"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if any(c <= 0 for c in c_grid):
        raise ValueError("c grid must be positive")
    nulls = sorted(s.true_null_features(u))
    if not nulls:
        raise ValueError("scenario has no true partial conjunction null to probe")
    probe = nulls[0]
    ws = WeightScheme.unit(s.m)
    tc = ThresholdCollection(alpha=alpha, m=s.m)
    rule = SelectionRule("step_up_on_combined", alpha=alpha)
    pairs: list[tuple[float, float]] = []
    for rep in range(s.reps):
        mat = gen_meta_matrix(s, rep)
        pc = pc_pvalues(mat, u, method)
        p_u = float(pc[probe])
        if statistic == "rejection_volume":
            vol = step_up(pc, tc, ws.penalty_v).fixed_point_volume
        else:
            zeroed = mat.copy()
            zeroed[probe] = 0.0
            sel = select_features(zeroed, rule, method, ws)
            vol = weighted_volume(sel, ws.penalty_v)
        pairs.append((p_u, vol))
    results = []
    for c in c_grid:
        terms = [(1.0 / v if p <= c * v else 0.0) if v > 0 else 0.0
                 for p, v in pairs]
        results.append((float(c), _estimate(terms)))
    return results
