"""Monte Carlo harness for the meta-analysis setting.

Scenarios draw an m x n matrix of one-sided p-values from a Gaussian model:
within each study a one-factor equicorrelation structure (PRDS for rho >= 0),
independent entries, or negatively correlated exchangeable blocks as an
arbitrary-dependence stressor. Studies are mutually independent. Replicates
are keyed by (seed, rep_index) through a counter-based Philox stream.

The Monte Carlo functions draw, combine, step up and score chunks of
replicates stacked as (R, m, n) arrays, about 4,096 rows of m features per
chunk. Every step works row by row with the same floating-point operations
as on one matrix, so stacked and one-at-a-time draws, and the estimates
built from them, agree bitwise. For the same reason the replicates may be
split over the usable cores, in contiguous spans that forked children
draw and score (:func:`_map_chunks`): the estimates are the same, bit for
bit, on any number of cores.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _fork
from .combine import CombiningMethod
from .partial_conjunction import pc_pvalues
from .pc_testing import _int_vector
from .procedures import (
    IDENTITY,
    ShapeFunction,
    ThresholdCollection,
    WeightScheme,
    _index_mask,
    _step_up_rows,
    _volume_share,
    _volumes,
)
from .replicability import (
    SelectionRule,
    _khat_rows,
    _select_rows,
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
# Replicates are stacked in chunks of about this many rows of m features,
# which keeps every chunk array near _CHUNK_ROWS * n floats.
_CHUNK_ROWS = 4096
# Replicates are split over one process per this many drawn values: a fork,
# its pipe and its reap take about 2 ms, the work about 45 ns a value, so a
# split in two breaks even at about twice this many.
_MIN_DRAWS = 1 << 16


def _typed(x, name: str, kind: type = float):
    """``kind(x)`` for an integer ``x`` if ``kind`` is int, for any finite
    real ``x`` if it is float, else for an ``x`` of type ``kind``. Any
    other value, which a scenario file may hold in any field (``json``
    reads NaN, Infinity and 1e400 as floats), or an integer too large for
    a float, is a ValueError naming ``name``; a boolean is never a number."""
    cls, what = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
                 str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}[kind]
    if isinstance(x, bool) or not isinstance(x, cls):
        raise ValueError(f"{name}: must be {what}, not {x!r}")
    try:
        value = kind(x)
    except OverflowError as exc:  # an integer beyond the range of a float
        raise ValueError(f"{name}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name}: must be finite, not {x!r}")
    return value


@dataclass(frozen=True)
class SimulationScenario:
    """Ground truth and sampling model for one Monte Carlo experiment.

    Feature i has an effect (mean shift mu) in its first true_k[i] studies.
    At reps = 0 a Monte Carlo function draws nothing: it checks its arguments."""

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
        for name in ("m", "n", "reps", "seed", "block_size"):
            _typed(getattr(self, name), name, int)
        for name in ("mu", "rho"):
            _typed(getattr(self, name), name)
        _typed(self.dependence, "dependence", str)
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        object.__setattr__(self, "true_k", tuple(_int_vector(self.true_k, "true_k").tolist()))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed: {self.seed} outside [0, 2**64)")
        if len(self.true_k) != self.m:
            raise ValueError("true_k must have one entry per feature")
        if any(not 0 <= k <= self.n for k in self.true_k):
            raise ValueError("true_k entries must lie in [0, n]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.dependence not in _DEPENDENCE:
            raise ValueError(f"unknown dependence {self.dependence!r}")
        if self.reps < 0:
            raise ValueError("reps must be nonnegative")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.dependence == "block_arbitrary" and self.block_size < 2:
            raise ValueError("block_size must be at least 2")

    def true_null_features(self, u: int) -> frozenset[int]:
        """The features whose partial conjunction null at u holds, true_k < u;
        u must lie in [1, n]."""
        if not 1 <= u <= self.n:
            raise ValueError(f"u={u} outside [1, {self.n}]")
        return frozenset(i for i, k in enumerate(self.true_k) if k < u)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    se: float
    reps: int


def _estimate(values: Sequence[float]) -> McEstimate:
    """Mean and standard error of ``values``; of none, a NaN mean, SE 0."""
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return McEstimate(float(arr.mean()) if len(arr) else math.nan, se, len(arr))


def _draw(s: SimulationScenario, r0: int, r1: int) -> np.ndarray:
    """The p-value matrices of replicates r0, ..., r1 - 1, stacked as an
    (r1 - r0, m, n) array. Replicate r comes from its own Philox stream
    keyed by (scenario seed, r): one generator serves the chunk, its state
    reset to that key and counter 0 for each replicate, as a new
    ``Philox(key=...)`` would start."""
    from ._special import ufunc
    m, n = s.m, s.n
    prds = s.dependence == "equicorrelated_prds" and s.rho > 0.0
    z = np.empty((r1 - r0, m, n))
    z0 = np.empty((r1 - r0, 1, n))
    # A fixed seed, unlike Philox(key=...), draws no OS entropy. Its fresh
    # state (counter 0, nothing buffered) takes each replicate's key.
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    fresh = bits.state
    for j, rep in enumerate(range(r0, r1)):
        fresh["state"]["key"] = np.array([s.seed, rep], dtype=np.uint64)
        bits.state = fresh
        rng.standard_normal(out=z[j])
        if prds:
            rng.standard_normal(out=z0[j, 0])
    if prds:
        x = math.sqrt(s.rho) * z0 + math.sqrt(1.0 - s.rho) * z
    elif s.dependence == "block_arbitrary":
        x = _centre_blocks(z, s.block_size)
    else:
        x = z
    signal = np.arange(n)[None, :] < np.asarray(s.true_k)[:, None]
    x = x + s.mu * signal
    return ufunc("ndtr")(-x)  # one-sided upper-tail p-values


def _centre_blocks(z: np.ndarray, b: int) -> np.ndarray:
    """Centre each run of b consecutive features of every matrix in the
    (R, m, n) stack on its own mean and rescale to unit variance, which
    makes the features of a block exchangeable with correlation -1/(k-1).
    A short last block of k < b features is centred on its own; a block of
    one is left as it is."""
    r, m, n = z.shape
    x = z.copy()
    full = m - m % b
    for lo, hi, k in ((0, full, b), (full, m, m - full)):
        if k > 1 and hi > lo:
            blocks = z[:, lo:hi].reshape(r, -1, k, n)
            centred = blocks - blocks.mean(axis=2, keepdims=True)
            x[:, lo:hi] = (centred / math.sqrt(1.0 - 1.0 / k)).reshape(r, hi - lo, n)
    return x


def gen_meta_matrix(s: SimulationScenario, rep_index: int) -> np.ndarray:
    """Draw one m x n p-value matrix, deterministically keyed by
    (scenario seed, rep_index)."""
    return _draw(s, rep_index, rep_index + 1)[0]


def _map_chunks(s: SimulationScenario, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``fn`` of the stacked draws of all replicates, about _CHUNK_ROWS // m
    at a time, each a float array with a row per replicate, concatenated.
    ``fn`` must accept an empty (0, m, n) stack: a dry run on one, before any
    draw, has the code that applies each argument check it, and is returned
    at reps = 0. Replicates go in k = min(usable cores, reps, drawn values //
    _MIN_DRAWS) spans to :func:`_fork.map_rows`; if a child, a pipe or a fork
    fails, this process maps them all again, so that an error raises as here."""
    dry = fn(np.empty((0, s.m, s.n)))
    if not s.reps:
        return dry
    k = _fork.processes(min(s.reps, s.reps * s.m * s.n // _MIN_DRAWS))
    cuts = [s.reps * i // k for i in range(k + 1)]
    step = max(1, _CHUNK_ROWS // s.m)

    def mapped(span):
        return np.concatenate([fn(_draw(s, r0, min(span[1], r0 + step)))
                               for r0 in range(*span, step)])

    from ._special import ufunc
    ufunc("ndtr")  # the draw's compiled module, loaded before any fork, not in each child
    try:
        return _fork.map_rows(mapped, [*zip(cuts, cuts[1:])])
    except OSError:  # a failed child, pipe or fork
        return mapped((0, s.reps))


def mc_fdr_pc(s: SimulationScenario, u: int, method: CombiningMethod,
              tc: ThresholdCollection) -> McEstimate:
    """Monte Carlo estimate of the weighted FDR over the family of
    per-feature partial conjunction hypotheses at parameter u."""
    nulls = _index_mask(s.true_null_features(u), s.m)

    def fdps(mats):
        pc = pc_pvalues(mats.reshape(-1, s.n), u, method).reshape(len(mats), s.m)
        rejected = _step_up_rows(pc, tc)
        return _volume_share(rejected & nulls, rejected, tc.weights.penalty_v)

    return _estimate(_map_chunks(s, fdps))


def mc_replicability_error(s: SimulationScenario, rule: SelectionRule,
                           method: CombiningMethod, ws: WeightScheme,
                           q: float, beta: ShapeFunction = IDENTITY) -> McEstimate:
    """Monte Carlo estimate of the weighted proportion of selected features
    with an erroneous replicability lower bound."""
    true_k = np.asarray(s.true_k)

    def errors(mats):
        selected = _select_rows(mats, rule, method, ws)
        wrong = np.zeros_like(selected)
        wrong[selected] = (_khat_rows(mats[selected], selected, method, ws, q, beta)[0]
                           > np.broadcast_to(true_k, selected.shape)[selected])
        return _volume_share(wrong, selected, ws.penalty_v)

    return _estimate(_map_chunks(s, errors))


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
    if len(c_grid) == 0 or any(not 0 < c < math.inf for c in c_grid):
        raise ValueError("c grid must be nonempty and positive")
    nulls = sorted(s.true_null_features(u))
    if not nulls:
        raise ValueError("scenario has no true partial conjunction null to probe")
    probe = nulls[0]
    tc = ThresholdCollection(alpha=alpha, m=s.m)
    rule = SelectionRule("step_up_on_combined", alpha=alpha)

    def probed(mats):
        pc = pc_pvalues(mats.reshape(-1, s.n), u, method).reshape(len(mats), s.m)
        if statistic == "rejection_volume":
            mask = _step_up_rows(pc, tc)
        else:
            mats[:, probe] = 0.0
            mask = _select_rows(mats, rule, method, tc.weights)
        return np.stack([pc[:, probe], _volumes(mask, tc.weights.penalty_v)], axis=1)

    p_u, vol = _map_chunks(s, probed).T
    positive = vol > 0
    inverse = np.divide(1.0, vol, out=np.zeros(len(vol)), where=positive)
    return [(float(c), _estimate(np.where(positive & (p_u <= c * vol), inverse, 0.0)))
            for c in c_grid]
