"""Step-up multiple testing procedures built from threshold collections.

A threshold collection assigns each hypothesis a rejection threshold that
grows with the rejection volume r (the penalty-weighted size of the
rejection set). The step-up procedure rejects L(r_hat) where r_hat is the
greatest fixed point of r -> |L(r)|_v, found by monotone iteration from
r0 = sum(v). With unit weights and the identity shape this is the classical
Benjamini-Hochberg procedure; the reciprocal-sum shape gives the
Benjamini-Yekutieli correction; the adaptive variant plugs in the Storey
estimate of the proportion of nulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combine import _harmonic, storey_pi0

__all__ = [
    "ShapeFunction",
    "IDENTITY",
    "RECIPROCAL_SUM",
    "ThresholdCollection",
    "RejectionSet",
    "WeightNormalizationError",
    "weighted_volume",
    "step_up",
    "adjusted_pvalues",
    "check_stability",
]

_NORM_RTOL = 1e-9


class WeightNormalizationError(ValueError):
    """Raised when sum(w_i * v_i) deviates from m beyond tolerance."""


@dataclass(frozen=True)
class ShapeFunction:
    """Non-decreasing transform of the rejection volume.

    identity:       beta(r) = r
    reciprocal_sum: beta(r) = r / (1 + 1/2 + ... + 1/m)
    discrete_nu:    beta(r) = sum_{x <= r} x * nu(x) for a discrete
                    probability distribution nu on positive support
    """

    kind: str = "identity"
    nu: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "reciprocal_sum", "discrete_nu"):
            raise ValueError(f"unknown shape function {self.kind!r}")
        if self.kind == "discrete_nu":
            if not self.nu:
                raise ValueError("discrete_nu shape requires support points")
            total = sum(mass for _, mass in self.nu)
            if any(x <= 0 or mass < 0 for x, mass in self.nu):
                raise ValueError("nu must live on positive support with nonnegative masses")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"nu masses sum to {total}, expected 1")
        elif self.nu is not None:
            raise ValueError(f"shape {self.kind!r} takes no nu")

    def __call__(self, r: float | np.ndarray, m: int) -> float | np.ndarray:
        """beta(r) for a volume r, or elementwise for an array of volumes."""
        if self.kind == "identity":
            return r
        if self.kind == "reciprocal_sum":
            return r / _harmonic(m)
        # Excluded support points add an exact 0.0, so a scalar r gives the
        # same sum as adding the included terms alone.
        return sum(x * mass * (x <= r) for x, mass in self.nu)


IDENTITY = ShapeFunction("identity")
RECIPROCAL_SUM = ShapeFunction("reciprocal_sum")


@dataclass(frozen=True)
class ThresholdCollection:
    """Parameters of a factorized threshold collection.

    Non-adaptive: Delta(i, r) = alpha * w_i * beta(r) / m.
    Adaptive:     Delta(r) = alpha * r / (m * pi0_hat(lambda)), with unit
    prior weights and the identity shape required.
    """

    alpha: float
    m: int
    prior_w: tuple[float, ...] | None = None
    shape: ShapeFunction = IDENTITY
    adaptive_lambda: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 1]")
        if self.m < 1:
            raise ValueError("m must be positive")
        w = (1.0,) * self.m if self.prior_w is None else tuple(map(float, self.prior_w))
        object.__setattr__(self, "prior_w", w)
        w = np.asarray(w)
        if w.shape != (self.m,):
            raise ValueError("prior_w length mismatch")
        if (w < 0).any():
            raise ValueError("prior weights must be nonnegative")
        if self.adaptive_lambda is not None:
            if not 0.0 < self.adaptive_lambda < 1.0:
                raise ValueError("adaptive lambda must lie in (0, 1)")
            if (w != 1.0).any():
                raise ValueError("adaptive thresholds require unit prior weights")
            if self.shape.kind != "identity":
                raise ValueError("adaptive thresholds require the identity shape")

    def _scale(self, p) -> float:
        """scale with Delta(i, r) = alpha * w_i * beta(r) / scale: m, or in
        adaptive mode m * pi0_hat(lambda) of the supplied p-values."""
        if self.adaptive_lambda is None:
            return self.m
        return self.m * storey_pi0(p, self.adaptive_lambda)

    def threshold_array(self, p) -> Callable[[float], np.ndarray]:
        """Return r -> (Delta(i, r))_i as an array, binding the Storey
        plug-in to the supplied p-values in adaptive mode."""
        beta, scale, m = self.shape, self._scale(p), self.m
        aw = self.alpha * np.asarray(self.prior_w)
        return lambda r: aw * beta(r, m) / scale

    def thresholds(self, p: Sequence[float]) -> Callable[[int, float], float]:
        """Return Delta(i, r) as a function of one hypothesis; see
        :meth:`threshold_array`."""
        level = self.threshold_array(p)
        return lambda i, r: float(level(r)[i])


@dataclass(frozen=True)
class RejectionSet:
    """Output of a step-up procedure (0-based hypothesis indices)."""

    indices: frozenset[int]
    fixed_point_volume: float
    iterations: int = 0


def _volume(v: np.ndarray) -> float:
    """Sum of v, added in index order as Python's sum() adds."""
    return float(np.cumsum(v)[-1]) if v.size else 0.0


def weighted_volume(indices: Sequence[int] | frozenset[int], v: Sequence[float]) -> float:
    """|A|_v = sum of penalty weights over the index set, added in index
    order, so a step-up's rejection set gives its fixed-point volume."""
    v = np.asarray(v, dtype=float)
    idx = np.sort(np.fromiter(indices, dtype=int, count=len(indices)))
    if idx.size and (idx[0] < 0 or idx[-1] >= len(v)):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexError(f"index {bad} outside [0, {len(v)})")
    return _volume(v[idx])


def _unnormalized_total(w: np.ndarray, v: np.ndarray) -> float | None:
    """sum(w * v), added in index order, if it is off len(w) beyond the
    relative tolerance; None for normalized weights."""
    total, n = _volume(w * v), len(w)
    return total if abs(total - n) > _NORM_RTOL * n else None


def _inputs(p: Sequence[float], tc: ThresholdCollection,
            penalty_v: Sequence[float] | None) -> tuple[np.ndarray, np.ndarray]:
    """The p-values and penalty weights as arrays, checked against ``tc``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (tc.m,):
        raise ValueError(f"expected {tc.m} p-values, got {len(p)}")
    v = np.ones(tc.m) if penalty_v is None else np.asarray(penalty_v, dtype=float)
    if v.shape != (tc.m,):
        raise ValueError("penalty_v length mismatch")
    if (v < 0).any():
        raise ValueError("penalty weights must be nonnegative")
    if (total := _unnormalized_total(np.asarray(tc.prior_w), v)) is not None:
        raise WeightNormalizationError(f"sum(w_i * v_i) = {total}, expected m = {tc.m}")
    return p, v


def step_up(p: Sequence[float], tc: ThresholdCollection,
            penalty_v: Sequence[float] | None = None) -> RejectionSet:
    """Step-up procedure: reject L(r_hat) at the greatest fixed point r_hat.

    The iteration r -> |L(r)|_v starting from r0 = sum(v) is monotonically
    nonincreasing and reaches the greatest fixed point in at most m+1 steps.
    Each level set L(r) = {i: p_i <= Delta(i, r)} is one array comparison.
    """
    p, v = _inputs(p, tc, penalty_v)
    level = tc.threshold_array(p)
    r = _volume(v)
    iterations = 0
    while True:
        iterations += 1
        rejected = p <= level(r)
        vol = _volume(v[rejected])
        if vol == r:
            break
        r = vol
    return RejectionSet(frozenset(np.flatnonzero(rejected).tolist()), vol, iterations)


def adjusted_pvalues(p: Sequence[float], tc: ThresholdCollection,
                     penalty_v: Sequence[float] | None = None) -> list[float]:
    """Per-hypothesis minimum rejecting level alpha of ``step_up``, capped
    at 1; ``tc.alpha`` is not used.

    With q = p / w sorted ascending and V_k the v-volume of the first k,
    level alpha rejects the first k* for the largest k* with
    q_(k*) <= alpha * beta(V_k*) / scale (Blanchard & Roquain 2008). So the
    adjusted p-value at sorted place k is the running minimum, from the top
    down to k, of scale * q_(j) / beta(V_j); scale is m, or m * pi0_hat in
    adaptive mode. p = 0 gives q = 0 (rejected at every level) and
    w = 0 < p gives q = inf (never rejected).
    """
    p, v = _inputs(p, tc, penalty_v)
    beta, scale = tc.shape, tc._scale(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(p == 0.0, 0.0, p / np.asarray(tc.prior_w))
        order = np.argsort(q, kind="stable")
        q = q[order]
        ratio = np.where(q == 0.0, 0.0, scale * q / beta(np.cumsum(v[order]), tc.m))
    adj = np.empty(tc.m)
    adj[order] = np.minimum(1.0, np.minimum.accumulate(ratio[::-1])[::-1])
    return adj.tolist()


def check_stability(p: Sequence[float], tc: ThresholdCollection,
                    penalty_v: Sequence[float] | None = None) -> bool:
    """Witness check: zeroing any rejected p-value reproduces the identical
    rejection set."""
    if penalty_v is None:
        penalty_v = (1.0,) * tc.m
    base = step_up(p, tc, penalty_v)
    for i in base.indices:
        q = list(p)
        q[i] = 0.0
        if step_up(q, tc, penalty_v).indices != base.indices:
            return False
    return True
