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

from .combine import DEFAULT_LAMBDA, _harmonic, storey_pi0

__all__ = [
    "ShapeFunction",
    "IDENTITY",
    "RECIPROCAL_SUM",
    "ThresholdCollection",
    "RejectionSet",
    "WeightNormalizationError",
    "weighted_volume",
    "step_up",
    "adaptive_step_up_storey",
    "adjusted_pvalues",
    "check_self_consistency",
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

    def __call__(self, r: float, m: int) -> float:
        if self.kind == "identity":
            return r
        if self.kind == "reciprocal_sum":
            return r / _harmonic(m)
        return sum(x * mass for x, mass in self.nu if x <= r)


IDENTITY = ShapeFunction("identity")
RECIPROCAL_SUM = ShapeFunction("reciprocal_sum")


@dataclass(frozen=True)
class ThresholdCollection:
    """Parameters of a factorized threshold collection.

    Non-adaptive: Delta(i, r) = alpha * w_i * beta(r) / m.
    Adaptive:     Delta(r) = alpha * r / (m * pi0_hat(lambda)), with unit
    prior weights required.
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

    def threshold_array(self, p) -> Callable[[float], np.ndarray]:
        """Return r -> (Delta(i, r))_i as an array, binding the Storey
        plug-in to the supplied p-values in adaptive mode."""
        alpha, m = self.alpha, self.m
        if self.adaptive_lambda is not None:
            pi0 = storey_pi0(p, self.adaptive_lambda)
            return lambda r: np.full(m, alpha * r / (m * pi0))
        aw, shape = alpha * np.asarray(self.prior_w), self.shape
        return lambda r: aw * shape(r, m) / m

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


def weighted_volume(indices: Sequence[int] | frozenset[int], v: Sequence[float]) -> float:
    """|A|_v = sum of penalty weights over the index set."""
    m = len(v)
    total = 0.0
    for i in indices:
        if not 0 <= i < m:
            raise IndexError(f"index {i} outside [0, {m})")
        total += v[i]
    return total


def _volume(v: np.ndarray) -> float:
    """Sum of v, added in index order as Python's sum() adds."""
    return float(np.cumsum(v)[-1]) if v.size else 0.0


def _check_weights(tc: ThresholdCollection, penalty_v: Sequence[float] | None,
                   renormalize: bool) -> tuple[ThresholdCollection, np.ndarray]:
    v = np.ones(tc.m) if penalty_v is None else np.asarray(penalty_v, dtype=float)
    if v.shape != (tc.m,):
        raise ValueError("penalty_v length mismatch")
    if (v < 0).any():
        raise ValueError("penalty weights must be nonnegative")
    total = _volume(np.asarray(tc.prior_w) * v)
    if abs(total - tc.m) > _NORM_RTOL * tc.m:
        if not renormalize:
            raise WeightNormalizationError(
                f"sum(w_i * v_i) = {total}, expected m = {tc.m}")
        scale = tc.m / total
        tc = ThresholdCollection(tc.alpha, tc.m,
                                 tuple(wi * scale for wi in tc.prior_w),
                                 tc.shape, tc.adaptive_lambda)
    return tc, v


def step_up(p: Sequence[float], tc: ThresholdCollection,
            penalty_v: Sequence[float] | None = None,
            renormalize: bool = False) -> RejectionSet:
    """Step-up procedure: reject L(r_hat) at the greatest fixed point r_hat.

    The iteration r -> |L(r)|_v starting from r0 = sum(v) is monotonically
    nonincreasing and reaches the greatest fixed point in at most m+1 steps.
    Each level set L(r) = {i: p_i <= Delta(i, r)} is one array comparison.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (tc.m,):
        raise ValueError(f"expected {tc.m} p-values, got {len(p)}")
    tc, v = _check_weights(tc, penalty_v, renormalize)
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


def adaptive_step_up_storey(p: Sequence[float], alpha: float,
                            lam: float = DEFAULT_LAMBDA) -> RejectionSet:
    """One-stage adaptive step-up with the Storey plug-in: BH at effective
    level alpha / pi0_hat(lambda)."""
    tc = ThresholdCollection(alpha=alpha, m=len(p), adaptive_lambda=lam)
    return step_up(p, tc)


def adjusted_pvalues(p: Sequence[float], tc: ThresholdCollection,
                     penalty_v: Sequence[float] | None = None,
                     tol: float = 1e-10) -> list[float]:
    """Per-hypothesis minimum rejecting level, capped at 1.

    Closed form (running minimum of m * p_(k) / k from the top) for the
    plain unit-weight identity-shape case; bisection over alpha otherwise.
    """
    m = tc.m
    if len(p) != m:
        raise ValueError(f"expected {m} p-values, got {len(p)}")
    if penalty_v is None:
        penalty_v = (1.0,) * m
    plain = (tc.adaptive_lambda is None and tc.shape.kind == "identity"
             and all(w == 1.0 for w in tc.prior_w)
             and all(v == 1.0 for v in penalty_v))
    if plain:
        order = sorted(range(m), key=lambda i: p[i])
        adj = [0.0] * m
        running = 1.0
        for rank in range(m, 0, -1):
            i = order[rank - 1]
            running = min(running, m * p[i] / rank)
            adj[i] = running
        return adj

    def rejected_at(alpha: float) -> frozenset[int]:
        tc_a = ThresholdCollection(alpha, m, tc.prior_w, tc.shape, tc.adaptive_lambda)
        return step_up(p, tc_a, penalty_v).indices

    adj = []
    top = rejected_at(1.0)
    for i in range(m):
        if i not in top:
            adj.append(1.0)
            continue
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid <= 0.0:
                break
            if i in rejected_at(mid):
                hi = mid
            else:
                lo = mid
        adj.append(hi)
    return adj


def check_self_consistency(p: Sequence[float], tc: ThresholdCollection,
                           penalty_v: Sequence[float],
                           candidate: RejectionSet) -> bool:
    """True iff every candidate index i satisfies p_i <= Delta(i, |candidate|_v)."""
    p = np.asarray(p, dtype=float)
    idx = np.fromiter(candidate.indices, dtype=int, count=len(candidate.indices))
    vol = weighted_volume(candidate.indices, penalty_v)
    return bool((p[idx] <= tc.threshold_array(p)(vol)[idx]).all())


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
