"""Step-up multiple testing procedures built from threshold collections.

A threshold collection assigns each hypothesis a rejection threshold that
grows with the rejection volume r (the penalty-weighted size of the
rejection set). The step-up procedure rejects L(r_hat) where r_hat is the
greatest fixed point of r -> |L(r)|_v, found in closed form from the keys
p / w in ascending order: a float sort where v is constant, and complex
keys p / w + i * v where v varies. With unit weights and the identity
shape this is the classical Benjamini-Hochberg procedure; the
reciprocal-sum shape gives the Benjamini-Yekutieli correction; the
adaptive variant plugs in the Storey estimate of the proportion of nulls.
A collection holds one ``WeightScheme`` of prior weights w and penalty
weights v, whose weight rule is checked once, when the scheme is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .combine import _check_lambda, _harmonic, _storey_pi0_rows

__all__ = [
    "ShapeFunction",
    "IDENTITY",
    "RECIPROCAL_SUM",
    "WeightScheme",
    "ThresholdCollection",
    "RejectionSet",
    "WeightNormalizationError",
    "weighted_volume",
    "step_up",
    "adjusted_pvalues",
]

_NORM_RTOL = 1e-9
_LEAST = np.nextafter(0.0, 1.0)


class WeightNormalizationError(ValueError):
    """Raised when prior weights w and penalty weights v break the rule
    w >= 0, v > 0, sum(w * v) = len(w)."""


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
            if any(not (0 < x < np.inf and 0 <= mass < np.inf) for x, mass in self.nu):
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


def _readonly(x, dtype=np.float64) -> np.ndarray:
    """A read-only ``dtype`` array of ``x``: ``x`` itself if it is one
    already and owns its data, as the ones of ``WeightScheme.unit`` are, so
    that w and v share them; else a copy."""
    if (isinstance(x, np.ndarray) and x.dtype == dtype
            and x.flags.owndata and not x.flags.writeable):
        return x
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def _check_weights(w: np.ndarray, v: np.ndarray) -> None:
    """The weight rule of the weighted step-up (Blanchard & Roquain 2008):
    prior weights w >= 0 and penalty weights v > 0, of equal length G, with
    sum(w * v) = G, added in index order, to a relative tolerance. A
    product 0 * inf is NaN without a warning: the NaN total reports it."""
    if w.ndim != 1 or w.shape != v.shape:
        raise WeightNormalizationError("weight vectors must have equal length")
    if (w < 0).any():
        raise WeightNormalizationError("prior weights must be nonnegative")
    if (v <= 0).any():
        raise WeightNormalizationError("penalty weights must be positive")
    g = len(w)
    with np.errstate(invalid="ignore"):
        wv = w * v
    total = float(np.cumsum(wv, out=wv)[-1]) if g else 0.0
    if not abs(total - g) <= _NORM_RTOL * g:
        raise WeightNormalizationError(f"sum(w_g * v_g) = {total}, expected G = {g}")


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Prior weights w >= 0 and penalty weights v > 0 of G hypotheses with
    sum(w_g * v_g) = G, checked here, once. Both are held as read-only
    float64 arrays, so schemes compare and hash by identity, and the flag
    ``constant_v`` (v constant), set here, cannot go stale."""

    prior_w: np.ndarray
    penalty_v: np.ndarray
    constant_v: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w, v = _readonly(self.prior_w), _readonly(self.penalty_v)
        object.__setattr__(self, "prior_w", w)
        object.__setattr__(self, "penalty_v", v)
        _check_weights(w, v)
        object.__setattr__(self, "constant_v", bool((v == v[:1]).all()))

    @classmethod
    def unit(cls, g: int) -> "WeightScheme":
        """w = v = 1: one read-only array of ones serves as both."""
        ones = np.ones(g)
        ones.setflags(write=False)
        return cls(ones, ones)

    def _sized(self, m: int) -> "WeightScheme":
        """This scheme, if it weighs m hypotheses; else a ValueError."""
        if len(self.prior_w) != m:
            raise ValueError("weight scheme sized for a different feature count")
        return self


@dataclass(frozen=True, eq=False)
class ThresholdCollection:
    """Parameters of a factorized threshold collection.

    Non-adaptive: Delta(i, r) = alpha * w_i * beta(r) / m.
    Adaptive:     Delta(r) = alpha * r / (m * pi0_hat(lambda)), with unit
    prior weights and the identity shape required.

    ``weights`` holds w and the penalty weights v of the rejection volume;
    None stands for ``WeightScheme.unit(m)``. Collections compare and hash
    by identity.
    """

    alpha: float
    m: int
    weights: WeightScheme | None = None
    shape: ShapeFunction = IDENTITY
    adaptive_lambda: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 1]")
        if self.m < 1:
            raise ValueError("m must be positive")
        if not isinstance(self.weights, (WeightScheme, type(None))):
            raise TypeError(f"weights must be a WeightScheme, not {type(self.weights).__name__}")
        object.__setattr__(self, "weights", WeightScheme.unit(self.m) if self.weights is None
                           else self.weights._sized(self.m))
        if self.adaptive_lambda is not None:
            _check_lambda(self.adaptive_lambda)
            if (self.weights.prior_w != 1.0).any():
                raise ValueError("adaptive thresholds require unit prior weights")
            if self.shape.kind != "identity":
                raise ValueError("adaptive thresholds require the identity shape")

    def _scales(self, P: np.ndarray) -> np.ndarray:
        """Per row of the (R, m) p-value array P, the scale of its levels
        alpha * beta(r) / scale: m, or m * pi0_hat(lambda) in adaptive mode."""
        if self.adaptive_lambda is None:
            return np.full(len(P), float(self.m))
        return self.m * _storey_pi0_rows(P, self.adaptive_lambda)


@dataclass(frozen=True)
class RejectionSet:
    """Output of a step-up procedure (0-based hypothesis indices). The
    closed form evaluates the map r -> |L(r)|_v once, at its fixed point,
    so ``iterations`` is always 1."""

    indices: frozenset[int]
    fixed_point_volume: float
    iterations: int = 1


def _volumes(mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row of the (R, m) boolean mask, the sum of v over the row's set,
    added in index order: each excluded entry adds an exact 0.0, so each
    sum equals that of the selected entries alone, added left to right."""
    out = np.zeros(mask.shape)
    np.copyto(out, v, where=mask)
    return np.cumsum(out, axis=1, out=out)[:, -1].copy()


def _volume_share(part: np.ndarray, whole: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row, the v-volume of the ``part`` mask over that of the ``whole``
    mask, with 0/0 = 0: the weighted error proportions of the scorers."""
    total = _volumes(whole, v)
    return np.divide(_volumes(part, v), total, out=np.zeros(len(total)), where=total != 0.0)


def _index_mask(indices, m: int) -> np.ndarray:
    """The (m,) boolean mask of an index set; IndexError outside [0, m)."""
    idx = np.fromiter(indices, dtype=int)
    bad = idx[(idx < 0) | (idx >= m)]
    if bad.size:
        raise IndexError(f"index {bad[0]} outside [0, {m})")
    mask = np.zeros(m, dtype=bool)
    mask[idx] = True
    return mask


def weighted_volume(indices: Sequence[int] | frozenset[int], v: Sequence[float]) -> float:
    """|A|_v = sum of penalty weights over the index set, added in index
    order, so a step-up's rejection set gives its fixed-point volume."""
    v = np.asarray(v, dtype=float)
    return float(_volumes(_index_mask(indices, len(v))[None], v)[0])


def _inputs(P: np.ndarray, tc: ThresholdCollection) -> None:
    """Check every row of the (R, m) float array P against ``tc``."""
    if P.ndim != 2 or P.shape[1] != tc.m:
        raise ValueError(f"expected {tc.m} p-values, got {P.shape[-1]}")
    if (bad := ~((P >= 0.0) & (P <= 1.0))).any():  # NaN too
        raise ValueError(f"p-value {P.flat[np.argmax(bad)]} outside [0, 1]")


def _keys(P: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The keys q = p / w of the (R, m) array P, into ``out`` if given:
    q = 0 where p = 0 (rejected at every level), q = inf where w = 0 < p
    (never rejected), and the least positive float where a positive p / w
    underflows, as it is not rejected where beta is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.maximum(np.divide(P, w, out=out), _LEAST, out=out)
    np.copyto(q, 0.0, where=P == 0.0)
    return q


def _sorted_keys(P: np.ndarray, tc: ThresholdCollection) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (R, m) array P, its keys ascending and the running
    sums V_k of v in that order. Where v is constant, tied keys cannot
    change V_k: the float keys are sorted, and V_k is one (1, m) row for
    all rows. Else the keys and v are the real and imaginary parts of one
    complex array sorted in place, which numpy orders by real part, then
    imaginary part: ties go by v, so the sums do not depend on the sort
    algorithm."""
    ws = tc.weights
    if ws.constant_v:
        qs = _keys(P, ws.prior_w)
        qs.sort(axis=1)
        return qs, np.cumsum(ws.penalty_v)[None]
    z = np.empty(P.shape, dtype=complex)
    _keys(P, ws.prior_w, out=z.real)
    z.imag = ws.penalty_v
    z.sort(axis=1)
    return z.real, np.cumsum(z.imag, axis=1, out=z.imag)


def _step_up_rows(P: np.ndarray, tc: ThresholdCollection) -> np.ndarray:
    """The step-up procedure on each row of the (R, m) array P, R >= 1: the
    (R, m) rejection masks. :func:`_volumes` of a mask is its rejection
    volume, added in index order.

    A row rejects its first k* sorted keys for the largest k* with
    q_(k*) <= alpha * beta(V_k*) / scale (Blanchard & Roquain 2008). As
    beta does not decrease, k* ends a run of equal keys: the row rejects
    {i: q_i <= q_(k*)}, and V_k* is the greatest fixed point of
    r -> |L(r)|_v. The unsorted keys reuse the buffer of the sorted keys.
    """
    _inputs(P, tc)
    qs, level = _sorted_keys(P, tc)
    np.multiply(tc.alpha, tc.shape(level, tc.m), out=level)
    level = np.divide(level, tc._scales(P)[:, None], out=level if level.shape == P.shape else None)
    last = np.max(qs, axis=1, where=qs <= level, initial=-1.0)
    return _keys(P, tc.weights.prior_w, out=qs) <= last[:, None]


def step_up(p: Sequence[float], tc: ThresholdCollection) -> RejectionSet:
    """Step-up procedure: reject L(r_hat) at the greatest fixed point r_hat,
    with the prior and penalty weights of ``tc.weights``, in the closed
    form of ``_step_up_rows``: one sort, O(m log m) on every input."""
    rejected = _step_up_rows(np.asarray(p, dtype=float)[None], tc)
    return RejectionSet(frozenset(np.flatnonzero(rejected[0]).tolist()),
                        float(_volumes(rejected, tc.weights.penalty_v)[0]))


def adjusted_pvalues(p: Sequence[float], tc: ThresholdCollection) -> list[float]:
    """Per-hypothesis minimum rejecting level alpha of ``step_up``, capped
    at 1; ``tc.alpha`` is not used.

    As level alpha rejects the first k* sorted keys, the adjusted p-value
    at sorted place k is the running minimum, from the top down to k, of
    scale * q_(j) / beta(V_j), and 0 where q_(k) = 0. It is the same across
    a run of equal keys, so each hypothesis takes it at its key's last place.
    """
    P = np.asarray(p, dtype=float)[None]
    _inputs(P, tc)
    (qs,), (V,) = _sorted_keys(P, tc)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(qs == 0.0, 0.0, tc._scales(P)[0] * qs / tc.shape(V, tc.m))
    adj = np.minimum(1.0, np.minimum.accumulate(ratio[::-1])[::-1])
    last = np.searchsorted(qs, _keys(P[0], tc.weights.prior_w), side="right") - 1
    return adj[last].tolist()
