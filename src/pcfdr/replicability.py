"""Two-step replicability analysis over an m x n p-value matrix.

Step 1 selects promising features (rows); Step 2 tests the partial
conjunction hypotheses of each selected feature sequentially for
u = 1, ..., n at level w_i * beta(|S|_v) * q / m, producing a lower bound
k_hat(i) on the number of studies where feature i has an effect. The two
steps share only the selection volume |S|_v, so the selection rule is
pluggable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combine import CombiningMethod, DegenerateInputError, combine_sorted, sort_rows
from .partial_conjunction import pc_path_sorted
from .pc_testing import WeightScheme
from .procedures import (
    IDENTITY,
    ShapeFunction,
    ThresholdCollection,
    _index_mask,
    _step_up_rows,
    _volume_share,
    _volumes,
)

__all__ = [
    "SelectionRule",
    "ReplicabilityReport",
    "select_features",
    "khat_bounds",
    "replicability_analysis",
    "realized_replicability_error",
]


@dataclass(frozen=True)
class SelectionRule:
    """Row-selection rule for Step 1.

    step_up_on_combined:         combine each row into a global-null p-value,
                                 then run the step-up procedure at level
                                 ``alpha`` with shape ``shape``.
    fixed_threshold_on_combined: select rows with combined p-value <= threshold.
    step_up_on_column:           run the step-up procedure on column ``column``.
    """

    kind: str
    alpha: float | None = None
    shape: ShapeFunction = IDENTITY
    threshold: float | None = None
    column: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("step_up_on_combined", "fixed_threshold_on_combined",
                             "step_up_on_column"):
            raise ValueError(f"unknown selection rule {self.kind!r}")
        if self.kind == "fixed_threshold_on_combined":
            if self.threshold is None or not 0.0 <= self.threshold <= 1.0:
                raise ValueError("fixed threshold rule needs threshold in [0, 1]")
        elif self.alpha is None or not 0.0 < self.alpha <= 1.0:
            raise ValueError("step-up rule needs alpha in (0, 1]")
        if self.kind == "step_up_on_column" and self.column is None:
            raise ValueError("column rule needs a study index")


@dataclass(frozen=True)
class ReplicabilityReport:
    """Selected features with their replicability lower bounds."""

    selected: frozenset[int]
    khat: dict[int, int]
    threshold_used: dict[int, float]
    selection_volume: float


def _sorted_rows(mats: np.ndarray) -> np.ndarray:
    """The (R, m, n) stack of p-value matrices, validated, with each row
    sorted ascending: the one form Step 1 and Step 2 both read."""
    r, m, n = mats.shape
    return sort_rows(mats.reshape(r * m, n)).reshape(r, m, n)


def _one_matrix(mat) -> tuple[np.ndarray, np.ndarray]:
    """``mat`` as a one-matrix stack, and that stack row-sorted."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("p-value matrix must be 2-dimensional and nonempty")
    return mat[None], _sorted_rows(mat[None])


def _select_rows(mats: np.ndarray, s: np.ndarray, rule: SelectionRule,
                 method: CombiningMethod, ws: WeightScheme) -> np.ndarray:
    """The Step-1 selection rule applied to each matrix of the (R, m, n)
    stack ``mats``, given ``s``, the stack row-sorted by
    :func:`_sorted_rows`: the (R, m) selection masks."""
    r, m, n = s.shape
    if len(ws.prior_w) != m:
        raise ValueError("weight scheme sized for a different feature count")
    if rule.kind == "step_up_on_column":
        if not 0 <= rule.column < n:
            raise ValueError(f"column {rule.column} outside [0, {n})")
        values = mats[:, :, rule.column]
    else:
        values = combine_sorted(s.reshape(r * m, n), method).reshape(r, m)
        if rule.kind == "fixed_threshold_on_combined":
            return values <= rule.threshold
    tc = ThresholdCollection(alpha=rule.alpha, m=m, prior_w=ws.prior_w,
                             shape=rule.shape)
    return _step_up_rows(values, tc, ws.penalty_v)[0]


def select_features(mat, rule: SelectionRule, method: CombiningMethod,
                    ws: WeightScheme) -> frozenset[int]:
    """Apply the Step-1 selection rule; returns 0-based row indices."""
    selected = _select_rows(*_one_matrix(mat), rule, method, ws)[0]
    return frozenset(np.flatnonzero(selected).tolist())


def _khat_rows(s: np.ndarray, selected: np.ndarray, method: CombiningMethod,
               ws: WeightScheme, q: float,
               beta: ShapeFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2 on each matrix of the row-sorted (R, m, n) stack ``s`` with its
    row of the (R, m) selection masks: the (R, m) k_hat (0 off the
    selection) and thresholds, and the (R,) selection volumes |S|_v, added
    in index order. A ``DegenerateInputError`` names the flat index
    r * m + i."""
    r, m, n = s.shape
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q={q} outside (0, 1]")
    vol = _volumes(selected, ws.penalty_v)
    t = ws.prior_w * beta(vol, m)[:, None] * q / m
    try:
        path = pc_path_sorted(s[selected], method)
    except DegenerateInputError as exc:
        raise DegenerateInputError(int(np.flatnonzero(selected)[exc.row])) from None
    khat = np.zeros((r, m), dtype=int)
    khat[selected] = (np.maximum.accumulate(path, axis=1) <= t[selected][:, None]).sum(axis=1)
    return khat, t, vol


def _report(s: np.ndarray, mask: np.ndarray, method: CombiningMethod,
            ws: WeightScheme, q: float, beta: ShapeFunction) -> ReplicabilityReport:
    """Step 2 on the one-matrix row-sorted stack ``s`` with the (1, m)
    selection mask, as a report."""
    rows = np.flatnonzero(mask[0]).tolist()
    khat, t, vol = _khat_rows(s, mask, method, ws, q, beta)
    return ReplicabilityReport(frozenset(rows), dict(zip(rows, khat[0, rows].tolist())),
                               dict(zip(rows, t[0, rows].tolist())), float(vol[0]))


def khat_bounds(mat, selected: Sequence[int] | frozenset[int],
                method: CombiningMethod, ws: WeightScheme, q: float,
                beta: ShapeFunction = IDENTITY) -> ReplicabilityReport:
    """Step 2: sequential partial conjunction testing for each selected row.

    k_hat(i) = max{u: max(P_i^{1/n}, ..., P_i^{u/n}) <= w_i beta(|S|_v) q / m},
    with the empty maximum defined as 0. The running maximum is monotone, so
    k_hat(i) is the number of u at which it stays under the threshold.
    """
    s = _one_matrix(mat)[1]
    return _report(s, _index_mask(selected, s.shape[1])[None], method, ws, q, beta)


def replicability_analysis(mat, rule: SelectionRule, method: CombiningMethod,
                           ws: WeightScheme, q: float,
                           beta: ShapeFunction = IDENTITY) -> ReplicabilityReport:
    """Steps 1 and 2 on one matrix: :func:`khat_bounds` of the rows that
    :func:`select_features` selects, with the matrix validated and its rows
    sorted once for both steps."""
    mats, s = _one_matrix(mat)
    return _report(s, _select_rows(mats, s, rule, method, ws), method, ws, q, beta)


def realized_replicability_error(report: ReplicabilityReport,
                                 true_k: Sequence[int],
                                 penalty_v: Sequence[float]) -> float:
    """Weighted proportion of selected features with k_hat(i) > k(i),
    with the 0/0 = 0 convention."""
    v = np.asarray(penalty_v, dtype=float)
    khat = np.zeros(len(v), dtype=int)
    khat[list(report.khat)] = list(report.khat.values())
    selected = _index_mask(report.selected, len(v))
    return float(_volume_share((selected & (khat > np.asarray(true_k)))[None],
                               selected[None], v)[0])
