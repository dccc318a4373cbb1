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

from .combine import CombiningMethod, DegenerateInputError, _sort_rows_in_place
from .partial_conjunction import _pc_pvalues_sorted, pc_path_sorted
from .procedures import (
    IDENTITY,
    ShapeFunction,
    ThresholdCollection,
    WeightScheme,
    _index_mask,
    _step_up_rows,
    _volumes,
)

__all__ = [
    "SelectionRule",
    "ReplicabilityReport",
    "select_features",
    "khat_bounds",
    "replicability_analysis",
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


def _own_stack(mat) -> np.ndarray:
    """A private float copy of the matrix ``mat`` as a one-matrix (1, m, n)
    stack, which the public functions sort in place: the caller's array is
    never changed."""
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("p-value matrix must be 2-dimensional and nonempty")
    return mat[None]


def _row_values(mats: np.ndarray, method: CombiningMethod, u: int = 1,
                column: int | None = None) -> np.ndarray:
    """One value per row of the (..., n) p-value array ``mats``: its entry
    in column ``column`` as it was before the sort, if a column is given,
    else its PC p-value at u (at u = 1, the global-null combination). It
    sorts the rows ascending in place, validated, the one form that Step 2
    reads."""
    n = mats.shape[-1]
    if column is None:
        s = _sort_rows_in_place(mats).reshape(-1, n)
        return _pc_pvalues_sorted(s, u, method).reshape(mats.shape[:-1])
    if not 0 <= column < n:
        raise ValueError(f"column {column} outside [0, {n})")
    values = mats[..., column].copy()
    _sort_rows_in_place(mats)
    return values


def _selection(values: np.ndarray, rule: SelectionRule, ws: WeightScheme) -> np.ndarray:
    """The Step-1 selection rule applied to each row of the (R, m) array of
    Step-1 values: the (R, m) selection masks."""
    if rule.kind == "fixed_threshold_on_combined":
        return values <= rule.threshold
    tc = ThresholdCollection(alpha=rule.alpha, m=values.shape[1], weights=ws, shape=rule.shape)
    return _step_up_rows(values, tc)


def _select_rows(mats: np.ndarray, rule: SelectionRule, method: CombiningMethod,
                 ws: WeightScheme) -> np.ndarray:
    """The Step-1 selection rule applied to each matrix of the (R, m, n)
    stack ``mats``: the (R, m) selection masks. It sorts the rows of
    ``mats`` ascending in place, validated (:func:`_row_values`)."""
    ws._sized(mats.shape[1])
    column = rule.column if rule.kind == "step_up_on_column" else None
    return _selection(_row_values(mats, method, column=column), rule, ws)


def select_features(mat, rule: SelectionRule, method: CombiningMethod,
                    ws: WeightScheme) -> frozenset[int]:
    """Apply the Step-1 selection rule; returns 0-based row indices."""
    selected = _select_rows(_own_stack(mat), rule, method, ws)[0]
    return frozenset(np.flatnonzero(selected).tolist())


def _khat_rows(s: np.ndarray, selected: np.ndarray, method: CombiningMethod,
               ws: WeightScheme, q: float,
               beta: ShapeFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2 on the row-sorted (k, n) p-values ``s`` of the entries of
    the (R, m) selection masks ``selected``, in the order of
    ``np.flatnonzero(selected)``: their k_hat and thresholds, and the (R,)
    selection volumes |S|_v, added in index order. A
    ``DegenerateInputError`` names the flat index r * m + i."""
    m = selected.shape[1]
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q={q} outside (0, 1]")
    vol = _volumes(selected, ws._sized(m).penalty_v)
    flat = np.flatnonzero(selected)
    rows, cols = np.divmod(flat, m)
    t = ws.prior_w[cols] * beta(vol, m)[rows] * q / m
    try:
        path = pc_path_sorted(s, method)
    except DegenerateInputError as exc:
        raise DegenerateInputError(int(flat[exc.row])) from None
    khat = (np.maximum.accumulate(path, axis=1) <= t[:, None]).sum(axis=1)
    return khat, t, vol


def _report(s: np.ndarray, mask: np.ndarray, method: CombiningMethod,
            ws: WeightScheme, q: float, beta: ShapeFunction) -> ReplicabilityReport:
    """Step 2 on the row-sorted selected rows ``s`` of the (1, m) selection
    mask, as a report."""
    rows = np.flatnonzero(mask[0]).tolist()
    khat, t, vol = _khat_rows(s, mask, method, ws, q, beta)
    return ReplicabilityReport(frozenset(rows), dict(zip(rows, khat.tolist())),
                               dict(zip(rows, t.tolist())), float(vol[0]))


def khat_bounds(mat, selected: Sequence[int] | frozenset[int],
                method: CombiningMethod, ws: WeightScheme, q: float,
                beta: ShapeFunction = IDENTITY) -> ReplicabilityReport:
    """Step 2: sequential partial conjunction testing for each selected row.

    k_hat(i) = max{u: max(P_i^{1/n}, ..., P_i^{u/n}) <= w_i beta(|S|_v) q / m},
    with the empty maximum defined as 0. The running maximum is monotone, so
    k_hat(i) is the number of u at which it stays under the threshold.
    """
    s = _sort_rows_in_place(_own_stack(mat))
    mask = _index_mask(selected, s.shape[1])[None]
    return _report(s[mask], mask, method, ws, q, beta)


def replicability_analysis(mat, rule: SelectionRule, method: CombiningMethod,
                           ws: WeightScheme, q: float,
                           beta: ShapeFunction = IDENTITY) -> ReplicabilityReport:
    """Steps 1 and 2 on one matrix: :func:`khat_bounds` of the rows that
    :func:`select_features` selects, with the rows of one private copy of
    the matrix sorted once for both steps."""
    s = _own_stack(mat)
    mask = _select_rows(s, rule, method, ws)
    return _report(s[mask], mask, method, ws, q, beta)
