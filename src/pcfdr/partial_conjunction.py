"""Partial conjunction p-values.

The p-value for "at least u of the n hypotheses are false nulls" is obtained
by applying a monotone global-null combiner to the n-u+1 largest elementary
p-values; equivalently, by maximizing the combined p-value over all subsets
of size n-u+1 (the subset oracle in the tests). The construction takes one
sort per row of an m x n matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combine import CombiningMethod, combine_sorted, sort_rows

__all__ = ["pc_pvalues", "pc_path", "pc_path_sorted", "pc_pvalue"]


def pc_pvalues(mat, u: int, method: CombiningMethod) -> np.ndarray:
    """Partial conjunction p-value P^{u/n} of each row of the m x n matrix
    ``mat``: ``method`` applied to the n-u+1 largest entries of the row."""
    return _pc_pvalues_sorted(sort_rows(mat), u, method)


def _pc_pvalues_sorted(s: np.ndarray, u: int, method: CombiningMethod) -> np.ndarray:
    """:func:`pc_pvalues` of rows already validated and sorted ascending
    (see :func:`sort_rows`)."""
    if not 1 <= u <= s.shape[1]:
        raise ValueError(f"u={u} outside [1, {s.shape[1]}]")
    return combine_sorted(s[:, u - 1:], method)


def pc_path(mat, method: CombiningMethod) -> np.ndarray:
    """The m x n array whose column u-1 is :func:`pc_pvalues` at u, for
    u = 1, ..., n, from one sort per row."""
    return pc_path_sorted(sort_rows(mat), method)


def pc_path_sorted(s: np.ndarray, method: CombiningMethod) -> np.ndarray:
    """:func:`pc_path` of rows already validated and sorted ascending
    (see :func:`sort_rows`)."""
    return np.stack([combine_sorted(s[:, u - 1:], method)
                     for u in range(1, s.shape[1] + 1)], axis=1)


def pc_pvalue(p: Sequence[float], u: int, method: CombiningMethod) -> float:
    """Partial conjunction p-value for at least ``u`` signals among ``p``.

    For u=1 this is the plain global-null combination.
    """
    return float(pc_pvalues([p], u, method)[0])

