"""Multiple testing of a family of partial conjunction hypotheses over a
group layout, and the realized weighted false discovery proportion of one
rejection set: the simulations score theirs with ``_volume_share``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .combine import CombiningMethod, DegenerateInputError
from .partial_conjunction import pc_pvalues
from .procedures import _index_mask, _readonly, _volume_share

__all__ = [
    "GroupLayout",
    "compute_pc_pvalues",
    "realized_weighted_fdp",
]

def _int_vector(x, name: str) -> np.ndarray:
    """A read-only intp array of the 1-d integer array ``x``, which
    ``procedures._readonly`` hands over uncopied if it can. Floats and
    booleans are rejected, not truncated or read as 0 and 1."""
    a = np.asarray(x)
    if (a.ndim != 1 or a.dtype.kind not in "iu"
            or isinstance(x, (list, tuple)) and any(isinstance(k, bool) for k in x)):
        raise ValueError(f"{name} must be a 1-d integer array")
    return _readonly(a, np.intp)


@dataclass(frozen=True, eq=False)
class GroupLayout:
    """Partition of M hypotheses into G groups as a label vector:
    ``labels[i]`` is the 0-based group of hypothesis i, ``u[g]`` the
    partial conjunction parameter of group g and ``sizes[g]`` its number of
    hypotheses, counted once, here. All three are held as read-only integer
    arrays, so layouts compare and hash by identity."""

    labels: np.ndarray
    u: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels, u = _int_vector(self.labels, "labels"), _int_vector(self.u, "u")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "u", u)
        if labels.size and not (0 <= labels.min() and labels.max() < len(u)):
            raise ValueError(f"labels must lie in [0, {len(u)})")
        sizes = np.bincount(labels, minlength=len(u))
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        if (bad := np.flatnonzero((u < 1) | (u > sizes))).size:
            g = bad[0]
            raise ValueError(f"u[{g}]={u[g]} outside [1, {sizes[g]}]")

    @classmethod
    def from_proportion(cls, labels, proportion: float) -> "GroupLayout":
        """Fill u_g = max(1, ceil(proportion * n_g)): at least this fraction
        of the group must be signal for the partial conjunction alternative."""
        if not 0.0 < proportion <= 1.0:
            raise ValueError("proportion must lie in (0, 1]")
        labels = _int_vector(labels, "labels")
        u = np.maximum(1, np.ceil(proportion * np.bincount(labels))).astype(np.intp)
        return cls(labels, u)


def compute_pc_pvalues(p: Sequence[float], layout: GroupLayout,
                       method: CombiningMethod) -> list[float]:
    """Per-group partial conjunction p-value; one method applies to all
    groups. Groups of equal size and u are combined as one matrix, in the
    order of each such bucket's first group, and a DegenerateInputError
    names the first degenerate group of the first bucket that has one."""
    labels, u, sizes = layout.labels, layout.u, layout.sizes
    if len(p) != len(labels):
        raise ValueError(f"expected {len(labels)} p-values, got {len(p)}")
    p = np.asarray(p, dtype=float)
    # members[starts[g]:starts[g] + sizes[g]] are group g's hypotheses, in index order.
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    _, first, bucket, counts = np.unique(sizes * (len(labels) + 1) + u, return_index=True,
                                         return_inverse=True, return_counts=True)
    by_bucket = np.split(np.argsort(bucket, kind="stable"), np.cumsum(counts)[:-1])
    out = np.empty(len(u))
    for gs in (by_bucket[b] for b in np.argsort(first)):
        rows = p[members[starts[gs, None] + np.arange(sizes[gs[0]])]]
        try:
            out[gs] = pc_pvalues(rows, u[gs[0]], method)
        except DegenerateInputError as exc:
            raise DegenerateInputError(int(gs[exc.row])) from None
    return out.tolist()


def realized_weighted_fdp(rejected: Sequence[int] | frozenset[int],
                          true_null_groups: Sequence[int] | frozenset[int],
                          penalty_v: Sequence[float]) -> float:
    """Weighted false discovery proportion, with the 0/0 = 0 convention."""
    v = np.asarray(penalty_v, dtype=float)
    rejected = _index_mask(rejected, len(v))
    nulls = _index_mask(true_null_groups, len(v))
    return float(_volume_share((rejected & nulls)[None], rejected[None], v)[0])
