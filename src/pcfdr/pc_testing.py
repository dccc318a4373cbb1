"""Multiple testing of a family of partial conjunction hypotheses over a
group layout, and the realized weighted false discovery proportion used to
score procedures in simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combine import CombiningMethod, DegenerateInputError
from .partial_conjunction import pc_pvalues
from .procedures import _index_mask, _readonly, _unnormalized_total, _volume_share

__all__ = [
    "GroupLayout",
    "WeightScheme",
    "compute_pc_pvalues",
    "realized_weighted_fdp",
]

@dataclass(frozen=True)
class GroupLayout:
    """Partition of M hypotheses (0-based indices) into G disjoint groups,
    with a per-group partial conjunction parameter u_g."""

    groups: tuple[tuple[int, ...], ...]
    u: tuple[int, ...]

    def __post_init__(self) -> None:
        groups = tuple(tuple(g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "u", tuple(self.u))
        if len(self.u) != len(groups):
            raise ValueError("u must have one entry per group")
        seen: set[int] = set()
        for g, members in enumerate(groups):
            if not members:
                raise ValueError(f"group {g} is empty")
            if seen & set(members):
                raise ValueError("groups must be disjoint")
            seen.update(members)
            if not 1 <= self.u[g] <= len(members):
                raise ValueError(f"u[{g}]={self.u[g]} outside [1, {len(members)}]")
        if seen != set(range(len(seen))):
            raise ValueError("groups must cover 0..M-1")

    @property
    def total(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @classmethod
    def from_proportion(cls, groups: Sequence[Sequence[int]],
                        proportion: float) -> "GroupLayout":
        """Fill u_g = ceil(proportion * n_g): at least this fraction of the
        group must be signal for the partial conjunction alternative."""
        if not 0.0 < proportion <= 1.0:
            raise ValueError("proportion must lie in (0, 1]")
        u = tuple(max(1, math.ceil(proportion * len(g))) for g in groups)
        return cls(tuple(tuple(g) for g in groups), u)


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Prior weights w and penalty weights v with sum(w_g * v_g) = G.

    Both are held as read-only float64 arrays, so schemes compare and hash
    by identity.
    """

    prior_w: np.ndarray
    penalty_v: np.ndarray

    def __post_init__(self) -> None:
        w, v = _readonly(self.prior_w), _readonly(self.penalty_v)
        object.__setattr__(self, "prior_w", w)
        object.__setattr__(self, "penalty_v", v)
        if w.ndim != 1 or w.shape != v.shape:
            raise ValueError("weight vectors must have equal length")
        if (w < 0).any():
            raise ValueError("prior weights must be nonnegative")
        if (v <= 0).any():
            raise ValueError("penalty weights must be positive")
        if (total := _unnormalized_total(w, v)) is not None:
            raise ValueError(f"sum(w_g * v_g) = {total}, expected G = {len(w)}")

    @classmethod
    def unit(cls, g: int) -> "WeightScheme":
        """w = v = 1: one read-only array of ones serves as both, and, valid
        by construction, is neither copied nor checked."""
        ones = np.ones(g)
        ones.setflags(write=False)
        scheme = object.__new__(cls)
        object.__setattr__(scheme, "prior_w", ones)
        object.__setattr__(scheme, "penalty_v", ones)
        return scheme


def compute_pc_pvalues(p: Sequence[float], layout: GroupLayout,
                       method: CombiningMethod) -> list[float]:
    """Per-group partial conjunction p-value; one method applies to all
    groups. Groups of equal size and u are combined as one matrix."""
    if len(p) != layout.total:
        raise ValueError(f"expected {layout.total} p-values, got {len(p)}")
    p = np.asarray(p, dtype=float)
    same_shape: dict[tuple[int, int], list[int]] = {}
    for g, members in enumerate(layout.groups):
        same_shape.setdefault((len(members), layout.u[g]), []).append(g)
    out = np.empty(layout.n_groups)
    for (_, u), gs in same_shape.items():
        members = np.array([layout.groups[g] for g in gs])
        try:
            out[gs] = pc_pvalues(p[members], u, method)
        except DegenerateInputError as exc:
            raise DegenerateInputError(gs[exc.row]) from None
    return out.tolist()


def realized_weighted_fdp(rejected: Sequence[int] | frozenset[int],
                          true_null_groups: Sequence[int] | frozenset[int],
                          penalty_v: Sequence[float]) -> float:
    """Weighted false discovery proportion, with the 0/0 = 0 convention."""
    v = np.asarray(penalty_v, dtype=float)
    rejected = _index_mask(rejected, len(v))
    nulls = _index_mask(true_null_groups, len(v))
    return float(_volume_share((rejected & nulls)[None], rejected[None], v)[0])
