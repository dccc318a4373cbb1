"""Global-null p-value combiners and the Storey proportion-of-nulls estimator.

Every combiner maps a vector of p-values to a single p-value for the
intersection (global null) hypothesis and is non-decreasing in each
coordinate. Fisher and Stouffer assume independence; Simes additionally
tolerates positive dependence; Bonferroni and Hommel are valid under
arbitrary dependence; Simes-Storey is the minimum adjusted p-value of the
adaptive step-up procedure with the Storey plug-in and assumes independence.

The combiners work on matrices whose rows are sorted ascending
(:func:`sort_rows`, :func:`combine_sorted`); :func:`combine_pvalues` takes
one vector. Only Fisher and Stouffer need scipy: they load the compiled
ufuncs of ``scipy.special`` when called (:func:`pcfdr._special.ufunc`),
without the package, so the other methods run without loading scipy or
the loader.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CombiningMethod",
    "DEFAULT_LAMBDA",
    "FISHER",
    "STOUFFER",
    "SIMES",
    "BONFERRONI",
    "HOMMEL",
    "DegenerateInputError",
    "sort_rows",
    "combine_sorted",
    "storey_pi0",
    "combine_pvalues",
    "simes_storey",
]

DEFAULT_LAMBDA = 0.5


class DegenerateInputError(ValueError):
    """Raised when a combiner receives an input it cannot order, e.g.
    Stouffer with both a 0 and a 1 among the p-values. ``row`` is the
    0-based index of the first such row."""

    def __init__(self, row: int) -> None:
        super().__init__("Stouffer combiner with both p=0 and p=1")
        self.row = row


@dataclass(frozen=True)
class CombiningMethod:
    """A combining method, optionally carrying the Storey tuning parameter."""

    kind: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ROW_COMBINERS:
            raise ValueError(f"unknown combining method {self.kind!r}")
        if self.kind == "simes_storey":
            lam = DEFAULT_LAMBDA if self.lam is None else self.lam
            _check_lambda(lam)
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ValueError(f"method {self.kind!r} takes no lambda")


def simes_storey(lam: float = DEFAULT_LAMBDA) -> CombiningMethod:
    return CombiningMethod("simes_storey", lam)


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda={lam} must lie in (0, 1)")


@functools.cache
def _harmonic(m: int) -> float:
    """H_m = 1 + 1/2 + ... + 1/m, m >= 1, added left to right, which
    ``sum()`` does only before Python 3.12."""
    return float(np.cumsum(1.0 / np.arange(1, m + 1))[-1])


def sort_rows(mat) -> np.ndarray:
    """Validated p-values as a 2-d float array, each row sorted ascending:
    a new array, so the caller's ``mat`` is left as it is."""
    s = np.array(mat, dtype=float)
    if s.ndim != 2:
        raise ValueError("p-values must form a 2-d array")
    return _sort_rows_in_place(s)


def _sort_rows_in_place(s: np.ndarray) -> np.ndarray:
    """Sort the rows (the last axis) of the float array ``s``, a matrix or
    a stack of them, ascending in place, and check that they hold
    p-values; returns ``s``."""
    if s.shape[-1] == 0:
        raise ValueError("empty p-value list")
    s.sort(axis=-1)
    first, last = s[..., 0], s[..., -1]
    bad = ~((first >= 0.0) & (last <= 1.0))
    if bad.any():
        i = np.argmax(bad)
        x = first.flat[i] if not first.flat[i] >= 0.0 else last.flat[i]
        raise ValueError(f"p-value {x} outside [0, 1]")
    return s


# Each row combiner takes a (rows, k) array sorted along axis 1, k >= 1.

def _fisher_rows(s: np.ndarray) -> np.ndarray:
    """Chi-square survival of -2 * sum(log p_i) with 2k degrees of freedom,
    taken as Q(k, -sum(log p_i)), the regularized upper incomplete gamma
    function that ``chdtrc(2k, x)`` evaluates at (k, x / 2); 0 if a p_i is
    0, whose log is -inf."""
    from ._special import ufunc
    with np.errstate(divide="ignore"):
        half = np.log(s).sum(axis=1)
    half *= -1.0
    return ufunc("gammaincc")(s.shape[1], half)


def _stouffer_rows(s: np.ndarray) -> np.ndarray:
    """Phi(sum(Phi^{-1}(p_i)) / sqrt(k)), equal to
    1 - Phi(sum(Phi^{-1}(1 - p_i)) / sqrt(k)) but taken in the lower tail,
    where neither 1 - p nor 1 - Phi rounds strong evidence to 0; 0 if a p_i
    is 0, 1 if a p_i is 1."""
    from ._special import ufunc
    both = (s[:, 0] == 0.0) & (s[:, -1] == 1.0)
    if both.any():
        raise DegenerateInputError(int(np.argmax(both)))
    return ufunc("ndtr")(ufunc("ndtri")(s).sum(axis=1) / math.sqrt(s.shape[1]))


def _simes_rows(s: np.ndarray) -> np.ndarray:
    """min_j k * p_(j) / j, capped at 1. One column at a time, so that no
    temporary is larger than a column."""
    k = s.shape[1]
    out = np.ones(len(s))
    for j in range(k):
        np.minimum(out, k * s[:, j] / (j + 1), out=out)
    return out


def _bonferroni_rows(s: np.ndarray) -> np.ndarray:
    """min(k * p_(1), 1)."""
    return np.minimum(1.0, s.shape[1] * s[:, 0])


def _hommel_rows(s: np.ndarray) -> np.ndarray:
    """min(H_k * simes, 1) with H_k the k-th harmonic number."""
    return np.minimum(1.0, _harmonic(s.shape[1]) * _simes_rows(s))


def _storey_pi0_rows(s: np.ndarray, lam: float) -> np.ndarray:
    """(W(lam) + 1) / ((1 - lam) * k) of each row, W(lam) = #{j: p_j > lam};
    the rows need not be sorted."""
    return ((s > lam).sum(axis=1) + 1) / ((1.0 - lam) * s.shape[1])


def _simes_storey_rows(s: np.ndarray, lam: float) -> np.ndarray:
    """1 where p_(1) > lam; otherwise the Simes minimum restricted to
    {j: p_(j) <= lam}, inflated by k * pi0_hat(lam), capped at 1."""
    k = s.shape[1]
    pi0 = _storey_pi0_rows(s, lam)
    scaled = np.where(s <= lam, (k * pi0)[:, None] * s / np.arange(1, k + 1), np.inf)
    return np.where(s[:, 0] > lam, 1.0, np.minimum(1.0, scaled.min(axis=1)))


_ROW_COMBINERS = {
    "fisher": _fisher_rows,
    "stouffer": _stouffer_rows,
    "simes": _simes_rows,
    "bonferroni": _bonferroni_rows,
    "hommel": _hommel_rows,
    "simes_storey": _simes_storey_rows,
}

FISHER = CombiningMethod("fisher")
STOUFFER = CombiningMethod("stouffer")
SIMES = CombiningMethod("simes")
BONFERRONI = CombiningMethod("bonferroni")
HOMMEL = CombiningMethod("hommel")


def combine_sorted(s: np.ndarray, method: CombiningMethod) -> np.ndarray:
    """Combine each row of ``s``, validated and sorted ascending along
    axis 1 (see :func:`sort_rows`)."""
    if method.kind == "simes_storey":
        return _simes_storey_rows(s, method.lam)
    return _ROW_COMBINERS[method.kind](s)


def combine_pvalues(p: Sequence[float], method: CombiningMethod) -> float:
    """Combine one vector of p-values with ``method``."""
    return float(combine_sorted(sort_rows([p]), method)[0])


def storey_pi0(p: Sequence[float], lam: float = DEFAULT_LAMBDA) -> float:
    """(W(lam) + 1) / ((1 - lam) * m) with W(lam) = #{i: p_i > lam}."""
    s = sort_rows([p])
    _check_lambda(lam)
    return float(_storey_pi0_rows(s, lam)[0])
