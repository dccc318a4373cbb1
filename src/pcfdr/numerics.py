"""Standard normal CDF and quantile and the chi-square survival function:
input-checked scalar wrappers over the ``scipy.special`` ufuncs that the
combiners call directly on arrays (``ndtr``, ``ndtri``, and ``gammaincc``
at (df / 2, x / 2), which is ``chdtrc(df, x)``). Each wrapper loads its
ufunc when called (:func:`pcfdr._special.ufunc`), so importing this module
does not load scipy."""

from __future__ import annotations

import math

__all__ = ["std_normal_cdf", "std_normal_quantile", "chi_square_survival"]


def std_normal_cdf(x: float) -> float:
    """Return Phi(x), the standard normal CDF. Accepts +-inf."""
    if math.isnan(x):
        raise ValueError("std_normal_cdf: NaN input")
    from ._special import ufunc
    return float(ufunc("ndtr")(x))


def std_normal_quantile(p: float) -> float:
    """Return Phi^{-1}(p). p=0 and p=1 map to -inf and +inf respectively."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"std_normal_quantile: p={p} outside [0, 1]")
    from ._special import ufunc
    return float(ufunc("ndtri")(p))


def chi_square_survival(x: float, df: int) -> float:
    """Return P(chi^2_df >= x), the chi-square survival function."""
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"chi_square_survival: x={x} must be >= 0")
    if not (df >= 1 and df % 1 == 0):  # false for NaN and inf too
        raise ValueError(f"chi_square_survival: df={df} must be a positive integer")
    from ._special import ufunc
    return float(ufunc("gammaincc")(df / 2, x / 2))
