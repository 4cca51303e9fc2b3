"""Solution-quality metrics: the finite-reference Pareto merit, nondominated
filtering and empirical decay-rate fits.

The true Pareto merit takes a supremum over all of R^n, which is not
computable; `merit_against_values` replaces it with a max over a finite
reference set of objective vectors and therefore under-reports (it is
monotone nondecreasing as the reference set grows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, InvalidParameterError

__all__ = [
    "FrontPoint",
    "RateFit",
    "merit_against_values",
    "nondominated_filter",
    "nondominated_mask",
    "fit_rate",
]

DOMINANCE_SLACK = 1e-9


@dataclass(frozen=True)
class FrontPoint:
    x: np.ndarray
    F: np.ndarray  # exact nonsmooth objective values at x


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    k_range: tuple[int, int]
    residual: float


def merit_against_values(Fx: Sequence[float], ref_F: np.ndarray) -> float:
    """Finite-reference lower bound of the Pareto merit at a point with exact
    objective values Fx: max over reference rows of min_i (Fx_i - ref_i).

    Fx is any sequence of m numbers and ref_F one or more rows of m numbers
    (a 1-D ref_F is one row); InvalidInputError otherwise.
    """
    try:
        Fx = np.asarray(Fx, dtype=float)
        ref_F = np.asarray(ref_F, dtype=float)
    except (TypeError, ValueError) as e:  # no numbers, or ragged rows
        raise InvalidInputError(f"Fx and ref_F must hold numbers in rows of equal length: {e}") from None
    if Fx.ndim != 1 or Fx.size == 0:
        raise InvalidInputError(f"Fx must be m >= 1 objective values, got shape {Fx.shape}")
    if ref_F.ndim not in (1, 2) or ref_F.size == 0 or ref_F.shape[-1] != Fx.size:
        raise InvalidInputError(f"ref_F must be rows of {Fx.size} objective values, got shape {ref_F.shape}")
    return float(np.min(Fx[None, :] - ref_F, axis=1).max())


def nondominated_mask(F: np.ndarray, slack: float = DOMINANCE_SLACK) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row.

    Row q dominates row p when F[q] <= F[p] + slack everywhere and
    F[q] < F[p] - slack somewhere.
    """
    F = np.asarray(F, float)
    n = F.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        le = np.all(F <= F[i] + slack, axis=1)
        lt = np.any(F < F[i] - slack, axis=1)
        if np.any(le & lt):
            keep[i] = False
    return keep


def nondominated_filter(points: Sequence[FrontPoint]) -> list[FrontPoint]:
    """Drop dominated points; input order is preserved."""
    if not points:
        return []
    F = np.array([pt.F for pt in points])
    keep = nondominated_mask(F)
    return [pt for pt, k in zip(points, keep) if k]


def fit_rate(
    merit_series: Sequence[tuple[int, float]], k_lo: int, k_hi: int
) -> RateFit:
    """Least-squares line on (log k, log value) over k in [k_lo, k_hi].

    Only strictly positive values enter the fit; fewer than 5 usable points
    raises InsufficientDataError.
    """
    if not k_lo < k_hi:
        raise InvalidParameterError("need k_lo < k_hi")
    ks = []
    vs = []
    for k, v in merit_series:
        if k_lo <= k <= k_hi and v > 0.0 and k > 0:
            ks.append(k)
            vs.append(v)
    if len(ks) < 5:
        raise InsufficientDataError(
            f"only {len(ks)} positive points in [{k_lo}, {k_hi}]; need at least 5"
        )
    lk = np.log(np.asarray(ks, float))
    lv = np.log(np.asarray(vs, float))
    slope, intercept = np.polyfit(lk, lv, 1)
    resid = float(np.sqrt(np.mean((slope * lk + intercept - lv) ** 2)))
    return RateFit(float(slope), float(intercept), (k_lo, k_hi), resid)
