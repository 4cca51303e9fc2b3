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
# nondominated_mask compares a block of rows with all N rows of F at once,
# with at most _MASK_CELLS booleans (rows x N x m) in each comparison's
# array, so that memory stays bounded as N grows
_MASK_CELLS = 1 << 20


@dataclass(frozen=True)
class FrontPoint:
    x: np.ndarray
    F: np.ndarray  # exact nonsmooth objective values at x


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def merit_against_values(Fx: Sequence[float], ref_F: np.ndarray) -> float:
    """Finite-reference lower bound of the Pareto merit at a point with exact
    objective values Fx: max over reference rows of min_i (Fx_i - ref_i).

    Fx is any sequence of m finite numbers and ref_F one or more rows of m
    finite numbers (a 1-D ref_F is one row); InvalidInputError otherwise.
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
    if not (np.isfinite(Fx).all() and np.isfinite(ref_F).all()):  # a nan row would make the max nan
        raise InvalidInputError(f"Fx and ref_F must be finite, got Fx = {Fx.tolist()}")
    return float(np.min(Fx[None, :] - ref_F, axis=1).max())


def nondominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row.

    Row q dominates row p when F[q] <= F[p] + DOMINANCE_SLACK everywhere
    and F[q] < F[p] - DOMINANCE_SLACK somewhere.  F is rows of m >= 1
    finite numbers, or an empty sequence, which gives an empty mask;
    InvalidInputError otherwise, since a nan row dominates no row and no row
    dominates it.  A block of rows is compared with every row in one
    broadcast, as many rows as keep a comparison within _MASK_CELLS booleans.
    """
    try:
        F = np.asarray(F, dtype=float)
    except (TypeError, ValueError) as e:  # no numbers, or ragged rows
        raise InvalidInputError(f"F must hold numbers in rows of equal length: {e}") from None
    if F.shape == (0,):  # no rows
        return np.ones(0, dtype=bool)
    if F.ndim != 2 or F.shape[1] == 0:
        raise InvalidInputError(f"F must be rows of m >= 1 objective values, got shape {F.shape}")
    if not np.isfinite(F).all():
        i = int(np.flatnonzero(~np.isfinite(F).all(axis=1))[0])
        raise InvalidInputError(f"F must be finite, got row {i} = {F[i].tolist()}")
    keep = np.empty(F.shape[0], dtype=bool)
    block = max(1, _MASK_CELLS // max(F.size, 1))
    for lo in range(0, F.shape[0], block):
        rows = F[lo : lo + block, None, :]  # each row p of the block against every row q
        le = np.all(F <= rows + DOMINANCE_SLACK, axis=2)
        lt = np.any(F < rows - DOMINANCE_SLACK, axis=2)
        keep[lo : lo + block] = ~np.any(le & lt, axis=1)
    return keep


def nondominated_filter(points: Sequence[FrontPoint]) -> list[FrontPoint]:
    """Drop dominated points; input order is preserved.  InvalidInputError
    unless the points' F are finite and of one length (see nondominated_mask)."""
    if not points:
        return []
    keep = nondominated_mask([pt.F for pt in points])
    return [pt for pt, k in zip(points, keep) if k]


def fit_rate(
    merit_series: Sequence[tuple[int, float]], k_lo: int, k_hi: int
) -> RateFit:
    """Least-squares line on (log k, log value) over k in [k_lo, k_hi].

    Only finite, strictly positive values enter the fit; fewer than 5 usable
    points raises InsufficientDataError.
    """
    if not k_lo < k_hi:
        raise InvalidParameterError("need k_lo < k_hi")
    ks = []
    vs = []
    for k, v in merit_series:
        if k_lo <= k <= k_hi and 0.0 < v < np.inf and k > 0:
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
    return RateFit(float(slope), float(intercept), resid)
