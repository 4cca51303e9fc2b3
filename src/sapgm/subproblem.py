"""Per-iteration min-max subproblem, solved through its concave dual.

The primal is the strongly convex model

    phi(z) = max_i [ <grad_i, z - y> + g(z) + c_i ] + (ell / 2) ||z - y||^2

with per-component offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)).  Dualizing
the max over the unit simplex gives, for weights lam,

    q(lam) = min_z  <G^T lam, z - y> + g(z) + (ell / 2) ||z - y||^2 + lam . c

whose inner minimum is a single prox step.  q is concave.  For m = 2 it is
maximized exactly: with lam = (t, 1 - t) its derivative in t is
comp_1 - comp_2, which does not increase and is piecewise linear with a kink
wherever a soft-threshold coordinate of the prox switches, so one pass over
the kinks brackets its root on a linear piece.  Other m use projected
gradient ascent with a backtracking step.  Strong convexity makes the primal
minimizer unique, so the duality gap, the KKT residual and the
complementarity violation certify the solution; solve_subproblem returns all
three with it.

All g_i are required to be the identical shared term; distinct g_i would
break the closed-form inner step and are rejected at ProblemSpec
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .problems import GKind, ProblemSpec, eval_g, eval_smooth

__all__ = [
    "SubproblemInput",
    "SubproblemSolution",
    "prox_g",
    "project_simplex",
    "solve_subproblem",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_INNER = 500
_ACTIVE_SLACK = 1e-8  # brackets within this of the largest count as active


@dataclass(frozen=True)
class SubproblemInput:
    x: np.ndarray  # reference point for the offsets
    y: np.ndarray  # expansion point
    mu: float
    ell: float  # prox weight, L * mu^{-1}
    problem: ProblemSpec

    def __post_init__(self):
        if not self.mu > 0.0:
            raise InvalidParameterError("mu must be positive")
        if not self.ell > 0.0:
            raise InvalidParameterError("ell must be positive")


@dataclass
class SubproblemSolution:
    z: np.ndarray
    lam: np.ndarray
    theta: float  # primal optimal value
    gap: float
    kkt_residual: float
    complementarity: float  # largest weight on an inactive component
    inner_iterations: int
    converged: bool


def prox_g(v: np.ndarray, tau: float, g_kind: GKind, n: int) -> np.ndarray:
    """argmin_z tau * g(z) + 0.5 ||z - v||^2.

    Soft-thresholding at tau / n for the scaled l1 term, identity for g = 0.
    """
    if not tau > 0.0:
        raise InvalidParameterError("tau must be positive")
    v = np.asarray(v, dtype=float)
    if g_kind is GKind.ZERO:
        return v.copy()
    thr = tau / n
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-and-threshold)."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise InvalidInputError("cannot project an empty vector")
    u = np.sort(w)[::-1]
    cs = np.cumsum(u) - 1.0
    rho = np.nonzero(u > cs / np.arange(1, w.size + 1))[0][-1]
    tau = cs[rho] / (rho + 1.0)
    return np.maximum(w - tau, 0.0)


def _g_value(z: np.ndarray, g_kind: GKind, n: int) -> float:
    if g_kind is GKind.SCALED_L1:
        return float(np.abs(z).sum()) / n
    return 0.0


class _Core:
    """Dual ascent working on raw arrays; built once per (y, mu, grads)."""

    __slots__ = ("y", "G", "c", "ell", "g_kind", "n")

    def __init__(self, y, G, c, ell, g_kind):
        self.y = y
        self.G = G
        self.c = c
        self.ell = ell
        self.g_kind = g_kind
        self.n = y.size

    def inner(self, lam):
        """Prox step for fixed weights; returns (z, component gaps d, dual value)."""
        d_dir = self.G.T @ lam
        z = prox_g(self.y - d_dir / self.ell, 1.0 / self.ell, self.g_kind, self.n)
        dz = z - self.y
        gz = _g_value(z, self.g_kind, self.n)
        comp = self.G @ dz + self.c + gz  # per-component bracket values
        quad = 0.5 * self.ell * float(dz @ dz)
        return z, comp, float(lam @ comp) + quad, quad

    def primal(self, comp, quad):
        return float(comp.max()) + quad


def _solve_core(core: _Core, lam0: np.ndarray, tol: float, max_inner: int):
    """Maximize the dual from lam0; returns (z, lam, theta, gap, steps)."""
    if core.G.shape[0] == 2:
        return _solve_pair(core, lam0)
    return _ascend(core, lam0, tol, max_inner)


def _solve_pair(core: _Core, lam0: np.ndarray):
    """Exact dual maximizer for m = 2 over lam = (t, 1 - t).

    z(t) = prox(a - t d / ell) with d = g_1 - g_2 and a = y - g_2 / ell, and
    h(t) = <d, z(t) - y> + c_1 - c_2 is the dual derivative.  The prox is
    monotone, so h does not increase; it is linear between the kinks
    t = (a_j -+ thr) ell / d_j where a soft-threshold coordinate switches.
    h is evaluated at once at 0, 1, the start weight and every kink clipped
    into [0, 1], and its root is interpolated between the last point where
    h > 0 and the first where h <= 0.  A start weight where h vanishes (a
    flat dual) is kept, as the ascent keeps it; a non-finite h gives t = nan
    and so a non-finite gap.
    """
    d = core.G[0] - core.G[1]
    a = core.y - core.G[1] / core.ell
    # projection onto the simplex; a weight already on it stays as it is
    t0 = min(max(lam0[0] + 0.5 * (1.0 - lam0[0] - lam0[1]), 0.0), 1.0)
    ts = np.array([0.0, 1.0, t0])
    if core.g_kind is GKind.SCALED_L1:
        thr = 1.0 / (core.ell * core.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate((a - thr, a + thr)) * core.ell / np.concatenate((d, d))
        # a kink outside [0, 1], or of a coordinate constant in t, lands on 0 or 1
        ts = np.concatenate((ts, np.fmin(np.fmax(kinks, 0.0), 1.0)))
    Z = prox_g(a - ts[:, None] * (d / core.ell), 1.0 / core.ell, core.g_kind, core.n)
    h = (Z - core.y) @ d + (core.c[0] - core.c[1])
    if not np.isfinite(h).all():
        t = np.nan
    elif h[2] == 0.0:
        t = t0
    elif h[0] <= 0.0:
        t = 0.0
    elif h[1] >= 0.0:
        t = 1.0
    else:
        pos = h > 0.0
        i = np.where(pos, ts, -1.0).argmax()
        j = np.where(pos, 2.0, ts).argmin()
        t = ts[i] + (ts[j] - ts[i]) * h[i] / (h[i] - h[j])
    lam = np.array([t, 1.0 - t])
    z, comp, dual, quad = core.inner(lam)
    theta = core.primal(comp, quad)
    return z, lam, theta, theta - dual, 1


def _ascend(core: _Core, lam0: np.ndarray, tol: float, max_inner: int):
    """Projected gradient ascent on the dual; the path for m != 2."""
    lam = project_simplex(lam0)
    z, comp, dual, quad = core.inner(lam)
    # dual curvature along simplex directions is at most smax(G_centered)^2 / ell;
    # its reciprocal is the natural ascent step
    Gc = core.G - core.G.mean(axis=0)
    curv = float(np.linalg.norm(Gc, 2)) ** 2 / core.ell
    if 2.0 * curv <= tol:
        # (nearly) linear dual, m = 1 included: lam moves z by at most
        # smax sqrt(2) / ell, so the vertex of the largest bracket has gap <= 2 curv
        lam = np.zeros(lam.size)
        lam[comp.argmax()] = 1.0
        z, comp, dual, quad = core.inner(lam)
        return z, lam, core.primal(comp, quad), core.primal(comp, quad) - dual, 1
    step0 = 1.0 / max(curv, 1e-300)
    step = step0
    iters = 0
    gap = core.primal(comp, quad) - dual
    while gap > tol and iters < max_inner:
        iters += 1
        # comp is the dual (super)gradient; backtrack on the ascent step
        accepted = False
        for _ in range(60):
            lam_try = project_simplex(lam + step * comp)
            move = lam_try - lam
            msq = float(move @ move)
            if msq <= 1e-28:
                if step >= step0:
                    break  # projected fixed point at a safe step: optimal
                step = min(step * 4.0, step0)
                continue
            z2, comp2, dual2, quad2 = core.inner(lam_try)
            # steps at or below 1/curv ascend in exact arithmetic, so take
            # them even when the increase falls below rounding noise
            if dual2 >= dual + 0.5 * msq / step or step <= step0:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        lam, z, comp, dual, quad = lam_try, z2, comp2, dual2, quad2
        step = min(step * 2.0, 1e6 * step0)
        gap = core.primal(comp, quad) - dual
    return z, lam, core.primal(comp, quad), gap, iters + 1


def _core_from_evals(p: ProblemSpec, x, y, evals_y, evals_x, ell: float) -> _Core:
    """Core at expansion point y from eval_smooth's results at y and at x.

    Forms the offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)); a Jacobian G or
    offsets c that are not finite raise InvalidInputError.
    """
    vals_y, G = evals_y
    vals_x, _ = evals_x
    c = vals_y - (vals_x + eval_g(p, x))
    if not (np.isfinite(G).all() and np.isfinite(c).all()):
        raise InvalidInputError(
            f"{p.name}: Jacobian or offsets at y = {np.asarray(y, float).tolist()} are not finite"
        )
    return _Core(np.asarray(y, float), G, c, ell, p.g_kind)


def _build_core(inp: SubproblemInput) -> _Core:
    p = inp.problem
    evals_y = eval_smooth(p, inp.y, inp.mu)
    return _core_from_evals(p, inp.x, inp.y, evals_y, eval_smooth(p, inp.x, inp.mu), inp.ell)


def solve_subproblem(
    inp: SubproblemInput,
    tol: float = DEFAULT_TOL,
    max_inner: int = DEFAULT_MAX_INNER,
    lam0: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the min-max model to duality gap <= tol.

    If the gap is still above tol after max_inner ascent steps the best
    iterate is returned with converged=False; the caller decides.
    """
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    core = _build_core(inp)
    m = core.G.shape[0]
    if lam0 is None:
        lam0 = np.full(m, 1.0 / m)
    z, lam, theta, gap, iters = _solve_core(core, np.asarray(lam0, float), tol, max_inner)
    _, comp, _, _ = core.inner(lam)
    inactive = comp < comp.max() - _ACTIVE_SLACK
    complementarity = float(lam[inactive].max()) if inactive.any() else 0.0
    return SubproblemSolution(
        z, lam, theta, gap, _kkt_from_core(core, z, lam), complementarity, iters, gap <= tol
    )


def _kkt_from_core(core: _Core, z: np.ndarray, lam: np.ndarray) -> float:
    """Stationarity residual || sum_i lam_i grad_i + xi + ell (z - y) ||.

    xi is the element of the subdifferential of g at z closest to exact
    stationarity.
    """
    d = core.G.T @ lam + core.ell * (z - core.y)
    # xi must equal -d for stationarity; clamp it into the subdifferential of g
    xi = -d
    if core.g_kind is GKind.SCALED_L1:
        w = 1.0 / core.n
        hi = np.where(z > 0, w, np.where(z < 0, -w, w))
        lo = np.where(z > 0, w, np.where(z < 0, -w, -w))
        xi = np.clip(xi, lo, hi)
    elif core.g_kind is GKind.ZERO:
        xi = np.zeros_like(d)
    return float(np.linalg.norm(d + xi))
