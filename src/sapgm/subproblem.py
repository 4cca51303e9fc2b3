"""Per-iteration min-max subproblem, solved through its concave dual.

The primal is the strongly convex model

    phi(z) = max_i [ <grad_i, z - y> + g(z) + c_i ] + (ell / 2) ||z - y||^2

with per-component offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)).  Dualizing
the max over the unit simplex gives, for weights lam,

    q(lam) = min_z  <G^T lam, z - y> + g(z) + (ell / 2) ||z - y||^2 + lam . c

whose inner minimum is a single prox step, _Core.inner.  q is concave.  For
m = 2 it is maximized exactly: with lam = (t, 1 - t) its derivative in t is
comp_1 - comp_2, which does not increase and is piecewise linear with a kink
wherever a soft-threshold coordinate of the prox switches, so one pass over
the kinks brackets its root on a linear piece.  Other m use projected
gradient ascent with a backtracking step.  Both paths, the prox step and
the certificates run on Python floats, since at these sizes a NumPy call
costs more than its arithmetic; only the ascent's curvature bound takes a
matrix norm, once per solve.  For the same reason the per-call overhead of
the m = 2 path is kept low: the prox step fills z, z - y and g(z) in one
loop, the kink search builds its coordinates and kinks in another, both
with the soft threshold written inline, and a core's finiteness check is
one sum.  Only the prox step forms z - y, ||z - y||^2 and <g_i, z - y>;
every consumer of a solve reads them from its last step.  Strong convexity
makes the primal minimizer unique, so the duality gap, the KKT residual and
the complementarity violation certify the solution; solve_subproblem
returns all three with it.

All g_i are required to be the identical shared term; distinct g_i would
break the closed-form inner step and are rejected at ProblemSpec
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .problems import GKind, ProblemSpec, _g, _point, eval_smooth

__all__ = [
    "SubproblemInput",
    "SubproblemSolution",
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
        # each check is written so that NaN fails it
        if not 0.0 < self.mu < math.inf:
            raise InvalidParameterError("mu must be finite and positive")
        if not 0.0 < self.ell < math.inf:
            raise InvalidParameterError("ell must be finite and positive")


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


def _floats(a) -> list:
    """A list (of rows) as it is, an array as its list of floats."""
    return a if type(a) is list else np.asarray(a, dtype=float).tolist()


def _combine(lam, rows) -> list:
    """sum_i lam_i rows_i, one coordinate at a time, summed over i in order."""
    v = [lam[0] * r for r in rows[0]]
    for li, row in zip(lam[1:], rows[1:]):
        v = [vj + r * li for vj, r in zip(v, row)]
    return v


class _Core:
    """The min-max model at one expansion point y: Jacobian rows G, offsets c
    and the prox weight ell, as float lists (rows of floats for G).

    A core serves every trial of a backtracking step, and only ell changes
    between trials.  Its prox step ``inner`` is the one both dual paths and
    the certificates take.
    """

    __slots__ = ("y", "G", "c", "ell", "g_kind", "n")

    def __init__(self, y, G, c, ell, g_kind):
        self.y = _floats(y)
        self.G = _floats(G)
        self.c = _floats(c)
        self.ell = ell
        self.g_kind = g_kind
        self.n = len(self.y)

    def inner(self, lam):
        """Prox step for fixed weights; returns (z, brackets comp, dual value, quad, dots).

        z = soft(y - sum_i lam_i g_i / ell), dots_i = <g_i, z - y> (summed from
        0.0 over j in order), comp_i = dots_i + c_i + g(z),
        quad = (ell / 2) ||z - y||^2 and the dual value is lam . comp + quad.
        The soft threshold sign(v) * max(|v| - tau, 0) keeps signed zeros and
        nan as np.sign gives them: +0 at -0.0, -0 below 0 and nan at nan.
        """
        ell, G = self.ell, self.G
        l0, g0 = lam[0], G[0]
        rest = tuple(zip(lam[1:], G[1:]))
        z, dz = [], []
        gz = sq = 0.0  # g(z) and ||z - y||^2
        scaled = self.g_kind is GKind.SCALED_L1
        if scaled:
            tau = 1.0 / ell / self.n
        for j, yj in enumerate(self.y):
            vj = l0 * g0[j]  # (G^T lam)_j, summed over i in order
            for li, row in rest:
                vj += row[j] * li
            u = yj - vj / ell
            if scaled:
                if u > tau:
                    u -= tau
                elif u < -tau:
                    u += tau
                else:
                    u = 0.0 if u >= 0.0 else 0.0 * u
                gz += abs(u)
            z.append(u)
            dj = u - yj
            dz.append(dj)
            sq += dj * dj
        if scaled:
            gz /= self.n
        comp, dots = [], []
        dual = 0.0  # lam . comp
        for g, ci, li in zip(G, self.c, lam):
            b = 0.0
            for gj, dj in zip(g, dz):
                b += gj * dj
            dots.append(b)
            b = b + ci + gz
            comp.append(b)
            dual += li * b
        quad = 0.5 * ell * sq
        return z, comp, dual + quad, quad, dots


def _solve_core(core: _Core, lam0, tol: float, max_inner: int):
    """Maximize the dual from lam0; returns (z, lam, theta, gap, steps, dots, quad, comp),
    where z, dots, quad and comp are the prox step's at lam and the lists hold floats."""
    if len(core.G) == 2:
        lam, steps, (z, comp, dual, quad, dots) = _solve_pair(core, lam0)
    else:
        lam, steps, (z, comp, dual, quad, dots) = _ascend(core, lam0, tol, max_inner)
    theta = max(comp) + quad
    return z, lam, theta, theta - dual, steps, dots, quad, comp


def _dot(u, v) -> float:
    """Sum of products, left to right (sum() of floats compensates from Python 3.12 on)."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _solve_pair(core: _Core, lam0):
    """Exact dual maximizer for m = 2 over lam = (t, 1 - t).

    z(t) = prox(a - t d / ell) with d = g_1 - g_2 and a = y - g_2 / ell, and
    h(t) = <d, z(t) - y> + c_1 - c_2 is the dual derivative.  The prox is
    monotone, so h does not increase; it is linear between the kinks
    t = (a_j -+ thr) ell / d_j where a soft-threshold coordinate switches.
    h is evaluated at 0, 1, the start weight and every kink inside (0, 1)
    (one outside, or of a coordinate constant in t, would land on 0 or 1),
    and its root is interpolated between the last point where h > 0 and the
    first where h <= 0.  A start weight where h vanishes (a flat dual) is
    kept, as the ascent keeps it; a non-finite h gives t = nan and so a
    non-finite gap.  Returns (lam, 1, the prox step at lam).
    """
    ell = core.ell
    g1, g2 = core.G
    c1, c2 = core.c
    l0, l1 = float(lam0[0]), float(lam0[1])
    # projection onto the simplex; a weight already on it stays as it is
    t0 = min(max(l0 + 0.5 * (1.0 - l0 - l1), 0.0), 1.0)
    ts = [0.0, 1.0, t0]
    scaled = core.g_kind is GKind.SCALED_L1
    tau = 0.0  # the prox threshold; 0 makes the soft threshold the identity on h
    if scaled:
        thr = 1.0 / (ell * core.n)
        tau = 1.0 / ell / core.n
    coords = []  # (a_j, d_j / ell, y_j, d_j)
    for yj, u, v in zip(core.y, g1, g2):
        dj = u - v
        aj = yj - v / ell
        coords.append((aj, dj / ell, yj, dj))
        if scaled and dj:
            for k in ((aj - thr) * ell / dj, (aj + thr) * ell / dj):
                if 0.0 < k < 1.0:
                    ts.append(k)
    dc = c1 - c2
    hs = []
    for t in ts:
        h = 0.0
        for aj, sj, yj, dj in coords:
            u = aj - t * sj  # soft threshold as in _Core.inner
            if u > tau:
                u -= tau
            elif u < -tau:
                u += tau
            else:
                u = 0.0 if u >= 0.0 else 0.0 * u
            h += (u - yj) * dj
        hs.append(h + dc)
    if not all(map(math.isfinite, hs)):
        t = math.nan
    elif hs[2] == 0.0:
        t = t0
    elif hs[0] <= 0.0:
        t = 0.0
    elif hs[1] >= 0.0:
        t = 1.0
    else:
        ti, hi = max((t, h) for t, h in zip(ts, hs) if h > 0.0)
        tj, hj = min((t, h) for t, h in zip(ts, hs) if h <= 0.0)
        t = ti + (tj - ti) * hi / (hi - hj)
    lam = [t, 1.0 - t]
    return lam, 1, core.inner(lam)


def _proj_simplex(w: list) -> list:
    """Euclidean projection of a float list onto the unit simplex (sort and threshold)."""
    tau = math.nan  # stays nan when no entry is finite
    cs = 0.0
    for k, u in enumerate(sorted(w, reverse=True), 1):
        cs += u
        if u > (cs - 1.0) / k:
            tau = (cs - 1.0) / k
    return [max(v - tau, 0.0) for v in w]


def _ascend(core: _Core, lam0, tol: float, max_inner: int):
    """Projected gradient ascent on the dual, the path for m != 2; returns (lam, steps, prox step)."""
    lam = _proj_simplex([float(v) for v in lam0])
    prox = core.inner(lam)
    _, comp, dual, quad, _ = prox
    # dual curvature along simplex directions is at most smax(G_centered)^2 / ell;
    # its reciprocal is the natural ascent step
    G = np.array(core.G)
    curv = float(np.linalg.norm(G - G.mean(axis=0), 2)) ** 2 / core.ell
    if 2.0 * curv <= tol:
        # (nearly) linear dual, m = 1 included: lam moves z by at most
        # smax sqrt(2) / ell, so the vertex of the largest bracket has gap <= 2 curv
        lam = [0.0] * len(lam)
        lam[max(range(len(comp)), key=comp.__getitem__)] = 1.0
        return lam, 1, core.inner(lam)
    step0 = 1.0 / max(curv, 1e-300)
    step = step0
    iters = 0
    while max(comp) + quad - dual > tol and iters < max_inner:
        iters += 1
        # comp is the dual (super)gradient; backtrack on the ascent step
        accepted = False
        for _ in range(60):
            lam_try = _proj_simplex([li + step * ci for li, ci in zip(lam, comp)])
            move = [u - v for u, v in zip(lam_try, lam)]
            msq = _dot(move, move)
            if msq <= 1e-28:
                if step >= step0:
                    break  # projected fixed point at a safe step: optimal
                step = min(step * 4.0, step0)
                continue
            prox_try = core.inner(lam_try)
            dual_try = prox_try[2]
            # steps at or below 1/curv ascend in exact arithmetic, so take
            # them even when the increase falls below rounding noise
            if dual_try >= dual + 0.5 * msq / step or step <= step0:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        lam, prox = lam_try, prox_try
        _, comp, dual, quad, _ = prox
        # where z rests in a flat piece of the prox (inside the soft-threshold
        # band) the dual is linear and 1/curv is far too short a step, so the
        # step doubles up to 2^40 step0, which 60 halvings still bring back
        step = min(step * 2.0, 2.0**40 * step0)
    return lam, iters + 1, prox


def _core_from_evals(p: ProblemSpec, x, y, evals_y, evals_x, ell: float) -> _Core:
    """Core at expansion point y from eval_smooth's float lists at y and at x.

    x and y must be points that eval_smooth has accepted; _point makes any
    of them (an array, NumPy scalars) a list of Python floats, so z is one.
    Forms the offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)); a Jacobian G or
    offsets c that are not finite raise InvalidInputError.
    """
    vals_y, G = evals_y
    vals_x, _ = evals_x
    x, y = _point(p, x), _point(p, y)
    gx = _g(p, x)
    c = [fy - (fx + gx) for fy, fx in zip(vals_y, vals_x)]
    core = _Core(y, G, c, ell, p.g_kind)
    # 0 * v is 0 for a finite v and nan for inf or nan, so one sum finds either
    s = 0.0
    for v in c:
        s += 0.0 * v
    for row in core.G:
        for v in row:
            s += 0.0 * v
    if s != 0.0:
        raise InvalidInputError(f"{p.name}: Jacobian or offsets at y = {core.y} are not finite")
    return core


def _build_core(inp: SubproblemInput) -> _Core:
    p = inp.problem
    evals_y = eval_smooth(p, inp.y, inp.mu)
    return _core_from_evals(p, inp.x, inp.y, evals_y, eval_smooth(p, inp.x, inp.mu, jac=False), inp.ell)


def solve_subproblem(
    inp: SubproblemInput,
    tol: float = DEFAULT_TOL,
    max_inner: int = DEFAULT_MAX_INNER,
    lam0: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the min-max model to duality gap <= tol.

    lam0, the start weights, must be m finite numbers (default: uniform);
    InvalidInputError otherwise.  If the gap is still above tol after
    max_inner ascent steps the best iterate is returned with
    converged=False; the caller decides.
    """
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    m = inp.problem.m
    if lam0 is None:
        lam0 = [1.0 / m] * m
    elif np.shape(lam0) != (m,) or not np.isfinite(lam0).all():
        raise InvalidInputError(f"lam0 must be {m} finite weights, got {lam0!r}")
    core = _build_core(inp)
    z, lam, theta, gap, iters, _, _, comp = _solve_core(core, lam0, tol, max_inner)
    kkt, complementarity = _kkt_residual(core, z, lam), _complementarity(comp, lam)
    return SubproblemSolution(np.array(z), np.array(lam), theta, gap, kkt, complementarity, iters, gap <= tol)


def _kkt_residual(core: _Core, z: list, lam: list) -> float:
    """Stationarity residual || sum_i lam_i grad_i + xi + ell (z - y) ||.

    xi is the element of the subdifferential of g at z closest to exact
    stationarity.
    """
    ell = core.ell
    d = [vj + ell * (zj - yj) for vj, zj, yj in zip(_combine(lam, core.G), z, core.y)]
    if core.g_kind is GKind.ZERO:
        return math.sqrt(_dot(d, d))
    # xi must equal -d for stationarity; clamp it into the subdifferential of
    # g = ||.||_1 / n: {sign(z_j) / n} where z_j != 0, [-1/n, 1/n] where z_j = 0
    w = 1.0 / core.n
    r = []
    for dj, zj in zip(d, z):
        lo, hi = (w, w) if zj > 0.0 else (-w, -w) if zj < 0.0 else (-w, w)
        r.append(dj + min(max(-dj, lo), hi))
    return math.sqrt(_dot(r, r))


def _complementarity(comp: list, lam: list) -> float:
    """Largest weight on a bracket more than _ACTIVE_SLACK below the largest."""
    top = max(comp) - _ACTIVE_SLACK
    return max((li for li, ci in zip(lam, comp) if ci < top), default=0.0)
