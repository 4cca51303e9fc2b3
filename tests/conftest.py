"""Shared helpers: custom problem construction, references and brute-force oracles.

The oracles here deliberately re-derive everything from eval_smooth /
eval_g / eval_true instead of reusing solver internals, so they can catch
bugs in the code under test.  value_grad re-derives tree evaluation from
the atoms without the compiled kernel.  The subproblem references work on
NumPy arrays where sapgm.subproblem works on float lists: prox_g and
project_simplex, the prox step inner_reference, the certificates
kkt_residual_reference and complementarity_reference, and
solve_pair_reference, the m = 2 kink search.
"""
from __future__ import annotations

import math

import numpy as np

from sapgm.problems import GKind, ProblemSpec, eval_true
from sapgm.smoothing import (
    Abs,
    Affine,
    Exp,
    Max2,
    MaxList,
    Plus,
    Quartic,
    Scale,
    Square,
    Sum,
    compose_surrogate,
    smooth_abs,
    smooth_max2,
    smooth_max_list,
    smooth_plus,
)


def value_grad(expr, x, mu):
    """Reference evaluator: value and gradient of a tree at (x, mu) by recursion.

    Each node combines its children's values and NumPy gradient vectors by
    the chain rule, so it shares only the scalar atoms with the compiled
    kernel.  mu = 0 gives the exact value and a subgradient.
    """
    x = np.asarray(x, float)
    if isinstance(expr, Affine):
        return float(expr.w @ x) + expr.c, expr.w.copy()
    if isinstance(expr, Sum):
        v, g = 0.0, np.zeros(x.size)
        for c in expr.children:
            u, gu = value_grad(c, x, mu)
            v, g = v + u, g + gu
        return v, g
    if isinstance(expr, MaxList):
        vals, grads = zip(*[value_grad(c, x, mu) for c in expr.children])
        v, w = smooth_max_list(vals, mu)
        return v, sum(wj * gj for wj, gj in zip(w, grads))
    if isinstance(expr, Max2):
        ua, ga = value_grad(expr.a, x, mu)
        ub, gb = value_grad(expr.b, x, mu)
        v, da, db = smooth_max2(ua, ub, mu)
        return v, da * ga + db * gb
    u, gu = value_grad(expr.child, x, mu)
    if isinstance(expr, Scale):
        return expr.c * u, expr.c * gu
    if isinstance(expr, Square):
        return u * u, (2.0 * u) * gu
    if isinstance(expr, Quartic):
        return u**4, (4.0 * u**3) * gu
    if isinstance(expr, Exp):
        e = math.exp(u)
        return e, e * gu
    assert isinstance(expr, (Abs, Plus)), type(expr)
    v, d = (smooth_abs if isinstance(expr, Abs) else smooth_plus)(u, mu)
    return v, d * gu


def prox_g(v, tau, g_kind, n):
    """argmin_z tau * g(z) + 0.5 ||z - v||^2.

    Soft-thresholding at tau / n for the scaled l1 term, identity for g = 0.
    """
    v = np.asarray(v, dtype=float)
    if g_kind is GKind.ZERO:
        return v.copy()
    return np.sign(v) * np.maximum(np.abs(v) - tau / n, 0.0)


def project_simplex(w):
    """Euclidean projection onto the unit simplex (sort-and-threshold)."""
    w = np.asarray(w, dtype=float)
    u = np.sort(w)[::-1]
    cs = np.cumsum(u) - 1.0
    rho = np.nonzero(u > cs / np.arange(1, w.size + 1))[0][-1]
    tau = cs[rho] / (rho + 1.0)
    return np.maximum(w - tau, 0.0)


def core_arrays(core):
    """(y, G, c) of a subproblem core as new arrays."""
    return np.array(core.y), np.array(core.G), np.array(core.c)


def inner_reference(core, lam):
    """The core's prox step for weights lam: (z, brackets comp, dual value, quad)."""
    y, G, c = core_arrays(core)
    lam = np.asarray(lam, dtype=float)
    z = prox_g(y - G.T @ lam / core.ell, 1.0 / core.ell, core.g_kind, core.n)
    dz = z - y
    gz = float(np.abs(z).sum()) / core.n if core.g_kind is GKind.SCALED_L1 else 0.0
    comp = G @ dz + c + gz
    quad = 0.5 * core.ell * float(dz @ dz)
    return z, comp, float(lam @ comp) + quad, quad


def kkt_residual_reference(core, z, lam):
    """|| G^T lam + xi + ell (z - y) || with xi the subgradient of g at z nearest stationarity."""
    y, G, _ = core_arrays(core)
    z = np.asarray(z, float)
    d = G.T @ np.asarray(lam, float) + core.ell * (z - y)
    if core.g_kind is GKind.ZERO:
        return float(np.linalg.norm(d))
    w = 1.0 / core.n
    hi = np.where(z > 0, w, np.where(z < 0, -w, w))
    lo = np.where(z > 0, w, np.where(z < 0, -w, -w))
    return float(np.linalg.norm(d + np.clip(-d, lo, hi)))


def complementarity_reference(comp, lam):
    """Largest weight on a bracket more than 1e-8 below the largest, 0 if none."""
    comp, lam = np.asarray(comp, float), np.asarray(lam, float)
    inactive = comp < comp.max() - 1e-8
    return float(lam[inactive].max()) if inactive.any() else 0.0


def solve_pair_reference(core, lam0):
    """Reference m = 2 dual solve: the kink search over NumPy arrays.

    Same algorithm as the float search in sapgm.subproblem: h(t) at 0, 1,
    the start weight and every kink clipped into [0, 1], stacked and
    evaluated at once through prox_g, then inner_reference at the root.
    Returns (z, lam, theta, gap, 1).
    """
    y, G, c = core_arrays(core)
    d = G[0] - G[1]
    a = y - G[1] / core.ell
    t0 = min(max(lam0[0] + 0.5 * (1.0 - lam0[0] - lam0[1]), 0.0), 1.0)
    ts = np.array([0.0, 1.0, t0])
    if core.g_kind is GKind.SCALED_L1:
        thr = 1.0 / (core.ell * core.n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kinks = np.concatenate((a - thr, a + thr)) * core.ell / np.concatenate((d, d))
        # a kink outside [0, 1], or of a coordinate constant in t, lands on 0 or 1
        ts = np.concatenate((ts, np.fmin(np.fmax(kinks, 0.0), 1.0)))
    with np.errstate(invalid="ignore", over="ignore"):
        Z = prox_g(a - ts[:, None] * (d / core.ell), 1.0 / core.ell, core.g_kind, core.n)
        h = (Z - y) @ d + (c[0] - c[1])
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
    with np.errstate(invalid="ignore", over="ignore"):
        z, comp, dual, quad = inner_reference(core, lam)
        theta = float(comp.max()) + quad
    return z, lam, theta, theta - dual, 1


def build_problem(name, exprs, g_kind, lower, upper, cert_pad=5.0):
    """Assemble a ProblemSpec from expression trees.

    Lipschitz/kappa constants are certified on a box padded beyond the
    start-sampling box so iterates that leave it stay covered.
    """
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    pad = 0.5 * (upper - lower) + cert_pad
    box = (lower - pad, upper + pad)
    parts = tuple(compose_surrogate(e, box=box) for e in exprs)
    return ProblemSpec(
        name=name,
        n=lower.size,
        m=len(parts),
        smooth_parts=parts,
        g_kind=g_kind,
        lower=lower,
        upper=upper,
    )


def _grid_pass(fun, c, h, npts):
    xs = np.linspace(c[0] - h, c[0] + h, npts)
    ys = np.linspace(c[1] - h, c[1] + h, npts)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = np.column_stack([X.ravel(), Y.ravel()])
    return Z, fun(Z)


def _refine(fun, start, h, npts, tol, max_passes=15):
    c = np.asarray(start, float)
    best_val = np.inf
    best = c
    for _ in range(max_passes):
        Z, vals = _grid_pass(fun, c, h, npts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best = float(vals[i]), Z[i]
        spacing = 2.0 * h / (npts - 1)
        moved = float(np.max(np.abs(Z[i] - c)))
        c = Z[i]
        if spacing <= tol and moved <= tol:
            break
        # keep the window wide relative to the last move: near a kink
        # valley the true minimizer sits several spacings from the grid
        # argmin (only sqrt-scale localization holds there)
        h = max(4.0 * moved, 20.0 * spacing)
    return best, best_val


def _pattern_polish(fun, start, step, tol=1e-7, extra_dirs=()):
    # compass search with step halving; oblique moves let it slide along
    # kink valleys that defeat axis-aligned grids.  Callers can add exact
    # valley directions (e.g. orthogonal to a gradient difference), since
    # a steep kink stalls any quantized direction set.
    ang = np.arange(16) * (np.pi / 8)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    for d in extra_dirs:
        d = np.asarray(d, float)
        nrm = np.linalg.norm(d)
        if nrm > 0:
            dirs = np.vstack([dirs, d / nrm, -d / nrm])
    c = np.asarray(start, float)
    val = float(fun(c)[0])
    while step > tol:
        cand = c + step * dirs
        vals = fun(cand)
        i = int(np.argmin(vals))
        if vals[i] < val - 1e-15:
            c, val = cand[i], float(vals[i])
        else:
            step *= 0.5
    return c, val


def grid_argmin_2d(
    fun, center, halfwidth, npts=400, tol=2e-5, branch=5, refine_npts=120, extra_dirs=()
):
    """Brute-force minimizer of fun(Z), fun mapping (N, 2) arrays to N values.

    One coarse npts x npts pass, then independent refinements seeded from
    the best well-separated coarse candidates.  Branching matters because a
    narrow diagonal valley aliases on an axis-aligned grid: the global
    coarse argmin can lie in a side basin whose refinement never crosses
    back to the true one.
    """
    Z, vals = _grid_pass(fun, np.asarray(center, float), float(halfwidth), npts)
    spacing = 2.0 * float(halfwidth) / (npts - 1)
    seeds = []
    for i in np.argsort(vals):
        if all(np.max(np.abs(Z[i] - s)) > 5.0 * spacing for s in seeds):
            seeds.append(Z[i])
        if len(seeds) == branch:
            break
    results = [_refine(fun, s, 10.0 * spacing, refine_npts, tol) for s in seeds]
    polished = [_pattern_polish(fun, z, 4.0 * tol, extra_dirs=extra_dirs) for z, _ in results]
    return min(polished, key=lambda r: r[1])[0]


def exact_merit(p, x):
    """Brute-force Pareto merit u0(x) = sup_z min_i (F_i(x) - F_i(z)).

    Minimizes the convex excess max_i (F_i(z) - F_i(x)) with a 41 x 41 grid
    centred on x, doubled until its argmin is off the edge, then a pattern
    polish.  The polish runs down to steps of 1e-11, far below the grid
    oracle's default: near CB3&MF1's steep kink a coarser stop leaves
    the value a few percent short.  Only eval_true is used, never the solver
    or subproblem code.  u0 >= 0 (take z = x), so rounding below 0 is clamped.
    """
    x = np.asarray(x, float)
    if x.shape != (2,):
        raise ValueError("the grid oracle handles n = 2 only")
    Fx = eval_true(p, x)

    def excess(Z):
        return np.array([np.max(eval_true(p, z) - Fx) for z in np.atleast_2d(Z)])

    npts, h = 41, 1.0
    while True:
        Z, vals = _grid_pass(excess, x, h, npts)
        i = int(np.argmin(vals))
        if all(0 < j < npts - 1 for j in np.unravel_index(i, (npts, npts))):
            break
        h *= 2.0
    _, val = _pattern_polish(excess, Z[i], 2.0 * h / (npts - 1), tol=1e-11)
    return max(0.0, -val)


def exact_merit_series(p, trace, ks):
    """(k, u0(x_k)) for each k in ks; trace[k - 1] holds x_k."""
    return [(int(k), exact_merit(p, trace[int(k) - 1].x)) for k in ks]


def subproblem_objective(inp):
    """Independent evaluator of the outer min-max objective.

    phi(z) = max_i [ <grad_i(y), z - y> + g(z) + f_i(y) - (f_i(x) + g(x)) ]
             + (ell/2) ||z - y||^2
    with all smooth parts evaluated at the input's mu.  Returns a function
    of an (N, n) batch of candidate points.
    """
    from sapgm.problems import eval_g, eval_smooth

    p = inp.problem
    vals_y, grads_y = eval_smooth(p, inp.y, inp.mu)
    vals_x, _ = eval_smooth(p, inp.x, inp.mu)
    offs = vals_y - (vals_x + eval_g(p, inp.x))

    def phi(Z):
        Z = np.atleast_2d(np.asarray(Z, float))
        dz = Z - inp.y
        bracket = dz @ grads_y.T + offs
        if p.g_kind is GKind.SCALED_L1:
            gz = np.abs(Z).sum(axis=1) / p.n
        else:
            gz = np.zeros(len(Z))
        return bracket.max(axis=1) + gz + 0.5 * inp.ell * (dz**2).sum(axis=1)

    return phi
