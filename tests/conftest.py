"""Shared helpers: custom problem construction, references and brute-force oracles.

The oracles here deliberately re-derive everything from eval_smooth /
eval_true, with g written out in NumPy, instead of reusing solver
internals, so they can catch bugs in the code under test.  value_grad re-derives tree evaluation from
the atoms without the compiled kernel.  The subproblem references work on
NumPy arrays where sapgm.subproblem works on float lists: prox_g and
project_simplex, the prox step inner_reference, the certificates
kkt_residual_reference and complementarity_reference, and
solve_pair_reference, the m = 2 kink search.  inner_loop_reference and
solve_pair_loop_reference are the prox step and the m = 2 kink search as
the float loops they were before sapgm.subproblem compiled them, kept to pin
the compiled kernels' bits.  solve_pair_full_scan is the float kink search
that evaluates h at every kink, kept to pin the bits of the one that
evaluates it only inside the bracket.  core_from_evals_loop_reference is
the core build as loops, kept to pin the compiled build's bits;
backtrack_step_loop_reference is the backtracking step as the layered loop
it was before each problem's step was compiled, kept to pin the compiled
step's bits and errors; called_atom_kernel compiles a tree with each
smoothing atom as one call of its scalar rule, as the kernels did before
the atoms' arithmetic was written out; and spliced_kernel compiles several
trees' lines together, as a problem's step splices them.  g is
(1/n) ||x||_1 throughout, as in sapgm.  The session fixture benchmark_run
runs the pinned grid once, for every test that reads its artifacts.
"""
from __future__ import annotations

import csv
import math
import time

import numpy as np
import pytest

from sapgm.bench import BenchConfig, run_benchmark
from sapgm.errors import DivergingLipschitzError, InvalidInputError
from sapgm.problems import GKind, ProblemSpec, _g, _point, eval_smooth, eval_true
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
    _KERNEL_GLOBALS,
    _compile,
    _tree_source,
    compose_surrogate,
    smooth_abs,
    smooth_max2,
    smooth_max_list,
    smooth_plus,
)
from sapgm.solver import MAX_BACKTRACKS
from sapgm.subproblem import DEFAULT_TOL, _Core, _core_from_evals, _solve_core


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """The pinned grid (200 runs of each problem and solver from seed 42),
    run once: its runs.csv rows, its wall time and its artifact directory."""
    out = tmp_path_factory.mktemp("bench")
    t0 = time.perf_counter()
    run_benchmark(BenchConfig(runs=200, base_seed=42, solver="both", out_dir=out))
    elapsed = time.perf_counter() - t0
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"rows": rows, "elapsed": elapsed, "out": out}


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


def prox_g(v, tau, n):
    """argmin_z tau * g(z) + 0.5 ||z - v||^2 for g = (1/n) ||.||_1: soft-thresholding at tau / n."""
    v = np.asarray(v, dtype=float)
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
    z = prox_g(y - G.T @ lam / core.ell, 1.0 / core.ell, core.n)
    dz = z - y
    gz = float(np.abs(z).sum()) / core.n
    comp = G @ dz + c + gz
    quad = 0.5 * core.ell * float(dz @ dz)
    return z, comp, float(lam @ comp) + quad, quad


def kkt_residual_reference(core, z, lam):
    """|| G^T lam + xi + ell (z - y) || with xi the subgradient of g at z nearest stationarity."""
    y, G, _ = core_arrays(core)
    z = np.asarray(z, float)
    d = G.T @ np.asarray(lam, float) + core.ell * (z - y)
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
    thr = 1.0 / (core.ell * core.n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kinks = np.concatenate((a - thr, a + thr)) * core.ell / np.concatenate((d, d))
    # a kink outside [0, 1], or of a coordinate constant in t, lands on 0 or 1
    ts = np.concatenate(([0.0, 1.0, t0], np.fmin(np.fmax(kinks, 0.0), 1.0)))
    with np.errstate(invalid="ignore", over="ignore"):
        Z = prox_g(a - ts[:, None] * (d / core.ell), 1.0 / core.ell, core.n)
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


def inner_loop_reference(core, lam):
    """The core's prox step as one loop over the coordinates: the float
    arithmetic sapgm.subproblem's emitted prox lines must reproduce bit for
    bit.  Returns (z, brackets comp, dual value, quad, dots).

    z = soft(y - sum_i lam_i g_i / ell), dots_i = <g_i, z - y> (summed from
    0.0 over j in order), comp_i = dots_i + c_i + g(z),
    quad = (ell / 2) ||z - y||^2 and the dual value is lam . comp + quad.
    The soft threshold sign(v) * max(|v| - tau, 0) keeps signed zeros and
    nan as np.sign gives them: +0 at -0.0, -0 below 0 and nan at nan.
    """
    ell, G = core.ell, core.G
    l0, g0 = lam[0], G[0]
    rest = tuple(zip(lam[1:], G[1:]))
    z, dz = [], []
    gz = sq = 0.0  # g(z) and ||z - y||^2
    tau = 1.0 / ell / core.n
    for j, yj in enumerate(core.y):
        vj = l0 * g0[j]  # (G^T lam)_j, summed over i in order
        for li, row in rest:
            vj += row[j] * li
        u = yj - vj / ell
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
    gz /= core.n
    comp, dots = [], []
    dual = 0.0  # lam . comp
    for g, ci, li in zip(G, core.c, lam):
        b = 0.0
        for gj, dj in zip(g, dz):
            b += gj * dj
        dots.append(b)
        b = b + ci + gz
        comp.append(b)
        dual += li * b
    quad = 0.5 * ell * sq
    return z, comp, dual + quad, quad, dots


def solve_pair_loop_reference(core, lam0):
    """The m = 2 kink search as loops over the coordinates: the float
    arithmetic of sapgm.subproblem's compiled pair kernel, which must give
    its bits.  The prox step at the root is inner_loop_reference's.

    Exact dual maximizer for m = 2 over lam = (t, 1 - t).

    z(t) = prox(a - t d / ell) with d = g_1 - g_2 and a = y - g_2 / ell, and
    h(t) = <d, z(t) - y> + c_1 - c_2 is the dual derivative.  The prox is
    monotone, so h does not increase; it is linear between the kinks
    t = (a_j -+ thr) ell / d_j where a soft-threshold coordinate switches.
    h is evaluated at the start weight t0, 0 and 1 first.  A non-finite h
    there gives t = nan and so a non-finite gap (h is finite between two
    finite ends); a start weight where h vanishes (a flat dual) is kept, as
    the ascent keeps it; h(0) <= 0 gives t = 0 and h(1) >= 0 gives t = 1.
    Otherwise the last point where h > 0 and the first where h <= 0 bracket
    the root, and only the kinks strictly inside the bracket are evaluated,
    each narrowing it (a kink outside (0, 1), or of a coordinate constant in
    t, is never inside).  Every step of h rounds monotonically, so the
    computed h does not increase either, and the bracket ends are the ones a
    scan of h over every kink picks.  The root is interpolated on the
    bracket's linear piece.  Returns (lam, 1, the prox step at lam).
    """
    ell = core.ell
    g1, g2 = core.G
    c1, c2 = core.c
    l0, l1 = lam0
    # projection onto the simplex; a weight already on it stays as it is
    t0 = min(max(l0 + 0.5 * (1.0 - l0 - l1), 0.0), 1.0)
    tau = 1.0 / ell / core.n  # the prox threshold, formed as inner_loop_reference forms it
    coords = []  # (a_j, d_j / ell, y_j, d_j)
    for yj, u, v in zip(core.y, g1, g2):
        dj = u - v
        coords.append((yj - v / ell, dj / ell, yj, dj))
    dc = c1 - c2

    def h(t):
        s = 0.0
        for aj, sj, yj, dj in coords:
            u = aj - t * sj  # soft threshold as in inner_loop_reference
            if u > tau:
                u -= tau
            elif u < -tau:
                u += tau
            else:
                u = 0.0 if u >= 0.0 else 0.0 * u
            s += (u - yj) * dj
        return s + dc

    ht, h0, h1 = h(t0), h(0.0), h(1.0)
    if not (math.isfinite(ht) and math.isfinite(h0) and math.isfinite(h1)):
        t = math.nan
    elif ht == 0.0:
        t = t0
    elif h0 <= 0.0:
        t = 0.0
    elif h1 >= 0.0:
        t = 1.0
    else:
        # t0 is an end of the bracket; at 0 or 1 it carries that end's h
        ti, hi, tj, hj = (t0, ht, 1.0, h1) if ht > 0.0 else (0.0, h0, t0, ht)
        thr = 1.0 / (ell * core.n)
        for aj, _, _, dj in coords:
            if dj:
                for k in ((aj - thr) * ell / dj, (aj + thr) * ell / dj):
                    if ti < k < tj:
                        hk = h(k)
                        if hk > 0.0:
                            ti, hi = k, hk
                        else:
                            tj, hj = k, hk
        t = min(ti + (tj - ti) * hi / (hi - hj), tj)  # rounding can land one ulp past tj
    lam = [t, 1.0 - t]
    return lam, 1, inner_loop_reference(core, lam)


def solve_pair_full_scan(core, lam0):
    """The m = 2 float kink search that evaluates h at 0, 1, the start weight
    and every kink in (0, 1).  sapgm.subproblem's compiled pair kernel
    evaluates h only at the kinks inside its bracket, and must give the same
    bits.

    Exact dual maximizer for m = 2 over lam = (t, 1 - t).

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
    thr = 1.0 / (ell * core.n)
    tau = 1.0 / ell / core.n  # the prox threshold
    coords = []  # (a_j, d_j / ell, y_j, d_j)
    for yj, u, v in zip(core.y, g1, g2):
        dj = u - v
        aj = yj - v / ell
        coords.append((aj, dj / ell, yj, dj))
        if dj:
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
        t = min(ti + (tj - ti) * hi / (hi - hj), tj)  # rounding can land one ulp past tj
    lam = [t, 1.0 - t]
    return lam, 1, core.inner(lam)


def core_from_evals_loop_reference(p, x, y, evals_y, evals_x, ell):
    """sapgm.subproblem._core_from_evals as the loops it was before it was
    compiled: the core and the error its compiled build must reproduce."""
    vals_y, G = evals_y
    vals_x, _ = evals_x
    gx = _g(p, x)
    c = [fy - (fx + gx) for fy, fx in zip(vals_y, vals_x)]
    core = _Core(y, G, c, ell)
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


def backtrack_step_loop_reference(p, x, y, mu, cfg):
    """sapgm.solver.backtrack_step as the layered loop it was before each
    problem's step was compiled: the step and the errors the compiled step
    must reproduce."""
    y = _point(p, y)
    evals_y = eval_smooth(p, y, mu)
    x = _point(p, x)
    evals_x = evals_y if x == y else eval_smooth(p, x, mu, jac=False)
    L_trial = cfg.L0
    core = _core_from_evals(p, x, y, evals_y, evals_x, L_trial / mu)
    vals_y = evals_y[0]
    m = len(vals_y)
    lam0 = [1.0 / m] * m
    for trial in range(1, MAX_BACKTRACKS + 2):
        z, _, _, _, _, dots, quad, _ = _solve_core(core, lam0, DEFAULT_TOL)
        if not all(map(math.isfinite, z)):
            raise InvalidInputError(f"{p.name}: the subproblem at y = {y} gives the trial point z = {z}, which is not finite")
        vals_z, _ = eval_smooth(p, z, mu, jac=False)
        # f_i(z) - f_i(y) - <grad f_i(y), z - y> <= (ell / 2) ||z - y||^2 for every i;
        # dots and quad are the prox step's <grad f_i(y), z - y> and (ell / 2) ||z - y||^2
        bound = quad + (1e-9 * max(1.0, quad) + 1e-12)
        for fz, fy, dot in zip(vals_z, vals_y, dots):
            if not fz - fy - dot <= bound:  # so that a nan trial fails
                break
        else:
            return z, L_trial, trial, vals_z
        L_trial *= cfg.eta
        core.ell = L_trial / mu
    raise DivergingLipschitzError(
        f"{p.name}: descent test still failing after {MAX_BACKTRACKS} inflations "
        f"(L reached {L_trial:.3g}); surrogate gradients are suspect"
    )


# each smoothing atom's rule as one call of its scalar rule, as the kernels
# ran them before the atoms' arithmetic was written out
_CALLED_ATOM_RULES = {
    Abs: lambda self, v, a, args, bind: (f"{v}, {v}d = smooth_abs({args[0]}, mu)", [f"{v}d * {a}"]),
    Plus: lambda self, v, a, args, bind: (f"{v}, {v}d = smooth_plus({args[0]}, mu)", [f"{v}d * {a}"]),
    Max2: lambda self, v, a, args, bind: (
        f"{v}, {v}a, {v}b = smooth_max2({args[0]}, {args[1]}, mu)",
        [f"{v}a * {a}", f"{v}b * {a}"],
    ),
    MaxList: lambda self, v, a, args, bind: (
        f"{v}, {v}w = smooth_max_list([{', '.join(args)}], mu)",
        [f"{v}w[{j}] * {a}" for j in range(len(args))],
    ),
}


def called_atom_kernel(expr):
    """The tree compiled with each smoothing atom as one call of its scalar
    rule: (n, value, value_grad), as sapgm.smoothing._compile gives them."""
    with pytest.MonkeyPatch.context() as mp:
        for cls, rule in _CALLED_ATOM_RULES.items():
            mp.setattr(cls, "code", rule)
        return _compile(expr)


def spliced_kernel(exprs):
    """The lines _tree_source emits for several trees, compiled together as a
    problem's backtracking step splices them: (value, value_grad), where
    value(x, mu) gives the m values and value_grad(x, mu) the m values and
    the m gradient rows, as lists."""
    src = _tree_source(exprs)
    unpack = "".join(f"x{k}, " for k in range(src.n)) + "= x"
    values = f"[{', '.join(src.values)}]"
    rows = "[" + ", ".join(f"[{', '.join(row)}]" for row in src.grads) + "]"
    code = "\n".join(
        ["def value(x, mu):"]
        + [f"    {line}" for line in [unpack] + src.forward + [f"return {values}"]]
        + ["def value_grad(x, mu):"]
        + [f"    {line}" for line in [unpack] + src.fused + [f"return {values}, {rows}"]]
    )
    ns = {**_KERNEL_GLOBALS, **src.consts}
    exec(code, ns)
    return ns["value"], ns["value_grad"]


def bits(value):
    """value with every float as float.hex, so that nan equals nan and -0.0 differs from 0.0."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def assert_kernel_matches_components(exprs, parts, x, mu):
    """The trees' lines compiled together (spliced_kernel) give, bit for bit,
    what their components' one-tree kernels give at (x, mu): the values and
    gradient rows, the values alone, and the exact values at mu = 0."""
    value, value_grad = spliced_kernel(exprs)
    x = np.asarray(x, float).tolist()
    ones = [s.eval(x, mu) for s in parts]
    values, rows = value_grad(x, mu)
    assert bits(values) == bits([v for v, _ in ones])
    assert bits(rows) == bits([g for _, g in ones])
    assert bits(value(x, mu)) == bits([s.eval(x, mu, jac=False)[0] for s in parts])
    assert bits(value(x, 0.0)) == bits([s.true_eval(x) for s in parts])


def build_problem(name, exprs, lower, upper, cert_pad=5.0):
    """Assemble a ProblemSpec from expression trees, with g = (1/n) ||x||_1.

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
        g_kind=GKind.SCALED_L1,
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
    from sapgm.problems import eval_smooth

    p = inp.problem
    vals_y, grads_y = eval_smooth(p, inp.y, inp.mu)
    vals_x, _ = eval_smooth(p, inp.x, inp.mu)
    vals_y, grads_y, vals_x = np.asarray(vals_y), np.asarray(grads_y), np.asarray(vals_x)
    offs = vals_y - (vals_x + np.abs(inp.x).sum() / p.n)

    def phi(Z):
        Z = np.atleast_2d(np.asarray(Z, float))
        dz = Z - inp.y
        bracket = dz @ grads_y.T + offs
        gz = np.abs(Z).sum(axis=1) / p.n
        return bracket.max(axis=1) + gz + 0.5 * inp.ell * (dz**2).sum(axis=1)

    return phi
