"""Per-iteration min-max subproblem, solved through its concave dual.

The primal is the strongly convex model

    phi(z) = max_i [ <grad_i, z - y> + g(z) + c_i ] + (ell / 2) ||z - y||^2

with per-component offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)).  Dualizing
the max over the unit simplex gives, for weights lam,

    q(lam) = min_z  <G^T lam, z - y> + g(z) + (ell / 2) ||z - y||^2 + lam . c

whose inner minimum is a single prox step, _Core.inner.  q is concave.  For
m = 2 it is maximized exactly: with lam = (t, 1 - t) its derivative in t is
comp_1 - comp_2, which does not increase and is piecewise linear with a kink
wherever a soft-threshold coordinate of the prox switches.  The search
evaluates it at the start weight, 0 and 1 first, which settles a flat dual
and the vertices; only when those bracket the root does it evaluate the
kinks strictly inside the bracket, each narrowing it, and it interpolates
the root on the last bracket's linear piece.  Other m use projected
gradient ascent with a backtracking step, for at most DEFAULT_MAX_INNER
steps.  Every solve starts from the uniform weights.  Both paths, the prox
step and the certificates run on the float lists a core is given, since at
these sizes a NumPy call costs more than its arithmetic; only the ascent's
curvature bound takes a matrix norm, once per solve.

For the same reason the prox step and the m = 2 solve are compiled, as
the objective trees are.  The core build of a shape (m, n) forms g(x), the
offsets and the finiteness check of G and c as one straight-line sum; the
solver splices its lines (_core_lines) into each problem's backtracking
step, and solve_subproblem builds its core with the same arithmetic as a
loop (_core_from_evals).  One emitter (_prox_lines) writes the prox step as
straight-line source for a shape (m, n), with the soft threshold, z, z - y,
g(z), ||z - y||^2, the dots <g_i, z - y>, the brackets, the dual value and
quad each formed in a fixed order.  _Core.inner is that source compiled for
the core's (m, n).  The pair kernel of size n does all of an m = 2 solve in
one call: the start weight, the kink coordinates, h at the start weight, 0
and 1 written inline, the decision chain, the kink search through a
function h compiled beside it from the same soft-threshold lines, which
only kinks inside the bracket call, and the prox step at the root.  Each
kernel is compiled on its first call for its shape and kept for the
process; nothing is compiled at import.  Only the prox step forms z - y,
||z - y||^2 and <g_i, z - y>; every consumer of a solve reads them from its
last step.  Strong convexity makes the primal minimizer unique, so the
duality gap, the KKT residual and the complementarity violation certify the
solution; solve_subproblem returns all three with it.

g is the one nonsmooth term (1/n) ||z||_1, shared by every objective, so
the prox step is always the soft threshold at 1 / (ell n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, _positive
from .problems import ProblemSpec, _g, _point, eval_smooth

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
        for field in ("mu", "ell"):
            value = getattr(self, field)
            if not (_positive(value) and value < math.inf):  # nan and a value that is no number fail
                raise InvalidParameterError(f"{field} must be finite and positive")


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


def _combine(lam, rows) -> list:
    """sum_i lam_i rows_i, one coordinate at a time, summed over i in order."""
    v = [lam[0] * r for r in rows[0]]
    for li, row in zip(lam[1:], rows[1:]):
        v = [vj + r * li for vj, r in zip(v, row)]
    return v


class _Core:
    """The min-max model at one expansion point y: Jacobian rows G, offsets c
    and the prox weight ell, stored as the float lists (rows of floats for
    G) they are given; g is (1/n) ||z||_1.

    A core serves every trial of a backtracking step, and only ell changes
    between trials.  Its prox step ``inner`` is the kernel compiled for its
    shape (m, n), the one the ascent takes; the m = 2 solve runs the same
    emitted lines inside its own kernel.
    """

    __slots__ = ("y", "G", "c", "ell", "n")

    def __init__(self, y, G, c, ell):
        self.y = y
        self.G = G
        self.c = c
        self.ell = ell
        self.n = len(y)

    def inner(self, lam):
        """Prox step for fixed weights; returns (z, brackets comp, dual value, quad, dots).

        z = soft(y - sum_i lam_i g_i / ell), dots_i = <g_i, z - y> (summed from
        0.0 over j in order), comp_i = dots_i + c_i + g(z),
        quad = (ell / 2) ||z - y||^2 and the dual value is lam . comp + quad;
        see ``_prox_lines``.
        """
        return _INNER_KERNELS[len(self.G), self.n](self, lam)


def _solve_core(core: _Core, lam0: list, tol: float):
    """Maximize the dual from lam0; returns (z, lam, theta, gap, steps, dots, quad, comp),
    where z, dots, quad and comp are the prox step's at lam; lam0 and the lists hold floats.

    m = 2 is one call of the compiled pair kernel of size n (see
    ``_pair_source``); other m take the ascent, with theta and the gap formed
    from its last prox step.
    """
    if len(core.G) == 2:
        return _PAIR_KERNELS[core.n](core, lam0)
    lam, steps, (z, comp, dual, quad, dots) = _ascend(core, lam0, tol)
    theta = max(comp) + quad
    return z, lam, theta, theta - dual, steps, dots, quad, comp


def _dot(u, v) -> float:
    """Sum of products, left to right (sum() of floats compensates from Python 3.12 on)."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


# ---------------------------------------------------------------------------
# compiled kernels
# ---------------------------------------------------------------------------


def _soft(u: str) -> str:
    """The soft threshold sign(u) * max(|u| - tau, 0) of the name u as one
    expression, over the names tau and ntau = -tau.  It keeps signed zeros
    and nan as np.sign gives them: +0 at -0.0, -0 below 0 and nan at nan."""
    return f"{u} - tau if {u} > tau else {u} + tau if {u} < ntau else 0.0 if {u} >= 0.0 else 0.0 * {u}"


def _header(m: int, n: int, lam: str) -> list[str]:
    """Lines that unpack a core into y{j}, g{i}_{j}, c{i} and ell, the
    weights ``lam`` into l{i}, and form the prox threshold tau = 1 / (ell n)
    as 1.0 / ell / n, and ntau = -tau."""
    rows = "".join("(" + "".join(f"g{i}_{j}, " for j in range(n)) + "), " for i in range(m))
    return [
        "".join(f"y{j}, " for j in range(n)) + "= core.y",
        rows + "= core.G",
        "".join(f"c{i}, " for i in range(m)) + "= core.c",
        "ell = core.ell",
        "".join(f"l{i}, " for i in range(m)) + f"= {lam}",
        f"tau = 1.0 / ell / {n}",
        "ntau = -tau",
    ]


def _prox_lines(m: int, n: int) -> list[str]:
    """The prox step at the weights l{i}, as source lines over ``_header``'s names.

    They bind z{j} = soft(y_j - (G^T lam)_j / ell), w{j} = z_j - y_j, g(z)
    as gz, dot{i} = <g_i, w>, the brackets b{i} = dot_i + c_i + gz, dual =
    lam . b and quad = (ell / 2) ||w||^2.  Each sum runs over j (or i) in
    order: (G^T lam)_j is l0 g0_j + g1_j l1 + ..., and dot_i and dual start
    from 0.0 so that a sum of negative zeros gives +0.  g(z) and ||w||^2 add
    terms that are >= +0 or nan, where a leading 0.0 changes no bit, so they
    start from their first term.
    """
    lines = []
    for j in range(n):
        v = " + ".join([f"l0 * g0_{j}"] + [f"g{i}_{j} * l{i}" for i in range(1, m)])
        lines += [f"q = y{j} - ({v}) / ell", f"z{j} = {_soft('q')}", f"w{j} = z{j} - y{j}"]
    lines.append(f"gz = ({' + '.join(f'abs(z{j})' for j in range(n))}) / {n}")
    lines.append(f"sq = {' + '.join(f'w{j} * w{j}' for j in range(n))}")
    for i in range(m):
        lines.append(f"dot{i} = 0.0 + {' + '.join(f'g{i}_{j} * w{j}' for j in range(n))}")
        lines.append(f"b{i} = dot{i} + c{i} + gz")
    lines.append(f"dual = 0.0 + {' + '.join(f'l{i} * b{i}' for i in range(m))}")
    lines.append("quad = 0.5 * ell * sq")
    return lines


def _lists(fmt: str, k: int) -> str:
    """A list display of the names fmt.format(i) for i < k."""
    return "[" + ", ".join(fmt.format(i) for i in range(k)) + "]"


def _inner_source(shape: tuple[int, int]) -> list[str]:
    """``kernel(core, lam)``: the prox step of an (m, n) core, as ``_Core.inner`` returns it."""
    m, n = shape
    z, comp, dots = _lists("z{}", n), _lists("b{}", m), _lists("dot{}", m)
    return (
        ["def kernel(core, lam):"]
        + [f"    {line}" for line in _header(m, n, "lam") + _prox_lines(m, n)]
        + [f"    return {z}, {comp}, dual + quad, quad, {dots}"]
    )


def _h_lines(n: int, t: str, h: str) -> list[str]:
    """h(t) = <d, z(t) - y> + c_0 - c_1 at the weight expression t, bound to h.

    z_j(t) = soft(a_j - t s_j), with a_j = y_j - g1_j / ell, d_j = g0_j -
    g1_j and s_j = d_j / ell, named ha{j}, d{j} and hs{j}; the sum starts
    from 0.0 and runs over j in order, and dc = c0 - c1 is added last.
    """
    lines = []
    for j in range(n):
        lines += [f"q = ha{j} - {t} * hs{j}", f"r{j} = {_soft('q')}"]
    return lines + [f"{h} = 0.0 + {' + '.join(f'(r{j} - y{j}) * d{j}' for j in range(n))} + dc"]


def _pair_source(n: int) -> list[str]:
    """``kernel(core, lam0)``: the exact dual maximizer of an m = 2 core of
    size n, returning ``_solve_core``'s 8-tuple with one dual step, and
    beside it ``h``, the dual derivative as a function of t and the
    coordinates.

    Over lam = (t, 1 - t), z(t) = prox(a - t d / ell) with d = g_1 - g_2 and
    a = y - g_2 / ell, and h(t) = <d, z(t) - y> + c_1 - c_2 is the dual
    derivative.  The prox is monotone, so h does not increase; it is linear
    between the kinks t = (a_j -+ thr) ell / d_j where a soft-threshold
    coordinate switches.  h is evaluated at the start weight t0 (lam0
    projected onto the simplex), 0 and 1 first.  A non-finite h there gives
    t = nan and so a non-finite gap (h is finite between two finite ends); a
    start weight where h vanishes (a flat dual) is kept, as the ascent keeps
    it; h(0) <= 0 gives t = 0 and h(1) >= 0 gives t = 1.  Otherwise the last
    point where h > 0 and the first where h <= 0 bracket the root, and each
    kink strictly inside the bracket calls the function h, narrowing it (a
    kink outside (0, 1), or of a coordinate constant in t, is never
    inside).  Every step of h rounds monotonically, so the computed h does
    not increase either, and the bracket ends are the ones a scan of h over
    every kink picks.  The root is interpolated on the bracket's linear
    piece.  Then the prox step runs at lam, theta = max(comp) + quad and the
    gap is theta minus the dual value.  ``max`` and ``min`` of two floats are
    written as the builtins pick: the first argument unless the second
    compares greater (smaller).
    """
    coords = []
    for j in range(n):
        coords += [f"d{j} = g0_{j} - g1_{j}", f"ha{j} = y{j} - g1_{j} / ell", f"hs{j} = d{j} / ell"]
    names = ", ".join([f"{v}{j}" for j in range(n) for v in ("ha", "hs", "y", "d")] + ["dc", "tau", "ntau"])
    kinks = []
    for j in range(n):
        kinks.append(f"if d{j}:")
        for sign in "-+":
            kinks += [
                f"    k = (ha{j} {sign} thr) * ell / d{j}",
                "    if ti < k < tj:",
                f"        hk = h(k, {names})",
                "        if hk > 0.0:",
                "            ti, hi = k, hk",
                "        else:",
                "            tj, hj = k, hk",
            ]
    search = (
        ["ti, hi, tj, hj = (t0, ht, 1.0, h1) if ht > 0.0 else (0.0, h0, t0, ht)", f"thr = 1.0 / (ell * {n})"]
        + kinks
        + ["t = ti + (tj - ti) * hi / (hi - hj)", "t = tj if tj < t else t  # rounding can land one ulp past tj"]
    )
    body = (
        _header(2, n, "lam0")
        + [
            "t0 = l0 + 0.5 * (1.0 - l0 - l1)  # projected onto the simplex",
            "t0 = 0.0 if 0.0 > t0 else t0",
            "t0 = 1.0 if 1.0 < t0 else t0",
        ]
        + coords
        + ["dc = c0 - c1"]
        + _h_lines(n, "t0", "ht")
        + _h_lines(n, "0.0", "h0")
        + _h_lines(n, "1.0", "h1")
        + [
            "if not (isfinite(ht) and isfinite(h0) and isfinite(h1)):",
            "    t = nan",
            "elif ht == 0.0:",
            "    t = t0",
            "elif h0 <= 0.0:",
            "    t = 0.0",
            "elif h1 >= 0.0:",
            "    t = 1.0",
            "else:",
        ]
        + [f"    {line}" for line in search]
        + ["l0 = t", "l1 = 1.0 - t"]
        + _prox_lines(2, n)
        + ["theta = (b1 if b1 > b0 else b0) + quad"]
        + [f"return {_lists('z{}', n)}, [l0, l1], theta, theta - (dual + quad), 1, [dot0, dot1], quad, [b0, b1]"]
    )
    h = [f"def h(t, {names}):"] + [f"    {line}" for line in _h_lines(n, "t", "hv") + ["return hv"]]
    return h + ["def kernel(core, lam0):"] + [f"    {line}" for line in body]


def _core_lines(m: int, n: int) -> list[str]:
    """The core build for m components over R^n, as source lines over names.

    They read the values fy{i} at y and fx{i} at x, the Jacobian entries
    g{i}_{j} and its rows G, the float lists x and y, ell and the problem p.
    They unpack x into xg{j}, form g(x) as gx = (0.0 + |x_0| + ...) / n and
    c{i} = fy_i - (fx_i + g(x)), check G and c with one sum of 0 * v, which
    is 0 for a finite v and nan for inf or nan, and bind the core, which
    keeps y and G as they are given, to ``core``.  They bind no other name.
    """
    zeros = [f"0.0 * c{i}" for i in range(m)] + [f"0.0 * g{i}_{j}" for i in range(m) for j in range(n)]
    return (
        [
            "".join(f"xg{j}, " for j in range(n)) + "= x",
            f"gx = (0.0 + {' + '.join(f'abs(xg{j})' for j in range(n))}) / {n}",
        ]
        + [f"c{i} = fy{i} - (fx{i} + gx)" for i in range(m)]
        + [
            f"if 0.0 + {' + '.join(zeros)} != 0.0:",
            '    raise InvalidInputError(f"{p.name}: Jacobian or offsets at y = {y} are not finite")',
            f"core = _Core(y, G, {_lists('c{}', m)}, ell)",
        ]
    )


class _Kernels(dict):
    """Compiled kernels by shape: the first lookup of a shape emits its source
    with ``source(shape)``, compiles it and keeps the function."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, shape):
        ns = {"isfinite": math.isfinite, "nan": math.nan}
        exec(compile("\n".join(self.source(shape)), f"<sapgm subproblem kernel {shape}>", "exec"), ns)
        kernel = self[shape] = ns["kernel"]
        return kernel


_PAIR_KERNELS = _Kernels(_pair_source)  # n -> the m = 2 solve
_INNER_KERNELS = _Kernels(_inner_source)  # (m, n) -> the prox step


def _proj_simplex(w: list) -> list:
    """Euclidean projection of a float list onto the unit simplex (sort and threshold)."""
    tau = math.nan  # stays nan when no entry is finite
    cs = 0.0
    for k, u in enumerate(sorted(w, reverse=True), 1):
        cs += u
        if u > (cs - 1.0) / k:
            tau = (cs - 1.0) / k
    return [max(v - tau, 0.0) for v in w]


def _ascend(core: _Core, lam0: list, tol: float):
    """Projected gradient ascent on the dual, the path for m != 2, until the gap
    is <= tol or for DEFAULT_MAX_INNER steps; returns (lam, steps, prox step)."""
    lam = _proj_simplex(lam0)
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
    while max(comp) + quad - dual > tol and iters < DEFAULT_MAX_INNER:
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

    x and y must be float lists that _point returned, so z is one too.
    Forms g(x) and the offsets c_i = f_i(y, mu) - (f_i(x, mu) + g(x)); a
    Jacobian G or offsets c that are not finite raise InvalidInputError.  A
    run builds its cores in its step, from ``_core_lines``, whose arithmetic
    this is.
    """
    vals_y, G = evals_y
    vals_x, _ = evals_x
    gx = _g(p, x)
    c = [fy - (fx + gx) for fy, fx in zip(vals_y, vals_x)]
    # 0 * v is 0 for a finite v and nan for inf or nan, so one sum finds either
    s = 0.0
    for v in c:
        s += 0.0 * v
    for row in G:
        for v in row:
            s += 0.0 * v
    if s != 0.0:
        raise InvalidInputError(f"{p.name}: Jacobian or offsets at y = {y} are not finite")
    return _Core(y, G, c, ell)


def _build_core(inp: SubproblemInput) -> _Core:
    p = inp.problem
    y = _point(p, inp.y)
    evals_y = eval_smooth(p, y, inp.mu)
    x = _point(p, inp.x)
    return _core_from_evals(p, x, y, evals_y, eval_smooth(p, x, inp.mu, jac=False), inp.ell)


def solve_subproblem(inp: SubproblemInput, tol: float = DEFAULT_TOL) -> SubproblemSolution:
    """Solve the min-max model to duality gap <= tol, from the uniform weights.

    If the gap is still above tol after DEFAULT_MAX_INNER ascent steps
    (m != 2) the last iterate is returned with converged=False; the caller
    decides.
    """
    if not _positive(tol):
        raise InvalidParameterError("tol must be positive")
    m = inp.problem.m
    core = _build_core(inp)
    z, lam, theta, gap, iters, _, _, comp = _solve_core(core, [1.0 / m] * m, tol)
    kkt, complementarity = _kkt_residual(core, z, lam), _complementarity(comp, lam)
    return SubproblemSolution(np.array(z), np.array(lam), theta, gap, kkt, complementarity, iters, gap <= tol)


def _kkt_residual(core: _Core, z: list, lam: list) -> float:
    """Stationarity residual || sum_i lam_i grad_i + xi + ell (z - y) ||.

    xi is the element of the subdifferential of g at z closest to exact
    stationarity.
    """
    ell = core.ell
    d = [vj + ell * (zj - yj) for vj, zj, yj in zip(_combine(lam, core.G), z, core.y)]
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
