"""Outer accelerated loop: backtracking Lipschitz estimation, smoothing decay,
momentum recurrences and the stopping rule.

Per iteration k (starting at 0, with y_0 = x_0 and t_0 = 1):

1. mu_{k+1} = mu_0 / (k + 1)^sigma; all surrogate evaluations of the
   iteration use mu_{k+1} and ell = L_trial / mu_{k+1}.
2. Backtracking: solve the subproblem at (x_k, y_k); accept the candidate
   when  max_i [ f_i(x^) - f_i(y) - <grad f_i(y), x^ - y> ] <= (ell/2)||x^ - y||^2,
   otherwise inflate L_trial by eta and retry.  L_trial restarts from L_0
   each iteration.
3. Stop when ||x_k - x_{k+1}|| < eps and mu_{k+1} < eps.
4. t_{k+1} = (1 + sqrt(1 + 4 (mu_k L_{k+1} / (mu_{k+1} L_k)) t_k^2)) / 2,
   theta_{k+1} = (t_k - 1) / t_{k+1},
   y_{k+1} = x_{k+1} + theta_{k+1} (x_{k+1} - x_k).

The non-accelerated baseline runs the identical loop with theta forced to 0.
The run's state (x, y, t, mu, L and the feval tally) lives in locals of one
solve call, so concurrent solves on a shared problem spec are safe.  The
tally counts the method's oracle values, 2 + trials per iteration: f and
its Jacobian at y, f at x and f at each trial.  Where y equals x (theta =
0: every baseline iteration, and SAPGM's k = 0 and 1) the evaluation at y
gives f at both, so the tally stays 2 + trials while the evaluations drop
by one.  x0 goes through the problem's point check once; from there x, y,
each accepted z and the smoothed values are float lists, as the kernels
take and return them, and only the trace and the result hold arrays.  g is
read at points that have passed the check without checking them again, and
the descent test reads its terms from the prox step that formed z: one
comparison per objective.
The boundedness diagnostic reads the accepted trial's f(x_{k+1}, mu_{k+1}),
which backtrack_step already computed.

Each problem's run is two functions compiled together on the first use of
either and kept on the spec: the loop (``_run_lines``), which writes out
steps 1, 3 and 4, the tally, the boundedness value and warning and the trace
record, and step 2 (``_step_lines``): the lines that
``smoothing._tree_source`` emits for the problem's m trees, at y, at x (only
when x != y) and at each trial z, and the core build of
``subproblem._core_lines``.  Both keep the order and arithmetic of the
layered calls they replace, with the same finiteness checks; between those
lines a call costs more than the arithmetic it wraps.  _run keeps what runs
once per run: the point check of x0, the bound's evaluation, the timing and
the result.  Two seams stay calls, since perfbench's tracer rebinds them and
``tests/test_trace_points.py`` reads them: ``backtrack_step``, which the loop
looks up in this module at each iteration, and ``_solve_core``, which the
step looks up in this module at each trial.  The loop calls
``momentum_update`` only when its finiteness test fails, for the error.
The step does not call eval_smooth; on a fault in an evaluation it hands
back the point, and backtrack_step calls eval_smooth there for the error's
type and message.  A trial point that is not finite comes from the
subproblem, not from a caller, so the step raises an error naming the
subproblem at y.
"""

from __future__ import annotations

import ast
import logging
import math
import operator
import sys
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DivergingLipschitzError, InvalidInputError, InvalidParameterError, _check_int
from .problems import ProblemSpec, _g, _point, eval_smooth, eval_true
from .smoothing import _KERNEL_GLOBALS, _tree_source, _TreeSource
# each step calls _solve_core as an attribute of this module, which a tracer can rebind
from .subproblem import DEFAULT_TOL, _Core, _core_lines, _lists, _solve_core

__all__ = [
    "SolverConfig",
    "TraceRecord",
    "RunResult",
    "mu_schedule",
    "momentum_update",
    "backtrack_step",
    "solve",
    "solve_baseline",
]

logger = logging.getLogger(__name__)

MAX_BACKTRACKS = 60
# the boundedness diagnostic warns (only) once max_i F_i(x_k, mu_k) exceeds
# _BOUND_FACTOR * max(|max_i F_i(x_0, mu_0)|, 1) + _BOUND_OFFSET
_BOUND_FACTOR = 10.0
_BOUND_OFFSET = 10.0


# each rule is written so that NaN fails it, and a value that is no number
# fails it with a TypeError
_RULES = {
    "mu0": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "L0": (lambda v: 1.0 <= v < math.inf, "be finite and >= 1"),
    "eta": (lambda v: 1.0 < v < math.inf, "be finite and exceed 1"),
    "sigma": (lambda v: 0.0 < v < 2.0, "lie in (0, 2)"),
    "eps": (lambda v: 0.0 <= v < math.inf, "be finite and nonnegative"),
}


def _check_rule(name: str, value) -> None:
    """InvalidParameterError unless value obeys the solver parameter name's rule."""
    holds, rule = _RULES[name]
    try:
        ok = holds(value)
    except TypeError:
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a solve; the one place each solver default is declared."""

    mu0: float = 1.0
    L0: float = 1.0
    eta: float = 2.0
    sigma: float = 1.9
    eps: float = 1e-3
    max_iter: int = 1000
    record_trace: bool = False

    def __post_init__(self):
        for name in _RULES:
            _check_rule(name, getattr(self, name))
        _check_int(self.max_iter, "max_iter", 1)
        if type(self.record_trace) is not bool:
            raise InvalidParameterError(f"record_trace must be a bool, got {self.record_trace!r}")


@dataclass
class TraceRecord:
    k: int
    x: np.ndarray
    mu: float
    L: float
    t: float
    theta: float
    step_norm: float
    smooth_max: float  # max_i (f_i(x_k, mu_k) + g(x_k)), boundedness proxy


@dataclass
class RunResult:
    final_x: np.ndarray
    final_F: np.ndarray
    iterations: int
    fevals: int
    wall_time: float
    status: str  # "Converged" | "MaxIter"
    trace: list[TraceRecord] | None = None


def mu_schedule(k: int, mu0: float, sigma: float) -> float:
    """mu_{k+1} = mu0 / (k + 1)^sigma.

    InvalidParameterError unless k is an integer >= 0 (as ``_check_int``
    defines it) and mu0 and sigma obey SolverConfig's rules, (0, 1] and
    (0, 2).  The run loop writes the same expression out (``_run_lines``),
    on a config whose mu0 and sigma SolverConfig has checked.
    """
    _check_int(k, "k", 0)
    _check_rule("mu0", mu0)
    _check_rule("sigma", sigma)
    try:
        return mu0 / (k + 1) ** sigma  # k may be an integer type other than int
    except OverflowError:
        bits = operator.index(k).bit_length()  # str() of a huge int can raise
        raise InvalidParameterError(
            f"k must be small enough that (k + 1) ** sigma is a float, got k of {bits} bits and sigma={sigma!r}"
        ) from None


def momentum_update(
    t_k: float, mu_k: float, mu_next: float, L_k: float, L_next: float
) -> tuple[float, float]:
    """One step of the coupled t/theta recurrence; InvalidParameterError unless
    every mu and L is positive and the step is finite."""
    try:
        ratio = (mu_k * L_next) / (mu_next * L_k)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ratio * t_k * t_k))
    except (ZeroDivisionError, ValueError, TypeError):  # ValueError: the root of a negative number; TypeError: no number
        t_next = math.nan
    # t_next fails for nan as well; a negative mu or L can still give a finite step
    if not (t_next < math.inf and mu_k > 0.0 < mu_next and L_k > 0.0 < L_next):
        raise InvalidParameterError(
            f"no finite momentum step from t_k={t_k}, mu_k={mu_k}, mu_next={mu_next}, L_k={L_k}, L_next={L_next}"
        )
    return t_next, (t_k - 1.0) / t_next


def backtrack_step(
    p: ProblemSpec, x: Sequence[float], y: Sequence[float], mu: float, cfg: SolverConfig
) -> tuple[list[float], float, int, list[float]]:
    """Accept/inflate loop on the Lipschitz estimate at the extrapolation point y.

    `mu` is already decayed for this iteration.  Returns the accepted
    candidate z, the accepted L, the trial count and f(z, mu), with z and
    f(z, mu) as float lists for any x and y eval_smooth accepts.  x and y
    are made float lists once, by the point check, and mu is checked; the
    rest is one call of p's compiled step (see ``_step_lines``).  The step
    spends 2 + trials smooth evaluations: f and the Jacobian at y, f at x
    and f at each trial.  When x equals y by value (-0.0 equals 0.0), f at x
    is read from the evaluation at y: the values agree up to the sign of a
    zero, each Affine leaf line ending in ``+ c``, and the offsets
    c_i = f_i(y) - (f_i(x) + g(x)) add g(x) >= +0.0, which clears that sign.

    Errors keep the order, type and message of the evaluations the step
    stands for: a bad y, a mu that is not finite and positive, a fault at y,
    a bad x, a fault at x, a Jacobian or offset that is not finite, a trial
    point that is not finite (InvalidInputError naming the subproblem at y),
    a fault at a trial, and DivergingLipschitzError.  The step reports a
    fault in an evaluation by the point, and eval_smooth there raises its
    error.
    """
    y = _point(p, y)
    try:
        if not 0.0 < mu < math.inf:
            eval_smooth(p, y, mu)  # raises the error of a mu that is not finite and positive
    except TypeError:  # a mu that is no number
        eval_smooth(p, y, mu)  # raises that error too
    try:
        x = _point(p, x)
    except InvalidInputError:
        eval_smooth(p, y, mu)  # a fault at y comes first
        raise
    try:
        return _compiled(p)[0](p, x, y, mu, cfg)
    except _Fault as fault:
        point, jac = fault.args
    eval_smooth(p, point, mu, jac)
    raise AssertionError(f"{p.name}: the step faulted at {point}, but eval_smooth does not")


# the run loop calls the step through this module, where a tracer can rebind it;
# the name is taken at import, before any rebinding
_STEP_CALL = "solver." + backtrack_step.__name__


class _Fault(Exception):
    """A step's evaluation at a point overflowed or gave a value that is not
    finite: args are the point and whether that evaluation formed the Jacobian."""


def _diverged(p: ProblemSpec, L: float) -> DivergingLipschitzError:
    return DivergingLipschitzError(
        f"{p.name}: descent test still failing after {MAX_BACKTRACKS} inflations "
        f"(L reached {L:.3g}); surrogate gradients are suspect"
    )


def _indent(lines: list[str]) -> list[str]:
    return [f"    {line}" for line in lines]


def _step_lines(m: int, n: int, src: _TreeSource, core: list[str]) -> list[str]:
    """``step(p, x, y, mu, cfg)``: backtrack_step after its checks, for m
    trees over R^n, as source lines.

    It splices the tree lines of ``src`` and the core build ``core``
    (``_core_lines``), in the order and arithmetic of the evaluations they
    stand for.  The point is unpacked into the trees' names x0, x1, ...;
    then:

    - the fused lines at y, the values fy_i and the Jacobian entries
      g{i}_{j} and rows G;
    - only when x != y, the forward lines at x for fx_i (otherwise
      fx_i = fy_i);
    - the core build at ell = L0 / mu;
    - per trial, ``_solve_core`` looked up in this module at call time (so
      a rebound ``solver._solve_core`` sees every trial), a check that z is
      finite, the forward lines at z for fz_i and the descent test
      fz_i - fy_i - dot_i <= quad + (1e-9 max(1, quad) + 1e-12) for every i,
      with ``max`` written as the builtin picks; then L *= eta and
      core.ell = L / mu, until MAX_BACKTRACKS inflations raise
      DivergingLipschitzError.

    An evaluation that overflows or gives a value that is not finite
    (v - v != 0.0) raises _Fault with the point; a z that is not finite
    raises InvalidInputError naming the subproblem at y.  ``_compiled``
    compiles the step with the run loop of ``_run_lines``, which reaches it
    through backtrack_step.
    """
    point = "".join(f"x{k}, " for k in range(n))

    def at(where: str, lines: list[str], f: str, jac: bool) -> list[str]:
        """``lines`` at the point ``where``, binding f{i} to the m values."""
        fault = f"    raise _Fault({where}, {jac})"
        names = [f"{f}{i}" for i in range(m)]
        return (
            ["try:"]
            + _indent(lines)
            + ["except OverflowError:", fault]
            + [f"{name} = {value}" for name, value in zip(names, src.values)]
            + [f"if {' + '.join(f'({v} - {v})' for v in names)} != 0.0:", fault]  # v - v is nan for inf and nan
        )

    rows = ", ".join("[" + ", ".join(f"g{i}_{j}" for j in range(n)) + "]" for i in range(m))
    trial = (
        [
            "z, _, _, _, _, dots, quad, _ = solver._solve_core(core, lam0, DEFAULT_TOL)",
            f"{point}= z",
            f"if {' + '.join(f'(x{k} - x{k})' for k in range(n))} != 0.0:",
            '    raise InvalidInputError(f"{p.name}: the subproblem at y = {y} gives the trial point z = {z}, which is not finite")',
        ]
        + at("z", src.forward, "fz", False)
        + [
            "".join(f"dot{i}, " for i in range(m)) + "= dots",
            "bound = quad + (1e-9 * (quad if quad > 1.0 else 1.0) + 1e-12)",
            f"if {' and '.join(f'fz{i} - fy{i} - dot{i} <= bound' for i in range(m))}:",
            f"    return z, L, trial, {_lists('fz{}', m)}",
            "L *= eta",
            "core.ell = L / mu",
        ]
    )
    body = (
        [f"{point}= y"]
        + at("y", src.fused, "fy", True)
        + [f"g{i}_{j} = {src.grads[i][j]}" for i in range(m) for j in range(n)]
        + [f"G = [{rows}]", "if x != y:", f"    {point}= x"]
        + _indent(at("x", src.forward, "fx", False))
        + ["else:"]
        + [f"    fx{i} = fy{i}" for i in range(m)]
        + ["L = cfg.L0", "eta = cfg.eta", "ell = L / mu"]
        + core
        + [f"lam0 = [1.0 / {m}] * {m}", "for trial in range(1, MAX_BACKTRACKS + 2):"]
        + _indent(trial)
        + ["raise _diverged(p, L)"]
    )
    return ["def step(p, x, y, mu, cfg):"] + _indent(body)


def _assigned(lines: list[str]) -> set[str]:
    """The names that source lines assign."""
    nodes = ast.walk(ast.parse("\n".join(lines)))
    return {v.id for v in nodes if isinstance(v, ast.Name) and isinstance(v.ctx, ast.Store)}


def _run_lines(m: int, n: int) -> list[str]:
    """``run(p, x, cfg, accelerated, bound_limit, trace)``: _run's loop from
    the point x (a float list that has passed the point check) for m
    objectives over R^n, as source lines.  It returns the last x, the
    iteration count, the fevals and the status.

    Per iteration k it writes out, in the arithmetic of the calls they
    replace:

    - mu_schedule: mu_next = mu0 / (k + 1) ** sigma;
    - the step, ``backtrack_step`` looked up in this module at each
      iteration (so a rebound ``solver.backtrack_step`` sees every step),
      and the tally fevals += 2 + trials;
    - step_norm = dist(x, z), since ``math.dist`` is not a root of a sum to
      the bit;
    - momentum_update's ratio, t_next and finiteness test, calling
      momentum_update itself only when the test fails, for its error; theta
      is 0.0 for the baseline;
    - the boundedness value max_i f_i(z) + g(z), with ``max`` written as the
      builtin picks and g as _g sums, (0.0 + |z0| + ...) / n, then the
      one-shot warning and the TraceRecord;
    - y = z + theta (z - x) per coordinate, and the stopping test.
    """
    zs, xs, fs = [f"z{j}" for j in range(n)], [f"a{j}" for j in range(n)], [f"f{i}" for i in range(m)]
    top = ["top = f0"] + [line for f in fs[1:] for line in (f"if {f} > top:", f"    top = {f}")]
    g = "(0.0" + "".join(f" + abs({z})" for z in zs) + f") / {n}"
    iteration = (
        [
            "mu_next = mu0 / (k + 1) ** sigma",
            f"z, L_next, trials, vals = {_STEP_CALL}(p, x, y, mu_next, cfg)",
            "fevals += 2 + trials",
            "step_norm = dist(x, z)",
            "try:",
            "    ratio = (mu * L_next) / (mu_next * L)",
            "    t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * ratio * t * t))",
            "except (ZeroDivisionError, ValueError):  # ValueError: the root of a negative number",
            "    t_next = nan",
            "if not (t_next < inf and mu > 0.0 < mu_next and L > 0.0 < L_next):",
            "    momentum_update(t, mu, mu_next, L, L_next)  # raises the error of this step",
            "theta = (t - 1.0) / t_next if accelerated else 0.0",
            "".join(f"{f}, " for f in fs) + "= vals",
        ]
        + top
        + [
            "".join(f"{z}, " for z in zs) + "= z",
            f"smooth_max = top + {g}",
            "if smooth_max > bound_limit and not warned:",
            '    logger.warning("%s: smoothed objective %.3g exceeded boundedness diagnostic %.3g at k=%d", '
            "p.name, smooth_max, bound_limit, k)",
            "    warned = True",
            "if trace is not None:",
            "    trace.append(TraceRecord(k, array(z), mu_next, L_next, t_next, theta, step_norm, smooth_max))",
            "".join(f"{a}, " for a in xs) + "= x",
            "y = [" + ", ".join(f"{z} + theta * ({z} - {a})" for z, a in zip(zs, xs)) + "]",
            "x, t, mu, L = z, t_next, mu_next, L_next",
            "if step_norm < eps and mu < eps:",
            '    return x, k + 1, fevals, "Converged"',
        ]
    )
    body = (
        [
            "mu0, sigma, eps = cfg.mu0, cfg.sigma, cfg.eps",
            "y = x",
            "t, mu, L = 1.0, mu0, cfg.L0",
            "fevals = 0",
            "warned = False",
            "for k in range(cfg.max_iter):",
        ]
        + _indent(iteration)
        + ['return x, cfg.max_iter, fevals, "MaxIter"']
    )
    return ["def run(p, x, cfg, accelerated, bound_limit, trace):"] + _indent(body)


def _compiled(p: ProblemSpec):
    """p's step (``_step_lines``) and run loop (``_run_lines``), compiled
    together on the first use of either and kept on the spec as _step and
    _loop.  The tree lines, the core build and the step's own lines assign
    disjoint names, and neither function assigns a name it reads from the
    namespace; that is checked here, before the lines are spliced."""
    try:
        return p._step, p._loop
    except AttributeError:
        pass
    src, core = _tree_source([s.expr for s in p.smooth_parts]), _core_lines(p.m, p.n)
    ns = {
        **_KERNEL_GLOBALS,
        **src.consts,
        "solver": sys.modules[__name__],
        "_Core": _Core,
        "_Fault": _Fault,
        "_diverged": _diverged,
        "InvalidInputError": InvalidInputError,
        "DEFAULT_TOL": DEFAULT_TOL,
        "MAX_BACKTRACKS": MAX_BACKTRACKS,
        "array": np.array,
        "dist": math.dist,
        "inf": math.inf,
        "nan": math.nan,
        "sqrt": math.sqrt,
        "logger": logger,
        "momentum_update": momentum_update,
        "TraceRecord": TraceRecord,
    }
    run = _run_lines(p.m, p.n)
    own = _step_lines(p.m, p.n, replace(src, forward=["pass"], fused=["pass"]), ["pass"])  # nothing spliced
    names = [_assigned(src.forward + src.fused), _assigned(core), _assigned(own)]
    union = set().union(*names)
    assert sum(map(len, names)) == len(union) and union.isdisjoint(ns), f"{p.name}: spliced lines share names"
    assert _assigned(run).isdisjoint(ns), f"{p.name}: the run loop assigns a name of its namespace"
    code = compile("\n".join(_step_lines(p.m, p.n, src, core) + run), f"<sapgm step and run {p.name}>", "exec")
    exec(code, ns)
    # the spec is frozen; _step and _loop are not fields
    object.__setattr__(p, "_step", ns["step"])
    object.__setattr__(p, "_loop", ns["run"])
    return p._step, p._loop


def _run(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None, accelerated: bool) -> RunResult:
    if cfg is None:
        cfg = SolverConfig()
    elif not isinstance(cfg, SolverConfig):
        raise InvalidParameterError(f"cfg must be a SolverConfig or None, got {cfg!r}")
    trace: list[TraceRecord] | None = [] if cfg.record_trace else None
    x = _point(p, x0)
    vals0, _ = eval_smooth(p, x, cfg.mu0, jac=False)  # sets the bound; not counted as a feval
    bound_ref = max(vals0) + _g(p, x)
    bound_limit = _BOUND_FACTOR * max(abs(bound_ref), 1.0) + _BOUND_OFFSET
    start = time.perf_counter()
    x, iterations, fevals, status = _compiled(p)[1](p, x, cfg, accelerated, bound_limit, trace)
    wall = time.perf_counter() - start
    return RunResult(np.array(x), eval_true(p, x), iterations, fevals, wall, status, trace)


def solve(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the accelerated method from x0 under cfg; None runs SolverConfig()."""
    return _run(p, x0, cfg, accelerated=True)


def solve_baseline(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the same loop without extrapolation (theta = 0 throughout)."""
    return _run(p, x0, cfg, accelerated=False)

