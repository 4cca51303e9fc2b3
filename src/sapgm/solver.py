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
0: every baseline iteration, and SAPGM's k = 0 and 1) one eval_smooth call
gives f at both, so the tally stays 2 + trials while the calls drop by one.
x0 goes through the problem's point check once; from there x, y, each
accepted z and the smoothed values are float lists, as the kernels take and
return them, and only the trace and the result hold arrays.  g is read at
points that have passed the check without checking them again, and the
descent test reads its terms from the prox step that formed z: one
comparison per objective.
The boundedness diagnostic reads the accepted trial's f(x_{k+1}, mu_{k+1}),
which backtrack_step already computed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergingLipschitzError, InvalidParameterError, _check_int
from .problems import ProblemSpec, _g, _point, eval_smooth, eval_true
from .subproblem import DEFAULT_TOL, _core_from_evals, _solve_core

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
    "eps": (lambda v: v >= 0.0, "be nonnegative"),
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
    (0, 2).  The loop calls this once per iteration, so a Python int k and
    admissible numbers pass one chained test; the checks that name the fault
    run only when it fails.
    """
    try:
        if type(k) is int and k >= 0 and 0.0 < mu0 <= 1.0 and 0.0 < sigma < 2.0:
            return mu0 / (k + 1) ** sigma
    except TypeError:  # a mu0 or sigma that is no number
        pass
    _check_int(k, "k", 0)
    _check_rule("mu0", mu0)
    _check_rule("sigma", sigma)
    return mu0 / (k + 1) ** sigma  # k is an integer type other than int


def momentum_update(
    t_k: float, mu_k: float, mu_next: float, L_k: float, L_next: float
) -> tuple[float, float]:
    """One step of the coupled t/theta recurrence; InvalidParameterError unless
    every mu and L is positive and the step is finite."""
    try:
        ratio = (mu_k * L_next) / (mu_next * L_k)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ratio * t_k * t_k))
    except (ZeroDivisionError, ValueError):  # ValueError: the root of a negative number
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
    are made float lists once, by the point check.  The step spends 2 +
    trials smooth evaluations: f and the Jacobian at y (the one call that
    forms a Jacobian), f at x and f at each trial.  When x equals y by value
    (-0.0 equals 0.0), f at x is read from the call at y: the values agree
    up to the sign of a zero, each Affine leaf line ending in ``+ c``, and
    the offsets c_i = f_i(y) - (f_i(x) + g(x)) add g(x) >= +0.0, which
    clears that sign.
    """
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


def _run(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig, accelerated: bool) -> RunResult:
    trace: list[TraceRecord] | None = [] if cfg.record_trace else None
    x = y = _point(p, x0)
    vals0, _ = eval_smooth(p, x, cfg.mu0, jac=False)  # sets the bound; not counted as a feval
    bound_ref = max(vals0) + _g(p, x)
    bound_limit = _BOUND_FACTOR * max(abs(bound_ref), 1.0) + _BOUND_OFFSET
    warned = False

    t, mu, L = 1.0, cfg.mu0, cfg.L0
    fevals = 0
    start = time.perf_counter()
    status = "MaxIter"
    iterations = cfg.max_iter
    for k in range(cfg.max_iter):
        mu_next = mu_schedule(k, cfg.mu0, cfg.sigma)
        x_next, L_next, trials, vals_next = backtrack_step(p, x, y, mu_next, cfg)
        fevals += 2 + trials
        step = math.dist(x, x_next)

        t_next, theta_next = momentum_update(t, mu, mu_next, L, L_next)
        if not accelerated:
            theta_next = 0.0

        smooth_max = max(vals_next) + _g(p, x_next)
        if smooth_max > bound_limit and not warned:
            logger.warning(
                "%s: smoothed objective %.3g exceeded boundedness diagnostic %.3g at k=%d",
                p.name,
                smooth_max,
                bound_limit,
                k,
            )
            warned = True
        if trace is not None:
            trace.append(TraceRecord(k, np.array(x_next), mu_next, L_next, t_next, theta_next, step, smooth_max))

        y = [a + theta_next * (a - b) for a, b in zip(x_next, x)]
        x, t, mu, L = x_next, t_next, mu_next, L_next
        if step < cfg.eps and mu < cfg.eps:
            status = "Converged"
            iterations = k + 1
            break

    wall = time.perf_counter() - start
    return RunResult(np.array(x), eval_true(p, x), iterations, fevals, wall, status, trace)


def solve(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the accelerated method from x0."""
    return _run(p, x0, cfg or SolverConfig(), accelerated=True)


def solve_baseline(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the same loop without extrapolation (theta = 0 throughout)."""
    return _run(p, x0, cfg or SolverConfig(), accelerated=False)

