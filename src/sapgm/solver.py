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
A solve call owns all of its state; concurrent solves on a shared problem
spec are safe.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergingLipschitzError, InvalidInputError, InvalidParameterError
from .problems import FevalCounter, ProblemSpec, eval_g, eval_smooth, eval_true
from .subproblem import DEFAULT_MAX_INNER, DEFAULT_TOL, _core_from_evals, _solve_core

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
_DIAG_EVERY = 16  # boundedness diagnostic cadence when not tracing
# the boundedness diagnostic warns (only) once max_i F_i(x_k, mu_k) exceeds
# _BOUND_FACTOR * max(|max_i F_i(x_0, mu_0)|, 1) + _BOUND_OFFSET
_BOUND_FACTOR = 10.0
_BOUND_OFFSET = 10.0


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
        if not 0.0 < self.mu0 <= 1.0:
            raise InvalidParameterError("mu0 must lie in (0, 1]")
        if self.L0 < 1.0:
            raise InvalidParameterError("L0 must be >= 1")
        if self.eta <= 1.0:
            raise InvalidParameterError("eta must exceed 1")
        if not 0.0 < self.sigma < 2.0:
            raise InvalidParameterError("sigma must lie in (0, 2)")
        if self.eps < 0.0:
            raise InvalidParameterError("eps must be nonnegative")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")


@dataclass
class IterateState:
    """Mutable working state of one run.

    `mu` and `L` hold the values of the iteration being computed; `mu` is
    already the decayed value mu_{k+1} when backtrack_step runs.
    """

    k: int
    x_prev: np.ndarray
    x: np.ndarray
    y: np.ndarray
    t: float
    theta: float
    mu: float
    L: float
    fevals: int = 0
    backtracks: int = 0


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
    """mu_{k+1} = mu0 / (k + 1)^sigma."""
    if k < 0:
        raise InvalidParameterError("iteration index must be nonnegative")
    return mu0 / (k + 1) ** sigma


def momentum_update(
    t_k: float, mu_k: float, mu_next: float, L_k: float, L_next: float
) -> tuple[float, float]:
    """One step of the coupled t/theta recurrence."""
    ratio = (mu_k * L_next) / (mu_next * L_k)
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ratio * t_k * t_k))
    return t_next, (t_k - 1.0) / t_next


def backtrack_step(
    state: IterateState,
    p: ProblemSpec,
    cfg: SolverConfig,
    counter: FevalCounter | None = None,
) -> tuple[np.ndarray, float, int]:
    """Accept/inflate loop on the Lipschitz estimate at the extrapolation point.

    Uses state.x, state.y and state.mu (already decayed for this iteration);
    returns the accepted candidate, the accepted L and the trial count.
    """
    x, y, mu = state.x, state.y, state.mu
    evals_y = eval_smooth(p, y, mu, counter)
    L_trial = cfg.L0
    core = _core_from_evals(p, x, y, evals_y, eval_smooth(p, x, mu, counter), L_trial / mu)
    vals_y, grads_y = evals_y
    m = grads_y.shape[0]
    lam0 = np.full(m, 1.0 / m)
    for trial in range(1, MAX_BACKTRACKS + 2):
        z, _, _, _, _ = _solve_core(core, lam0, DEFAULT_TOL, DEFAULT_MAX_INNER)
        vals_z, _ = eval_smooth(p, z, mu, counter)
        d = z - core.y
        ss = float(d @ d)
        gaps = vals_z - vals_y - grads_y @ d
        rhs = 0.5 * core.ell * ss
        slack = 1e-9 * max(1.0, rhs) + 1e-12
        if float(gaps.max()) <= rhs + slack:
            state.backtracks += trial - 1
            return z, L_trial, trial
        L_trial *= cfg.eta
        core.ell = L_trial / mu
    raise DivergingLipschitzError(
        f"{p.name}: descent test still failing after {MAX_BACKTRACKS} inflations "
        f"(L reached {L_trial:.3g}); surrogate gradients are suspect"
    )


def _smooth_max(p: ProblemSpec, x: np.ndarray, mu: float) -> float:
    vals, _ = eval_smooth(p, x, mu)
    return float(vals.max()) + eval_g(p, x)


def _run(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig, accelerated: bool) -> RunResult:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (p.n,):
        raise InvalidInputError(f"start point must have dimension {p.n}")
    if not np.isfinite(x0).all():
        raise InvalidInputError(f"start point must be finite, got {x0}")
    counter = FevalCounter()
    state = IterateState(
        k=0, x_prev=x0.copy(), x=x0.copy(), y=x0.copy(), t=1.0, theta=0.0, mu=cfg.mu0, L=cfg.L0
    )
    trace: list[TraceRecord] | None = [] if cfg.record_trace else None
    bound_ref = _smooth_max(p, x0, cfg.mu0)
    bound_limit = _BOUND_FACTOR * max(abs(bound_ref), 1.0) + _BOUND_OFFSET
    warned = False

    start = time.perf_counter()
    status = "MaxIter"
    iterations = cfg.max_iter
    for k in range(cfg.max_iter):
        state.k = k
        mu_prev, L_prev = state.mu, state.L
        state.mu = mu_schedule(k, cfg.mu0, cfg.sigma)
        x_next, L_next, _trials = backtrack_step(state, p, cfg, counter)
        state.L = L_next
        step = float(np.linalg.norm(state.x - x_next))

        t_next, theta_next = momentum_update(state.t, mu_prev, state.mu, L_prev, L_next)
        if not accelerated:
            theta_next = 0.0

        if cfg.record_trace or (not warned and k % _DIAG_EVERY == 0):
            smooth_max = _smooth_max(p, x_next, state.mu)
            if smooth_max > bound_limit and not warned:
                logger.warning(
                    "%s: smoothed objective %.3g exceeded boundedness diagnostic %.3g at k=%d",
                    p.name,
                    smooth_max,
                    bound_limit,
                    k,
                )
                warned = True
        else:
            smooth_max = math.nan

        if cfg.record_trace:
            trace.append(
                TraceRecord(k, x_next.copy(), state.mu, L_next, t_next, theta_next, step, smooth_max)
            )

        done = step < cfg.eps and state.mu < cfg.eps
        state.y = x_next + theta_next * (x_next - state.x)
        state.x_prev, state.x = state.x, x_next
        state.t, state.theta = t_next, theta_next
        if done:
            status = "Converged"
            iterations = k + 1
            break

    wall = time.perf_counter() - start
    state.fevals = counter.count
    return RunResult(state.x, eval_true(p, state.x), iterations, counter.count, wall, status, trace)


def solve(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the accelerated method from x0."""
    return _run(p, x0, cfg or SolverConfig(), accelerated=True)


def solve_baseline(p: ProblemSpec, x0: np.ndarray, cfg: SolverConfig | None = None) -> RunResult:
    """Run the same loop without extrapolation (theta = 0 throughout)."""
    return _run(p, x0, cfg or SolverConfig(), accelerated=False)

