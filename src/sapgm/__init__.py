"""Smoothing accelerated proximal gradient method for composite nonsmooth
multiobjective optimization, with a benchmark harness."""

from .errors import (
    DivergingLipschitzError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedAtomError,
    WorkerExitError,
)
from .metrics import FrontPoint, RateFit, fit_rate, merit_against_values, nondominated_filter
from .problems import (
    GKind,
    ProblemSpec,
    eval_smooth,
    eval_true,
    get_problem,
    registry,
    sample_start,
)
from .smoothing import (
    SmoothingConstants,
    SmoothSurrogate,
    compose_surrogate,
    smooth_abs,
    smooth_max2,
    smooth_max_list,
    smooth_plus,
    verify_surrogate,
)
from .solver import (
    RunResult,
    SolverConfig,
    backtrack_step,
    momentum_update,
    mu_schedule,
    solve,
    solve_baseline,
)
from .subproblem import (
    SubproblemInput,
    SubproblemSolution,
    solve_subproblem,
)

__version__ = "0.1.0"

__all__ = [
    "DivergingLipschitzError",
    "InsufficientDataError",
    "InvalidInputError",
    "InvalidParameterError",
    "UnsupportedAtomError",
    "WorkerExitError",
    "FrontPoint",
    "RateFit",
    "fit_rate",
    "merit_against_values",
    "nondominated_filter",
    "GKind",
    "ProblemSpec",
    "eval_smooth",
    "eval_true",
    "get_problem",
    "registry",
    "sample_start",
    "SmoothingConstants",
    "SmoothSurrogate",
    "compose_surrogate",
    "smooth_abs",
    "smooth_max2",
    "smooth_max_list",
    "smooth_plus",
    "verify_surrogate",
    "RunResult",
    "SolverConfig",
    "backtrack_step",
    "momentum_update",
    "mu_schedule",
    "solve",
    "solve_baseline",
    "SubproblemInput",
    "SubproblemSolution",
    "solve_subproblem",
]
