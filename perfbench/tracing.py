"""Timing and tracing of sapgm from outside the package.

Both recorders work by rebinding the module-level names through which the
layers call each other, for the length of a ``with rebound(...)`` block, and
restoring the original objects on exit (also when the block raises):

* ``SolveLog`` wraps only the solver entry points that ``sapgm.bench`` calls,
  with one ``perf_counter`` pair per run.  It is cheap enough for the
  untraced, end-to-end passes.
* ``Tracer`` adds a span (name, start, end, parent, enclosing run, info) at
  every layer boundary and keeps the spans in memory.

``sapgm.solver._solve_core`` is private, but it is the only name through which
the solver reaches the subproblem layer; if it is renamed the tracer must
follow.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from sapgm import bench, problems, smoothing, solver
from sapgm.solver import SolverConfig, mu_schedule

DEFAULT_CONFIG = SolverConfig()


@dataclass
class Run:
    """One solver run as seen from outside: its cost and its outputs."""

    problem: str
    solver: str
    seconds: float
    iterations: int
    fevals: int
    status: str
    F: np.ndarray
    cfg: SolverConfig = DEFAULT_CONFIG


def mu_gate_iterations(cfg: SolverConfig) -> int | None:
    """Iteration count of a run that stops at the first k with mu_{k+1} < eps.

    None when the schedule never falls below eps within max_iter.
    """
    for k in range(cfg.max_iter):
        if mu_schedule(k, cfg.mu0, cfg.sigma) < cfg.eps:
            return k + 1
    return None


Binding = tuple[object, str, Callable[[Callable], Callable]]


@contextlib.contextmanager
def rebound(bindings: list[Binding]):
    """Bind each ``owner.attr`` to ``make(original)``; restore all on exit."""
    saved = []
    try:
        for owner, attr, make in bindings:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SolveLog:
    """Records every solver run of the passes it is bound into."""

    def __init__(self) -> None:
        self.runs: list[Run] = []

    def wrap_solve(self, fn: Callable, solver_name: str) -> Callable:
        runs = self.runs

        def timed(p, x0, cfg=None):
            t0 = perf_counter()
            r = fn(p, x0, cfg)
            t1 = perf_counter()
            runs.append(
                Run(p.name, solver_name, t1 - t0, r.iterations, r.fevals, r.status, r.final_F, cfg or DEFAULT_CONFIG)
            )
            return r

        return timed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A call the benchmark makes itself; untraced it is the call as is."""
        return fn

    def bindings(self) -> list[Binding]:
        return [
            (bench, "solve", lambda f: self.wrap_solve(f, "sapgm")),
            (bench, "solve_baseline", lambda f: self.wrap_solve(f, "baseline")),
        ]


# (owner, attribute, span name, info(args, result) or None)
_LAYERS = [
    (solver, "eval_smooth", "problems.eval_smooth", None),
    (solver, "eval_true", "problems.eval_true", None),
    (solver, "_solve_core", "subproblem.solve", lambda a, out: (out[4], out[3], a[2])),  # steps, gap, tol
    (solver, "backtrack_step", "solver.backtrack", lambda a, out: (out[2], out[1])),  # trials, L
    (bench, "eval_true", "problems.eval_true", None),
    (bench, "merit_against_values", "metrics.merit", None),
    (bench, "nondominated_filter", "metrics.nondominated_filter", None),
    (problems, "compose_surrogate", "smoothing.compose", None),
    (smoothing, "compose_surrogate", "smoothing.compose", None),
    (smoothing.SmoothSurrogate, "eval", "smoothing.eval", None),
    (smoothing.SmoothSurrogate, "true_eval", "smoothing.true_eval", None),
]

# every name a Tracer rebinds, for the restore check in the tests
TRACED_NAMES = [(owner, attr) for owner, attr, _, _ in _LAYERS] + [(bench, "solve"), (bench, "solve_baseline")]

# span fields
NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer(SolveLog):
    """Records a span at every layer boundary, in memory."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = -1  # index of the enclosing solver.run span

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        return traced

    def wrap_solve(self, fn: Callable, solver_name: str) -> Callable:
        traced = self.wrap("solver.run", super().wrap_solve(fn, solver_name), lambda a, out: len(self.runs) - 1)

        def run_span(p, x0, cfg=None):
            outer, self._run = self._run, len(self.spans)
            try:
                return traced(p, x0, cfg)
            finally:
                self._run = outer

        return run_span

    def bindings(self) -> list[Binding]:
        def layer(name, info):
            return lambda f: self.wrap(name, f, info)

        return super().bindings() + [(owner, attr, layer(name, info)) for owner, attr, name, info in _LAYERS]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start", "end", "parent", "run"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[RUN]])


# ---------------------------------------------------------------------------
# span statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def layer_stats(tracer: Tracer, problem: str | None = None) -> dict[str, float]:
    """Per-layer figures from the spans, optionally restricted to one problem.

    Times are inclusive span durations.  A run's self time is its duration
    minus the time its direct child spans cover; divided by the run's
    iterations it gives the per-iteration self time.  A run stopped by the
    mu gate converged after exactly ``mu_gate_iterations`` iterations.
    """
    spans = tracer.spans
    run_spans = {
        i: s
        for i, s in enumerate(spans)
        if s[NAME] == "solver.run"
        and s[INFO] is not None  # a run that raised has no result
        and (problem is None or tracer.runs[s[INFO]].problem == problem)
    }
    in_runs: dict[str, list[float]] = {}  # durations of spans inside the selected runs
    anywhere: dict[str, list[float]] = {}  # durations of every span, selected runs or not
    child_time: dict[int, float] = {}
    max_L: dict[int, float] = {}
    trials = accepted = gaps_above = 0
    steps = []
    for s in spans:
        d = s[END] - s[START]
        anywhere.setdefault(s[NAME], []).append(d)
        if s[RUN] not in run_spans:
            continue
        in_runs.setdefault(s[NAME], []).append(d)
        if s[PARENT] in run_spans:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + d
        if s[NAME] == "solver.backtrack":
            trials += s[INFO][0]
            accepted += 1
            max_L[s[RUN]] = max(max_L.get(s[RUN], 0.0), s[INFO][1])
        elif s[NAME] == "subproblem.solve":
            steps.append(s[INFO][0])
            gaps_above += s[INFO][1] > s[INFO][2]

    runs = [tracer.runs[s[INFO]] for s in run_spans.values()]
    iters = sum(r.iterations for r in runs)
    run_time = sum(in_runs.get("solver.run", []))
    self_per_iter = [
        (s[END] - s[START] - child_time.get(i, 0.0)) / tracer.runs[s[INFO]].iterations
        for i, s in run_spans.items()
    ]
    smooth = in_runs.get("problems.eval_smooth", [])
    sub = in_runs.get("subproblem.solve", [])
    gated = sum(r.status == "Converged" and r.iterations == mu_gate_iterations(r.cfg) for r in runs)

    def us_p50(name, where=anywhere):
        return 1e6 * percentile(where.get(name, []), 50)

    return {
        "problems.eval_smooth.us_p50": us_p50("problems.eval_smooth", in_runs),
        "problems.eval_smooth.calls_per_iter": _ratio(len(smooth), iters),
        "problems.eval_smooth.share": _ratio(sum(smooth), run_time),
        "subproblem.solve.us_p50": us_p50("subproblem.solve", in_runs),
        "subproblem.solve.us_p90": 1e6 * percentile(sub, 90),
        "subproblem.solve.share": _ratio(sum(sub), run_time),
        "subproblem.dual_steps_p50": percentile(steps, 50),
        "subproblem.dual_steps_p90": percentile(steps, 90),
        "subproblem.gap_above_tol": float(gaps_above),
        "solver.backtrack.us_p50": us_p50("solver.backtrack", in_runs),
        "solver.trials_per_iter": _ratio(trials, accepted),
        "solver.accept_ratio": _ratio(accepted, trials),
        "solver.iter.self_us_p50": 1e6 * percentile(self_per_iter, 50),
        "solver.max_L_p50": percentile(list(max_L.values()), 50),
        "solver.mu_gate_frac": _ratio(gated, len(runs)),
        "solver.maxiter_frac": _ratio(sum(r.status == "MaxIter" for r in runs), len(runs)),
        "solver.iters_per_run": _ratio(iters, len(runs)),
        # the layers below also run outside solver runs, so every span counts
        "smoothing.eval.us_p50": us_p50("smoothing.eval"),
        "smoothing.true_eval.us_p50": us_p50("smoothing.true_eval"),
        "smoothing.compose_ms": 1e3 * percentile(anywhere.get("smoothing.compose", []), 50),
        "problems.eval_true.us_p50": us_p50("problems.eval_true"),
        "metrics.nondominated_filter.ms": 1e3 * percentile(anywhere.get("metrics.nondominated_filter", []), 50),
        "metrics.merit.us_p50": us_p50("metrics.merit"),
    }
