"""Benchmark harness: seeded multi-start runs, summary tables, pooled fronts,
SVG scatter plots and the decay-rate experiment.

Artifacts written by `run_benchmark` under the output directory:

* ``runs.csv``            one row per (problem, solver, seed)
* ``summary.csv``         per (problem, solver) averages
* ``front_<slug>.csv``    pooled nondominated final points, per solver
* ``front_<slug>.svg``    front scatter, one color per solver
* ``manifest.json``       full parameter record

Every start is drawn once, in the calling process, before any run: run i
of every solver starts from ``sample_start(p, base_seed + i)``.  Pool workers
only solve, and the pool has no more workers than there are runs.  Rows are
sorted by (problem, solver, seed) before writing, so output is deterministic
regardless of worker scheduling; only the wall-time column varies between
executions.
"""

from __future__ import annotations

import csv
import html
import json
import logging
import math
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError, _check_int
from .metrics import FrontPoint, fit_rate, merit_against_values, nondominated_filter
from .problems import ProblemSpec, eval_true, get_problem, registry, sample_start
from .solver import SolverConfig, solve, solve_baseline

__all__ = [
    "BenchConfig",
    "SummaryRow",
    "run_benchmark",
    "run_rate_experiment",
    "emit_svg_scatter",
]

logger = logging.getLogger(__name__)

SOLVERS = ("sapgm", "baseline")  # run by solve and solve_baseline; rows are written in this order
BOTH = "both"  # the solver choice that runs every solver
SOLVER_COLORS = dict(zip(SOLVERS, ("#d62728", "#1f77b4")))

# the solver parameters the protocol pins: the manifest records them and
# `bench run` takes one flag each
PROTOCOL_PARAMS = ("mu0", "L0", "eta", "sigma", "eps", "max_iter")


@dataclass
class BenchConfig:  # the `bench` flags take their defaults from these
    problems: Sequence[str] = ("all",)
    runs: int = 200
    base_seed: int = 42
    solver: str = BOTH  # one of SOLVERS, or BOTH
    params: SolverConfig = SolverConfig()
    out_dir: str | Path = "results"
    parallel: int = 1

    def __post_init__(self):
        # a string would be read one character at a time
        if isinstance(self.problems, str) or not isinstance(self.problems, Iterable):
            raise InvalidParameterError(f"problems must be a list of names or indices, got {self.problems!r}")
        self.problems = tuple(self.problems)  # an iterator would serve only the first run
        if not isinstance(self.params, SolverConfig):
            raise InvalidParameterError(f"params must be a SolverConfig, got {self.params!r}")
        _check_int(self.runs, "runs", 1)
        _check_int(self.base_seed, "base_seed", 0)  # NumPy seeds are nonnegative
        _check_int(self.parallel, "parallel", 1)
        if self.solver not in (*SOLVERS, BOTH):
            raise InvalidParameterError(f"unknown solver {self.solver!r}")

    def solver_config(self, **overrides) -> SolverConfig:
        return replace(self.params, **overrides)

    def problem_names(self) -> list[str]:
        keys = list(self.problems)
        if len(keys) == 1 and str(keys[0]).lower() == "all":
            return [p.name for p in registry()]
        names = [get_problem(k).name for k in keys]
        if not names:
            raise InvalidParameterError("the problem list is empty")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise InvalidParameterError(f"problems listed more than once: {', '.join(repeated)}")
        return names

    def solver_names(self) -> list[str]:
        return list(SOLVERS) if self.solver == BOTH else [self.solver]


@dataclass
class SummaryRow:
    problem: str
    solver: str
    avg_time_s: float
    avg_iter: float
    avg_feval: float
    converged_fraction: float


def slugify(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


def _vector(prefix: str, get: Callable, size: int) -> list[tuple[str, Callable]]:
    """Columns prefix0 .. prefix<size - 1>: the entries of the vector get(row), as floats."""
    return [(f"{prefix}{j}", lambda row, j=j: float(get(row)[j])) for j in range(size)]


def _write_csv(path: Path, columns: list[tuple[str, Callable]], rows) -> None:
    """The columns' names, then per row the values their getters read from it
    (csv writes a float as its repr and an int as its str)."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([name for name, _ in columns])
        w.writerows([get(row) for _, get in columns] for row in rows)


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# run execution
# ---------------------------------------------------------------------------

def _execute(problem: str, solver: str, seed: int, x0: list[float], cfg: SolverConfig) -> dict:
    """One run from the start x0 that run_benchmark drew for seed; only solves."""
    p = get_problem(problem)
    # read at call time: tracers rebind bench.solve and bench.solve_baseline
    run = (solve if solver == SOLVERS[0] else solve_baseline)(p, x0, cfg)
    return {
        "problem": problem,
        "solver": solver,
        "seed": seed,
        "status": run.status,
        "iters": run.iterations,
        "fevals": run.fevals,
        "time_s": run.wall_time,
        "x": run.final_x,
        "F": run.final_F,
    }


def run_benchmark(cfg: BenchConfig) -> Path:
    """Execute the full benchmark grid and write all artifacts.

    Run i of every solver starts from seed base_seed + i.  Each start is drawn
    once, here, before any run, and both solvers share it; the runs then go
    to a pool of min(parallel, runs in the grid) workers, or run here when
    that is 1.  Returns the artifact directory.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problems = cfg.problem_names()
    solvers = cfg.solver_names()

    seeds = [cfg.base_seed + i for i in range(cfg.runs)]
    starts = {prob: [sample_start(get_problem(prob), seed).tolist() for seed in seeds] for prob in problems}
    tasks = [
        (prob, solver, seed, x0, cfg.params)
        for prob in problems
        for solver in solvers
        for seed, x0 in zip(seeds, starts[prob])
    ]
    workers = min(cfg.parallel, len(tasks))
    if workers > 1:
        import multiprocessing  # only the pool needs it; it adds to every `import sapgm`

        with multiprocessing.Pool(workers) as pool:
            rows = pool.starmap(_execute, tasks, chunksize=8)
    else:
        rows = [_execute(*t) for t in tasks]
    rows.sort(key=itemgetter("problem", "solver", "seed"))
    groups = {key: list(grp) for key, grp in groupby(rows, key=itemgetter("problem", "solver"))}

    first = get_problem(problems[0])
    columns = [(k, itemgetter(k)) for k in ("problem", "solver", "seed", "status", "iters", "fevals", "time_s")]
    columns += _vector("final_x", itemgetter("x"), first.n) + _vector("final_F", itemgetter("F"), first.m)
    _write_csv(out / "runs.csv", columns, rows)
    _write_csv(out / "summary.csv", [(f.name, attrgetter(f.name)) for f in fields(SummaryRow)], summarize(groups))

    for prob in problems:
        p = get_problem(prob)
        fronts = {
            solver: nondominated_filter([FrontPoint(r["x"], r["F"]) for r in groups[prob, solver]])
            for solver in solvers
        }
        slug = slugify(prob)
        columns = [("solver", itemgetter(0))]
        columns += _vector("x", lambda sp: sp[1].x, p.n) + _vector("F", lambda sp: sp[1].F, p.m)
        points = [(solver, pt) for solver in solvers for pt in fronts[solver]]
        _write_csv(out / f"front_{slug}.csv", columns, points)
        emit_svg_scatter(fronts, out / f"front_{slug}.svg", title=prob)

    manifest = {
        "kind": "benchmark",
        "problems": problems,
        "solvers": solvers,
        "runs": cfg.runs,
        "base_seed": cfg.base_seed,
        "parameters": {k: getattr(cfg.params, k) for k in PROTOCOL_PARAMS},
        "parallel": cfg.parallel,
        "files": sorted(f.name for f in out.iterdir() if f.is_file() and f.name != "manifest.json"),
    }
    _write_json(out / "manifest.json", manifest)
    return out


def summarize(groups: dict[tuple[str, str], list[dict]]) -> list[SummaryRow]:
    """Averages of each (problem, solver) group of run rows."""
    return [
        SummaryRow(
            problem=prob,
            solver=solver,
            avg_time_s=float(np.mean([r["time_s"] for r in grp])),
            avg_iter=float(np.mean([r["iters"] for r in grp])),
            avg_feval=float(np.mean([r["fevals"] for r in grp])),
            converged_fraction=float(np.mean([r["status"] == "Converged" for r in grp])),
        )
        for (prob, solver), grp in groups.items()
    ]


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------

RATE_ITERS = 2000
RATE_FIT_RANGE = (20, 1000)
_REFERENCE_RUNS = 50


def reference_front(p: ProblemSpec, cfg: BenchConfig) -> list[FrontPoint]:
    """Pooled nondominated final points of _REFERENCE_RUNS default runs."""
    pts = []
    for i in range(_REFERENCE_RUNS):
        run = solve(p, sample_start(p, cfg.base_seed + i), cfg.params)
        pts.append(FrontPoint(run.final_x, run.final_F))
    return nondominated_filter(pts)


def merit_series_for_run(p: ProblemSpec, trace, ref: Sequence[FrontPoint]) -> list[tuple[int, float]]:
    ref_F = np.array([z.F for z in ref])
    out = []
    for rec in trace:
        out.append((rec.k + 1, merit_against_values(eval_true(p, rec.x), ref_F)))
    return out


def run_rate_experiment(problem: str, sigmas: Sequence[float], cfg: BenchConfig) -> Path:
    """Merit decay vs sigma: runs of RATE_ITERS iterations with the stopping rule off.

    Writes one (k, merit) series CSV per sigma plus fitted log-log slopes.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not sigmas:
        logger.warning("rate experiment: empty sigma list, nothing to do")
        return out
    for s in sigmas:
        if not 0.0 < s < 2.0:
            raise InvalidParameterError(f"sigma must lie in (0, 2), got {s}")

    p = get_problem(problem)
    ref = reference_front(p, cfg)
    slug = slugify(p.name)
    x0 = sample_start(p, cfg.base_seed)
    k_lo, k_hi = RATE_FIT_RANGE
    slopes = {}
    series_files = []
    for s in sigmas:
        # eps = 0 disables the stopping rule: the run uses all RATE_ITERS iterations
        sc = cfg.solver_config(sigma=s, eps=0.0, max_iter=RATE_ITERS, record_trace=True)
        run = solve(p, x0, sc)
        series = merit_series_for_run(p, run.trace, ref)
        fname = f"rate_{slug}_sigma{s:g}.csv"
        _write_csv(out / fname, [("k", itemgetter(0)), ("merit", itemgetter(1))], series)
        series_files.append(fname)
        try:
            fit = fit_rate(series, k_lo, k_hi)
            slopes[f"{s:g}"] = {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual}
        except InsufficientDataError as exc:
            slopes[f"{s:g}"] = {"error": str(exc)}

    manifest = {
        "kind": "rate",
        "problem": p.name,
        "sigmas": [float(s) for s in sigmas],
        "iterations": RATE_ITERS,
        "fit_range": [k_lo, k_hi],
        "reference_front_size": len(ref),
        "series_files": series_files,
        "slopes": slopes,
    }
    _write_json(out / f"rate_{slug}_slopes.json", manifest)
    return out


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _span(values: list[float]) -> tuple[float, float]:
    """Plotted range of finite values: 5% of their width beyond each end
    (0.05 for one value), clamped to the finite floats and at least one ulp
    past each end when that pad is below the ulp of the values.
    """
    big = sys.float_info.max
    lo, hi = min(values), max(values)
    pad = (0.5 * hi - 0.5 * lo) * 0.1 or 0.05  # (hi - lo) * 0.05, which cannot overflow
    lo, hi = max(lo - pad, -big), min(hi + pad, big)
    if lo == hi:
        lo, hi = max(lo - math.ulp(lo), -big), min(hi + math.ulp(hi), big)
    return lo, hi


def _ticks(lo: float, hi: float) -> list[float]:
    """At most six distinct ticks in [lo, hi] (lo < hi, both finite), a step
    of 1, 2 or 5 times a power of ten apart; none when the width is a few
    subnormal ulps.
    """
    raw = (0.5 * hi - 0.5 * lo) / 5 * 2.0  # (hi - lo) / 5, which cannot overflow
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:
        return []
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    ticks, v = [], math.ceil(lo / step) * step
    for _ in range(6):  # a bounded count: below the ulp of v, v += step stalls
        ticks.append(round(v, 12) + 0.0)  # + 0.0 turns a rounded -0.0 into 0.0
        v += step
    return sorted({t for t in ticks if lo <= t <= hi})


def emit_svg_scatter(
    fronts: dict[str, Sequence[FrontPoint]], path: str | Path, title: str = ""
) -> Path:
    """Standalone SVG scatter of fronts in objective space, one color per solver.

    Only the first two objectives are drawn; a note is added when more exist.
    """
    path = Path(path)
    pts = [(solver, pt) for solver, front in fronts.items() for pt in front]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="24" text-anchor="middle" font-size="16">{html.escape(title)}</text>',
    ]
    if not pts:
        parts.append(
            f'<text x="{_SVG_W / 2}" y="{_SVG_H / 2}" text-anchor="middle" font-size="14">no data</text>'
        )
        parts.append("</svg>")
        path.write_text("\n".join(parts) + "\n")
        return path

    n_obj = len(pts[0][1].F)
    x_lo, x_hi = _span([float(pt.F[0]) for _, pt in pts])
    y_lo, y_hi = _span([float(pt.F[1]) for _, pt in pts])
    # halves keep a width near the float range finite; with no overflow the
    # fraction is (v - lo) / (hi - lo) to the bit
    frac = lambda v, lo, hi: (0.5 * v - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
    px = lambda v: _MARGIN + frac(v, x_lo, x_hi) * (_SVG_W - 2 * _MARGIN)
    py = lambda v: _SVG_H - _MARGIN - frac(v, y_lo, y_hi) * (_SVG_H - 2 * _MARGIN)

    ax_y = _SVG_H - _MARGIN
    parts.append(
        f'<line x1="{_MARGIN}" y1="{ax_y}" x2="{_SVG_W - _MARGIN}" y2="{ax_y}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{ax_y}" stroke="black"/>')
    for tv in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tv):.2f}" y1="{ax_y}" x2="{px(tv):.2f}" y2="{ax_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px(tv):.2f}" y="{ax_y + 18}" text-anchor="middle" font-size="11">{tv:g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{py(tv):.2f}" x2="{_MARGIN}" y2="{py(tv):.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(tv):.2f}" text-anchor="end" font-size="11" dominant-baseline="middle">{tv:g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 16}" text-anchor="middle" font-size="12">F1</text>'
    )
    parts.append(
        f'<text x="18" y="{_SVG_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_SVG_H / 2})">F2</text>'
    )
    if n_obj > 2:
        parts.append(
            f'<text x="{_SVG_W - _MARGIN}" y="40" text-anchor="end" font-size="11">'
            f"projection of first two of {n_obj} objectives</text>"
        )

    for idx, (solver, front) in enumerate(fronts.items()):
        color = SOLVER_COLORS.get(solver, "#7f7f7f")
        for pt in front:
            parts.append(
                f'<circle class="marker" cx="{px(pt.F[0]):.2f}" cy="{py(pt.F[1]):.2f}" r="2.5" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
        ly = 44 + 18 * idx
        parts.append(f'<rect x="{_SVG_W - 170}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{_SVG_W - 152}" y="{ly + 2}" font-size="12">{html.escape(solver)}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
