"""The four workloads: how each builds its problems, runs one pass and checks
the pass's outputs against the reference.

Run i of a pass uses start seed ``base_seed + i``.  Every pass of a run uses
the same base seed, so every pass computes the same outputs and each one is
checked in full.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from sapgm import bench, cli, metrics, smoothing, solver
from sapgm.problems import GKind, ProblemSpec, get_problem, registry, sample_start

from reference import Check
from tracing import Run, SolveLog, rebound

# Seeds are folded into [0, SEED_WINDOW), the window reference.json covers.
SEED_WINDOW = 100

GRID_RUNS = 8  # starts per (problem, solver) in one grid pass: 96 runs
# Starts per solver in one wide_m3 pass.  A baseline run costs about a sixth
# of an sapgm run; twice the starts keep the median run time inside the
# baseline's runs and the 90th percentile inside sapgm's, where both are steady.
WIDE_RUNS = {"sapgm": 8, "baseline": 16}
WIDE_N, WIDE_M, WIDE_PIECES = 16, 3, 8
# The synthetic problem is drawn once from this fixed seed, so every --seed
# runs the same problem and only the starts change, as on the grid.
WIDE_PROBLEM_SEED = 2503
RATE_PROBLEM = "JOS1"
RATE_SIGMAS = (0.5, 1.0, 1.5)
RATE_REFERENCE_RUNS = 50  # runs behind bench.reference_front's pooled front
MERIT_SLACK = 1e-6  # a final point's merit against a front containing it or a dominator is >= 0


def make_wide_problem() -> ProblemSpec:
    """n=16, m=3 problem on [-2, 2]^16 built only from public atoms.

    Objective i is a max (``Max2`` of two 4-term ``MaxList``), a sum of
    ``Abs`` or a sum of ``Plus`` over 8 random affine pieces, plus the
    quadratic 0.5 ||x - c_i||^2.  Built through ``smoothing.compose_surrogate``
    looked up at call time, so a tracer can time the composition.
    """
    rng = np.random.default_rng(WIDE_PROBLEM_SEED)
    lo, hi = np.full(WIDE_N, -2.0), np.full(WIDE_N, 2.0)
    eye = np.eye(WIDE_N)
    parts = []
    for i in range(WIDE_M):
        pieces = [
            smoothing.Affine(rng.normal(size=WIDE_N) / np.sqrt(WIDE_N), rng.normal())
            for _ in range(WIDE_PIECES)
        ]
        if i % 3 == 0:
            half = WIDE_PIECES // 2
            nonsmooth = smoothing.Max2(smoothing.MaxList(pieces[:half]), smoothing.MaxList(pieces[half:]))
        elif i % 3 == 1:
            nonsmooth = smoothing.Sum([smoothing.Abs(a) for a in pieces])
        else:
            nonsmooth = smoothing.Sum([smoothing.Plus(a) for a in pieces])
        center = rng.uniform(-1.0, 1.0, size=WIDE_N)
        quad = smoothing.Scale(
            0.5, smoothing.Sum([smoothing.Square(smoothing.Affine(eye[j], -center[j])) for j in range(WIDE_N)])
        )
        parts.append(smoothing.compose_surrogate(smoothing.Sum([nonsmooth, quad]), (lo, hi)))
    return ProblemSpec("wide_m3", WIDE_N, WIDE_M, tuple(parts), GKind.SCALED_L1, lo, hi)


@dataclass
class Context:
    workload: str
    base_seed: int
    tmp: Path
    problems: list[ProblemSpec] = field(default_factory=list)

    def scratch(self, tag: str) -> Path:
        out = self.tmp / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


@dataclass
class PassResult:
    wall: float
    runs: list[Run]  # this pass's runs, with the time each took
    parallel: int = 1


# ---------------------------------------------------------------------------
# output readers shared by the checks and by reference generation
# ---------------------------------------------------------------------------


def read_runs_csv(out: Path) -> list[tuple[int, Run]]:
    """(seed, run) for every row of a benchmark's runs.csv."""
    rows = []
    with (out / "runs.csv").open(newline="") as fh:
        for r in csv.DictReader(fh):
            F = np.array([float(r[f"final_F{j}"]) for j in range(sum(k.startswith("final_F") for k in r))])
            rows.append(
                (int(r["seed"]), Run(r["problem"], r["solver"], float(r["time_s"]), int(r["iters"]), int(r["fevals"]), r["status"], F))
            )
    return rows


def read_fronts(out: Path, problem: str) -> dict[str, np.ndarray]:
    """Objective rows of each solver's front in front_<problem>.csv."""
    fronts: dict[str, list] = {}
    with (out / f"front_{bench.slugify(problem)}.csv").open(newline="") as fh:
        for r in csv.DictReader(fh):
            fronts.setdefault(r["solver"], []).append([float(r[k]) for k in r if k.startswith("F")])
    return {s: np.array(v) for s, v in fronts.items()}


def read_rate_outputs(out: Path) -> dict:
    slug = bench.slugify(RATE_PROBLEM)
    manifest = json.loads((out / f"rate_{slug}_slopes.json").read_text())
    series = []
    for name in manifest["series_files"]:
        with (out / name).open(newline="") as fh:
            merit = [float(r["merit"]) for r in csv.DictReader(fh)]
        series.append([len(merit), min(merit), max(merit)])
    return {"slopes": manifest["slopes"], "front_size": manifest["reference_front_size"], "series": series}


def _check_merits(check: Check, log: SolveLog, what: str, runs: list[Run], fronts: dict[str, np.ndarray]) -> None:
    """Every final point scores merit >= 0 against the pooled fronts it fed."""
    ref_F = np.vstack(list(fronts.values()))
    merit = log.wrap("metrics.merit", metrics.merit_against_values)
    worst = min(merit(np.asarray(r.F), ref_F) for r in runs)
    check.at_least(f"{what}: merit of final points", worst, -MERIT_SLACK)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _check_grid(ctx: Context, out: Path, check: Check, log: SolveLog) -> list[Run]:
    rows = read_runs_csv(out)
    seen = set()
    for seed, r in rows:
        check.run(f"{r.problem}|{r.solver}|{seed}", r)
        seen.add((r.problem, r.solver, seed))
    due = {
        (p.name, s, ctx.base_seed + i) for p in ctx.problems for s in ("sapgm", "baseline") for i in range(GRID_RUNS)
    }
    if due - seen:
        check.missing_runs("grid", len(due - seen))
    for p in ctx.problems:
        fronts = read_fronts(out, p.name)
        for s in ("sapgm", "baseline"):
            check.value(
                f"front size {p.name}/{s}",
                len(fronts.get(s, ())),
                check.ref["fronts"][f"{p.name}|{s}|{ctx.base_seed}"],
            )
        _check_merits(check, log, p.name, [r for _, r in rows if r.problem == p.name], fronts)
    return [r for _, r in rows]


def grid_pass(ctx: Context, log: SolveLog, check: Check) -> PassResult:
    """The pinned protocol, serially through bench.run_benchmark."""
    out = ctx.scratch("grid")
    n0 = len(log.runs)
    with rebound(log.bindings()):
        t0 = perf_counter()
        bench.run_benchmark(bench.BenchConfig(runs=GRID_RUNS, base_seed=ctx.base_seed, out_dir=out))
        wall = perf_counter() - t0
        _check_grid(ctx, out, check, log)
    return PassResult(wall, log.runs[n0:])


def grid_par2_pass(ctx: Context, log: SolveLog, check: Check) -> PassResult:
    """The same grid through the CLI with a two-worker pool.

    Solves run in the pool's workers, so their times come from runs.csv.
    """
    out = ctx.scratch("grid_par2")
    argv = ["run", "--runs", str(GRID_RUNS), "--seed", str(ctx.base_seed), "--out", str(out), "--parallel", "2"]
    with rebound(log.bindings()):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"bench run exited with {code}")
        runs = _check_grid(ctx, out, check, log)
    return PassResult(wall, runs, parallel=2)


def wide_pass(ctx: Context, log: SolveLog, check: Check) -> PassResult:
    """Both solvers through solver.solve/solve_baseline on the m=3 problem."""
    p = ctx.problems[0]
    fns = {
        "sapgm": log.wrap_solve(solver.solve, "sapgm"),
        "baseline": log.wrap_solve(solver.solve_baseline, "baseline"),
    }
    n0 = len(log.runs)
    with rebound(log.bindings()):
        t0 = perf_counter()
        results = {s: [fn(p, sample_start(p, ctx.base_seed + i)) for i in range(WIDE_RUNS[s])] for s, fn in fns.items()}
        filt = log.wrap("metrics.nondominated_filter", metrics.nondominated_filter)
        fronts = {s: filt([metrics.FrontPoint(r.final_x, r.final_F) for r in rs]) for s, rs in results.items()}
        wall = perf_counter() - t0
        runs = log.runs[n0:]
        seeds = [ctx.base_seed + i for s in fns for i in range(WIDE_RUNS[s])]
        for r, seed in zip(runs, seeds):
            check.run(f"{p.name}|{r.solver}|{seed}", r)
        for s, front in fronts.items():
            check.value(f"front size {p.name}/{s}", len(front), check.ref["fronts"][f"{p.name}|{s}|{ctx.base_seed}"])
        _check_merits(check, log, p.name, runs, {s: np.array([pt.F for pt in f]) for s, f in fronts.items()})
    return PassResult(wall, log.runs[n0:])


def run_rate(ctx: Context, log: SolveLog) -> tuple[Path, float]:
    """bench.run_rate_experiment as `bench rate --problem JOS1` calls it."""
    out = ctx.scratch("rate_tail")
    cfg = bench.BenchConfig(problems=[RATE_PROBLEM], base_seed=ctx.base_seed, out_dir=out)
    with rebound(log.bindings()):
        t0 = perf_counter()
        bench.run_rate_experiment(RATE_PROBLEM, RATE_SIGMAS, cfg)
        wall = perf_counter() - t0
    return out, wall


def rate_pass(ctx: Context, log: SolveLog, check: Check) -> PassResult:
    n0 = len(log.runs)
    out, wall = run_rate(ctx, log)
    runs = log.runs[n0:]
    ref_runs, long_runs = runs[:RATE_REFERENCE_RUNS], runs[RATE_REFERENCE_RUNS:]
    for i, r in enumerate(ref_runs):
        check.run(f"{RATE_PROBLEM}|sapgm|{ctx.base_seed + i}", r)
    want = check.ref["rate"][str(ctx.base_seed)]
    for sigma, r, w in zip(RATE_SIGMAS, long_runs, want["runs"]):
        check.run(f"{RATE_PROBLEM}|sapgm|sigma={sigma}", r, w)
    due = RATE_REFERENCE_RUNS + len(RATE_SIGMAS)
    if len(runs) < due:
        check.missing_runs("rate_tail", due - len(runs))
    got = read_rate_outputs(out)
    for k in ("slopes", "front_size", "series"):
        check.value(f"rate {k}", got[k], want[k])
    return PassResult(wall, runs)


GRID_SIZE = 6 * 2 * GRID_RUNS  # registry problems x solvers x starts


@dataclass(frozen=True)
class Workload:
    build: Callable[[], list[ProblemSpec]]
    run_pass: Callable[[Context, SolveLog, Check], PassResult]
    runs_per_pass: int


WORKLOADS = {
    "grid": Workload(registry, grid_pass, GRID_SIZE),
    "wide_m3": Workload(lambda: [make_wide_problem()], wide_pass, sum(WIDE_RUNS.values())),
    "rate_tail": Workload(
        lambda: [get_problem(RATE_PROBLEM)], rate_pass, RATE_REFERENCE_RUNS + len(RATE_SIGMAS)
    ),
    "grid_par2": Workload(registry, grid_par2_pass, GRID_SIZE),
}
