"""Benchmark of the sapgm package: one workload, one seed, one JSON result.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload grid --seed 42 --seconds 15 --trace 0

Workloads: ``grid``, ``wide_m3``, ``rate_tail`` and ``grid_par2`` (see
``workloads.py``); ``BENCHMARK.json`` lists the two whose figures stay
steady on a small shared machine, ``grid`` and ``grid_par2``.  The seed is
folded into the window of base seeds the committed reference covers; run i
of a pass uses start seed base_seed + i.

With ``--trace 0`` the run times set-up in fresh processes, then runs
untraced passes for ``--seconds`` seconds and reports the end-to-end metrics.
The first pass also fills caches; building times from the fastest repeats
leaves that out.  With ``--trace 1`` it alternates untraced and traced passes
for ``--seconds`` seconds and reports the per-layer metrics.
Every pass's outputs are checked against ``reference.json``.

Output: one line per metric (name, value, unit), an ``env`` line, and last one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out PATH`` also writes the full record (environment,
samples, per-problem split) to PATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("grid", "wide_m3", "rate_tail", "grid_par2")
SETUP_PROBES = 5
MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds says
MIN_TRACE_PAIRS = 2  # untraced and traced passes of a traced run

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "runs_per_s": "1/s",
    "iters_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "iters_per_run": "count",
    "fevals_per_run": "count",
}

PER_LAYER = {
    "smoothing.eval.us_p50": "us",
    "smoothing.true_eval.us_p50": "us",
    "smoothing.compose_ms": "ms",
    "problems.eval_smooth.us_p50": "us",
    "problems.eval_smooth.calls_per_iter": "count",
    "problems.eval_smooth.share": "fraction",
    "problems.eval_true.us_p50": "us",
    "subproblem.solve.us_p50": "us",
    "subproblem.solve.us_p90": "us",
    "subproblem.solve.share": "fraction",
    "subproblem.dual_steps_p50": "count",
    "subproblem.dual_steps_p90": "count",
    "subproblem.gap_above_tol": "count",
    "solver.backtrack.us_p50": "us",
    "solver.trials_per_iter": "count",
    "solver.accept_ratio": "fraction",
    "solver.iter.self_us_p50": "us",
    "solver.max_L_p50": "1",
    "solver.mu_gate_frac": "fraction",
    "solver.maxiter_frac": "fraction",
    "metrics.nondominated_filter.ms": "ms",
    "metrics.merit.us_p50": "us",
    "bench.artifacts_ms": "ms",
    "bench.pool.efficiency": "fraction",
    "bench.pool.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}

# the per-problem split printed by a traced run
PER_PROBLEM = (
    "problems.eval_smooth.us_p50",
    "subproblem.solve.us_p50",
    "subproblem.dual_steps_p50",
    "solver.trials_per_iter",
    "solver.iters_per_run",
    "problems.eval_smooth.share",
    "subproblem.solve.share",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, help="also write the full record as JSON here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def setup_probe(workload: str) -> int:
    """Child side of a set-up measurement: import sapgm, build the problems."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].build()
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(workload: str) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "1", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, base_seed: int) -> dict:
    import numpy
    import sapgm

    return {
        "sapgm": sapgm.__version__,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "base_seed": base_seed,
        "flags": {"workload": args.workload, "seconds": args.seconds, "trace": args.trace},
    }


def run_passes(ctx, workload, log, check, seconds: float, min_passes: int) -> list:
    """Passes until `seconds` have gone and at least `min_passes` are done.

    A pass that raises counts all its runs as failed and ends the loop.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_passes or time.perf_counter() < deadline:
        try:
            results.append(workload.run_pass(ctx, log, check))
        except Exception as exc:  # any failure of the program under test is counted, not fatal
            check.missing_runs(f"{ctx.workload} pass raised {exc!r}", workload.runs_per_pass)
            break
    return results


def run_pairs(ctx, workload, log, tracer, check, seconds: float) -> tuple[list, list]:
    """Untraced and traced passes in turn, so that drift in the machine's
    speed affects both alike; at least MIN_TRACE_PAIRS of each."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        pair = run_passes(ctx, workload, log, check, 0.0, 1), run_passes(ctx, workload, tracer, check, 0.0, 1)
        if not all(pair):
            break
        untraced += pair[0]
        traced += pair[1]
    return untraced, traced


def fastest(values) -> float:
    values = list(values)
    return min(values) if values else math.nan


def run_times(passes) -> list[float]:
    """Each run's fastest time over the passes; passes repeat the same runs in the same order."""
    counts = {len(p.runs) for p in passes}
    if len(counts) != 1:
        return []
    return [min(ts) for ts in zip(*([r.seconds for r in p.runs] for p in passes))]


def pass_time(passes) -> float:
    """Wall time of one pass, free of interference as far as the repeats allow.

    A serial pass is timed as the sum of each run's fastest repeat plus the
    fastest repeat of the rest of the pass (artifacts, fronts).  Runs in a
    pool overlap, so a parallel pass is timed whole.
    """
    if not passes:
        return math.nan
    if passes[0].parallel > 1:
        return fastest(p.wall for p in passes)
    return sum(run_times(passes)) + fastest(p.wall - sum(r.seconds for r in p.runs) for p in passes)


def end_to_end(passes, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of identical passes.

    Every pass repeats the same work, so a slower repeat shows only
    interference from other processes on the machine: times are built from
    the fastest repeats (timeit's rule).  Set-up is the median of the
    fresh-process probes.
    """
    from tracing import percentile

    times = run_times(passes)
    first = passes[0].runs if passes else []
    values = {
        "wall_s": pass_time(passes),
        "setup_s": _median(setup),
        "runs_per_s": len(first) / pass_time(passes) if first else math.nan,
        "iters_per_s": sum(r.iterations for r in first) / sum(times) if times else math.nan,
        "run_ms_p50": 1e3 * percentile(times, 50),
        "run_ms_p90": 1e3 * percentile(times, 90),
        # every pass computes the same runs: counts come from the first
        "iters_per_run": statistics.fmean(r.iterations for r in first) if first else math.nan,
        "fevals_per_run": statistics.fmean(r.fevals for r in first) if first else math.nan,
    }
    samples = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "run_samples": len(times),
        "setup_samples_s": setup,
        "maxiter_frac": sum(r.status == "MaxIter" for r in first) / len(first) if first else math.nan,
    }
    return values, samples


def per_layer(untraced, traced, serial_traced, tracer) -> tuple[dict, dict]:
    from tracing import layer_stats

    stats = layer_stats(tracer)
    values = {k: stats[k] for k in PER_LAYER if k in stats}
    values["bench.artifacts_ms"] = 1e3 * fastest(p.wall - sum(r.seconds for r in p.runs) for p in serial_traced)
    workers, busy = (untraced[0].parallel if untraced else 1), sum(run_times(untraced))
    values["bench.pool.efficiency"] = busy / (workers * pass_time(untraced))
    values["bench.pool.overhead_s"] = pass_time(untraced) - busy / workers
    values["trace.overhead_frac"] = fastest(p.wall for p in traced) / fastest(p.wall for p in untraced) - 1.0
    problems = list(dict.fromkeys(r.problem for r in tracer.runs))
    split = {}
    for name in problems:
        s = layer_stats(tracer, name)
        split[name] = {k: s[k] for k in PER_PROBLEM}
    samples = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "traced_runs": len(tracer.runs),
    }
    return values, {"per_problem": split, **samples}


def _number(v):
    return None if v is None or not math.isfinite(v) else float(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sapgm" / "__init__.py").is_file():
        print(f"error: no sapgm package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    import sapgm

    if Path(sapgm.__file__).resolve().parent != (SRC / "sapgm").resolve():
        print(f"error: sapgm imported from {sapgm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import reference
    import workloads
    from tracing import SolveLog, Tracer, rebound

    workload = workloads.WORKLOADS[args.workload]
    base_seed = args.seed % workloads.SEED_WINDOW
    check = reference.Check(reference.load())
    ctx = workloads.Context(args.workload, base_seed, TMP / f"{args.workload}-{os.getpid()}")
    try:
        if args.trace == 0:
            setup = measure_setup(args.workload)
            ctx.problems = workload.build()
            log = SolveLog()
            passes = run_passes(ctx, workload, log, check, args.seconds, MIN_PASSES)
            values, samples = end_to_end(passes, setup)
            units = END_TO_END
        else:
            tracer = Tracer()
            with rebound(tracer.bindings()):
                ctx.problems = workload.build()  # traced once for smoothing.compose
            untraced, traced = run_pairs(ctx, workload, SolveLog(), tracer, check, args.seconds)
            serial_traced = traced
            if args.workload == "grid_par2":
                # spans from pool workers stay in the workers: the solver layers
                # are traced on one serial pass of the same grid
                serial_traced = run_passes(ctx, workloads.WORKLOADS["grid"], tracer, check, 0.0, 1)
            values, samples = per_layer(untraced, traced, serial_traced, tracer)
            tracer.write_spans(OUT / f"spans-{args.workload}.csv")
            units = PER_LAYER
    finally:
        ctx.cleanup()

    env = environment(args, base_seed)
    failed_frac = check.failed / check.attempted if check.attempted else math.nan
    print(f"workload {args.workload}  seed {args.seed} (base seed {base_seed})  trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:38s} {values.get(name, math.nan):.6g} {unit}")
    print(f"{'failed_frac':38s} {failed_frac:.6g} fraction ({check.failed} of {check.attempted} runs)")
    if args.trace == 0:
        print(f"{'maxiter_frac':38s} {samples['maxiter_frac']:.6g} fraction")
        print(f"samples: fastest of {samples['passes']} timed passes, {samples['run_samples']} distinct runs, {SETUP_PROBES} set-up probes")
    else:
        print(f"samples: {samples['untraced_passes']} untraced and {samples['traced_passes']} traced passes, "
              f"{samples['traced_runs']} traced runs, {samples['spans']} spans")
        header = "  ".join(k.replace("problems.", "").replace("subproblem.", "sub.").replace("solver.", "") for k in PER_PROBLEM)
        print(f"per problem: {header}")
        for name, row in samples["per_problem"].items():
            print(f"  {name:10s} " + "  ".join(f"{row[k]:.4g}" for k in PER_PROBLEM))
    for note in check.notes:
        print(f"check: {note}")
    print("env " + json.dumps(env, sort_keys=True))

    if check.attempted == 0:  # nothing ran: report it as one failed attempt
        check.missing_runs(args.workload, 1)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": _number(values.get(name)), "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"env": env, "result": result, "failed_frac": failed_frac, "samples": samples, "check_notes": check.notes}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
