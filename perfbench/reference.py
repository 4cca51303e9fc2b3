"""Reference outputs and the check that compares a pass against them.

``reference.json`` holds, for every start seed a workload can use, the
status, iteration count, function evaluations and final objective vector of
each (problem, solver, seed) run, plus the front sizes and rate-experiment
outputs of every base seed in the window.  It was produced at the commit that
introduced the benchmark; a change that alters any of these numbers on
purpose regenerates it and says why.

Regenerate (takes several minutes on two cores)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


class Check:
    """Counts runs attempted and runs (or artifacts) that disagree."""

    def __init__(self, reference: dict):
        self.ref = reference
        self.tol = reference["tolerance"]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def run(self, what: str, r, want: list | None = None) -> None:
        """One solver run against its reference row, by default the row named ``what``."""
        self.attempted += 1
        if want is None:
            want = self.ref["runs"].get(what)
        if want is None:
            self._fail(f"{what}: no reference row")
        elif not _same(row(r), want, self.tol):
            self._fail(f"{what}: got {row(r)}, reference {want}")

    def missing_runs(self, what: str, count: int) -> None:
        """Runs that were due but produced no output (the pass raised or dropped them)."""
        self.attempted += count
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(f"{what}: {count} runs without output")

    def value(self, what: str, got, want) -> None:
        """An artifact value (front size, rate output) against its reference."""
        if not _same(got, want, self.tol):
            self._fail(f"{what}: got {got!r}, reference {want!r}")

    def at_least(self, what: str, got: float, floor: float) -> None:
        if not got >= floor:
            self._fail(f"{what}: {got!r} below {floor!r}")


def _same(got, want, tol: float) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k], tol) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(a, b, tol) for a, b in zip(got, want)
        )
    if isinstance(want, float):
        return isinstance(got, (int, float)) and _close(got, want, tol)
    return got == want


def load(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def row(r) -> list:
    """Reference form of a tracing.Run: status, iterations, fevals, final F."""
    return [r.status, r.iterations, r.fevals, [float(v) for v in r.F]]


def generate(path: Path = REFERENCE_PATH) -> None:
    import tracing
    import workloads as wl
    from sapgm.metrics import nondominated_mask
    from sapgm.problems import registry, sample_start
    from sapgm.solver import SolverConfig, solve, solve_baseline

    log = tracing.SolveLog()
    solvers = {"sapgm": log.wrap_solve(solve, "sapgm"), "baseline": log.wrap_solve(solve_baseline, "baseline")}
    runs: dict[str, list] = {}
    fronts: dict[str, int] = {}

    def add_problem(p, per_pass: dict[str, int], top: dict[str, int]) -> None:
        for name, fn in solvers.items():
            F = []
            for seed in range(top.get(name, wl.SEED_WINDOW + per_pass[name] - 1)):
                fn(p, sample_start(p, seed))
                runs[f"{p.name}|{name}|{seed}"] = row(log.runs[-1])
                F.append(log.runs[-1].F)
            F = np.array(F)
            for base in range(wl.SEED_WINDOW):
                fronts[f"{p.name}|{name}|{base}"] = int(nondominated_mask(F[base : base + per_pass[name]]).sum())
            print(f"{p.name} {name}: {len(F)} runs", file=sys.stderr)

    grid = {"sapgm": wl.GRID_RUNS, "baseline": wl.GRID_RUNS}
    for p in registry():
        # the rate experiment's reference front reuses the JOS1/sapgm runs of 50 seeds
        top = {"sapgm": wl.SEED_WINDOW + wl.RATE_REFERENCE_RUNS - 1} if p.name == wl.RATE_PROBLEM else {}
        add_problem(p, grid, top)
    add_problem(wl.make_wide_problem(), wl.WIDE_RUNS, {})

    rate = {}
    ctx = wl.Context("rate_tail", 0, HERE.parent / ".bench_tmp" / "reference")
    for base in range(wl.SEED_WINDOW):
        ctx.base_seed = base
        out, _ = wl.run_rate(ctx, log)
        long_runs = log.runs[-len(wl.RATE_SIGMAS) :]
        rate[str(base)] = {"runs": [row(r) for r in long_runs], **wl.read_rate_outputs(out)}
        print(f"rate base seed {base}", file=sys.stderr)
    ctx.cleanup()

    data = {
        "tolerance": SolverConfig().eps,
        "seed_window": wl.SEED_WINDOW,
        "grid_runs": wl.GRID_RUNS,
        "wide_runs": wl.WIDE_RUNS,
        "runs": runs,
        "fronts": fronts,
        "rate": rate,
    }
    path.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    generate()
