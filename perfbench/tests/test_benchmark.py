"""Checks of the benchmark itself: tracing leaves the program's outputs and
names as they were, the metric tables match BENCHMARK.json, and the
benchmark refuses to run without the package source.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_tmp" / "tests"


def _current():
    return [getattr(owner, attr) for owner, attr in tracing.TRACED_NAMES]


def test_rebound_restores_every_name_even_when_the_block_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with tracing.rebound(tracing.Tracer().bindings()):
            assert all(now is not was for now, was in zip(_current(), before))
            raise RuntimeError("boom")
    assert all(now is was for now, was in zip(_current(), before))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_passes_the_reference_check(name):
    wl = workloads.WORKLOADS[name]
    check = reference.Check(reference.load())
    ctx = workloads.Context(name, 42, SCRATCH / name)
    before = _current()
    tracer = tracing.Tracer()
    try:
        with tracing.rebound(tracer.bindings()):
            ctx.problems = wl.build()
        wl.run_pass(ctx, tracer, check)
    finally:
        ctx.cleanup()
    assert check.notes == []
    assert (check.attempted, check.failed) == (wl.runs_per_pass, 0)
    assert all(now is was for now, was in zip(_current(), before))
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"smoothing.compose", "metrics.nondominated_filter", "metrics.merit"} <= names
    if name != "grid_par2":  # solver spans of the pool stay in its workers
        assert {"solver.run", "solver.backtrack", "subproblem.solve", "problems.eval_smooth", "smoothing.eval"} <= names


def test_a_changed_output_is_counted_as_failed():
    check = reference.Check(reference.load())
    key = "BK1|sapgm|42"
    status, iters, fevals, F = check.ref["runs"][key]
    good = tracing.Run("BK1", "sapgm", 0.0, iters, fevals, status, F)
    check.run(key, good)
    check.run(key, tracing.Run("BK1", "sapgm", 0.0, iters + 1, fevals, status, F))
    check.run(key, tracing.Run("BK1", "sapgm", 0.0, iters, fevals, status, [F[0] + 1.0, F[1]]))
    assert (check.attempted, check.failed) == (3, 2)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
