import argparse
import csv
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from sapgm import bench, subproblem
from sapgm.bench import (
    PROTOCOL_PARAMS,
    RATE_ITERS,
    SOLVERS,
    BenchConfig,
    _ticks,
    emit_svg_scatter,
    run_benchmark,
    run_rate_experiment,
    slugify,
)
from sapgm.cli import RATE_PARAMS, build_parser, main
from sapgm.errors import DivergingLipschitzError, InvalidInputError, InvalidParameterError, WorkerExitError
from sapgm.metrics import FrontPoint, nondominated_filter
from sapgm.problems import eval_true, get_problem, sample_start
from sapgm.solver import SolverConfig, solve


def _drop_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    t = rows[0].index("time_s")
    return [r[:t] + r[t + 1 :] for r in rows]


def _fp(p, x):
    x = np.asarray(x, float)
    return FrontPoint(x, eval_true(p, x))


def test_cli_run_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["run", "--problems", "JOS1", "--runs", "1", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert _drop_time(a / "runs.csv") == _drop_time(b / "runs.csv")


def test_parallel_shares_give_the_serial_runs_csv(tmp_path):
    # 3 processes on 24 runs, and 5 on 12, give the shares uneven sizes
    for runs, workers in (("2", "1"), ("2", "2"), ("2", "3"), ("1", "5")):
        out = tmp_path / f"{runs}x{workers}"
        assert main(["run", "--runs", runs, "--seed", "3", "--parallel", workers, "--out", str(out)]) == 0
    serial = _drop_time(tmp_path / "2x1" / "runs.csv")
    assert len(serial) == 1 + 6 * 2 * 2  # header + problems x solvers x runs
    assert serial == _drop_time(tmp_path / "2x2" / "runs.csv")
    assert serial == _drop_time(tmp_path / "2x3" / "runs.csv")
    # one run per problem and solver gives the serial grid's rows of seed 3
    assert _drop_time(tmp_path / "1x5" / "runs.csv") == [row for row in serial if row[2] in ("seed", "3")]
    assert multiprocessing.active_children() == []


@pytest.fixture
def forks(monkeypatch):
    """The children run_benchmark forks, as they start, and the ones it joins;
    the hooks in `on_start` run in the calling process as each child starts."""
    fork = multiprocessing.get_context("fork")
    seen = SimpleNamespace(started=[], joined=[], on_start=[])

    class Recorded(fork.Process):
        def start(self):
            for hook in seen.on_start:
                hook()
            seen.started.append(self)
            super().start()

        def join(self, timeout=None):
            super().join(timeout)
            seen.joined.append(self)

    monkeypatch.setattr(fork, "Process", Recorded)
    return seen


def _none_left(forks) -> bool:
    """Every child was joined, and none is running."""
    return all(c in forks.joined for c in forks.started) and multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "runs, solver, forked",
    [(1, "sapgm", 0), (3, "sapgm", 2), (3, "both", 5), (5, "both", 7)],
)
def test_no_more_processes_solve_than_runs(tmp_path, forks, runs, solver, forked):
    # the calling process solves a share too, so min(parallel, runs) - 1
    # children are forked, none for one run; the manifest keeps the
    # --parallel asked for
    out = tmp_path / "r"
    argv = ["run", "--problems", "JOS1", "--runs", str(runs), "--solver", solver, "--parallel", "8"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(forks.started) == forked
    assert json.loads((out / "manifest.json").read_text())["parallel"] == 8
    assert len(_drop_time(out / "runs.csv")) == 1 + runs * len(SOLVERS if solver == "both" else [solver])
    assert _none_left(forks)


def test_children_that_compile_on_first_use_give_the_serial_rows(tmp_path, monkeypatch, forks):
    # nothing is compiled before the fork: the child compiles the pair kernel
    # and the steps of its share itself, as the calling process does for its own
    monkeypatch.setattr(subproblem, "_PAIR_KERNELS", subproblem._Kernels(subproblem._pair_source))
    names = ("JOS1", "BK1")
    for name in names:  # steps an earlier test compiled come back afterwards
        monkeypatch.delitem(get_problem(name).__dict__, "_step", raising=False)
    compiled = []

    def snapshot():
        steps = sorted(name for name in names if "_step" in get_problem(name).__dict__)
        compiled.append((sorted(subproblem._PAIR_KERNELS), steps))

    forks.on_start.append(snapshot)
    argv = ["run", "--problems", ",".join(names), "--runs", "2", "--seed", "5", "--solver", "both"]
    assert main(argv + ["--parallel", "2", "--out", str(tmp_path / "parallel")]) == 0
    assert compiled == [([], [])]
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    serial = _drop_time(tmp_path / "serial" / "runs.csv")
    assert len(serial) == 1 + 2 * 2 * 2  # header + problems x solvers x runs
    assert _drop_time(tmp_path / "parallel" / "runs.csv") == serial
    assert len(forks.started) == 1 and _none_left(forks)


def test_a_serial_run_does_not_import_multiprocessing(tmp_path):
    # a serial grid goes through _run_shares too, which imports multiprocessing
    # only to fork; in a fresh process, since the test session has imported it
    code = (
        "import sys\n"
        "from sapgm.bench import BenchConfig, run_benchmark\n"
        f"run_benchmark(BenchConfig(problems=['JOS1'], runs=1, out_dir={str(tmp_path)!r}))\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bench.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
    assert len(_drop_time(tmp_path / "runs.csv")) == 1 + len(SOLVERS)


@pytest.fixture
def deadline():
    """A test that waits on children fails after 60 s rather than hanging."""

    def expire(signum, frame):
        raise TimeoutError("the test did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad_seed", [5, 6])  # in the calling process's share, and in the child's
def test_an_error_in_any_share_reaches_the_caller_as_a_serial_run_raises_it(
    tmp_path, monkeypatch, forks, deadline, bad_seed
):
    bad = sample_start(get_problem("JOS1"), bad_seed).tolist()

    def failing(p, x0, cfg):
        if x0 == bad:
            raise DivergingLipschitzError(f"{p.name}: the Lipschitz estimate diverged from {x0}")
        return solve(p, x0, cfg)

    monkeypatch.setattr(bench, "solve", failing)  # the forked children inherit it
    grid = dict(problems=("JOS1",), runs=8, base_seed=5, solver="sapgm")
    raised = []
    for parallel in (1, 2):
        with pytest.raises(DivergingLipschitzError) as exc:
            run_benchmark(BenchConfig(**grid, parallel=parallel, out_dir=tmp_path / str(parallel)))
        raised.append((type(exc.value), str(exc.value)))
    assert raised[1] == raised[0]
    assert len(forks.started) == 1 and _none_left(forks)


@pytest.mark.parametrize("parallel", [2, 3])
def test_a_child_that_exits_without_sending_raises_its_exit_code(tmp_path, monkeypatch, forks, deadline, parallel):
    pid = os.getpid()

    def exiting(p, x0, cfg):
        if os.getpid() != pid:
            os._exit(3)
        return solve(p, x0, cfg)

    monkeypatch.setattr(bench, "solve", exiting)
    with pytest.raises(WorkerExitError, match="exited with code 3 "):
        run_benchmark(BenchConfig(problems=("JOS1",), runs=4, solver="sapgm", parallel=parallel, out_dir=tmp_path))
    assert len(forks.started) == parallel - 1 and _none_left(forks)


def test_a_parallel_run_needs_the_fork_start_method(tmp_path, monkeypatch):
    # the shares' children are forked, inheriting the drawn starts, the
    # registry and any rebound bench.solve; Python 3.14 makes forkserver the
    # default on Linux, and some platforms have no fork
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    with pytest.raises(InvalidParameterError, match="'fork' start method"):
        BenchConfig(parallel=2)
    out = tmp_path / "parallel"
    assert main(["run", "--problems", "JOS1", "--runs", "2", "--parallel", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["run", "--problems", "JOS1", "--runs", "2", "--out", str(tmp_path / "serial")]) == 0


def test_each_start_is_drawn_once_in_the_calling_process(tmp_path, monkeypatch):
    pid, draws = os.getpid(), []

    def counted(p, seed):
        if os.getpid() != pid:
            raise RuntimeError(f"a start was drawn in process {os.getpid()}, not in {pid}")
        draws.append((p.name, seed))
        return sample_start(p, seed)

    monkeypatch.setattr(bench, "sample_start", counted)
    grid = dict(problems=("JOS1", "BK1"), runs=2, base_seed=5, solver="both")
    run_benchmark(BenchConfig(**grid, out_dir=tmp_path / "serial"))
    assert sorted(draws) == [("BK1", 5), ("BK1", 6), ("JOS1", 5), ("JOS1", 6)]  # both solvers share them
    run_benchmark(BenchConfig(**grid, parallel=2, out_dir=tmp_path / "pool"))
    assert _drop_time(tmp_path / "serial" / "runs.csv") == _drop_time(tmp_path / "pool" / "runs.csv")


def test_run_without_solver_flags_records_the_default_config(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--problems", "JOS1", "--runs", "1", "--out", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params == {k: getattr(SolverConfig(), k) for k in params}
    assert set(params) == {"mu0", "L0", "eta", "sigma", "eps", "max_iter"}


def test_index_resolution_and_summary_consistency(tmp_path):
    out = tmp_path / "r"
    cfg = BenchConfig(problems=("5",), runs=4, base_seed=11, solver="sapgm", out_dir=out)
    run_benchmark(cfg)
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["problem"] for r in rows} == {"JOS1"}
    assert [int(r["seed"]) for r in rows] == [11, 12, 13, 14]
    with open(out / "summary.csv", newline="") as fh:
        srow = next(csv.DictReader(fh))
    assert float(srow["avg_iter"]) == pytest.approx(
        np.mean([int(r["iters"]) for r in rows]), abs=1e-9
    )
    assert float(srow["converged_fraction"]) == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == 4 and manifest["base_seed"] == 11


def test_front_csv_is_nondominated(tmp_path):
    out = tmp_path / "r"
    run_benchmark(BenchConfig(problems=("BK1",), runs=10, solver="both", out_dir=out))
    p = get_problem("BK1")
    with open(out / "front_BK1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for solver in ("sapgm", "baseline"):
        pts = [
            _fp(p, [float(r["x0"]), float(r["x1"])]) for r in rows if r["solver"] == solver
        ]
        kept = nondominated_filter(pts)
        assert len(kept) == len(pts)


def test_bench_config_validation():
    # constructing a config starts no run and no pool
    for bad in (
        dict(runs=0),
        dict(parallel=0),
        dict(solver="other"),
        # a count or seed that is no integer failed inside the run, or
        # (parallel = nan) ran serially without a word
        dict(runs=2.5),
        dict(runs=math.nan),
        dict(base_seed=1.5),
        dict(base_seed=-1),
        dict(parallel=math.nan),
        dict(parallel=2.0),
        # a string was read one character at a time: "16" ran BK1 and SP1,
        # and "all" and "JOS1" failed on their first letter
        dict(problems="16"),
        dict(problems="all"),
        dict(problems="JOS1"),
        # each was accepted, then failed with a bare TypeError or, after
        # writing every artifact but the manifest, a bare AttributeError
        dict(problems=None),
        dict(problems=5),
        dict(runs=1, params=None),
        # a bool is no count or seed; each was accepted
        dict(runs=True),
        dict(parallel=True),
        dict(base_seed=False),
    ):
        with pytest.raises(InvalidParameterError):
            BenchConfig(**bad)
    assert BenchConfig(runs=np.int64(3), base_seed=0, parallel=2).runs == 3
    # an iterator of keys serves every run; it gave an empty list from the second on
    cfg = BenchConfig(problems=iter(["JOS1"]))
    assert cfg.problem_names() == cfg.problem_names() == ["JOS1"]


def test_slugify():
    assert slugify("CB3&LQ") == "CB3-LQ"
    assert slugify("JOS1") == "JOS1"


# ------------------------------------------------------------------ SVG output


def _markers(svg_path):
    root = ET.parse(svg_path).getroot()
    ns = {"s": "http://www.w3.org/2000/svg"}
    return root.findall(".//s:circle[@class='marker']", ns), root


def test_svg_single_point(tmp_path):
    p = get_problem("BK1")
    path = tmp_path / "one.svg"
    emit_svg_scatter({"sapgm": [_fp(p, [0.0, 0.0])]}, path, title="BK1")
    marks, _ = _markers(path)
    assert len(marks) == 1


def test_svg_legend_and_marker_bounds(tmp_path):
    p = get_problem("BK1")
    rng = np.random.default_rng(0)
    fronts = {
        "sapgm": [_fp(p, rng.uniform(p.lower, p.upper)) for _ in range(6)],
        "baseline": [_fp(p, rng.uniform(p.lower, p.upper)) for _ in range(6)],
    }
    path = tmp_path / "two.svg"
    emit_svg_scatter(fronts, path, title="BK1")
    marks, root = _markers(path)
    labels = [t.text for t in root.findall(".//s:text", {"s": "http://www.w3.org/2000/svg"})]
    assert labels.count("sapgm") == 1 and labels.count("baseline") == 1
    assert len(marks) == 12
    w = float(root.get("width"))
    h = float(root.get("height"))
    for m in marks:
        assert 0.0 <= float(m.get("cx")) <= w
        assert 0.0 <= float(m.get("cy")) <= h


def test_svg_escapes_the_title_and_the_solver_labels(tmp_path):
    # problem names such as CB3&LQ carry XML markup characters
    p = get_problem("CB3&LQ")
    rng = np.random.default_rng(0)
    fronts = {name: [_fp(p, rng.uniform(p.lower, p.upper))] for name in ("sapgm", "<a&b>")}
    path = tmp_path / "amp.svg"
    emit_svg_scatter(fronts, path, title="CB3&LQ")
    marks, root = _markers(path)
    labels = [t.text for t in root.findall(".//s:text", {"s": "http://www.w3.org/2000/svg"})]
    assert labels[0] == "CB3&LQ" and "<a&b>" in labels
    assert len(marks) == 2
    empty = tmp_path / "amp_empty.svg"
    emit_svg_scatter({"sapgm": []}, empty, title="CB3&LQ")
    assert ET.parse(empty).getroot().find("{http://www.w3.org/2000/svg}text").text == "CB3&LQ"


@pytest.mark.parametrize("m", [1, 3])
def test_svg_rejects_a_front_point_without_two_objectives(tmp_path, m):
    # m = 3 drew a projection of the first two objectives; m = 1 raised a bare IndexError
    fronts = {"sapgm": [FrontPoint(np.zeros(2), np.zeros(2))], "baseline": [FrontPoint(np.zeros(2), np.zeros(m))]}
    path = tmp_path / "front.svg"
    with pytest.raises(InvalidInputError, match=f"a front point needs 2 objective values, got {m}"):
        emit_svg_scatter(fronts, path, title="bad")
    assert not path.exists()


def test_svg_empty_front(tmp_path):
    path = tmp_path / "empty.svg"
    emit_svg_scatter({"sapgm": []}, path, title="none")
    assert "no data" in path.read_text()


def test_ticks_carry_no_negative_zero():
    # from -0.6 the accumulated step of 0.2 reaches about -5.6e-17, which rounds to -0.0
    ticks = _ticks(-0.7, 0.3)
    assert 0.0 in ticks
    assert all(math.copysign(1.0, t) > 0.0 for t in ticks if t == 0.0)
    assert [f"{t:g}" for t in ticks] == ["-0.6", "-0.4", "-0.2", "0", "0.2"]


@pytest.mark.parametrize(
    "f1",
    [
        [1e16, 1e16 + 4],  # a tick step below the ulp of the values stalled the tick loop
        [1e16, 1e16],  # a padded range no wider than a point divided by zero
        [-1e308, 1e308],  # a width that overflows
    ],
)
def test_svg_of_any_finite_front_has_finite_ticks_on_the_axes(tmp_path, f1):
    front = [FrontPoint(np.zeros(2), np.array([v, float(i)])) for i, v in enumerate(f1)]
    path = tmp_path / "front.svg"
    emit_svg_scatter({"sapgm": front}, path, title="extreme")
    text = path.read_text()
    assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)
    root = ET.parse(path).getroot()
    w, h, margin = float(root.get("width")), float(root.get("height")), 60.0
    ticks = root.findall(".//s:line", {"s": "http://www.w3.org/2000/svg"})[2:]  # after the two axes
    for t in ticks:
        x1, y1, x2, y2 = (float(t.get(k)) for k in ("x1", "y1", "x2", "y2"))
        if y2 > y1:  # a tick on the F1 axis, at a value in [lo, hi]
            assert margin <= x1 == x2 <= w - margin
        else:  # a tick on the F2 axis
            assert margin <= y1 == y2 <= h - margin
    assert len(_markers(path)[0]) == len(f1)


# ------------------------------------------------------------------ rate mode


def test_rate_experiment_outputs(tmp_path):
    out = tmp_path / "rate"
    cfg = BenchConfig(out_dir=out)
    run_rate_experiment("JOS1", [0.5, 1.5], cfg)
    files = sorted(f.name for f in out.iterdir())
    assert "rate_JOS1_sigma0.5.csv" in files
    assert "rate_JOS1_sigma1.5.csv" in files
    assert "rate_JOS1_slopes.json" in files
    with open(out / "rate_JOS1_sigma0.5.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == RATE_ITERS
    assert set(rows[0]) == {"k", "merit"}


@pytest.mark.parametrize("sigma, shown", [("a", "'a'"), (None, "None"), (2.0, "2.0"), (0, "0")])
def test_rate_checks_every_sigma_before_solving(tmp_path, monkeypatch, sigma, shown):
    # each sigma is checked as SolverConfig checks it, one that is no number
    # included, before the reference front is solved
    solved = []
    monkeypatch.setattr(bench, "solve", lambda *args: solved.append(args))
    with pytest.raises(InvalidParameterError, match=rf"^sigma must lie in \(0, 2\), got {shown}$"):
        run_rate_experiment("JOS1", [0.5, sigma], BenchConfig(out_dir=tmp_path))
    assert solved == []


def test_rate_empty_sigma_list_is_noop(tmp_path, caplog):
    out = tmp_path / "rate"
    run_rate_experiment("JOS1", [], BenchConfig(out_dir=out))
    assert out.is_dir() and not any(out.iterdir())


# ------------------------------------------------------------------ defaults


def _flag(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return next(a for a in sub._actions if a.dest == dest)


def test_cli_defaults_are_the_bench_config_defaults():
    d = BenchConfig()
    run = build_parser().parse_args(["run"])
    assert run.problems.split(",") == list(d.problems)
    assert (run.runs, run.seed, run.solver, run.parallel, run.out) == (
        d.runs, d.base_seed, d.solver, d.parallel, d.out_dir
    )
    assert {k: getattr(run, k) for k in PROTOCOL_PARAMS} == {k: getattr(d.params, k) for k in PROTOCOL_PARAMS}
    rate = build_parser().parse_args(["rate", "--problem", "JOS1"])
    assert (rate.seed, rate.out) == (d.base_seed, d.out_dir)
    assert {k: getattr(rate, k) for k in RATE_PARAMS} == {k: getattr(d.params, k) for k in RATE_PARAMS}
    assert list(_flag("run", "solver").choices) == [*SOLVERS, "both"]


# ------------------------------------------------------------------ exit codes


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--problems", "NOPE", "--runs", "1", "--out", str(tmp_path / "x")]) == 2
    assert main(["run", "--problems", "JOS1", "--runs", "0", "--out", str(tmp_path / "y")]) == 2
    assert main(["rate", "--problem", "JOS1", "--sigmas", "2.5", "--out", str(tmp_path / "z")]) == 2
    # an empty problem list, and a problem named twice by any spelling
    for problems in ("", ",", " , ", "JOS1,jos1", "JOS1, jos1", "5,JOS1"):
        out = tmp_path / f"p{len(problems)}"
        assert main(["run", "--problems", problems, "--runs", "1", "--out", str(out)]) == 2
        assert not (out / "runs.csv").exists()
    # blanks around a name are not part of it
    out = tmp_path / "blanks"
    assert main(["run", "--problems", "JOS1, SP1", "--runs", "1", "--out", str(out)]) == 0
    assert {row.split(",")[0] for row in (out / "runs.csv").read_text().splitlines()[1:]} == {"JOS1", "SP1"}
    # `bench rate` sets sigma, eps and max_iter itself and takes no flag for them
    for flag, value in (("--max-iter", "5"), ("--eps", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--problem", "JOS1", flag, value, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
    # NaN solver parameters are invalid configurations
    for flag in ("--eps", "--L0", "--eta"):
        assert main(["run", "--problems", "JOS1", "--runs", "1", flag, "nan", "--out", str(tmp_path / "n")]) == 2
    assert (
        main(["run", "--problems", "JOS1", "--runs", "1", "--out", "/proc/definitely/not/writable"])
        == 3
    )


def test_cli_verify_smoke(capsys):
    assert main(["verify", "--samples", "50", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
