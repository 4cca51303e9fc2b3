"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line before asserting, so the outcome
of every criterion is visible in the log even when one of them fails.
"""
import csv
import itertools
import math
import time

import numpy as np

from conftest import exact_merit_series, grid_argmin_2d, subproblem_objective
from sapgm.bench import RATE_ITERS, BenchConfig
from sapgm.cli import main as cli_main
from sapgm.errors import InsufficientDataError
from sapgm.metrics import FrontPoint, fit_rate, nondominated_filter
from sapgm.problems import eval_smooth, eval_true, get_problem, registry, sample_start
from sapgm.smoothing import Abs, Affine, Max2, MaxList, Plus, compose_surrogate, verify_surrogate
from sapgm.solver import SolverConfig, momentum_update, mu_schedule, solve

TABLE_AVG_ITERS = {
    "JOS1": 32.82,
    "CR&MF2": 40.76,
    "CB3&LQ": 51.63,
    "BK1": 57.53,
    "SP1": 379.27,
    "CB3&MF1": 483.85,
}

# Criterion 5 fits u0(x_k) on CB3&MF1 over a window where it follows one
# power law (local log-log slopes settle there); a larger fit residual means
# the window is not such a regime.
RATE_WINDOW = (1000, 8000)
RATE_MAX_RESIDUAL = 0.05


def _verdict(num, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE] criterion {num}: {status} {detail}".rstrip())
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_smoothing_conformance():
    t0 = time.perf_counter()
    failures = []
    box1 = (np.array([-5.0]), np.array([5.0]))
    box2 = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    box3 = (-np.ones(3) * 5, np.ones(3) * 5)
    cases = [
        ("abs", compose_surrogate(Abs(Affine([1.0])), box=box1), box1),
        ("plus", compose_surrogate(Plus(Affine([1.0])), box=box1), box1),
        ("max2", compose_surrogate(Max2(Affine([1.0, 0.0]), Affine([0.0, 1.0])), box=box2), box2),
        (
            "max3",
            compose_surrogate(
                MaxList([Affine([1.0, 0, 0]), Affine([0, 1.0, 0]), Affine([0, 0, 1.0])]),
                box=box3,
            ),
            box3,
        ),
    ]
    for p in registry():
        for i, s in enumerate(p.smooth_parts):
            cases.append((f"{p.name}[{i}]", s, (p.lower, p.upper)))
    for name, s, box in cases:
        rep = verify_surrogate(s, box, 1000, rng_seed=0)
        if rep.kappa_violation > 1e-9:
            failures.append(f"{name}: kappa violation {rep.kappa_violation:.2e}")
        if rep.grad_rel_error > 1e-5:
            failures.append(f"{name}: gradient error {rep.grad_rel_error:.2e}")
        if rep.convexity_violation > 1e-9:
            failures.append(f"{name}: convexity violation {rep.convexity_violation:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(1, failures, f"({len(cases)} surrogates, {elapsed:.1f}s)")


def test_criterion_2_momentum_identities():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2)
    for sigma in (0.5, 1.0, 1.5, 1.9):
        t, mu, L = 1.0, 1.0, 1.0
        for k in range(10_000):
            mu_next = mu_schedule(k, 1.0, sigma)
            L_next = min(L * float(rng.uniform(1.0, 2.0)), 1e9)
            t_next, theta = momentum_update(t, mu, mu_next, L, L_next)
            lhs = mu_next * t_next * (t_next - 1.0) / L_next
            rhs = mu * t * t / L
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
                failures.append(f"sigma={sigma} k={k}: identity off by {abs(lhs - rhs):.2e}")
                break
            if theta * theta >= 1.0:
                failures.append(f"sigma={sigma} k={k}: theta^2 = {theta * theta:.6f} >= 1")
                break
            bound = (4.0 / (2.0 - sigma)) * (k + 2) ** (1.0 - sigma / 2.0)
            if t_next * math.sqrt(mu_next / L_next) > bound * (1.0 + 1e-12):
                failures.append(f"sigma={sigma} k={k}: growth bound violated")
                break
            t, mu, L = t_next, mu_next, L_next
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(2, failures, f"({elapsed:.2f}s)")


def test_criterion_3_subproblem_oracle_equivalence():
    from test_subproblem import random_instance
    from sapgm.subproblem import solve_subproblem

    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        inp = random_instance(seed)
        sol = solve_subproblem(inp, tol=1e-10)
        phi = subproblem_objective(inp)
        grads = np.asarray(eval_smooth(inp.problem, inp.y, inp.mu)[1])
        radius = (np.linalg.norm(grads, axis=1).max() + 1.0) / inp.ell + 0.1
        d = grads[0] - grads[1]
        z_star = grid_argmin_2d(phi, inp.y, radius, npts=400, extra_dirs=[[-d[1], d[0]]])
        dev = float(np.max(np.abs(sol.z - z_star)))
        if dev > 1e-3:
            failures.append(f"seed {seed}: |z - grid|_inf = {dev:.2e}")
        if sol.gap > 1e-8:
            failures.append(f"seed {seed}: gap {sol.gap:.2e}")
        if sol.kkt_residual > 1e-6:
            failures.append(f"seed {seed}: kkt {sol.kkt_residual:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(3, failures, f"(100 instances, {elapsed:.1f}s)")


def test_criterion_4_benchmark_consistency(benchmark_run):
    failures = []
    details = []
    rows = [r for r in benchmark_run["rows"] if r["solver"] == "sapgm"]
    # no run can stop before mu_{k+1} < eps: the mu-gate floor on iterations
    sc = BenchConfig().params
    floor = next(k + 1 for k in itertools.count() if mu_schedule(k, sc.mu0, sc.sigma) < sc.eps)
    for name, avg in TABLE_AVG_ITERS.items():
        sub = [r for r in rows if r["problem"] == name]
        assert len(sub) == 200
        conv = np.mean([r["status"] == "Converged" for r in sub])
        med = float(np.median([int(r["iters"]) for r in sub]))
        at_floor = np.mean([int(r["iters"]) == floor for r in sub])
        details.append(
            f"{name}: conv={conv:.2f} median={med:.0f} at_floor={at_floor:.2f} ref={avg}"
        )
        if conv < 0.9:
            failures.append(f"{name}: converged fraction {conv:.2f} < 0.9")
        if not (avg / 3.0 <= med <= avg * 3.0):
            failures.append(
                f"{name}: median {med:.0f} outside [{avg / 3.0:.1f}, {avg * 3.0:.1f}]"
            )
    if benchmark_run["elapsed"] >= 600.0:
        failures.append(f"benchmark took {benchmark_run['elapsed']:.0f}s >= 600s")
    _verdict(
        4,
        failures,
        f"({benchmark_run['elapsed']:.0f}s; floor k={floor}; " + "; ".join(details) + ")",
    )


def _log_ks(k_lo, k_hi, n):
    return np.unique(np.geomspace(k_lo, k_hi, n).round().astype(int))


def test_criterion_5_rate_regimes():
    t0 = time.perf_counter()
    failures = []
    details = []
    seed = BenchConfig().base_seed  # the start run_rate_experiment uses
    jos1 = get_problem("JOS1")
    p = get_problem("CB3&MF1")
    k_lo, k_hi = RATE_WINDOW
    targets = {0.5: -0.4, 1.5: -0.1}
    for sigma, target in targets.items():
        # JOS1 (kappa = 0, identity Hessians): the first subproblem model is
        # exact, x_1 is Pareto optimal and a fixed point, so u0 = 0 from k = 1
        cfg = SolverConfig(sigma=sigma, eps=0.0, max_iter=RATE_ITERS, record_trace=True)
        res = solve(jos1, sample_start(jos1, seed), cfg)
        series = exact_merit_series(jos1, res.trace, _log_ks(1, RATE_ITERS, 12))
        worst = max(v for _, v in series)
        if worst > 1e-12:
            failures.append(f"sigma={sigma}: JOS1 merit {worst:.2e} after k=1, expected 0")

        cfg = SolverConfig(sigma=sigma, eps=0.0, max_iter=k_hi, record_trace=True)
        res = solve(p, sample_start(p, seed), cfg)
        series = exact_merit_series(p, res.trace, _log_ks(k_lo, k_hi, 16))
        try:
            fit = fit_rate(series, k_lo, k_hi)
        except InsufficientDataError as exc:
            failures.append(f"sigma={sigma}: no fittable merit series ({exc})")
            continue
        details.append(f"sigma={sigma}: slope={fit.slope:.3f} residual={fit.residual:.4f}")
        if fit.slope > target:
            failures.append(f"sigma={sigma}: slope {fit.slope:.3f} > {target}")
        if fit.residual > RATE_MAX_RESIDUAL:
            failures.append(
                f"sigma={sigma}: fit residual {fit.residual:.3f} > {RATE_MAX_RESIDUAL}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    window = f"CB3&MF1 on [{k_lo}, {k_hi}]"
    _verdict(5, failures, f"({elapsed:.0f}s; {window}; " + "; ".join(details) + ")")


def test_criterion_6_front_sanity(benchmark_run):
    failures = []
    details = []
    rows = benchmark_run["rows"]
    for p in registry():
        sub = [r for r in rows if r["problem"] == p.name]
        fronts = {}
        for solver in ("sapgm", "baseline"):
            xs = [np.array([float(r["final_x0"]), float(r["final_x1"])]) for r in sub if r["solver"] == solver]
            pts = [FrontPoint(x, eval_true(p, x)) for x in xs]
            fronts[solver] = nondominated_filter(pts)
        pooled = nondominated_filter(fronts["sapgm"] + fronts["baseline"])
        distinct = {tuple(np.round(pt.F, 9)) for pt in pooled}
        details.append(
            f"{p.name}: nondominated sapgm={len(fronts['sapgm'])} "
            f"baseline={len(fronts['baseline'])} pooled={len(distinct)}"
        )
        if len(distinct) < 20:
            failures.append(f"{p.name}: only {len(distinct)} distinct front points")
        F = np.array([pt.F for pt in pooled])
        for i in range(len(F)):
            for j in range(len(F)):
                if i != j and np.all(F[j] <= F[i] + 1e-9) and np.any(F[j] < F[i] - 1e-9):
                    failures.append(f"{p.name}: dominated pair survived the filter")
                    break

        def _dominated_everywhere(front, other):
            return all(
                any(
                    np.all(q.F <= pt.F + 1e-9) and np.any(q.F < pt.F - 1e-9)
                    for q in other
                )
                for pt in front
            )

        if _dominated_everywhere(fronts["sapgm"], fronts["baseline"]):
            failures.append(f"{p.name}: baseline front dominates the accelerated front")
    _verdict(6, failures, "(" + "; ".join(details) + ")")


def test_criterion_7_cli_determinism(tmp_path):
    failures = []
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(["run", "--runs", "5", "--seed", "7", "--problems", "all", "--out", str(out)])
        if rc != 0:
            failures.append(f"exit code {rc}")
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        t = rows[0].index("time_s")
        outputs.append([r[:t] + r[t + 1 :] for r in rows])
    if not failures and outputs[0] != outputs[1]:
        failures.append("runs.csv differs between identical invocations")
    _verdict(7, failures)
