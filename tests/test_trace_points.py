"""What the benchmark's tracer reads from the solver, pinned from the package side.

perfbench/tracing.py rebinds ``sapgm.solver._solve_core`` and
``sapgm.solver.backtrack_step`` and reads positions of their arguments and
results: ``_solve_core``'s third argument as the tolerance, ``out[3]`` as the
duality gap and ``out[4]`` as the dual steps; ``backtrack_step``'s ``out[1]``
as the accepted L and ``out[2]`` as the trial count.  A float in the wrong
place would feed the tracer's gap and step counts without any error, so these
tests pin each position on the registry problems.
"""

import inspect

import pytest

from sapgm import solver
from sapgm.problems import registry, sample_start
from sapgm.solver import SolverConfig, solve
from sapgm.subproblem import DEFAULT_TOL


def test_solve_core_takes_the_tolerance_third():
    assert list(inspect.signature(solver._solve_core).parameters)[2] == "tol"


@pytest.mark.parametrize("p", registry(), ids=lambda p: p.name)
def test_solve_core_and_backtrack_step_results_sit_where_the_tracer_reads_them(p, monkeypatch):
    cfg = SolverConfig()
    solves, steps = [], []
    solve_core, backtrack_step = solver._solve_core, solver.backtrack_step

    def traced_solve_core(*a):
        out = solve_core(*a)
        core, lam = a[0], out[1]
        # theta and the gap from the prox step at the returned weights
        _, comp, dual, quad, _ = core.inner(lam)
        theta = max(comp) + quad
        solves.append((a[2], out[3], theta - dual, out[4], core.ell))
        return out

    def traced_backtrack_step(*a):
        first = len(solves)
        out = backtrack_step(*a)
        steps.append((out[1], out[2], a[3], solves[first:]))
        return out

    monkeypatch.setattr(solver, "_solve_core", traced_solve_core)
    monkeypatch.setattr(solver, "backtrack_step", traced_backtrack_step)
    res = solve(p, sample_start(p, 0), cfg)

    assert len(steps) == res.iterations and solves
    for tol, gap, gap_ref, dual_steps, _ in solves:
        assert tol == DEFAULT_TOL
        assert type(gap) is float and gap == gap_ref and gap <= tol
        assert dual_steps == 1  # m = 2: one exact step
    for L, trials, mu, calls in steps:
        # one subproblem solve per trial, and L is the last trial's, ell = L / mu
        assert type(trials) is int and trials == len(calls) >= 1
        assert type(L) is float and L == cfg.L0 * cfg.eta ** (trials - 1)
        assert calls[-1][4] == L / mu
