import ast
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sapgm
from conftest import backtrack_step_loop_reference, build_problem
from sapgm import solver
from sapgm.errors import DivergingLipschitzError, InvalidInputError, InvalidParameterError
from sapgm.problems import _point, eval_smooth, get_problem, registry, sample_start
from sapgm.smoothing import Abs, Affine, Exp, Scale, Square, Sum, _tree_source
from sapgm.subproblem import DEFAULT_TOL, _core_from_evals, _core_lines, _solve_core
from sapgm.solver import (
    SolverConfig,
    backtrack_step,
    momentum_update,
    mu_schedule,
    solve,
    solve_baseline,
)


def duplicated_quadratic(hessian_scale=0.5):
    # m = 2 copies of the same strongly convex quadratic
    f = Scale(
        hessian_scale,
        Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 0.5))]),
    )
    g = Scale(
        hessian_scale,
        Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 0.5))]),
    )
    return build_problem("dupquad", [f, g], [-2.0, -2.0], [2.0, 2.0])


def distinct_quadratics():
    f1 = Scale(0.5, Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0]))]))
    f2 = Scale(0.5, Sum([Square(Affine([1.0, 0.0], 1.0)), Square(Affine([0.0, 1.0], -1.0))]))
    return build_problem("twoquad", [f1, f2], [-3.0, -3.0], [3.0, 3.0])


# ------------------------------------------------------------------ schedules


def test_mu_schedule_values():
    assert mu_schedule(0, 1.0, 1.0) == 1.0
    assert mu_schedule(3, 1.0, 1.0) == 0.25
    assert mu_schedule(999, 1.0, 1.9) == pytest.approx(1000.0**-1.9)
    # an integer type other than int is an index as well
    assert mu_schedule(np.int64(3), 1.0, 1.0) == 0.25


@pytest.mark.parametrize(
    "args, message",
    [
        # returned nan
        pytest.param((math.nan, 1.0, 1.9), "k must be an integer >= 0, got nan", id="k=nan"),
        # accepted
        pytest.param((True, 1.0, 1.9), "k must be an integer >= 0, got True", id="k=True"),
        pytest.param((1.5, 1.0, 1.9), "k must be an integer >= 0, got 1.5", id="k=1.5"),
        # a bare TypeError
        pytest.param(("a", 1, 1), "k must be an integer >= 0, got 'a'", id="k=str"),
        pytest.param((-1, 1.0, 1.9), "k must be an integer >= 0, got -1", id="k=-1"),
        # returned -1.0
        pytest.param((0, -1.0, 1.9), r"mu0 must lie in \(0, 1\], got -1.0", id="mu0=-1"),
        pytest.param((0, math.nan, 1.9), r"mu0 must lie in \(0, 1\], got nan", id="mu0=nan"),
        pytest.param((0, "1", 1.9), r"mu0 must lie in \(0, 1\], got '1'", id="mu0=str"),
        # returned 3.0: a mu that grows
        pytest.param((2, 1.0, -1.0), r"sigma must lie in \(0, 2\), got -1.0", id="sigma=-1"),
        pytest.param((2, 1.0, 2.0), r"sigma must lie in \(0, 2\), got 2.0", id="sigma=2"),
        pytest.param((2, 1.0, None), r"sigma must lie in \(0, 2\), got None", id="sigma=None"),
    ],
)
def test_mu_schedule_rejects_what_solver_config_rejects(args, message):
    with pytest.raises(InvalidParameterError, match=message):
        mu_schedule(*args)


@pytest.mark.parametrize("k", [10**400, 10**5000, 10**200], ids=["k=1e400", "k=1e5000", "k=1e200"])
def test_mu_schedule_names_a_k_too_large_for_a_float(k):
    # a bare OverflowError: (k + 1) ** sigma is no float, or overflows one
    with pytest.raises(InvalidParameterError, match=r"k must be small enough that \(k \+ 1\) \*\* sigma is a float"):
        mu_schedule(k, 1.0, 1.9)


def test_momentum_first_step():
    t1, th1 = momentum_update(1.0, 1.0, 1.0, 1.0, 1.0)
    assert t1 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)
    assert th1 == 0.0


@pytest.mark.parametrize(
    "args",
    [
        # a bare ZeroDivisionError
        pytest.param((1.0, 1.0, 1.0, 0.0, 1.0), id="L_k=0"),
        pytest.param((1.0, 1.0, 0.0, 1.0, 1.0), id="mu_next=0"),
        # ValueError: math domain error
        pytest.param((1.0, 1.0, 1.0, -1.0, 1.0), id="L_k=-1"),
        # (nan, nan) without a word
        pytest.param((1.0, 1.0, 1.0, math.nan, 1.0), id="L_k=nan"),
        # a finite step from a negative mu or L: (0.990, -0.909) for L_k = -1 at t_k = 0.1
        pytest.param((0.1, 1.0, 1.0, -1.0, 1.0), id="t_k=0.1,L_k=-1"),
        pytest.param((0.1, 1.0, 1.0, 1.0, -1.0), id="L_next=-1"),
        pytest.param((0.1, -1.0, 1.0, 1.0, 1.0), id="mu_k=-1"),
        pytest.param((0.1, 1.0, -1.0, 1.0, 1.0), id="mu_next=-1"),
        pytest.param((1.0, -1.0, -1.0, 1.0, 1.0), id="both-mu=-1"),
        pytest.param((1.0, 1.0, 1.0, -1.0, -1.0), id="both-L=-1"),
    ],
)
def test_momentum_rejects_arguments_that_give_no_finite_step(args):
    with pytest.raises(InvalidParameterError, match="no finite momentum step"):
        momentum_update(*args)


def test_momentum_identity_single_step():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = float(rng.uniform(1.0, 50.0))
        mu, mun = sorted(rng.uniform(1e-4, 1.0, 2), reverse=True)
        L, Ln = rng.uniform(1.0, 32.0, 2)
        tn, _ = momentum_update(t, mu, mun, L, Ln)
        lhs = mun * tn * (tn - 1.0) / Ln
        rhs = mu * t * t / L
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 1.9])
def test_momentum_chain_properties(sigma):
    # 1e4 chained updates: t-recurrence identity, theta^2 < 1, and the
    # scaled growth bound.  Admissible ratios mean L never shrinks faster
    # than mu (here: L non-decreasing, ratio in [1, eta]); theta < 1 is
    # simply false otherwise.  L is capped to keep t^2 mu / L within double
    # precision over the long chain.
    rng = np.random.default_rng(42)
    mu0, L0, eta = 1.0, 1.0, 2.0
    t, mu, L = 1.0, mu0, L0
    for k in range(10_000):
        mu_next = mu_schedule(k, mu0, sigma)
        L_next = min(L * float(rng.uniform(1.0, eta)), 1e9)
        t_next, theta = momentum_update(t, mu, mu_next, L, L_next)
        lhs = mu_next * t_next * (t_next - 1.0) / L_next
        rhs = mu * t * t / L
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        assert theta * theta < 1.0
        bound = (4.0 * math.sqrt(mu0 / L0) / (2.0 - sigma)) * (k + 2) ** (1.0 - sigma / 2.0)
        assert t_next * math.sqrt(mu_next / L_next) <= bound * (1.0 + 1e-12)
        t, mu, L = t_next, mu_next, L_next


# --------------------------------------------------------------- backtracking


def test_backtrack_accepts_first_trial_when_ell_covers_hessian():
    p = duplicated_quadratic(hessian_scale=0.5)  # Hessian norm 1
    x0 = np.array([1.5, -0.5])
    _, L_acc, trials, _ = backtrack_step(p, x0, x0, 1.0, SolverConfig())
    assert trials == 1 and L_acc == 1.0


def test_backtrack_inflation_count_on_stiff_quadratic():
    # Hessian norm 8 with ell starting at 1 and eta = 2: 1 -> 2 -> 4 -> 8,
    # accepted on the fourth trial
    p = duplicated_quadratic(hessian_scale=4.0)
    x0 = np.array([1.5, -0.5])
    _, L_acc, trials, _ = backtrack_step(p, x0, x0, 1.0, SolverConfig())
    assert trials == 4 and L_acc == 8.0


def descent_test_numpy(p, x, y, mu, L):
    """The trial at L, and the descent test on it in NumPy: (z, lhs, rhs + slack)."""
    xs, ys = _point(p, x), _point(p, y)
    evals_y = eval_smooth(p, ys, mu)
    core = _core_from_evals(p, xs, ys, evals_y, eval_smooth(p, xs, mu, jac=False), L / mu)
    z = _solve_core(core, [1.0 / p.m] * p.m, DEFAULT_TOL)[0]
    vals_y, grads_y = np.asarray(evals_y[0]), np.asarray(evals_y[1])
    vals_z = np.asarray(eval_smooth(p, z, mu)[0])
    lhs = float(np.max(vals_z - vals_y - grads_y @ (z - y)))
    rhs = 0.5 * (L / mu) * float(np.sum((z - y) ** 2))
    return z, lhs, rhs + 1e-9 * max(1.0, rhs) + 1e-12


def run_steps(p, seed, cfg):
    """(x_k, y_k, mu_{k+1}, x_{k+1}, L_{k+1}) for every step k of a recorded run."""
    x0 = sample_start(p, seed)
    tr = solve(p, x0, SolverConfig(record_trace=True)).trace
    x_prev, x, y = x0, x0, x0
    for k, rec in enumerate(tr):
        yield x, y, mu_schedule(k, cfg.mu0, cfg.sigma), rec.x, rec.L
        x_prev, x = x, rec.x
        y = x + rec.theta * (x - x_prev)


def test_backtrack_postcondition_replay():
    # every step of three runs per problem is replayed from the run's own
    # (x_k, y_k): the accepted trial passes the NumPy form of the descent
    # test and, after an inflation, the trial at L / eta fails it
    cfg = SolverConfig()
    rejected = {}
    for p in registry():
        rejected[p.name] = 0
        for seed in range(3):
            for x, y, mu, x_next, L_next in run_steps(p, seed, cfg):
                z, L_acc, trials, vals_z = backtrack_step(p, x, y, mu, cfg)
                # the replay is the run's step, and f(z, mu) comes back bit for bit
                np.testing.assert_array_equal(z, x_next)
                assert L_acc == L_next == cfg.L0 * cfg.eta ** (trials - 1)
                np.testing.assert_array_equal(vals_z, eval_smooth(p, z, mu)[0])
                z_acc, lhs, bound = descent_test_numpy(p, x, y, mu, L_acc)
                np.testing.assert_array_equal(z_acc, z)
                assert lhs <= bound
                if trials > 1:
                    rejected[p.name] += 1
                    _, lhs, bound = descent_test_numpy(p, x, y, mu, L_acc / cfg.eta)
                    assert lhs > bound
    # BK1's Hessian 2 I needs an inflation at mu_1 = 1; JOS1's I never does
    assert rejected["JOS1"] == 0 and all(rejected[name] > 0 for name in rejected if name != "JOS1"), rejected


def backtrack_two_evaluations(p, x, y, mu, cfg):
    """backtrack_step with f evaluated at x and at y in separate calls, whatever x and y are."""
    x, y = _point(p, x), _point(p, y)
    evals_y = eval_smooth(p, y, mu)
    L = cfg.L0
    core = _core_from_evals(p, x, y, evals_y, eval_smooth(p, x, mu, jac=False), L / mu)
    for trial in range(1, 62):
        z, _, _, _, _, dots, quad, _ = _solve_core(core, [1.0 / p.m] * p.m, DEFAULT_TOL)
        vals_z, _ = eval_smooth(p, z, mu, jac=False)
        bound = quad + (1e-9 * max(1.0, quad) + 1e-12)
        if all(fz - fy - dot <= bound for fz, fy, dot in zip(vals_z, evals_y[0], dots)):
            return z, L, trial, vals_z
        L *= cfg.eta
        core.ell = L / mu
    raise AssertionError("no trial accepted")


def bits(step):
    z, L, trials, vals_z = step
    return [v.hex() for v in z], L.hex(), trials, [v.hex() for v in vals_z]


def signed_zero_problem():
    # a leaf whose offset is -0.0: f_1 is -0.0 at (-0.0, 0.5) and 0.0 at
    # (0.0, 0.5)
    f1 = Affine([1.0, 0.0], -0.0)
    f2 = Sum([Square(Affine([0.0, 1.0], -0.5)), Scale(-1.0, Affine([1.0, 1.0]))])
    return build_problem("signed_zero", [f1, f2], [-1.0, -1.0], [1.0, 1.0])


@pytest.fixture
def spied(monkeypatch):
    """The eval_smooth calls (their jac) and the _solve_core calls that the
    solver makes through its module globals."""
    import sapgm.solver

    calls, solves = [], []
    evaluate, solve_core = sapgm.solver.eval_smooth, sapgm.solver._solve_core

    def counted(p, x, mu, jac=True):
        calls.append(jac)
        return evaluate(p, x, mu, jac)

    def counted_solve(*args):
        solves.append(args[0])
        return solve_core(*args)

    monkeypatch.setattr(sapgm.solver, "eval_smooth", counted)
    monkeypatch.setattr(sapgm.solver, "_solve_core", counted_solve)
    return calls, solves


@pytest.mark.parametrize("p", registry() + [signed_zero_problem()], ids=lambda p: p.name)
def test_a_step_whose_x_equals_y_evaluates_f_there_once(p, spied):
    # bit for bit the step that evaluates f at x and at y in separate calls;
    # the step evaluates f inline (see the next test), so the spies see no
    # eval_smooth call and one subproblem solve per trial
    calls, solves = spied
    cfg = SolverConfig()
    if p.name == "signed_zero":
        assert eval_smooth(p, [-0.0, 0.5], 1.0)[0][0].hex() != eval_smooth(p, [0.0, 0.5], 1.0)[0][0].hex()
    for x in (sample_start(p, 0).tolist(), [-0.0, 0.5], [0.0, -0.0]):
        flipped = [0.0 if v == 0.0 else v for v in x]  # -0.0 becomes 0.0
        # a y that differs from x in one coordinate still evaluates f at x
        for y in (x, list(x), flipped, np.array(x), [np.float64(v) for v in x], [x[0] + 1e-3, x[1]]):
            for mu in (1.0, 0.05):
                expected = bits(backtrack_two_evaluations(p, x, y, mu, cfg))
                calls.clear()
                solves.clear()
                got = bits(backtrack_step(p, x, y, mu, cfg))
                assert got == expected, (x, y, mu)
                assert calls == [] and len(solves) == got[2]


def _block(node, lines):
    """Whether the statements of node are those of the source lines."""
    return [ast.dump(s) for s in node] == [ast.dump(s) for s in ast.parse("\n".join(lines)).body]


@pytest.mark.parametrize("p", registry() + [signed_zero_problem()], ids=lambda p: p.name)
def test_the_step_evaluates_f_at_y_once_and_at_x_only_when_x_differs(p):
    # the value-and-Jacobian lines appear once, at y; the forward lines once
    # under `if x != y:` and once in the trial loop, at z
    src = _tree_source([s.expr for s in p.smooth_parts])
    (step,) = ast.parse("\n".join(solver._step_lines(p.m, p.n, src, _core_lines(p.m, p.n)))).body
    fused = [node for node in ast.walk(step) if isinstance(node, ast.Try) and _block(node.body, src.fused)]
    forward = [node for node in ast.walk(step) if isinstance(node, ast.Try) and _block(node.body, src.forward)]
    assert len(fused) == 1 and fused[0] in step.body
    (differs,) = [node for node in step.body if isinstance(node, ast.If) and ast.unparse(node.test) == "x != y"]
    (loop,) = [node for node in step.body if isinstance(node, ast.For)]
    assert len(forward) == 2 and forward[0] in differs.body and forward[1] in loop.body
    assert not [node for node in ast.walk(differs.orelse[0]) if isinstance(node, ast.Try)]


def test_the_spliced_lines_assign_disjoint_names(monkeypatch):
    # the step's check holds for every problem, and would catch a tree line
    # that assigns a name of the core build
    for p in registry() + [signed_zero_problem()]:
        src, core = _tree_source([s.expr for s in p.smooth_parts]), _core_lines(p.m, p.n)
        tree = solver._assigned(src.forward + src.fused)
        assert tree.isdisjoint(solver._assigned(core))

    def clashing(exprs):
        src = _tree_source(exprs)
        return dataclasses.replace(src, forward=src.forward + ["gx = 0.0"])

    monkeypatch.setattr(solver, "_tree_source", clashing)
    clash = dataclasses.replace(get_problem("JOS1"))  # a spec with no step compiled yet
    with pytest.raises(AssertionError, match="spliced lines share names"):
        solver._compiled_step(clash)


def test_a_step_is_compiled_on_first_use_and_not_at_import_or_registry_build():
    code = (
        "import sapgm\n"
        "from sapgm.problems import registry\n"
        "specs = registry()\n"
        "print(sum('_step' in p.__dict__ for p in specs))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sapgm.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0"
    p = distinct_quadratics()
    assert "_step" not in p.__dict__
    backtrack_step(p, [0.5, 0.5], [0.5, 0.5], 1.0, SolverConfig())
    step = p.__dict__["_step"]
    solve(p, [0.5, 0.5])
    assert p.__dict__["_step"] is step  # kept on the spec


def test_backtrack_diverging_lipschitz_guard():
    # curvature ~ 2500 e^{100} at the start point: no admissible L within
    # 60 doublings of L0
    steep = Exp(Affine([50.0, 0.0]))
    p = build_problem("steep", [steep, steep], [-2.0, -2.0], [2.0, 2.0], cert_pad=0.0)
    x0 = np.array([1.0, 0.0])
    with pytest.raises(DivergingLipschitzError):
        backtrack_step(p, x0, x0, 1.0, SolverConfig())


def three_objectives():
    trees = [
        Scale(0.5, Sum([Square(Affine([1.0, 0.0])), Square(Affine([0.0, 1.0]))])),
        Scale(0.5, Sum([Square(Affine([1.0, 0.0], -2.0)), Square(Affine([0.0, 1.0], -2.0))])),
        Abs(Affine([1.0, -1.0], 0.5)),
    ]
    return build_problem("three", trees, [-2.0, -2.0], [2.0, 2.0])


# problems for the parity property, each with points where its step is of
# interest besides the drawn starts; every problem also gets the shared points
_PARITY = {
    **{p.name: (p, []) for p in registry()},
    "signed_zero": (signed_zero_problem(), []),
    "three": (three_objectives(), []),
    # exp(50 x1) overflows at (15, 0); at (14.19, 0) it is finite and its derivative is not
    "steep_exp": (
        build_problem("steep_exp", [Exp(Affine([50.0, 0.0])), Square(Affine([0.0, 1.0]))], [-1.0, -1.0], [1.0, 1.0]),
        [[15.0, 0.0], [14.19, 0.0]],
    ),
    # from (0, 0) at mu = 1 the first trial lands at x1 = 949.5, where exp(50 x1) overflows
    "overflow_at_trial": (
        build_problem(
            "overflow_at_trial",
            [Sum([Exp(Affine([50.0, 0.0])), Affine([-1e3, 0.0])]), Affine([-1e3, 0.0])],
            [-1.0, -1.0],
            [1.0, 1.0],
            cert_pad=0.0,
        ),
        [[0.0, 0.0]],
    ),
    # g_1 - g_2 overflows, so the dual weight and every trial z are nan
    "nonfinite_trial": (
        build_problem(
            "nonfinite_trial", [Scale(1e308, Affine([1.0, 0.0])), Scale(-1e308, Affine([1.0, 0.0]))], [-1.0, -1.0], [1.0, 1.0]
        ),
        [[0.5, 0.0]],
    ),
    # no admissible L within 60 doublings of L0 at (1, 0) and mu = 1
    "steep": (build_problem("steep", [Exp(Affine([50.0, 0.0]))] * 2, [-2.0, -2.0], [2.0, 2.0], cert_pad=0.0), [[1.0, 0.0]]),
}
# -0.0 in each place, and a point where Square gives inf without overflowing
_SHARED_POINTS = [[-0.0, 0.5], [0.0, -0.0], [1e200, 0.0]]
_BAD_POINTS = [[math.nan, 1.0], [math.inf, 0.0], [0.0, -math.inf], [[1.0, 2.0], [3.0]], "ab", [1.0, "a"], [1.0, 2.0, 3.0]]
_FORMS = [list, np.array, lambda v: [np.float64(a) for a in v]]


@st.composite
def step_arguments(draw):
    """(problem name, x, y, mu): x and y as lists, arrays or lists of NumPy
    scalars, y at times x itself, x with -0.0 made 0.0, or a point that is no
    finite point of R^2; mu admissible or not."""
    name = draw(st.sampled_from(sorted(_PARITY)))
    p, points = _PARITY[name]
    point = st.one_of(
        st.integers(0, 30).map(lambda seed: sample_start(p, seed).tolist()), st.sampled_from(points + _SHARED_POINTS)
    )
    x = draw(point)
    y = draw(st.one_of(st.just(x), st.just([0.0 if v == 0.0 else v for v in x]), point))
    same = y is x
    x = draw(st.sampled_from(_FORMS))(x)
    y = x if same and draw(st.booleans()) else draw(st.sampled_from(_FORMS))(y)
    bad = draw(st.sampled_from([None] * 6 + ["x", "y", "both"]))
    if bad in ("x", "both"):
        x = draw(st.sampled_from(_BAD_POINTS))
    if bad in ("y", "both"):
        y = draw(st.sampled_from(_BAD_POINTS))
    mu = draw(st.sampled_from([1.0, 0.05, 1e-6] * 3 + [0.0, -1.0, math.nan, math.inf]))
    return name, x, y, mu


def outcome(step, p, x, y, mu):
    """The step's bits, or the type and message of its error."""
    try:
        return bits(step(p, x, y, mu, SolverConfig()))
    except Exception as e:  # every error is compared, whatever its type
        return type(e), str(e)


@settings(max_examples=500, deadline=None)
@given(args=step_arguments())
@example(args=("signed_zero", [-0.0, 0.5], [0.0, 0.5], 1.0))
@example(args=("three", [0.3, -0.2], [0.3, -0.2], 0.05))
@example(args=("three", [0.3, -0.2], [0.4, -0.2], 1e-6))
@example(args=("steep_exp", [0.0, 0.0], [15.0, 0.0], 1.0))
@example(args=("steep_exp", [14.19, 0.0], [14.19, 0.0], 1.0))
@example(args=("steep_exp", [15.0, 0.0], [0.0, 0.0], 0.05))
@example(args=("steep_exp", "ab", [15.0, 0.0], 1.0))
@example(args=("overflow_at_trial", [0.0, 0.0], [0.0, 0.0], 1.0))
@example(args=("nonfinite_trial", [0.5, 0.0], [0.5, 0.0], 1.0))
@example(args=("steep", [1.0, 0.0], [1.0, 0.0], 1.0))
@example(args=("JOS1", [1.0, 0.0], [[1.0, 2.0], [3.0]], 0.05))
@example(args=("JOS1", [1.0, math.nan], [1.0, 0.0], math.nan))
def test_the_compiled_step_gives_the_loop_bits_and_errors(args):
    name, x, y, mu = args
    p = _PARITY[name][0]
    assert outcome(backtrack_step, p, x, y, mu) == outcome(backtrack_step_loop_reference, p, x, y, mu)


# --------------------------------------------------------------------- solve


def test_config_validation():
    for bad in (
        dict(sigma=0.0),
        dict(sigma=2.0),
        dict(mu0=0.0),
        dict(mu0=1.5),
        dict(eta=1.0),
        dict(L0=0.5),
        dict(max_iter=0),
        # a count that is no integer fails here, not inside the loop
        dict(max_iter=2.5),
        dict(max_iter=math.nan),
        dict(max_iter="3"),
        # a bool is no count; max_iter=True was kept, and the manifest wrote true
        dict(max_iter=True),
        # NaN and inf fail the checks instead of slipping past them
        dict(mu0=math.nan),
        dict(sigma=math.nan),
        dict(eps=math.nan),
        # accepted, and every run then stopped at k = 1
        dict(eps=math.inf),
        dict(L0=math.nan),
        dict(L0=math.inf),
        dict(eta=math.nan),
        dict(eta=math.inf),
        # a parameter that is no number raised a bare TypeError
        dict(sigma="1"),
        dict(mu0=None),
        # the trace switch is a bool; these recorded a trace
        dict(record_trace="no"),
        dict(record_trace=1),
    ):
        with pytest.raises(InvalidParameterError):
            SolverConfig(**bad)
    with pytest.raises(InvalidParameterError, match="eps must be finite and nonnegative, got inf"):
        SolverConfig(eps=math.inf)
    # bench rate runs with the stopping rule off
    assert SolverConfig(eps=0.0).eps == 0.0


_NONFINITE_STARTS = ([math.nan, 1.0], [math.inf, 1.0], [0.0, -math.inf])
# a ragged list, a string and a list that holds a non-number, which NumPy
# itself cannot make into a point
_MALFORMED_STARTS = ([[1.0, 2.0], [3.0]], "ab", [1.0, "a"])


@pytest.mark.parametrize("x0", _NONFINITE_STARTS + _MALFORMED_STARTS)
def test_nonfinite_start_rejected_before_any_evaluation(x0, monkeypatch):
    import sapgm.solver

    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated a non-finite start")

    monkeypatch.setattr(sapgm.solver, "eval_smooth", no_eval)
    if any(x0 is bad for bad in _NONFINITE_STARTS):
        x0, match = np.array(x0), "finite"
    else:
        match = "JOS1: expected a point of dimension 2"
    for run in (solve, solve_baseline):
        with pytest.raises(InvalidInputError, match=match):
            run(get_problem("JOS1"), x0)


def test_overflowing_start_raises_the_typed_error():
    # Square(1e200) is inf: the first evaluation fails, not the backtracking
    for run in (solve, solve_baseline):
        with pytest.raises(InvalidInputError, match="BK1: component 1"):
            run(get_problem("BK1"), np.array([1e200, 0.0]))


def test_nonfinite_jacobian_raises_the_typed_error_at_its_point():
    # exp(50 x1) is finite at x1 = 14.19, but its derivative 50 exp(50 x1) is inf
    steep = [Exp(Affine([50.0, 0.0])), Square(Affine([0.0, 1.0]))]
    p = build_problem("steep_exp", steep, [-1.0, -1.0], [1.0, 1.0])
    x0 = np.array([14.19, 0.0])
    with np.errstate(over="ignore"):
        vals, jac = eval_smooth(p, x0, 1.0)
        assert np.isfinite(vals).all() and not np.isfinite(jac).all()
        for run in (solve, solve_baseline):
            with pytest.raises(InvalidInputError, match=r"steep_exp: Jacobian .* y = \[14\.19, 0\.0\]"):
                run(p, x0)


def test_a_trial_point_that_is_not_finite_names_the_subproblem_at_y():
    # g_1 - g_2 = 2e308 overflows, so the dual weight and the trial z are nan;
    # the error named z as if a caller had passed it ("expected a finite point")
    trees = [Scale(1e308, Affine([1.0, 0.0])), Scale(-1e308, Affine([1.0, 0.0]))]
    p = build_problem("nonfinite_trial", trees, [-1.0, -1.0], [1.0, 1.0])
    message = "nonfinite_trial: the subproblem at y = [0.5, 0.0] gives the trial point z = [nan, nan], which is not finite"
    for run in (solve, solve_baseline):
        with pytest.raises(InvalidInputError) as info:
            run(p, np.array([0.5, 0.0]))
        assert str(info.value) == message


@pytest.mark.parametrize("record_trace", [False, True])
def test_fevals_count_every_smooth_evaluation_but_the_bound(record_trace, monkeypatch, spied):
    # fevals counts the method's oracle values, 2 + trials per iteration: f
    # and its Jacobian at y, f at x and f at each trial.  One uncounted
    # eval_smooth call at x0 sets the boundedness bound; the steps evaluate
    # f inline, one subproblem solve per trial, and a step whose x equals y
    # reads f(x) from its evaluation at y
    import sapgm.solver

    calls, solves = spied
    step = sapgm.solver.backtrack_step
    steps = []  # (x == y, trials) per backtracking step

    def recorded(p, x, y, mu, cfg):
        out = step(p, x, y, mu, cfg)
        steps.append((list(x) == list(y), out[2]))
        return out

    monkeypatch.setattr(sapgm.solver, "backtrack_step", recorded)
    cfg = SolverConfig(record_trace=record_trace)
    for p in registry():
        for run in (solve, solve_baseline):
            for seed in range(3):
                calls.clear()
                solves.clear()
                steps = []
                res = run(p, sample_start(p, seed), cfg)
                at_y = sum(same for same, _ in steps)
                assert res.fevals == sum(2 + trials for _, trials in steps), (p.name, run.__name__, seed)
                assert calls == [False], (p.name, run.__name__, seed)
                assert len(solves) == sum(trials for _, trials in steps), (p.name, run.__name__, seed)
                # theta = 0 on every baseline step, and on SAPGM's steps k = 0 and 1
                assert at_y == res.iterations if run is solve_baseline else at_y >= min(2, res.iterations)


@pytest.mark.parametrize("record_trace", [False, True])
def test_boundedness_warning_fires_once_from_the_accepted_values(record_trace, monkeypatch, caplog):
    import sapgm.solver

    monkeypatch.setattr(sapgm.solver, "_BOUND_OFFSET", -1e300)  # every iterate breaches the bound
    p = get_problem("CB3&LQ")
    with caplog.at_level("WARNING", logger="sapgm.solver"):
        res = solve(p, sample_start(p, 0), SolverConfig(record_trace=record_trace))
    (rec,) = caplog.records
    assert rec.getMessage().endswith("exceeded boundedness diagnostic -1e+300 at k=0")
    if record_trace:
        assert rec.getMessage().startswith(f"CB3&LQ: smoothed objective {res.trace[0].smooth_max:.3g} ")


def test_fixed_point_start_converges_at_mu_gate():
    p = duplicated_quadratic()
    x_star = np.array([0.5, 0.0])  # common minimizer of both copies plus g
    res = solve(p, x_star, SolverConfig(record_trace=True))
    assert res.status == "Converged"
    assert np.linalg.norm(res.final_x - x_star) <= 1e-9
    # the stopping rule cannot fire before mu drops below eps
    k_gate = math.ceil(1000.0 ** (1.0 / 1.9))
    assert res.iterations == k_gate
    assert len(res.trace) == res.iterations


def test_jos1_median_iterations_in_band():
    p = get_problem("JOS1")
    iters = [solve(p, sample_start(p, s)).iterations for s in range(200)]
    assert 10 <= np.median(iters) <= 100


def test_run_invariants_along_traces():
    cfg = SolverConfig(record_trace=True)
    for name in ("CR&MF2", "CB3&LQ"):
        p = get_problem(name)
        res = solve(p, sample_start(p, 3), cfg)
        tr = res.trace
        assert res.iterations <= cfg.max_iter
        for a, b in zip(tr, tr[1:]):
            assert b.mu < a.mu
            # theta^2 <= L_k mu_{k+1} / (L_{k+1} mu_k) follows from the
            # t-recurrence alone; the bound itself drops below 1 only when
            # L did not shrink between iterations (the reset-to-L0 policy
            # allows it to shrink, so theta can legitimately exceed 1)
            assert b.theta**2 <= a.L * b.mu / (b.L * a.mu) * (1.0 + 1e-12)
            if b.L >= a.L:
                assert a.L * b.mu / (b.L * a.mu) < 1.0
            lhs = b.mu * b.t * (b.t - 1.0) / b.L
            rhs = a.mu * a.t * a.t / a.L
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        for rec in tr:
            assert cfg.L0 <= rec.L <= cfg.eta * p.lip_bound


def test_baseline_theta_zero_and_shared_first_iterate():
    p = get_problem("CR&MF2")
    x0 = sample_start(p, 17)
    cfg = SolverConfig(record_trace=True, max_iter=5, eps=0.0)
    acc = solve(p, x0, cfg)
    base = solve_baseline(p, x0, cfg)
    assert all(rec.theta == 0.0 for rec in base.trace)
    np.testing.assert_allclose(acc.trace[0].x, base.trace[0].x, atol=1e-14)


def test_baseline_not_faster_on_strongly_convex():
    p = distinct_quadratics()
    cfg = SolverConfig()
    wins = 0
    for seed in range(50):
        x0 = sample_start(p, seed)
        if solve_baseline(p, x0, cfg).iterations >= solve(p, x0, cfg).iterations:
            wins += 1
    assert wins >= 40


@pytest.mark.parametrize("run", [solve, solve_baseline])
def test_iterates_come_back_as_float_arrays(run):
    # the loop keeps x, y and z as float lists; the result and the trace
    # hold arrays of shape (n,)
    p = get_problem("CB3&LQ")
    res = run(p, sample_start(p, 0), SolverConfig(record_trace=True))
    for x in [res.final_x] + [rec.x for rec in res.trace]:
        assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (p.n,)
    np.testing.assert_array_equal(res.final_x, res.trace[-1].x)


@pytest.mark.parametrize("run", [solve, solve_baseline])
def test_a_run_leaves_its_start_unchanged(run):
    # run_benchmark draws each start once and hands it to both solvers as a
    # float list: a run must not write to it, and either form gives the same run
    for p in registry():
        arr = sample_start(p, 9)
        floats = arr.tolist()
        bits = [v.hex() for v in floats]
        from_arr, from_floats = run(p, arr), run(p, floats)
        assert [float(v).hex() for v in arr] == bits
        assert [v.hex() for v in floats] == bits
        assert from_arr.final_x.tobytes() == from_floats.final_x.tobytes()
        assert from_arr.final_F.tobytes() == from_floats.final_F.tobytes()


def _is_floats(v, size):
    return type(v) is list and len(v) == size and all(type(a) is float for a in v)


def test_evaluations_and_the_step_return_float_lists():
    # floats go from the kernels to the loop as they are; only the records a
    # run hands back hold arrays
    for p in registry():
        x = sample_start(p, 0).tolist()
        vals, J = eval_smooth(p, x, 0.5)
        assert _is_floats(vals, p.m) and type(J) is list and len(J) == p.m
        assert all(_is_floats(row, p.n) for row in J)
        vals, J = eval_smooth(p, x, 0.5, jac=False)
        assert _is_floats(vals, p.m) and J is None
        for s in p.smooth_parts:
            v, g = s.eval(x, 0.5)
            assert type(v) is float and _is_floats(g, p.n)
            v, g = s.eval(x, 0.5, jac=False)
            assert type(v) is float and g is None
        # an array, or a list of NumPy scalars, for x or y still gives float lists
        forms = (x, np.array(x), [np.float64(v) for v in x])
        for x_step in forms:
            for y_step in forms:
                z, _, _, vals_z = backtrack_step(p, x_step, y_step, 0.5, SolverConfig())
                assert _is_floats(z, p.n) and _is_floats(vals_z, p.m)


def test_trace_off_by_default():
    p = get_problem("BK1")
    res = solve(p, sample_start(p, 0))
    assert res.trace is None
    assert res.status in ("Converged", "MaxIter")
    assert res.fevals > 0 and res.wall_time >= 0.0


# One run per (problem, solver) from start seed 42: status, counts and the final
# x and F as float.hex.  A speed change must leave the grid's runs.csv identical
# apart from time_s, so these bits change only on purpose, with the reason given
# where the values are updated.
_RECORDED_BITS = [
    ("BK1", solve, "Converged", 38, 115, ("0x1.06291a17a508fp+2", "0x1.06291a17a508fp+2"), ("0x1.2d3d4b44b8ab1p+5", "0x1.6eb4504ce0a5fp+2")),
    ("BK1", solve_baseline, "Converged", 38, 115, ("0x1.06291a17a508fp+2", "0x1.06291a17a508fp+2"), ("0x1.2d3d4b44b8ab1p+5", "0x1.6eb4504ce0a5fp+2")),
    ("CB3&LQ", solve, "Converged", 44, 142, ("0x1.6a30e387df676p-1", "0x1.74912171fe870p-1"), ("0x1.00756457782b3p+2", "-0x1.600ece56a4db7p-1")),
    ("CB3&LQ", solve_baseline, "Converged", 38, 125, ("0x1.07956d4b9de6ep+0", "0x1.e7bdbc8620e42p-1"), ("0x1.83cf18a7f9b4fp+1", "-0x1.813b010062da0p-6")),
    ("CB3&MF1", solve, "Converged", 38, 128, ("0x1.cfeacf0a1820cp-1", "0x1.aa0440019d687p-2"), ("0x1.17775303f3554p+2", "-0x1.f5d15e1292d90p-3")),
    ("CB3&MF1", solve_baseline, "Converged", 38, 121, ("0x1.a082ee1f35487p-1", "0x1.dc618dc6e2287p-2"), ("0x1.19c5e90e3abe3p+2", "-0x1.64a44e7788688p-3")),
    ("CR&MF2", solve, "Converged", 66, 204, ("0x1.4aa96e10601fcp-1", "0x1.12e0a1e6c39a2p-3"), ("0x1.61be6fbb21a5ap-1", "-0x1.968e5f1eca34cp-2")),
    ("CR&MF2", solve_baseline, "Converged", 42, 151, ("0x1.e788d3dc54963p-1", "0x1.63ed56c3942e5p-1"), ("0x1.84ec0e55c785dp+0", "0x1.5579bafa2f6cep+0")),
    ("JOS1", solve, "Converged", 38, 114, ("0x1.106d9ae9b817ap+0", "0x1.106d9ae9b817ap+0"), ("0x1.192b5983d4075p+1", "0x1.f0a04760c7b02p+0")),
    ("JOS1", solve_baseline, "Converged", 38, 114, ("0x1.106d9ae9b817ap+0", "0x1.106d9ae9b817ap+0"), ("0x1.192b5983d4075p+1", "0x1.f0a04760c7b02p+0")),
    ("SP1", solve, "Converged", 38, 118, ("0x1.e5487ac4877f2p-1", "0x1.0aff2b7becc19p+0"), ("0x1.01d5540824a55p+0", "0x1.3567c84b74cb3p+2")),
    ("SP1", solve_baseline, "Converged", 38, 118, ("0x1.e19501f1f8a18p-1", "0x1.0d1d1d1a40d6fp+0"), ("0x1.02fd4be9f477bp+0", "0x1.33935fed23256p+2")),
]


@pytest.mark.parametrize(
    "name, run, status, iterations, fevals, x_hex, F_hex",
    _RECORDED_BITS,
    ids=[f"{r[0]}-{r[1].__name__}" for r in _RECORDED_BITS],
)
def test_runs_reproduce_the_recorded_bits(name, run, status, iterations, fevals, x_hex, F_hex):
    p = get_problem(name)
    res = run(p, sample_start(p, 42))
    assert (res.status, res.iterations, res.fevals) == (status, iterations, fevals)
    assert tuple(v.hex() for v in res.final_x.tolist()) == x_hex
    assert tuple(v.hex() for v in res.final_F.tolist()) == F_hex
