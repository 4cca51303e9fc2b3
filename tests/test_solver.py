import math

import numpy as np
import pytest

from conftest import build_problem
from sapgm.errors import DivergingLipschitzError, InvalidInputError, InvalidParameterError
from sapgm.problems import GKind, eval_smooth, get_problem, registry, sample_start
from sapgm.smoothing import Affine, Exp, Scale, Square, Sum
from sapgm.solver import (
    SolverConfig,
    backtrack_step,
    momentum_update,
    mu_schedule,
    solve,
    solve_baseline,
)


def duplicated_quadratic(g_kind=GKind.ZERO, hessian_scale=0.5):
    # m = 2 copies of the same strongly convex quadratic
    f = Scale(
        hessian_scale,
        Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 0.5))]),
    )
    g = Scale(
        hessian_scale,
        Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 0.5))]),
    )
    return build_problem("dupquad", [f, g], g_kind, [-2.0, -2.0], [2.0, 2.0])


def distinct_quadratics():
    f1 = Scale(0.5, Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0]))]))
    f2 = Scale(0.5, Sum([Square(Affine([1.0, 0.0], 1.0)), Square(Affine([0.0, 1.0], -1.0))]))
    return build_problem("twoquad", [f1, f2], GKind.ZERO, [-3.0, -3.0], [3.0, 3.0])


# ------------------------------------------------------------------ schedules


def test_mu_schedule_values():
    assert mu_schedule(0, 1.0, 1.0) == 1.0
    assert mu_schedule(3, 1.0, 1.0) == 0.25
    assert mu_schedule(999, 1.0, 1.9) == pytest.approx(1000.0**-1.9)


def test_momentum_first_step():
    t1, th1 = momentum_update(1.0, 1.0, 1.0, 1.0, 1.0)
    assert t1 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)
    assert th1 == 0.0


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


def test_backtrack_postcondition_replay():
    p = get_problem("CB3&MF1")
    cfg = SolverConfig()
    for seed in range(5):
        x0 = sample_start(p, seed)
        mu = mu_schedule(0, cfg.mu0, cfg.sigma)
        x_next, L_acc, _, vals_next = backtrack_step(p, x0, x0, mu, cfg)
        ell = L_acc / mu
        vals_y, grads_y = eval_smooth(p, x0, mu)
        vals_x, _ = eval_smooth(p, x_next, mu)
        # the returned values are f(x_next, mu), bit for bit
        np.testing.assert_array_equal(vals_next, vals_x)
        lhs = np.max(vals_x - vals_y - grads_y @ (x_next - x0))
        rhs = 0.5 * ell * float(np.sum((x_next - x0) ** 2))
        assert lhs <= rhs + 1e-9 * max(1.0, rhs) + 1e-12


def test_backtrack_diverging_lipschitz_guard():
    # curvature ~ 2500 e^{100} at the start point: no admissible L within
    # 60 doublings of L0
    steep = Exp(Affine([50.0, 0.0]))
    p = build_problem("steep", [steep, steep], GKind.ZERO, [-2.0, -2.0], [2.0, 2.0], cert_pad=0.0)
    x0 = np.array([1.0, 0.0])
    with pytest.raises(DivergingLipschitzError):
        backtrack_step(p, x0, x0, 1.0, SolverConfig())


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
        # NaN and inf fail the checks instead of slipping past them
        dict(mu0=math.nan),
        dict(sigma=math.nan),
        dict(eps=math.nan),
        dict(L0=math.nan),
        dict(L0=math.inf),
        dict(eta=math.nan),
        dict(eta=math.inf),
    ):
        with pytest.raises(InvalidParameterError):
            SolverConfig(**bad)


@pytest.mark.parametrize("x0", [[math.nan, 1.0], [math.inf, 1.0], [0.0, -math.inf]])
def test_nonfinite_start_rejected_before_any_evaluation(x0, monkeypatch):
    import sapgm.solver

    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated a non-finite start")

    monkeypatch.setattr(sapgm.solver, "eval_smooth", no_eval)
    for run in (solve, solve_baseline):
        with pytest.raises(InvalidInputError, match="finite"):
            run(get_problem("JOS1"), np.array(x0))


def test_overflowing_start_raises_the_typed_error():
    # Square(1e200) is inf: the first evaluation fails, not the backtracking
    for run in (solve, solve_baseline):
        with pytest.raises(InvalidInputError, match="BK1: component 1"):
            run(get_problem("BK1"), np.array([1e200, 0.0]))


def test_nonfinite_jacobian_raises_the_typed_error_at_its_point():
    # exp(50 x1) is finite at x1 = 14.19, but its derivative 50 exp(50 x1) is inf
    steep = [Exp(Affine([50.0, 0.0])), Square(Affine([0.0, 1.0]))]
    p = build_problem("steep_exp", steep, GKind.ZERO, [-1.0, -1.0], [1.0, 1.0])
    x0 = np.array([14.19, 0.0])
    with np.errstate(over="ignore"):
        vals, jac = eval_smooth(p, x0, 1.0)
        assert np.isfinite(vals).all() and not np.isfinite(jac).all()
        for run in (solve, solve_baseline):
            with pytest.raises(InvalidInputError, match=r"steep_exp: Jacobian .* y = \[14\.19, 0\.0\]"):
                run(p, x0)


@pytest.mark.parametrize("record_trace", [False, True])
def test_fevals_count_every_smooth_evaluation_but_the_bound(record_trace, monkeypatch):
    # one uncounted evaluation at x0 sets the boundedness bound; every other
    # eval_smooth call of a run is one feval
    import sapgm.solver

    calls = 0
    inner = sapgm.solver.eval_smooth

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(sapgm.solver, "eval_smooth", counted)
    cfg = SolverConfig(record_trace=record_trace)
    for p in registry():
        for run in (solve, solve_baseline):
            for seed in range(3):
                calls = 0
                res = run(p, sample_start(p, seed), cfg)
                assert calls == res.fevals + 1, (p.name, run.__name__, seed)


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
    p = duplicated_quadratic(GKind.ZERO)
    x_star = np.array([1.0, -0.5])  # minimizer of both copies
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


def test_trace_off_by_default():
    p = get_problem("BK1")
    res = solve(p, sample_start(p, 0))
    assert res.trace is None
    assert res.status in ("Converged", "MaxIter")
    assert res.fevals > 0 and res.wall_time >= 0.0
