import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    build_problem,
    complementarity_reference,
    core_arrays,
    grid_argmin_2d,
    inner_loop_reference,
    inner_reference,
    kkt_residual_reference,
    project_simplex,
    prox_g,
    solve_pair_full_scan,
    solve_pair_loop_reference,
    solve_pair_reference,
    spliced_core_build,
    subproblem_objective,
)
from sapgm import subproblem
from sapgm.errors import InvalidInputError, InvalidParameterError
from sapgm.problems import eval_smooth, get_problem
from sapgm.smoothing import Abs, Affine, Exp, Scale, Square, Sum
from sapgm.subproblem import (
    DEFAULT_TOL,
    SubproblemInput,
    _ascend,
    _build_core,
    _complementarity,
    _Core,
    _core_from_evals,
    _kkt_residual,
    _proj_simplex,
    _solve_core,
    solve_subproblem,
)


def quad_pair():
    # two distinct convex quadratics on R^2
    f1 = Sum([Square(Affine([1.0, 0.0])), Square(Affine([0.0, 1.0], -1.0))])
    f2 = Sum([Square(Affine([1.0, 0.0], 1.0)), Square(Affine([0.0, 1.0]))])
    return build_problem("quadpair", [f1, f2], [-3.0, -3.0], [3.0, 3.0])


def triple():
    # three quadratics centred on a triangle: m = 3 takes the ascent path
    centres = [(1.0, 0.0), (-0.5, 1.0), (-0.5, -1.0)]
    exprs = [
        Sum([Square(Affine([1.0, 0.0], -a)), Square(Affine([0.0, 1.0], -b))]) for a, b in centres
    ]
    return build_problem("triple", exprs, [-3.0, -3.0], [3.0, 3.0])


def twin_pair():
    # identical objectives: the dual is flat and any lambda gives the
    # single-objective answer
    f = Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 2.0))])
    g = Sum([Square(Affine([1.0, 0.0], -1.0)), Square(Affine([0.0, 1.0], 2.0))])
    return build_problem("twins", [f, g], [-3.0, -3.0], [3.0, 3.0])


# ------------------------------------------------------------------ prox / proj


def test_prox_soft_threshold():
    out = prox_g(np.array([1.2]), 0.5, n=1)
    assert out[0] == pytest.approx(0.7)
    out = prox_g(np.array([0.3, -0.3]), 1.0, n=2)
    np.testing.assert_allclose(out, [0.0, 0.0])


def test_prox_is_argmin():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=2)
        tau = float(rng.uniform(0.1, 2.0))
        z = prox_g(v, tau, n=2)
        obj = lambda w: tau * np.abs(w).sum() / 2 + 0.5 * np.sum((w - v) ** 2)
        base = obj(z)
        for _ in range(20):
            w = z + rng.normal(scale=0.01, size=2)
            assert obj(w) >= base - 1e-12


def test_project_simplex_examples():
    # the NumPy reference and the float projection of the ascent
    for project in (project_simplex, lambda w: np.array(_proj_simplex(w.tolist()))):
        np.testing.assert_allclose(project(np.array([0.6, 0.6])), [0.5, 0.5])
        np.testing.assert_allclose(project(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(project(np.array([-1.0, -1.0])), [0.5, 0.5])
        w = np.array([1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(project(w), w)


def test_project_simplex_minimal_distance():
    # brute force over a fine grid on the 2-simplex
    rng = np.random.default_rng(3)
    lam1 = np.linspace(0.0, 1.0, 2001)
    grid = np.column_stack([lam1, 1.0 - lam1])
    for _ in range(25):
        w = rng.normal(scale=2.0, size=2)
        p = project_simplex(w.copy())
        assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-12)
        d_grid = np.min(np.sum((grid - w) ** 2, axis=1))
        assert np.sum((p - w) ** 2) <= d_grid + 1e-12


# ------------------------------------------------------------------ core inner step


def test_core_inner_degenerate_weight_is_gradient_step():
    # lambda concentrated on one objective reduces to a proximal gradient
    # step on that objective
    p = quad_pair()
    y = np.array([0.7, -0.4])
    mu, ell = 0.5, 2.0
    inp = SubproblemInput(x=y.copy(), y=y, mu=mu, ell=ell, problem=p)
    grads = np.asarray(eval_smooth(p, y, mu)[1])
    z, _, _, _ = _build_core(inp).inner([1.0, 0.0])[:4]
    np.testing.assert_allclose(z, prox_g(y - grads[0] / ell, 1.0 / ell, p.n), atol=1e-12)


def test_core_inner_zero_gradients_is_the_prox_of_y():
    flat = build_problem("flat", [Affine([0.0, 0.0], 1.0), Affine([0.0, 0.0], 2.0)], [-1.0, -1.0], [1.0, 1.0])
    y = np.array([0.3, -0.8])
    inp = SubproblemInput(x=y.copy(), y=y, mu=1.0, ell=1.0, problem=flat)
    z, _, _, _ = _build_core(inp).inner([0.5, 0.5])[:4]
    np.testing.assert_array_equal(z, prox_g(y, 1.0, flat.n))


def test_core_inner_matches_grid_oracle_on_jos1():
    p = get_problem("JOS1")
    y = np.array([1.0, 1.0])
    mu, ell = 1.0, 2.0
    lam = np.array([0.5, 0.5])
    inp = SubproblemInput(x=y.copy(), y=y, mu=mu, ell=ell, problem=p)
    z, _, _, _ = _build_core(inp).inner(lam)[:4]

    grads = np.asarray(eval_smooth(p, y, mu)[1])
    glam = grads.T @ lam

    def lagrangian(Z):
        Z = np.atleast_2d(Z)
        dz = Z - y
        return dz @ glam + np.abs(Z).sum(axis=1) / p.n + 0.5 * ell * (dz**2).sum(axis=1)

    z_star = grid_argmin_2d(lagrangian, y, 2.0, npts=400)
    assert np.max(np.abs(z - z_star)) <= 1e-3


# ------------------------------------------------------------------ full solver


def test_nonfinite_jacobian_or_offsets_rejected_when_the_core_is_built():
    steep = [Exp(Affine([50.0, 0.0])), Square(Affine([0.0, 1.0]))]
    p = build_problem("steep_exp", steep, [-1.0, -1.0], [1.0, 1.0])
    y = np.array([14.19, 0.0])
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match=r"14\.19"):
        solve_subproblem(SubproblemInput(x=y.copy(), y=y, mu=1.0, ell=1.0, problem=p))
    # finite values whose difference overflows give an infinite offset
    x, G = [0.5, 0.0], [[1.0, 1.0], [1.0, 1.0]]
    evals_y, evals_x = ([1e308, 0.0], G), ([-1e308, 0.0], G)
    with pytest.raises(InvalidInputError, match=r"steep_exp: .* y = \[14\.19, 0\.0\]"):
        _core_from_evals(p, x, [14.19, 0.0], evals_y, evals_x, 1.0)
    def core_at_y(vals_y, G):
        return _core_from_evals(p, [0.5, 0.0], [14.19, 0.0], (vals_y, G), ([0.0, 0.0], None), 1.0)

    # finite entries are accepted even where their sum overflows
    big = [[1e308, 1e308], [1e308, 1e308]]
    core = core_at_y([1e308, 1e308], big)
    assert core.G == big and core.c == [1e308, 1e308]
    # one inf or nan anywhere in G or c is rejected
    for bad in (math.inf, -math.inf, math.nan):
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            G = [[1.0, 2.0], [3.0, 4.0]]
            G[i][j] = bad
            with pytest.raises(InvalidInputError, match=r"steep_exp: Jacobian .* y = \[14\.19, 0\.0\]"):
                core_at_y([1.0, 2.0], G)
        for i in range(2):
            vals_y = [1.0, 2.0]
            vals_y[i] = bad
            with pytest.raises(InvalidInputError, match=r"steep_exp: Jacobian .* y = \[14\.19, 0\.0\]"):
                core_at_y(vals_y, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("field", ["mu", "ell"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0, "a"])  # "a" raised a bare TypeError
def test_input_rejects_a_mu_or_ell_outside_the_positive_reals(field, value):
    y = np.array([0.5, 0.5])
    args = dict(x=y, y=y, mu=0.5, ell=2.0, problem=get_problem("JOS1"))
    args[field] = value
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite and positive"):
        SubproblemInput(**args)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, "a"])  # "a" raised a bare TypeError
def test_solve_subproblem_rejects_a_tol_that_is_not_positive(tol):
    y = np.array([0.5, 0.5])
    inp = SubproblemInput(x=y, y=y, mu=0.5, ell=2.0, problem=get_problem("JOS1"))
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        solve_subproblem(inp, tol=tol)


def test_identical_objectives_symmetric_lambda():
    p = twin_pair()
    y = np.array([0.5, -1.0])
    inp = SubproblemInput(x=y.copy(), y=y, mu=0.3, ell=3.0, problem=p)
    sol = solve_subproblem(inp)
    assert sol.converged and sol.gap <= 1e-12
    np.testing.assert_allclose(sol.lam, [0.5, 0.5], atol=1e-6)
    z_single, _, _, _ = _build_core(inp).inner([1.0, 0.0])[:4]
    np.testing.assert_allclose(sol.z, z_single, atol=1e-8)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    exprs = []
    for _ in range(2):
        w1, w2 = rng.uniform(0.3, 2.0, 2)
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        terms = [
            Square(Affine([w1, 0.0], c1)),
            Square(Affine([0.0, w2], c2)),
        ]
        if rng.random() < 0.5:
            terms.append(Scale(rng.uniform(0.2, 1.5), Abs(Affine(rng.uniform(-1, 1, 2)))))
        exprs.append(Sum(terms))
    p = build_problem(f"rand{seed}", exprs, [-3.0, -3.0], [3.0, 3.0])
    y = rng.uniform(-2.0, 2.0, 2)
    x = rng.uniform(-2.0, 2.0, 2)
    mu = float(rng.uniform(0.05, 1.0))
    ell = float(rng.uniform(0.5, 5.0))
    return SubproblemInput(x=x, y=y, mu=mu, ell=ell, problem=p)


def test_solution_matches_grid_oracle():
    for seed in range(12):
        inp = random_instance(seed)
        sol = solve_subproblem(inp)
        assert sol.converged
        phi = subproblem_objective(inp)
        grads = np.asarray(eval_smooth(inp.problem, inp.y, inp.mu)[1])
        radius = (np.linalg.norm(grads, axis=1).max() + 1.0) / inp.ell + 0.1
        # the kink valley of the two-term max runs orthogonal to grad1-grad2
        valley = np.array([-(grads[0] - grads[1])[1], (grads[0] - grads[1])[0]])
        z_star = grid_argmin_2d(phi, inp.y, radius, npts=400, extra_dirs=[valley])
        assert np.max(np.abs(sol.z - z_star)) <= 1e-3
        # theta matches the independent primal evaluation at z
        assert sol.theta == pytest.approx(float(phi(sol.z)[0]), abs=1e-9)


def test_uniqueness_across_dual_starts():
    for seed in (1, 4, 9):
        core = _build_core(random_instance(seed))
        a = _solve_core(core, [0.5, 0.5], DEFAULT_TOL)[0]
        b = _solve_core(core, [0.999, 0.001], DEFAULT_TOL)[0]
        assert np.linalg.norm(np.subtract(a, b)) <= 1e-6


def test_weak_duality_and_feasible_upper_bound():
    rng = np.random.default_rng(5)
    for seed in (0, 3, 7):
        inp = random_instance(seed)
        sol = solve_subproblem(inp)
        phi = subproblem_objective(inp)
        dual_val = sol.theta - sol.gap
        for _ in range(50):
            z_try = inp.y + rng.normal(scale=1.0, size=2)
            assert dual_val <= float(phi(z_try)[0]) + 1e-12
        # z = y is feasible, so the optimal value cannot exceed phi(y)
        assert sol.theta <= float(phi(inp.y)[0]) + 1e-12
        assert sol.gap >= -1e-12
        assert abs(sol.lam.sum() - 1.0) <= 1e-10 and np.all(sol.lam >= 0)


def test_kkt_residual_small_at_solution():
    for seed in range(8):
        inp = random_instance(seed)
        sol = solve_subproblem(inp, tol=1e-10)
        assert sol.kkt_residual <= 1e-6
        assert sol.complementarity <= 1e-6


def test_kkt_residual_zero_gradient_instance():
    p = quad_pair()
    y = np.array([-0.2, 0.9])
    inp = SubproblemInput(x=y.copy(), y=y, mu=1.0, ell=4.0, problem=p)
    sol = solve_subproblem(inp, tol=1e-14)
    assert sol.kkt_residual <= 1e-8


def test_kkt_residual_scales_with_perturbation():
    p = quad_pair()
    y = np.array([0.4, 0.1])
    inp = SubproblemInput(x=y.copy(), y=y, mu=1.0, ell=2.5, problem=p)
    sol = solve_subproblem(inp)
    # z = (-0.0, 0.5) at lam = (0.85, 0.15): moving the nonzero coordinate
    # keeps the sign of g's subgradient, so only ell (z - y) changes
    assert sol.z[0] == 0.0 and sol.z[1] == pytest.approx(0.5)
    z_pert = sol.z.copy()
    z_pert[1] += 0.1
    res = _kkt_residual(_build_core(inp), z_pert.tolist(), sol.lam.tolist())
    assert res == pytest.approx(inp.ell * 0.1, rel=0.05)


def triple_instance(y):
    y = np.asarray(y, float)
    return SubproblemInput(x=y + 0.3, y=y, mu=0.5, ell=1.5, problem=triple())


def test_inner_budget_exhaustion_flagged(monkeypatch):
    # the dual ascent (m = 3) needs more than one step on these instances;
    # m = 2 is solved exactly and has no budget
    monkeypatch.setattr(subproblem, "DEFAULT_MAX_INNER", 1)
    flagged = False
    for y in ([0.2, 0.1], [1.5, -0.7], [-0.4, 2.0]):
        sol = solve_subproblem(triple_instance(y), tol=1e-16)
        if not sol.converged:
            flagged = True
            assert sol.gap > 1e-16
    assert flagged


def test_complementarity_is_the_largest_weight_on_an_inactive_component(monkeypatch):
    # one ascent step leaves weight on the two brackets below the first
    inp = triple_instance([0.2, 0.1])
    with monkeypatch.context() as mp:
        mp.setattr(subproblem, "DEFAULT_MAX_INNER", 1)
        early = solve_subproblem(inp, tol=1e-16)
    comp = np.array(_build_core(inp).inner(early.lam.tolist())[1])
    assert comp.argmax() == 0 and comp[0] - comp[1:].max() > 0.5
    assert early.complementarity == early.lam[1:].max() > 0.3
    assert solve_subproblem(inp).complementarity <= 1e-6


# ------------------------------------------------------- m = 3: the ascent path


def test_three_objectives_match_grid_oracle():
    for y in ([0.2, 0.1], [1.5, -0.7], [-0.4, 2.0]):
        inp = triple_instance(y)
        sol = solve_subproblem(inp)
        assert sol.lam.size == 3 and sol.converged and sol.gap <= DEFAULT_TOL
        assert sol.kkt_residual <= 1e-6
        assert sol.complementarity <= 1e-6
        phi = subproblem_objective(inp)
        grads = np.asarray(eval_smooth(inp.problem, inp.y, inp.mu)[1])
        radius = (np.linalg.norm(grads, axis=1).max() + 1.0) / inp.ell + 0.1
        # kink valleys run orthogonal to each pairwise gradient difference
        diffs = [grads[i] - grads[j] for i, j in ((0, 1), (0, 2), (1, 2))]
        valleys = [np.array([-dg[1], dg[0]]) for dg in diffs]
        z_star = grid_argmin_2d(phi, inp.y, radius, npts=400, extra_dirs=valleys)
        assert np.max(np.abs(sol.z - z_star)) <= 1e-3
        assert sol.theta == pytest.approx(float(phi(sol.z)[0]), abs=1e-9)


@pytest.mark.parametrize("spread", [0.0, 1e-160])
@pytest.mark.parametrize("c", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.5]])
def test_ascent_on_coinciding_gradients_takes_the_best_vertex(spread, c):
    # ||g_i - g_j|| = spread: the dual is linear in lam, and 1 / curvature
    # (>= 1e300) is no step the simplex projection survives
    G = np.ones((3, 2))
    G[:, 0] = 0.0
    G[1, 0] = spread
    c = np.array(c)
    core = _Core([0.0, 0.0], G.tolist(), c.tolist(), 1.0)
    for lam0 in ([1.0 / 3.0] * 3, [0.0, 0.0, 1.0]):
        z, lam, theta, gap, steps = _solve_core(core, lam0, DEFAULT_TOL)[:5]
        np.testing.assert_array_equal(lam, np.eye(3)[c.argmax()])
        assert 0.0 <= gap <= DEFAULT_TOL and steps == 1
        # z is the prox of y - g / ell, whatever the weights
        z = np.array(z)
        np.testing.assert_array_equal(z, prox_g(-G[0], 1.0, 2))
        gz = np.abs(z).sum() / 2
        assert theta == pytest.approx(G[0] @ z + c.max() + gz + 0.5 * z @ z, abs=1e-15)


# -------------------------------------------------- m = 2: the exact kink search

LAM_HALF = [0.5, 0.5]


def kinks_inside(core):
    """Weights t in (0, 1) where a soft-threshold coordinate of z(t) switches."""
    thr = 1.0 / (core.ell * core.n)
    y, G, _ = core_arrays(core)
    ts = []
    for t in np.linspace(0.0, 1.0, 2001):
        v = y - (t * G[0] + (1.0 - t) * G[1]) / core.ell
        ts.append(np.abs(v) > thr)
    return int(np.sum(np.any(np.diff(np.array(ts), axis=0), axis=1)))


def ascend(core, lam0):
    """The ascent's (z, lam, theta, gap, steps), with theta and the gap formed as _solve_core forms them."""
    lam, steps, (z, comp, dual, quad, _) = _ascend(core, lam0, DEFAULT_TOL)
    theta = max(comp) + quad
    return z, lam, theta, theta - dual, steps


def check_exact_against_ascent(core, lam0=LAM_HALF):
    """The exact path's answer and the ascent's; returns the exact weights."""
    z, lam, theta, gap, steps = _solve_core(core, lam0, DEFAULT_TOL)[:5]
    z_asc, _, theta_asc, gap_asc, _ = ascend(core, lam0)
    assert steps == 1
    assert -1e-12 <= gap <= DEFAULT_TOL and gap_asc <= DEFAULT_TOL
    np.testing.assert_allclose(z, z_asc, rtol=0.0, atol=1e-8)
    assert theta == pytest.approx(theta_asc, abs=1e-8)
    lam = np.array(lam)
    assert lam.sum() == 1.0 and lam.min() >= 0.0
    return lam


def test_exact_path_matches_ascent_on_random_instances():
    for seed in range(12):
        check_exact_against_ascent(_build_core(random_instance(seed)))


def test_exact_path_crosses_soft_threshold_kinks():
    # y near the origin and gradients of opposite signs: along t the prox
    # input sweeps across the threshold band of both coordinates
    rng = np.random.default_rng(11)
    crossed = interior = 0
    for _ in range(40):
        G = rng.uniform(-2.0, 2.0, (2, 2))
        G[1] = -G[0] + rng.normal(scale=0.3, size=2)
        core = _Core(rng.uniform(-0.2, 0.2, 2).tolist(), G.tolist(), rng.normal(scale=0.3, size=2).tolist(), 2.0)
        lam = check_exact_against_ascent(core)
        crossed += kinks_inside(core) >= 2
        interior += 0.0 < lam[0] < 1.0
    assert crossed >= 20 and interior >= 20


# the soft threshold zeroes one coordinate of z at each endpoint (ell = 1),
# both at t = 1 (ell = 4), or none (ell = 20)
@pytest.mark.parametrize("ell", [1.0, 4.0, 20.0])
def test_exact_path_endpoints(ell):
    G = [[1.0, -0.5], [-0.3, 0.8]]
    y = [0.2, -0.1]
    # objective 2's offset dominates for every t: h(0) < 0 gives t = 0
    lam = check_exact_against_ascent(_Core(y, G, [-10.0, 10.0], ell))
    np.testing.assert_array_equal(lam, [0.0, 1.0])
    lam = check_exact_against_ascent(_Core(y, G, [10.0, -10.0], ell))
    np.testing.assert_array_equal(lam, [1.0, 0.0])


def test_exact_path_keeps_the_start_weight_on_a_flat_dual():
    y = np.array([0.5, -1.0])
    inp = SubproblemInput(x=y + 0.4, y=y, mu=0.3, ell=3.0, problem=twin_pair())
    core = _build_core(inp)
    for lam0 in (LAM_HALF, [0.3, 0.7], [1.0, 0.0]):
        lam = check_exact_against_ascent(core, lam0)
        np.testing.assert_array_equal(lam, lam0)


@pytest.mark.parametrize(
    "G, c",
    [
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), np.zeros(2)),
        (np.array([[np.inf, 1.0], [0.0, 1.0]]), np.zeros(2)),
        (np.eye(2), np.array([np.inf, 0.0])),
        (np.eye(2), np.array([0.0, np.nan])),
    ],
)
def test_exact_path_nonfinite_core_gives_nonfinite_gap(G, c):
    core = _Core([0.0, 0.0], G.tolist(), c.tolist(), 1.0)
    _, lam, _, gap, _ = _solve_core(core, LAM_HALF, DEFAULT_TOL)[:5]
    assert not np.isfinite(gap)
    assert np.isnan(lam).all()  # no weight is picked from a non-finite derivative


def test_exact_path_weight_stays_on_the_simplex():
    # the interpolated root landed one ulp past its bracket: lam = (1 + 2.2e-16, -2.2e-16)
    core = _Core([9.957086492446983], [[-1.0], [2.0]], [-3e-245, 0.0], 2.0)
    lam = check_exact_against_ascent(core, [1e-9, 1.0 - 1e-9])
    np.testing.assert_array_equal(lam, [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.lists(st.floats(-5.0, 5.0), min_size=14, max_size=14),
    ell=st.floats(0.1, 100.0),
    t0=st.floats(0.0, 1.0),
)
# z rests inside the soft-threshold band for every weight, so the dual is
# linear with a slope of 1.2e-8: the ascent's step must grow far past 1/curv
@example(n=1, data=[0.0, 1.0] + [0.0] * 11 + [-1.1950395177352375e-08], ell=0.125, t0=0.0)
# the interpolated root landed one ulp past t = 1, off the simplex
@example(
    n=1, data=[-1.0, 2.0] + [0.0] * 6 + [9.957086492446983, 0.0, 0.0, 0.0, -3e-245, 0.0],
    ell=2.0, t0=1e-9,
)
def test_exact_path_matches_ascent_property(n, data, ell, t0):
    G = [data[:n], data[n : 2 * n]]
    y = data[8 : 8 + n]
    c = data[12:14]
    core = _Core(y, G, c, ell)
    lam0 = [t0, 1.0 - t0]
    if np.linalg.norm(np.subtract(G[0], G[1])) > 1e-3:
        check_exact_against_ascent(core, lam0)
    else:
        # with (nearly) coinciding gradients the dual is (nearly) flat and z
        # is not pinned to 1e-8 by a gap of 1e-10; both paths still certify
        _, lam, _, gap, _ = _solve_core(core, lam0, DEFAULT_TOL)[:5]
        assert -1e-12 <= gap <= DEFAULT_TOL and sum(lam) == 1.0 and min(lam) >= 0.0
        _, lam, _, gap, _ = ascend(core, lam0)
        assert gap <= DEFAULT_TOL and sum(lam) == pytest.approx(1.0) and min(lam) >= 0.0


# ------------------------------------- the float kink search against NumPy's

REL = 1e-12  # |float - reference| <= REL * scale, per value


def close(value, ref, scale):
    return abs(value - ref) <= REL * scale


def rounding_scales(core, z_ref):
    """The sizes at which z and theta carry rounding: max(1, the size of their terms).

    z = prox(y - G^T lam / ell) rounds at |y| + |G| / ell, whatever its own
    size.  theta sums c, G (z - y), g(z) and (ell / 2) |z - y|^2, and takes
    z's rounding on through G and ell (z - y).
    """
    n, ell = core.n, core.ell
    g = np.abs(core.G).max()
    dz = np.abs(z_ref - core.y)
    z_scale = max(1.0, np.abs(core.y).max() + g / ell)
    terms = np.abs(core.c).max() + g * dz.sum() + np.abs(z_ref).sum() / n + ell * dz @ dz
    return z_scale, max(1.0, terms) + n * (g + ell * dz.max() + 1.0) * z_scale


@st.composite
def pair_cores(draw, sizes=st.integers(1, 4)):
    """m = 2 cores with n drawn from sizes, ell over nine decades and some d_j = 0."""
    n = draw(sizes)
    entry = st.floats(-5.0, 5.0)
    G = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    for j in range(n):
        if draw(st.booleans()):
            G[1, j] = G[0, j]  # a coordinate constant in t: its kinks divide by 0
    y = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(entry, min_size=2, max_size=2)))
    ell = 10.0 ** draw(st.floats(-3.0, 6.0))
    return _Core(y.tolist(), G.tolist(), c.tolist(), ell)


START_WEIGHTS = st.one_of(
    # weights on the simplex, and off it: the search projects them first
    st.floats(0.0, 1.0).map(lambda t: [t, 1.0 - t]),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(core=pair_cores(), lam0=START_WEIGHTS)
def test_float_pair_search_matches_the_numpy_reference(core, lam0):
    z, lam, theta, gap, steps = _solve_core(core, lam0, DEFAULT_TOL)[:5]
    z_ref, lam_ref, theta_ref, gap_ref, _ = solve_pair_reference(core, lam0)
    assert steps == 1 and type(z) is list and type(lam) is list
    z_scale, theta_scale = rounding_scales(core, z_ref)
    assert close(lam[0], lam_ref[0], 1.0) and lam[1] == 1.0 - lam[0]
    assert all(close(a, b, z_scale) for a, b in zip(z, z_ref.tolist()))
    # the gap is theta minus the dual value, so it carries their rounding
    assert close(theta, theta_ref, theta_scale) and close(gap, gap_ref, theta_scale)


@settings(max_examples=500, deadline=None)
@given(core=pair_cores(), lam0=START_WEIGHTS)
def test_pair_search_inside_the_bracket_gives_the_full_scan_bits(core, lam0):
    # h does not increase in floating point, so the kinks outside the bracket
    # cannot move its ends: lam, z and the gap keep every bit
    z, lam, _, gap = _solve_core(core, lam0, DEFAULT_TOL)[:4]
    lam_ref, _, (z_ref, comp, dual, quad, _) = solve_pair_full_scan(core, lam0)
    gap_ref = max(comp) + quad - dual
    assert [v.hex() for v in lam] == [v.hex() for v in lam_ref]
    assert [v.hex() for v in z] == [v.hex() for v in z_ref]
    assert gap.hex() == gap_ref.hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["G", "y", "c"])
# n = 3: the threshold 1 / (ell n) is no power of two
@pytest.mark.parametrize("n", [2, 3])
def test_float_pair_search_nonfinite_core_like_the_reference(bad, where, n):
    rng = np.random.default_rng(3)
    for _ in range(20):
        parts = {"y": rng.normal(size=n), "G": rng.normal(size=(2, n)), "c": rng.normal(size=2)}
        parts[where].flat[rng.integers(parts[where].size)] = bad
        core = _Core(parts["y"].tolist(), parts["G"].tolist(), parts["c"].tolist(), 2.0)
        _, lam, _, gap, _ = _solve_core(core, LAM_HALF, DEFAULT_TOL)[:5]
        _, lam_ref, _, gap_ref, _ = solve_pair_reference(core, LAM_HALF)
        assert np.isnan(lam_ref[0]) and not np.isfinite(gap_ref)
        assert np.isnan(lam).all() and not np.isfinite(gap)


# ------------------------------ the float core against its NumPy references


@st.composite
def cores(draw, m_max=4):
    """Cores with 2 <= m <= m_max, n <= 16, ell over nine decades, and weights on the simplex."""
    m = draw(st.integers(2, m_max))
    n = draw(st.integers(1, 16))
    entry = st.floats(-5.0, 5.0)
    G = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    y = draw(st.lists(entry, min_size=n, max_size=n))
    c = draw(st.lists(entry, min_size=m, max_size=m))
    ell = 10.0 ** draw(st.floats(-3.0, 6.0))
    core = _Core(y, G.tolist(), c, ell)
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(lambda w: sum(w) > 0.0))
    return core, [v / sum(w) for v in w]


@settings(max_examples=300, deadline=None)
@given(core_lam=cores())
def test_inner_step_matches_the_numpy_reference(core_lam):
    core, lam = core_lam
    z, comp, dual, quad = core.inner(lam)[:4]
    z_ref, comp_ref, dual_ref, quad_ref = inner_reference(core, lam)
    z_scale, scale = rounding_scales(core, z_ref)
    assert type(z) is list and type(comp) is list and len(z) == core.n and len(comp) == len(core.G)
    assert all(close(a, b, z_scale) for a, b in zip(z, z_ref.tolist()))
    assert all(close(a, b, scale) for a, b in zip(comp, comp_ref.tolist()))
    assert close(dual, dual_ref, scale) and close(quad, quad_ref, scale)


def descent_terms(core, z):
    """<g_i, z - y> for each i and (ell / 2) ||z - y||^2, formed from z as the descent test once formed them."""
    d = []
    sq = 0.0
    for zj, yj in zip(z, core.y):
        dj = zj - yj
        d.append(dj)
        sq += dj * dj
    dots = []
    for g in core.G:
        lin = 0.0
        for gj, dj in zip(g, d):
            lin += gj * dj
        dots.append(lin)
    return dots, 0.5 * core.ell * sq


@settings(max_examples=200, deadline=None)
@given(core_lam=cores(m_max=3))
def test_solve_returns_the_descent_terms_of_its_z(core_lam):
    # both dual paths: the dots and quad handed back are the ones the
    # descent test needs at the returned z, bit for bit
    core, lam0 = core_lam
    z, _, _, _, _, dots, quad, _ = _solve_core(core, lam0, DEFAULT_TOL)
    dots_ref, quad_ref = descent_terms(core, z)
    assert list(map(float.hex, dots)) == list(map(float.hex, dots_ref))
    assert quad.hex() == quad_ref.hex()


@settings(max_examples=300, deadline=None)
@given(
    w=st.lists(
        st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0])),
        min_size=1,
        max_size=8,
    )
)
def test_float_simplex_projection_matches_the_numpy_reference(w):
    # ties come from the sampled values, negative entries from both strategies
    got = _proj_simplex(w)
    assert got == project_simplex(np.array(w)).tolist()
    assert min(got) >= 0.0 and abs(sum(got) - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(core_lam=cores(), data=st.data())
def test_certificates_match_the_numpy_reference(core_lam, data):
    core, lam = core_lam
    # points with exact zeros, where the subdifferential of g is an interval
    z = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=core.n, max_size=core.n))
    ref = kkt_residual_reference(core, np.array(z), lam)
    G = np.abs(core.G)
    scale = max(1.0, (G.max(axis=0) + core.ell * (np.abs(z) + np.abs(core.y))).max())
    assert close(_kkt_residual(core, z, lam), ref, core.n * scale)
    # brackets with ties and near-ties around the active slack
    comp = data.draw(
        st.lists(st.sampled_from([0.0, -1e-8, -2e-8, 1.0, 1.0 - 5e-9]), min_size=len(lam), max_size=len(lam))
    )
    assert _complementarity(comp, lam) == complementarity_reference(comp, lam)
    _, comp, _, _ = core.inner(lam)[:4]
    assert _complementarity(comp, lam) == complementarity_reference(comp, lam)


# ------------------------------------ the compiled kernels against the loops


def solve_core_loop_reference(core, lam0):
    """_solve_core's eight outputs at m = 2, from the loop kink search."""
    lam, steps, (z, comp, dual, quad, dots) = solve_pair_loop_reference(core, lam0)
    theta = max(comp) + quad
    return z, lam, theta, theta - dual, steps, dots, quad, comp


@settings(max_examples=300, deadline=None)
@given(core_lam=cores())
def test_compiled_inner_gives_the_loop_bits(core_lam):
    core, lam = core_lam
    assert bits(core.inner(lam)) == bits(inner_loop_reference(core, lam))


@settings(max_examples=500, deadline=None)
# n = 1 unpacks y with one name; n = 16 gives up to 32 kinks
@given(core=pair_cores(sizes=st.sampled_from([1, 2, 3, 4, 16])), lam0=START_WEIGHTS)
# z rests inside the soft-threshold band for every weight: the dual is linear
@example(core=_Core([0.0], [[0.0], [1.0]], [0.0, -1.1950395177352375e-08], 0.125), lam0=[0.0, 1.0])
# the interpolated root lands one ulp past t = 1 before it is clamped
@example(core=_Core([9.957086492446983], [[-1.0], [2.0]], [-3e-245, 0.0], 2.0), lam0=[1e-9, 1.0 - 1e-9])
def test_compiled_pair_solve_gives_the_loop_bits(core, lam0):
    assert bits(_solve_core(core, lam0, DEFAULT_TOL)) == bits(solve_core_loop_reference(core, lam0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["G", "y", "c"])
@pytest.mark.parametrize("n", [2, 3])
def test_compiled_kernels_give_the_loop_bits_on_a_nonfinite_core(bad, where, n):
    # the cores of test_float_pair_search_nonfinite_core_like_the_reference
    rng = np.random.default_rng(3)
    for _ in range(20):
        parts = {"y": rng.normal(size=n), "G": rng.normal(size=(2, n)), "c": rng.normal(size=2)}
        parts[where].flat[rng.integers(parts[where].size)] = bad
        core = _Core(parts["y"].tolist(), parts["G"].tolist(), parts["c"].tolist(), 2.0)
        assert bits(_solve_core(core, LAM_HALF, DEFAULT_TOL)) == bits(solve_core_loop_reference(core, LAM_HALF))
        assert bits(core.inner(LAM_HALF)) == bits(inner_loop_reference(core, LAM_HALF))


def test_each_shape_compiles_one_kernel(monkeypatch):
    # a kernel compiled on every call would still give the right bits, and
    # cost more than the loop it replaced
    compiled = []

    def counting_exec(code, ns):
        compiled.append(code.co_filename)
        exec(code, ns)

    monkeypatch.setattr(subproblem, "exec", counting_exec, raising=False)
    monkeypatch.setattr(subproblem, "_PAIR_KERNELS", subproblem._Kernels(subproblem._pair_source))
    monkeypatch.setattr(subproblem, "_INNER_KERNELS", subproblem._Kernels(subproblem._inner_source))
    rng = np.random.default_rng(7)
    cores_by_n = {
        n: _Core(rng.normal(size=n).tolist(), rng.normal(size=(2, n)).tolist(), [0.1, -0.1], 2.0) for n in (2, 5)
    }
    kernels = {}
    for call in range(1000):
        n = (2, 5)[call % 2]
        core = cores_by_n[n]
        p = types.SimpleNamespace(name="shape", m=2, n=n)
        _core_from_evals(p, core.y, core.y, ([0.0, 0.0], core.G), ([0.0, 0.0], None), 2.0)
        _solve_core(core, LAM_HALF, DEFAULT_TOL)
        kernels.setdefault(n, subproblem._PAIR_KERNELS[n])
        assert subproblem._PAIR_KERNELS[n] is kernels[n]
    assert sorted(subproblem._PAIR_KERNELS) == [2, 5] and not subproblem._INNER_KERNELS
    assert len(compiled) == 2  # the core build compiles nothing


def test_the_pair_kernel_makes_no_function_per_call():
    # h is compiled beside the kernel, once per size: a bracketed solve
    # once built a function with 4n + 3 default arguments that few kinks called
    kernel = subproblem._PAIR_KERNELS[3]
    assert not [c for c in kernel.__code__.co_consts if isinstance(c, types.CodeType)]
    assert callable(kernel.__globals__["h"])


@st.composite
def core_evals(draw):
    """The arguments of _core_from_evals for the shape of a cores() or
    pair_cores() core: values of any size, x with |x| summing past the
    largest float, and at times one inf or nan in the Jacobian."""
    core = draw(st.one_of(cores().map(lambda core_lam: core_lam[0]), pair_cores()))
    m, n = len(core.G), core.n
    G = [list(row) for row in core.G]
    bad = draw(st.one_of(st.none(), st.sampled_from([math.inf, -math.inf, math.nan])))
    if bad is not None:
        G[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = bad
    values = st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats()), min_size=m, max_size=m)
    x = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    p = types.SimpleNamespace(name=f"shape {m}x{n}", m=m, n=n)
    return p, x, core.y, (draw(values), G), (draw(values), None), core.ell


def built(build, args):
    """The core build's y, G, c and ell as bits, or the message of its InvalidInputError."""
    try:
        core = build(*args)
    except InvalidInputError as e:
        return str(e)
    return bits([core.y, core.G, core.c, core.ell])


@settings(max_examples=500, deadline=None)
@given(args=core_evals())
def test_compiled_core_build_gives_the_loop_bits(args):
    # the core build each step splices, compiled, against solve_subproblem's loop
    p = args[0]
    assert built(spliced_core_build(p.m, p.n), args) == built(_core_from_evals, args)


# solve_subproblem at x = (0.4, 0.7), y = (0.5, 0.6), mu = 0.25, ell = 8 with every
# float as float.hex: two m = 2 kink searches and one m = 3 ascent.  Like the
# solver's recorded runs, these bits change only on purpose.
_RECORDED_SOLUTIONS = [
    (
        "CB3&MF1",
        ("0x1.22911ca7d7062p-1", "0x1.273eeee3d2061p-1"),
        ("0x1.5479409345787p-1", "0x1.570d7ed9750f2p-2"),
        ("-0x1.14b6a453892d5p-3", "0x1.3000000000000p-51", "0x0.0p+0", "0x0.0p+0"),
        1,
    ),
    (
        "SP1",
        ("0x1.15a37b7138241p-1", "0x1.7593201dfcc37p-1"),
        ("0x1.46b575235aba4p-1", "0x1.729515b94a8b8p-2"),
        ("-0x1.be34ebbdd2c28p-5", "0x1.a000000000000p-52", "0x1.0000000000000p-52", "0x0.0p+0"),
        1,
    ),
    (
        "triple",
        ("0x1.391b91b9bf4fcp-2", "0x1.1e07e07dd14bdp-1"),
        ("0x1.42f42f44a8d4dp-2", "0x1.5e85e85dab95ap-1", "0x0.0p+0"),
        ("-0x1.c61ac80be9558p-5", "0x1.bf8fe00000000p-35", "0x1.99ccc999fff00p-52", "0x0.0p+0"),
        16,
    ),
]


@pytest.mark.parametrize(
    "name, z_hex, lam_hex, certs_hex, steps", _RECORDED_SOLUTIONS, ids=[r[0] for r in _RECORDED_SOLUTIONS]
)
def test_solutions_reproduce_the_recorded_bits(name, z_hex, lam_hex, certs_hex, steps):
    p = triple() if name == "triple" else get_problem(name)
    inp = SubproblemInput(x=np.array([0.4, 0.7]), y=np.array([0.5, 0.6]), mu=0.25, ell=8.0, problem=p)
    sol = solve_subproblem(inp)
    assert tuple(v.hex() for v in sol.z.tolist()) == z_hex
    assert tuple(v.hex() for v in sol.lam.tolist()) == lam_hex
    certs = (sol.theta, sol.gap, sol.kkt_residual, sol.complementarity)
    assert tuple(float(v).hex() for v in certs) == certs_hex
    assert sol.inner_iterations == steps
