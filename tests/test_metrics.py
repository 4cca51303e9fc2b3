import numpy as np
import pytest

from conftest import exact_merit
from sapgm.errors import InsufficientDataError, InvalidInputError, InvalidParameterError
from sapgm.metrics import (
    FrontPoint,
    fit_rate,
    merit_against_values,
    nondominated_filter,
    nondominated_mask,
)
from sapgm.problems import eval_true, get_problem, registry, sample_start
from sapgm.solver import solve


def values(p, points):
    return np.array([eval_true(p, np.asarray(z, float)) for z in points])


def merit(p, x, points):
    return merit_against_values(eval_true(p, np.asarray(x, float)), values(p, points))


# ------------------------------------------------------------------ merit


def test_merit_nonnegative_when_self_in_reference():
    p = get_problem("JOS1")
    x = np.array([1.3, -0.7])
    val = merit(p, x, [[0.0, 0.0], x, [2.0, 2.0]])
    assert val >= 0.0
    # the z = x term contributes exactly zero
    assert merit(p, x, [x]) == 0.0


def test_merit_dominated_margin():
    p = get_problem("JOS1")
    x = np.array([4.0, 4.0])
    z = np.array([3.0, 3.0])
    Fx, Fz = eval_true(p, x), eval_true(p, z)
    delta = float(np.min(Fx - Fz))
    assert delta > 0.0
    assert merit(p, x, [z]) >= delta


def test_merit_jos1_hand_value():
    # F(5,5) = (30, 14); F(0,0) = (0, 4); F(2,2) = (6, 2)
    # max{ min(30, 10), min(24, 12) } = 12
    p = get_problem("JOS1")
    assert merit(p, [5.0, 5.0], [[0.0, 0.0], [2.0, 2.0]]) == pytest.approx(12.0)


def test_merit_monotone_in_reference_set():
    p = get_problem("BK1")
    rng = np.random.default_rng(4)
    Z = [rng.uniform(p.lower, p.upper) for _ in range(8)]
    x = rng.uniform(p.lower, p.upper)
    vals = [merit(p, x, Z[: i + 1]) for i in range(len(Z))]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_merit_takes_any_sequence_and_a_single_reference_row():
    ref = np.array([[0.0, 4.0], [6.0, 2.0]])
    # (30, 14) against (0, 4) and (6, 2): max{min(30, 10), min(24, 12)} = 12
    assert merit_against_values([30.0, 14.0], ref) == 12.0
    assert merit_against_values((30, 14), ref.tolist()) == 12.0
    # a 1-D reference of length m is one row
    assert merit_against_values(np.array([30.0, 14.0]), ref[1]) == 12.0


@pytest.mark.parametrize(
    "Fx, ref",
    [
        ([1.0, 2.0], np.empty((0, 2))),  # no reference row
        ([1.0, 2.0], []),
        ([1.0, 2.0], np.zeros((3, 3))),  # rows of another length
        ([1.0, 2.0], np.zeros(3)),
        ([1.0, 2.0], [[0.0, 1.0], [0.0]]),  # ragged rows
        ([1.0, 2.0], np.zeros((1, 1, 2))),
        ([], np.zeros((1, 0))),  # no objective
        ([[1.0, 2.0]], np.zeros((1, 2))),
        (["a", "b"], np.zeros((1, 2))),
    ],
)
def test_merit_rejects_references_that_are_not_rows_of_m_values(Fx, ref):
    with pytest.raises(InvalidInputError):
        merit_against_values(Fx, ref)


def test_exact_merit_oracle_hand_values():
    p = get_problem("JOS1")
    # (0.5, 0.5): grad F_1 = x + 1/2 = (1, 1) and grad F_2 = x - 3/2 = (-1, -1)
    # are opposite, so the point is Pareto optimal
    assert exact_merit(p, [0.5, 0.5]) == 0.0
    # (4, -3) is dominated, F = (16, 18).  On the Pareto set (t, t),
    # 16 - F_1 = 16 - t^2 - t and 18 - F_2 = 14 - t^2 + 3t meet at t = 1/2,
    # so u0 = 16 - 0.75 = 15.25
    assert exact_merit(p, [4.0, -3.0]) == pytest.approx(15.25, abs=1e-9)


def test_exact_merit_oracle_bounds_reference_merit():
    # the merit against a finite reference set is a lower bound of u0 for
    # any reference set; the oracle must reach it whether x is near the
    # front or far from it
    rng = np.random.default_rng(11)
    for p in registry():
        runs = [solve(p, sample_start(p, s)) for s in range(6)]
        finals = np.array([r.final_F for r in runs])
        box = values(p, [rng.uniform(p.lower, p.upper) for _ in range(20)])
        for x in [runs[0].final_x, rng.uniform(p.lower, p.upper), rng.uniform(p.lower, p.upper)]:
            u = exact_merit(p, x)
            for ref in (box, finals[1:], np.vstack([box, finals])):
                a = merit_against_values(eval_true(p, x), ref)
                assert u >= a - 1e-9 * max(1.0, abs(a)), (p.name, x, u, a)


# ------------------------------------------------------------------ filter


def _mk(F):
    pt = FrontPoint.__new__(FrontPoint)
    object.__setattr__(pt, "x", np.zeros(2))
    object.__setattr__(pt, "F", np.asarray(F, float))
    return pt


def test_filter_examples():
    both = nondominated_filter([_mk([1, 2]), _mk([2, 1])])
    assert len(both) == 2
    one = nondominated_filter([_mk([1, 1]), _mk([2, 2])])
    assert len(one) == 1 and tuple(one[0].F) == (1.0, 1.0)


def test_filter_matches_bruteforce():
    rng = np.random.default_rng(9)
    F = rng.uniform(0.0, 1.0, size=(1000, 2))
    mask = nondominated_mask(F)
    slack = 1e-9
    for i in range(len(F)):
        dominated = any(
            np.all(F[j] <= F[i] + slack) and np.any(F[j] < F[i] - slack)
            for j in range(len(F))
            if j != i
        )
        assert mask[i] == (not dominated)


def test_filter_idempotent_and_order_preserving():
    rng = np.random.default_rng(10)
    pts = [_mk(rng.uniform(0, 1, 2)) for _ in range(200)]
    once = nondominated_filter(pts)
    twice = nondominated_filter(once)
    assert [tuple(p.F) for p in once] == [tuple(p.F) for p in twice]
    idx = [next(i for i, q in enumerate(pts) if q is p) for p in once]
    assert idx == sorted(idx)


# ------------------------------------------------------------------ rate fits


def test_fit_rate_exact_power_law():
    ks = np.arange(1, 3000)
    series = list(zip(ks, ks**-0.5))
    fit = fit_rate(series, 20, 1000)
    assert fit.slope == pytest.approx(-0.5, abs=1e-6)
    assert fit.residual <= 1e-9


def test_fit_rate_constant():
    series = [(k, 7.0) for k in range(1, 2000)]
    fit = fit_rate(series, 20, 1000)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_log_over_k():
    ks = np.arange(2, 3000)
    series = list(zip(ks, np.log(ks) / ks))
    fit = fit_rate(series, 20, 2000)
    assert -1.0 < fit.slope < -0.8


def test_fit_rate_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_rate([(k, -1.0) for k in range(100)], 20, 80)
    with pytest.raises(InsufficientDataError):
        fit_rate([(30, 1.0), (40, 2.0)], 20, 80)


def test_fit_rate_bad_range():
    with pytest.raises(InvalidParameterError):
        fit_rate([(k, 1.0) for k in range(100)], 50, 50)
