import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_merit, nondominated_mask_loop_reference
from sapgm import metrics
from sapgm.errors import InsufficientDataError, InvalidInputError, InvalidParameterError
from sapgm.metrics import (
    DOMINANCE_SLACK,
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
        # a value that is not finite; the nan row made the merit nan
        pytest.param([1.0, 2.0], [[math.nan, 0.0], [0.5, 0.5]], id="nan-in-a-reference-row"),
        pytest.param([1.0, 2.0], [[math.inf, 0.0]], id="inf-in-a-reference-row"),
        pytest.param([math.nan, 2.0], [[0.5, 0.5]], id="nan-in-Fx"),
        pytest.param([1.0, -math.inf], [[0.5, 0.5]], id="inf-in-Fx"),
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


@st.composite
def objective_rows(draw):
    """0 to 300 rows of m = 1 to 3 values: copies of a few base rows, each
    with one entry moved by 0, +-DOMINANCE_SLACK or twice it, so that rows
    repeat and comparisons tie exactly at the slack."""
    m = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from([0.0, 1.0, -2.0, 3.5, 1e6]), st.floats(-100.0, 100.0))
    base = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=12))
    shift = st.sampled_from([0.0, DOMINANCE_SLACK, -DOMINANCE_SLACK, 2 * DOMINANCE_SLACK])
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, m - 1), shift), max_size=300))
    rows = []
    for i, j, d in picks:
        row = list(base[i])
        row[j] += d
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), m)


# 300 rows on a lattice whose second entries tie at the slack
_LATTICE = np.array([[i % 7, (i * 3) % 5 + (i % 3 - 1) * DOMINANCE_SLACK] for i in range(300)])


@settings(max_examples=150, deadline=None)
@given(F=objective_rows())
@example(F=_LATTICE)
def test_blocked_mask_is_the_row_loop(F):
    mask = nondominated_mask(F)
    assert mask.dtype == bool and mask.shape == (len(F),)
    assert mask.tolist() == nondominated_mask_loop_reference(F).tolist()


@pytest.mark.parametrize("cells", [1, 50, 2_000])
def test_a_mask_in_smaller_blocks_is_the_row_loop(monkeypatch, cells):
    # _MASK_CELLS caps the rows per block at cells // (N * m): 1, 1 and 3 rows here
    monkeypatch.setattr(metrics, "_MASK_CELLS", cells)
    rng = np.random.default_rng(11)
    for F in (_LATTICE, rng.integers(0, 4, size=(101, 3)).astype(float)):
        assert nondominated_mask(F).tolist() == nondominated_mask_loop_reference(F).tolist()
    assert nondominated_mask(np.zeros((0, 2))).tolist() == []


def test_filter_idempotent_and_order_preserving():
    rng = np.random.default_rng(10)
    pts = [_mk(rng.uniform(0, 1, 2)) for _ in range(200)]
    once = nondominated_filter(pts)
    twice = nondominated_filter(once)
    assert [tuple(p.F) for p in once] == [tuple(p.F) for p in twice]
    idx = [next(i for i, q in enumerate(pts) if q is p) for p in once]
    assert idx == sorted(idx)


def test_nondominated_rejects_a_row_that_is_not_finite():
    # a nan row was kept: it dominates no row and no row dominates it
    F = [[1.0, 2.0], [math.nan, 1.0], [2.0, 1.0]]
    with pytest.raises(InvalidInputError, match=r"F must be finite, got row 1 = \[nan, 1\.0\]"):
        nondominated_mask(np.array(F))
    with pytest.raises(InvalidInputError, match="F must be finite"):
        nondominated_filter([_mk(row) for row in F])


@pytest.mark.parametrize(
    "F, shape",
    [
        pytest.param([1.0, 2.0], r"\(2,\)", id="one-row-as-a-vector"),  # NumPy's bare AxisError
        pytest.param(3.0, r"\(\)", id="scalar"),  # a bare IndexError
        pytest.param([[]], r"\(1, 0\)", id="no-objectives"),  # returned [True]
    ],
)
def test_nondominated_rejects_what_is_not_rows_of_objective_values(F, shape):
    with pytest.raises(InvalidInputError, match=r"F must be rows of m >= 1 objective values, got shape " + shape):
        nondominated_mask(F)
    # an empty sequence is no rows
    assert nondominated_mask([]).tolist() == [] and nondominated_filter([]) == []


def test_nondominated_rejects_ragged_rows():
    # NumPy's bare ValueError: inhomogeneous shape
    F = [[1.0, 2.0], [2.0, 1.0, 0.0]]
    with pytest.raises(InvalidInputError, match="rows of equal length"):
        nondominated_mask(F)
    with pytest.raises(InvalidInputError, match="rows of equal length"):
        nondominated_filter([_mk(row) for row in F])


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


def test_fit_rate_leaves_out_values_that_are_not_finite():
    # one inf used to make the slope, the intercept and the residual nan
    ks = np.arange(1, 3000)
    series = list(zip(ks, ks**-0.5))
    series[99] = (100, math.inf)
    fit = fit_rate(series, 20, 1000)
    assert fit.slope == pytest.approx(-0.5, abs=1e-6)
    assert fit.residual <= 1e-9


def test_fit_rate_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_rate([(k, -1.0) for k in range(100)], 20, 80)
    with pytest.raises(InsufficientDataError):
        fit_rate([(30, 1.0), (40, 2.0)], 20, 80)


def test_fit_rate_bad_range():
    with pytest.raises(InvalidParameterError):
        fit_rate([(k, 1.0) for k in range(100)], 50, 50)
