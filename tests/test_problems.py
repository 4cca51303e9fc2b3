import math
import re

import numpy as np
import pytest

from conftest import build_problem
from sapgm.errors import InvalidInputError, InvalidParameterError
from sapgm.problems import (
    GKind,
    ProblemSpec,
    eval_g,
    eval_smooth,
    eval_true,
    get_problem,
    registry,
    sample_start,
)
from sapgm.smoothing import Affine, Scale, Square, Sum

EXPECTED_ORDER = ["BK1", "CB3&LQ", "CB3&MF1", "CR&MF2", "JOS1", "SP1"]


def test_registry_contents():
    probs = registry()
    assert [p.name for p in probs] == EXPECTED_ORDER
    assert all(p.g_kind is GKind.SCALED_L1 for p in probs)
    assert all(p.m == 2 for p in probs)


def test_registry_boxes():
    jos1 = get_problem("JOS1")
    np.testing.assert_array_equal(jos1.lower, [-5.0, -5.0])
    np.testing.assert_array_equal(jos1.upper, [5.0, 5.0])
    np.testing.assert_array_equal(get_problem("CB3&LQ").lower, [1.5, 1.5])
    sp1 = get_problem("SP1")
    np.testing.assert_array_equal(sp1.lower, [2.0, -2.0])
    np.testing.assert_array_equal(sp1.upper, [3.0, 3.0])


def test_lookup_by_index_and_case():
    assert get_problem(5).name == "JOS1"
    assert get_problem("jos1").name == "JOS1"
    assert get_problem("cb3&mf1").name == "CB3&MF1"
    with pytest.raises(InvalidInputError):
        get_problem("nope")
    with pytest.raises(InvalidInputError):
        get_problem(7)


def test_eval_true_spot_values():
    np.testing.assert_allclose(eval_true(get_problem("JOS1"), [2.0, 2.0]), [6.0, 2.0])
    np.testing.assert_allclose(eval_true(get_problem("BK1"), [0.0, 0.0]), [0.0, 50.0])
    np.testing.assert_allclose(eval_true(get_problem("SP1"), [1.0, 3.0]), [6.0, 6.0])


def test_eval_smooth_jos1_exact_for_any_mu():
    p = get_problem("JOS1")
    for mu in (1.0, 0.1, 1e-8):
        vals, _ = eval_smooth(p, [2.0, 2.0], mu)
        np.testing.assert_allclose(vals, [4.0, 0.0], atol=1e-12)


def test_eval_smooth_cb3lq_corner():
    # f2 = max(-x1 - x2, -x1 - x2 + x1^2 + x2^2 - 1); at (1.5, 1.5) the
    # second branch wins: -3 + 2.25 + 2.25 - 1 = 0.5.
    vals, _ = eval_smooth(get_problem("CB3&LQ"), [1.5, 1.5], 1e-8)
    assert vals[1] == pytest.approx(0.5, abs=1e-6)


def test_smooth_true_gap_bounded_by_kappa_mu():
    rng = np.random.default_rng(0)
    for p in registry():
        kap = p.kappa_max
        for _ in range(50):
            x = rng.uniform(p.lower, p.upper)
            for mu in (1.0, 0.1, 0.01):
                vals, _ = eval_smooth(p, x, mu)
                true = eval_true(p, x) - eval_g(p, x)
                assert np.max(np.abs(vals - true)) <= kap * mu + 1e-9


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for p in registry():
        for _ in range(20):
            x = rng.uniform(p.lower, p.upper)
            for mu in (1.0, 0.05):
                vals, J = eval_smooth(p, x, mu)
                for j in range(p.n):
                    h = 1e-6 * max(1.0, abs(x[j]))
                    e = np.zeros(p.n)
                    e[j] = h
                    vp, _ = eval_smooth(p, x + e, mu)
                    vm, _ = eval_smooth(p, x - e, mu)
                    fd = (vp - vm) / (2 * h)
                    scale = np.maximum(1.0, np.abs(J[:, j]))
                    assert np.max(np.abs(J[:, j] - fd) / scale) <= 1e-5


def test_eval_g_values():
    p = get_problem("JOS1")
    assert eval_g(p, [3.0, -1.0]) == pytest.approx(2.0)
    assert eval_g(p, [0.0, 0.0]) == 0.0
    zp = build_problem(
        "plainquad",
        [Sum([Square(Affine([1.0, 0.0]))]), Sum([Square(Affine([0.0, 1.0]))])],
        GKind.ZERO,
        [-1.0, -1.0],
        [1.0, 1.0],
    )
    assert eval_g(zp, [3.0, -1.0]) == 0.0


@pytest.mark.parametrize(
    "x, match",
    [
        ([1.0, 2.0, 3.0], r"BK1: expected a point of dimension 2, got shape \(3,\)"),
        ([[1.0], [2.0]], r"BK1: expected a point of dimension 2, got shape \(2, 1\)"),
        ([1.0, math.nan], r"BK1: expected a finite point, got \[1\.0, nan\]"),
        ([math.inf, 1.0], r"BK1: expected a finite point, got \[inf, 1\.0\]"),
        (np.array([1.0, -math.inf]), r"BK1: expected a finite point, got \[1\.0, -inf\]"),
    ],
    ids=["length", "nested", "nan", "inf", "array-inf"],
)
def test_evaluators_reject_a_bad_point(x, match):
    p = get_problem("BK1")
    for evaluate in (
        lambda: eval_smooth(p, x, 0.5),
        lambda: eval_smooth(p, x, 0.5, jac=False),
        lambda: eval_g(p, x),
        lambda: eval_true(p, x),
    ):
        with pytest.raises(InvalidInputError, match=match):
            evaluate()


def test_finite_coordinates_whose_sum_overflows_are_a_point():
    # the float-list check sums the coordinates; an inf sum of finite ones
    # is checked coordinate by coordinate
    p = get_problem("JOS1")
    assert eval_g(p, [1e308, 1e308]) == math.inf


def test_dimension_mismatch_rejected():
    p = get_problem("BK1")
    with pytest.raises(InvalidInputError):
        eval_true(p, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        eval_smooth(p, [1.0], 0.5)
    with pytest.raises(InvalidInputError):
        eval_g(p, [1.0])



@pytest.mark.parametrize(
    "lower, upper",
    [
        ([0.0], [1.0, 1.0]),  # a bound of size 1 gave sample_start a point of size 1
        ([0.0, 0.0], [1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        ([[0.0, 0.0]], [[1.0, 1.0]]),
        ([-math.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, math.inf]),
        ([0.0, math.nan], [1.0, 1.0]),
    ],
    ids=["short-lower", "short-upper", "size-3", "2-d", "-inf", "inf", "nan"],
)
def test_problem_spec_rejects_bounds_that_are_not_n_finite_numbers(lower, upper):
    parts = get_problem("JOS1").smooth_parts
    with pytest.raises(InvalidParameterError, match="bounds must be 2 finite numbers"):
        ProblemSpec("bad", 2, 2, parts, GKind.SCALED_L1, np.array(lower), np.array(upper))

@pytest.mark.parametrize(
    "name, x, what",
    [
        ("CB3&LQ", [-400.0, 400.0], "overflows"),  # Exp of x2 - x1
        ("CB3&LQ", [1e80, 1.0], "overflows"),  # Quartic of x1
        ("BK1", [1e200, 0.0], "is inf"),  # Square of x1
    ],
)
def test_bad_evaluations_raise_one_typed_error(name, x, what):
    p = get_problem(name)
    for call in (lambda: eval_true(p, x), lambda: eval_smooth(p, x, 0.5)):
        with pytest.raises(InvalidInputError, match=re.escape(f"{name}: component 1 at x = {x} {what}")):
            call()


def test_nan_component_raises_the_typed_error():
    # x1^2 - x1^2 is inf - inf at x1 = 1e200
    zero = Sum([Square(Affine([1.0, 0.0])), Scale(-1.0, Square(Affine([1.0, 0.0])))])
    p = build_problem("cancel", [Square(Affine([0.0, 1.0])), zero], GKind.ZERO, [-1.0, -1.0], [1.0, 1.0])
    for call in (lambda: eval_true(p, [1e200, 0.0]), lambda: eval_smooth(p, [1e200, 0.0], 0.5)):
        with pytest.raises(InvalidInputError, match=re.escape("cancel: component 2 at x = [1e+200, 0.0] is nan")):
            call()


def test_sample_start_deterministic_and_in_box():
    p = get_problem("JOS1")
    a = sample_start(p, 123)
    b = sample_start(p, 123)
    np.testing.assert_array_equal(a, b)
    draws = np.array([sample_start(p, s) for s in range(10_000)])
    assert np.all(draws >= p.lower) and np.all(draws <= p.upper)
    # distinct seeds almost surely differ
    diffs = np.abs(np.diff(draws, axis=0)).max(axis=1)
    assert np.mean(diffs > 1e-12) > 0.999
