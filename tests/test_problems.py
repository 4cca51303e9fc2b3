import math
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import sapgm
from conftest import build_problem
from sapgm.errors import InvalidInputError, InvalidParameterError
from sapgm.problems import (
    GKind,
    ProblemSpec,
    eval_smooth,
    eval_true,
    get_problem,
    registry,
    sample_start,
)
from sapgm.solver import SolverConfig, backtrack_step
from sapgm.smoothing import (
    Abs,
    Affine,
    Exp,
    Max2,
    MaxList,
    Plus,
    Scale,
    SmoothSurrogate,
    Square,
    Sum,
    compose_surrogate,
)

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


@pytest.mark.parametrize(
    "key",
    ["3", 3, "03", np.int64(3), "\u0663"],
    ids=["digits", "int", "leading-zero", "np-int64", "arabic-indic-digit"],
)
def test_an_index_key_is_decimal_digits_or_an_integer(key):
    # np.int64(3) was an unknown problem, though BenchConfig takes NumPy counts
    assert get_problem(key).name == "CB3&MF1"


@pytest.mark.parametrize(
    "key, match",
    [
        ("\u00b2", "unknown problem: '\u00b2'"),  # isdigit took it and int() raised a bare ValueError
        (True, "unknown problem: True"),  # was BK1
        (False, "unknown problem: False"),
        (np.True_, "unknown problem: np.True_"),
        (3.0, "unknown problem: 3.0"),
        (None, "unknown problem: None"),
        ("0", "problem index out of range: 0"),
        (np.int64(7), "problem index out of range: 7"),
    ],
    ids=["superscript-two", "true", "false", "np-true", "float", "none", "zero", "np-int64-7"],
)
def test_a_key_that_is_no_name_and_no_index_raises_the_typed_error(key, match):
    with pytest.raises(InvalidInputError) as info:
        get_problem(key)
    assert str(info.value) == match


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
        kap = max(s.constants.kappa for s in p.smooth_parts)
        for _ in range(50):
            x = rng.uniform(p.lower, p.upper)
            for mu in (1.0, 0.1, 0.01):
                vals, _ = eval_smooth(p, x, mu)
                true = [s.true_eval(x) for s in p.smooth_parts]
                assert np.max(np.abs(np.subtract(vals, true))) <= kap * mu + 1e-9


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for p in registry():
        for _ in range(20):
            x = rng.uniform(p.lower, p.upper)
            for mu in (1.0, 0.05):
                J = np.asarray(eval_smooth(p, x, mu)[1])
                for j in range(p.n):
                    h = 1e-6 * max(1.0, abs(x[j]))
                    e = np.zeros(p.n)
                    e[j] = h
                    vp = np.asarray(eval_smooth(p, x + e, mu)[0])
                    vm = np.asarray(eval_smooth(p, x - e, mu)[0])
                    fd = (vp - vm) / (2 * h)
                    scale = np.maximum(1.0, np.abs(J[:, j]))
                    assert np.max(np.abs(J[:, j] - fd) / scale) <= 1e-5


def test_eval_g_values():
    # g = (1/n) ||x||_1 is what eval_true adds to each component
    p = get_problem("JOS1")
    for x, g in (([3.0, -1.0], 2.0), ([0.0, 0.0], 0.0)):
        f = [s.true_eval(x) for s in p.smooth_parts]
        np.testing.assert_allclose(eval_true(p, x) - f, [g, g], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("g_kind", ["scaled_l1", None], ids=["the-enum-value", "none"])
def test_problem_spec_rejects_a_g_kind_other_than_the_scaled_l1_enum(g_kind):
    # "scaled_l1" was accepted; eval_g then gave 0.0 and the KKT residual
    # used the l1 subdifferential
    jos1 = get_problem("JOS1")
    with pytest.raises(InvalidParameterError, match="g_kind must be GKind.SCALED_L1"):
        ProblemSpec("JOS1x", 2, 2, jos1.smooth_parts, g_kind, jos1.lower, jos1.upper)


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
        lambda: eval_true(p, x),
    ):
        with pytest.raises(InvalidInputError, match=match):
            evaluate()


def test_finite_coordinates_whose_sum_overflows_are_a_point():
    # the float-list check sums the coordinates; an inf sum of finite ones
    # is checked coordinate by coordinate
    p = get_problem("JOS1")
    for evaluate in (lambda x: eval_true(p, x), lambda x: eval_smooth(p, x, 0.5)):
        with pytest.raises(InvalidInputError, match=r"^JOS1: component 1 at x = \[1e\+308, 1e\+308\] is inf$"):
            evaluate([1e308, 1e308])


def test_dimension_mismatch_rejected():
    p = get_problem("BK1")
    with pytest.raises(InvalidInputError):
        eval_true(p, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        eval_smooth(p, [1.0], 0.5)


@pytest.mark.parametrize("name", ["JOS1", "CB3&MF1"])
def test_eval_smooth_rejects_a_mu_outside_the_positive_reals(name):
    # mu = inf gave JOS1 values and CB3&MF1 an error about its component
    p = get_problem(name)
    for mu in (0.0, -1.0, math.nan, math.inf):
        for jac in (True, False):
            with pytest.raises(InvalidParameterError, match="mu must be finite and positive"):
                eval_smooth(p, [0.5, 0.5], mu, jac=jac)



_BAD_POINTS = [
    pytest.param([[1.0, 2.0], 3.0], "expected a point of dimension 2, got shape (2,) that does not hold numbers", id="ragged"),
    pytest.param(["a", "b"], "expected a point of dimension 2, got shape (2,) that does not hold numbers", id="string"),
    pytest.param([math.nan, 0.0], "expected a finite point, got [nan, 0.0]", id="nan"),
    pytest.param([0.0, 1.0, 2.0], "expected a point of dimension 2, got shape (3,)", id="length"),
]
_BAD_MUS = [0.0, -1.0, math.nan, math.inf]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("jac", [True, False])
@pytest.mark.parametrize("x, message", _BAD_POINTS)
def test_eval_smooth_reports_a_bad_point_first(x, message, jac):
    # the point is reported, with the problem's name, whatever mu is
    p = get_problem("JOS1")
    for mu in [0.5] + _BAD_MUS:
        assert _raised(lambda: eval_smooth(p, x, mu, jac)) == (InvalidInputError, f"JOS1: {message}")


@pytest.mark.parametrize("jac", [True, False])
@pytest.mark.parametrize("mu", _BAD_MUS)
def test_eval_smooth_reports_a_bad_mu_at_a_good_point(mu, jac):
    p = get_problem("JOS1")
    for x in ([0.5, 0.5], np.array([0.5, 0.5])):
        assert _raised(lambda: eval_smooth(p, x, mu, jac)) == (
            InvalidParameterError,
            f"mu must be finite and positive, got {mu}",
        )


def test_eval_smooth_names_a_component_at_the_point_as_a_float_list():
    p = get_problem("BK1")
    for x in ([1e200, 0.0], np.array([1e200, 0.0]), [np.float64(1e200), np.float64(0.0)]):
        for jac in (True, False):
            assert _raised(lambda: eval_smooth(p, x, 0.5, jac)) == (
                InvalidInputError,
                "BK1: component 1 at x = [1e+200, 0.0] is inf",
            )


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
    p = build_problem("cancel", [Square(Affine([0.0, 1.0])), zero], [-1.0, -1.0], [1.0, 1.0])
    for call in (lambda: eval_true(p, [1e200, 0.0]), lambda: eval_smooth(p, [1e200, 0.0], 0.5)):
        with pytest.raises(InvalidInputError, match=re.escape("cancel: component 2 at x = [1e+200, 0.0] is nan")):
            call()


# at x1 = 1e200: x1^2 - x1^2 is inf - inf, and exp(x1) overflows
_FINE = Square(Affine([0.0, 1.0]))
_NAN = Sum([Square(Affine([1.0, 0.0])), Scale(-1.0, Square(Affine([1.0, 0.0])))])
_OVERFLOW = Exp(Affine([1.0, 0.0]))


@pytest.mark.parametrize(
    "exprs, what",
    [
        ([_FINE, _NAN], "component 2 at x = [1e+200, 0.0] is nan"),
        ([_NAN, _OVERFLOW], "component 1 at x = [1e+200, 0.0] is nan"),
        ([_FINE, _OVERFLOW], "component 2 at x = [1e+200, 0.0] overflows"),
    ],
    ids=["nan-second", "nan-before-an-overflow", "overflow-second"],
)
def test_the_first_component_at_fault_is_named(exprs, what):
    # one kernel runs every component, and the error path names the first at fault
    p = build_problem("cancel", exprs, [-1.0, -1.0], [1.0, 1.0])
    x = np.array([1e200, 0.0])
    for call in (lambda: eval_true(p, x), lambda: eval_smooth(p, x, 0.5), lambda: eval_smooth(p, x, 0.5, jac=False)):
        assert _raised(call) == (InvalidInputError, f"cancel: {what}")


def test_no_component_is_evaluated_after_the_first_at_fault(monkeypatch):
    # each evaluator calls the components in order and raises at the first
    # that overflows or is not finite; a spy on the class records each call
    calls = []

    def spied(name):
        method = getattr(SmoothSurrogate, name)
        return lambda self, *args: calls.append(self) or method(self, *args)

    for name in ("eval", "true_eval"):
        monkeypatch.setattr(SmoothSurrogate, name, spied(name))
    x = [1e200, 0.0]
    for exprs, at_fault in (
        ([_NAN, _FINE, _FINE], 0),
        ([_FINE, _OVERFLOW, _NAN], 1),
        ([_FINE, _FINE, _OVERFLOW], 2),
    ):
        p = build_problem("cancel", exprs, [-1.0, -1.0], [1.0, 1.0])
        for call in (lambda: eval_true(p, x), lambda: eval_smooth(p, x, 0.5), lambda: eval_smooth(p, x, 0.5, jac=False)):
            calls.clear()
            assert _raised(call)[1].startswith(f"cancel: component {at_fault + 1} at x = ")
            assert calls == list(p.smooth_parts[: at_fault + 1])


def test_the_compiled_step_is_no_field_of_the_spec():
    p = get_problem("JOS1")
    backtrack_step(p, [0.5, 0.5], [0.5, 0.5], 0.5, SolverConfig())
    assert [f.name for f in fields(p)] == ["name", "n", "m", "smooth_parts", "g_kind", "lower", "upper"]
    assert "_step" in p.__dict__ and "_step" not in repr(p)


def test_each_evaluation_calls_each_component_once_in_order(monkeypatch):
    # SmoothSurrogate.eval and true_eval are rebound on the class, as
    # perfbench's tracer does, and every component finds the rebound ones
    calls = []

    def counted(name):
        method = getattr(SmoothSurrogate, name)
        return lambda self, *args: calls.append((name, self)) or method(self, *args)

    for name in ("eval", "true_eval"):
        monkeypatch.setattr(SmoothSurrogate, name, counted(name))
    for p in registry():
        for evaluate, name in (
            (lambda: eval_smooth(p, [0.5, 0.5], 0.1), "eval"),
            (lambda: eval_smooth(p, np.array([0.5, 0.5]), 0.1, jac=False), "eval"),
            (lambda: eval_true(p, [0.5, 0.5]), "true_eval"),
        ):
            calls.clear()
            evaluate()
            assert calls == [(name, s) for s in p.smooth_parts]


def test_the_registry_compiles_one_kernel_per_component_and_none_per_problem():
    # in a fresh process, every compile() of generated source that building
    # the registry makes is a component's one-tree kernel
    code = (
        "import builtins, collections\n"
        "import sapgm.problems\n"
        "names = collections.Counter()\n"
        "compile_ = builtins.compile\n"
        "def counted(source, filename, *args, **kwargs):\n"
        "    names[filename] += 1\n"
        "    return compile_(source, filename, *args, **kwargs)\n"
        "builtins.compile = counted\n"
        "specs = sapgm.problems.registry()\n"
        "builtins.compile = compile_\n"
        "print(dict(names), sum(p.m for p in specs))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sapgm.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["{'<sapgm", "kernel>':", "12}", "12"]


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


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
def test_sample_start_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # NumPy raised a bare ValueError for -1 and a TypeError for 1.5; True was seed 1
    with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0"):
        sample_start(get_problem("JOS1"), seed)
