import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgm.errors import InvalidInputError, InvalidParameterError, UnsupportedAtomError
from sapgm.smoothing import (
    Abs,
    Affine,
    Exp,
    Expr,
    Max2,
    MaxList,
    Plus,
    Quartic,
    Scale,
    Square,
    Sum,
    _SUPPORTED,
    _walk,
    compose_surrogate,
    smooth_abs,
    smooth_max2,
    smooth_max_list,
    smooth_plus,
    verify_surrogate,
)

finite = st.floats(-50.0, 50.0, allow_nan=False)
mus = st.floats(1e-6, 1.0, allow_nan=False)


# ---------------------------------------------------------------- scalar atoms


def test_smooth_abs_values():
    v, d = smooth_abs(0.0, 1.0)
    assert v == 1.0 and d == 0.0
    v, d = smooth_abs(1.0, 1.0)
    assert v == pytest.approx(math.sqrt(2.0))
    assert d == pytest.approx(1.0 / math.sqrt(2.0))
    v, d = smooth_abs(3.0, 1e-6)
    assert v == pytest.approx(3.0, abs=1e-6)
    assert d == pytest.approx(1.0, abs=1e-6)


def test_smooth_plus_values():
    assert smooth_plus(0.0, 1.0) == (1.0, 0.5)
    v, d = smooth_plus(-10.0, 1e-6)
    assert v == pytest.approx(0.0, abs=1e-6)
    assert d == pytest.approx(0.0, abs=1e-6)
    v, d = smooth_plus(10.0, 1e-6)
    assert v == pytest.approx(10.0, abs=1e-6)
    assert d == pytest.approx(1.0, abs=1e-6)


def test_smooth_max2_values():
    assert smooth_max2(0.0, 0.0, 1.0) == (1.0, 0.5, 0.5)
    v, ga, gb = smooth_max2(5.0, 0.0, 1e-6)
    assert v == pytest.approx(5.0, abs=1e-6)
    assert ga == pytest.approx(1.0, abs=1e-6)
    assert gb == pytest.approx(0.0, abs=1e-6)
    v, ga, gb = smooth_max2(2.0, 2.0 + 1e-12, 0.5)
    assert v == pytest.approx(2.5, abs=1e-9)
    assert ga == pytest.approx(0.5, abs=1e-9)
    assert gb == pytest.approx(0.5, abs=1e-9)


def test_smooth_max_list_values():
    v, w = smooth_max_list([0.0, 0.0, 0.0], 1.0)
    assert v == pytest.approx(math.log(3.0))
    np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3])
    v, w = smooth_max_list([100.0, 0.0], 1.0)
    assert v == pytest.approx(100.0, abs=1e-9)
    assert w[0] == pytest.approx(1.0, abs=1e-9)
    v, _ = smooth_max_list([1.0, 2.0], 0.5)
    assert 2.0 <= v <= 2.0 + 0.5 * math.log(2.0)


def test_atoms_at_mu_zero_are_exact():
    # the nonsmooth value itself and a subgradient; the midpoint at a kink or tie
    assert smooth_abs(-2.5, 0.0) == (2.5, -1.0)
    assert smooth_abs(3.0, 0.0) == (3.0, 1.0)
    assert smooth_abs(0.0, 0.0) == (0.0, 0.0)
    assert smooth_plus(-2.0, 0.0) == (0.0, 0.0)
    assert smooth_plus(3.0, 0.0) == (3.0, 1.0)
    assert smooth_plus(0.0, 0.0) == (0.0, 0.5)
    assert smooth_max2(1.0, 4.0, 0.0) == (4.0, 0.0, 1.0)
    assert smooth_max2(4.0, 1.0, 0.0) == (4.0, 1.0, 0.0)
    assert smooth_max2(2.0, 2.0, 0.0) == (2.0, 0.5, 0.5)
    for vals, top, w in (
        ([1.0, 5.0, 3.0], 5.0, [0.0, 1.0, 0.0]),
        ([2.0, 7.0, 7.0], 7.0, [0.0, 0.5, 0.5]),
        ([-3.0], -3.0, [1.0]),
    ):
        v, g = smooth_max_list(vals, 0.0)
        assert v == top
        np.testing.assert_array_equal(g, w)


def subgradient_holds(f, u, d, w):
    """f(w) >= f(u) + d (w - u): d is a subgradient of the convex f at u."""
    return f(w) >= f(u) + d * (w - u) - 1e-12 * max(1.0, abs(f(w)), abs(f(u)))


@given(x=finite, w=finite)
def test_abs_and_plus_at_mu_zero_bit_exact_with_subgradient(x, w):
    for fn, exact in ((smooth_abs, abs), (smooth_plus, lambda u: max(u, 0.0))):
        v, d = fn(x, 0.0)
        assert v == exact(x)
        assert subgradient_holds(exact, x, d, w)


@given(a=finite, b=finite, w=st.tuples(finite, finite))
def test_max2_at_mu_zero_bit_exact_with_subgradient(a, b, w):
    v, ga, gb = smooth_max2(a, b, 0.0)
    assert v == max(a, b)
    assert ga >= 0.0 and gb >= 0.0 and ga + gb == 1.0
    assert max(w) >= v + ga * (w[0] - a) + gb * (w[1] - b) - 1e-12 * max(1.0, abs(v))


@given(vals=st.lists(st.sampled_from([-1.0, 0.0, 2.5]) | finite, min_size=1, max_size=6))
def test_max_list_at_mu_zero_bit_exact_on_the_argmax(vals):
    v, g = smooth_max_list(vals, 0.0)
    assert v == max(vals)
    assert abs(g.sum() - 1.0) <= 1e-15 and np.all(g[np.array(vals) < v] == 0.0)


@pytest.mark.parametrize("mu", [-1.0, math.nan])
def test_atoms_reject_nonpositive_mu(mu):
    for call in (
        lambda: smooth_abs(1.0, mu),
        lambda: smooth_plus(1.0, mu),
        lambda: smooth_max2(1.0, 2.0, mu),
        lambda: smooth_max_list([1.0, 2.0], mu),
    ):
        with pytest.raises(InvalidParameterError):
            call()


def test_smooth_max_list_empty():
    with pytest.raises(InvalidInputError):
        smooth_max_list([], 1.0)


@given(a=finite, b=finite, mu=mus)
def test_max2_gradients_partition_unity(a, b, mu):
    _, ga, gb = smooth_max2(a, b, mu)
    assert 0.0 <= ga <= 1.0 and 0.0 <= gb <= 1.0
    assert ga + gb == pytest.approx(1.0, abs=1e-12)


@given(vals=st.lists(finite, min_size=1, max_size=6), mu=mus)
def test_max_list_weights_on_simplex(vals, mu):
    _, w = smooth_max_list(vals, mu)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12


# The kappa*mu approximation bound, per atom.  kappa values: abs 1, plus 1,
# max2 1, k-term max ln k.
@given(x=finite, mu=mus)
def test_abs_kappa_bound(x, mu):
    v, _ = smooth_abs(x, mu)
    assert abs(v - abs(x)) <= mu + 1e-9


@given(x=finite, mu=mus)
def test_plus_kappa_bound(x, mu):
    v, _ = smooth_plus(x, mu)
    assert abs(v - max(x, 0.0)) <= mu + 1e-9


@given(a=finite, b=finite, mu=mus)
def test_max2_kappa_bound(a, b, mu):
    v, _, _ = smooth_max2(a, b, mu)
    assert abs(v - max(a, b)) <= mu + 1e-9


@given(vals=st.lists(finite, min_size=2, max_size=5), mu=mus)
def test_max_list_kappa_bound(vals, mu):
    v, _ = smooth_max_list(vals, mu)
    assert abs(v - max(vals)) <= math.log(len(vals)) * mu + 1e-9


@given(x=finite, mu1=mus, mu2=mus)
def test_mu_monotone_approach(x, mu1, mu2):
    # |f(x, mu2) - f(x, mu1)| <= kappa |mu1 - mu2| for each atom (kappa = 1).
    for fn in (smooth_abs, smooth_plus):
        v1 = fn(x, mu1)[0]
        v2 = fn(x, mu2)[0]
        assert abs(v2 - v1) <= abs(mu1 - mu2) + 1e-9


def _fd(fn, x, mu):
    h = 1e-6 * max(1.0, abs(x))
    return (fn(x + h, mu)[0] - fn(x - h, mu)[0]) / (2 * h)


def test_atom_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-5.0, 5.0, 1000)
    for mu in (1.0, 0.1, 0.01):
        for fn in (smooth_abs, smooth_plus):
            for x in xs:
                g = fn(float(x), mu)[1]
                fd = _fd(fn, float(x), mu)
                assert abs(g - fd) <= 1e-5 * max(1.0, abs(g))


def test_atom_empirical_lipschitz_ratio():
    # ||grad(a) - grad(b)|| / |a - b| <= lip_factor / mu, sampled pairs.
    rng = np.random.default_rng(11)
    a = rng.uniform(-5.0, 5.0, 10_000)
    b = rng.uniform(-5.0, 5.0, 10_000)
    keep = np.abs(a - b) > 1e-8
    a, b = a[keep], b[keep]
    for mu in (1.0, 0.1, 0.01):
        for fn, lip in ((smooth_abs, 1.0), (smooth_plus, 0.5)):
            ga = np.array([fn(float(v), mu)[1] for v in a])
            gb = np.array([fn(float(v), mu)[1] for v in b])
            ratio = np.abs(ga - gb) / np.abs(a - b)
            assert ratio.max() <= (lip / mu) * (1.0 + 1e-6)


# ------------------------------------------------------------- composed trees


def x1(n=2):
    w = np.zeros(n)
    w[0] = 1.0
    return Affine(w)


def test_compose_scaled_abs_kappa():
    s = compose_surrogate(Scale(0.5, Abs(x1())))
    assert s.constants.kappa == pytest.approx(0.5)


def test_compose_abs_of_quadratic_kink_bound():
    # |x1^2 + x2^2 - 1| near a kink: smoothing error capped by kappa * mu.
    ring = Abs(Sum([Square(x1()), Square(Affine([0.0, 1.0])), Affine([0.0, 0.0], -1.0)]))
    s = compose_surrogate(ring)
    v, _ = s.eval(np.array([1.0, 0.0]), 0.1)
    assert abs(v - 0.0) <= 0.1 + 1e-12


def test_compose_three_term_max_limit():
    # max{x1^4 + x2^2, (2-x1)^2 + (2-x2)^2, 2 e^{x2-x1}} at (2, 2) -> 20.
    terms = [
        Sum([Quartic_x1(), Square(Affine([0.0, 1.0]))]),
        Sum([Square(Affine([-1.0, 0.0], 2.0)), Square(Affine([0.0, -1.0], 2.0))]),
        Scale(2.0, ExpDiff()),
    ]
    s = compose_surrogate(MaxList(terms), box=(np.array([-4.0, -4.0]), np.array([4.0, 4.0])))
    x = np.array([2.0, 2.0])
    assert s.true_eval(x) == pytest.approx(20.0)
    v, _ = s.eval(x, 1e-7)
    assert v == pytest.approx(20.0, abs=1e-5)


def Quartic_x1():
    return Quartic(x1())


def ExpDiff():
    return Exp(Affine([-1.0, 1.0]))


def test_compose_rejects_unknown_atom():
    class Mystery(Expr):
        kappa = 0.0

        def value_grad(self, x, mu):  # pragma: no cover - never reached
            return 0.0, np.zeros(1)

    with pytest.raises(UnsupportedAtomError, match="Mystery"):
        compose_surrogate(Mystery())


@pytest.mark.parametrize(
    "expr, x",
    [
        (Square(MaxList([Affine([1.0]), Affine([1.0])])), 5.0),
        (Exp(Abs(Affine([1.0]))), 3.0),
        (Quartic(Scale(2.0, Plus(Affine([1.0])))), 1.0),
    ],
)
def test_compose_rejects_power_or_exp_of_a_smoothed_argument(expr, x):
    # the child's kappa does not bound the error: at mu = 1 it is exceeded
    x = np.array([x])
    err = abs(expr.value_grad(x, 1.0)[0] - expr.value_grad(x, 0.0)[0])
    assert err > expr.kappa * 1.0 + 1.0
    with pytest.raises(UnsupportedAtomError, match="smoothed argument"):
        compose_surrogate(expr)


@pytest.mark.parametrize(
    "expr",
    [
        Sum([Affine([1.0, 0.0]), Affine([1.0])]),
        Max2(Affine([1.0]), Affine([1.0, 2.0])),
        MaxList([Affine([1.0]), Affine([1.0, 2.0, 3.0])]),
    ],
)
def test_compose_rejects_leaves_of_different_sizes(expr):
    with pytest.raises(InvalidInputError, match="differ in size"):
        compose_surrogate(expr)


def test_compose_rejects_a_box_of_another_size():
    with pytest.raises(InvalidInputError, match="box"):
        compose_surrogate(Abs(Affine([1.0])), box=(-np.ones(2), np.ones(2)))


@pytest.mark.parametrize(
    "expr, what",
    [
        (Exp(Affine([50.0, 0.0])), "overflows"),  # exp(1000)
        (Quartic(Affine([1e80, 0.0])), "overflows"),  # (2e81)^4
        (Square(Affine([1e200, 0.0])), "gives the Lipschitz factor inf"),  # (2e201)^2 without a raise
    ],
)
def test_compose_rejects_a_certification_that_overflows(expr, what):
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidInputError, match=rf"box \[\[-20\.0, -20\.0\], \[20\.0, 20\.0\]\] {what}"):
            compose_surrogate(expr, box=([-20.0, -20.0], [20.0, 20.0]))


def test_compose_accepts_power_or_exp_of_an_exact_argument():
    for expr in (
        Square(Sum([Affine([1.0, 0.0]), Affine([0.0, 2.0], 1.0)])),
        Quartic(Scale(0.5, Affine([1.0, -1.0]))),
        Sum([Exp(Affine([0.1, 0.0])), Abs(Square(Affine([0.0, 1.0])))]),
    ):
        assert compose_surrogate(expr).constants.kappa == expr.kappa


def all_ten_atoms():
    """A tree with every atom; at (1, -2) its exact value is 24.5, its subgradient (0, -36)."""
    return Sum(
        [
            Affine([1.0, 1.0], 0.5),  # -0.5
            Scale(-3.0, Affine([0.0, 1.0])),  # 6
            Abs(Affine([1.0, 1.0])),  # |-1| = 1
            Plus(Affine([1.0, 0.0], -3.0)),  # max(-2, 0) = 0
            Max2(Square(Affine([1.0, 0.0])), Affine([0.0, -1.0])),  # max(1, 2) = 2
            # max(16, e^0, |3|) = 16
            MaxList([Quartic(Affine([0.0, 1.0])), Exp(Affine([1.0, 1.0], 1.0)), Abs(Affine([1.0, -1.0]))]),
        ]
    )


def test_tree_of_all_ten_atoms_at_mu_zero_is_exact():
    tree = all_ten_atoms()
    assert {type(node) for node in _walk(tree)} == set(_SUPPORTED)
    x = np.array([1.0, -2.0])
    v, g = tree.value_grad(x, 0.0)
    assert v == 24.5
    np.testing.assert_array_equal(g, [0.0, -36.0])
    s = compose_surrogate(tree)
    assert s.true_eval(x) == 24.5
    for mu in (1.0, 0.1, 1e-3):
        assert abs(s.eval(x, mu)[0] - 24.5) <= s.constants.kappa * mu


def test_surrogate_eval_rejects_nonpositive_mu():
    # mu = 0 is the exact path, reached through true_eval only
    s = compose_surrogate(Abs(Affine([1.0])))
    for mu in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError):
            s.eval(np.array([1.0]), mu)


# ------------------------------------------------------------- verification


def test_verify_abs_surrogate_clean():
    s = compose_surrogate(Abs(Affine([1.0])), box=(np.array([-5.0]), np.array([5.0])))
    rep = verify_surrogate(s, (np.array([-5.0]), np.array([5.0])), 1000, rng_seed=3)
    assert rep.worst() <= 1e-6


def test_verify_single_sample_ok():
    s = compose_surrogate(Abs(Affine([1.0])))
    rep = verify_surrogate(s, (np.array([-1.0]), np.array([1.0])), 1, rng_seed=0)
    assert rep.n_samples == 1


def test_verify_max_list_kappa():
    e = MaxList([Affine([1.0, 0.0, 0.0]), Affine([0.0, 1.0, 0.0]), Affine([0.0, 0.0, 1.0])])
    s = compose_surrogate(e, box=(-np.ones(3), np.ones(3)))
    assert s.constants.kappa == pytest.approx(math.log(3.0))
    rep = verify_surrogate(s, (-np.ones(3), np.ones(3)), 1000, rng_seed=5)
    assert rep.kappa_violation <= 1e-9


# ------------------------------------------------------------- random trees

# Convex trees over all ten atoms, depth <= 3, weights in [-1, 1], points in
# [-2, 2]^n.  Square, Quartic and Exp take an affine argument, as in every
# registry problem: there the tree's kappa (a plain sum) bounds the error,
# and squaring or exponentiating a convex function of either sign would not
# stay convex.
TREE_BOX = 2.0
weights = st.floats(-1.0, 1.0, allow_nan=False)
tree_mus = st.floats(1e-2, 1.0, allow_nan=False)


@st.composite
def affines(draw, n):
    return Affine([draw(weights) for _ in range(n)], draw(weights))


@st.composite
def convex_trees(draw, n, depth=3):
    leaves = ("affine", "square", "quartic", "exp", "abs")
    kind = draw(st.sampled_from(leaves + (("scale", "sum", "plus", "max2", "maxlist") if depth else ())))
    if kind in leaves:
        a = draw(affines(n))
        return {"affine": a, "square": Square(a), "quartic": Quartic(a), "exp": Exp(a), "abs": Abs(a)}[kind]
    sub = convex_trees(n, depth - 1)
    if kind == "scale":
        return Scale(draw(st.floats(0.0, 2.0)), draw(sub))
    if kind == "plus":
        return Plus(draw(sub))
    if kind == "max2":
        return Max2(draw(sub), draw(sub))
    kids = draw(st.lists(sub, min_size=1, max_size=3))
    return Sum(kids) if kind == "sum" else MaxList(kids)


@st.composite
def tree_cases(draw, n_points):
    """(surrogate, points in the box, mu)."""
    n = draw(st.integers(1, 3))
    box = (-TREE_BOX * np.ones(n), TREE_BOX * np.ones(n))
    s = compose_surrogate(draw(convex_trees(n, draw(st.integers(0, 3)))), box)
    coord = st.floats(-TREE_BOX, TREE_BOX, allow_nan=False)
    pts = [np.array([draw(coord) for _ in range(n)]) for _ in range(n_points)]
    return s, pts, draw(tree_mus)


@settings(max_examples=200, deadline=None)
@given(case=tree_cases(1))
def test_tree_kappa_bound(case):
    s, (x,), mu = case
    exact = s.true_eval(x)
    v, _ = s.eval(x, mu)
    assert abs(v - exact) <= s.constants.kappa * mu + 1e-9 * max(1.0, abs(exact))


@settings(max_examples=200, deadline=None)
@given(case=tree_cases(2), alpha=st.floats(0.0, 1.0))
def test_tree_convex_on_segments(case, alpha):
    s, (x, y), mu = case
    vx, _ = s.eval(x, mu)
    vy, _ = s.eval(y, mu)
    mid, _ = s.eval(alpha * x + (1.0 - alpha) * y, mu)
    assert mid <= alpha * vx + (1.0 - alpha) * vy + 1e-9 * max(1.0, abs(vx), abs(vy))


@settings(max_examples=200, deadline=None)
@given(case=tree_cases(1))
def test_tree_gradient_matches_finite_differences(case):
    s, (x,), mu = case
    _, g = s.eval(x, mu)
    fd = np.empty_like(x)
    for j in range(x.size):
        h = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        fd[j] = (s.eval(x + e, mu)[0] - s.eval(x - e, mu)[0]) / (2.0 * h)
    assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, float(np.linalg.norm(g)))
