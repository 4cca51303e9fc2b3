import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_kernel_matches_components, bits, called_atom_kernel, value_grad
from sapgm import smoothing
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
    SmoothingConstants,
    SmoothSurrogate,
    Square,
    Sum,
    _SUPPORTED,
    _children,
    compose_surrogate,
    smooth_abs,
    smooth_max2,
    smooth_max_list,
    smooth_plus,
    verify_surrogate,
)
from sapgm.problems import eval_smooth, get_problem, registry, sample_start

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
    np.testing.assert_allclose(np.asarray(w), [1 / 3, 1 / 3, 1 / 3])
    v, w = smooth_max_list([100.0, 0.0], 1.0)
    assert v == pytest.approx(100.0, abs=1e-9)
    assert np.asarray(w)[0] == pytest.approx(1.0, abs=1e-9)
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
        np.testing.assert_array_equal(np.asarray(g), w)


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
    g = np.asarray(g)
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


@pytest.mark.parametrize(
    "call",
    [
        lambda mu: smooth_abs(1.0, mu),
        lambda mu: smooth_plus(1.0, mu),
        lambda mu: smooth_max2(1.0, 2.0, mu),
        lambda mu: smooth_max_list([1.0, 2.0], mu),
    ],
    ids=["abs", "plus", "max2", "max_list"],
)
def test_atoms_reject_an_infinite_mu(call):
    # an infinite mu gave (inf, 0.0), (inf, 0.5), (inf, 0.5, 0.5) and
    # (inf, [0.5, 0.5]) without a word
    with pytest.raises(InvalidParameterError, match="mu must be finite and nonnegative, got inf"):
        call(math.inf)


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
    w = np.asarray(w)
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
    s = compose_surrogate(Scale(0.5, Abs(x1())), ([-10.0] * 2, [10.0] * 2))
    assert s.constants.kappa == pytest.approx(0.5)


def test_compose_abs_of_quadratic_kink_bound():
    # |x1^2 + x2^2 - 1| near a kink: smoothing error capped by kappa * mu.
    ring = Abs(Sum([Square(x1()), Square(Affine([0.0, 1.0])), Affine([0.0, 0.0], -1.0)]))
    s = compose_surrogate(ring, ([-10.0] * 2, [10.0] * 2))
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


# compose_surrogate is SmoothSurrogate behind a check that its argument is an
# expression node; both must reject what the one constructor rejects
constructors = pytest.mark.parametrize("build", [compose_surrogate, SmoothSurrogate])


class Mystery(Expr):
    kappa = 0.0

    def code(self, v, a, args, bind):  # pragma: no cover - never reached
        return f"{v} = 0.0", []


@constructors
@pytest.mark.parametrize(
    "make, match",
    [
        pytest.param(Mystery, "unsupported atom: Mystery", id="unknown-node-type"),
        # each raised a bare AttributeError: 'float' object has no attribute 'kappa'
        pytest.param(lambda: Sum([1.0]), "not an expression node: float", id="sum-of-a-float"),
        pytest.param(lambda: Square(1.0), "not an expression node: float", id="square-of-a-float"),
        pytest.param(lambda: Max2(Affine([1.0]), "x"), "not an expression node: str", id="max2-of-a-string"),
        # each raised a bare TypeError: '<type>' object is not iterable
        pytest.param(lambda: Sum(1.0), "Sum needs a list of expression nodes, got float", id="sum-of-a-bare-float"),
        pytest.param(
            lambda: MaxList(Affine([1.0])),
            "MaxList needs a list of expression nodes, got Affine",
            id="maxlist-of-a-bare-node",
        ),
    ],
)
def test_compose_rejects_unknown_atom(build, make, match):
    # a node rejects a child that is no node, before either constructor sees the tree
    with pytest.raises(UnsupportedAtomError, match=match):
        build(make(), None)


@constructors
@pytest.mark.parametrize(
    "expr, x",
    [
        (Square(MaxList([Affine([1.0]), Affine([1.0])])), 5.0),
        (Exp(Abs(Affine([1.0]))), 3.0),
        (Quartic(Scale(2.0, Plus(Affine([1.0])))), 1.0),
    ],
)
def test_compose_rejects_power_or_exp_of_a_smoothed_argument(build, expr, x):
    # the child's kappa does not bound the error: at mu = 1 it is exceeded
    x = np.array([x])
    err = abs(value_grad(expr, x, 1.0)[0] - value_grad(expr, x, 0.0)[0])
    assert err > expr.kappa * 1.0 + 1.0
    with pytest.raises(UnsupportedAtomError, match="smoothed argument"):
        build(expr, ([-10.0], [10.0]))


@constructors
@pytest.mark.parametrize(
    "expr",
    [
        # SmoothSurrogate called directly raised a bare IndexError here
        pytest.param(Sum([Affine([1.0, 0.0]), Affine([1.0])]), id="sizes-2-and-1"),
        Max2(Affine([1.0]), Affine([1.0, 2.0])),
        MaxList([Affine([1.0]), Affine([1.0, 2.0, 3.0])]),
    ],
)
def test_compose_rejects_leaves_of_different_sizes(build, expr):
    with pytest.raises(InvalidInputError, match="differ in size"):
        build(expr, ([-10.0, -10.0], [10.0, 10.0]))


@constructors
@pytest.mark.parametrize(
    "box",
    [
        pytest.param((-np.ones(2), np.ones(2)), id="another-size"),
        # certified lip_factor 1.0 over a box with a nan bound
        pytest.param(([math.nan], [1.0]), id="nan-bound"),
        # accepted with lo above hi
        pytest.param(([2.0], [1.0]), id="lo-above-hi"),
        # a bare ValueError
        pytest.param(("a", "b"), id="bounds-that-are-no-numbers"),
        # a bare IndexError
        pytest.param(([1.0],), id="one-bound"),
        # certified over [-10, 10]^n
        pytest.param(None, id="none"),
    ],
)
def test_compose_rejects_a_box_that_is_not_two_ordered_vectors_of_size_n(build, box):
    with pytest.raises(InvalidInputError, match="box"):
        build(Abs(Affine([1.0])), box)


@pytest.mark.parametrize(
    "kappa, lip_factor, match",
    [
        # accepted: kappa < 0 is false for nan
        (math.nan, 1.0, "kappa must be nonnegative"),
        (-1.0, 1.0, "kappa must be nonnegative"),
        (0.0, math.nan, "lip_factor must be positive"),
        (0.0, 0.0, "lip_factor must be positive"),
    ],
    ids=["nan-kappa", "negative-kappa", "nan-lip-factor", "zero-lip-factor"],
)
def test_smoothing_constants_reject_what_no_bound_can_be(kappa, lip_factor, match):
    with pytest.raises(InvalidParameterError, match=match):
        SmoothingConstants(kappa, lip_factor)


@constructors
def test_compose_accepts_infinite_box_bounds(build):
    # Abs certifies over all of R^n
    s = build(Abs(Affine([1.0])), ([-math.inf], [math.inf]))
    assert math.isfinite(s.constants.lip_factor)


@constructors
@pytest.mark.parametrize(
    "make",
    [
        # compose_surrogate raised a SyntaxError from the generated kernel
        pytest.param(lambda: Affine([], 0.0), id="empty-leaf"),
        # NumPy's broadcast ValueError
        pytest.param(lambda: Sum([Affine([], 0.0), Affine([], 1.0)]), id="two-empty-leaves"),
        # accepted with lip_factor 1e-12, and every evaluation returned inf
        pytest.param(lambda: Affine([1.0], math.inf), id="infinite-offset"),
        pytest.param(lambda: Affine([[1.0, 0.0], [0.0, 1.0]]), id="2-D-weights"),
        pytest.param(lambda: Affine([1.0, math.nan]), id="nan-weight"),
        pytest.param(lambda: Affine([1.0, "a"]), id="weight-that-is-no-number"),
        # a bare ValueError
        pytest.param(lambda: Scale("a", Affine([1.0])), id="scale-factor-that-is-no-number"),
    ],
)
def test_compose_rejects_a_leaf_that_is_not_a_finite_vector(build, make):
    # the node rejects itself, before either constructor sees the tree
    with pytest.raises(InvalidInputError, match="Affine needs a nonempty vector w of finite numbers|Scale needs a number c"):
        build(make(), None)


@constructors
@pytest.mark.parametrize(
    "expr, what",
    [
        (Exp(Affine([50.0, 0.0])), "overflows"),  # exp(1000)
        (Quartic(Affine([1e80, 0.0])), "overflows"),  # (2e81)^4
        (Square(Affine([1e200, 0.0])), "gives the Lipschitz factor inf"),  # (2e201)^2 without a raise
    ],
)
def test_compose_rejects_a_certification_that_overflows(build, expr, what):
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidInputError, match=rf"box \[\[-20\.0, -20\.0\], \[20\.0, 20\.0\]\] {what}"):
            build(expr, ([-20.0, -20.0], [20.0, 20.0]))


def _scale_chain(depth):
    tree = Affine([1.0, 0.0])
    for _ in range(depth):
        tree = Scale(1.0, tree)
    return tree


@constructors
@pytest.mark.parametrize(
    "make, where",
    [
        # a bare RecursionError from compile(): the Sum's one line nests 2,998 additions
        pytest.param(lambda: Sum([Affine([1.0, 0.0]) for _ in range(2999)]), "during compilation", id="wide-sum"),
        # a bare RecursionError from the walk of the tree
        pytest.param(lambda: _scale_chain(900), "", id="deep-chain"),
    ],
)
def test_compose_rejects_a_tree_too_large_to_compile(build, make, where):
    match = rf"^expression tree too large to compile \(maximum recursion depth exceeded.*{where}"
    with pytest.raises(InvalidInputError, match=match):
        build(make(), ([-1.0, -1.0], [1.0, 1.0]))


def test_compose_accepts_power_or_exp_of_an_exact_argument():
    for expr in (
        Square(Sum([Affine([1.0, 0.0]), Affine([0.0, 2.0], 1.0)])),
        Quartic(Scale(0.5, Affine([1.0, -1.0]))),
        Sum([Exp(Affine([0.1, 0.0])), Abs(Square(Affine([0.0, 1.0])))]),
    ):
        assert compose_surrogate(expr, ([-10.0] * 2, [10.0] * 2)).constants.kappa == expr.kappa


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


def nodes(expr):
    """expr and every node below it."""
    return [expr] + [node for kid in _children(expr) for node in nodes(kid)]


def test_tree_of_all_ten_atoms_at_mu_zero_is_exact():
    tree = all_ten_atoms()
    assert {type(node) for node in nodes(tree)} == set(_SUPPORTED)
    x = np.array([1.0, -2.0])
    v, g = value_grad(tree, x, 0.0)
    assert v == 24.5
    np.testing.assert_array_equal(g, [0.0, -36.0])
    s = compose_surrogate(tree, ([-10.0] * 2, [10.0] * 2))
    assert s.true_eval(x) == 24.5
    v, g = kernel(s, x, 0.0)
    assert v == 24.5
    np.testing.assert_array_equal(g, [0.0, -36.0])
    for mu in (1.0, 0.1, 1e-3):
        assert abs(s.eval(x, mu)[0] - 24.5) <= s.constants.kappa * mu


def test_surrogate_eval_rejects_nonpositive_mu():
    # mu = 0 is the exact path, reached through true_eval only
    s = compose_surrogate(Abs(Affine([1.0])), ([-10.0], [10.0]))
    for mu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            s.eval(np.array([1.0]), mu)


@pytest.mark.parametrize(
    "x",
    # a nested list and a list that holds a non-number have length n = 2,
    # so the float-list fast path must not take them; a point with an inf
    # gave (inf, [nan]) and one with a nan gave nan, both without a word
    [[1.0, 2.0, 3.0], [1.0], np.ones(4), np.ones((2, 1)), np.ones((1, 2)), 3.0, [[1.0], [2.0]], [1.0, "a"]]
    + [[math.inf, 0.0], [math.nan, 0.0]],
)
def test_surrogate_rejects_a_point_of_another_dimension(x):
    s = get_problem("JOS1").smooth_parts[0]  # n = 2
    msg = r"expected a (point of dimension 2, got shape \([\d, ]*\)|finite point, got \[(inf|nan), 0\.0\])"
    evaluations = (
        lambda: s.eval(x, 0.5),
        lambda: s.eval(x, 0.5, jac=False),
        lambda: s.true_eval(x),
        lambda: s.eval(x, -1.0),  # the point is checked before mu
    )
    for evaluate in evaluations:
        with pytest.raises(InvalidInputError, match=msg):
            evaluate()


# ------------------------------------------------------------- verification


def test_verify_abs_surrogate_clean():
    s = compose_surrogate(Abs(Affine([1.0])), box=(np.array([-5.0]), np.array([5.0])))
    rep = verify_surrogate(s, (np.array([-5.0]), np.array([5.0])), 1000, rng_seed=3)
    assert rep.worst() <= 1e-6


def test_verify_single_sample_ok():
    s = compose_surrogate(Abs(Affine([1.0])), ([-10.0], [10.0]))
    rep = verify_surrogate(s, (np.array([-1.0]), np.array([1.0])), 1, rng_seed=0)
    assert rep.worst() <= 1e-9
    assert rep.lip_ratio_excess == -math.inf  # the one point is its own partner


@pytest.mark.parametrize(
    "n_samples, rng_seed, match",
    [
        (1.5, 0, "n_samples must be an integer >= 1, got 1.5"),
        ("3", 0, "n_samples must be an integer >= 1, got '3'"),
        (True, 0, "n_samples must be an integer >= 1, got True"),
        (0, 0, "n_samples must be an integer >= 1, got 0"),
        (3, -1, "rng_seed must be an integer >= 0, got -1"),
        (3, 1.5, "rng_seed must be an integer >= 0, got 1.5"),
    ],
    ids=["fractional-count", "string-count", "bool-count", "zero-count", "negative-seed", "fractional-seed"],
)
def test_verify_rejects_a_count_or_seed_that_is_no_integer_in_range(n_samples, rng_seed, match):
    # each but the zero count raised a bare TypeError or, for the seed -1, ValueError
    s = compose_surrogate(Abs(Affine([1.0])), ([-10.0], [10.0]))
    with pytest.raises(InvalidParameterError) as info:
        verify_surrogate(s, (np.array([-1.0]), np.array([1.0])), n_samples, rng_seed)
    assert str(info.value) == match


@pytest.mark.parametrize(
    "box",
    [
        # a bare TypeError
        pytest.param(None, id="none"),
        # OverflowError: Range exceeds valid bounds
        pytest.param(([math.nan], [1.0]), id="nan-bound"),
        pytest.param(([-math.inf], [1.0]), id="infinite-bound"),
        # NumPy's ValueError: high - low < 0
        pytest.param(([2.0], [1.0]), id="lo-above-hi"),
        pytest.param((-np.ones(2), np.ones(2)), id="another-size"),
    ],
)
def test_verify_rejects_a_box_that_is_not_finite_ordered_vectors_of_size_n(box):
    s = compose_surrogate(Abs(Affine([1.0])), ([-10.0], [10.0]))
    with pytest.raises(InvalidInputError, match="box"):
        verify_surrogate(s, box, 3, 0)


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
def affines(draw, n, unread=None):
    """An affine leaf; its weight on coordinate ``unread`` is 0."""
    return Affine([0.0 if k == unread else draw(weights) for k in range(n)], draw(weights))


@st.composite
def convex_trees(draw, n, depth=3, unread=None):
    leaves = ("affine", "square", "quartic", "exp", "abs")
    kind = draw(st.sampled_from(leaves + (("scale", "sum", "plus", "max2", "maxlist") if depth else ())))
    if kind in leaves:
        a = draw(affines(n, unread))
        return {"affine": a, "square": Square(a), "quartic": Quartic(a), "exp": Exp(a), "abs": Abs(a)}[kind]
    sub = convex_trees(n, depth - 1, unread)
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


# ------------------------------------------------------------ compiled kernel


def kernel(s, x, mu):
    """The surrogate's compiled kernel at (x, mu), mu = 0 included: value and gradient."""
    v, g = s._value_grad(np.asarray(x, float).tolist(), mu)
    return v, np.array(g)


def assert_kernel_matches_reference(s, x, mu):
    v, g = kernel(s, x, mu)
    ref_v, ref_g = value_grad(s.expr, x, mu)
    # the kernel sums the adjoints in another order: agreement to rounding
    assert abs(v - ref_v) <= 1e-12 * max(1.0, abs(ref_v))
    assert np.max(np.abs(g - ref_g)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref_g))))
    if mu > 0.0:
        (v_jac, g_jac), (v_only, none) = s.eval(x, mu), s.eval(x, mu, jac=False)
        assert none is None and v_only == v_jac == v
        np.testing.assert_array_equal(g_jac, g)
    else:
        assert s.true_eval(x) == v


@settings(max_examples=300, deadline=None)
@given(case=tree_cases(1))
def test_kernel_matches_the_reference_evaluator_on_random_trees(case):
    s, (x,), mu = case
    for m in (mu, 0.0):
        assert_kernel_matches_reference(s, x, m)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trees_compiled_together_match_their_one_tree_kernels(data):
    # two or three random trees' lines compiled together, as a problem's
    # step splices them, keep each tree's operations and their order, so
    # each value and gradient row keeps its one-tree kernel's bits
    n = data.draw(st.integers(1, 3))
    trees = [data.draw(convex_trees(n, data.draw(st.integers(0, 3)))) for _ in range(data.draw(st.integers(2, 3)))]
    box = (-TREE_BOX * np.ones(n), TREE_BOX * np.ones(n))
    x = np.array(data.draw(st.lists(st.floats(-TREE_BOX, TREE_BOX), min_size=n, max_size=n)))
    parts = [compose_surrogate(t, box) for t in trees]
    assert_kernel_matches_components(trees, parts, x, data.draw(tree_mus))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_reference_with_a_constant_leaf_and_an_unread_coordinate(data):
    # an all-zero leaf emits no product, and a coordinate no leaf reads has
    # the gradient line 0.0
    n = data.draw(st.integers(1, 3))
    unread = data.draw(st.integers(0, n - 1))
    tree = data.draw(convex_trees(n, data.draw(st.integers(0, 3)), unread))
    const = Affine(np.zeros(n), data.draw(weights))
    box = (-TREE_BOX * np.ones(n), TREE_BOX * np.ones(n))
    s, s_tree = compose_surrogate(Sum([tree, const]), box), compose_surrogate(tree, box)
    x = np.array(data.draw(st.lists(st.floats(-TREE_BOX, TREE_BOX), min_size=n, max_size=n)))
    for mu in (data.draw(tree_mus), 0.0):
        assert_kernel_matches_reference(s, x, mu)
        v, g = kernel(s, x, mu)
        assert g[unread] == 0.0 and v == kernel(s_tree, x, mu)[0] + const.c


def test_kernel_matches_the_reference_evaluator_on_the_registry():
    rng = np.random.default_rng(3)
    for p in registry():
        # start points, and points of the wider box the factors are certified on
        points = [sample_start(p, seed) for seed in range(10)]
        points += [rng.uniform(p.lower - 5.0, p.upper + 5.0) for _ in range(10)]
        for x in points:
            for mu in (1.0, 1e-2, 1e-4, 0.0):
                for s in p.smooth_parts:
                    assert_kernel_matches_reference(s, x, mu)
                if mu > 0.0:
                    (vals, J), (vals_only, none) = eval_smooth(p, x, mu), eval_smooth(p, x, mu, jac=False)
                    assert none is None and np.asarray(J).shape == (p.m, p.n)
                    np.testing.assert_array_equal(vals_only, vals)


# ------------------------------ the written-out atoms against their scalar rules

# arguments where the written-out lines could part from the scalar rules:
# ties (drawn from a small pool), signed zeros, infinities, nan, and values
# near 1e308 whose difference or hypot overflows
atom_args = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(),
)
atom_mus = st.one_of(st.just(0.0), st.floats(5e-324, 1e300), st.sampled_from([1e-300, 1.0, 8.98846567431158e307]))

def scalar_rule(atom, args, mu):
    """The atom's scalar rule at args, as (value, partials)."""
    if atom is MaxList:
        return smooth_max_list(args, mu)
    v, *partials = {Abs: smooth_abs, Plus: smooth_plus, Max2: smooth_max2}[atom](*args, mu)
    return v, partials


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_one_atom_kernel_gives_its_scalar_rule_bits(data):
    atom = data.draw(st.sampled_from([Abs, Plus, Max2, MaxList]))
    k = {Abs: 1, Plus: 1, Max2: 2}.get(atom) or data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(atom_args, min_size=1, max_size=k))
    x = [data.draw(st.sampled_from(pool)) for _ in range(k)]
    mu = data.draw(atom_mus)
    leaves = [Affine(row) for row in np.eye(k)]
    node = atom(leaves) if atom is MaxList else atom(*leaves)
    _, value, value_grad = smoothing._compile(node)  # the bare kernels take any floats
    # each leaf line is x_j + 0.0, and each gradient entry the partial times 1.0
    v, partials = scalar_rule(atom, [xj + 0.0 for xj in x], mu)
    assert bits(value(x, mu)) == bits(v)
    assert bits(value_grad(x, mu)) == bits([v, partials])


def _walk(expr):
    yield expr
    for child in _children(expr):
        yield from _walk(child)


def test_registry_kernels_reach_a_scalar_rule_only_at_mu_zero(monkeypatch):
    # with every scalar rule refusing, each component's kernel still gives
    # the bits of a kernel that calls the rules at mu > 0, and only at
    # mu = 0 does a component with an atom reach one
    class Reached(Exception):
        pass

    def refuse(*args):
        raise Reached

    parts = [s for p in registry() for s in p.smooth_parts]
    with monkeypatch.context() as mp:
        for name in ("smooth_abs", "smooth_plus", "smooth_max2", "smooth_max_list"):
            mp.setitem(smoothing._KERNEL_GLOBALS, name, refuse)
        kernels = {s: smoothing._compile(s.expr) for s in parts}
    rng = np.random.default_rng(5)
    with_atoms = []
    for p in registry():
        points = [sample_start(p, seed).tolist() for seed in range(5)]
        points += [rng.uniform(p.lower - 5.0, p.upper + 5.0).tolist() for _ in range(5)]
        for s in p.smooth_parts:
            _, value, value_grad = kernels[s]
            _, called_value, called_value_grad = called_atom_kernel(s.expr)
            atoms = any(isinstance(node, (Abs, Plus, Max2, MaxList)) for node in _walk(s.expr))
            with_atoms += [p.name] if atoms and p.name not in with_atoms else []
            for x in points:
                for mu in (1.0, 1e-2, 1e-4, 1e-8):
                    assert bits(value_grad(x, mu)) == bits(called_value_grad(x, mu))
                    assert bits(value(x, mu)) == bits(called_value(x, mu))
                if atoms:
                    with pytest.raises(Reached):
                        value(x, 0.0)
                else:
                    assert bits(value(x, 0.0)) == bits(called_value(x, 0.0))
    assert with_atoms == ["CB3&LQ", "CB3&MF1", "CR&MF2"]
