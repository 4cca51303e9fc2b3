"""Smooth surrogates for nonsmooth convex pieces.

Every nonsmooth primitive used by the benchmark problems -- |u|, max(u, 0),
max(a, b) and a k-term max -- is replaced by a mu-parameterized smooth
approximation.  Each surrogate carries two constants:

* ``kappa``: approximation error bound, ``|smooth(x, mu) - true(x)| <= kappa * mu``;
* ``lip_factor``: the gradient of the smoothed function is Lipschitz with
  constant ``lip_factor / mu`` for every ``mu in (0, 1]``.

Concrete forms (Chen-style smoothings):

* ``|u|``        -> ``sqrt(u^2 + mu^2)``                    (kappa = 1)
* ``max(u, 0)``  -> ``(u + sqrt(u^2 + 4 mu^2)) / 2``        (kappa = 1)
* ``max(a, b)``  -> ``(a + b + sqrt((a-b)^2 + 4 mu^2)) / 2``(kappa = 1)
* ``max(v_j)``   -> ``mu * log(sum_j exp(v_j / mu))``       (kappa = log k)

``mu = 0`` is the exact case: each atom returns the nonsmooth value itself
and a subgradient, so ``value_grad(x, 0.0)`` of a tree is its exact value.

Surrogates are built by composing immutable expression nodes; the constants
of a composite are conservative sums over the tree.  Nodes are stateless and
safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, UnsupportedAtomError

__all__ = [
    "SmoothingConstants",
    "SmoothSurrogate",
    "SurrogateReport",
    "smooth_abs",
    "smooth_plus",
    "smooth_max2",
    "smooth_max_list",
    "compose_surrogate",
    "verify_surrogate",
    "Affine",
    "Square",
    "Quartic",
    "Exp",
    "Scale",
    "Sum",
    "Abs",
    "Plus",
    "Max2",
    "MaxList",
]


def _check_exact(mu: float) -> None:
    """Atoms take mu = 0 as the exact case; negative and nan mu are rejected."""
    if mu != 0.0:
        raise InvalidParameterError(f"smoothing parameter mu must be nonnegative, got {mu}")


# ---------------------------------------------------------------------------
# scalar atoms
# ---------------------------------------------------------------------------


def smooth_abs(x: float, mu: float) -> tuple[float, float]:
    """Smoothed |x|: value and derivative of sqrt(x^2 + mu^2); at mu = 0, |x| and sign(x)."""
    if mu > 0.0:
        r = math.hypot(x, mu)
        return r, x / r
    _check_exact(mu)
    return abs(x), math.copysign(1.0, x) if x else 0.0


def smooth_plus(x: float, mu: float) -> tuple[float, float]:
    """Smoothed max(x, 0): value and derivative of (x + sqrt(x^2 + 4 mu^2)) / 2.

    At mu = 0: max(x, 0) and the subgradient 1, 0 or 1/2 at x = 0.
    """
    if mu > 0.0:
        r = math.hypot(x, 2.0 * mu)
        return 0.5 * (x + r), 0.5 * (1.0 + x / r)
    _check_exact(mu)
    return max(x, 0.0), 1.0 if x > 0.0 else 0.0 if x < 0.0 else 0.5


def smooth_max2(a: float, b: float, mu: float) -> tuple[float, float, float]:
    """Smoothed max(a, b): value plus the two partial derivatives.

    The partials are nonnegative and sum to one.  At mu = 0: max(a, b) with
    the partials (1, 0), (0, 1) or (1/2, 1/2) at a tie.
    """
    if mu > 0.0:
        r = math.hypot(a - b, 2.0 * mu)
        s = 0.5 * (a - b) / r
        return 0.5 * (a + b + r), 0.5 + s, 0.5 - s
    _check_exact(mu)
    if a > b:
        return a, 1.0, 0.0
    if b > a:
        return b, 0.0, 1.0
    return 0.5 * (a + b), 0.5, 0.5  # a tie, or a nan that must not be dropped


def smooth_max_list(values: Sequence[float], mu: float) -> tuple[float, np.ndarray]:
    """Log-sum-exp smoothing of max(values) with softmax weights.

    The max is subtracted before exponentiating so large inputs cannot
    overflow.  kappa = log(len(values)).  At mu = 0: max(values) with equal
    weights on the values that attain it.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidInputError("smooth_max_list needs a nonempty list")
    top = float(v.max())
    if mu > 0.0:
        e = np.exp((v - top) / mu)
        s = float(e.sum())
        return top + mu * math.log(s), e / s
    _check_exact(mu)
    e = (v == top).astype(float)
    return top, e / e.sum()


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BoxStats:
    """Conservative bounds of a node over a coordinate box.

    ``curv`` bounds mu * Lipschitz(grad of the smoothed node) for mu <= 1.
    """

    vmin: float
    vmax: float
    gmax: float
    curv: float


class Expr:
    """Scalar-valued expression node over R^n; ``value_grad`` is exact at mu = 0."""

    kappa: float = 0.0

    def value_grad(self, x: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def box_stats(self, lo: np.ndarray, hi: np.ndarray) -> _BoxStats:
        raise NotImplementedError


class Affine(Expr):
    """w . x + c"""

    def __init__(self, w: Sequence[float], c: float = 0.0):
        self.w = np.asarray(w, dtype=float)
        self.c = float(c)

    def value_grad(self, x, mu):
        return float(self.w @ x) + self.c, self.w

    def box_stats(self, lo, hi):
        vmin = self.c + float(np.minimum(self.w * lo, self.w * hi).sum())
        vmax = self.c + float(np.maximum(self.w * lo, self.w * hi).sum())
        return _BoxStats(vmin, vmax, float(np.linalg.norm(self.w)), 0.0)


class _Unary(Expr):
    own_kappa = 0.0  # the node's own smoothing error per unit of mu

    def __init__(self, child: Expr):
        self.child = child
        self.kappa = self.own_kappa + child.kappa


class Square(_Unary):
    """child^2"""

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        return u * u, (2.0 * u) * gu

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        big = max(abs(c.vmin), abs(c.vmax)) + self.child.kappa
        small = 0.0 if c.vmin <= 0.0 <= c.vmax else min(abs(c.vmin), abs(c.vmax))
        return _BoxStats(
            small * small, big * big, 2.0 * big * c.gmax, 2.0 * c.gmax**2 + 2.0 * big * c.curv
        )


class Quartic(_Unary):
    """child^4"""

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        return u**4, (4.0 * u**3) * gu

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        big = max(abs(c.vmin), abs(c.vmax)) + self.child.kappa
        small = 0.0 if c.vmin <= 0.0 <= c.vmax else min(abs(c.vmin), abs(c.vmax))
        return _BoxStats(
            small**4,
            big**4,
            4.0 * big**3 * c.gmax,
            12.0 * big**2 * c.gmax**2 + 4.0 * big**3 * c.curv,
        )


class Exp(_Unary):
    """exp(child)"""

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        e = math.exp(u)
        return e, e * gu

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        top = math.exp(c.vmax + self.child.kappa)
        return _BoxStats(math.exp(c.vmin), top, top * c.gmax, top * (c.gmax**2 + c.curv))


class Scale(Expr):
    """c * child"""

    def __init__(self, c: float, child: Expr):
        self.c = float(c)
        self.child = child
        self.kappa = abs(self.c) * child.kappa

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        return self.c * u, self.c * gu

    def box_stats(self, lo, hi):
        s = self.child.box_stats(lo, hi)
        a, b = self.c * s.vmin, self.c * s.vmax
        return _BoxStats(min(a, b), max(a, b), abs(self.c) * s.gmax, abs(self.c) * s.curv)


class Sum(Expr):
    """child_1 + ... + child_k"""

    def __init__(self, children: Sequence[Expr]):
        if not children:
            raise InvalidInputError("Sum needs at least one child")
        self.children = tuple(children)
        self.kappa = sum(c.kappa for c in self.children)

    def value_grad(self, x, mu):
        v = 0.0
        g = np.zeros(x.size)
        for c in self.children:
            u, gu = c.value_grad(x, mu)
            v += u
            g += gu
        return v, g

    def box_stats(self, lo, hi):
        stats = [c.box_stats(lo, hi) for c in self.children]
        return _BoxStats(
            sum(s.vmin for s in stats),
            sum(s.vmax for s in stats),
            sum(s.gmax for s in stats),
            sum(s.curv for s in stats),
        )


class Abs(_Unary):
    """|child|, smoothed as sqrt(child^2 + mu^2)."""

    own_kappa = 1.0

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        v, d = smooth_abs(u, mu)
        return v, d * gu

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        small = 0.0 if c.vmin <= 0.0 <= c.vmax else min(abs(c.vmin), abs(c.vmax))
        return _BoxStats(
            small, max(abs(c.vmin), abs(c.vmax)), c.gmax, c.gmax**2 + c.curv
        )


class Plus(_Unary):
    """max(child, 0), smoothed as (child + sqrt(child^2 + 4 mu^2)) / 2."""

    own_kappa = 1.0

    def value_grad(self, x, mu):
        u, gu = self.child.value_grad(x, mu)
        v, d = smooth_plus(u, mu)
        return v, d * gu

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        return _BoxStats(
            max(c.vmin, 0.0), max(c.vmax, 0.0), c.gmax, 0.25 * c.gmax**2 + c.curv
        )


class Max2(Expr):
    """max(a, b), smoothed as (a + b + sqrt((a-b)^2 + 4 mu^2)) / 2."""

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.kappa = 1.0 + a.kappa + b.kappa

    def value_grad(self, x, mu):
        ua, ga = self.a.value_grad(x, mu)
        ub, gb = self.b.value_grad(x, mu)
        v, da, db = smooth_max2(ua, ub, mu)
        return v, da * ga + db * gb

    def box_stats(self, lo, hi):
        sa = self.a.box_stats(lo, hi)
        sb = self.b.box_stats(lo, hi)
        return _BoxStats(
            max(sa.vmin, sb.vmin),
            max(sa.vmax, sb.vmax),
            max(sa.gmax, sb.gmax),
            sa.curv + sb.curv + 0.25 * (sa.gmax + sb.gmax) ** 2,
        )


class MaxList(Expr):
    """k-term max, smoothed by log-sum-exp (kappa contribution log k)."""

    def __init__(self, children: Sequence[Expr]):
        if not children:
            raise InvalidInputError("MaxList needs at least one child")
        self.children = tuple(children)
        self.kappa = math.log(len(self.children)) + sum(c.kappa for c in self.children)

    def value_grad(self, x, mu):
        vals, grads = zip(*[c.value_grad(x, mu) for c in self.children])
        v, w = smooth_max_list(vals, mu)
        g = w[0] * grads[0]
        for wj, gj in zip(w[1:], grads[1:]):
            g = g + wj * gj
        return v, g

    def box_stats(self, lo, hi):
        stats = [c.box_stats(lo, hi) for c in self.children]
        gtop = max(s.gmax for s in stats)
        return _BoxStats(
            max(s.vmin for s in stats),
            max(s.vmax for s in stats),
            gtop,
            sum(s.curv for s in stats) + gtop**2,
        )


_SUPPORTED = (Affine, Square, Quartic, Exp, Scale, Sum, Abs, Plus, Max2, MaxList)


def _walk(expr: Expr):
    yield expr
    for attr in ("child", "a", "b"):
        node = getattr(expr, attr, None)
        if isinstance(node, Expr):
            yield from _walk(node)
    for node in getattr(expr, "children", ()):
        yield from _walk(node)


# ---------------------------------------------------------------------------
# surrogate objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingConstants:
    kappa: float
    lip_factor: float

    def __post_init__(self):
        if self.kappa < 0.0:
            raise InvalidParameterError("kappa must be nonnegative")
        if not self.lip_factor > 0.0:
            raise InvalidParameterError("lip_factor must be positive")


class SmoothSurrogate:
    """A scalar objective component over R^n; ``true_eval`` is its recursion at mu = 0."""

    def __init__(self, expr: Expr, box: tuple[np.ndarray, np.ndarray]):
        self.expr = expr
        lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
        where = f"certification over the box [{lo.tolist()}, {hi.tolist()}]"
        try:
            stats = expr.box_stats(lo, hi)
        except OverflowError as e:
            raise InvalidInputError(f"{where} overflows") from e
        if not math.isfinite(stats.curv):
            raise InvalidInputError(f"{where} gives the Lipschitz factor {stats.curv}")
        self.constants = SmoothingConstants(expr.kappa, max(stats.curv, 1e-12))
        self.n = lo.size

    def eval(self, x: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        if not mu > 0.0:
            raise InvalidParameterError(f"smoothing parameter mu must be positive, got {mu}")
        return self.expr.value_grad(np.asarray(x, float), mu)

    def true_eval(self, x: np.ndarray) -> float:
        return self.expr.value_grad(np.asarray(x, float), 0.0)[0]


def compose_surrogate(
    expr: Expr, box: tuple[Sequence[float], Sequence[float]] | None = None
) -> SmoothSurrogate:
    """Build a surrogate from an expression tree.

    n is the size of the Affine leaves.  ``box`` is the region over which the
    conservative gradient-Lipschitz factor is certified; it defaults to
    [-10, 10]^n.  Raises UnsupportedAtomError for foreign node types and for
    Square, Quartic or Exp over a smoothed child (kappa > 0), whose error the
    child's kappa does not bound, and InvalidInputError when the leaves or
    the box differ in size or when the certification over the box overflows.
    """
    if not isinstance(expr, Expr):
        raise UnsupportedAtomError(f"not an expression node: {type(expr).__name__}")
    sizes = set()
    for node in _walk(expr):
        if isinstance(node, Affine):
            sizes.add(node.w.size)
        elif not isinstance(node, _SUPPORTED):
            raise UnsupportedAtomError(f"unsupported atom: {type(node).__name__}")
        # these atoms copy their child's kappa, which bounds their own error
        # only when the child is exact
        if isinstance(node, (Square, Quartic, Exp)) and node.child.kappa > 0.0:
            raise UnsupportedAtomError(
                f"{type(node).__name__} of a smoothed argument (kappa {node.child.kappa:g}) "
                "has no certified kappa"
            )
    if len(sizes) != 1:
        raise InvalidInputError(f"Affine leaves of one tree differ in size: {sorted(sizes)}")
    (n,) = sizes
    if box is None:
        box = (-10.0 * np.ones(n), 10.0 * np.ones(n))
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise InvalidInputError(f"box shapes {lo.shape}, {hi.shape} do not match leaves of size {n}")
    return SmoothSurrogate(expr, (lo, hi))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class SurrogateReport:
    """Maximum observed violations over the sampled points (negative = slack)."""

    kappa_violation: float
    mu_change_violation: float
    convexity_violation: float
    grad_rel_error: float
    lip_ratio_excess: float
    n_samples: int

    def worst(self) -> float:
        return max(
            self.kappa_violation,
            self.mu_change_violation,
            self.convexity_violation,
            self.lip_ratio_excess,
        )


_VERIFY_MUS = (1.0, 0.1, 0.01)


def verify_surrogate(
    s: SmoothSurrogate,
    box: tuple[Sequence[float], Sequence[float]],
    n_samples: int,
    rng_seed: int,
) -> SurrogateReport:
    """Sample-based check of the smoothing contract.

    Reports the worst violation of the kappa*mu bound, the mu-monotone
    approach bound, convexity on segments, central finite-difference gradient
    agreement and the empirical gradient-Lipschitz ratio.
    """
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be >= 1")
    lo = np.asarray(box[0], float)
    hi = np.asarray(box[1], float)
    rng = np.random.default_rng(rng_seed)
    pts = rng.uniform(lo, hi, size=(n_samples, lo.size))
    kappa = s.constants.kappa
    lip = s.constants.lip_factor

    kap_v = -math.inf
    mu_v = -math.inf
    conv_v = -math.inf
    grad_e = 0.0
    lip_x = -math.inf

    for i, x in enumerate(pts):
        mu = _VERIFY_MUS[i % len(_VERIFY_MUS)]
        v, g = s.eval(x, mu)
        kap_v = max(kap_v, abs(v - s.true_eval(x)) - kappa * mu)

        mu2 = _VERIFY_MUS[(i + 1) % len(_VERIFY_MUS)]
        v2, _ = s.eval(x, mu2)
        mu_v = max(mu_v, abs(v2 - v) - kappa * abs(mu2 - mu))

        # gradient vs central differences
        fd = np.empty_like(x)
        for j in range(x.size):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (s.eval(xp, mu)[0] - s.eval(xm, mu)[0]) / (2.0 * h)
        grad_e = max(grad_e, float(np.linalg.norm(fd - g)) / max(1.0, float(np.linalg.norm(g))))

        # convexity on a segment to a partner point
        y = pts[(i + 1) % n_samples]
        alpha = rng.uniform()
        mid_v, _ = s.eval(alpha * x + (1.0 - alpha) * y, mu)
        vy, gy = s.eval(y, mu)
        conv_v = max(conv_v, mid_v - alpha * v - (1.0 - alpha) * vy)

        # empirical Lipschitz ratio of the gradient
        dist = float(np.linalg.norm(x - y))
        if dist > 1e-12:
            ratio = float(np.linalg.norm(g - gy)) / dist
            lip_x = max(lip_x, ratio * mu / lip - 1.0)

    return SurrogateReport(kap_v, mu_v, conv_v, grad_e, lip_x, n_samples)
