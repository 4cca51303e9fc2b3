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
and a subgradient, so a tree evaluated at ``mu = 0`` gives its exact value.

Surrogates are built by composing immutable expression nodes; the constants
of a composite are conservative sums over the tree.  ``SmoothSurrogate``
checks and compiles each tree in one walk into a straight-line kernel that
takes the point as a list of floats: each Affine leaf becomes one line
u_j = w_j . x + c_j over its nonzero weights, and every other node its
arithmetic written out.  A smoothing atom is one ``if mu > 0.0`` block:
there its scalar rule's arithmetic at mu > 0, in the rule's order, over
temporaries named after the atom's slot; otherwise one call of the rule,
which is the one definition of the exact case.  A forward pass gives the
value; a reverse pass gives the leaf adjoints s_j and then one line per
coordinate, g_k = sum_j s_j w_jk, so the gradient is formed only when
asked for.  ``mu = 0`` runs the same kernel.  The emitter
(``_tree_source``) also takes several trees, with one unpack of the point
and each tree's lines in the order and arithmetic of its own kernel; the
solver splices a problem's m trees into its backtracking step that way, and
``_compile`` compiles one tree's lines.  Nodes and kernels are stateless
and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, UnsupportedAtomError, _check_int, _positive

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
    """Atoms take mu = 0 as the exact case; negative, infinite and nan mu are rejected."""
    if mu != 0.0:
        raise InvalidParameterError(f"smoothing parameter mu must be finite and nonnegative, got {mu}")


# ---------------------------------------------------------------------------
# scalar atoms
# ---------------------------------------------------------------------------


def smooth_abs(x: float, mu: float) -> tuple[float, float]:
    """Smoothed |x|: value and derivative of sqrt(x^2 + mu^2); at mu = 0, |x| and sign(x)."""
    if 0.0 < mu < math.inf:
        r = math.hypot(x, mu)
        return r, x / r
    _check_exact(mu)
    return abs(x), math.copysign(1.0, x) if x else 0.0


def smooth_plus(x: float, mu: float) -> tuple[float, float]:
    """Smoothed max(x, 0): value and derivative of (x + sqrt(x^2 + 4 mu^2)) / 2.

    At mu = 0: max(x, 0) and the subgradient 1, 0 or 1/2 at x = 0.
    """
    if 0.0 < mu < math.inf:
        r = math.hypot(x, 2.0 * mu)
        return 0.5 * (x + r), 0.5 * (1.0 + x / r)
    _check_exact(mu)
    return max(x, 0.0), 1.0 if x > 0.0 else 0.0 if x < 0.0 else 0.5


def smooth_max2(a: float, b: float, mu: float) -> tuple[float, float, float]:
    """Smoothed max(a, b): value plus the two partial derivatives.

    The partials are nonnegative and sum to one.  At mu = 0: max(a, b) with
    the partials (1, 0), (0, 1) or (1/2, 1/2) at a tie.
    """
    if 0.0 < mu < math.inf:
        r = math.hypot(a - b, 2.0 * mu)
        s = 0.5 * (a - b) / r
        return 0.5 * (a + b + r), 0.5 + s, 0.5 - s
    _check_exact(mu)
    if a > b:
        return a, 1.0, 0.0
    if b > a:
        return b, 0.0, 1.0
    return 0.5 * (a + b), 0.5, 0.5  # a tie, or a nan that must not be dropped


def smooth_max_list(values: Sequence[float], mu: float) -> tuple[float, list[float]]:
    """Log-sum-exp smoothing of max(values) with softmax weights.

    The max is subtracted before exponentiating so large inputs cannot
    overflow.  kappa = log(len(values)).  At mu = 0: max(values) with equal
    weights on the values that attain it; a nan value makes the result nan.
    """
    if len(values) == 0:
        raise InvalidInputError("smooth_max_list needs a nonempty list")
    top = max(values)
    if 0.0 < mu < math.inf:
        e = [math.exp((v - top) / mu) for v in values]
        s = sum(e)
        return top + mu * math.log(s), [ei / s for ei in e]
    _check_exact(mu)
    if any(v != v for v in values):  # max() may have skipped a nan
        return math.nan, [math.nan] * len(values)
    hits = [1.0 if v == top else 0.0 for v in values]
    k = sum(hits)
    return top, [h / k for h in hits]


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
    """Scalar-valued expression node over R^n.

    ``code(v, a, args, bind)`` is the node's scalar rule as generated code:
    the statement that sets slot ``v`` from the child slots ``args`` (and
    ``mu``), and for each child the expression of its adjoint given this
    node's adjoint ``a``.  ``bind(value)`` names a constant.  A smoothing
    atom's statement is several lines (see ``_atom``): its arithmetic at
    mu > 0 written out, over temporaries named after ``v``, and at mu = 0 a
    call of its scalar rule, which is exact there.
    """

    kappa: float = 0.0

    def code(self, v: str, a: str, args: list[str], bind) -> tuple[str, list[str]]:
        raise NotImplementedError

    def box_stats(self, lo: np.ndarray, hi: np.ndarray) -> _BoxStats:
        raise NotImplementedError


class Affine(Expr):
    """w . x + c, for a nonempty vector w of finite numbers and a finite c."""

    def __init__(self, w: Sequence[float], c: float = 0.0):
        try:
            self.w, self.c = np.asarray(w, dtype=float), float(c)
        except (TypeError, ValueError):  # no numbers: fail the check below
            self.w, self.c = np.empty(0), math.nan
        if not (self.w.ndim == 1 and self.w.size and np.isfinite(self.w).all() and math.isfinite(self.c)):
            raise InvalidInputError(
                f"Affine needs a nonempty vector w of finite numbers and a finite c, got {w!r}, {c!r}"
            )

    def box_stats(self, lo, hi):
        vmin = self.c + float(np.minimum(self.w * lo, self.w * hi).sum())
        vmax = self.c + float(np.maximum(self.w * lo, self.w * hi).sum())
        return _BoxStats(vmin, vmax, float(np.linalg.norm(self.w)), 0.0)


def _node(x) -> Expr:
    """x, once it is known to be an expression node (UnsupportedAtomError if not)."""
    if not isinstance(x, Expr):
        raise UnsupportedAtomError(f"not an expression node: {type(x).__name__}")
    return x


def _nodes(children, owner: str) -> tuple[Expr, ...]:
    """children as a nonempty tuple of expression nodes: UnsupportedAtomError
    unless they are a sequence of nodes, InvalidInputError if there are none."""
    try:
        it = iter(children)
    except TypeError:
        raise UnsupportedAtomError(
            f"{owner} needs a list of expression nodes, got {type(children).__name__}"
        ) from None
    nodes = tuple(map(_node, it))
    if not nodes:
        raise InvalidInputError(f"{owner} needs at least one child")
    return nodes


class _Unary(Expr):
    own_kappa = 0.0  # the node's own smoothing error per unit of mu

    def __init__(self, child: Expr):
        self.child = _node(child)
        self.kappa = self.own_kappa + child.kappa


class Square(_Unary):
    """child^2"""

    def code(self, v, a, args, bind):
        (u,) = args
        return f"{v} = {u} * {u}", [f"(2.0 * {u}) * {a}"]

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        big = max(abs(c.vmin), abs(c.vmax)) + self.child.kappa
        small = 0.0 if c.vmin <= 0.0 <= c.vmax else min(abs(c.vmin), abs(c.vmax))
        return _BoxStats(
            small * small, big * big, 2.0 * big * c.gmax, 2.0 * c.gmax**2 + 2.0 * big * c.curv
        )


class Quartic(_Unary):
    """child^4"""

    def code(self, v, a, args, bind):
        (u,) = args
        return f"{v} = {u} ** 4", [f"(4.0 * {u} ** 3) * {a}"]

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

    def code(self, v, a, args, bind):
        (u,) = args
        return f"{v} = exp({u})", [f"{v} * {a}"]

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        top = math.exp(c.vmax + self.child.kappa)
        return _BoxStats(math.exp(c.vmin), top, top * c.gmax, top * (c.gmax**2 + c.curv))


class Scale(Expr):
    """c * child"""

    def __init__(self, c: float, child: Expr):
        try:
            self.c = float(c)
        except (TypeError, ValueError):
            raise InvalidInputError(f"Scale needs a number c, got {c!r}") from None
        self.child = _node(child)
        self.kappa = abs(self.c) * child.kappa

    def code(self, v, a, args, bind):
        (u,) = args
        c = bind(self.c)
        return f"{v} = {c} * {u}", [f"{c} * {a}"]

    def box_stats(self, lo, hi):
        s = self.child.box_stats(lo, hi)
        a, b = self.c * s.vmin, self.c * s.vmax
        return _BoxStats(min(a, b), max(a, b), abs(self.c) * s.gmax, abs(self.c) * s.curv)


class Sum(Expr):
    """child_1 + ... + child_k"""

    def __init__(self, children: Sequence[Expr]):
        self.children = _nodes(children, "Sum")
        self.kappa = sum(c.kappa for c in self.children)

    def code(self, v, a, args, bind):
        return f"{v} = {' + '.join(args)}", [a] * len(args)

    def box_stats(self, lo, hi):
        stats = [c.box_stats(lo, hi) for c in self.children]
        return _BoxStats(
            sum(s.vmin for s in stats),
            sum(s.vmax for s in stats),
            sum(s.gmax for s in stats),
            sum(s.curv for s in stats),
        )


def _atom(smooth: list[str], exact: list[str]) -> str:
    """A smoothing atom's rule: the lines ``smooth`` at mu > 0, which write
    out its scalar rule's arithmetic in the same order, and ``exact`` at
    mu = 0, which call that rule."""
    return "\n".join(
        ["if mu > 0.0:"] + [f"    {line}" for line in smooth] + ["else:"] + [f"    {line}" for line in exact]
    )


class Abs(_Unary):
    """|child|, smoothed as sqrt(child^2 + mu^2)."""

    own_kappa = 1.0

    def code(self, v, a, args, bind):
        (u,) = args
        smooth = [f"{v} = hypot({u}, mu)", f"{v}d = {u} / {v}"]
        return _atom(smooth, [f"{v}, {v}d = smooth_abs({u}, mu)"]), [f"{v}d * {a}"]

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        small = 0.0 if c.vmin <= 0.0 <= c.vmax else min(abs(c.vmin), abs(c.vmax))
        return _BoxStats(
            small, max(abs(c.vmin), abs(c.vmax)), c.gmax, c.gmax**2 + c.curv
        )


class Plus(_Unary):
    """max(child, 0), smoothed as (child + sqrt(child^2 + 4 mu^2)) / 2."""

    own_kappa = 1.0

    def code(self, v, a, args, bind):
        (u,) = args
        smooth = [
            f"{v}r = hypot({u}, 2.0 * mu)",
            f"{v} = 0.5 * ({u} + {v}r)",
            f"{v}d = 0.5 * (1.0 + {u} / {v}r)",
        ]
        return _atom(smooth, [f"{v}, {v}d = smooth_plus({u}, mu)"]), [f"{v}d * {a}"]

    def box_stats(self, lo, hi):
        c = self.child.box_stats(lo, hi)
        return _BoxStats(
            max(c.vmin, 0.0), max(c.vmax, 0.0), c.gmax, 0.25 * c.gmax**2 + c.curv
        )


class Max2(Expr):
    """max(a, b), smoothed as (a + b + sqrt((a-b)^2 + 4 mu^2)) / 2."""

    def __init__(self, a: Expr, b: Expr):
        self.a = _node(a)
        self.b = _node(b)
        self.kappa = 1.0 + a.kappa + b.kappa

    def code(self, v, a, args, bind):
        ua, ub = args
        smooth = [
            f"{v}r = hypot({ua} - {ub}, 2.0 * mu)",
            f"{v}s = 0.5 * ({ua} - {ub}) / {v}r",
            f"{v} = 0.5 * ({ua} + {ub} + {v}r)",
            f"{v}a = 0.5 + {v}s",
            f"{v}b = 0.5 - {v}s",
        ]
        exact = [f"{v}, {v}a, {v}b = smooth_max2({ua}, {ub}, mu)"]
        return _atom(smooth, exact), [f"{v}a * {a}", f"{v}b * {a}"]

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
        self.children = _nodes(children, "MaxList")
        self.kappa = math.log(len(self.children)) + sum(c.kappa for c in self.children)

    def code(self, v, a, args, bind):
        """The weights are formed only in the reverse pass, as (e_j / s) * a.
        At mu = 0 the scalar rule's weights take the names e_j over s = 1.0,
        which changes no bit."""
        e = [f"{v}e{j}" for j in range(len(args))]
        listed = ", ".join(args)
        top = f"max({listed})" if len(args) > 1 else args[0]  # max() of one argument iterates over it
        smooth = (
            [f"{v}t = {top}"]
            + [f"{ej} = exp(({u} - {v}t) / mu)" for ej, u in zip(e, args)]
            + [f"{v}s = {' + '.join(e)}", f"{v} = {v}t + mu * log({v}s)"]
        )
        exact = [f"{v}, ({''.join(ej + ', ' for ej in e)}) = smooth_max_list([{listed}], mu)", f"{v}s = 1.0"]
        return _atom(smooth, exact), [f"({ej} / {v}s) * {a}" for ej in e]

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


def _children(expr: Expr) -> list[Expr]:
    kids = [getattr(expr, attr, None) for attr in ("child", "a", "b")]
    return [k for k in kids if isinstance(k, Expr)] + list(getattr(expr, "children", ()))


# ---------------------------------------------------------------------------
# compiled kernel
# ---------------------------------------------------------------------------

# the functions generated code calls; the rest of its names are slots, mu and
# the constants _tree_source binds
_KERNEL_GLOBALS = {
    "exp": math.exp,
    "hypot": math.hypot,
    "log": math.log,
    "smooth_abs": smooth_abs,
    "smooth_plus": smooth_plus,
    "smooth_max2": smooth_max2,
    "smooth_max_list": smooth_max_list,
}


@dataclass(frozen=True)
class _TreeSource:
    """The lines ``_tree_source`` emits for m trees over the point x0, ..., x{n-1} and mu.

    ``forward`` runs the trees' forward passes in order; ``fused`` runs each
    tree's forward pass and then its reverse pass for the leaf adjoints.
    ``values[i]`` names the slot that holds tree i's value after either, and
    ``grads[i][k]`` is the expression of its gradient's coordinate k after
    ``fused``.  ``consts`` holds the constants the lines read by name.
    """

    n: int
    forward: list[str]
    fused: list[str]
    values: list[str]
    grads: list[list[str]]
    consts: dict[str, float]


def _tree_source(exprs: Sequence[Expr]) -> _TreeSource:
    """Check trees and emit their lines: a tree's are the source that
    ``_compile`` compiles, and a problem's m trees' are what its
    backtracking step splices.

    Raises UnsupportedAtomError for a node type outside _SUPPORTED and for
    Square, Quartic or Exp over a smoothed child (kappa > 0), whose error the
    child's kappa does not bound, and InvalidInputError when the leaves
    differ in size.  Each Affine leaf, in walk order, is one line
    ``u_j = w_j0 * x0 + ... + c_j`` over its nonzero weights, and every
    other node the lines of its rule (``Expr.code``): one for most nodes,
    an ``if mu > 0.0`` block for a smoothing atom.  The reverse pass gives
    the leaf adjoints s_j, and each tree's gradient is g_k = sum_j s_j w_jk
    over the tree's leaves that read x_k (0.0 when none does).  Each position
    in a tree gets its own slots, distinct across the trees, so each node has
    one parent and the reverse pass only assigns.  The lines bind only the
    slots u_j, s_j, v_i and a_i and the temporaries named after v_i; the
    constants are k_i.
    """
    consts: dict[str, float] = {}
    forward: list[str] = []  # every tree's forward lines, tree after tree
    blocks: list[list[str]] = []  # per node, in forward order: its children's adjoints
    leaves: list[np.ndarray] = []

    def bind(value: float) -> str:
        name = f"k{len(consts)}"
        consts[name] = value
        return name

    def times(a: str, w: float) -> str:
        """a * w for a weight w != 0; a product with +-1 is exact as a (negated) name."""
        return a if w == 1.0 else f"-{a}" if w == -1.0 else f"{a} * {bind(w)}"

    def visit(node: Expr) -> tuple[str, str]:
        """Check the node, emit it after its children; return its value and adjoint slots."""
        if not isinstance(node, _SUPPORTED):
            raise UnsupportedAtomError(f"unsupported atom: {type(node).__name__}")
        # these atoms copy their child's kappa, which bounds their own error
        # only when the child is exact
        if isinstance(node, (Square, Quartic, Exp)) and node.child.kappa > 0.0:
            raise UnsupportedAtomError(
                f"{type(node).__name__} of a smoothed argument (kappa {node.child.kappa:g}) "
                "has no certified kappa"
            )
        if isinstance(node, Affine):
            j = len(leaves)
            leaves.append(node.w)
            terms = [times(f"x{k}", float(w)) for k, w in enumerate(node.w) if w]
            forward.append(f"u{j} = {' + '.join(terms + [bind(node.c)])}")
            return f"u{j}", f"s{j}"
        kids = [visit(child) for child in _children(node)]
        v, a = f"v{len(forward)}", f"a{len(forward)}"
        rule, adjoints = node.code(v, a, [kv for kv, _ in kids], bind)
        forward.extend(rule.split("\n"))
        blocks.append([f"{ka} = {e}" for (_, ka), e in zip(kids, adjoints)])
        return v, a

    fused: list[str] = []  # per tree its forward lines, then its reverse lines
    roots, spans = [], []  # per tree: its value slot and the indices of its leaves
    for expr in exprs:
        f0, b0, l0 = len(forward), len(blocks), len(leaves)
        root_v, root_a = visit(expr)
        fused += forward[f0:] + [f"{root_a} = 1.0"] + [line for block in reversed(blocks[b0:]) for line in block]
        roots.append(root_v)
        spans.append(range(l0, len(leaves)))
    sizes = {w.size for w in leaves}
    if len(sizes) != 1:
        raise InvalidInputError(f"Affine leaves differ in size: {sorted(sizes)}")
    (n,) = sizes
    grads = [
        [" + ".join(times(f"s{j}", float(leaves[j][k])) for j in span if leaves[j][k]) or "0.0" for k in range(n)]
        for span in spans
    ]
    return _TreeSource(n, forward, fused, roots, grads, consts)


def _compile(expr: Expr):
    """Check a tree and compile it into its kernel (n, value, value_grad):
    n is the size of the Affine leaves and the kernels take a float list x of
    R^n.

    ``value(x, mu)`` runs ``_tree_source``'s forward lines and gives the value
    as a float; ``value_grad(x, mu)`` runs its fused lines and gives the value
    and the gradient as one list; each after one unpack of x into x0, x1,
    ....  InvalidInputError when the tree is too large for Python to walk or
    compile within its recursion limit: a chain of nodes too deep, or a node
    with so many children that its one line nests too deeply.
    """
    try:
        src = _tree_source([expr])
        (value,), (grad,) = src.values, src.grads
        unpack = "".join(f"x{k}, " for k in range(src.n)) + "= x"
        code = "\n".join(
            ["def value(x, mu):"]
            + [f"    {line}" for line in [unpack] + src.forward + [f"return {value}"]]
            + ["def value_grad(x, mu):"]
            + [f"    {line}" for line in [unpack] + src.fused + [f"return {value}, [{', '.join(grad)}]"]]
        )
        code = compile(code, "<sapgm kernel>", "exec")
    except RecursionError as e:
        raise InvalidInputError(f"expression tree too large to compile ({e})") from None
    ns = {**_KERNEL_GLOBALS, **src.consts}
    exec(code, ns)
    return src.n, ns["value"], ns["value_grad"]


# ---------------------------------------------------------------------------
# surrogate objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingConstants:
    kappa: float
    lip_factor: float

    def __post_init__(self):
        if not self.kappa >= 0.0:
            raise InvalidParameterError("kappa must be nonnegative")
        if not self.lip_factor > 0.0:
            raise InvalidParameterError("lip_factor must be positive")


class SmoothSurrogate:
    """A scalar objective component over R^n, run through the tree's compiled kernel.

    One walk of ``expr`` checks it, gives n and compiles the kernel (see
    ``_compile``).  The gradient-Lipschitz factor is certified over ``box``;
    InvalidInputError unless the box passes ``_box``, or when its
    certification overflows.  Points are lists of n floats; any other sequence or array of shape (n,) is converted first.
    ``true_eval`` is the kernel at mu = 0.
    """

    def __init__(self, expr: Expr, box: tuple[Sequence[float], Sequence[float]]):
        self.expr = expr
        n, self._value, self._value_grad = _compile(expr)
        lo, hi = _box(box, n)
        where = f"certification over the box [{lo.tolist()}, {hi.tolist()}]"
        try:
            stats = expr.box_stats(lo, hi)
        except OverflowError as e:
            raise InvalidInputError(f"{where} overflows") from e
        if not math.isfinite(stats.curv):
            raise InvalidInputError(f"{where} gives the Lipschitz factor {stats.curv}")
        self.constants = SmoothingConstants(expr.kappa, max(stats.curv, 1e-12))
        self.n = n

    def eval(self, x: Sequence[float], mu: float, jac: bool = True) -> tuple[float, list[float] | None]:
        """Value and gradient at (x, mu) as the kernel gives them: a float and
        a list of n floats, or None for the gradient when ``jac`` is false.
        InvalidInputError for a point that is not a finite point of R^n, then
        InvalidParameterError unless mu is finite and positive.
        """
        x = _as_point(x, self.n)
        if not (_positive(mu) and mu < math.inf):
            raise InvalidParameterError(f"mu must be finite and positive, got {mu}")
        return self._value_grad(x, mu) if jac else (self._value(x, mu), None)

    def true_eval(self, x: Sequence[float]) -> float:
        return self._value(_as_point(x, self.n), 0.0)


def _box(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    """box as two float vectors (lo, hi) of size n with lo <= hi in every
    coordinate (so no nan); InvalidInputError otherwise."""
    try:
        lo, hi = box
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"box must be two vectors (lo, hi) of numbers, got {box!r}") from None
    if lo.shape != (n,) or hi.shape != (n,):
        raise InvalidInputError(f"box shapes {lo.shape}, {hi.shape} do not match leaves of size {n}")
    if not (lo <= hi).all():
        raise InvalidInputError(f"box [{lo.tolist()}, {hi.tolist()}] needs lo <= hi in every coordinate")
    return lo, hi


def _as_point(x, n: int) -> list[float]:
    """x as a list of n floats; InvalidInputError unless x is a point of R^n
    whose every coordinate is finite.

    A list whose entries sum to a finite float is taken as it is, so the
    solver's float lists pass with one sum() and no copy; anything else goes
    through NumPy and must have shape (n,).
    """
    if type(x) is list and len(x) == n:
        try:
            s = sum(x)
        except (TypeError, OverflowError):  # an entry that is no number, or an int too large
            s = None
        if type(s) is float and s - s == 0.0:  # s - s is nan for inf and nan
            return x
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (n,):
        try:
            shape = np.shape(x)
        except ValueError:  # a ragged sequence
            shape = (len(x),)
        what = " that does not hold numbers" if arr is None and shape == (n,) else ""
        raise InvalidInputError(f"expected a point of dimension {n}, got shape {shape}{what}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"expected a finite point, got {arr.tolist()}")
    return arr.tolist()


def compose_surrogate(expr: Expr, box: tuple[Sequence[float], Sequence[float]]) -> SmoothSurrogate:
    """Build a surrogate from an expression tree: ``SmoothSurrogate(expr, box)``
    once expr is known to be an expression node (UnsupportedAtomError if not)."""
    return SmoothSurrogate(_node(expr), box)


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
    InvalidParameterError unless n_samples is an integer >= 1 and rng_seed
    an integer >= 0; InvalidInputError unless the box passes ``_box`` and
    its bounds are finite, since the points are drawn uniformly from it.
    """
    _check_int(n_samples, "n_samples", 1)
    _check_int(rng_seed, "rng_seed", 0)  # NumPy seeds are nonnegative
    lo, hi = _box(box, s.n)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InvalidInputError(f"box [{lo.tolist()}, {hi.tolist()}] needs finite bounds to be sampled")
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
        g = np.array(g)
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
            ratio = float(np.linalg.norm(g - np.array(gy))) / dist
            lip_x = max(lip_x, ratio * mu / lip - 1.0)

    return SurrogateReport(kap_v, mu_v, conv_v, grad_e, lip_x)
