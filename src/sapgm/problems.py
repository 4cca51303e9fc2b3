"""Benchmark problem registry.

Six two-objective instances (BK1, CB3&LQ, CB3&MF1, CR&MF2, JOS1, SP1), each
with two smooth(ed) components plus a shared nonsmooth term
g(x) = (1/n) * ||x||_1.  Each objective is F_i(x) = f_i(x) + g(x).

Problem specs are immutable and shareable; the solver counts function
evaluations itself, so nothing is tallied on the spec.  Each spec compiles
its m trees once, when it is built, into one problem kernel: ``eval_smooth``
and ``eval_true`` each make one checked call to it per evaluation.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, _check_int
from .smoothing import (
    Abs,
    Affine,
    Exp,
    Expr,
    Max2,
    MaxList,
    Plus,
    Quartic,
    Scale,
    SmoothSurrogate,
    Square,
    Sum,
    _as_point,
    _compile_source,
    _tree_source,
    compose_surrogate,
)

__all__ = [
    "GKind",
    "ProblemSpec",
    "registry",
    "get_problem",
    "eval_true",
    "eval_smooth",
    "sample_start",
]


class _ProblemKernel(SmoothSurrogate):
    """The m trees of a problem compiled into one kernel (see ``_compile``):
    ``eval`` gives the m values and the m gradient rows as float lists, and
    ``true_eval`` the m exact values.  ``source`` keeps the lines it was
    compiled from, which the solver splices into the problem's backtracking
    step.

    It is a subclass, not a sibling, so that it inherits ``eval`` and
    ``true_eval`` with their checks: perfbench's tracer rebinds
    ``SmoothSurrogate.eval`` and ``SmoothSurrogate.true_eval`` on the class,
    and an instance of a subclass finds the rebound method at call time, so
    each problem evaluation stays a ``smoothing.eval`` span.  It certifies
    nothing: the box and the constants stay with the components.
    """

    def __init__(self, exprs: Sequence[Expr]):
        self.source = _tree_source(exprs)
        self.n, self._value, self._value_grad = _compile_source(self.source)


class GKind(enum.Enum):
    """The nonsmooth term g: only (1/n) ||x||_1, which specs such as perfbench's wide_m3 name."""

    SCALED_L1 = "scaled_l1"  # g(x) = (1/n) ||x||_1


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n: int
    m: int
    smooth_parts: tuple[SmoothSurrogate, ...]
    g_kind: GKind
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.g_kind is not GKind.SCALED_L1:
            raise InvalidParameterError(f"g_kind must be GKind.SCALED_L1, got {self.g_kind!r}")
        if self.m < 2:
            raise InvalidParameterError("need at least two objectives")
        if len(self.smooth_parts) != self.m:
            raise InvalidInputError("smooth_parts length must equal m")
        for b in (self.lower, self.upper):
            if np.shape(b) != (self.n,) or not np.isfinite(b).all():
                raise InvalidParameterError(f"bounds must be {self.n} finite numbers, got {b!r}")
        if not np.all(self.lower < self.upper):
            raise InvalidParameterError("lower bound must be strictly below upper bound")
        for s in self.smooth_parts:
            if s.n != self.n:
                raise InvalidInputError("surrogate dimension does not match problem")
        # not a field, so ==, repr and the fields stay those of the spec
        object.__setattr__(self, "_kernel", _ProblemKernel([s.expr for s in self.smooth_parts]))

    @property
    def lip_bound(self) -> float:
        return max(s.constants.lip_factor for s in self.smooth_parts)


def _point(p: ProblemSpec, x: Sequence[float]) -> list[float]:
    """x as a list of p.n finite floats; InvalidInputError naming the problem otherwise."""
    try:
        return _as_point(x, p.n)
    except InvalidInputError as e:
        raise InvalidInputError(f"{p.name}: {e}") from None


def _g(p: ProblemSpec, x: list[float]) -> float:
    """Shared nonsmooth term at a point that has already passed _point."""
    s = 0.0
    for v in x:
        s += abs(v)
    return s / p.n


def _not_finite(p: ProblemSpec, x: list[float], i: int, what: str) -> InvalidInputError:
    return InvalidInputError(f"{p.name}: component {i + 1} at x = {x} {what}")


def _fault(p: ProblemSpec, x: Sequence[float], value, g: float = 0.0) -> InvalidInputError:
    """The error naming the first component whose ``value(s, x) + g`` overflows
    or is not finite, at x as a float list.

    The problem kernel ran into such a component; it runs each component's
    operations in the component's order, so evaluating the components one by
    one, in order, meets the same fault first.
    """
    x = _point(p, x)
    for i, s in enumerate(p.smooth_parts):
        try:
            v = value(s, x) + g
        except OverflowError as e:
            err = _not_finite(p, x, i, "overflows")
            err.__cause__ = e
            return err
        if not math.isfinite(v):
            return _not_finite(p, x, i, f"is {v}")
    raise AssertionError(f"{p.name}: the problem kernel faulted at x = {x}, but no component does")


def eval_true(p: ProblemSpec, x: Sequence[float]) -> np.ndarray:
    """Exact nonsmooth objective vector (F_1(x), ..., F_m(x)).

    Raises InvalidInputError when x is not a finite point of R^n or a
    component overflows or is not finite.  ``_point`` checks the point, and
    one ``true_eval`` call on the problem kernel, whose check of that float
    list is one sum, gives the m exact values; one pass checks them plus g.
    Only on an error path do the components run one by one, to name the
    first at fault.
    """
    x = _point(p, x)
    g = _g(p, x)
    try:
        values = p._kernel.true_eval(x)
    except OverflowError:
        pass
    else:
        values = [v + g for v in values]
        for v in values:
            if v - v != 0.0:  # v - v is nan for inf and nan
                break
        else:
            return np.array(values)
    raise _fault(p, x, lambda s, x: s.true_eval(x), g)


def eval_smooth(
    p: ProblemSpec, x: Sequence[float], mu: float, jac: bool = True
) -> tuple[list[float], list[list[float]] | None]:
    """Smoothed components and their Jacobian at (x, mu); g is excluded.

    The values come back as a list of m floats and the Jacobian as m rows of
    n floats; with ``jac`` false the Jacobian is not formed and None is
    returned in its place.  Raises InvalidInputError naming the problem when
    x is not a finite point of R^n, then InvalidParameterError unless mu is
    finite and positive, and InvalidInputError naming the problem and x when
    a component value overflows or is not finite.  One
    ``SmoothSurrogate.eval`` call on the problem kernel checks the point and
    mu, in that order, and runs all m components; one pass checks the m
    values.  Only on an error path does ``_point`` run, to name x as a float
    list, and the components run one by one to name the first at fault.
    """
    try:
        values, rows = p._kernel.eval(x, mu, jac)
    except InvalidInputError as e:  # x is not a finite point of R^n
        raise InvalidInputError(f"{p.name}: {e}") from None
    except OverflowError:
        pass
    else:
        for v in values:
            if v - v != 0.0:  # v - v is nan for inf and nan
                break
        else:
            return values, rows
    raise _fault(p, x, lambda s, x: s.eval(x, mu, jac)[0])


def sample_start(p: ProblemSpec, seed: int) -> np.ndarray:
    """Deterministic uniform draw from the start box; InvalidParameterError
    unless seed is an integer >= 0 (NumPy seeds are nonnegative)."""
    _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    return rng.uniform(p.lower, p.upper)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def _x(i: int, shift: float = 0.0) -> Affine:
    w = np.zeros(2)
    w[i] = 1.0
    return Affine(w, shift)


def _const(c: float) -> Affine:
    return Affine(np.zeros(2), c)


def _cb3() -> Expr:
    # max{ x1^4 + x2^2, (2 - x1)^2 + (2 - x2)^2, 2 e^{x2 - x1} }
    return MaxList(
        [
            Sum([Quartic(_x(0)), Square(_x(1))]),
            Sum([Square(Affine([-1.0, 0.0], 2.0)), Square(Affine([0.0, -1.0], 2.0))]),
            Scale(2.0, Exp(Affine([-1.0, 1.0], 0.0))),
        ]
    )


def _unit_ball_gap() -> Expr:
    # x1^2 + x2^2 - 1
    return Sum([Square(_x(0)), Square(_x(1)), _const(-1.0)])


def _build(name: str, exprs: list[Expr], lower, upper) -> ProblemSpec:
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    # certify Lipschitz factors over a widened box; iterates may leave the
    # start box, the widening keeps the diagnostic bound honest in practice
    margin = 0.5 * (upper - lower) + 5.0
    box = (lower - margin, upper + margin)
    parts = tuple(compose_surrogate(e, box) for e in exprs)
    return ProblemSpec(name, 2, len(exprs), parts, GKind.SCALED_L1, lower, upper)


def _build_registry() -> tuple[ProblemSpec, ...]:
    bk1 = _build(
        "BK1",
        [
            Sum([Square(_x(0)), Square(_x(1))]),
            Sum([Square(_x(0, shift=-5.0)), Square(_x(1, shift=-5.0))]),
        ],
        (-5.0, -5.0),
        (10.0, 10.0),
    )
    cb3_lq = _build(
        "CB3&LQ",
        [
            _cb3(),
            Max2(
                Affine([-1.0, -1.0], 0.0),
                Sum([Affine([-1.0, -1.0], -1.0), Square(_x(0)), Square(_x(1))]),
            ),
        ],
        (1.5, 1.5),
        (2.0, 2.0),
    )
    cb3_mf1 = _build(
        "CB3&MF1",
        [
            _cb3(),
            Sum([Affine([-1.0, 0.0], 0.0), Scale(20.0, Plus(_unit_ball_gap()))]),
        ],
        (0.0, 0.0),
        (1.0, 1.0),
    )
    cr_mf2 = _build(
        "CR&MF2",
        [
            Max2(
                Sum([Square(_x(0)), Square(_x(1, shift=-1.0)), Affine([0.0, 1.0], -1.0)]),
                Sum(
                    [
                        Scale(-1.0, Square(_x(0))),
                        Scale(-1.0, Square(_x(1, shift=-1.0))),
                        Affine([0.0, 1.0], 1.0),
                    ]
                ),
            ),
            Sum(
                [
                    Affine([-1.0, 0.0], 0.0),
                    Scale(2.0, _unit_ball_gap()),
                    Scale(1.75, Abs(_unit_ball_gap())),
                ]
            ),
        ],
        (1.5, 1.5),
        (2.0, 2.0),
    )
    jos1 = _build(
        "JOS1",
        [
            Scale(0.5, Sum([Square(_x(0)), Square(_x(1))])),
            Scale(0.5, Sum([Square(_x(0, shift=-2.0)), Square(_x(1, shift=-2.0))])),
        ],
        (-5.0, -5.0),
        (5.0, 5.0),
    )
    sp1 = _build(
        "SP1",
        [
            Sum([Square(_x(0, shift=-1.0)), Square(Affine([1.0, -1.0], 0.0))]),
            Sum([Square(_x(1, shift=-3.0)), Square(Affine([1.0, -1.0], 0.0))]),
        ],
        (2.0, -2.0),
        (3.0, 3.0),
    )
    return bk1, cb3_lq, cb3_mf1, cr_mf2, jos1, sp1


# (the compose_surrogate the specs were built with, the specs)
_REGISTRY: tuple[object, tuple[ProblemSpec, ...]] | None = None


def _registry() -> tuple[ProblemSpec, ...]:
    """The six instances, built once per process.

    The cache is keyed on the `compose_surrogate` in use, so rebinding it
    (perfbench's tracer does) builds the instances afresh through it.
    """
    global _REGISTRY
    if _REGISTRY is None or _REGISTRY[0] is not compose_surrogate:
        _REGISTRY = (compose_surrogate, _build_registry())
    return _REGISTRY[1]


def registry() -> list[ProblemSpec]:
    """The six benchmark instances, in table order (1-based index = position + 1)."""
    return list(_registry())


def get_problem(key: str | int) -> ProblemSpec:
    """Look up a problem by name (case-insensitive) or 1-based table index: decimal
    digits or an integer that operator.index takes (a bool is none); InvalidInputError otherwise."""
    probs = _registry()
    idx = int(key) if isinstance(key, str) and key.isdecimal() else key
    if isinstance(idx, str):
        for p in probs:
            if p.name.lower() == idx.lower():
                return p
    elif hasattr(idx, "__index__") and not isinstance(idx, bool):
        idx = operator.index(idx)
        if not 1 <= idx <= len(probs):
            raise InvalidInputError(f"problem index out of range: {key}")
        return probs[idx - 1]
    raise InvalidInputError(f"unknown problem: {key!r}")
