"""Benchmark problem registry.

Six two-objective instances (BK1, CB3&LQ, CB3&MF1, CR&MF2, JOS1, SP1), each
with two smooth(ed) components plus a shared nonsmooth term
g(x) = (1/n) * ||x||_1.  Each objective is F_i(x) = f_i(x) + g(x).

Problem specs are immutable and shareable; the solver counts function
evaluations itself, so nothing is tallied on the spec.  A problem is its
components: ``eval_smooth`` and ``eval_true`` check the point once and then
call each component's ``SmoothSurrogate`` in order, and the first component
that overflows or is not finite is named at once.  The solver's step runs
the same trees' lines inline (``solver._step_lines``).
"""

from __future__ import annotations

import enum
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


def eval_true(p: ProblemSpec, x: Sequence[float]) -> np.ndarray:
    """Exact nonsmooth objective vector (F_1(x), ..., F_m(x)).

    Raises InvalidInputError when x is not a finite point of R^n, and then
    naming the first component whose value plus g overflows or is not
    finite.  ``_point`` checks the point once; each component's
    ``true_eval`` runs in order, and none runs after the first at fault.
    """
    x = _point(p, x)
    g = _g(p, x)
    values = []
    for i, s in enumerate(p.smooth_parts):
        try:
            v = s.true_eval(x) + g
        except OverflowError as e:
            raise _not_finite(p, x, i, "overflows") from e
        if v - v != 0.0:  # v - v is nan for inf and nan
            raise _not_finite(p, x, i, f"is {v}")
        values.append(v)
    return np.array(values)


def eval_smooth(
    p: ProblemSpec, x: Sequence[float], mu: float, jac: bool = True
) -> tuple[list[float], list[list[float]] | None]:
    """Smoothed components and their Jacobian at (x, mu); g is excluded.

    The values come back as a list of m floats and the Jacobian as m rows of
    n floats; with ``jac`` false the Jacobian is not formed and None is
    returned in its place.  Raises InvalidInputError naming the problem when
    x is not a finite point of R^n, then InvalidParameterError unless mu is
    finite and positive, and InvalidInputError naming the problem, x and the
    first component whose value overflows or is not finite.  ``_point``
    checks the point once; each component's ``SmoothSurrogate.eval`` runs in
    order (the first checks mu), and none runs after the first at fault.
    """
    x = _point(p, x)
    values, rows = [], [] if jac else None
    for i, s in enumerate(p.smooth_parts):
        try:
            v, row = s.eval(x, mu, jac)
        except OverflowError as e:
            raise _not_finite(p, x, i, "overflows") from e
        if v - v != 0.0:  # v - v is nan for inf and nan
            raise _not_finite(p, x, i, f"is {v}")
        values.append(v)
        if jac:
            rows.append(row)
    return values, rows


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
