"""Exception types shared across the package, the integer check that raises
one, and the positivity test that other checks share."""

import operator


class InvalidParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class InvalidInputError(ValueError):
    """An input array has the wrong shape or violates a precondition."""


class UnsupportedAtomError(TypeError):
    """An expression tree contains a node type the composer does not know."""


class DivergingLipschitzError(RuntimeError):
    """Backtracking inflated the Lipschitz estimate past any plausible bound."""


class InsufficientDataError(ValueError):
    """Not enough usable data points for a fit."""


class WorkerExitError(RuntimeError):
    """A process of a parallel benchmark exited without sending its runs."""


def _check_int(value, name: str, least: int) -> None:
    """InvalidParameterError unless value is an integer >= least: one that
    operator.index takes, other than a bool."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _positive(value) -> bool:
    """Whether value > 0: False for nan and for a value that is no number."""
    try:
        return value > 0.0
    except TypeError:
        return False
