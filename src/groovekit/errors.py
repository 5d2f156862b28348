"""Exception types shared across the package, and the parameter rules."""

import math
import operator


class GrooveKitError(Exception):
    """Base class for all groovekit errors."""


class ParameterError(GrooveKitError, ValueError):
    """A parameter is outside its valid range or inputs are unusable."""


class FormatError(GrooveKitError, ValueError):
    """An input file has an unsupported or malformed encoding."""


class EditError(GrooveKitError, ValueError):
    """An annotation edit could not be resolved against the onset list."""


class EstimationError(GrooveKitError, RuntimeError):
    """An iterative estimate failed to converge or is undefined."""


class FitError(GrooveKitError, ValueError):
    """A regression has too few or degenerate points to fit."""


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``: a whole number (what ``operator.index``
    accepts, so numpy integers but not ``2.0``) of at least ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {count}")
    return count
