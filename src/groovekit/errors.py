"""Exception types shared across the package, and the parameter rules."""

import math
import operator

import numpy as np


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


def _check_positive(name: str, value: float) -> float:
    """``value`` as a ``float`` (which ``json.dumps`` takes and numpy floats
    are not), positive and finite."""
    number = _real(name, value)
    if not 0.0 < number < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return number


def _check_finite(name: str, value: float) -> float:
    """``value`` as a ``float``, finite."""
    number = _real(name, value)
    if not math.isfinite(number):
        raise ParameterError(f"{name} must be finite, got {value}")
    return number


def _real(name: str, value) -> float:
    """``value`` as a ``float``, if ``math`` takes it as a real number (numpy
    scalars do; a string, None or a complex number raises a ``TypeError``
    that does not name the parameter)."""
    try:
        math.isfinite(value)  # float() would parse a string
    except TypeError:
        raise ParameterError(f"{name} must be a real number, got {value!r}") from None
    return float(value)


def _first_nonfinite(values) -> int | None:
    """Index of the first NaN or infinity in the 1-D array ``values``, or
    None when every value is finite."""
    # two reductions, not a values-sized mask: a NaN makes min() and max()
    # NaN, and an infinity is one of them; the mask is built only to find it
    if not len(values) or (math.isfinite(values.min()) and math.isfinite(values.max())):
        return None
    return int(np.flatnonzero(~np.isfinite(values))[0])


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
