"""Exception types shared across the package, and one check per kind of value.

Each check raises InvalidParameterError naming the value as the caller
asks, so a library field and a CLI flag share one rule and one wording.
None of them takes ``bool`` or ``np.bool_``: both compare as 0 and 1,
but neither is a count, a fraction or a threshold.
"""

import math
import operator

import numpy as np


class TokenMorphError(Exception):
    """Base class for all tokenmorph errors."""


class DimensionMismatchError(TokenMorphError):
    """Embedding dimensions or token counts of inputs do not agree."""


class InvalidWeightsError(TokenMorphError):
    """Token weights are not strictly positive or do not sum to one."""


class InvalidParameterError(TokenMorphError):
    """A parameter is outside its documented range."""


class SolverFailureError(TokenMorphError):
    """A solver failed to produce a feasible result within tolerance."""


class FormatError(TokenMorphError):
    """A token file is malformed."""


class BadMagicError(FormatError):
    """A binary token file does not start with the expected magic bytes."""


class TruncatedPayloadError(FormatError):
    """A token file ends before its declared payload is complete."""


_BOOLS = (bool, np.bool_)


def require_count(name: str, value, minimum: int) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer >= ``minimum``.

    Any type with ``__index__`` counts as an integer, ``np.int64`` too;
    ``bool`` has one but does not count. Floats fail even when whole,
    since ``range()`` rejects them.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if isinstance(value, _BOOLS) or count is None or count < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_fraction(name: str, value) -> None:
    """Raise InvalidParameterError unless ``0 <= value <= 1`` (NaN fails)."""
    if isinstance(value, _BOOLS) or not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")


def require_threshold(name: str, value) -> None:
    """Raise InvalidParameterError unless ``value`` is a finite number > 0.

    Every value is below inf, so an infinite stop threshold would stop
    an iteration after one step and report it converged.
    """
    if isinstance(value, _BOOLS) or not 0.0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be a finite number > 0, got {value!r}")
