"""Exception types shared across the package, and the integer and fraction checks."""

import operator


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


def require_count(name: str, value, minimum: int) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer >= ``minimum``.

    Any type with ``__index__`` counts as an integer, ``np.int64`` too.
    ``bool`` does not, although it has one: ``True`` would silently read
    as 1. Floats fail even when whole, since ``range()`` rejects them.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if isinstance(value, bool) or count is None or count < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_fraction(name: str, value) -> None:
    """Raise InvalidParameterError unless ``0 <= value <= 1`` (NaN fails)."""
    if not (0.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
