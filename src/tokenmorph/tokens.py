"""Token sets: finite weighted point clouds in embedding space.

A token set is the discrete-measure view of an embedding matrix: each
row is an atom, each atom carries a strictly positive weight, and the
weights sum to one. Uniform weights are the default and the common case.

A set's points and weights are read-only float64 arrays that own their
memory, and so is every other array field in the package, in its own
dtype, by ``read_only_array``'s rule. Every producer in the package
hands its fresh arrays over read-only (the readers, ``index_lerp``, the
OT solver's support arrays, morph frames, barycenter sweeps and
selective outputs), so they are adopted without a copy. A read allocates its points once (a BMT1 read
copies its ``np.frombuffer`` view once), a 1-D ``points`` input is
copied once, straight into its (n, 1) column, and the frames of a
sequential morph all share the plan's ``mass`` as their weights. Points
and weights are numbers, never the booleans np.asarray reads as 1.0 and
0.0: ``holds_bool`` is the package's one scan for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    _BOOLS,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    require_fraction,
)

WEIGHT_SUM_TOL = 1e-12


def read_only_array(value, dtype=np.float64) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array that owns its memory.

    An array that already is one is returned unchanged and adopted: its
    producer hands it over and must not make it writable again. Anything
    else (a writable array, a view, a list, another dtype) is copied
    exactly once, and the copy is marked read-only. This is the one place
    that decides between copying and keeping an array.
    """
    array = np.asarray(value, dtype=dtype)
    if array is value and not array.flags.writeable and array.flags.owndata:
        return array
    # From a list or by a dtype cast, np.asarray built a new array: that is
    # the copy. Another object's array may be shared, so it is copied.
    built = (array is not value and array.flags.owndata
             and isinstance(value, (list, tuple, np.ndarray)))
    if not built:
        array = array.copy()
    array.setflags(write=False)
    return array


def holds_bool(value) -> bool:
    """True if ``value`` is a boolean, a boolean array, or a list or tuple
    that nests one: np.asarray reads True and False as 1.0 and 0.0.

    Called on values np.asarray accepted, so the nesting depth is at
    most the array's number of dimensions; an array costs one dtype check.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b"
    if isinstance(value, (list, tuple)):
        return any(holds_bool(item) for item in value)
    return isinstance(value, _BOOLS)


@dataclass(frozen=True, eq=False)
class TokenSet:
    """An immutable set of n embedding tokens in R^m with positive weights.

    Args:
        points: array-like of shape (n, m); a 1-D array is treated as n
            tokens in R^1. Coordinates must be finite numbers, not
            booleans.
        weights: optional length-n vector of strictly positive reals
            summing to 1 (within 1e-12), not booleans. Defaults to
            uniform 1/n.

    The stored arrays are read-only float64 arrays that own their memory,
    as ``read_only_array`` makes them, so instances can be shared freely
    between threads.
    """

    points: np.ndarray
    weights: np.ndarray | None = None
    # A set read with ``keep_text`` carries its row table, each row's bytes
    # mapped to its text in the file, built once by ``tokenio``'s reader:
    # ``tokens_to_json_bytes`` splices a file from the one table in
    # ``like`` that holds its first row, if it holds every row.
    _json_rows: dict[bytes, memoryview] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = read_only_array(self.points)
        if holds_bool(self.points):
            raise InvalidParameterError("token coordinates must be numbers, not booleans")
        if pts.ndim == 1:
            # A column in place, not a reshape view, which would be copied
            # again; only a caller's adopted array needs a copy first.
            if pts is self.points:
                pts = pts.copy()
            pts.shape = (-1, 1)
            pts.setflags(write=False)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidParameterError(
                f"token matrix must be n x m with n >= 1 and m >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("token coordinates must be finite")
        n = pts.shape[0]

        if self.weights is None:
            # A broadcast view, so its one copy is the uniform weights.
            w = read_only_array(np.broadcast_to(1.0 / n, n))
        else:
            w = read_only_array(self.weights)
            if holds_bool(self.weights):
                raise InvalidWeightsError("weights must be numbers, not booleans")
            if w.shape != (n,):
                raise InvalidWeightsError(
                    f"weights must have shape ({n},), got {w.shape}"
                )
            if not np.all(np.isfinite(w)):
                raise InvalidWeightsError("weights must be finite")
            if np.any(w <= 0.0):
                raise InvalidWeightsError("weights must be strictly positive")
            total = float(w.sum())
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                raise InvalidWeightsError(
                    f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        """Number of tokens."""
        return self.points.shape[0]

    @property
    def m(self) -> int:
        """Embedding dimension."""
        return self.points.shape[1]

    def has_uniform_weights(self) -> bool:
        """True when every weight equals 1/n within 1e-12."""
        # max |w - 1/n| from the extremes: rounding w - 1/n is monotone in w.
        w, uniform = self.weights, 1.0 / self.n
        return bool(w.max() - uniform <= 1e-12 and uniform - w.min() <= 1e-12)


def require_same_dimension(a: TokenSet, b: TokenSet) -> None:
    if a.m != b.m:
        raise DimensionMismatchError(
            f"embedding dimensions differ: {a.m} vs {b.m}"
        )


def require_same_size(a: TokenSet, b: TokenSet) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"token counts differ: {a.n} vs {b.n}")


def index_lerp(a: TokenSet, b: TokenSet, t: float) -> TokenSet:
    """Index-wise linear interpolation (1-t)*a[k] + t*b[k].

    Requires ``t`` in [0, 1] and equal token counts and dimensions; the
    result carries uniform weights.

    Raises:
        InvalidParameterError: if ``t`` is not a number in [0, 1].
        DimensionMismatchError: if the counts or dimensions differ.
    """
    require_fraction("t", t)
    require_same_dimension(a, b)
    require_same_size(a, b)
    points = (1.0 - t) * a.points + t * b.points
    points.setflags(write=False)
    return TokenSet(points)
