"""Token sets: finite weighted point clouds in embedding space.

A token set is the discrete-measure view of an embedding matrix: each
row is an atom, each atom carries a strictly positive weight, and the
weights sum to one. Uniform weights are the default and the common case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, InvalidWeightsError

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TokenSet:
    """An immutable set of n embedding tokens in R^m with positive weights.

    Args:
        points: array-like of shape (n, m); a 1-D array is treated as n
            tokens in R^1. Coordinates must be finite.
        weights: optional length-n vector of strictly positive reals
            summing to 1 (within 1e-12). Defaults to uniform 1/n.

    The stored arrays are float64 and marked read-only, so instances can
    be shared freely between threads.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidParameterError(
                f"token matrix must be n x m with n >= 1 and m >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("token coordinates must be finite")
        n = pts.shape[0]

        w = self.weights
        if w is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(w, dtype=np.float64)
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

        pts = np.array(pts, copy=True)
        pts.setflags(write=False)
        w = np.array(w, copy=True)
        w.setflags(write=False)
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
        return bool(np.max(np.abs(self.weights - 1.0 / self.n)) <= 1e-12)


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

    Requires equal token counts and dimensions; the result carries
    uniform weights.
    """
    require_same_dimension(a, b)
    require_same_size(a, b)
    return TokenSet((1.0 - t) * a.points + t * b.points)
