"""Similarity-gated selective blending of barycenter tokens.

For each blended token the nearest source and nearest target tokens are
located; when their cosine similarity is high (1 - sim <= tau) the
blended token is replaced by its nearest source token, preserving
source detail, otherwise the blended token is kept. The rule is a hard
per-token switch, never a soft mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .ot import squared_distances
from .tokens import TokenSet

_NORM_FLOOR = 1e-12

DEFAULT_TAU = 0.3


@dataclass(frozen=True)
class TokenDecision:
    nearest_source_index: int
    nearest_target_index: int
    sim: float
    kept_barycenter: bool


@dataclass(frozen=True)
class SelectionReport:
    """Per-token outcome of one selective blending pass.

    Every output token is bit-identical either to its input blended
    token or to the source token named in its decision record.
    """

    output: TokenSet
    decisions: tuple[TokenDecision, ...]
    tau: float


def selective_texture_tokens(
    blended: TokenSet, source: TokenSet, target: TokenSet, tau: float = DEFAULT_TAU
) -> SelectionReport:
    """Apply the per-token keep-or-copy rule to one blended frame.

    Args:
        blended: the barycenter tokens to refine.
        source: source token set (copy candidates).
        target: target token set (similarity reference).
        tau: threshold in [0, 1]; a token is kept as-is when
            1 - cos(nearest source, nearest target) > tau and replaced by
            its nearest source token otherwise.

    Returns:
        SelectionReport; when every token is kept, its ``output`` is
        ``blended`` itself.

    Raises:
        InvalidParameterError: if tau is outside [0, 1], or if a squared
            distance overflows float64.
        DimensionMismatchError: if the embedding dimensions differ.
    """
    if not (0.0 <= tau <= 1.0):
        raise InvalidParameterError(f"tau must be in [0, 1], got {tau!r}")
    if not (blended.m == source.m == target.m):
        raise DimensionMismatchError(
            f"dimensions differ: blended {blended.m}, source {source.m}, target {target.m}"
        )

    src_idx = _nearest_indices(blended.points, source.points)
    tgt_idx = _nearest_indices(blended.points, target.points)

    x = source.points[src_idx]
    y = target.points[tgt_idx]
    x_norm = np.linalg.norm(x, axis=1)
    y_norm = np.linalg.norm(y, axis=1)
    sims = np.zeros(blended.n)
    ok = (x_norm > _NORM_FLOOR) & (y_norm > _NORM_FLOOR)
    sims[ok] = np.einsum("ij,ij->i", x[ok], y[ok]) / (x_norm[ok] * y_norm[ok])
    sims = np.clip(sims, -1.0, 1.0)
    # Bitwise-equal pairs have cosine exactly 1; the dot/norm route can
    # land one ulp short of it.
    sims[ok & np.all(x == y, axis=1)] = 1.0

    kept = (1.0 - sims) > tau
    if kept.all():
        # np.where would rebuild the same bits; callers may rely on
        # ``output is blended`` to reuse work done for the blended frame.
        output = blended
    else:
        output = TokenSet(np.where(kept[:, None], blended.points, x), blended.weights)

    decisions = tuple(
        TokenDecision(int(src_idx[k]), int(tgt_idx[k]), float(sims[k]), bool(kept[k]))
        for k in range(blended.n)
    )
    return SelectionReport(output=output, decisions=decisions, tau=float(tau))


def morph_texture(trajectory, source: TokenSet, target: TokenSet, tau: float = DEFAULT_TAU):
    """Selective blending applied to every frame of a trajectory.

    Returns one SelectionReport per frame, in frame order.
    """
    return [
        selective_texture_tokens(frame, source, target, tau)
        for frame in trajectory.frames
    ]


def _nearest_indices(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Row index of the nearest candidate for every query row.

    Distances come from the cost matrix's row-blocked kernel; ties go to
    the smallest index.
    """
    return np.argmin(squared_distances(queries, candidates), axis=1)
