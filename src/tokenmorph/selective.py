"""Similarity-gated selective blending of barycenter tokens.

For each blended token the nearest source and nearest target tokens are
located; when their cosine similarity is high (1 - sim <= tau) the
blended token is replaced by its nearest source token, preserving
source detail, otherwise the blended token is kept. The rule is a hard
per-token switch, never a soft mix.

Nearest-token search returns exactly the index that ``np.argmin`` picks
over the einsum distances of ``ot.squared_distances`` (ties go to the
smallest index), but does its bulk work in BLAS:

- **Band.** Each row block gets scores ``q.c - |c|^2 / 2`` from one
  matrix product and one subtraction; the nearest candidate has the
  largest score. One rounding-error bound per row, taken at the
  farthest candidate, is that row's band. A row whose second-best
  score lies more than its band below its best takes the best: it is
  the einsum's unique minimum.
- **Per-pair bound on the same scores.** A row the band leaves open
  (ties, duplicated tokens, or one far-out candidate that widens every
  band) takes the band's bound per pair instead of at the farthest
  candidate, on the scores it already has. That keeps every candidate
  that could be the einsum's minimum and in practice almost nothing
  else.
- **Confirm.** A row left with one candidate takes it. A row left with
  more re-runs the einsum on its candidates.
- **Fallback.** When the bounds are not finite, the einsum kernel runs
  on the full matrix and raises on overflow exactly as ``cost_matrix``
  does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, require_fraction
from .ot import squared_distances
from .tokens import TokenSet

_NORM_FLOOR = 1e-12

DEFAULT_TAU = 0.3

# Bytes of one row block's n_rows x n' screening matrix. With the row
# band, 16 searches over m = 64 morph frames took 0.0046-0.0056 /
# 0.015-0.016 / 0.073 / 0.28 s at n = n' = 256 / 512 / 1024 / 2048 with
# 256 KiB blocks, against 0.0046-0.0090 / 0.013-0.016 / 0.059-0.062 /
# 0.19-0.22 s with 512 KiB to 4 MiB blocks (best of 3 to 15 runs in two
# to four processes, on a 2-vCPU Xeon with 2 MiB of L2 per core, numpy
# 2.4 with OpenBLAS). Larger blocks pay from n = 1024 on; 256 KiB serves
# the n = 256 and 512 sets of the CLI benchmark, with the smaller peak:
# there one 256 x 256 x 64 product took 0.41 ms, two 128-row halves
# 0.08 ms each.
_SCREEN_BLOCK_BYTES = 256 * 1024

_EPS = float(np.finfo(np.float64).eps)
_SMALLEST_SUBNORMAL = 2.0 ** -1074


# One record per blended token: its nearest source and target tokens,
# their cosine similarity, and whether the blended token was kept.
_DECISION_DTYPE = np.dtype([
    ("nearest_source_index", np.intp),
    ("nearest_target_index", np.intp),
    ("sim", np.float64),
    ("kept_barycenter", np.bool_),
])


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Per-token outcome of one selective blending pass.

    ``decisions`` is a read-only record array, one record per blended
    token: read a field as a column (``decisions.sim``) or per record
    (``decisions[k].sim``). Every output token is bit-identical either
    to its input blended token or to the source token named in its
    record. Reports compare by identity.
    """

    output: TokenSet
    decisions: np.recarray
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
    require_fraction("tau", tau)
    if not (blended.m == source.m == target.m):
        raise DimensionMismatchError(
            f"dimensions differ: blended {blended.m}, source {source.m}, target {target.m}"
        )

    src_idx, tgt_idx, sims = _similarity_field(blended, source, target)
    kept = _kept(sims, tau)
    if kept.all():
        # np.where would rebuild the same bits; callers may rely on
        # ``output is blended`` to reuse work done for the blended frame.
        output = blended
    else:
        points = np.where(kept[:, None], blended.points, source.points[src_idx])
        points.setflags(write=False)
        output = TokenSet(points, blended.weights)

    decisions = np.rec.fromarrays([src_idx, tgt_idx, sims, kept], dtype=_DECISION_DTYPE)
    decisions.flags.writeable = False
    return SelectionReport(output=output, decisions=decisions, tau=float(tau))


def morph_texture(trajectory, source: TokenSet, target: TokenSet, tau: float = DEFAULT_TAU):
    """Selective blending applied to every frame of a trajectory.

    Returns one SelectionReport per frame, in frame order.
    """
    return [
        selective_texture_tokens(frame, source, target, tau)
        for frame in trajectory.frames
    ]


def _similarity_field(
    blended: TokenSet, source: TokenSet, target: TokenSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest source index, nearest target index and their cosine
    similarity for every blended token. None of it depends on tau."""
    src_idx = _nearest_indices(blended.points, source.points)
    tgt_idx = _nearest_indices(blended.points, target.points)

    x = source.points[src_idx]
    y = target.points[tgt_idx]
    # Bitwise-equal pairs have cosine exactly 1; the dot/norm route can
    # land one ulp short of it.
    same = np.all(x == y, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        x_norm = np.linalg.norm(x, axis=1)
        y_norm = np.linalg.norm(y, axis=1)
        big = ~np.isfinite(x_norm * y_norm)
    ok = (x_norm > _NORM_FLOOR) & (y_norm > _NORM_FLOOR)
    if big.any():
        # Past about 1.34e154 a norm, or the product of two, overflows
        # though every coordinate is finite. The cosine does not depend
        # on scale and a power-of-two scale is exact, so those rows are
        # scaled to a largest coordinate in [0.5, 1): their sims are
        # those of the same rows scaled by any power of two that keeps
        # every step finite and normal. No other row changes.
        for z in (x, y):
            _, exponent = np.frexp(np.max(np.abs(z[big]), axis=1))
            z[big] = np.ldexp(z[big], -exponent[:, None])
        x_norm = np.linalg.norm(x, axis=1)
        y_norm = np.linalg.norm(y, axis=1)
    sims = np.zeros(blended.n)
    sims[ok] = np.einsum("ij,ij->i", x[ok], y[ok]) / (x_norm[ok] * y_norm[ok])
    sims = np.clip(sims, -1.0, 1.0)
    sims[ok & same] = 1.0
    return src_idx, tgt_idx, sims


def _kept(sims: np.ndarray, tau: float) -> np.ndarray:
    """The keep rule: True where a blended token stays, 1 - sim > tau."""
    return (1.0 - sims) > tau


def _nearest_indices(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Row index of the nearest candidate for every query row.

    Returns exactly ``np.argmin(squared_distances(queries, candidates),
    axis=1)``, whatever BLAS runs the screening products and with however
    many threads, and raises ``InvalidParameterError`` in exactly the
    cases where that call does.

    Each block of query rows gets the scores ``g = q.c - |c|^2 / 2`` from
    one GEMM and one subtraction, the block's only matrix product. As
    ``|q - c|^2 = |q|^2 - 2 (q.c - |c|^2 / 2)``, the nearest candidate
    has the largest exact score. With ``rho`` bounding how far ``2 g_k``
    can sit from ``|q|^2 - e_k`` for the einsum's distance ``e_k``, the
    einsum's minimizer k has ``g_k + rho_k / 2 >= g_j - rho_j / 2`` for
    every j. The band ``B = gamma (|q| + max |c|)^2 + beta`` is at least
    every ``rho`` of the row. So when the row's second-best score is below
    ``best - B``, the argmax is the einsum's unique minimum, and no tie
    rule comes into play.

    Rows the band leaves open go to ``_per_pair_nearest`` with their
    scores, where ``b = gamma (|q| + |c|)^2 + beta`` bounds each pair's
    own ``rho``, and those it leaves open to the einsum on their
    candidates.

    Memory stays at a few n_rows x n' blocks of at most
    ``_SCREEN_BLOCK_BYTES`` each plus O(n + n').
    """
    n, m = queries.shape
    n_cand = candidates.shape[0]
    # Error model: IEEE 754 double with gradual underflow, u = eps / 2.
    # Every product or square x*y rounds to (x*y)(1 + delta) + eta with
    # |delta| <= u and |eta| <= 2^-1075; sums and differences round with
    # delta alone, as a subnormal sum is exact. The bounds below are the
    # dot-product bounds of Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1, plus that absolute term.
    # Let D = |q - c|^2 <= (|q| + |c|)^2 =: S, gamma_k = k u / (1 - k u),
    # and G = q.c - |c|^2 / 2 = (|q|^2 - D) / 2 the exact score.
    # - The einsum sums m rounded squares of rounded differences in some
    #   order: |e - D| <= gamma_{m+2} D + m eta.
    # - The GEMM's q.c (any order, with or without FMA) is within
    #   gamma_m |q| |c| + m eta, and |c|^2 within gamma_m |c|^2 + m eta.
    #   Halving is exact but for at most eta below 2^-1021. The
    #   subtraction adds u |q.c - |c|^2 / 2| <= u S / 2, as |q| |c| +
    #   |c|^2 / 2 <= S / 2: |g - G| <= gamma_{m+1} S / 2 + (3m/2 + 1) eta.
    # - So r = 2 g + e - |q|^2 = 2 (g - G) + (e - D) has |r| <= rho :=
    #   2 gamma_{m+2} S + (4m + 2) eta, at the pair's own S. If e_k <= e_j,
    #   then 2 g_k = |q|^2 - e_k + r_k >= |q|^2 - e_j + r_k = 2 g_j - r_j
    #   + r_k, so g_k + rho_k / 2 >= g_j - rho_j / 2.
    # - Band: with both rho taken at S_max = (|q| + max |c|)^2, g_k >= g_j
    #   - rho. The test's own subtraction best - B rounds by at most u
    #   (|best| + B) <= u (S_max / 2 + B).
    # - Per pair: with b_k >= rho_k, the exact g_k + b_k / 2 >= g_j - b_j /
    #   2, and as rounding is monotone the computed sides keep it.
    # - B's and b's rounding, from the computed norms on, is relative, a
    #   few u.
    # So the band needs about (m + 2.5) eps S_max + (2m + 1) 2^-1074.
    # gamma = 2 (m + 4) eps is about twice that factor, the slack covering
    # the rounding of the computed norms and of B itself; beta =
    # 8 (m + 4) 2^-1074 is over four times the absolute term, which only
    # bites when distances are subnormal (coordinates near 1e-160).
    gamma, beta = 2.0 * (m + 4) * _EPS, 8.0 * (m + 4) * _SMALLEST_SUBNORMAL

    q_sq = np.einsum("ij,ij->i", queries, queries)
    c_sq = np.einsum("ij,ij->i", candidates, candidates)
    q_norm = np.sqrt(q_sq)
    c_norm = np.sqrt(c_sq)
    # Python floats: an overflow here gives inf, without a RuntimeWarning.
    c_max = float(c_norm.max())
    s = float(q_norm.max()) + c_max
    # (1 + 2 gamma) S bounds every e, 2 |g| and 2 |g| + b, so none can
    # overflow; past it no bound is certified, and the einsum decides
    # (and raises exactly as the full kernel does).
    if not math.isfinite((1.0 + 2.0 * gamma) * s * s):
        return np.argmin(squared_distances(queries, candidates), axis=1)

    half_c_sq = 0.5 * c_sq
    band = gamma * (q_norm + c_max) ** 2 + beta
    nearest = np.empty(n, dtype=np.intp)
    rows = max(1, _SCREEN_BLOCK_BYTES // (8 * n_cand))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        g = queries[lo:hi] @ candidates.T
        g -= half_c_sq
        best_col = np.argmax(g, axis=1)
        block_rows = np.arange(hi - lo)
        best = g[block_rows, best_col]
        g[block_rows, best_col] = -np.inf
        # The second-best score; argmax and a gather take half the time
        # of a max along rows.
        second = g[block_rows, np.argmax(g, axis=1)]
        nearest[lo:hi] = best_col
        open_rows = np.flatnonzero(second >= best - band[lo:hi])
        if open_rows.size:
            g[block_rows, best_col] = best
            # A block with every row open (one far-out candidate) is
            # scored in place: copying it took such a search from 0.7-0.9
            # to 1.5-2.1 ms, as glibc trimmed the heap top and faulted it
            # back in on every call.
            if open_rows.size < hi - lo:
                g = g[open_rows]
            open_rows += lo
            nearest[open_rows] = _per_pair_nearest(
                g, queries[open_rows], candidates, q_norm[open_rows], c_norm, gamma, beta)
        # Held into the next block's product, g took 16 searches over
        # criterion 10's frames from 4.6-5.1 to 7.8-9.9 ms (page faults).
        del g
    return nearest


def _per_pair_nearest(g: np.ndarray, queries: np.ndarray, candidates: np.ndarray,
                      q_norm: np.ndarray, c_norm: np.ndarray, gamma: float,
                      beta: float) -> np.ndarray:
    """The einsum's nearest candidate for query rows the band left open,
    from their scores ``g``, which it overwrites.

    Candidate k stays when ``g_k + b_k / 2 >= max_j (g_j - b_j / 2)``,
    with ``b = gamma (|q| + |c|)^2 + beta`` the per-pair bound derived in
    ``_nearest_indices``. Every minimizer of the einsum stays, and so does
    the largest score (b >= 0), so a row with one candidate takes it. Rows
    with more re-run ``squared_distances`` on their candidates, whose
    values are the einsum's bit for bit, and take the smallest index among
    the exact minima.
    """
    half_b = np.add.outer(q_norm, c_norm)
    half_b *= half_b
    half_b *= 0.5 * gamma
    half_b += 0.5 * beta
    floor = np.max(g - half_b, axis=1)
    g += half_b
    candidate = g >= floor[:, None]
    nearest = np.argmax(candidate, axis=1)
    for i in np.flatnonzero(np.count_nonzero(candidate, axis=1) > 1):
        cols = np.flatnonzero(candidate[i])
        exact = squared_distances(queries[i:i + 1], candidates[cols])
        nearest[i] = cols[np.argmin(exact[0])]
    return nearest
