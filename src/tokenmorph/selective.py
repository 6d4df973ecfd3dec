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
- **Per-pair bound.** A row the band leaves open (ties, duplicated
  tokens, or one far-out candidate that widens every band) gets
  distances ``|q|^2 + |c|^2 - 2 q.c`` and one bound per pair, which
  keeps every candidate that could be the einsum's minimum and in
  practice almost nothing else.
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
    one GEMM and one subtraction. As ``|q - c|^2 = |q|^2 - 2 (q.c -
    |c|^2 / 2)``, the nearest candidate has the largest exact score. With
    ``rho`` bounding how far ``2 g_k`` can sit from ``|q|^2 - e_k`` for
    the einsum's distance ``e_k``, every k with ``e_k <= e_j`` has ``g_k
    >= g_j - rho``. The band ``B = gamma (|q| + max |c|)^2 + beta`` is at
    least ``rho`` for every candidate of the row. So when the row's
    second-best score is below ``best - B``, the argmax j has ``e_j <
    e_k`` for every other k: it is the einsum's unique minimum, and no
    tie rule comes into play.

    Rows the band leaves open go to ``_per_pair_nearest``, the per-pair
    bound, and those it leaves open to the einsum on their candidates.

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
    #   2 gamma_{m+2} S + (4m + 2) eta. If e_k <= e_j, then 2 g_k =
    #   |q|^2 - e_k + r_k >= |q|^2 - e_j + r_k = 2 g_j - r_j + r_k, so
    #   g_k >= g_j - rho with rho taken at S_max = (|q| + max |c|)^2.
    # - The test's own subtraction best - B rounds by at most u (|best| +
    #   B) <= u (S_max / 2 + B); B's rounding, from the computed norms
    #   on, is relative, a few u.
    # So the band needs about (m + 2.5) eps S_max + (2m + 1) 2^-1074.
    # gamma = 2 (m + 4) eps is about twice that factor, the slack covering
    # the rounding of the computed norms and of B itself; beta =
    # 8 (m + 4) 2^-1074 is over four times the absolute term, which only
    # bites when distances are subnormal (coordinates near 1e-160). The
    # per-pair bound of ``_per_pair_nearest`` is the same gamma and beta
    # at (|q| + |c|)^2.
    gamma, beta = _bound_terms(m)

    q_sq = np.einsum("ij,ij->i", queries, queries)
    c_sq = np.einsum("ij,ij->i", candidates, candidates)
    q_norm = np.sqrt(q_sq)
    c_norm = np.sqrt(c_sq)
    # Python floats: an overflow here gives inf, without a RuntimeWarning.
    c_max = float(c_norm.max())
    s = float(q_norm.max()) + c_max
    # (1 + 2 gamma) S bounds every d, e, 2 |g| and d + b, so none can
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
        open_rows = lo + np.flatnonzero(second >= best - band[lo:hi])
        del g  # before the per-pair bound allocates its own blocks
        nearest[lo:hi] = best_col
        if open_rows.size:
            nearest[open_rows] = _per_pair_nearest(queries[open_rows], candidates, c_sq, c_norm)
    return nearest


def _bound_terms(m: int) -> tuple[float, float]:
    """gamma and beta of the rounding-error bounds for dimension m, as
    derived in ``_nearest_indices``."""
    return 2.0 * (m + 4) * _EPS, 8.0 * (m + 4) * _SMALLEST_SUBNORMAL


def _per_pair_nearest(queries: np.ndarray, candidates: np.ndarray, c_sq: np.ndarray,
                      c_norm: np.ndarray) -> np.ndarray:
    """The einsum's nearest candidate for at most one block of query rows,
    screened with one rounding-error bound per pair.

    ``d = |q|^2 + |c|^2 - 2 q.c`` comes from one GEMM. With ``b = gamma
    (|q| + |c|)^2 + beta`` bounding ``|d - e|`` for the einsum's distance
    ``e``, candidate j stays when ``d_j - b_j <= min_k (d_k + b_k)``. The
    einsum's minimizer always stays: ``d_j - b_j <= e_j <= e_k <= d_k +
    b_k``, and rounding is monotone, so each computed side keeps its
    inequality against the float ``e``. The GEMM's own argmin stays too
    (b >= 0), so a row with one candidate takes it. Rows with more re-run
    ``squared_distances`` on their candidates, whose values are the
    einsum's bit for bit, and take the smallest index among the exact
    minima.

    ``c_sq`` and ``c_norm`` are the candidates' squared norms and norms
    as ``_nearest_indices`` computes them. On the error model there,
    ``|q|^2`` and ``|c|^2`` are within gamma_m of their values plus m eta
    each, q.c within gamma_m |q| |c| + m eta, doubling is exact, and the
    two additions add u each: |d - D| <= gamma_{m+2} S + 4 m eta, so
    |d - e| <= 2 gamma_{m+2} S + 5 m eta, under ``b`` with the same slack.
    """
    gamma, beta = _bound_terms(queries.shape[1])
    q_sq = np.einsum("ij,ij->i", queries, queries)
    d = queries @ candidates.T
    d *= -2.0
    d += q_sq[:, None]
    d += c_sq
    b = np.add.outer(np.sqrt(q_sq), c_norm)
    b *= b
    b *= gamma
    b += beta
    nearest = np.argmin(d, axis=1)
    cutoff = np.min(d + b, axis=1)
    d -= b
    candidate = d <= cutoff[:, None]
    for i in np.flatnonzero(np.count_nonzero(candidate, axis=1) > 1):
        cols = np.flatnonzero(candidate[i])
        exact = squared_distances(queries[i:i + 1], candidates[cols])
        nearest[i] = cols[np.argmin(exact[0])]
    return nearest
