"""Seeded synthetic token-set generators for demos and tests."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, require_count
from .tokens import TokenSet

KINDS = ("gaussian_blob", "two_cluster_swap_pair", "ring")

# Two-cluster fixture geometry: cluster centers sit at +/-_CLUSTER_OFFSET
# along the first axis with _CLUSTER_JITTER standard deviation, so the
# inter-cluster gap dwarfs the intra-cluster spread.
_CLUSTER_OFFSET = 4.0
_CLUSTER_JITTER = 0.3


def gen_synthetic(
    kind: str, n: int, d: int, seed: int = 0
) -> TokenSet | tuple[TokenSet, TokenSet]:
    """Generate a deterministic synthetic token set (or pair).

    Args:
        kind: "gaussian_blob" (standard normal cloud), "ring" (noisy
            circle in the first two dimensions, d >= 2), or
            "two_cluster_swap_pair" (returns a (source, target) pair in
            which the same two clusters swap index labels, so index-wise
            interpolation crosses the gap while OT stays within
            clusters; n must be even).
        n: token count (>= 1; >= 2 and even for the pair).
        d: embedding dimension (>= 1; >= 2 for "ring").
        seed: RNG seed, an integer >= 0; identical seeds give identical
            outputs.

    Raises:
        InvalidParameterError: on an unknown kind, or an n, d or seed
            that is not an integer in range.
    """
    if kind not in KINDS:
        raise InvalidParameterError(f"kind must be one of {KINDS}, got {kind!r}")
    require_count("n", n, 1)
    require_count("d", d, 1)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)

    if kind == "gaussian_blob":
        return TokenSet(rng.normal(size=(n, d)))

    if kind == "ring":
        if d < 2:
            raise InvalidParameterError(f"ring requires d >= 2, got {d!r}")
        theta = 2.0 * np.pi * np.arange(n) / n
        points = 0.05 * rng.normal(size=(n, d))
        points[:, 0] += np.cos(theta)
        points[:, 1] += np.sin(theta)
        return TokenSet(points)

    # two_cluster_swap_pair
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"two_cluster_swap_pair requires even n >= 2, got {n}")
    half = n // 2
    center_a = np.zeros(d)
    center_a[0] = -_CLUSTER_OFFSET
    center_b = -center_a

    def cluster(center: np.ndarray) -> np.ndarray:
        return center[None, :] + _CLUSTER_JITTER * rng.normal(size=(half, d))

    source = np.vstack([cluster(center_a), cluster(center_b)])
    target = np.vstack([cluster(center_b), cluster(center_a)])
    return TokenSet(source), TokenSet(target)
