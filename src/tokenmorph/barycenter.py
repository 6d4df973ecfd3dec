"""Free-support barycenters of discrete measures under W2.

The support of the barycenter is optimized by fixed-point iteration:
each sweep solves exact OT from the current support to every input
measure and then moves every support point to the weighted average of
its barycentric projections. The objective (the weighted sum of squared
W2 distances) is non-increasing along the iterates. The marginals stay
fixed across sweeps, so each sweep's simplex solves start from the
previous sweep's optimal bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    require_count,
)
from .ot import solve_exact_ot
from .tokens import TokenSet

_ROW_MASS_FLOOR = 1e-15


@dataclass(frozen=True)
class BarycenterConfig:
    """Iteration budget and stop rule for the fixed-point solver.

    Args:
        max_iterations: hard cap on fixed-point sweeps (default 100).
        stop_threshold: convergence threshold on the mean squared
            displacement of support points between sweeps (default 1e-5).
        measure_weights: relative weight of each input measure; None
            means uniform. Must be nonnegative and sum to 1.
    """

    max_iterations: int = 100
    stop_threshold: float = 1e-5
    measure_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        require_count("max_iterations", self.max_iterations, 1)
        if not (self.stop_threshold > 0.0):
            raise InvalidParameterError("stop_threshold must be > 0")
        if self.measure_weights is not None:
            w = np.asarray(self.measure_weights, dtype=np.float64)
            if np.any(w < 0.0) or not np.all(np.isfinite(w)):
                raise InvalidWeightsError("measure weights must be finite and >= 0")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise InvalidWeightsError("measure weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class BarycenterResult:
    """Optimized support plus convergence diagnostics.

    ``support`` always carries uniform weights 1/n. ``objective`` is the
    weighted sum of squared W2 distances at the last evaluated iterate;
    ``per_iteration_objective`` holds that value for every sweep and is
    non-increasing.
    """

    support: TokenSet
    iterations_used: int
    converged: bool
    objective: float
    per_iteration_displacement: tuple[float, ...] = field(default=())
    per_iteration_objective: tuple[float, ...] = field(default=())


def free_support_barycenter(
    measures: list[TokenSet] | tuple[TokenSet, ...],
    init: TokenSet,
    config: BarycenterConfig | None = None,
) -> BarycenterResult:
    """Fixed-point solver for the free-support W2 barycenter.

    Each sweep solves OT from the current support to every measure. From
    the second sweep on, each solve is warm-started from that measure's
    previous plan (``solve_exact_ot(nu, mu, start=plan)``): the support
    moved but the weights did not, so the previous basis is feasible and
    the network simplex pivots only from there. Uniform equal-size
    measures go to the assignment solver, which ignores the start.

    Args:
        measures: two or more token sets sharing the embedding dimension
            of ``init`` (a single measure is accepted and reproduced).
        init: initial support; its size fixes the barycenter's support
            size, and its weights are ignored (the support is uniform).
        config: iteration budget, stop rule, and measure weights.

    Returns:
        BarycenterResult; ``converged`` is True when the mean squared
        support displacement fell below ``config.stop_threshold`` before
        the iteration cap.

    Raises:
        DimensionMismatchError: if any measure's dimension differs from
            the init's.
        SolverFailureError: propagated from the OT solver.
    """
    if config is None:
        config = BarycenterConfig()
    if len(measures) < 1:
        raise InvalidParameterError("at least one measure is required")
    for mu in measures:
        if mu.m != init.m:
            raise DimensionMismatchError(
                f"measure dimension {mu.m} differs from init dimension {init.m}"
            )
    if config.measure_weights is None:
        lam = np.full(len(measures), 1.0 / len(measures))
    else:
        lam = np.asarray(config.measure_weights, dtype=np.float64)
        if lam.shape != (len(measures),):
            raise InvalidParameterError(
                f"got {lam.shape[0]} measure weights for {len(measures)} measures"
            )

    n = init.n
    nu_weights = np.full(n, 1.0 / n)
    support = init.points.copy()

    displacements: list[float] = []
    objectives: list[float] = []
    converged = False
    iterations = 0
    plans = [None] * len(measures)

    for _ in range(config.max_iterations):
        nu = TokenSet(support, nu_weights)
        plans = [solve_exact_ot(nu, mu, start=plan) for mu, plan in zip(measures, plans)]
        objectives.append(float(sum(l * p.total_cost for l, p in zip(lam, plans))))

        new_support = np.zeros_like(support)
        contributed = np.zeros(n)
        for l, plan, mu in zip(lam, plans, measures):
            row_mass = plan.coupling.sum(axis=1)
            ok = row_mass > _ROW_MASS_FLOOR
            if ok.any():
                projected = (plan.coupling[ok] / row_mass[ok, None]) @ mu.points
                new_support[ok] += l * projected
                contributed[ok] += l
        # A support point left unmassed by some plan (possible only with
        # non-uniform target weights) averages over the measures it did reach.
        short = contributed < 1.0 - 1e-12
        if short.any():
            reachable = short & (contributed > 0.0)
            new_support[reachable] /= contributed[reachable, None]
            stuck = ~reachable & short
            new_support[stuck] = support[stuck]

        iterations += 1
        displacement = float(np.mean(np.sum((new_support - support) ** 2, axis=1)))
        displacements.append(displacement)
        support = new_support
        if displacement < config.stop_threshold:
            converged = True
            break

    return BarycenterResult(
        support=TokenSet(support, nu_weights),
        iterations_used=iterations,
        converged=converged,
        objective=objectives[-1],
        per_iteration_displacement=tuple(displacements),
        per_iteration_objective=tuple(objectives),
    )


def pairwise_barycenter(
    source: TokenSet,
    target: TokenSet,
    beta: float,
    init: TokenSet,
    config: BarycenterConfig | None = None,
) -> BarycenterResult:
    """Barycenter of two measures with weights (1 - beta, beta).

    ``beta`` must lie in [0, 1]; the endpoints run the same optimization
    and converge immediately by construction.
    """
    if not (0.0 <= beta <= 1.0):
        raise InvalidParameterError(f"beta must be in [0, 1], got {beta!r}")
    if config is None:
        config = BarycenterConfig()
    config = replace(config, measure_weights=(1.0 - beta, beta))
    return free_support_barycenter([source, target], init, config)
