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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    require_count,
    require_fraction,
)
from .ot import solve_exact_ot
from .tokens import WEIGHT_SUM_TOL, TokenSet


@dataclass(frozen=True)
class BarycenterConfig:
    """Iteration budget and stop rule for the fixed-point solver.

    Args:
        max_iterations: hard cap on fixed-point sweeps (default 100).
        stop_threshold: convergence threshold on the mean squared
            displacement of support points between sweeps (default 1e-5);
            a number > 0, not a bool.
    """

    max_iterations: int = 100
    stop_threshold: float = 1e-5

    def __post_init__(self):
        require_count("max_iterations", self.max_iterations, 1)
        # A bool compares as 0 or 1, but True is not a threshold.
        if isinstance(self.stop_threshold, (bool, np.bool_)) or not (self.stop_threshold > 0.0):
            raise InvalidParameterError(
                f"stop_threshold must be a number > 0, got {self.stop_threshold!r}"
            )


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
    weights: tuple[float, ...] | None = None,
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
        config: iteration budget and stop rule.
        weights: relative weight of each measure; None means uniform.
            One per measure (shape ``(len(measures),)``), finite,
            nonnegative and summing to 1.

    Returns:
        BarycenterResult; ``converged`` is True when the mean squared
        support displacement fell below ``config.stop_threshold`` before
        the iteration cap.

    Raises:
        DimensionMismatchError: if any measure's dimension differs from
            the init's.
        InvalidWeightsError: on negative, non-finite or unnormalized weights.
        InvalidParameterError: on no measures, or on weights of another
            shape than ``(len(measures),)``, checked before their values.
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
    if weights is None:
        lam = np.full(len(measures), 1.0 / len(measures))
    else:
        lam = np.asarray(weights, dtype=np.float64)
        if lam.shape != (len(measures),):
            raise InvalidParameterError(
                f"measure weights must have shape ({len(measures)},), one per measure, "
                f"got shape {lam.shape}"
            )
        if np.any(lam < 0.0) or not np.all(np.isfinite(lam)):
            raise InvalidWeightsError("measure weights must be finite and >= 0")
        if abs(float(lam.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeightsError(f"measure weights must sum to 1 within {WEIGHT_SUM_TOL}")

    n = init.n
    # Handed over read-only: every sweep's set adopts them without a copy.
    nu_weights = np.full(n, 1.0 / n)
    nu_weights.setflags(write=False)
    support = init.points

    displacements: list[float] = []
    objectives: list[float] = []
    converged = False
    plans = [None] * len(measures)

    for _ in range(config.max_iterations):
        nu = TokenSet(support, nu_weights)
        plans = [solve_exact_ot(nu, mu, start=plan) for mu, plan in zip(measures, plans)]
        objectives.append(float(sum(l * p.total_cost for l, p in zip(lam, plans))))

        new_support = np.zeros_like(support)
        for l, plan, mu in zip(lam, plans, measures):
            # No row mass is zero: each is the support weight 1/n within the
            # 1e-9 that solve_exact_ot's marginal check enforces. Dividing
            # first makes a row's single cell a share of exactly 1.0.
            row_mass = np.bincount(plan.rows, plan.mass, n)
            share = plan.mass / row_mass[plan.rows]
            projection = np.zeros_like(support)
            np.add.at(projection, plan.rows, share[:, None] * mu.points[plan.cols])
            new_support += l * projection
        new_support.setflags(write=False)

        displacement = float(np.mean(np.sum((new_support - support) ** 2, axis=1)))
        displacements.append(displacement)
        support = new_support
        if displacement < config.stop_threshold:
            converged = True
            break

    return BarycenterResult(
        support=TokenSet(support, nu_weights),
        iterations_used=len(displacements),
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
    require_fraction("beta", beta)
    return free_support_barycenter([source, target], init, config, weights=(1.0 - beta, beta))
