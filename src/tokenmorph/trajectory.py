"""Morphing trajectories between two token sets.

A trajectory has J+2 frames at blend values beta = alpha / (J+1). Each
frame is the W2 barycenter of source and target with weights
(1 - beta, beta); the modes differ in how they reach it:

* ``sequential`` is McCann's displacement interpolation: one optimal
  plan from source to target, then every frame in closed form with one
  atom ``(1 - beta) * x_i + beta * y_j`` of weight ``pi_ij`` per support
  cell (i, j) of positive mass, at most n + n' - 1 of them. This holds
  for any weights and sizes. For uniform equal-size sets the plan is a
  permutation sigma, the frames keep n uniform tokens, and each frame is
  the point the fixed-point barycenter reaches when warm-started from
  the previous one, computed with the same float operations as that
  solver's first sweep, so the frames are bit-identical to it.
  Consecutive frames on the geodesic are optimally coupled atom by atom
  with the plan's masses, so ``step_w2`` is read off that coupling
  (``identity_w2``) instead of solved for.
* ``linear_init`` optimizes every frame independently with the
  fixed-point barycenter, starting from the index-wise lerp of source
  and target.
* ``naive_lerp`` skips optimization entirely and emits the raw lerp.

Both index-wise modes need uniform weights and equal sizes. They are
kept as baselines: the ``sequential`` steps are even and never jump,
unlike theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barycenter import BarycenterConfig, pairwise_barycenter
from .errors import (
    InvalidParameterError,
    InvalidWeightsError,
    SolverFailureError,
    require_count,
)
from .ot import identity_w2, solve_exact_ot, w2_distance
from .tokens import TokenSet, index_lerp

INIT_MODES = ("sequential", "linear_init", "naive_lerp")


@dataclass(frozen=True)
class MorphConfig:
    """Trajectory shape: number of intermediate frames and init mode.

    ``barycenter_config`` is read only by ``linear_init``, the one mode
    that runs the fixed-point solver.
    """

    J: int = 6
    init_mode: str = "sequential"
    barycenter_config: BarycenterConfig = field(default_factory=BarycenterConfig)

    def __post_init__(self):
        require_count("J", self.J, 0)
        if self.init_mode not in INIT_MODES:
            raise InvalidParameterError(
                f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}"
            )


@dataclass(frozen=True)
class FrameDiagnostics:
    """How a frame was reached, and its blend objective
    ``(1 - beta) * W2^2(frame, source) + beta * W2^2(frame, target)``.

    A ``sequential`` or ``naive_lerp`` frame is built in closed form
    (0 iterations, converged) and ``objective`` is the frame's own. A
    ``linear_init`` frame reports its barycenter's ``iterations_used``,
    ``converged`` and ``objective``, which is that of the support one
    update before the frame (see ``BarycenterResult``).
    """

    iterations_used: int
    converged: bool
    objective: float


@dataclass(frozen=True)
class MorphTrajectory:
    """Ordered frames Z_0 .. Z_{J+1} with per-frame and per-step diagnostics."""

    frames: tuple[TokenSet, ...]
    betas: tuple[float, ...]
    frame_diagnostics: tuple[FrameDiagnostics, ...]
    step_w2: tuple[float, ...]
    init_mode: str


def morph_geometry(
    source: TokenSet, target: TokenSet, config: MorphConfig | None = None
) -> MorphTrajectory:
    """Compute the geometric morphing trajectory from source to target.

    Args:
        source: source token set.
        target: target token set of the same dimension. ``linear_init``
            and ``naive_lerp`` also need the same size and uniform
            weights in both sets.
        config: frame count J, init mode, and barycenter settings.

    Returns:
        MorphTrajectory with exactly J+2 frames at beta = alpha/(J+1).
        A ``sequential`` frame has one weighted token per support cell of
        the optimal plan with positive mass: n uniform tokens for uniform
        equal-size sets, at most n + n' - 1 otherwise.

    Raises:
        DimensionMismatchError: on a dimension mismatch, or on a size
            mismatch in ``linear_init`` and ``naive_lerp`` mode.
        InvalidWeightsError: on non-uniform weights in ``linear_init``
            and ``naive_lerp`` mode.
        SolverFailureError: if an OT solve fails. In ``linear_init`` and
            ``naive_lerp`` mode the message names the failing frame as
            ``frame alpha=<k> failed: ...``; in ``sequential`` mode the
            single source-to-target solve's error propagates unchanged,
            since no frame has been built yet.
    """
    if config is None:
        config = MorphConfig()

    steps = config.J + 1
    betas = tuple(alpha / steps for alpha in range(config.J + 2))

    if config.init_mode == "sequential":
        frames, diagnostics = _displacement_frames(source, target, betas)
        # Consecutive frames on one geodesic are optimally coupled atom
        # by atom, so each step's W2 needs no further OT solve.
        steps_w2 = tuple(identity_w2(a, b) for a, b in zip(frames, frames[1:]))
    else:
        frames, diagnostics = _optimized_frames(source, target, betas, config)
        steps_w2 = _consecutive_w2(frames)

    return MorphTrajectory(
        frames=tuple(frames),
        betas=betas,
        frame_diagnostics=tuple(diagnostics),
        step_w2=steps_w2,
        init_mode=config.init_mode,
    )


def _displacement_frames(
    source: TokenSet, target: TokenSet, betas: tuple[float, ...]
) -> tuple[list[TokenSet], list[FrameDiagnostics]]:
    """Closed-form frames along one optimal plan.

    Every cell (i, j) of the plan carries mass and gives one token
    between source token i and target token j, weighted by that mass;
    every frame adopts ``plan.mass`` as its weights, so they all share it.
    Each frame repeats the fixed-point solver's update, a zero-initialized
    sum of the weighted barycentric projections, so for an assignment plan
    (rows ``0..n-1``, masses ``1/n``) its bits, signed zeros included,
    match what that solver converges to.
    """
    plan = solve_exact_ot(source, target)
    start = source.points[plan.rows]
    end = target.points[plan.cols]
    frames: list[TokenSet] = []
    diagnostics: list[FrameDiagnostics] = []
    for beta in betas:
        support = np.zeros_like(start)
        support += (1.0 - beta) * start
        support += beta * end
        support.setflags(write=False)
        frames.append(TokenSet(support, plan.mass))
        # (1-b)*W2^2(Z, X) + b*W2^2(Z, Y) at Z on the geodesic.
        diagnostics.append(
            FrameDiagnostics(0, True, beta * (1.0 - beta) * plan.total_cost)
        )
    return frames, diagnostics


def _optimized_frames(
    source: TokenSet,
    target: TokenSet,
    betas: tuple[float, ...],
    config: MorphConfig,
) -> tuple[list[TokenSet], list[FrameDiagnostics]]:
    # index_lerp checks dimensions and sizes, but drops the weights.
    if not (source.has_uniform_weights() and target.has_uniform_weights()):
        raise InvalidWeightsError(
            f"init mode {config.init_mode} requires uniform token weights"
        )
    frames: list[TokenSet] = []
    diagnostics: list[FrameDiagnostics] = []
    for alpha, beta in enumerate(betas):
        try:
            if config.init_mode == "naive_lerp":
                frame = index_lerp(source, target, beta)
                objective = _blend_objective(source, target, frame, beta)
                diag = FrameDiagnostics(0, True, objective)
            else:
                init = index_lerp(source, target, beta)
                result = pairwise_barycenter(
                    source, target, beta, init, config.barycenter_config
                )
                frame = result.support
                diag = FrameDiagnostics(
                    result.iterations_used, result.converged, result.objective
                )
        except SolverFailureError as exc:
            raise SolverFailureError(f"frame alpha={alpha} failed: {exc}") from exc
        frames.append(frame)
        diagnostics.append(diag)
    return frames, diagnostics


def step_lengths(trajectory: MorphTrajectory) -> np.ndarray:
    """W2 distances between consecutive frames, each from a full OT solve."""
    if len(trajectory.frames) < 2:
        raise InvalidParameterError("trajectory must have at least 2 frames")
    return np.asarray(_consecutive_w2(list(trajectory.frames)))


def endpoint_errors(
    trajectory: MorphTrajectory, source: TokenSet, target: TokenSet
) -> tuple[float, float]:
    """(W2 of first frame to source, W2 of last frame to target)."""
    return (
        w2_distance(trajectory.frames[0], source),
        w2_distance(trajectory.frames[-1], target),
    )


def _consecutive_w2(frames: list[TokenSet]) -> tuple[float, ...]:
    return tuple(
        w2_distance(frames[k], frames[k + 1]) for k in range(len(frames) - 1)
    )


def _blend_objective(
    source: TokenSet, target: TokenSet, frame: TokenSet, beta: float
) -> float:
    to_source = solve_exact_ot(frame, source).total_cost
    to_target = solve_exact_ot(frame, target).total_cost
    return (1.0 - beta) * to_source + beta * to_target
