"""Optimal-transport morphing trajectories for embedding token sets.

tokenmorph interpolates between two sets of embedding tokens by viewing
them as discrete measures: exact optimal transport drives free-support
barycenter trajectories for smooth geometric morphs, a similarity-gated
selection pass preserves per-token detail, and a toy 2-D decoder turns
trajectories into SVG strips for inspection.
"""

from .barycenter import (
    BarycenterConfig,
    BarycenterResult,
    free_support_barycenter,
    pairwise_barycenter,
)
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    FormatError,
    InvalidParameterError,
    InvalidWeightsError,
    SolverFailureError,
    TokenMorphError,
    TruncatedPayloadError,
)
from .ot import (
    CostMatrix,
    TransportPlan,
    cost_matrix,
    solve_exact_ot,
    w2_distance,
)
from .selective import (
    DEFAULT_TAU,
    SelectionReport,
    morph_texture,
    selective_texture_tokens,
)
from .synth import gen_synthetic
from .tokenio import read_tokens, write_tokens
from .tokens import TokenSet, index_lerp
from .toydemo import ToyShape, decode_tokens_to_shape, render_trajectory_svg
from .trajectory import (
    FrameDiagnostics,
    MorphConfig,
    MorphTrajectory,
    endpoint_errors,
    morph_geometry,
    step_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BarycenterConfig",
    "BarycenterResult",
    "CostMatrix",
    "DEFAULT_TAU",
    "DimensionMismatchError",
    "FormatError",
    "FrameDiagnostics",
    "InvalidParameterError",
    "InvalidWeightsError",
    "MorphConfig",
    "MorphTrajectory",
    "SelectionReport",
    "SolverFailureError",
    "TokenMorphError",
    "TokenSet",
    "ToyShape",
    "TransportPlan",
    "TruncatedPayloadError",
    "cost_matrix",
    "decode_tokens_to_shape",
    "endpoint_errors",
    "free_support_barycenter",
    "gen_synthetic",
    "index_lerp",
    "morph_geometry",
    "morph_texture",
    "pairwise_barycenter",
    "read_tokens",
    "render_trajectory_svg",
    "selective_texture_tokens",
    "solve_exact_ot",
    "step_lengths",
    "w2_distance",
    "write_tokens",
]
