"""Toy 2-D decoder and SVG strip renderer for visual demos.

Tokens with m == 2 decode into closed polygons: vertex k sits at angle
2*pi*k/n on the unit circle, pushed radially by the token's first
coordinate and tangentially by the second, then mapped into the unit
square by a fixed similarity transform. The decoder is continuous and
Lipschitz in the tokens, so smooth token trajectories render as smooth
shape morphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .tokens import TokenSet, read_only_array

# Fixed window [-_WINDOW, _WINDOW]^2 mapped onto the unit square. Being
# input-independent keeps the map injective and shape-preserving.
_WINDOW = 2.0

_PANEL_PX = 200
_MARGIN_PX = 12


@dataclass(frozen=True, eq=False)
class ToyShape:
    """A closed polyline with one vertex per token, in unit-square coords.

    ``vertices`` is adopted or copied by ``read_only_array``'s rule.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = read_only_array(self.vertices)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 1:
            raise InvalidParameterError(
                f"vertices must be an (n, 2) array, got shape {verts.shape}"
            )
        if not np.all(np.isfinite(verts)):
            raise InvalidParameterError("vertices must be finite")
        object.__setattr__(self, "vertices", verts)


def decode_tokens_to_shape(tokens: TokenSet) -> ToyShape:
    """Decode 2-D tokens into a polygon; rejects m != 2."""
    if tokens.m != 2:
        raise DimensionMismatchError(f"toy decoder requires m == 2, got m={tokens.m}")
    n = tokens.n
    theta = 2.0 * np.pi * np.arange(n) / n
    radial_dir = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    tangent_dir = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    radial = tokens.points[:, 0:1]
    tangential = tokens.points[:, 1:2]
    pos = (1.0 + radial) * radial_dir + tangential * tangent_dir
    vertices = 0.5 + pos / (2.0 * _WINDOW)
    vertices.setflags(write=False)
    return ToyShape(vertices)


def render_trajectory_svg(shapes: list[ToyShape] | tuple[ToyShape, ...]) -> str:
    """Render shapes as one horizontal SVG strip, one panel per shape.

    Output is valid SVG 1.1 and byte-stable for fixed input.
    """
    if len(shapes) == 0:
        raise InvalidParameterError("at least one shape is required")

    width = len(shapes) * _PANEL_PX
    height = _PANEL_PX
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n',
    ]
    inner = _PANEL_PX - 2 * _MARGIN_PX
    for k, shape in enumerate(shapes):
        x0 = k * _PANEL_PX
        parts.append(
            f'<rect x="{x0 + 1}" y="1" width="{_PANEL_PX - 2}" height="{height - 2}" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>\n'
        )
        px = x0 + _MARGIN_PX + shape.vertices[:, 0] * inner
        py = _MARGIN_PX + (1.0 - shape.vertices[:, 1]) * inner
        points = " ".join(f"{x:.6f},{y:.6f}" for x, y in zip(px, py))
        parts.append(
            f'<polygon points="{points}" fill="#dce9f7" '
            f'stroke="#1f4e79" stroke-width="1.5"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
