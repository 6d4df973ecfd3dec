import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tokenmorph import (
    DimensionMismatchError,
    InvalidParameterError,
    MorphConfig,
    TokenSet,
    ToyShape,
    decode_tokens_to_shape,
    morph_geometry,
    render_trajectory_svg,
)

from conftest import assert_ownership_rule


class TestDecoder:
    def test_zero_tokens_give_regular_octagon(self):
        shape = decode_tokens_to_shape(TokenSet(np.zeros((8, 2))))
        center = shape.vertices - 0.5
        radii = np.linalg.norm(center, axis=1)
        np.testing.assert_allclose(radii, radii[0], atol=1e-12)
        angles = np.arctan2(center[:, 1], center[:, 0])
        gaps = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(gaps, 2.0 * np.pi / 8, atol=1e-12)

    def test_vertex_count_matches_token_count(self):
        for n in (3, 5, 12):
            shape = decode_tokens_to_shape(TokenSet(np.zeros((n, 2))))
            assert shape.vertices.shape == (n, 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            decode_tokens_to_shape(TokenSet(np.zeros((4, 3))))

    @pytest.mark.parametrize("vertices", [np.zeros((4, 3)), np.zeros(4), np.zeros((0, 2))])
    def test_shape_rejects_vertices_that_are_not_n_by_2(self, vertices):
        with pytest.raises(InvalidParameterError, match=r"\(n, 2\) array"):
            ToyShape(vertices)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shape_rejects_non_finite_vertices(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            ToyShape([[0.0, 0.0], [bad, 1.0]])

    def test_vertices_are_adopted_or_copied(self, copies):
        assert_ownership_rule(lambda vertices: ToyShape(vertices).vertices,
                              [[0.0, 1.0], [0.5, 0.25]])
        tokens = TokenSet(np.zeros((8, 2)))
        copies.clear()
        decode_tokens_to_shape(tokens)
        assert copies == []

    def test_determinism(self):
        rng = np.random.default_rng(171)
        tokens = TokenSet(rng.normal(scale=0.3, size=(10, 2)))
        first = decode_tokens_to_shape(tokens)
        second = decode_tokens_to_shape(tokens)
        np.testing.assert_array_equal(first.vertices, second.vertices)

    def test_negated_tokens_mirror_displacements(self):
        rng = np.random.default_rng(173)
        tokens = rng.normal(scale=0.3, size=(9, 2))
        base = decode_tokens_to_shape(TokenSet(np.zeros((9, 2)))).vertices
        plus = decode_tokens_to_shape(TokenSet(tokens)).vertices
        minus = decode_tokens_to_shape(TokenSet(-tokens)).vertices
        np.testing.assert_allclose(minus - base, -(plus - base), atol=1e-12)

    def test_distinct_tokens_decode_to_distinct_shapes(self):
        rng = np.random.default_rng(179)
        tokens = rng.normal(scale=0.3, size=(8, 2))
        a = decode_tokens_to_shape(TokenSet(tokens)).vertices
        b = decode_tokens_to_shape(TokenSet(tokens + 1e-4)).vertices
        assert np.abs(a - b).max() > 1e-6


class TestRenderer:
    def test_single_panel_is_well_formed_xml(self):
        shape = decode_tokens_to_shape(TokenSet(np.zeros((6, 2))))
        svg = render_trajectory_svg([shape])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_eight_panels_with_equal_widths(self):
        shape = decode_tokens_to_shape(TokenSet(np.zeros((6, 2))))
        svg = render_trajectory_svg([shape] * 8)
        root = ET.fromstring(svg)
        assert svg.count("<polygon") == 8
        assert int(root.attrib["width"]) == 8 * int(root.attrib["height"])

    def test_byte_stable_output(self):
        rng = np.random.default_rng(181)
        shapes = [
            decode_tokens_to_shape(TokenSet(rng.normal(scale=0.2, size=(7, 2))))
            for _ in range(4)
        ]
        assert render_trajectory_svg(shapes) == render_trajectory_svg(shapes)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_trajectory_svg([])

    def test_trajectory_renders_end_to_end(self):
        source = TokenSet(np.zeros((10, 2)))
        target = TokenSet(0.3 * np.ones((10, 2)))
        trajectory = morph_geometry(source, target, MorphConfig(J=6))
        shapes = [decode_tokens_to_shape(frame) for frame in trajectory.frames]
        svg = render_trajectory_svg(shapes)
        ET.fromstring(svg)
        assert svg.count("<polygon") == 8
