import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmorph import (
    DimensionMismatchError,
    InvalidParameterError,
    MorphConfig,
    TokenSet,
    morph_geometry,
    morph_texture,
    selective_texture_tokens,
)

from conftest import random_tokenset


def _nearest_source(points, tokens: TokenSet) -> list[int]:
    """Nearest-token index of each query row, as the selective pass reports it."""
    report = selective_texture_tokens(TokenSet(np.atleast_2d(points)), tokens, tokens)
    return [d.nearest_source_index for d in report.decisions]


class TestNearestToken:
    def test_exact_member(self):
        ts = TokenSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert _nearest_source([3.0, 3.0], ts) == [3]

    def test_tie_breaks_to_smallest_index(self):
        ts = TokenSet([[9.0, 9.0], [1.0, 0.0], [5.0, 5.0], [-4.0, 2.0], [1.0, 0.0]])
        assert _nearest_source([1.0, 0.0], ts) == [1]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _nearest_source([1.0], TokenSet([[0.0, 0.0]]))

    def test_overflowing_distance_raises(self):
        with pytest.raises(InvalidParameterError, match="overflow"):
            _nearest_source([1e200, 0.0], TokenSet([[-1e200, 0.0], [0.0, 1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10_000))
    def test_matches_linear_scan(self, n, queries, m, seed):
        rng = np.random.default_rng(seed)
        ts = random_tokenset(rng, n, m)
        points = rng.normal(size=(queries, m))
        best = [
            min(range(n), key=lambda k: (float(np.sum((ts.points[k] - p) ** 2)), k))
            for p in points
        ]
        assert _nearest_source(points, ts) == best


class TestSelectiveTextureTokens:
    def test_identity_sets_reproduce_input(self):
        rng = np.random.default_rng(131)
        z = random_tokenset(rng, 6, 4)
        report = selective_texture_tokens(z, z, z, 0.3)
        np.testing.assert_array_equal(report.output.points, z.points)
        assert all(d.sim == 1.0 for d in report.decisions)
        assert all(not d.kept_barycenter for d in report.decisions)

    def test_orthogonal_pair_keeps_barycenter(self):
        report = selective_texture_tokens(
            TokenSet([[0.5, 0.5]]), TokenSet([[1.0, 0.0]]), TokenSet([[0.0, 1.0]]), 0.3
        )
        decision = report.decisions[0]
        assert decision.sim == 0.0
        assert decision.kept_barycenter
        np.testing.assert_array_equal(report.output.points, [[0.5, 0.5]])

    def test_similar_pair_copies_source(self):
        source = TokenSet([[1.0, 0.0]])
        target = TokenSet([[0.8, 0.6]])  # cos = 0.8, so 0.2 <= tau
        report = selective_texture_tokens(TokenSet([[0.9, 0.2]]), source, target, 0.3)
        decision = report.decisions[0]
        assert decision.sim == pytest.approx(0.8, abs=1e-12)
        assert not decision.kept_barycenter
        np.testing.assert_array_equal(report.output.points, source.points)

    def test_tau_out_of_range_rejected(self):
        ts = TokenSet([[1.0]])
        for tau in (-0.1, 1.0001):
            with pytest.raises(InvalidParameterError):
                selective_texture_tokens(ts, ts, ts, tau)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            selective_texture_tokens(
                TokenSet([[1.0]]), TokenSet([[1.0, 0.0]]), TokenSet([[1.0]]), 0.3
            )

    def test_zero_norm_token_counts_as_dissimilar(self):
        source = TokenSet([[0.0, 0.0]])
        target = TokenSet([[1.0, 0.0]])
        report = selective_texture_tokens(TokenSet([[0.1, 0.1]]), source, target, 0.5)
        assert report.decisions[0].sim == 0.0
        assert report.decisions[0].kept_barycenter

    def test_closure_every_token_is_a_bit_exact_copy(self):
        rng = np.random.default_rng(137)
        z = random_tokenset(rng, 20, 5)
        source = random_tokenset(rng, 20, 5)
        target = random_tokenset(rng, 20, 5)
        report = selective_texture_tokens(z, source, target, 0.5)
        for k, decision in enumerate(report.decisions):
            token = report.output.points[k]
            if decision.kept_barycenter:
                assert np.array_equal(token, z.points[k])
            else:
                assert np.array_equal(token, source.points[decision.nearest_source_index])
            assert decision.kept_barycenter == ((1.0 - decision.sim) > report.tau)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(139)
        z = random_tokenset(rng, 15, 4)
        source = random_tokenset(rng, 15, 4)
        target = random_tokenset(rng, 15, 4)
        previous: set[int] = set()
        for tau in np.arange(0.0, 1.01, 0.1):
            report = selective_texture_tokens(z, source, target, float(tau))
            copied = {
                k for k, d in enumerate(report.decisions) if not d.kept_barycenter
            }
            assert previous <= copied
            previous = copied

    def test_boundary_tau_zero(self):
        rng = np.random.default_rng(149)
        z = random_tokenset(rng, 10, 3)
        source = random_tokenset(rng, 10, 3)
        target = random_tokenset(rng, 10, 3)
        report = selective_texture_tokens(z, source, target, 0.0)
        for k, decision in enumerate(report.decisions):
            if decision.sim < 1.0:
                assert decision.kept_barycenter
                assert np.array_equal(report.output.points[k], z.points[k])

    def test_boundary_tau_one(self):
        # cos >= 0 pairs get copied at tau = 1; a negative-similarity pair
        # is still kept since 1 - sim exceeds 1.
        source = TokenSet([[1.0, 0.0], [1.0, 0.0]])
        target = TokenSet([[-1.0, 0.0], [-1.0, 0.0]])
        aligned = TokenSet([[2.0, 0.0], [2.0, 0.0]])
        report = selective_texture_tokens(aligned, source, source, 1.0)
        assert all(not d.kept_barycenter for d in report.decisions)
        report_neg = selective_texture_tokens(aligned, source, target, 1.0)
        assert all(d.kept_barycenter for d in report_neg.decisions)

    def test_all_kept_returns_the_blended_set_itself(self):
        blended = TokenSet([[0.5, 0.5], [0.25, 0.75]])
        report = selective_texture_tokens(
            blended, TokenSet([[1.0, 0.0]]), TokenSet([[0.0, 1.0]]), 0.3
        )
        assert all(d.kept_barycenter for d in report.decisions)
        assert report.output is blended

    def test_overflowing_coordinates_raise(self):
        blended = TokenSet([[1e200], [-1e200]])
        with pytest.raises(InvalidParameterError, match="overflow"):
            selective_texture_tokens(blended, TokenSet([[-1e200]]), TokenSet([[1.0]]))

    def test_determinism(self):
        rng = np.random.default_rng(151)
        z = random_tokenset(rng, 12, 3)
        source = random_tokenset(rng, 12, 3)
        target = random_tokenset(rng, 12, 3)
        first = selective_texture_tokens(z, source, target, 0.4)
        second = selective_texture_tokens(z, source, target, 0.4)
        np.testing.assert_array_equal(first.output.points, second.output.points)
        assert first.decisions == second.decisions


class TestMorphTexture:
    def test_identity_morph_reproduces_source(self):
        rng = np.random.default_rng(157)
        ts = random_tokenset(rng, 6, 3)
        trajectory = morph_geometry(ts, ts, MorphConfig(J=4))
        for report in morph_texture(trajectory, ts, ts, 0.3):
            np.testing.assert_array_equal(report.output.points, ts.points)

    def test_first_frame_output_equals_source(self):
        rng = np.random.default_rng(163)
        source = random_tokenset(rng, 8, 3)
        target = random_tokenset(rng, 8, 3)
        trajectory = morph_geometry(source, target, MorphConfig(J=4))
        reports = morph_texture(trajectory, source, target, 0.3)
        np.testing.assert_array_equal(reports[0].output.points, source.points)

    def test_one_report_per_frame(self):
        rng = np.random.default_rng(167)
        source = random_tokenset(rng, 5, 2)
        target = random_tokenset(rng, 5, 2)
        trajectory = morph_geometry(source, target, MorphConfig(J=6))
        reports = morph_texture(trajectory, source, target, 0.3)
        assert len(reports) == 8
        for report in reports:
            assert report.output.n == 5
