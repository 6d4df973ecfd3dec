import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmorph import (
    DimensionMismatchError,
    InvalidParameterError,
    MorphConfig,
    TokenSet,
    gen_synthetic,
    morph_geometry,
    morph_texture,
    selective_texture_tokens,
)
from tokenmorph import selective as selective_module
from tokenmorph.ot import squared_distances

from conftest import (
    SEARCH_KINDS,
    SEARCH_SCALES,
    einsum_argmin,
    random_tokenset,
    search_inputs,
    search_outcome,
)


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


class TestScreenedSearch:
    """``_nearest_indices`` screens with a GEMM but must return the einsum's argmin."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SEARCH_KINDS), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 70), st.sampled_from(SEARCH_SCALES), st.integers(0, 2**32 - 1))
    def test_equals_einsum_argmin(self, kind, n, n_cand, m, scale, seed):
        q, c = search_inputs(kind, n, n_cand, m, scale, seed)
        expected = search_outcome(einsum_argmin, q, c)
        assert search_outcome(selective_module._nearest_indices, q, c) == expected

    @pytest.mark.parametrize("scale", [1e153, 1e155])
    def test_no_runtime_warning_near_overflow(self, scale):
        # 1e153 is screened; at 1e155 the squared norms overflow and the
        # full kernel decides, though no distance does.
        q = scale * np.array([[1.0, 0.0], [0.99, 0.01]])
        c = scale * np.array([[1.0, 0.001], [0.99, 0.02]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert selective_module._nearest_indices(q, c).tolist() == [0, 1]

    def test_memory_stays_within_screen_blocks(self):
        rng = np.random.default_rng(173)
        q = rng.normal(size=(2048, 64))
        c = rng.normal(size=(2048, 64))
        expected = einsum_argmin(q, c)
        tracemalloc.start()
        try:
            nearest = selective_module._nearest_indices(q, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(nearest, expected)
        # The full 2048 x 2048 distance matrix alone would take 32 MiB.
        assert peak < 4 * selective_module._SCREEN_BLOCK_BYTES + 64 * (q.shape[0] + c.shape[0])


def _row_indices(queries, rows):
    """Index in ``queries`` of each of ``rows``, in order."""
    return [int(np.flatnonzero((queries == row).all(axis=1))[0]) for row in rows]


def _spy_rows(monkeypatch, queries):
    """Record, in call order, the query rows that the search passes to the
    per-pair bound and those it re-runs through the exact einsum."""
    rows = {"per_pair": [], "einsum": []}
    per_pair = selective_module._per_pair_nearest

    def per_pair_spy(g, q, *args):
        rows["per_pair"].extend(_row_indices(queries, q))
        return per_pair(g, q, *args)

    def einsum_spy(q, c):
        rows["einsum"].extend(_row_indices(queries, q))
        return squared_distances(q, c)

    monkeypatch.setattr(selective_module, "_per_pair_nearest", per_pair_spy)
    monkeypatch.setattr(selective_module, "squared_distances", einsum_spy)
    return rows


class TestTwoStageScreen:
    """The row band settles what it can; the per-pair bound, on the same
    scores, takes the rest."""

    def test_far_candidate_sends_the_per_pair_rows_to_the_einsum(self, monkeypatch):
        rng = np.random.default_rng(181)
        q = rng.normal(size=(256, 64))
        c = rng.normal(size=(256, 64))
        c[100:110] = c[0:10]  # duplicated candidates, and queries on them
        q[:10] = c[:10]
        c[200] *= 1e8  # widens every row's band past its runner-up
        expected = einsum_argmin(q, c)
        rows = _spy_rows(monkeypatch, q)
        nearest = selective_module._nearest_indices(q, c)
        # Every row leaves the band; exactly the rows whose nearest token
        # is duplicated hold a tie and reach the einsum.
        tied = np.flatnonzero(expected < 10).tolist()
        assert rows["per_pair"] == list(range(256))
        assert rows["einsum"] == tied
        assert set(range(10)) < set(tied)
        np.testing.assert_array_equal(nearest, expected)

    def test_morph_frames_never_leave_the_band(self, monkeypatch):
        source = gen_synthetic("gaussian_blob", 256, 64, seed=101)
        target = gen_synthetic("gaussian_blob", 256, 64, seed=202)
        frames = morph_geometry(source, target, MorphConfig(J=6)).frames
        assert len(frames) == 8
        searches = [(frame, tokens) for frame in frames for tokens in (source, target)]
        # The texture-select benchmark's blended, source and target sets.
        blended, *references = (gen_synthetic("gaussian_blob", 512, 64, seed=seed)
                                for seed in (101, 202, 303))
        searches += [(blended, tokens) for tokens in references]
        for queries, tokens in searches:
            expected = einsum_argmin(queries.points, tokens.points)
            with monkeypatch.context() as patch:
                rows = _spy_rows(patch, queries.points)
                nearest = selective_module._nearest_indices(queries.points, tokens.points)
            assert rows == {"per_pair": [], "einsum": []}
            np.testing.assert_array_equal(nearest, expected)


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

    def test_similar_pair_copies_source(self, copies):
        source = TokenSet([[1.0, 0.0]])
        target = TokenSet([[0.8, 0.6]])  # cos = 0.8, so 0.2 <= tau
        blended = TokenSet([[0.9, 0.2]])
        copies.clear()
        report = selective_texture_tokens(blended, source, target, 0.3)
        assert copies == []  # the output adopts its points and the blended weights
        assert report.output.weights is blended.weights
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

    def test_overflowing_norms_give_the_sims_of_scaled_sets(self):
        # Every squared distance is finite, but the matched tokens' norms
        # pass 1.34e154; their cosines are those of the rescaled sets.
        blended = np.array([[1.5e154, 0.0], [1.5e154, 2e150]])
        source = np.array([[1.5e154, 1e150], [1.5e154, 3e150]])
        target = np.array([[1.5e154, 5e149], [1.5e154, 2.5e150]])
        sets = [TokenSet(p) for p in (blended, source, target)]
        scaled = [TokenSet(p * 2.0 ** -512) for p in (blended, source, target)]
        report = selective_texture_tokens(*sets, 0.0)
        expected = selective_texture_tokens(*scaled, 0.0).decisions
        assert report.decisions.sim.tobytes() == expected.sim.tobytes()
        assert np.all(expected.sim < 1.0)
        assert report.decisions.kept_barycenter.tolist() == [True, True]
        assert report.output is sets[0]

    @pytest.mark.parametrize("x, sim", [(1e3, 1.0), (0.0, 0.0)])
    def test_one_overflowing_norm_beside_a_small_one(self, x, sim):
        # |y| overflows and |x| does not. The parallel pair's cosine is 1,
        # not a finite dot over an infinite norm product (0); a zero x
        # still counts as dissimilar, without a 0 * inf warning.
        report = selective_texture_tokens(
            TokenSet([[1e154, 0.0]]), TokenSet([[x, 0.0]]), TokenSet([[2e154, 0.0]]), 0.0)
        assert report.decisions.sim.tolist() == [sim]
        assert report.decisions.kept_barycenter.tolist() == [sim < 1.0]

    def test_determinism(self):
        rng = np.random.default_rng(151)
        z = random_tokenset(rng, 12, 3)
        source = random_tokenset(rng, 12, 3)
        target = random_tokenset(rng, 12, 3)
        first = selective_texture_tokens(z, source, target, 0.4)
        second = selective_texture_tokens(z, source, target, 0.4)
        np.testing.assert_array_equal(first.output.points, second.output.points)
        assert np.array_equal(first.decisions, second.decisions)

    def test_decisions_are_one_read_only_record_array(self):
        rng = np.random.default_rng(173)
        z = random_tokenset(rng, 16, 3)
        source = random_tokenset(rng, 16, 3)
        target = random_tokenset(rng, 16, 3)
        decisions = selective_texture_tokens(z, source, target, 0.6).decisions
        assert isinstance(decisions, np.recarray) and decisions.shape == (16,)
        fields = ("nearest_source_index", "nearest_target_index", "sim", "kept_barycenter")
        assert decisions.dtype.names == fields
        assert 0 < np.count_nonzero(decisions.kept_barycenter) < 16  # both outcomes
        for name in fields:
            column = getattr(decisions, name)
            assert not column.flags.writeable
            assert column.tolist() == [getattr(d, name) for d in decisions]
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        with pytest.raises(ValueError, match="read-only"):
            decisions[0].sim = 0.5


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
