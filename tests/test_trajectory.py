import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmorph import (
    BarycenterConfig,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    MorphConfig,
    SolverFailureError,
    TokenSet,
    endpoint_errors,
    gen_synthetic,
    index_lerp,
    morph_geometry,
    pairwise_barycenter,
    solve_exact_ot,
    step_lengths,
    w2_distance,
)
import tokenmorph.trajectory as trajectory_module
from tokenmorph.ot import identity_w2

from conftest import (
    dirichlet_tokenset,
    linprog_plan,
    multiset_max_distance,
    random_tokenset,
    scipy_assignment_permutation,
)


class TestConfig:
    def test_defaults(self):
        config = MorphConfig()
        assert config.J == 6
        assert config.init_mode == "sequential"

    def test_rejects_negative_j(self):
        with pytest.raises(InvalidParameterError):
            MorphConfig(J=-1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            MorphConfig(init_mode="hybrid")

    @pytest.mark.parametrize("frames", [3.0, True, False, "3", None])
    def test_rejects_non_integer_j(self, frames):
        # 3.0 used to pass and then fail in range(); booleans read as 1 and 0.
        with pytest.raises(InvalidParameterError, match="J must be an integer"):
            MorphConfig(J=frames)

    def test_accepts_numpy_integer_j(self):
        rng = np.random.default_rng(5)
        source, target = random_tokenset(rng, 4, 2), random_tokenset(rng, 4, 2)
        trajectory = morph_geometry(source, target, MorphConfig(J=np.int64(3)))
        assert len(trajectory.frames) == 5


class TestMorphGeometry:
    def test_frame_count_and_beta_grid(self):
        rng = np.random.default_rng(81)
        source = random_tokenset(rng, 4, 2)
        target = random_tokenset(rng, 4, 2)
        for j in (0, 1, 6):
            traj = morph_geometry(source, target, MorphConfig(J=j))
            assert len(traj.frames) == j + 2
            assert traj.betas == tuple(alpha / (j + 1) for alpha in range(j + 2))
            assert all(f.n == source.n and f.m == source.m for f in traj.frames)

    @pytest.mark.parametrize("mode", ["linear_init", "naive_lerp"])
    def test_size_mismatch_rejected(self, mode):
        # Only the index-wise modes need equal sizes; sequential morphs
        # any pair (TestWeightedGeodesic).
        with pytest.raises(DimensionMismatchError, match="token counts differ"):
            morph_geometry(TokenSet([[0.0], [1.0]]), TokenSet([[0.0]]),
                           MorphConfig(init_mode=mode))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            morph_geometry(TokenSet([[0.0]]), TokenSet([[0.0, 1.0]]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_uniform_sets_of_unequal_size_keep_one_token_per_source_token(self, seed):
        # Each source token's 1/15 goes whole to one of three targets, so
        # exactly 15 cells carry mass. Rounding dust on other basis cells
        # used to add one or two tokens of weight about 3e-17.
        rng = np.random.default_rng(seed)
        source, target = random_tokenset(rng, 15, 2), random_tokenset(rng, 3, 2)
        traj = morph_geometry(source, target, MorphConfig(J=4))
        for frame in traj.frames:
            assert frame.n == 15
            assert frame.weights.tobytes() == np.full(15, 1 / 15).tobytes()

    @pytest.mark.parametrize("mode", ["linear_init", "naive_lerp"])
    def test_non_uniform_weights_rejected(self, mode):
        skewed = TokenSet([[0.0], [1.0]], [0.25, 0.75])
        with pytest.raises(InvalidWeightsError, match=f"init mode {mode} requires uniform"):
            morph_geometry(skewed, TokenSet([[0.0], [1.0]]), MorphConfig(init_mode=mode))

    @pytest.mark.parametrize("mode", ["sequential", "linear_init", "naive_lerp"])
    def test_identity_morph(self, mode):
        rng = np.random.default_rng(83)
        ts = random_tokenset(rng, 5, 3)
        traj = morph_geometry(ts, ts, MorphConfig(J=6, init_mode=mode))
        for frame in traj.frames:
            np.testing.assert_allclose(frame.points, ts.points, atol=1e-9)

    def test_single_dirac_path_is_uniform(self):
        traj = morph_geometry(
            TokenSet([[0.0, 0.0]]), TokenSet([[7.0, 0.0]]), MorphConfig(J=6)
        )
        xs = [frame.points[0, 0] for frame in traj.frames]
        np.testing.assert_allclose(xs, np.arange(8.0), atol=1e-9)
        np.testing.assert_allclose(traj.step_w2, np.ones(7), atol=1e-9)

    def test_sequential_endpoint_fidelity(self):
        rng = np.random.default_rng(89)
        source = random_tokenset(rng, 10, 4)
        target = random_tokenset(rng, 10, 4)
        traj = morph_geometry(source, target, MorphConfig(J=6))
        err_source, err_target = endpoint_errors(traj, source, target)
        assert err_source < 1e-6
        assert err_target < 1e-6

    def test_generic_straightness_along_fixed_matching(self):
        rng = np.random.default_rng(97)
        source = random_tokenset(rng, 12, 3)
        target = random_tokenset(rng, 12, 3)
        sigma = scipy_assignment_permutation(source.points, target.points)
        traj = morph_geometry(source, target, MorphConfig(J=6))
        for beta, frame in zip(traj.betas, traj.frames):
            # The sequential path follows the displacement interpolation:
            # every frame is the matched lerp, as a multiset.
            expected = (1.0 - beta) * source.points + beta * target.points[sigma]
            assert multiset_max_distance(frame.points, expected) < 1e-5
        steps = np.asarray(traj.step_w2)
        np.testing.assert_allclose(steps, steps.mean(), rtol=1e-4)

    def test_two_cluster_swap_ablation_separation(self):
        source, target = gen_synthetic("two_cluster_swap_pair", 16, 2, seed=7)
        seq = morph_geometry(source, target, MorphConfig(J=6, init_mode="sequential"))
        lin = morph_geometry(source, target, MorphConfig(J=6, init_mode="linear_init"))
        seq_steps = np.asarray(seq.step_w2)
        lin_steps = np.asarray(lin.step_w2)
        seq_ratio = seq_steps.max() / seq_steps.mean()
        lin_ratio = lin_steps.max() / lin_steps.mean()
        assert seq_ratio <= lin_ratio
        assert seq_ratio <= 2.0

    def test_naive_lerp_emits_raw_tokens(self):
        rng = np.random.default_rng(101)
        source = random_tokenset(rng, 5, 2)
        target = random_tokenset(rng, 5, 2)
        traj = morph_geometry(source, target, MorphConfig(J=2, init_mode="naive_lerp"))
        for beta, frame, diag in zip(traj.betas, traj.frames, traj.frame_diagnostics):
            np.testing.assert_array_equal(
                frame.points, index_lerp(source, target, beta).points
            )
            assert diag.iterations_used == 0
            assert diag.converged

    def test_solver_failure_names_the_frame(self, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailureError("synthetic failure")

        monkeypatch.setattr(trajectory_module, "pairwise_barycenter", boom)
        rng = np.random.default_rng(103)
        ts = random_tokenset(rng, 3, 2)
        with pytest.raises(SolverFailureError, match="alpha=0"):
            morph_geometry(ts, ts, MorphConfig(J=1, init_mode="linear_init"))

    def test_sequential_solver_failure_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailureError("synthetic failure")

        monkeypatch.setattr(trajectory_module, "solve_exact_ot", boom)
        rng = np.random.default_rng(103)
        ts = random_tokenset(rng, 3, 2)
        with pytest.raises(SolverFailureError, match="synthetic failure"):
            morph_geometry(ts, ts, MorphConfig(J=1))


class TestSequentialClosedForm:
    """The closed-form sequential path against the fixed-point solver."""

    @pytest.mark.parametrize("n, m", [(12, 4), (33, 5), (64, 2)])
    def test_frames_match_warm_started_fixed_point_bitwise(self, n, m):
        rng = np.random.default_rng(131 + n)
        source = random_tokenset(rng, n, m)
        target = random_tokenset(rng, n, m)
        traj = morph_geometry(source, target, MorphConfig(J=6))
        for k in range(1, len(traj.frames)):
            reference = pairwise_barycenter(
                source, target, traj.betas[k], traj.frames[k - 1]
            ).support
            np.testing.assert_array_equal(
                traj.frames[k].points.view(np.uint64),
                reference.points.view(np.uint64),
            )

    def test_one_assignment_per_morph(self, monkeypatch):
        calls = {"solve_exact_ot": 0, "w2_distance": 0, "pairwise_barycenter": 0}

        def counted(name):
            original = getattr(trajectory_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(trajectory_module, name, wrapper)

        for name in calls:
            counted(name)
        rng = np.random.default_rng(137)
        source = random_tokenset(rng, 9, 3)
        target = random_tokenset(rng, 9, 3)
        morph_geometry(source, target, MorphConfig(J=6))
        assert calls == {"solve_exact_ot": 1, "w2_distance": 0, "pairwise_barycenter": 0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["gaussian_blob", "ring", "two_cluster_swap_pair"]),
        st.integers(1, 24),
        st.integers(1, 6),
        st.integers(0, 8),
        st.integers(0, 10_000),
    )
    def test_step_w2_equals_recomputed_step_lengths_bitwise(self, kind, half, m, J, seed):
        # Distinct tokens: the identity between consecutive frames is the
        # unique optimal matching, so the stored steps equal a full solve.
        if kind == "two_cluster_swap_pair":
            source, target = gen_synthetic(kind, 2 * half, m, seed)
        else:
            m = max(m, 2) if kind == "ring" else m
            source = gen_synthetic(kind, half, m, seed)
            target = gen_synthetic(kind, half, m, seed + 1)
        traj = morph_geometry(source, target, MorphConfig(J=J))
        np.testing.assert_array_equal(
            np.asarray(traj.step_w2).view(np.uint64), step_lengths(traj).view(np.uint64)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(1, 3), st.integers(0, 10_000))
    def test_step_w2_with_duplicate_tokens(self, n, m, seed):
        # Duplicates admit equal-cost matchings that pair the same costs in
        # another order; every plan cost is an exactly rounded sum, which
        # no order changes, so the steps still agree bit for bit.
        rng = np.random.default_rng(seed)
        source = TokenSet(rng.integers(-2, 3, size=(n, m)).astype(float))
        target = TokenSet(rng.integers(-2, 3, size=(n, m)).astype(float))
        traj = morph_geometry(source, target, MorphConfig(J=6))
        np.testing.assert_array_equal(
            np.asarray(traj.step_w2).view(np.uint64), step_lengths(traj).view(np.uint64)
        )

    def test_objective_is_closed_form_value(self):
        rng = np.random.default_rng(139)
        source = random_tokenset(rng, 20, 4)
        target = random_tokenset(rng, 20, 4)
        sigma = scipy_assignment_permutation(source.points, target.points)
        w2_squared = float(
            np.mean(np.sum((source.points - target.points[sigma]) ** 2, axis=1))
        )
        traj = morph_geometry(source, target, MorphConfig(J=6))
        for beta, diag in zip(traj.betas, traj.frame_diagnostics):
            expected = beta * (1.0 - beta) * w2_squared
            assert diag.objective == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert diag.iterations_used == 0
            assert diag.converged


class TestWeightedGeodesic:
    """Sequential morphs of Dirichlet-weighted sets of unequal size: the
    displacement interpolation of one optimal plan, against HiGHS."""

    @staticmethod
    def _pairs(seed: int, count: int):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            n2 = int(rng.integers(2, 9))
            if n2 == n:
                n2 += 1
            yield dirichlet_tokenset(rng, n, m), dirichlet_tokenset(rng, n2, m)

    def test_frames_lie_on_the_geodesic(self):
        for source, target in self._pairs(149, 12):
            w2_squared = linprog_plan(source, target)[1]
            traj = morph_geometry(source, target, MorphConfig(J=4))
            for beta, frame, diag in zip(traj.betas, traj.frames, traj.frame_diagnostics):
                # W2(Z_beta, X) = beta * W and W2(Z_beta, Y) = (1 - beta) * W.
                assert linprog_plan(frame, source)[1] == pytest.approx(
                    beta * beta * w2_squared, rel=1e-9, abs=1e-12)
                assert linprog_plan(frame, target)[1] == pytest.approx(
                    (1.0 - beta) ** 2 * w2_squared, rel=1e-9, abs=1e-12)
                assert diag.objective == pytest.approx(
                    beta * (1.0 - beta) * w2_squared, rel=1e-9, abs=1e-12)
                assert (diag.iterations_used, diag.converged) == (0, True)

    def test_frames_carry_the_positive_plan_cells(self, monkeypatch, copies):
        plans = []
        real = trajectory_module.solve_exact_ot
        monkeypatch.setattr(trajectory_module, "solve_exact_ot",
                            lambda a, b: plans.append(real(a, b)) or plans[-1])
        for source, target in self._pairs(151, 20):
            copies.clear()
            traj = morph_geometry(source, target, MorphConfig(J=3))
            # Every frame adopts its points and shares the plan's mass.
            assert copies == []
            plan = plans[-1]
            assert traj.frames[0].n == len(plan.mass) <= source.n + target.n - 1
            for frame in traj.frames:
                assert frame.weights is plan.mass
                assert frame.weights.min() > 0.0
            # beta = 0 and 1 put every atom exactly on a source or target token.
            for frame, ends in ((traj.frames[0], source), (traj.frames[-1], target)):
                on_token = (frame.points[:, None, :] == ends.points[None]).all(axis=2)
                assert on_token.any(axis=1).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), st.booleans(),
           st.integers(0, 8), st.integers(0, 10_000))
    def test_steps_on_tie_grids(self, n, n2, m, weighted, J, seed):
        # Atoms on a {0, 1, 2} grid: ties in every cost matrix, and
        # duplicated atoms within a set and across the two.
        rng = np.random.default_rng(seed)

        def grid_set(size):
            points = rng.integers(0, 3, size=(size, m)).astype(float)
            return TokenSet(points, rng.dirichlet(np.ones(size)) if weighted else None)

        source, target = grid_set(n), grid_set(n2)
        traj = morph_geometry(source, target, MorphConfig(J=J))
        assert all(0 < f.n <= n + n2 - 1 and f.weights.min() > 0 for f in traj.frames)
        width = math.sqrt(solve_exact_ot(source, target).total_cost)
        steps = np.asarray(traj.step_w2)
        # Each step is 1/(J+1) of the geodesic; a full solve may spread
        # the same optimum over other masses and differ in the last bits.
        np.testing.assert_allclose(steps, width / (J + 1), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(steps, step_lengths(traj), rtol=1e-12, atol=1e-14)

    def test_identity_w2_needs_equal_weights(self):
        a = TokenSet([[0.0], [1.0]])
        with pytest.raises(InvalidWeightsError, match="equal weight vectors"):
            identity_w2(a, TokenSet([[0.0], [1.0]], [0.25, 0.75]))
        with pytest.raises(InvalidWeightsError, match="equal weight vectors"):
            identity_w2(a, TokenSet([[0.0], [1.0], [2.0]]))


class TestDiagnostics:
    def test_step_lengths_needs_two_frames(self):
        frame = TokenSet([[1.0, 1.0], [2.0, 2.0]])
        one = trajectory_module.MorphTrajectory(
            frames=(frame,), betas=(0.0,),
            frame_diagnostics=(trajectory_module.FrameDiagnostics(0, True, 0.0),),
            step_w2=(), init_mode="sequential")
        with pytest.raises(InvalidParameterError, match="at least 2 frames"):
            step_lengths(one)

    def test_step_lengths_constant_trajectory(self):
        ts = TokenSet([[1.0, 1.0], [2.0, 2.0]])
        traj = morph_geometry(ts, ts, MorphConfig(J=3))
        np.testing.assert_allclose(step_lengths(traj), np.zeros(4), atol=1e-9)

    def test_step_lengths_triangle_inequality(self):
        rng = np.random.default_rng(107)
        source = random_tokenset(rng, 6, 3)
        target = random_tokenset(rng, 6, 3)
        traj = morph_geometry(source, target, MorphConfig(J=4))
        total = float(np.sum(step_lengths(traj)))
        assert total >= w2_distance(traj.frames[0], traj.frames[-1]) - 1e-9

    def test_step_lengths_matches_stored_diagnostics(self):
        rng = np.random.default_rng(109)
        source = random_tokenset(rng, 4, 2)
        target = random_tokenset(rng, 4, 2)
        traj = morph_geometry(source, target, MorphConfig(J=2))
        np.testing.assert_array_equal(step_lengths(traj), np.asarray(traj.step_w2))

    def test_endpoint_errors_identity(self):
        ts = TokenSet([[0.0, 1.0]])
        traj = morph_geometry(ts, ts, MorphConfig(J=1))
        assert endpoint_errors(traj, ts, ts) == (0.0, 0.0)

    def test_naive_lerp_first_frame_is_the_source(self):
        rng = np.random.default_rng(113)
        source = random_tokenset(rng, 5, 2)
        target = random_tokenset(rng, 5, 2)
        traj = morph_geometry(source, target, MorphConfig(J=2, init_mode="naive_lerp"))
        err_source, _ = endpoint_errors(traj, source, target)
        assert err_source == 0.0

    def test_convergence_budget(self):
        rng = np.random.default_rng(127)
        source = random_tokenset(rng, 8, 3)
        target = random_tokenset(rng, 8, 3)
        traj = morph_geometry(
            source,
            target,
            MorphConfig(J=6, barycenter_config=BarycenterConfig(100, 1e-5)),
        )
        for diag in traj.frame_diagnostics:
            assert diag.converged
            assert diag.iterations_used <= 100
