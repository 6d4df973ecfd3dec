import numpy as np
import pytest

import tokenmorph.barycenter as barycenter_module
import tokenmorph.ot as ot_module
from tokenmorph import (
    BarycenterConfig,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    TokenSet,
    free_support_barycenter,
    pairwise_barycenter,
    solve_exact_ot,
    w2_distance,
)

from conftest import (
    basis,
    brute_force_permutation,
    linprog_plan,
    multiset_max_distance,
    random_tokenset,
    scipy_assignment_permutation,
)


class TestConfig:
    def test_defaults(self):
        config = BarycenterConfig()
        assert config.max_iterations == 100
        assert config.stop_threshold == 1e-5

    def test_rejects_bad_iteration_budget(self):
        with pytest.raises(InvalidParameterError):
            BarycenterConfig(max_iterations=0)

    @pytest.mark.parametrize("budget", [3.0, True, False, "3", None])
    def test_rejects_non_integer_iteration_budget(self, budget):
        # 3.0 used to pass and then fail in range(); booleans read as 1 and 0.
        with pytest.raises(InvalidParameterError, match="max_iterations must be an integer"):
            BarycenterConfig(max_iterations=budget)

    def test_accepts_numpy_integer_iteration_budget(self):
        left, right = TokenSet([[0.0], [1.0]]), TokenSet([[4.0], [9.0]])
        result = free_support_barycenter(
            [left, right], left, BarycenterConfig(max_iterations=np.int64(3))
        )
        assert 1 <= result.iterations_used <= 3

    def test_rejects_bad_threshold(self):
        with pytest.raises(InvalidParameterError):
            BarycenterConfig(stop_threshold=0.0)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_rejects_a_bool_threshold(self, flag):
        # True compared as 1.0 and was accepted before.
        with pytest.raises(InvalidParameterError, match="stop_threshold"):
            BarycenterConfig(stop_threshold=flag)

    def test_rejects_bad_measure_weights(self):
        left, right = TokenSet([[0.0]]), TokenSet([[1.0]])
        with pytest.raises(InvalidWeightsError):
            free_support_barycenter([left, right], left, weights=(0.5, 0.6))
        with pytest.raises(InvalidWeightsError):
            free_support_barycenter([left, right], left, weights=(-0.5, 1.5))
        # A scalar raised IndexError and a 1 x 2 array named 1 weight before.
        for weights, shape in ((1.0, "()"), ([[0.5, 0.5]], "(1, 2)"),
                               ((0.25, 0.25, 0.5), "(3,)"), ((0.5, 0.6, 0.1), "(3,)")):
            with pytest.raises(InvalidParameterError, match=r"must have shape \(2,\)") as info:
                free_support_barycenter([left, right], left, weights=weights)
            assert str(info.value).endswith(f"got shape {shape}")

    def test_rejects_no_measures(self):
        with pytest.raises(InvalidParameterError, match="at least one measure"):
            free_support_barycenter([], TokenSet([[0.0]]))


class TestFixedPoint:
    def test_two_diracs_meet_in_the_middle(self):
        left = TokenSet([[0.0, 0.0]])
        right = TokenSet([[2.0, 0.0]])
        result = free_support_barycenter(
            [left, right], left, weights=(0.5, 0.5)
        )
        np.testing.assert_allclose(result.support.points, [[1.0, 0.0]], atol=1e-12)
        assert result.converged

    def test_degenerate_weight_reproduces_first_measure(self):
        rng = np.random.default_rng(41)
        mu1 = random_tokenset(rng, 5, 2)
        mu2 = random_tokenset(rng, 5, 2)
        result = free_support_barycenter(
            [mu1, mu2], mu2, weights=(1.0, 0.0)
        )
        assert multiset_max_distance(result.support.points, mu1.points) < 1e-9
        assert result.objective == pytest.approx(
            w2_distance(mu1, result.support) ** 2, abs=1e-12
        )

    def test_1d_derived_midpoints(self):
        # The optimal permutation matches 0->3 and 1->5; equal measure
        # weights put each support point at the midpoint of its pair.
        mu1 = TokenSet([[0.0], [1.0]])
        mu2 = TokenSet([[3.0], [5.0]])
        result = pairwise_barycenter(mu1, mu2, 0.5, mu1)
        assert sorted(result.support.points[:, 0].tolist()) == [1.5, 3.0]
        assert result.converged

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            free_support_barycenter(
                [TokenSet([[0.0, 1.0]])], TokenSet([[0.0]])
            )

    def test_weight_count_must_match_measures(self):
        ts = TokenSet([[0.0]])
        with pytest.raises(InvalidParameterError):
            free_support_barycenter(
                [ts, ts, ts], ts, weights=(0.5, 0.5)
            )

    def test_three_diracs_weighted_mean(self):
        measures = [TokenSet([[0.0, 0.0]]), TokenSet([[3.0, 0.0]]), TokenSet([[0.0, 3.0]])]
        result = free_support_barycenter(
            measures, measures[0], weights=(0.2, 0.3, 0.5)
        )
        np.testing.assert_allclose(result.support.points, [[0.9, 1.5]], atol=1e-9)

    def test_support_size_preserved(self):
        rng = np.random.default_rng(43)
        mu1 = random_tokenset(rng, 6, 2)
        mu2 = random_tokenset(rng, 6, 2)
        for size in (3, 6, 9):
            init = random_tokenset(rng, size, 2)
            result = pairwise_barycenter(mu1, mu2, 0.4, init)
            assert result.support.n == size
            np.testing.assert_array_equal(
                result.support.weights, np.full(size, 1.0 / size)
            )

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            mu1 = random_tokenset(rng, 8, 3)
            mu2 = random_tokenset(rng, 8, 3)
            init = random_tokenset(rng, 8, 3)
            result = pairwise_barycenter(mu1, mu2, 0.3, init)
            objectives = np.asarray(result.per_iteration_objective)
            assert np.all(np.diff(objectives) <= 1e-9)

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(53)
        mu1 = random_tokenset(rng, 6, 2)
        mu2 = random_tokenset(rng, 6, 2)
        result = pairwise_barycenter(
            mu1, mu2, 0.5, mu1, BarycenterConfig(max_iterations=1)
        )
        assert result.iterations_used == 1
        assert len(result.per_iteration_displacement) == 1

    def test_non_uniform_measure_is_accepted(self):
        skewed = TokenSet([[0.0], [4.0]], [0.8, 0.2])
        uniform = TokenSet([[1.0], [3.0]])
        result = pairwise_barycenter(skewed, uniform, 0.5, uniform)
        assert result.support.n == 2
        assert np.all(np.isfinite(result.support.points))

    def test_sweeps_hand_over_their_supports(self, monkeypatch, copies):
        rng = np.random.default_rng(17)
        source = TokenSet(rng.normal(size=(9, 3)), rng.dirichlet(np.ones(9)))
        target = TokenSet(rng.normal(size=(7, 3)) + 1.0, rng.dirichlet(np.ones(7)))
        supports = []
        real_solve = barycenter_module.solve_exact_ot

        def solve(nu, mu, *, start=None):
            supports.append(nu)
            return real_solve(nu, mu, start=start)

        monkeypatch.setattr(barycenter_module, "solve_exact_ot", solve)
        copies.clear()
        result = pairwise_barycenter(source, target, 0.4, source)
        assert copies == [] and result.iterations_used > 1
        # Every sweep's set adopts the support it is given, and all share
        # one weight vector.
        assert supports[0].points is source.points
        assert all(nu.weights is supports[0].weights for nu in supports)


class TestOneSweep:
    """One fixed-point sweep against an update computed from HiGHS couplings."""

    @pytest.mark.parametrize("kind", ["dirichlet", "zero_weight"])
    def test_sweep_matches_linprog_update(self, kind):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            measures = [TokenSet(rng.normal(size=(size, 2)), rng.dirichlet(np.ones(size)))
                        for size in (7, 9, 5)]
            lam = (tuple(rng.dirichlet(np.ones(3)).tolist()) if kind == "dirichlet"
                   else (0.4, 0.6, 0.0))
            init = TokenSet(rng.normal(size=(6, 2)))
            result = free_support_barycenter(
                measures, init, BarycenterConfig(max_iterations=1), weights=lam)

            expected = np.zeros((6, 2))
            objective = 0.0
            for l, mu in zip(lam, measures):
                coupling, cost = linprog_plan(init, mu)
                expected += l * (coupling / coupling.sum(axis=1)[:, None]) @ mu.points
                objective += l * cost
            assert result.iterations_used == 1
            np.testing.assert_allclose(result.support.points, expected, rtol=0, atol=1e-9)
            assert result.objective == pytest.approx(objective, rel=0, abs=1e-9)


class TestPairwise:
    def test_beta_out_of_range_rejected(self):
        ts = TokenSet([[0.0]])
        for beta in (-0.1, 1.1):
            with pytest.raises(InvalidParameterError):
                pairwise_barycenter(ts, ts, beta, ts)

    def test_beta_zero_is_exact_and_fast(self):
        rng = np.random.default_rng(59)
        source = random_tokenset(rng, 7, 3)
        target = random_tokenset(rng, 7, 3)
        result = pairwise_barycenter(source, target, 0.0, source)
        np.testing.assert_array_equal(result.support.points, source.points)
        assert result.converged
        assert result.iterations_used <= 2
        assert result.objective == pytest.approx(0.0, abs=1e-15)

    def test_beta_one_lands_on_target(self):
        rng = np.random.default_rng(61)
        source = random_tokenset(rng, 6, 2)
        target = random_tokenset(rng, 6, 2)
        result = pairwise_barycenter(source, target, 1.0, source)
        assert multiset_max_distance(result.support.points, target.points) < 1e-6

    def test_dirac_pair_midpoint(self):
        result = pairwise_barycenter(
            TokenSet([[0.0, 0.0]]), TokenSet([[2.0, 0.0]]), 0.5, TokenSet([[0.0, 0.0]])
        )
        np.testing.assert_allclose(result.support.points, [[1.0, 0.0]], atol=1e-12)

    def test_matches_free_support_with_pair_weights(self):
        rng = np.random.default_rng(67)
        source = random_tokenset(rng, 5, 2)
        target = random_tokenset(rng, 5, 2)
        direct = pairwise_barycenter(source, target, 0.25, source)
        via_free = free_support_barycenter(
            [source, target], source, weights=(0.75, 0.25)
        )
        np.testing.assert_array_equal(direct.support.points, via_free.support.points)

    def test_displacement_interpolation_equivalence(self):
        rng = np.random.default_rng(71)
        for n in (2, 5, 7, 10, 16):
            source = random_tokenset(rng, n, 3)
            target = random_tokenset(rng, n, 3)
            if n <= 7:
                sigma, _ = brute_force_permutation(source.points, target.points)
            else:
                sigma = scipy_assignment_permutation(source.points, target.points)
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                result = pairwise_barycenter(source, target, beta, source)
                expected = (1.0 - beta) * source.points + beta * target.points[sigma]
                assert result.converged
                assert multiset_max_distance(result.support.points, expected) < 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(73)
        source = random_tokenset(rng, 6, 2)
        target = random_tokenset(rng, 6, 2)
        shift = np.array([10.0, -3.0])
        base = pairwise_barycenter(source, target, 0.5, source)
        shifted = pairwise_barycenter(
            TokenSet(source.points + shift),
            TokenSet(target.points + shift),
            0.5,
            TokenSet(source.points + shift),
        )
        np.testing.assert_allclose(
            shifted.support.points, base.support.points + shift, atol=1e-8
        )


class TestWarmStart:
    """Each sweep's simplex solves start from the previous sweep's bases."""

    @pytest.mark.parametrize("seed", [101, 7, 3])
    def test_warm_sweeps_match_cold_sweeps(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        source = TokenSet(rng.normal(size=(20, 8)), rng.dirichlet(np.ones(20)))
        target = TokenSet(rng.normal(size=(16, 8)) + 1.0, rng.dirichlet(np.ones(16)))
        pivots = []
        real_simplex = ot_module._transportation_simplex

        def counted(*args):
            out = real_simplex(*args)
            pivots.append(out[1])
            return out

        monkeypatch.setattr(ot_module, "_transportation_simplex", counted)
        warm = pairwise_barycenter(source, target, 0.5, source)
        warm_pivots, pivots[:] = sum(pivots), []

        starts = []

        def cold_solve(nu, mu, *, start=None):
            starts.append(start)
            return solve_exact_ot(nu, mu)

        monkeypatch.setattr(barycenter_module, "solve_exact_ot", cold_solve)
        cold = pairwise_barycenter(source, target, 0.5, source)
        assert starts[:2] == [None, None]
        assert all(start is not None and basis(start) is not None for start in starts[2:])

        # Generic inputs have one optimal plan per sweep: the start changes
        # the pivots, not the iterates.
        assert warm.iterations_used == cold.iterations_used > 1
        np.testing.assert_allclose(warm.per_iteration_objective,
                                   cold.per_iteration_objective, rtol=1e-12)
        np.testing.assert_allclose(warm.support.points, cold.support.points,
                                   rtol=0, atol=1e-12)
        assert warm_pivots < sum(pivots)
