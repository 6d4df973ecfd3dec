import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from tokenmorph import (
    DimensionMismatchError,
    InvalidParameterError,
    SolverFailureError,
    TokenSet,
    TransportPlan,
    cost_matrix,
    gen_synthetic,
    solve_exact_ot,
    w2_distance,
    write_tokens,
)

import tokenmorph.ot as ot_module
from tokenmorph.cli import EXIT_SOLVER, main as cli_main

from conftest import (
    assert_ownership_rule,
    basis,
    brute_force_matching,
    brute_force_permutation,
    dense,
    dirichlet_tokenset,
    exact_plan_cost,
    linprog_plan,
    random_tokenset,
    reference_matching,
    scipy_assignment_permutation,
    simplex_cost,
    sorted_1d_ot,
)


def _support(plan):
    """A plan's shape and the bytes of its support arrays, for comparing
    two plans byte for byte."""
    return plan.shape, plan.rows.tobytes(), plan.cols.tobytes(), plan.mass.tobytes()


class TestCostMatrix:
    def test_single_pair(self):
        cm = cost_matrix(TokenSet([[0.0, 0.0]]), TokenSet([[3.0, 4.0]]))
        np.testing.assert_array_equal(cm.values, [[25.0]])

    def test_direct_arithmetic(self):
        cm = cost_matrix(TokenSet([[0.0], [1.0]]), TokenSet([[3.0], [5.0]]))
        np.testing.assert_array_equal(cm.values, [[9.0, 25.0], [4.0, 16.0]])

    def test_self_cost_is_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(0)
        ts = random_tokenset(rng, 6, 3)
        cm = cost_matrix(ts, ts)
        np.testing.assert_array_equal(np.diag(cm.values), np.zeros(6))
        np.testing.assert_allclose(cm.values, cm.values.T, atol=1e-12)

    def test_values_nonnegative(self):
        rng = np.random.default_rng(1)
        cm = cost_matrix(random_tokenset(rng, 5, 4), random_tokenset(rng, 7, 4))
        assert cm.values.min() >= 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cost_matrix(TokenSet([[0.0]]), TokenSet([[0.0, 1.0]]))

    def test_values_are_adopted_or_copied(self, copies):
        assert_ownership_rule(lambda values: ot_module.CostMatrix(values).values,
                              [[0.0, 1.0], [4.0, 9.0]])
        a, b = TokenSet([[0.0], [1.0]]), TokenSet([[3.0], [5.0]])
        copies.clear()
        cost_matrix(a, b)
        assert copies == []


def _one_shot_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _rows_per_block(n_cand: int, m: int) -> int:
    return max(1, ot_module._BLOCK_BYTES // (8 * n_cand * m))


class TestSquaredDistances:
    """The row-blocked distance kernel behind cost matrices and nearest tokens."""

    @pytest.mark.parametrize("n, n_cand, m", [
        (150, 64, 8),     # three full blocks and a partial one
        (5, 1000, 40),    # one row is larger than a block: single-row blocks
        (1, 37, 3),       # n = 1
        (300, 200, 1),    # m = 1, partial last block
    ])
    def test_bitwise_equal_to_one_shot_einsum(self, n, n_cand, m):
        rows = _rows_per_block(n_cand, m)
        assert n == 1 or rows == 1 or n % rows != 0, "shape must cross a block boundary"
        rng = np.random.default_rng(n * 7 + m)
        a = 3.0 * rng.normal(size=(n, m))
        b = rng.normal(size=(n_cand, m))
        np.testing.assert_array_equal(
            ot_module.squared_distances(a, b).view(np.uint64),
            _one_shot_sq_distances(a, b).view(np.uint64),
        )

    def test_cost_matrix_memory_is_bounded_by_the_block(self):
        rng = np.random.default_rng(5)
        a = random_tokenset(rng, 1024, 64)
        b = random_tokenset(rng, 1024, 64)
        block = max(ot_module._BLOCK_BYTES, 8 * b.n * b.m)
        tracemalloc.start()
        try:
            cm = cost_matrix(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A one-shot n x n' x m difference would take 512 MiB here.
        assert peak < cm.values.nbytes + 4 * block

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_overflowing_distances_raise(self, scale):
        a = TokenSet([[scale], [-scale]])
        b = TokenSet([[-scale], [scale]])
        with pytest.raises(InvalidParameterError, match="overflow"):
            cost_matrix(a, b)
        with pytest.raises(InvalidParameterError, match="overflow"):
            solve_exact_ot(a, b)
        with pytest.raises(InvalidParameterError, match="overflow"):
            simplex_cost(a, b)

    def test_largest_finite_distance_is_accepted(self):
        a = TokenSet([[6e153], [-6e153]])
        cm = cost_matrix(a, a)
        assert np.isfinite(cm.values).all() and cm.values.max() > 1e307


class TestSolveExactOT:
    def test_identical_single_diracs(self):
        plan = solve_exact_ot(TokenSet([[1.0, 2.0]]), TokenSet([[1.0, 2.0]]))
        np.testing.assert_array_equal(dense(plan), [[1.0]])
        assert plan.total_cost == 0.0

    def test_1d_derived_example(self):
        # Brute force over both permutations: identity costs (9+16)/2 = 12.5,
        # the swap (25+4)/2 = 14.5, so the optimum matches 0->3, 1->5.
        plan = solve_exact_ot(TokenSet([[0.0], [1.0]]), TokenSet([[3.0], [5.0]]))
        assert plan.total_cost == pytest.approx(12.5, rel=1e-12)
        np.testing.assert_array_equal(dense(plan), [[0.5, 0.0], [0.0, 0.5]])

    def test_forced_coupling_to_single_atom(self):
        plan = solve_exact_ot(TokenSet([[0.0], [1.0]]), TokenSet([[5.0]]))
        np.testing.assert_array_equal(dense(plan), [[0.5], [0.5]])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    def test_oracle_equivalence_both_paths(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = random_tokenset(rng, n, m)
        b = random_tokenset(rng, n, m)
        _, reference = brute_force_permutation(a.points, b.points)
        # Uniform equal-size sets: solve_exact_ot takes the assignment route.
        for got in (solve_exact_ot(a, b).total_cost, simplex_cost(a, b)):
            assert got == pytest.approx(reference, rel=1e-9)

    def test_1d_equivalence_up_to_n64(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 16, 33, 64):
            a = random_tokenset(rng, n, 1, scale=3.0)
            b = random_tokenset(rng, n, 1, scale=3.0)
            reference = sorted_1d_ot(a, b)
            assert solve_exact_ot(a, b).total_cost == pytest.approx(reference, rel=1e-9)
            assert simplex_cost(a, b) == pytest.approx(reference, rel=1e-9)

    def test_marginals_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, n2, m = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 5)
            wa = rng.random(n) + 0.05
            wb = rng.random(n2) + 0.05
            a = TokenSet(rng.normal(size=(n, m)), wa / wa.sum())
            b = TokenSet(rng.normal(size=(n2, m)), wb / wb.sum())
            plan = solve_exact_ot(a, b)
            np.testing.assert_allclose(np.bincount(plan.rows, plan.mass, n), a.weights,
                                       atol=1e-9)
            np.testing.assert_allclose(np.bincount(plan.cols, plan.mass, n2), b.weights,
                                       atol=1e-9)
            assert plan.mass.min() > 0.0
            costs = cost_matrix(a, b).values[plan.rows, plan.cols]
            assert plan.total_cost == pytest.approx(float(np.sum(plan.mass * costs)), rel=1e-9)

    def test_general_weights_match_reference_lp(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n, n2, m = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
            wa = rng.random(n) + 0.1
            wb = rng.random(n2) + 0.1
            a = TokenSet(rng.normal(size=(n, m)), wa / wa.sum())
            b = TokenSet(rng.normal(size=(n2, m)), wb / wb.sum())
            plan = solve_exact_ot(a, b)
            assert plan.total_cost == pytest.approx(linprog_plan(a, b)[1], rel=1e-9, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            a = random_tokenset(rng, n, m)
            b = random_tokenset(rng, n, m)
            shift = rng.uniform(-5.0, 5.0, size=m)
            plan = solve_exact_ot(a, b)
            plan_shifted = solve_exact_ot(
                TokenSet(a.points + shift), TokenSet(b.points + shift)
            )
            assert plan_shifted.shape == plan.shape
            np.testing.assert_array_equal(plan_shifted.rows, plan.rows)
            np.testing.assert_array_equal(plan_shifted.cols, plan.cols)
            np.testing.assert_allclose(plan_shifted.mass, plan.mass, rtol=0, atol=1e-12)
            assert plan_shifted.total_cost == pytest.approx(
                plan.total_cost, rel=1e-9, abs=1e-9
            )

    def test_translation_invariance_simplex_route(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            n, n2, m = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
            wa = rng.random(n) + 0.1
            wb = rng.random(n2) + 0.1
            a = TokenSet(rng.normal(size=(n, m)), wa / wa.sum())
            b = TokenSet(rng.normal(size=(n2, m)), wb / wb.sum())
            shift = rng.uniform(-5.0, 5.0, size=m)
            plan = solve_exact_ot(a, b)
            plan_shifted = solve_exact_ot(
                TokenSet(a.points + shift, a.weights),
                TokenSet(b.points + shift, b.weights),
            )
            assert plan_shifted.shape == plan.shape
            np.testing.assert_array_equal(plan_shifted.rows, plan.rows)
            np.testing.assert_array_equal(plan_shifted.cols, plan.cols)
            np.testing.assert_allclose(plan_shifted.mass, plan.mass, rtol=0, atol=1e-12)
            assert plan_shifted.total_cost == pytest.approx(
                plan.total_cost, rel=1e-9, abs=1e-9
            )

    def test_duplicate_points_are_handled_deterministically(self):
        a = TokenSet([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        b = TokenSet([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        first = solve_exact_ot(a, b)
        second = solve_exact_ot(a, b)
        assert _support(first) == _support(second)
        assert first.total_cost == pytest.approx((0 + 2 + 0) / 3, rel=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        a = random_tokenset(rng, 9, 3)
        b = random_tokenset(rng, 9, 3)
        p1 = solve_exact_ot(a, b)
        p2 = solve_exact_ot(a, b)
        assert _support(p1) == _support(p2)
        assert p1.total_cost == p2.total_cost

    def test_concurrent_solves_on_shared_sets(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(37)
        a = random_tokenset(rng, 12, 4)
        b = random_tokenset(rng, 12, 4)
        reference = solve_exact_ot(a, b)
        with ThreadPoolExecutor(max_workers=4) as pool:
            plans = list(pool.map(lambda _: solve_exact_ot(a, b), range(8)))
        for plan in plans:
            assert _support(plan) == _support(reference)


class TestPlanCost:
    """Every plan cost is the exactly rounded sum of its support's rounded
    products mass * cost, on both routes and in ``identity_w2``."""

    @staticmethod
    def _instances(weighted: bool):
        rng = np.random.default_rng(43 if weighted else 47)
        for _ in range(60):
            n, m = int(rng.integers(2, 30)), int(rng.integers(1, 5))
            if weighted:
                yield (dirichlet_tokenset(rng, n, m),
                       dirichlet_tokenset(rng, int(rng.integers(2, 30)), m))
            else:
                yield random_tokenset(rng, n, m), random_tokenset(rng, n, m)

    @pytest.mark.parametrize("weighted", [False, True], ids=["assignment", "simplex"])
    def test_total_cost_is_the_exactly_rounded_product_sum(self, weighted):
        layout_differs = 0
        for a, b in self._instances(weighted):
            plan = solve_exact_ot(a, b)
            values = cost_matrix(a, b).values
            assert (basis(plan) is None) != weighted
            assert plan.total_cost == exact_plan_cost(plan, values)
            layout_differs += plan.total_cost != float(np.sum(dense(plan) * values))
        # The instances reach the last bit: a sum grouped by the n x n'
        # layout, as numpy's pairwise reduction groups it, misses it on some.
        assert layout_differs > 0

    def test_identity_w2_squares_to_the_exactly_rounded_product_sum(self, monkeypatch):
        squared = []
        real_sqrt = math.sqrt
        monkeypatch.setattr(math, "sqrt", lambda x: squared.append(x) or real_sqrt(x))
        for a, b in self._instances(weighted=False):
            # The identity plan: mass 1/n on each diagonal cell.
            diagonal = np.arange(a.n)
            identity = TransportPlan(diagonal, diagonal, np.full(a.n, 1.0 / a.n),
                                     (a.n, a.n), 0.0)
            expected = exact_plan_cost(identity, cost_matrix(a, b).values)
            assert ot_module.identity_w2(a, b) == real_sqrt(expected)
            assert squared.pop() == expected

    @staticmethod
    def _peak_bytes(route, n):
        rng = np.random.default_rng(53)
        a = random_tokenset(rng, n, 64)
        b = random_tokenset(rng, n, 64)
        tracemalloc.start()
        try:
            getattr(ot_module, route)(a, b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("route", ["solve_exact_ot", "identity_w2"])
    def test_peak_memory_at_n_256(self, route):
        # A uniform solve holds one n x n array, the cost matrix, and
        # identity_w2 none. At n = 256 the cost matrix's row blocks (256
        # KiB of differences each) still count: a solve peaks at 2.15 to
        # 2.26 n x n arrays, so this bound cannot tighten much here.
        bound = 2.5 if route == "solve_exact_ot" else 0.5
        assert self._peak_bytes(route, 256) < bound * 8 * 256 * 256

    def test_peak_memory_of_a_uniform_solve_at_n_1024(self):
        # The cost matrix plus an n x n bool mask and its transposed copy
        # for the column-reduction start (1.25 n x n arrays); a dense
        # coupling or a full reduced-cost buffer would add a whole one.
        assert self._peak_bytes("solve_exact_ot", 1024) < 1.5 * 8 * 1024 * 1024

    def test_peak_memory_of_a_simplex_solve_at_300_by_200(self):
        # The cost matrix, the least-cost start's argsort of it and the
        # pricing buffer: 2.43 n x n' arrays. The start's sorted cells as
        # one Python list of ints would add about five.
        rng = np.random.default_rng(53)
        a, b = dirichlet_tokenset(rng, 300, 64), dirichlet_tokenset(rng, 200, 64)
        tracemalloc.start()
        try:
            solve_exact_ot(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 300 * 200

    @pytest.mark.parametrize("weighted", [False, True], ids=["assignment", "simplex"])
    def test_support_arrays_are_read_only(self, weighted, copies):
        a, b = next(self._instances(weighted))
        copies.clear()
        plan = solve_exact_ot(a, b)
        assert copies == []  # the solve hands its support arrays over
        for array in (plan.rows, plan.cols, plan.mass):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # A caller's read-only owned array is adopted; any other is copied,
        # so changing it leaves the plan as it was.
        support = {"rows": np.array([0, 1]), "cols": np.array([1, 0]),
                   "mass": np.array([0.5, 0.5])}
        for name, values in support.items():
            def store(array):
                built = TransportPlan(**{**support, name: array}, shape=(2, 2), total_cost=1.0)
                assert built.shape == (2, 2)
                return getattr(built, name)
            assert_ownership_rule(store, values)

    @pytest.mark.parametrize("weighted", [False, True], ids=["assignment", "simplex"])
    def test_support_mass_sums_to_the_weights(self, weighted):
        for a, b in self._instances(weighted):
            plan = solve_exact_ot(a, b)
            assert plan.rows.shape == plan.cols.shape == plan.mass.shape
            if weighted:
                assert len(plan.mass) <= a.n + b.n - 1
            else:
                np.testing.assert_array_equal(plan.rows, np.arange(a.n))
            np.testing.assert_allclose(np.bincount(plan.rows, plan.mass, a.n), a.weights,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.bincount(plan.cols, plan.mass, b.n), b.weights,
                                       rtol=0, atol=1e-12)
            assert plan.mass.min() > 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 3), st.booleans(),
           st.integers(0, 10_000))
    @example(15, 3, 2, False, 1)
    @example(16, 12, 2, True, 3)
    def test_uniform_masses_are_whole_counts(self, n, n2, m, ties, seed):
        # Uniform sets of unequal size run the simplex on counts, n' per
        # row and n per column: each mass is k / (n n') for a whole k >= 1,
        # correctly rounded, and no cell holds rounding dust.
        if n == n2:
            n2 += 1  # stay off the assignment route
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, "uniform", ties)
        plan = solve_exact_ot(a, b)
        counts = np.rint(plan.mass * (n * n2))
        assert counts.min() >= 1
        assert plan.mass.tobytes() == (counts / (n * n2)).tobytes()
        assert len(plan.mass) <= n + n2 - 1
        np.testing.assert_array_equal(np.bincount(plan.rows, counts, n), np.full(n, n2))
        np.testing.assert_array_equal(np.bincount(plan.cols, counts, n2), np.full(n2, n))


class TestW2Distance:
    def test_identity_is_zero(self):
        ts = TokenSet([[1.0, 2.0], [3.0, 4.0]])
        assert w2_distance(ts, ts) == 0.0

    def test_dirac_pair(self):
        assert w2_distance(TokenSet([[0.0, 0.0]]), TokenSet([[2.0, 0.0]])) == pytest.approx(2.0)

    def test_1d_derived(self):
        got = w2_distance(TokenSet([[0.0], [1.0]]), TokenSet([[3.0], [5.0]]))
        assert got == pytest.approx(np.sqrt(12.5), rel=1e-12)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            a = random_tokenset(rng, n, m)
            b = random_tokenset(rng, n, m)
            c = random_tokenset(rng, n, m)
            dab, dba = w2_distance(a, b), w2_distance(b, a)
            dac, dbc = w2_distance(a, c), w2_distance(b, c)
            assert dab >= 0.0
            assert w2_distance(a, a) == 0.0
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dbc + 1e-8

    def test_symmetry_with_unequal_sizes(self):
        rng = np.random.default_rng(30)
        for _ in range(6):
            a = random_tokenset(rng, int(rng.integers(2, 7)), 3)
            b = random_tokenset(rng, int(rng.integers(2, 7)), 3)
            assert w2_distance(a, b) == pytest.approx(w2_distance(b, a), abs=1e-9)


class TestScaleInvariance:
    """Scaling every coordinate by s scales the optimal cost by exactly s**2.

    The simplex's optimality tolerance must be relative to the costs: an
    absolute floor stops it at its northwest-corner start once all costs
    fall below about 1e-11 (coordinates around 1e-6).
    """

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 4),
           st.integers(0, 10_000), st.floats(-6.0, 6.0))
    @example(6, 5, 3, 0, -6.0)
    def test_simplex_route(self, n, n2, m, seed, exponent):
        rng = np.random.default_rng(seed)
        a = dirichlet_tokenset(rng, n, m)
        b = dirichlet_tokenset(rng, n2, m)
        s = 10.0 ** exponent
        base = simplex_cost(a, b)
        scaled = simplex_cost(
            TokenSet(s * a.points, a.weights), TokenSet(s * b.points, b.weights)
        )
        assert scaled == pytest.approx(s * s * base, rel=1e-9, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10_000),
           st.floats(-6.0, 6.0))
    @example(6, 3, 0, -6.0)
    def test_assignment_route(self, n, m, seed, exponent):
        rng = np.random.default_rng(seed)
        a = random_tokenset(rng, n, m)
        b = random_tokenset(rng, n, m)
        s = 10.0 ** exponent
        # Uniform equal-size sets: solve_exact_ot takes the assignment route.
        base = solve_exact_ot(a, b).total_cost
        scaled = solve_exact_ot(TokenSet(s * a.points), TokenSet(s * b.points)).total_cost
        assert scaled == pytest.approx(s * s * base, rel=1e-9, abs=0.0)


class TestSolveAssignment:
    """``ot._min_cost_matching``, the Jonker-Volgenant solver behind the
    uniform route.

    It returns the permutation (``perm[i]`` is row i's column) and the
    final row and column duals; the tests sum the matched costs.
    """

    def test_derived_two_by_two(self):
        # Enumerating both permutations: identity 9+16=25 beats swap 25+4=29.
        values = np.array([[9.0, 25.0], [4.0, 16.0]])
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(2), perm].sum()
        np.testing.assert_array_equal(perm, [0, 1])
        assert cost == 25.0

    def test_zero_matrix_tie_breaks_to_identity(self):
        values = np.zeros((5, 5))
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(5), perm].sum()
        np.testing.assert_array_equal(perm, np.arange(5))
        assert cost == 0.0

    def test_diagonal_dominant(self):
        values = np.array([[0.0, 9.0], [9.0, 0.0]])
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(2), perm].sum()
        np.testing.assert_array_equal(perm, [0, 1])
        assert cost == 0.0

    def test_accepts_cost_matrix_instances(self):
        # A CostMatrix's values are read-only; the solver only reads them.
        a = TokenSet([[0.0], [1.0]])
        b = TokenSet([[3.0], [5.0]])
        perm, *_ = ot_module._min_cost_matching(cost_matrix(a, b).values)
        np.testing.assert_array_equal(perm, [0, 1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_matches_scipy_on_random_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 10.0, size=(n, n))
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(n), perm].sum()
        rows, cols = linear_sum_assignment(values)
        assert cost == pytest.approx(float(values[rows, cols].sum()), rel=1e-12)
        assert sorted(perm.tolist()) == list(range(n))

    def test_single_entry(self):
        values = np.array([[3.5]])
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(1), perm].sum()
        np.testing.assert_array_equal(perm, [0])
        assert cost == 3.5

    def test_equal_rows_tie_break_to_identity(self):
        # Every permutation costs the row's sum; each row takes the
        # smallest-index column still open.
        values = np.tile([4.0, 1.0, 3.0, 1.0, 0.5, 2.0], (6, 1))
        perm, _, _ = ot_module._min_cost_matching(values)
        cost = values[np.arange(6), perm].sum()
        np.testing.assert_array_equal(perm, np.arange(6))
        assert cost == 11.5

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(lambda n: st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )),
        st.sampled_from([1e-7, 1.0, 1e7]),
    )
    def test_tie_heavy_matrices_match_brute_force(self, entries, scale):
        values = scale * np.array(entries, dtype=np.float64)
        n = values.shape[0]
        perm, u, v = ot_module._min_cost_matching(values)
        assert sorted(perm.tolist()) == list(range(n))
        cost = values[np.arange(n), perm].sum()
        # Strong duality: on the matched cells the duals sum to the cost.
        assert abs(cost - (u.sum() + v.sum())) <= n * 1e-11 * float(values.max())
        _, reference = brute_force_matching(values)
        assert cost == pytest.approx(reference, rel=1e-12, abs=0.0)
        # The final duals pass the certificate that solve_exact_ot applies.
        ot_module._certify_assignment(values, perm, u, v)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )),
        st.sampled_from([1e-7, 1.0, 1e7]),
    )
    def test_column_reduction_start_is_the_first_argmin(self, entries, scale):
        values = scale * np.array(entries, dtype=np.float64)
        rows = ot_module._first_rows_at(values, values.min(axis=0))
        np.testing.assert_array_equal(rows, values.argmin(axis=0))

    @staticmethod
    def _check_reduction_start(values):
        """The start's invariants under the certificate's relative tolerance
        (of the largest magnitude, since test entries can be negative): the
        two index maps agree on every matched pair, the duals are finite,
        every reduced cost is >= -tol and every matched one within tol of 0."""
        col_of, row_of, u, v = ot_module._reduction_start(values)
        rows = np.flatnonzero(col_of >= 0)
        cols = np.flatnonzero(row_of >= 0)
        np.testing.assert_array_equal(row_of[col_of[rows]], rows)
        np.testing.assert_array_equal(col_of[row_of[cols]], cols)
        assert np.isfinite(u).all() and np.isfinite(v).all()
        tol = 1e-11 * float(np.abs(values).max())
        reduced = values - u[:, None] - v
        assert reduced.min() >= -tol
        assert np.abs(reduced[rows, col_of[rows]]).max(initial=0.0) <= tol
        return col_of

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )),
        st.sampled_from([1e-7, 1.0, 1e7]),
    )
    def test_reduction_start_invariants_on_tie_heavy_matrices(self, entries, scale):
        self._check_reduction_start(scale * np.array(entries, dtype=np.float64))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 10_000))
    def test_reduction_start_invariants_on_random_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        self._check_reduction_start(rng.uniform(0.0, 10.0, size=(n, n)))

    def test_row_reduction_leaves_few_rows_to_the_dijkstra_phase(self):
        # Column reduction alone leaves 140 of these 256 rows free, more
        # than one 128-row block of bids.
        a = gen_synthetic("gaussian_blob", 256, 64, 101)
        b = gen_synthetic("gaussian_blob", 256, 64, 202)
        col_of = self._check_reduction_start(cost_matrix(a, b).values)
        assert (col_of < 0).sum() < 64

    def test_costs_near_the_float64_limit_certify_or_raise(self):
        # Above half the float64 maximum, c - v and path lengths can
        # overflow: no step may warn (Tier-1 fails on a RuntimeWarning),
        # and a solve must end certified or raise SolverFailureError.
        pairs = [(TokenSet([[6e153], [-6e153]]), TokenSet([[6e153], [-6e153]]))]
        rng = np.random.default_rng(67)
        for exponent in (150, 152, 153, 153.5, 153.9, 154):
            for _ in range(3):
                n, m = int(rng.integers(2, 40)), int(rng.integers(1, 4))
                # Coordinates below sqrt(float max / m) * 10**(exponent - 154):
                # every cost is finite, and near the maximum at 154.
                scale = math.sqrt(np.finfo(float).max / m) * 10.0 ** (exponent - 154)
                pairs.append((TokenSet(rng.random((n, m)) * scale),
                              TokenSet(rng.random((n, m)) * scale)))
        for a, b in pairs:
            values = cost_matrix(a, b).values
            assert values.max() > 1e299
            self._check_reduction_start(values)
            try:
                plan = solve_exact_ot(a, b)
            except SolverFailureError:
                continue
            # Quartered costs keep scipy's own sums finite; the scaling is exact.
            rows, cols = linear_sum_assignment(values / 4)
            reference = math.fsum((values[rows, cols] / a.n).tolist())
            assert abs(plan.total_cost - reference) <= 1e-11 * float(values.max())

        # Free row 1 bids for column 0 with a gap near the maximum: taken,
        # it would push v[0] to -big and row 2's c - v past the maximum.
        big = 0.9 * np.finfo(float).max
        values = np.array([[0.0, 0.0, big], [0.0, big, big], [big, big, 0.0]])
        self._check_reduction_start(values)
        perm, u, v = ot_module._min_cost_matching(values)
        ot_module._certify_assignment(values, perm, u, v)

    @pytest.mark.parametrize("seed", [101, 7])
    def test_permutation_equals_scipy_on_blob_pairs(self, seed):
        a = gen_synthetic("gaussian_blob", 256, 64, seed)
        b = gen_synthetic("gaussian_blob", 256, 64, seed + 101)
        perm, *_ = ot_module._min_cost_matching(cost_matrix(a, b).values)
        np.testing.assert_array_equal(
            perm, scipy_assignment_permutation(a.points, b.points)
        )

    @pytest.mark.parametrize("corrupt", [
        # Rows 0 and 1 trade columns: still a permutation, not optimal.
        lambda perm, u, v: (perm[[1, 0, *range(2, len(perm))]], u, v),
        lambda perm, u, v: (perm, u + 1.0, v),  # duals price cells below zero
        lambda perm, u, v: (perm, u, v - 1.0),  # matched cells off zero
    ], ids=["permutation", "infeasible duals", "slack"])
    def test_certificate_rejects_corrupted_duals_or_permutation(self, corrupt, monkeypatch):
        real = ot_module._min_cost_matching

        def corrupted(values):
            return corrupt(*real(values))

        monkeypatch.setattr(ot_module, "_min_cost_matching", corrupted)
        rng = np.random.default_rng(5)
        a = random_tokenset(rng, 12, 3)
        b = random_tokenset(rng, 12, 3)
        with pytest.raises(SolverFailureError, match="assignment is not optimal"):
            solve_exact_ot(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.sampled_from(["grid", "duplicated", "zero", "distances"]),
           st.integers(0, 10_000))
    @example(40, "grid", 0)
    @example(40, "duplicated", 1)
    @example(1, "zero", 0)
    def test_matches_the_reference_loop_bit_for_bit(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":
            values = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        elif kind == "duplicated":  # a few rows, repeated
            base = rng.integers(0, 3, size=(max(1, n // 3), n)).astype(np.float64)
            values = base[rng.integers(0, len(base), n)]
        elif kind == "zero":
            values = np.zeros((n, n))
        else:
            values = cost_matrix(TokenSet(rng.integers(-2, 3, size=(n, 2)).astype(np.float64)),
                                 random_tokenset(rng, n, 2)).values
        _assert_same_matching(ot_module._min_cost_matching(values), reference_matching(values))

    def test_criterion_10_pair_matches_the_reference_loop_bit_for_bit(self):
        a = gen_synthetic("gaussian_blob", 256, 64, 101)
        b = gen_synthetic("gaussian_blob", 256, 64, 202)
        values = cost_matrix(a, b).values
        # The row reduction leaves rows for the augmenting paths.
        assert (ot_module._reduction_start(values)[0] < 0).sum() > 0
        _assert_same_matching(ot_module._min_cost_matching(values), reference_matching(values))

    @pytest.mark.parametrize("corrupt", [
        lambda perm, u, v: (perm[[*range(len(perm) - 2), -1, -2]], u, v),
        lambda perm, u, v: (perm, u + np.eye(len(u))[-1], v),
    ], ids=["permutation", "infeasible duals"])
    def test_certificate_checks_every_row_block(self, corrupt):
        # 300 rows make three row blocks of 109 rows each at most; only
        # the last one holds the corruption.
        rng = np.random.default_rng(61)
        values = cost_matrix(random_tokenset(rng, 300, 3), random_tokenset(rng, 300, 3)).values
        assert ot_module._BLOCK_BYTES // (8 * 300) < 150
        perm, u, v = ot_module._min_cost_matching(values)
        ot_module._certify_assignment(values, perm, u, v)
        with pytest.raises(SolverFailureError, match="assignment is not optimal"):
            ot_module._certify_assignment(values, *corrupt(perm, u, v))

    def test_consistency_with_general_solver(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 8, 12):
            a = random_tokenset(rng, n, 3)
            b = random_tokenset(rng, n, 3)
            values = cost_matrix(a, b).values
            perm, _, _ = ot_module._min_cost_matching(values)
            cost = values[np.arange(n), perm].sum()
            assert cost / n == pytest.approx(simplex_cost(a, b), rel=1e-9)


def _assert_same_matching(got, expected):
    """Equal columns, and row and column duals equal bit for bit."""
    assert got[0].tolist() == expected[0].tolist()
    assert got[1].tobytes() == expected[1].tobytes()
    assert got[2].tobytes() == expected[2].tobytes()


def _flat(cells, m):
    return np.array(sorted(i * m + j for i, j in cells), dtype=np.int64)


def _weighted_pair(rng, n, n2, m, weights, ties):
    def points(size):
        if ties:
            return rng.integers(0, 3, size=(size, m)).astype(np.float64)
        return rng.normal(size=(size, m))

    def mass(size, kind):
        return rng.dirichlet(np.ones(size)) if kind == "dirichlet" else None

    kinds = {"dirichlet": ("dirichlet", "dirichlet"), "uniform": ("uniform", "uniform"),
             "mixed": ("dirichlet", "uniform")}[weights]
    return (TokenSet(points(n), mass(n, kinds[0])), TokenSet(points(n2), mass(n2, kinds[1])))


def _assert_tree_matches_fresh_walk(tree, values, supply, demand):
    """Parent, sizes, thread, potentials and flows of an updated tree
    against a tree walked afresh from its cells."""
    fresh = ot_module._BasisTree(values, tree.cells())
    assert fresh.set_flows(supply, demand)
    size = len(tree.parent)
    assert tree.parent == fresh.parent
    assert tree.size == fresh.size
    # The thread is a preorder: it starts at the root, pos inverts it, and
    # every subtree is one block. Sibling order may differ from the walk's.
    assert tree.order[0] == 0
    assert sorted(tree.order) == list(range(size))
    assert [tree.pos[k] for k in tree.order] == list(range(size))
    for k in range(size):
        lo, flo = tree.pos[k], fresh.pos[k]
        assert set(tree.order[lo:lo + tree.size[k]]) == set(fresh.order[flo:flo + fresh.size[k]])
    scale = float(np.abs(fresh.pot).max()) + float(values.max())
    np.testing.assert_allclose(tree.pot, fresh.pot, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(tree.flow, fresh.flow, rtol=0, atol=1e-12)
    # Re-priced and with its flows set afresh, the tree matches the walk
    # bit for bit, whatever sibling order its thread has. The reference
    # flows eliminate leaves up the fresh walk's thread in reverse.
    net = supply.tolist() + (-demand).tolist()
    for k in fresh.order[:0:-1]:
        net[fresh.parent[k]] += net[k]
    n = len(supply)
    walked = [0.0] + [max(net[k] if k < n else -net[k], 0.0) for k in range(1, size)]
    priced = tree.priced_copy(values)
    assert priced.set_flows(supply, demand)
    assert np.array(priced.flow).tobytes() == np.array(walked).tobytes()
    assert priced.pot.tobytes() == fresh.pot.tobytes()


def _tree_state(tree):
    return (tree.parent[:], tree.size[:], tree.flow[:],
            tree.order[:], tree.pos[:], tree.pot.tobytes())


class TestBasisTree:
    """``ot._BasisTree``, the simplex's spanning tree in arrays, and its
    pivot, which re-hangs one subtree."""

    # Staircase basis; nodes are rows 0-2 and columns 3-5. From row 0:
    # columns 0 and 1 hang off row 0, row 1 off column 1, column 2 off
    # row 1, and row 2 off column 2.
    STAIRCASE = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]

    def test_basis_cells_have_zero_reduced_cost(self):
        values = np.array([[1.0, 4.0, 2.0], [3.0, 0.5, 5.0]])
        basis = [(0, 0), (0, 1), (1, 1), (1, 2)]
        tree = ot_module._BasisTree(values, _flat(basis, 3))
        u, v = tree.pot[:2], tree.pot[2:]
        assert u[0] == 0.0
        for i, j in basis:
            assert values[i, j] - u[i] - v[j] == 0.0

    @pytest.mark.parametrize("basis, n, m", [
        ([(0, 0), (1, 1)], 2, 2),                  # two components
        ([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 3),  # n + m - 1 cells with a cycle
        ([(0, 0), (0, 1)], 2, 2),                  # too few cells
        ([(0, 0), (2, 0)], 2, 1),                  # a cell outside the grid
    ])
    def test_disconnected_basis_raises(self, basis, n, m):
        with pytest.raises(SolverFailureError, match="spanning tree"):
            ot_module._BasisTree(np.ones((n, m)), _flat(basis, m))

    def test_walk_gives_parent_depth_and_thread(self):
        tree = ot_module._BasisTree(np.ones((3, 3)), _flat(self.STAIRCASE, 3))
        assert tree.parent == [-1, 4, 5, 0, 0, 1]
        np.testing.assert_array_equal(tree.order, [0, 4, 1, 5, 2, 3])
        assert tree.size == [6, 3, 1, 1, 4, 2]

    def test_pivot_rehangs_the_cut_subtree(self):
        # Northwest-corner flows on the staircase: 1/4, 1/4, 1/4, 1/8, 1/8.
        values = np.arange(9.0).reshape(3, 3) ** 2
        supply = np.array([0.5, 0.375, 0.125])
        demand = np.array([0.25, 0.5, 0.25])
        tree = ot_module._BasisTree(values, _flat(self.STAIRCASE, 3))
        assert tree.set_flows(supply, demand)
        # Entering (2, 0) closes row 2 -> col 2 -> row 1 -> col 1 -> row 0
        # -> col 0; (2, 2), (1, 1) and (0, 0) give up flow, and (2, 2),
        # with the least (1/8), leaves. Row 2 is cut off and hangs from
        # column 0 instead.
        delta = values[2, 0] - tree.pot[2] - tree.pot[3]
        tree.pivot(2, 0, float(delta))
        assert tree.parent == [-1, 4, 3, 0, 0, 1]
        coupling = np.zeros((3, 3))
        coupling.flat[tree.cells()] = tree.flow[1:]
        np.testing.assert_array_equal(coupling, [[0.125, 0.375, 0.0],
                                                 [0.0, 0.125, 0.25],
                                                 [0.125, 0.0, 0.0]])
        _assert_tree_matches_fresh_walk(tree, values, supply, demand)

    def test_tied_donors_leave_by_smallest_cell(self):
        values = np.arange(9.0).reshape(3, 3) ** 2
        supply = np.array([0.5, 0.25, 0.25])
        demand = np.array([0.25, 0.5, 0.25])
        tree = ot_module._BasisTree(values, _flat(self.STAIRCASE, 3))
        assert tree.set_flows(supply, demand)
        # Entering (2, 0): (2, 2), (1, 1) and (0, 0) all give up 1/4, and
        # (0, 0), the smallest cell, leaves. Column 0 is cut off and hangs
        # from row 2 instead.
        tree.pivot(2, 0, float(values[2, 0] - tree.pot[2] - tree.pot[3]))
        assert tree.parent == [-1, 4, 5, 2, 0, 1]
        _assert_tree_matches_fresh_walk(tree, values, supply, demand)

    @pytest.mark.parametrize("node, size", [(0, 5), (2, 2)],
                             ids=["root block misses column 0", "row 2 block holds column 0"])
    def test_an_inconsistent_thread_raises(self, node, size):
        # Entering (2, 0) on the staircase: the root's block must hold
        # column 0, and row 2's must not. Either corruption sends a climb
        # above the root, where Python's parent[-1] would cycle forever.
        values = np.arange(9.0).reshape(3, 3) ** 2
        tree = ot_module._BasisTree(values, _flat(self.STAIRCASE, 3))
        assert tree.set_flows(np.full(3, 1 / 3), np.full(3, 1 / 3))
        tree.size[node] = size
        with pytest.raises(SolverFailureError, match="thread is inconsistent"):
            tree.pivot(2, 0, float(values[2, 0] - tree.pot[2] - tree.pot[3]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
           st.sampled_from(["dirichlet", "uniform", "mixed"]), st.booleans(),
           st.integers(0, 10_000))
    @example(2, 3, 1, "dirichlet", False, 1)  # children summed out of order show here
    def test_random_pivots_match_a_fresh_walk(self, n, n2, m, weights, ties, seed):
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, weights, ties)
        values = cost_matrix(a, b).values
        tree = ot_module._BasisTree(
            values, ot_module._least_cost_start(values, a.weights, b.weights))
        assert tree.set_flows(a.weights, b.weights)
        for _ in range(25):
            basic = np.zeros(n * n2, dtype=bool)
            basic[tree.cells()] = True
            if basic.all():
                break
            ei, ej = divmod(int(rng.choice(np.flatnonzero(~basic))), n2)
            tree.pivot(ei, ej, float(values[ei, ej] - tree.pot[ei] - tree.pot[n + ej]))
            assert min(tree.flow) >= 0.0
            _assert_tree_matches_fresh_walk(tree, values, a.weights, b.weights)


class TestNetworkSimplex:
    """``ot._transportation_simplex`` against scipy's HiGHS LP solver, and
    its warm starts."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from(["dirichlet", "uniform", "mixed"]), st.booleans(),
           st.floats(-6.0, 6.0), st.integers(0, 10_000))
    @example(30, 29, 2, "uniform", True, 0.0, 0)
    @example(17, 5, 3, "dirichlet", False, -6.0, 1)
    @example(4, 23, 1, "mixed", True, 6.0, 2)
    def test_matches_linprog(self, n, n2, m, weights, ties, exponent, seed):
        if n == n2:
            n2 += 1
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, weights, ties)
        s = 10.0 ** exponent
        plan = solve_exact_ot(TokenSet(s * a.points, a.weights),
                              TokenSet(s * b.points, b.weights))
        np.testing.assert_allclose(np.bincount(plan.rows, plan.mass, n), a.weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.bincount(plan.cols, plan.mass, n2), b.weights,
                                   rtol=0, atol=1e-12)
        assert plan.mass.min() > 0.0
        assert basis(plan).shape == (n + n2 - 1,)
        # The oracle solves the unscaled problem, where HiGHS's absolute
        # tolerances are meaningful; the optimum scales by s**2.
        reference = linprog_plan(a, b)[1]
        assert plan.total_cost / (s * s) == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 3),
           st.sampled_from(["dirichlet", "uniform", "mixed"]), st.booleans(),
           st.integers(0, 10_000))
    def test_warm_start_from_the_final_basis_makes_no_pivots(
        self, n, n2, m, weights, ties, seed
    ):
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, weights, ties)
        values = cost_matrix(a, b).values
        tree, _ = ot_module._transportation_simplex(values, a.weights, b.weights)
        cells = tree.cells()
        fresh = ot_module._BasisTree(values, cells)
        assert fresh.set_flows(a.weights, b.weights)
        # From the walked cells and from the carried tree alike.
        for start in (ot_module._BasisTree(values, cells), tree):
            again, pivots = ot_module._transportation_simplex(
                values, a.weights, b.weights, start)
            assert pivots == 0
            np.testing.assert_array_equal(again.cells(), cells)
            # Without a pivot the closing flow pass is skipped: the tree
            # holds exactly the flows of a fresh pass over its basis.
            assert np.array(again.flow).tobytes() == np.array(fresh.flow).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 3),
           st.sampled_from(["dirichlet", "uniform", "mixed"]), st.booleans(),
           st.integers(0, 10_000))
    @example(20, 17, 2, "dirichlet", False, 0)
    @example(12, 9, 2, "uniform", True, 5)
    def test_carried_tree_starts_as_the_walked_basis(self, n, n2, m, weights, ties, seed):
        # A barycenter sweep's warm start: the support moved, the weights
        # did not. Starting from the plan's carried tree or from a fresh
        # walk of its basis gives the same pivots, basis and coupling.
        if n == n2:
            n2 += 1  # stay off the assignment route
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, weights, ties)
        plan = solve_exact_ot(a, b)
        before = _tree_state(plan._tree)
        step = rng.integers(-1, 2, size=a.points.shape) if ties else rng.normal(size=a.points.shape)
        values = cost_matrix(TokenSet(a.points + 0.5 * step, a.weights), b).values
        from_tree = ot_module._transportation_simplex(values, a.weights, b.weights, plan._tree)
        from_cells = ot_module._transportation_simplex(
            values, a.weights, b.weights, ot_module._BasisTree(values, basis(plan)))
        assert from_tree[1] == from_cells[1]
        np.testing.assert_array_equal(from_tree[0].cells(), from_cells[0].cells())
        assert from_tree[0].flow == from_cells[0].flow
        assert _tree_state(plan._tree) == before

    @pytest.mark.parametrize("seed", [101, 7, 3])
    def test_a_plan_started_from_twice_gives_the_same_solve(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, 20, 16, 8, "dirichlet", False)
        plan = solve_exact_ot(a, b)
        values = cost_matrix(TokenSet(a.points + rng.normal(size=a.points.shape), a.weights),
                             b).values
        first = ot_module._transportation_simplex(values, a.weights, b.weights, plan._tree)
        second = ot_module._transportation_simplex(values, a.weights, b.weights, plan._tree)
        assert first[1] == second[1] > 0
        assert first[0].flow == second[0].flow
        moved = TokenSet(a.points + 1.0, a.weights)
        again = [solve_exact_ot(moved, b, start=plan) for _ in range(2)]
        assert _support(again[0]) == _support(again[1])
        np.testing.assert_array_equal(basis(again[0]), basis(again[1]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 15), st.integers(2, 15), st.integers(1, 3), st.booleans(),
           st.integers(0, 10_000))
    def test_start_with_other_marginals_still_reaches_the_optimum(
        self, n, n2, m, ties, seed
    ):
        rng = np.random.default_rng(seed)
        a, b = _weighted_pair(rng, n, n2, m, "dirichlet", ties)
        other = solve_exact_ot(TokenSet(a.points, rng.dirichlet(np.ones(n))),
                               TokenSet(b.points, rng.dirichlet(np.ones(n2))))
        plan = solve_exact_ot(a, b, start=other)
        np.testing.assert_allclose(np.bincount(plan.rows, plan.mass, n), a.weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.bincount(plan.cols, plan.mass, n2), b.weights,
                                   rtol=0, atol=1e-12)
        values = cost_matrix(a, b).values
        reference = linprog_plan(a, b)[1]
        assert plan.total_cost == pytest.approx(reference, rel=1e-9, abs=1e-12)
        # A basis infeasible for these marginals is dropped for the cold start.
        tree = ot_module._BasisTree(values, basis(other))
        if not tree.set_flows(a.weights, b.weights):
            cold = solve_exact_ot(a, b)
            assert _support(plan) == _support(cold)

    def test_start_of_another_shape_or_route_is_ignored(self):
        rng = np.random.default_rng(41)
        a, b = _weighted_pair(rng, 6, 4, 2, "dirichlet", False)
        cold = solve_exact_ot(a, b)
        # A caller-built plan carries no tree, so it starts cold too.
        for start in (solve_exact_ot(b, a), solve_exact_ot(a, a),
                      solve_exact_ot(TokenSet(a.points), TokenSet(a.points)),
                      TransportPlan(cold.rows, cold.cols, cold.mass, cold.shape,
                                    cold.total_cost)):
            plan = solve_exact_ot(a, b, start=start)
            assert _support(plan) == _support(cold)
            assert plan.total_cost == cold.total_cost
            np.testing.assert_array_equal(basis(plan), basis(cold))
        uniform = TokenSet(a.points)
        plan = solve_exact_ot(uniform, uniform, start=cold)
        assert basis(plan) is None
        np.testing.assert_array_equal(dense(plan), np.eye(6) / 6)
        # The carried tree's cells, ascending, in a fresh array each time;
        # writing to one changes neither the plan nor a warm start.
        cells = basis(cold)
        assert cells.dtype == np.int64 and cells.shape == (6 + 4 - 1,)
        assert np.all(np.diff(cells) > 0)
        moved = TokenSet(a.points + 0.5, a.weights)
        warm = solve_exact_ot(moved, b, start=cold)
        expected = cells.copy()
        cells[:] = 0
        np.testing.assert_array_equal(basis(cold), expected)
        again = solve_exact_ot(moved, b, start=cold)
        assert _support(again) == _support(warm)
        np.testing.assert_array_equal(basis(again), basis(warm))

    def test_least_cost_start_builds_a_spanning_tree(self):
        # Degenerate marginals: every cell exhausts its row and column at
        # once. (2, 1) at cost 0 and (1, 2) at 0.5 close rows 2 and 1; then
        # row 0 is the last open row, so (0, 0) and (0, 1) close their
        # columns and (0, 2) closes both: n + m - 1 = 5 cells.
        values = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5], [4.0, 0.0, 1.0]])
        third = np.full(3, 1.0 / 3.0)
        cells = ot_module._least_cost_start(values, third, third)
        assert cells.tolist() == [0, 1, 2, 5, 7]
        tree = ot_module._BasisTree(values, cells)
        assert tree.set_flows(third, third)

    def test_bland_rule_finishes_the_solve(self, monkeypatch):
        # The first 40 (n + m) pivots, all under Dantzig's rule, do nothing,
        # so Bland's rule must reach the optimum alone.
        rng = np.random.default_rng(5)
        a, b = _weighted_pair(rng, 7, 5, 2, "dirichlet", False)
        expected = solve_exact_ot(a, b)
        bland_after = 40 * (7 + 5)
        real_pivot = ot_module._BasisTree.pivot
        calls = []

        def pivot_after_bland(self, ei, ej, delta):
            calls.append((ei, ej))
            if len(calls) > bland_after:
                real_pivot(self, ei, ej, delta)

        monkeypatch.setattr(ot_module._BasisTree, "pivot", pivot_after_bland)
        plan = solve_exact_ot(a, b)  # certified, or it raises
        assert len(calls) > bland_after
        assert plan.total_cost == expected.total_cost

    def test_exhausted_pivot_budget_raises(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ot_module._BasisTree, "pivot", lambda self, ei, ej, delta: None)
        rng = np.random.default_rng(5)
        a, b = _weighted_pair(rng, 7, 5, 2, "dirichlet", False)
        with pytest.raises(SolverFailureError, match="pivot budget"):
            solve_exact_ot(a, b)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        write_tokens(a, paths[0])
        write_tokens(b, paths[1])
        assert cli_main(["dist", *map(str, paths)]) == EXIT_SOLVER
        assert "pivot budget" in capsys.readouterr().err

    def test_stale_potentials_raise(self, monkeypatch):
        # Pivots that skip the subtree shift leave stale potentials, which
        # soon price a basis cell below zero.
        real_pivot = ot_module._BasisTree.pivot
        monkeypatch.setattr(ot_module._BasisTree, "pivot",
                            lambda self, ei, ej, delta: real_pivot(self, ei, ej, 0.0))
        rng = np.random.default_rng(3)
        a, b = _weighted_pair(rng, 12, 9, 3, "dirichlet", False)
        with pytest.raises(SolverFailureError, match="priced below zero"):
            solve_exact_ot(a, b)

    def test_certificate_rejects_a_suboptimal_basis(self, monkeypatch):
        # Row potentials pushed far down after a pivot price every cell
        # above zero, so pivoting stops early; only the fresh walk at the
        # end sees that the basis is not optimal.
        def pivot_then_drift(self, ei, ej, delta):
            real_pivot(self, ei, ej, delta)
            self.pot[:self.n] = -1e9

        real_pivot = ot_module._BasisTree.pivot
        monkeypatch.setattr(ot_module._BasisTree, "pivot", pivot_then_drift)
        rng = np.random.default_rng(3)
        a, b = _weighted_pair(rng, 12, 9, 3, "dirichlet", False)
        with pytest.raises(SolverFailureError, match="not optimal"):
            solve_exact_ot(a, b)


class TestOracles:
    """The test-side oracles in conftest.py."""

    def test_brute_force_trivial(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[4.0, 5.0]])
        assert brute_force_permutation(a, b)[1] == pytest.approx(25.0)
        assert brute_force_permutation(a, a)[1] == 0.0

    def test_sorted_1d_examples(self):
        a = TokenSet([[0.0], [1.0]])
        b = TokenSet([[3.0], [5.0]])
        assert sorted_1d_ot(a, b) == pytest.approx(12.5)
        assert sorted_1d_ot(a, a) == 0.0
        assert sorted_1d_ot(TokenSet([[5.0], [0.0]]), TokenSet([[0.0], [5.0]])) == 0.0

    def test_sorted_1d_rejects_multidim(self):
        ts = TokenSet([[0.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            sorted_1d_ot(ts, ts)
