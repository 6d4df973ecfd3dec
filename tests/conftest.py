"""Shared fixtures and independent test-side oracles."""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from tokenmorph import DimensionMismatchError, InvalidParameterError, TokenSet, cost_matrix
from tokenmorph import ot as ot_module
from tokenmorph import tokens as tokens_module
from tokenmorph import toydemo as toydemo_module
from tokenmorph.ot import squared_distances


def random_tokenset(rng: np.random.Generator, n: int, m: int, scale: float = 1.0) -> TokenSet:
    return TokenSet(scale * rng.normal(size=(n, m)))


def dirichlet_tokenset(rng: np.random.Generator, n: int, m: int) -> TokenSet:
    return TokenSet(rng.normal(size=(n, m)), rng.dirichlet(np.ones(n)))


def linprog_plan(a: TokenSet, b: TokenSet) -> tuple[np.ndarray, float]:
    """Independent oracle: the optimal coupling and cost of the
    transportation LP, solved by scipy's HiGHS."""
    values = cost_matrix(a, b).values
    n, m = values.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    ref = linprog(values.ravel(), A_eq=a_eq, b_eq=np.concatenate([a.weights, b.weights]),
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.x.reshape(n, m), ref.fun


def simplex_cost(a: TokenSet, b: TokenSet) -> float:
    """Optimal cost from the network simplex on any inputs.

    ``solve_exact_ot`` sends uniform equal-size sets to the assignment
    solver; this runs the simplex on them too, from its least-cost start,
    with the same marginal check and cost sum that ``solve_exact_ot``
    applies.
    """
    values = cost_matrix(a, b).values
    tree, _ = ot_module._transportation_simplex(values, a.weights, b.weights)
    cells = tree.cells()
    mass = np.array(tree.flow[1:])
    ot_module._check_marginals(*np.divmod(cells, b.n), mass, a.weights, b.weights)
    return ot_module._support_cost(mass, values.flat[cells])


@pytest.fixture
def copies(monkeypatch):
    """The arrays that value types copied instead of adopting, while the
    test runs. Broadcast views are left out: a token set's uniform
    weights are one."""
    copied = []
    real = tokens_module.read_only_array

    def spy(value, dtype=np.float64):
        array = real(value, dtype)
        if array is not value and not (isinstance(value, np.ndarray) and 0 in value.strides):
            copied.append(value)
        return array

    for module in (tokens_module, ot_module, toydemo_module):
        monkeypatch.setattr(module, "read_only_array", spy)
    return copied


def assert_ownership_rule(store, values) -> None:
    """Check ``tokens.read_only_array``'s rule on a value type's field.

    ``store(array)`` builds a value from ``array`` and returns the array
    the value keeps. A read-only array that owns its memory must be kept
    as is; a writable array and read-only views (a slice, ``frombuffer``)
    must be copied into a read-only array of the value's own, so that
    changing the input afterwards changes nothing.
    """
    values = np.asarray(values)
    owned = values.copy()
    owned.setflags(write=False)
    assert store(owned) is owned

    writable = values.copy()
    kept = store(writable)
    writable += 1
    assert kept is not writable and not kept.flags.writeable
    np.testing.assert_array_equal(kept, values)

    doubled = np.repeat(values, 2, axis=0)
    doubled.setflags(write=False)
    buffer = values.tobytes()
    for view in (doubled[::2], np.frombuffer(buffer, values.dtype).reshape(values.shape)):
        assert not view.flags.writeable and not view.flags.owndata
        kept = store(view)
        assert kept.flags.owndata and not kept.flags.writeable
        assert not np.shares_memory(kept, view)
        np.testing.assert_array_equal(kept, values)


def exact_plan_cost(plan, values: np.ndarray) -> float:
    """Independent oracle: the rounded products ``mass * values`` over a
    plan's support cells, summed as exact fractions, then rounded once."""
    products = plan.mass * values[plan.rows, plan.cols]
    return float(sum(map(Fraction, products.tolist()), Fraction(0)))


def dense(plan) -> np.ndarray:
    """A plan's coupling as a dense array, for comparison with dense oracles."""
    out = np.zeros(plan.shape)
    out[plan.rows, plan.cols] = plan.mass
    return out


def basis(plan) -> np.ndarray | None:
    """The flat indices of a simplex plan's final basis cells, ascending, in
    a fresh array; None for a plan that carries no tree."""
    return None if plan._tree is None else np.sort(plan._tree.cells())


def reference_matching(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``ot._min_cost_matching``: the same reduction start,
    then the Dijkstra loop that keeps each column's predecessor row and a
    scanned mask in arrays and updates them at every step, through a strict
    ``<`` on the running path lengths. The solver must return the same
    ``(cols, u, v)``, bit for bit."""
    c = np.asarray(values, dtype=np.float64)
    n = c.shape[0]
    col_of, row_of, u, v = ot_module._reduction_start(c)

    free_d = np.empty(n)
    shortest = np.empty(n)
    pred = np.empty(n, dtype=np.int64)
    unscanned = np.empty(n, dtype=bool)
    r = np.empty(n)
    better = np.empty(n, dtype=bool)
    for start in np.flatnonzero(col_of < 0).tolist():
        free_d.fill(np.inf)
        unscanned.fill(True)
        rows = []
        cols = []
        i = start
        min_val = 0.0
        while True:
            np.subtract(c[i], v, out=r)
            r += min_val - u[i]
            np.less(r, free_d, out=better)
            better &= unscanned
            np.copyto(free_d, r, where=better)
            np.copyto(pred, i, where=better)
            j = int(free_d.argmin())
            min_val = float(free_d[j])
            if min_val == np.inf:
                raise ot_module.SolverFailureError("assignment path length overflows float64")
            shortest[j] = min_val
            free_d[j] = np.inf
            unscanned[j] = False
            cols.append(j)
            i = int(row_of[j])
            if i < 0:
                break
            rows.append(i)

        scanned_rows = np.array(rows, dtype=np.int64)
        scanned_cols = np.array(cols, dtype=np.int64)
        u[start] += min_val
        u[scanned_rows] += min_val - shortest[col_of[scanned_rows]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]

        while True:
            i = int(pred[j])
            row_of[j] = i
            col_of[i], j = j, int(col_of[i])
            if i == start:
                break

    return col_of, u, v


def brute_force_permutation(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Independent oracle: optimal permutation by full enumeration (n <= 8)."""
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    best_perm, best_cost = brute_force_matching(cost)
    return best_perm, best_cost / x.shape[0]


def brute_force_matching(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Independent oracle: minimum-cost permutation of a square cost matrix
    and its summed cost, by full enumeration (n <= 8)."""
    n = cost.shape[0]
    rows = np.arange(n)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = float(cost[rows, perm].sum())
        if total < best_cost:
            best_cost = total
            best_perm = np.asarray(perm)
    return best_perm, best_cost


def exact_matching_cost(cost: np.ndarray) -> Fraction:
    """Independent oracle: the least summed cost over every permutation of
    a square float cost matrix, in exact rational arithmetic (n <= 6)."""
    exact = [[Fraction(x) for x in row] for row in cost.tolist()]
    return min(sum((row[j] for row, j in zip(exact, perm)), Fraction(0))
               for perm in itertools.permutations(range(len(exact))))


def exact_reduced_cost_floor(tree, values: np.ndarray) -> Fraction:
    """Independent oracle: an exact dual certificate of a simplex basis.

    Potentials in exact rational arithmetic from the basis cells of
    ``tree`` (a plan's ``_tree``) over the float cost matrix ``values``,
    with u[0] = 0 and u[i] + v[j] = C[i, j] on every basis cell, found by
    growing from row 0 across the cells, not from the tree's own walk.
    Returns the least exact reduced cost C[i, j] - u[i] - v[j] over every
    cell, relative to max C (or absolute when max C is 0): the basis is
    exactly optimal if it is >= 0.
    """
    n, m = values.shape
    exact = [[Fraction(x) for x in row] for row in values.tolist()]
    cells = [divmod(int(flat), m) for flat in tree.cells()]
    assert len(cells) == n + m - 1
    pot = {0: Fraction(0)}
    while len(pot) < n + m:
        size = len(pot)
        for i, j in cells:
            if i in pot and n + j not in pot:
                pot[n + j] = exact[i][j] - pot[i]
            elif n + j in pot and i not in pot:
                pot[i] = exact[i][j] - pot[n + j]
        assert len(pot) > size, "the basis cells do not span the rows and columns"
    worst = min(exact[i][j] - pot[i] - pot[n + j] for i in range(n) for j in range(m))
    largest = max(map(max, exact))
    return worst / largest if largest > 0 else worst


def sorted_1d_ot(a: TokenSet, b: TokenSet) -> float:
    """Independent oracle: closed-form 1-D OT cost of uniform equal-size
    sets, matching the sorted points in order."""
    if a.m != 1 or b.m != 1:
        raise DimensionMismatchError("sorted 1-D oracle requires m == 1")
    assert a.n == b.n and a.has_uniform_weights() and b.has_uniform_weights()
    xs = np.sort(a.points[:, 0])
    ys = np.sort(b.points[:, 0])
    return float(np.mean((xs - ys) ** 2))


def scipy_assignment_permutation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Independent oracle: optimal permutation via scipy's LAP solver."""
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty_like(cols)
    perm[rows] = cols
    return perm


def multiset_max_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest matched Euclidean distance under the optimal pairing."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


# Query and candidate sets for the nearest-token search: its property test
# and tests/sweep_nearest.py draw from the same kinds and scales.
SEARCH_KINDS = ("ties", "duplicates", "jittered", "offset", "normal", "outlier")
# Distances are subnormal near 1e-160 and overflow near 1e155, where the
# search falls back to the full kernel.
SEARCH_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e-160, 1e-161, 1e-162, 1e150, 1e154, 1e155)


def search_inputs(kind, n, n_cand, m, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":  # {0, 1, 2} coordinates: exact ties in most rows
        q, c = rng.integers(0, 3, (n, m)), rng.integers(0, 3, (n_cand, m))
    elif kind in ("duplicates", "jittered"):  # few distinct tokens, repeated
        base = rng.normal(size=(max(1, n_cand // 3), m))
        q, c = base[rng.integers(0, len(base), n)], base[rng.integers(0, len(base), n_cand)]
        if kind == "jittered":  # near-ties that only the einsum's rounding breaks
            q = q + 1e-9 * rng.normal(size=q.shape)
            c = c + 1e-9 * rng.normal(size=c.shape)
    elif kind == "offset":  # one cluster far from the origin
        q, c = rng.normal(size=(n, m)) + 1e3, rng.normal(size=(n_cand, m)) + 1e3
    elif kind == "outlier":  # one candidate, one query or one of each 1e4-1e8 times out
        q, c = rng.normal(size=(n, m)), rng.normal(size=(n_cand, m))
        which = rng.integers(1, 4)
        if which & 1:
            c[rng.integers(n_cand)] *= 10.0 ** rng.uniform(4, 8)
        if which & 2:
            q[rng.integers(n)] *= 10.0 ** rng.uniform(4, 8)
    else:
        q, c = rng.normal(size=(n, m)), rng.normal(size=(n_cand, m))
    return scale * q.astype(np.float64), scale * c.astype(np.float64)


def einsum_argmin(queries, candidates):
    """The full-matrix search that the screened one must reproduce."""
    return np.argmin(squared_distances(queries, candidates), axis=1)


def search_outcome(search, queries, candidates):
    """Indices as a list, or the message of the InvalidParameterError raised."""
    with warnings.catch_warnings():
        # The full kernel warns where a difference overflows.
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return search(queries, candidates).tolist()
        except InvalidParameterError as exc:
            return str(exc)
