"""Exact discrete optimal transport between token sets.

Ground cost is squared Euclidean distance, computed in row blocks of
bounded size; a cost that overflows float64 is rejected before any
solver sees it. The inputs alone pick the solver. Sets with uniform
weights and equal sizes go to an assignment solver, since their optimal
coupling is a permutation. It starts from Jonker-Volgenant column
reduction and matches the remaining rows by Dijkstra shortest augmenting
paths with lazily updated duals; among equal-cost columns it takes the
smallest index, so the zero matrix gives the identity. All other inputs
go to a dense transportation simplex with Bland's anti-cycling pivot
rule. Its basis is one boolean mask over the cells; each pivot walks the
basis tree once, for the potentials and the parent pointers that trace
the pivot cycle. The test suite checks both solvers against independent
oracles (brute force, sorted 1-D, scipy).

All functions are pure: they never mutate their inputs and hold no
global state, so concurrent calls on shared token sets are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SolverFailureError
from .tokens import TokenSet, require_same_dimension, require_same_size

MARGINAL_TOL = 1e-9

# Bytes of one row block's difference array in squared_distances. Blocks
# that stay in a core's L2 cache ran 18-26 % faster than 4 MiB blocks at
# n = n' = 256 and 512 (4 % at 1024), m = 64, on a 2-vCPU Xeon with
# 2 MiB of L2 per core.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Pairwise ground costs between two token sets.

    ``values[i, j]`` is the squared Euclidean distance between token i of
    the first set and token j of the second.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        # A read-only array that owns its memory, as cost_matrix passes,
        # is kept without a copy; anything else is copied.
        if vals.flags.writeable or not vals.flags.owndata:
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A feasible coupling between two token sets and its total cost.

    Row sums of ``coupling`` equal the source weights and column sums the
    target weights, both within 1e-9; ``total_cost`` is the inner product
    of the coupling with the squared-Euclidean cost matrix.
    """

    coupling: np.ndarray
    total_cost: float

    def __post_init__(self):
        coup = np.array(np.asarray(self.coupling, dtype=np.float64), copy=True)
        coup.setflags(write=False)
        object.__setattr__(self, "coupling", coup)
        object.__setattr__(self, "total_cost", float(self.total_cost))


def squared_distances(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every query and candidate row.

    The n x n' result is filled in row blocks whose n_rows x n' x m
    difference array holds at most ``_BLOCK_BYTES`` (one row if a single
    row is larger), so memory stays bounded at any n. Each block runs the
    same einsum as a one-shot ``n x n' x m`` difference would, and the
    result is bit-identical to it.

    Raises:
        InvalidParameterError: if a squared distance overflows float64,
            which finite coordinates beyond about 1e154 can do.
    """
    n, m = queries.shape
    n_cand = candidates.shape[0]
    out = np.empty((n, n_cand))
    rows = max(1, _BLOCK_BYTES // (8 * n_cand * m))
    for lo in range(0, n, rows):
        diff = queries[lo:lo + rows, None, :] - candidates[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:lo + rows])
    # Distances are >= 0, so the maximum is finite iff every entry is.
    if not math.isfinite(out.max()):
        raise InvalidParameterError(
            "squared distances overflow float64; rescale the token coordinates"
        )
    return out


def cost_matrix(a: TokenSet, b: TokenSet) -> CostMatrix:
    """Squared Euclidean cost matrix between two token sets.

    Args:
        a: source set, n tokens in R^m.
        b: target set, n' tokens in R^m.

    Returns:
        CostMatrix with values[i, j] = sum_d (a[i, d] - b[j, d])**2.

    Raises:
        DimensionMismatchError: if the embedding dimensions differ.
        InvalidParameterError: if a squared distance overflows float64.
    """
    require_same_dimension(a, b)
    values = squared_distances(a.points, b.points)
    values.setflags(write=False)
    return CostMatrix(values)


def solve_exact_ot(a: TokenSet, b: TokenSet) -> TransportPlan:
    """Solve the exact optimal transport problem between two token sets.

    Minimizes sum_ij coupling[i, j] * d(a_i, b_j)^2 over all couplings
    with marginals equal to the sets' weight vectors. Sets with uniform
    weights and equal sizes are solved as an assignment, all others by
    the transportation simplex.

    Returns:
        TransportPlan with an exactly optimal coupling; output is
        deterministic for fixed inputs (ties are resolved by a fixed
        pivot order toward smallest index pairs).

    Raises:
        DimensionMismatchError: on differing embedding dimensions.
        InvalidParameterError: if a squared distance overflows float64.
        SolverFailureError: if the computed coupling violates a marginal
            constraint by more than 1e-9.
    """
    values = cost_matrix(a, b).values
    if a.n == b.n and a.has_uniform_weights() and b.has_uniform_weights():
        perm, _ = _min_cost_matching(values)
        coupling = np.zeros_like(values)
        coupling[np.arange(a.n), perm] = 1.0 / a.n
    else:
        coupling = _transportation_simplex(values, a.weights, b.weights)

    _check_marginals(coupling, a.weights, b.weights)
    total = float(np.sum(coupling * values))
    return TransportPlan(coupling, total)


def w2_distance(a: TokenSet, b: TokenSet) -> float:
    """2-Wasserstein distance: square root of the optimal coupling cost."""
    plan = solve_exact_ot(a, b)
    return math.sqrt(max(plan.total_cost, 0.0))


def identity_w2(a: TokenSet, b: TokenSet) -> float:
    """W2 cost of the index-wise matching a_i -> b_i between uniform sets.

    For two frames on one displacement-interpolation geodesic the identity
    is an optimal matching, and this returns ``w2_distance(a, b)`` without
    solving for it. The result is bit for bit what ``solve_exact_ot`` would
    report for the identity permutation: each row cost is the cost
    matrix's own einsum, and the costs are summed as a 1/n diagonal
    coupling times the costs over the full n x n layout. ``np.sum``
    groups its pairwise partial sums by position in that layout, so a
    1-D sum of the same n costs (``mean``, ``dot``) differs in the last
    bit on a fifth to a third of the steps.

    Raises:
        DimensionMismatchError: if the sizes or dimensions differ.
    """
    require_same_dimension(a, b)
    require_same_size(a, b)
    diff = a.points - b.points
    plan = np.zeros((a.n, a.n))
    np.fill_diagonal(plan, (1.0 / a.n) * np.einsum("ij,ij->i", diff, diff))
    return math.sqrt(max(float(np.sum(plan)), 0.0))


def _check_marginals(coupling: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> None:
    row_err = float(np.max(np.abs(coupling.sum(axis=1) - supply)))
    col_err = float(np.max(np.abs(coupling.sum(axis=0) - demand)))
    if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
        raise SolverFailureError(
            f"coupling violates marginals (row err {row_err:.3e}, col err {col_err:.3e})"
        )
    if float(coupling.min()) < -MARGINAL_TOL:
        raise SolverFailureError("coupling has a negative entry")


def _min_cost_matching(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching of a square cost matrix, O(n^3).

    Returns ``(perm, total)``: ``perm[i]`` is the column matched to row i,
    ``total`` the summed matched costs.

    Jonker-Volgenant's column reduction gives the start: ``v[j]`` is the
    smallest cost in column j, ``u = 0``, and in ascending j column j goes
    to its argmin row if that row is still free. These duals are feasible
    (``c - u - v >= 0``) and every matched pair has reduced cost 0. Each
    row left free is then matched by a Dijkstra search for a shortest
    augmenting path over the reduced costs, with the duals updated once
    per augmentation from the scanned rows and columns, as in scipy's
    ``linear_sum_assignment`` (Crouse 2016).

    Ties go to the smallest index: a column's argmin row, and among
    columns at equal path length the smallest column, so the zero matrix
    yields the identity. When several matchings are optimal, this rule
    decides which one is returned.

    Raises:
        SolverFailureError: if a path length overflows float64, which
            costs near the float64 limit can cause.
    """
    c = np.asarray(values, dtype=np.float64)
    n = c.shape[0]
    u = np.zeros(n)
    v = c.min(axis=0)
    col_of = np.full(n, -1, dtype=np.int64)  # column matched to row i
    row_of = np.full(n, -1, dtype=np.int64)  # row matched to column j
    for j, i in enumerate(c.argmin(axis=0).tolist()):
        if col_of[i] < 0:
            col_of[i] = j
            row_of[j] = i

    free_d = np.empty(n)       # path length of each unscanned column, inf once scanned
    shortest = np.empty(n)     # final path length of each scanned column
    pred = np.empty(n, dtype=np.int64)  # row from which a column was reached
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
            if min_val == math.inf:
                raise SolverFailureError("assignment path length overflows float64")
            shortest[j] = min_val
            free_d[j] = math.inf
            unscanned[j] = False
            cols.append(j)
            i = int(row_of[j])
            if i < 0:
                break
            rows.append(i)

        # Duals: scanned rows and columns move by their slack to min_val.
        scanned_rows = np.array(rows, dtype=np.int64)
        scanned_cols = np.array(cols, dtype=np.int64)
        u[start] += min_val
        u[scanned_rows] += min_val - shortest[col_of[scanned_rows]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]

        # Flip the matching along the path back from the free column j.
        while True:
            i = int(pred[j])
            row_of[j] = i
            col_of[i], j = j, int(col_of[i])
            if i == start:
                break

    total = float(c[np.arange(n), col_of].sum())
    return col_of, total


def _transportation_simplex(
    values: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> np.ndarray:
    """Dense transportation simplex (MODI method).

    Starts from the northwest-corner basic solution; the basis is a
    spanning tree of the bipartite transport graph with n + n' - 1 cells,
    kept as a boolean mask. Entering cells follow Dantzig's
    most-negative-reduced-cost rule with lexicographic tie-breaks,
    switching to Bland's rule (first negative cell) after a pivot budget
    so degenerate instances cannot cycle. The leaving cell is the
    lexicographic minimum of (flow, cell) over the cycle's donor cells.
    The pivot sequence, and therefore the returned basic solution, is
    fully deterministic.
    """
    n, m = values.shape
    alloc = np.zeros((n, m))
    in_basis = np.zeros((n, m), dtype=bool)

    rs = np.asarray(supply, dtype=np.float64).copy()
    rd = np.asarray(demand, dtype=np.float64).copy()
    i = j = 0
    while True:
        q = min(rs[i], rd[j])
        alloc[i, j] = q
        in_basis[i, j] = True
        rs[i] -= q
        rd[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if rs[i] == 0.0 and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            # Rounding dust can leave residual supply at the last column;
            # push remaining rows forward instead of stepping out of range.
            i += 1

    # Relative to the costs, so optimality does not depend on coordinate scale.
    tol = 1e-11 * float(values.max())
    max_pivots = max(2000, 30 * n * m)
    bland_after = 40 * (n + m)

    for pivot in range(max_pivots):
        u, v, parent, depth = _tree_duals(values, in_basis)
        reduced = values - u[:, None] - v[None, :]
        candidates = (reduced < -tol) & ~in_basis
        if not candidates.any():
            break
        if pivot < bland_after:
            flat = int(np.argmin(np.where(candidates, reduced, np.inf)))
        else:
            flat = int(np.argmax(candidates))  # first negative cell (Bland)
        ei, ej = divmod(flat, m)

        plus_cells, minus_cells = _pivot_cycle(parent, depth, n, ei, ej)
        theta = math.inf
        leaving = minus_cells[0]
        for cell in minus_cells:
            val = alloc[cell]
            if val < theta or (val == theta and cell < leaving):
                theta = val
                leaving = cell
        for cell in plus_cells:
            alloc[cell] += theta
        for cell in minus_cells:
            alloc[cell] -= theta
        alloc[leaving] = 0.0

        in_basis[leaving] = False
        in_basis[ei, ej] = True
    else:
        raise SolverFailureError("transportation simplex exceeded its pivot budget")

    negative = alloc < 0.0
    if negative.any():
        if float(alloc.min()) < -1e-12:
            raise SolverFailureError("transportation simplex produced negative mass")
        alloc[negative] = 0.0
    return alloc


def _pivot_cycle(
    parent: list[int], depth: list[int], n: int, ei: int, ej: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cells of the cycle that entering cell (ei, ej) closes in the basis tree.

    Returns ``(plus, minus)``, the cells that gain and that lose flow.
    The cycle is (ei, ej), which gains, and the tree path from row ei to
    column ej: the climbs from both ends up to their common ancestor.
    Read from row ei to column ej, the path's edges alternate -, +, - ...,
    so each edge that path crosses from a row to a column loses flow.
    Climbing from row ei follows that direction; climbing from column ej
    runs against it.
    """
    plus = [(ei, ej)]
    minus: list[tuple[int, int]] = []
    ends = [ei, n + ej]
    while ends[0] != ends[1]:
        side = 0 if depth[ends[0]] >= depth[ends[1]] else 1
        node = ends[side]
        up = parent[node]
        cell = (node, up - n) if node < n else (up, node - n)
        (minus if (node < n) == (side == 0) else plus).append(cell)
        ends[side] = up
    return plus, minus


def _tree_duals(
    values: np.ndarray, in_basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """Potentials and parent pointers of the basis tree, rooted at row 0.

    Tree nodes are the rows ``0..n-1`` and the columns ``n..n+m-1``; each
    basis cell (i, j) is the edge between node i and node n + j. Returns
    ``(u, v, parent, depth)``: ``u[i] + v[j] == values[i, j]`` on every
    basis cell with ``u[0] == 0``, and ``parent[k]`` and ``depth[k]`` are
    node k's parent (-1 at the root) and its number of edges to the root.

    Raises:
        SolverFailureError: if the basis does not connect every row and
            column, as a disconnected or cyclic basis of n + m - 1 cells
            cannot.
    """
    n, m = values.shape
    adjacent: list[list[int]] = [[] for _ in range(n + m)]
    rows, cols = np.nonzero(in_basis)
    for bi, bj in zip(rows.tolist(), cols.tolist()):
        adjacent[bi].append(n + bj)
        adjacent[n + bj].append(bi)

    u = np.zeros(n)
    v = np.zeros(m)
    parent = [-1] * (n + m)
    depth = [-1] * (n + m)
    depth[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        for nxt in adjacent[k]:
            if depth[nxt] < 0:
                depth[nxt] = depth[k] + 1
                parent[nxt] = k
                if k < n:
                    v[nxt - n] = values[k, nxt - n] - u[k]
                else:
                    u[nxt] = values[nxt, k - n] - v[k - n]
                stack.append(nxt)
    if -1 in depth:
        raise SolverFailureError("transport basis is not a spanning tree")
    return u, v, parent, depth
