"""Exact discrete optimal transport between token sets.

Ground cost is squared Euclidean distance, computed in row blocks of
bounded size; a cost that overflows float64 is rejected before any
solver sees it. The inputs alone pick the solver. Sets with uniform
weights and equal sizes go to an assignment solver, since their optimal
coupling is a permutation. It starts from Jonker-Volgenant column
reduction and matches the remaining rows by Dijkstra shortest augmenting
paths with lazily updated duals; among equal-cost columns it takes the
smallest index, so the zero matrix gives the identity.

All other inputs go to a network simplex on the transportation graph.
Its basis is a spanning tree over the rows and columns, kept in arrays:
parent, depth, a preorder thread with subtree sizes, the flow on each
node's parent edge, and the potentials. A pivot re-hangs only the
subtree that the leaving edge cuts off and shifts only that subtree's
potentials. It starts from the least-cost (matrix-minimum) basis, or
from a re-priced copy of the basis tree a previous plan carries when
its flows are feasible for the current marginals, as on every
barycenter sweep after the first. The returned flows
are computed from the final tree and the marginals, in an order fixed
by the basis alone. Every solve certifies its optimality by LP duality
on its final duals. The test suite checks both solvers against
independent oracles (brute force, sorted 1-D, scipy).

All functions are pure: they never mutate their inputs and hold no
global state, so concurrent calls on shared token sets are safe.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, SolverFailureError
from .tokens import TokenSet, require_same_dimension, require_same_size

MARGINAL_TOL = 1e-9

# Largest negative basic flow read as rounding dust and set to zero. Token
# weights sum to 1 within 1e-12, so the two marginals' totals can differ by
# 2e-12, and a flow they fix can fall that far below zero.
_FLOW_TOL = 1e-11

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
        object.__setattr__(self, "values", _read_only(self.values, np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A feasible coupling between two token sets and its total cost.

    Row sums of ``coupling`` equal the source weights and column sums the
    target weights, both within 1e-9. ``total_cost`` is its squared-
    Euclidean cost, summed exactly rounded over its support (see
    ``_support_cost``). A simplex plan carries its final basis tree, which
    ``solve_exact_ot(..., start=plan)`` starts from. A read-only coupling
    that owns its memory is adopted, and its owner must not make it
    writable again; any other coupling is copied.
    """

    coupling: np.ndarray
    total_cost: float
    # The simplex's final basis tree, which a warm start copies.
    _tree: _BasisTree | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coupling", _read_only(self.coupling, np.float64))
        object.__setattr__(self, "total_cost", float(self.total_cost))

    @property
    def basis(self) -> np.ndarray | None:
        """A fresh array of the n + n' - 1 final basis cells' flat indices,
        ascending; None on the assignment route."""
        return None if self._tree is None else np.sort(self._tree.cells())


def _read_only(array, dtype) -> np.ndarray:
    """``array`` as read-only ``dtype``: adopted if read-only and owning its
    memory (its owner must not make it writable again), else copied."""
    out = np.asarray(array, dtype=dtype)
    if out.flags.writeable or not out.flags.owndata:
        out = out.copy()
        out.setflags(write=False)
    return out


def _support_cost(mass, costs: np.ndarray) -> float:
    """Exactly rounded sum of ``mass * costs`` over a plan's support cells:
    each product is rounded once, as in ``coupling * values``, and
    ``math.fsum`` makes the sum independent of the products' order."""
    return math.fsum((mass * costs).tolist())


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


def solve_exact_ot(
    a: TokenSet, b: TokenSet, *, start: TransportPlan | None = None
) -> TransportPlan:
    """Solve the exact optimal transport problem between two token sets.

    Minimizes sum_ij coupling[i, j] * d(a_i, b_j)^2 over all couplings
    with marginals equal to the sets' weight vectors. Sets with uniform
    weights and equal sizes are solved as an assignment, all others by
    the network simplex.

    Args:
        a: source set.
        b: target set.
        start: a plan of an earlier solve of the same shape, such as the
            previous barycenter sweep's. The simplex starts from a copy of
            the basis tree the plan carries (the plan never changes) when
            that tree's flows are feasible for ``a`` and ``b``'s weights,
            and from the least-cost basis otherwise, as it does for a plan
            that carries no tree. It decides where the pivots begin, not
            the optimal cost. The assignment route ignores it.

    Returns:
        TransportPlan with an exactly optimal coupling; output is
        deterministic for fixed inputs and ``start`` (ties are resolved by
        a fixed pivot order toward smallest index pairs).

    Raises:
        DimensionMismatchError: on differing embedding dimensions.
        InvalidParameterError: if a squared distance overflows float64.
        SolverFailureError: if the computed coupling violates a marginal
            constraint by more than 1e-9, or the solver's final duals fail
            the optimality certificate.
    """
    values = cost_matrix(a, b).values
    tree = None
    if a.n == b.n and a.has_uniform_weights() and b.has_uniform_weights():
        perm, u, v = _min_cost_matching(values)
        support = np.arange(a.n) * a.n + perm
        reduced = values - u[:, None]
        reduced -= v
        _certify_optimal("assignment", reduced, support, 1e-11 * float(values.max()))
        coupling = reduced  # one buffer: a solve holds two n x n arrays
        coupling.fill(0.0)
        mass = coupling.flat[support] = 1.0 / a.n
    else:
        warm = start._tree if start is not None and start.coupling.shape == values.shape else None
        coupling, tree, _ = _transportation_simplex(values, a.weights, b.weights, warm)
        support = tree.cells()
        mass = coupling.flat[support]

    _check_marginals(coupling, a.weights, b.weights)
    coupling.setflags(write=False)
    plan = TransportPlan(coupling, _support_cost(mass, values.flat[support]))
    object.__setattr__(plan, "_tree", tree)
    return plan


def w2_distance(a: TokenSet, b: TokenSet) -> float:
    """2-Wasserstein distance: square root of the optimal coupling cost."""
    return math.sqrt(solve_exact_ot(a, b).total_cost)


def identity_w2(a: TokenSet, b: TokenSet) -> float:
    """W2 cost of the index-wise matching a_i -> b_i between uniform sets.

    For two frames on one displacement-interpolation geodesic the identity
    is an optimal matching, and this returns ``w2_distance(a, b)`` without
    solving for it, bit for bit: each row cost is the cost matrix's own
    einsum, summed by the same order-free rule as every plan cost.

    Raises:
        DimensionMismatchError: if the sizes or dimensions differ.
    """
    require_same_dimension(a, b)
    require_same_size(a, b)
    diff = a.points - b.points
    return math.sqrt(_support_cost(1.0 / a.n, np.einsum("ij,ij->i", diff, diff)))


def _check_marginals(coupling: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> None:
    row_err = float(np.max(np.abs(coupling.sum(axis=1) - supply)))
    col_err = float(np.max(np.abs(coupling.sum(axis=0) - demand)))
    if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
        raise SolverFailureError(
            f"coupling violates marginals (row err {row_err:.3e}, col err {col_err:.3e})"
        )
    if float(coupling.min()) < -MARGINAL_TOL:
        raise SolverFailureError("coupling has a negative entry")


def _certify_optimal(what: str, reduced: np.ndarray, tight: np.ndarray, tol: float) -> None:
    """Certify by LP duality that a feasible coupling on ``tight`` is optimal.

    ``reduced`` is the cost minus the final row and column duals, and
    ``tight`` the flat indices of the cells that carry the flow. Raises
    SolverFailureError unless ``reduced >= -tol`` everywhere (dual
    feasibility) and ``|reduced| <= tol`` on ``tight`` (complementary
    slackness).
    """
    worst = float(reduced.min())
    slack = float(np.abs(reduced.flat[tight]).max())
    if not (worst >= -tol and slack <= tol):
        raise SolverFailureError(
            f"{what} is not optimal (reduced cost {worst:.3e}, slack {slack:.3e})"
        )


def _min_cost_matching(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a square cost matrix, O(n^3).

    Returns ``(perm, u, v)``: ``perm[i]`` is the column matched to row i,
    ``u`` and ``v`` the final row and column duals.

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

    return col_of, u, v


def _transportation_simplex(
    values: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    start: _BasisTree | None = None,
) -> tuple[np.ndarray, _BasisTree, int]:
    """Network simplex on the n x m transportation problem.

    Starts from a re-priced copy of ``start``, an earlier solve's final
    tree, when its flows are feasible for these marginals, and from the
    least-cost basis otherwise. Entering cells follow Dantzig's
    most-negative-reduced-cost rule, the first such cell in row-major
    order on ties, switching to Bland's rule (first negative cell) after
    a pivot budget so degenerate instances cannot cycle. The leaving cell
    is the lexicographic minimum of (flow, cell) over the cycle's donor
    cells. The pivot sequence is fully deterministic.

    The last pricing pass is the duality certificate: its potentials
    must price every cell at or above ``-1e-11 * max C`` and every basis
    cell within that of zero, which also catches drifted potentials. The
    flows come from the final tree and the marginals alone, so the
    coupling depends only on the final basis.

    Returns:
        ``(coupling, tree, pivots)``: the optimal coupling, the final
        basis tree holding its flows, and the pivot count.

    Raises:
        SolverFailureError: on an exhausted pivot budget, a final basis
            that fails the certificate, or negative basic mass.
    """
    n, m = values.shape
    # Relative to the costs, so optimality does not depend on coordinate scale.
    tol = 1e-11 * float(values.max())
    tree = None if start is None else start.priced_copy(values)
    if tree is None or not tree.set_flows(supply, demand):
        tree = _BasisTree(values, _least_cost_start(values, supply, demand))
        if not tree.set_flows(supply, demand):
            raise SolverFailureError("least-cost start has negative mass")

    max_pivots = max(2000, 30 * n * m)
    bland_after = 40 * (n + m)
    # Views: every pivot updates tree.pot in place.
    u, v = tree.pot[:n, None], tree.pot[None, n:]
    reduced = np.empty((n, m))
    for pivots in range(max_pivots):
        np.subtract(values, u, out=reduced)
        reduced -= v
        if pivots < bland_after:
            flat = int(reduced.argmin())
        else:
            flat = int(np.argmax(reduced < -tol))  # first negative cell (Bland)
        if not reduced.flat[flat] < -tol:
            break
        ei, ej = divmod(flat, m)
        tree.pivot(ei, ej, float(reduced[ei, ej]))
    else:
        raise SolverFailureError("transportation simplex exceeded its pivot budget")

    cells = tree.cells()
    _certify_optimal("transportation simplex basis", reduced, cells, tol)
    if not tree.set_flows(supply, demand):
        raise SolverFailureError("transportation simplex produced negative mass")
    coupling = np.zeros((n, m))
    coupling.flat[cells] = tree.flow[1:]
    return coupling, tree, pivots


def _least_cost_start(values: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Basis cells of the least-cost (matrix-minimum) start.

    Cells are taken in ascending cost, row-major among equal costs. A cell
    whose row and column are both open ships what it can, and then
    closes its row if the row is exhausted and its column otherwise,
    exactly one line per cell until the last cell closes the last row and
    column. That gives exactly n + m - 1 cells forming a spanning tree; a
    row (column) that is the last one open is never closed early, so
    rounding in the marginals cannot strand a line.
    """
    n, m = values.shape
    rest_row = supply.tolist()
    rest_col = demand.tolist()
    row_open = [True] * n
    col_open = [True] * m
    rows_left, cols_left = n, m
    cells = []
    for flat in np.argsort(values, axis=None, kind="stable").tolist():
        i, j = divmod(flat, m)
        if not (row_open[i] and col_open[j]):
            continue
        cells.append(flat)
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and rest_row[i] <= rest_col[j]):
            row_open[i] = False
            rows_left -= 1
            rest_col[j] -= rest_row[i]
        else:
            col_open[j] = False
            cols_left -= 1
            rest_row[i] -= rest_col[j]
    cells.sort()
    return np.array(cells, dtype=np.int64)


class _BasisTree:
    """Spanning tree of a transportation basis, kept in flat lists.

    Nodes are the rows ``0..n-1`` and the columns ``n..n+m-1``. Node k's
    edge to ``parent[k]`` is the basis cell (k, parent[k] - n) for a row
    and (parent[k], k - n) for a column; row 0 is the root and never
    moves. ``depth[k]`` counts k's edges to the root. ``order`` lists the
    nodes in preorder (the thread) and ``pos`` is its inverse, so the
    subtree of k is ``order[pos[k]:pos[k] + size[k]]``. The array ``pot``
    holds the potentials, u in ``pot[:n]`` and v in ``pot[n:]``, with
    ``u[i] + v[j] == values[i, j]`` on every basis cell and ``u[0] == 0``.
    ``flow[k]`` is the flow on node k's parent edge, and ``flows_for``
    the marginals' bytes they were last set for (None after a pivot).
    """

    def __init__(self, values: np.ndarray, cells: np.ndarray):
        """Walk the tree of basis ``cells`` (flat indices) from row 0.

        Raises:
            SolverFailureError: unless there are n + m - 1 cells within
                the n x m grid that connect every row and column, as a
                disconnected or cyclic set cannot.
        """
        n, m = values.shape
        nodes = n + m
        if len(cells) != nodes - 1 or not 0 <= cells.min() <= cells.max() < n * m:
            raise SolverFailureError("transport basis is not a spanning tree")
        adjacent: list[list[int]] = [[] for _ in range(nodes)]
        for flat in cells.tolist():
            i, j = divmod(flat, m)
            adjacent[i].append(n + j)
            adjacent[n + j].append(i)

        parent = [-1] * nodes
        depth = [0] * nodes
        seen = [False] * nodes
        seen[0] = True
        order = []
        stack = [0]
        while stack:
            k = stack.pop()
            order.append(k)
            for nxt in adjacent[k]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt] = k
                    depth[nxt] = depth[k] + 1
                    stack.append(nxt)
        if len(order) != nodes:
            raise SolverFailureError("transport basis is not a spanning tree")

        sizes = [1] * nodes
        for k in reversed(order[1:]):
            sizes[parent[k]] += sizes[k]
        self.n, self.m = n, m
        self.parent, self.size, self.depth, self.order = parent, sizes, depth, order
        self.pos = [0] * nodes
        for at, k in enumerate(order):
            self.pos[k] = at
        self.price(values)
        # +1 on rows, -1 on columns: a subtree shift raises u and lowers v.
        self.sign = np.concatenate((np.ones(n), -np.ones(m)))
        self.flow = [0.0] * nodes
        self.flows_for = None

    def price(self, values: np.ndarray) -> None:
        """Set the potentials for ``values`` down the thread from row 0."""
        parent = self.parent
        cost = values.flat[self.cells()].tolist()
        pot = [0.0] * len(parent)
        for k in self.order[1:]:
            pot[k] = cost[k - 1] - pot[parent[k]]
        self.pot = np.array(pot)

    def priced_copy(self, values: np.ndarray) -> _BasisTree:
        """A copy priced for ``values``; pivots on it leave this tree as is."""
        tree = copy.copy(self)
        tree.parent, tree.size, tree.flow = self.parent[:], self.size[:], self.flow[:]
        tree.depth, tree.order, tree.pos = self.depth[:], self.order[:], self.pos[:]
        tree.price(values)
        return tree

    def cell(self, k: int) -> int:
        """Flat index of node k's parent edge."""
        n, m, up = self.n, self.m, self.parent[k]
        return k * m + up - n if k < n else up * m + k - n

    def cells(self) -> np.ndarray:
        """Flat indices of the basis cells, by child node 1..n+m-1."""
        n, m = self.n, self.m
        k = np.arange(1, n + m)
        up = np.array(self.parent[1:])
        return np.where(k < n, k * m + up - n, up * m + k - n)

    def set_flows(self, supply: np.ndarray, demand: np.ndarray) -> bool:
        """Set the basic flows fixed by the marginals; False if one is negative.

        Leaves are eliminated from the deepest level up, in ascending node
        order: each node's net supply (row weights minus column weights
        over its subtree) crosses its parent edge, from row to column, and
        children add in ascending order, so the flows depend only on the
        basis, bit for bit. Flows within ``_FLOW_TOL`` below zero are
        rounding dust and read as zero. Flows set for these marginals stay.
        """
        marginals = supply.tobytes() + demand.tobytes()
        if marginals == self.flows_for:
            return True
        n = self.n
        net = supply.tolist() + (-demand).tolist()
        parent = self.parent
        for k in sorted(range(len(net)), key=self.depth.__getitem__, reverse=True)[:-1]:
            net[parent[k]] += net[k]
        flow = [net[k] if k < n else -net[k] for k in range(len(net))]
        flow[0] = 0.0
        if min(flow) < -_FLOW_TOL:
            return False
        self.flow = [max(f, 0.0) for f in flow]
        self.flows_for = marginals
        return True

    def pivot(self, ei: int, ej: int, delta: float) -> None:
        """Bring cell (ei, ej), of reduced cost ``delta``, into the basis.

        The cycle it closes is the tree path from row ei to column ej:
        the climbs from both ends up to their common ancestor. Read from
        row ei to column ej the path's edges alternate -, +, - ..., so
        each edge it crosses from a row to a column gives up flow; that
        is a row's parent edge on row ei's climb and a column's on column
        ej's. The donor edge of least (flow, cell) leaves. Removing it
        cuts off the subtree S holding one end of the entering edge; S is
        re-hung from that end below the other end, and only S's
        potentials, depths and thread positions change.
        """
        n = self.n
        parent, size, flow, depth = self.parent, self.size, self.flow, self.depth
        p, q = ei, n + ej
        if parent[p] == q or parent[q] == p:
            raise SolverFailureError("transport basis cell priced below zero")
        climb_p: list[int] = []
        climb_q: list[int] = []
        a, b = p, q
        while a != b:
            if depth[a] >= depth[b]:
                climb_p.append(a)
                a = parent[a]
            else:
                climb_q.append(b)
                b = parent[b]

        theta = math.inf
        leave_cell = -1
        out_side = out_at = -1
        for side, climb in enumerate((climb_p, climb_q)):
            for at, k in enumerate(climb):
                if (k < n) == (side == 0):
                    f, cell = flow[k], self.cell(k)
                    if f < theta or (f == theta and cell < leave_cell):
                        theta, leave_cell, out_side, out_at = f, cell, side, at
        self.flows_for = None
        if theta > 0.0:
            for k in climb_p:
                flow[k] += -theta if k < n else theta
            for k in climb_q:
                flow[k] += theta if k < n else -theta

        if out_side == 0:
            path, above, other, anchor = climb_p[:out_at + 1], climb_p[out_at + 1:], climb_q, q
        else:
            path, above, other, anchor = climb_q[:out_at + 1], climb_q[out_at + 1:], climb_p, p
            delta = -delta  # S holds column ej: its columns gain delta, its rows lose it
        # S re-rooted at path[0]: its old subtree, then each path node with
        # the part of its old subtree that does not hold the previous one.
        order, pos = self.order, self.pos
        starts = [pos[k] for k in path]
        sizes = [size[k] for k in path]
        top = depth[anchor] + 1
        subtree = []
        inner = inner_end = starts[0] + sizes[0]  # the previous path node's block
        for t, k in enumerate(path):
            start, end = starts[t], starts[t] + sizes[t]
            piece = order[start:inner] + order[inner_end:end]
            shift = top + t - depth[k]
            for j in piece:
                depth[j] += shift
            subtree += piece
            inner, inner_end = start, end
        self.pot[subtree] += delta * self.sign[subtree]

        # Reverse the path's parent edges; each edge keeps its flow.
        for t in range(len(path) - 1, 0, -1):
            parent[path[t]] = path[t - 1]
            flow[path[t]] = flow[path[t - 1]]
        parent[path[0]] = anchor
        flow[path[0]] = theta

        moved = sizes[-1]
        for k in above:
            size[k] -= moved
        for k in other:
            size[k] += moved
        size[path[0]] = moved
        for t in range(1, len(path)):
            size[path[t]] = moved - sizes[t - 1]

        # Move S's block in the thread to just after its new parent.
        lo, at = starts[-1], pos[anchor]
        if at < lo:
            span = range(at + 1, lo + moved)
            order[at + 1:lo + moved] = subtree + order[at + 1:lo]
        else:
            span = range(lo, at + 1)
            order[lo:at + 1] = order[lo + moved:at + 1] + subtree
        for i in span:
            pos[order[i]] = i
