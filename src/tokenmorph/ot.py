"""Exact discrete optimal transport between token sets.

Ground cost is squared Euclidean distance, computed in row blocks of
bounded size; a cost that overflows float64 is rejected before any
solver sees it. The inputs alone pick the solver. Sets with uniform
weights and equal sizes go to an assignment solver, since their optimal
coupling is a permutation. It starts from Jonker-Volgenant column
reduction and then rounds of augmenting row reduction (Jonker and
Volgenant, Computing 38, 1987), in which all free rows bid for their
cheapest column at once, with exact bids; each column goes to the
largest bid, the smallest row on ties, and its dual drops by
that bid. The few rows left free are matched by Dijkstra shortest
augmenting paths with lazily updated duals; among equal-cost columns it
takes the smallest index, so the zero matrix and a matrix of equal rows
give the identity. A search step keeps only the running path lengths;
each path recovers its predecessor rows once, at its end.

All other inputs go to a network simplex on the transportation graph.
Its basis is a spanning tree over the rows and columns, kept in lists:
each node's parent, its children in descending node order, the flow on
each node's parent edge, and the potentials. A pivot finds its cycle by
climbing parents from both ends of the entering cell, re-hangs only the
subtree that the leaving edge cuts off and shifts only that subtree's
potentials. It starts from the least-cost (matrix-minimum) basis, or
from a copy of the basis tree a previous plan carries when the flows
that tree fixes for the current marginals are feasible, as on every
barycenter sweep after the first. One walk down the tree settles a
basis, at the start of a warm or cold solve and again at its end if it
pivoted: it sets the potentials from the costs and then the flows from
the marginals, in an order fixed by the basis alone. Every solve
certifies its optimality by LP duality on its final duals, reading the
final basis cells that its plan then keeps. The certificate's tolerance
is 1e-11 of the largest cost, so it holds at any coordinate scale. Near
the float64 limit an assignment path length or reduced cost that
overflows reads as infinite, and the solve still ends certified or
raises SolverFailureError.
The test suite checks both solvers against independent oracles (brute
force, sorted 1-D, scipy), and the assignment against a reference
search that stores every predecessor, bit for bit. The assignment is
optimal for the float cost matrix within 2^-51 of the optimum: its
float reduced costs can pick, among near-tied matchings, one that costs
more by rounding, and the tests bound that excess in exact arithmetic.
In exact arithmetic the simplex's final basis prices every cell at or
above -2^-46 of the largest cost on the tests' near ties, so its plan
costs at most that share of the largest cost above the optimum.

A plan is its support: the cells of positive mass, with their masses.
They are the n matched cells of an assignment, or at most n + n' - 1
cells of the simplex's final basis. The simplex runs uniform sets of
unequal size on integer counts, n' per row and n per column, so every
flow is an exact integer and a cell that carries nothing holds exactly
0, not rounding dust; each mass is then count / (n n'), correctly
rounded. A solve hands its support arrays over read-only, and the plan
keeps them without a copy (see ``tokens.read_only_array``). No solve
builds a dense coupling, and the assignment's certificate reads
its reduced costs in row blocks, so a uniform solve holds one n x n
float array, the cost matrix, plus two n x n bool arrays for the column
reduction's first rows. A simplex solve holds at most the cost matrix,
the least-cost start's argsort of it and the pricing buffer; the start
turns the sorted cells into Python ints ``_START_SLICE`` at a time, so
it never holds a list of all n n' of them.

All functions are pure: they never mutate their inputs and hold no
global state, so concurrent calls on shared token sets are safe.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidWeightsError, SolverFailureError
from .tokens import TokenSet, read_only_array, require_same_dimension

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

# Cap on the assignment's row-reduction rounds. On the seed-101/202 blob
# pairs, 30 rounds leave about 7 % of the rows free for the Dijkstra phase
# (19 of 256, 68 of 1024); later rounds free few more.
_ROW_REDUCTION_ROUNDS = 30

# Sorted cells that the least-cost start turns into Python ints at once.
_START_SLICE = 4096


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Pairwise ground costs between two token sets.

    ``values[i, j]`` is the squared Euclidean distance between token i of
    the first set and token j of the second. ``values`` is adopted or
    copied by ``read_only_array``'s rule: ``cost_matrix`` hands over its
    array without a copy.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", read_only_array(self.values))


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A feasible coupling between two token sets, kept as its support.

    The coupling of shape ``shape`` carries ``mass[k]`` at cell
    ``(rows[k], cols[k])`` and nothing elsewhere. Row sums equal the
    source weights and column sums the target weights, both within 1e-9.
    ``solve_exact_ot`` lists the cells of positive mass: an assignment
    plan its n matched cells in row order, a simplex plan at most
    n + n' - 1 cells of its final basis, in an order fixed by the basis
    alone. ``total_cost`` is the coupling's squared-Euclidean cost, summed
    exactly rounded over the support (see ``_support_cost``). The three
    arrays are adopted or copied by ``read_only_array``'s rule, so the
    plan's own arrays are read-only. A simplex plan also carries its
    final basis tree, which ``solve_exact_ot(..., start=plan)`` starts
    from.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    shape: tuple[int, int]
    total_cost: float
    # The simplex's final basis tree, which a warm start copies.
    _tree: _BasisTree | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("rows", np.intp), ("cols", np.intp), ("mass", np.float64)):
            object.__setattr__(self, name, read_only_array(getattr(self, name), dtype))
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        object.__setattr__(self, "total_cost", float(self.total_cost))


def _support_cost(mass, costs: np.ndarray) -> float:
    """Exactly rounded sum of ``mass * costs`` over a plan's support cells:
    each product is rounded once, as in ``coupling * values``, and
    ``math.fsum`` makes the sum independent of the products' order."""
    return math.fsum((mass * costs).tolist())


def squared_distances(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every query and candidate row.

    The n x n' result is filled in row blocks whose n_rows x n' x m
    difference array holds at most ``_BLOCK_BYTES`` (one row if a single
    row is larger), so memory stays bounded at any n. One such array is
    allocated per call and every block is written into it. Each block runs
    the same einsum as a one-shot ``n x n' x m`` difference would, and the
    result is bit-identical to it.

    Raises:
        InvalidParameterError: if a squared distance overflows float64,
            which finite coordinates beyond about 1e154 can do.
    """
    n, m = queries.shape
    n_cand = candidates.shape[0]
    out = np.empty((n, n_cand))
    rows = max(1, _BLOCK_BYTES // (8 * n_cand * m))
    diffs = np.empty((min(rows, n), n_cand, m))
    for lo in range(0, n, rows):
        diff = diffs[:n - lo]
        np.subtract(queries[lo:lo + rows, None, :], candidates[None, :, :], out=diff)
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
        TransportPlan with the cells of positive mass of a coupling
        optimal for ``cost_matrix(a, b)`` within rounding (see the module
        docstring); output is deterministic for fixed inputs and
        ``start`` (ties are resolved by a fixed pivot order toward
        smallest index pairs).

    Raises:
        DimensionMismatchError: on differing embedding dimensions.
        InvalidParameterError: if a squared distance overflows float64.
        SolverFailureError: if the computed coupling violates a marginal
            constraint by more than 1e-9, or the solver's final duals fail
            the optimality certificate.
    """
    values = cost_matrix(a, b).values
    uniform = a.has_uniform_weights() and b.has_uniform_weights()
    tree = None
    if uniform and a.n == b.n:
        # Near the float64 limit a path length or reduced cost can exceed
        # it: inf orders it after every finite one, and the certificate
        # fails if it lands on a matched cell.
        with np.errstate(over="ignore"):
            cols, u, v = _min_cost_matching(values)
            _certify_assignment(values, cols, u, v)
        rows = np.arange(a.n)
        mass = np.full(a.n, 1.0 / a.n)
    else:
        warm = start._tree if start is not None and start.shape == values.shape else None
        if uniform:
            # Integer counts, n' per row and n per column: every flow is an
            # exact integer k, so a cell without mass holds exactly 0 and
            # k / (n n') is its correctly rounded mass.
            supply, demand = np.full(a.n, float(b.n)), np.full(b.n, float(a.n))
        else:
            supply, demand = a.weights, b.weights
        tree, _ = _transportation_simplex(values, supply, demand, warm)
        rows, cols = np.divmod(tree.cells(), b.n)
        mass = np.array(tree.flow[1:])
        if uniform:
            mass /= a.n * b.n

    _check_marginals(rows, cols, mass, a.weights, b.weights)
    carried = mass > 0
    rows, cols, mass = rows[carried], cols[carried], mass[carried]
    for array in (rows, cols, mass):
        array.setflags(write=False)
    plan = TransportPlan(rows, cols, mass, values.shape,
                         _support_cost(mass, values[rows, cols]))
    object.__setattr__(plan, "_tree", tree)
    return plan


def w2_distance(a: TokenSet, b: TokenSet) -> float:
    """2-Wasserstein distance: square root of the optimal coupling cost."""
    return math.sqrt(solve_exact_ot(a, b).total_cost)


def identity_w2(a: TokenSet, b: TokenSet) -> float:
    """W2 cost of the index-wise coupling a_k -> b_k with mass ``a.weights[k]``,
    between sets with the same weight vector.

    For two frames on one displacement-interpolation geodesic that coupling
    is optimal, and this returns ``w2_distance(a, b)`` without solving for
    it: each row cost is the cost matrix's own einsum, summed by the same
    order-free rule as every plan cost. For uniform equal-size sets the
    two agree bit for bit. With other weights a solve reaches the same
    optimum through its own masses, which are sums of the weights and
    round differently, so the two can differ in the last bits.

    Raises:
        DimensionMismatchError: if the dimensions differ.
        InvalidWeightsError: if the weight vectors differ, sizes included.
    """
    require_same_dimension(a, b)
    if not np.array_equal(a.weights, b.weights):
        raise InvalidWeightsError("index-wise coupling needs equal weight vectors")
    diff = a.points - b.points
    return math.sqrt(_support_cost(a.weights, np.einsum("ij,ij->i", diff, diff)))


def _check_marginals(rows, cols, mass, supply: np.ndarray, demand: np.ndarray) -> None:
    """Raise SolverFailureError unless the support's row and column sums are
    ``supply`` and ``demand`` and its mass is >= 0, all within ``MARGINAL_TOL``."""
    row_err = float(abs(np.bincount(rows, mass, len(supply)) - supply).max())
    col_err = float(abs(np.bincount(cols, mass, len(demand)) - demand).max())
    if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
        raise SolverFailureError(
            f"coupling violates marginals (row err {row_err:.3e}, col err {col_err:.3e})"
        )
    if float(mass.min()) < -MARGINAL_TOL:
        raise SolverFailureError("coupling has a negative entry")


def _certify_optimal(what: str, reduced: np.ndarray, tight: np.ndarray, tol: float) -> None:
    """Certify by LP duality that a feasible coupling is optimal.

    ``reduced`` holds the cost minus the final row and column duals on
    some or all cells, and ``tight`` those of the cells among them that
    carry the flow. Raises SolverFailureError unless ``reduced >= -tol``
    (dual feasibility) and ``|tight| <= tol`` (complementary slackness).
    """
    worst = float(reduced.min())
    slack = float(np.abs(tight).max())
    if not (worst >= -tol and slack <= tol):
        raise SolverFailureError(
            f"{what} is not optimal (reduced cost {worst:.3e}, slack {slack:.3e})"
        )


def _certify_assignment(values: np.ndarray, cols: np.ndarray, u: np.ndarray,
                        v: np.ndarray) -> None:
    """Certify the matching of row i to column ``cols[i]`` under duals u, v.

    The reduced costs ``(values - u[:, None]) - v`` are computed and checked
    in row blocks of at most ``_BLOCK_BYTES`` (one row if a single row is
    larger), each block with its own matched cells, so the certificate
    holds no second n x n array.
    """
    n = len(cols)
    tol = 1e-11 * float(values.max())
    step = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        block = values[lo:lo + step] - u[lo:lo + step, None]
        block -= v
        tight = block[np.arange(len(block)), cols[lo:lo + step]]
        _certify_optimal("assignment", block, tight, tol)


def _min_cost_matching(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a square cost matrix, O(n^3).

    Returns ``(perm, u, v)``: ``perm[i]`` is the column matched to row i,
    ``u`` and ``v`` the final row and column duals.

    ``_reduction_start`` gives a partial matching with duals that price
    every cell at or above zero and every matched cell at zero. Each row
    it leaves free is then matched by a Dijkstra search for a shortest
    augmenting path over the reduced costs, with the duals updated once
    per augmentation from the scanned rows and columns, as in scipy's
    ``linear_sum_assignment`` (Crouse 2016).

    A search step scans one row i at path length d: it adds the row's
    lengths ``(c[i] - v) + (d - u[i])`` into the running minimum of every
    column, and settles the first column at the least. The search reads
    ``v`` from its own copy, in which each settled column's dual is -inf,
    so every later length to that column is inf. That is four numpy calls,
    over rows kept as a list of views and row duals kept as a Python
    list; no predecessor is stored. When the path reaches a free column,
    the flip back to its start recovers each path column's predecessor
    once: among the rows scanned up to the step that settled it, the
    first at which that step's own length to the column is least, which
    is the row a strict ``<`` on the running minimum would have kept.

    Ties go to the smallest index: a column's argmin row in the column
    reduction, the smallest row among a column's bidders of equal gap in
    the row reduction, and among columns at equal path length the
    smallest column, so the zero matrix and a matrix of equal rows yield
    the identity. When several matchings are optimal, these rules decide
    which one is returned.

    Raises:
        SolverFailureError: if a path length overflows float64, which
            costs near the float64 limit can cause, or if a cost is NaN,
            on which the search would never settle.
    """
    c = np.asarray(values, dtype=np.float64)
    n = c.shape[0]
    col_of, row_of, u, v = _reduction_start(c)
    free = np.flatnonzero(col_of < 0).tolist()
    col_of, row_of, u = col_of.tolist(), row_of.tolist(), u.tolist()
    c_rows = list(c)

    free_d = np.empty(n)       # path length of each unscanned column, inf once scanned
    search_v = np.empty(n)     # v, but -inf on scanned columns
    r = np.empty(n)
    for start in free:
        free_d.fill(np.inf)
        np.copyto(search_v, v)
        scanned = [start]      # the row scanned at each step
        offsets = [0.0]        # that step's path length to the row
        cols = []              # the column settled at each step
        i = start
        min_val = 0.0
        while True:
            np.subtract(c_rows[i], search_v, out=r)
            r += min_val - u[i]
            np.minimum(free_d, r, out=free_d)
            j = int(free_d.argmin())
            min_val = float(free_d[j])
            if min_val == math.inf:
                raise SolverFailureError("assignment path length overflows float64")
            free_d[j] = math.inf
            search_v[j] = -math.inf
            cols.append(j)
            offsets.append(min_val)
            i = row_of[j]
            if i < 0:
                break
            scanned.append(i)

        # Flip the matching along the path back from the free column j,
        # settled at step s. Its predecessor is the first row, among those
        # scanned up to step s, at which the step's own path length to j is
        # least: the row that the strict < of a running minimum would keep.
        rows = np.array(scanned)
        row_offsets = np.array([d - u[i] for d, i in zip(offsets, scanned)])
        s = len(cols) - 1
        while True:
            lengths = c[rows[:s + 1], j] - v[j]
            lengths += row_offsets[:s + 1]
            s = int(lengths.argmin())
            i = scanned[s]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if s == 0:
                break
            s -= 1

        # Duals: scanned rows and columns move by their slack to min_val.
        u[start] += min_val
        for i, d in zip(scanned[1:], offsets[1:]):
            u[i] += min_val - d
        v[cols] -= min_val - np.array(offsets[1:])

    return np.array(col_of, dtype=np.int64), np.array(u), v


def _reduction_start(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jonker-Volgenant column and augmenting row reduction of a square cost
    matrix: ``(col_of, row_of, u, v)``, with -1 for a free row or column.

    Column reduction sets ``v[j]`` to the smallest cost in column j and, in
    ascending j, gives column j to its first argmin row if that row is
    still free. Then rounds of row reduction bid for columns, all free
    rows at once as in Bertsekas's auction but with exact bids: a free row
    bids for the first column j1 of its smallest reduced cost ``c[i] - v``,
    with the gap to its second smallest. Each column that gets a positive
    bid goes to the bidder with the largest gap, the smallest row on ties;
    its ``v`` drops by that gap, which makes the winner tight on it, and
    its previous owner becomes free. Rounds stop when no free row has a
    positive gap, or after ``_ROW_REDUCTION_ROUNDS``. Last, ``u`` is set to
    the row minima of ``c - v``.

    ``v`` only ever decreases, so every other row's reduced costs only
    rise and a matched column stays its row's minimum: ``c - u - v >= 0``
    on every cell and ``= 0`` on every matched one, up to rounding. A bid
    is not taken if it would lower ``v`` below ``(max c - float max) / 2``,
    so ``c - v`` never overflows. Bids and row minima are computed in row
    blocks of at most ``_BLOCK_BYTES``.
    """
    n = c.shape[0]
    top = float(c.max())
    if top != top:  # the max of a matrix that holds a NaN
        raise SolverFailureError("assignment cost matrix holds NaN")
    v = c.min(axis=0)
    col_of = np.full(n, -1, dtype=np.int64)  # column matched to row i
    row_of = np.full(n, -1, dtype=np.int64)  # row matched to column j
    for j, i in enumerate(_first_rows_at(c, v).tolist()):
        if col_of[i] < 0:
            col_of[i] = j
            row_of[j] = i

    floor = 0.5 * (top - np.finfo(np.float64).max)
    step = max(1, _BLOCK_BYTES // (8 * n))
    free = np.flatnonzero(col_of < 0)
    for _ in range(_ROW_REDUCTION_ROUNDS):
        first = np.empty(len(free), dtype=np.int64)
        gap = np.empty(len(free))
        for lo in range(0, len(free), step):
            block = c[free[lo:lo + step]]
            block -= v
            at = np.arange(len(block))
            j1 = block.argmin(axis=1)
            low = block[at, j1]
            block[at, j1] = np.inf
            gap[lo:lo + step] = block.min(axis=1) - low
            first[lo:lo + step] = j1
        bid = (gap > 0) & (gap <= v[first] - floor)
        if not bid.any():
            break
        bidders, cols, gap = free[bid], first[bid], gap[bid]
        # Largest gap first, then smallest row: each column's first bid wins.
        order = np.lexsort((bidders, -gap))
        _, at = np.unique(cols[order], return_index=True)
        won = order[at]
        cols, winners = cols[won], bidders[won]
        v[cols] -= gap[won]
        bumped = row_of[cols]
        col_of[bumped[bumped >= 0]] = -1
        row_of[cols] = winners
        col_of[winners] = cols
        free = np.flatnonzero(col_of < 0)

    u = np.empty(n)
    for lo in range(0, n, step):
        block = c[lo:lo + step] - v
        block.min(axis=1, out=u[lo:lo + step])
    return col_of, row_of, u, v


def _first_rows_at(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first row at each column's minimum ``v = c.min(axis=0)``, as
    ``c.argmin(axis=0)`` finds it. That call copies ``c`` transposed; this
    one copies a bool mask of it, an eighth of the bytes."""
    return (c == v).argmax(axis=0)


def _transportation_simplex(
    values: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    start: _BasisTree | None = None,
) -> tuple[_BasisTree, int]:
    """Network simplex on the n x m transportation problem.

    Starts from a copy of ``start``, an earlier solve's final tree, when
    the flows its basis fixes for these marginals are feasible, and from
    the least-cost basis otherwise. Entering cells follow Dantzig's
    most-negative-reduced-cost rule, the first such cell in row-major
    order on ties, switching to Bland's rule (first negative cell) after
    a pivot budget so degenerate instances cannot cycle. The leaving cell
    is the lexicographic minimum of (flow, cell) over the cycle's donor
    cells. The pivot sequence is fully deterministic.

    The last pricing pass is the duality certificate: its potentials
    must price every cell at or above ``-1e-11 * max C`` and every basis
    cell within that of zero, which also catches drifted potentials. It
    reads the final tree's ``cells()``, the array the plan then keeps. The
    flows come from the final tree and the marginals alone, so the
    coupling depends only on the final basis: a solve that pivoted
    settles its tree afresh, and one that made no pivot keeps the flows
    its start settled from the same basis and marginals.

    Returns:
        ``(tree, pivots)``: the final basis tree, whose ``flow[1:]`` is
        the optimal coupling on its ``cells()``, and the pivot count.

    Raises:
        SolverFailureError: on an exhausted pivot budget, a final basis
            that fails the certificate, or negative basic mass.
    """
    n, m = values.shape
    # Relative to the costs, so optimality does not depend on coordinate scale.
    tol = 1e-11 * float(values.max())
    tree = None if start is None else start.copy()
    if tree is None or not tree.settle(values, supply, demand):
        tree = _BasisTree(values, _least_cost_start(values, supply, demand))
        if not tree.settle(values, supply, demand):
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

    _certify_optimal("transportation simplex basis", reduced,
                     reduced.flat[tree.cells()], tol)
    # With no pivot the tree still holds the flows that the opening
    # settle computed from this basis and these marginals.
    if pivots and not tree.settle(values, supply, demand):
        raise SolverFailureError("transportation simplex produced negative mass")
    return tree, pivots


def _least_cost_start(values: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Basis cells of the least-cost (matrix-minimum) start, in the order
    taken; ``_BasisTree`` builds the same tree from any order.

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
    # The sorted cells as Python ints, a slice at a time: one list of all
    # n * m of them would take about five n x m arrays.
    order = np.argsort(values, axis=None, kind="stable")
    slices = (order[lo:lo + _START_SLICE].tolist() for lo in range(0, order.size, _START_SLICE))
    for flat in itertools.chain.from_iterable(slices):
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
    return np.array(cells, dtype=np.int64)


class _BasisTree:
    """Spanning tree of a transportation basis, kept in flat lists.

    Nodes are the rows ``0..n-1`` and the columns ``n..n+m-1``. Node k's
    edge to ``parent[k]`` is the basis cell (k, parent[k] - n) for a row
    and (parent[k], k - n) for a column; row 0 is the root and never
    moves. ``children[k]`` lists the nodes whose parent is k, in
    descending node order. ``settle`` sets the array ``pot`` of
    potentials, u in ``pot[:n]`` and v in ``pot[n:]``, with
    ``u[i] + v[j] == values[i, j]`` on every basis cell and
    ``u[0] == 0``, and ``flow[k]``, the flow on node k's parent edge, from
    the basis, the costs and the marginals; a pivot updates both.
    ``cells()`` is built once per basis: a pivot drops it, and a copy
    shares it.

    Every climb up ``parent`` and every walk down ``children`` stops after
    n + m nodes, so a corrupted tree raises SolverFailureError instead of
    looping forever.
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
        # Cells read in descending order give every adjacency list, and so
        # every children list, in descending node order.
        adjacent: list[list[int]] = [[] for _ in range(nodes)]
        for flat in sorted(cells.tolist(), reverse=True):
            i, j = divmod(flat, m)
            adjacent[i].append(n + j)
            adjacent[n + j].append(i)

        parent = [-1] * nodes
        children: list[list[int]] = [[] for _ in range(nodes)]
        seen = [False] * nodes
        seen[0] = True
        stack = [0]
        while stack:
            k = stack.pop()
            for nxt in adjacent[k]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt] = k
                    children[k].append(nxt)
                    stack.append(nxt)
        if not all(seen):
            raise SolverFailureError("transport basis is not a spanning tree")

        self.n, self.m = n, m
        self.parent, self.children = parent, children
        self._cells = None

    def _subtree(self, root: int) -> list[int]:
        """The nodes of ``root``'s subtree, breadth first from ``root``:
        each node comes after its parent, and its children come together,
        in list order."""
        children = self.children
        nodes = [root]
        # A list iterator sees what the loop appends; a cycle in children
        # would append forever, so at most n + m nodes are expanded.
        for k in itertools.islice(nodes, len(children)):
            nodes += children[k]
        if len(nodes) > len(children):
            raise SolverFailureError("transport basis tree is inconsistent")
        return nodes

    def copy(self) -> _BasisTree:
        """A copy of the structure that shares its cells. It has no
        potentials or flows until ``settle`` gives it its own."""
        tree = _BasisTree.__new__(_BasisTree)
        tree.n, tree.m = self.n, self.m
        tree.parent = self.parent[:]
        tree.children = list(map(list.copy, self.children))
        tree._cells = self.cells()
        return tree

    def cell(self, k: int) -> int:
        """Flat index of node k's parent edge."""
        n, m, up = self.n, self.m, self.parent[k]
        return k * m + up - n if k < n else up * m + k - n

    def cells(self) -> np.ndarray:
        """Flat indices of the basis cells, by child node 1..n+m-1.

        Built in one pass over ``parent`` and kept, read-only, until the
        next pivot, so a solve's certificate and its plan share one array.
        """
        if self._cells is None:
            n, m = self.n, self.m
            flat = [k * m + up - n if k < n else up * m + k - n
                    for k, up in enumerate(self.parent)]
            self._cells = np.array(flat[1:], dtype=np.intp)
            self._cells.setflags(write=False)
        return self._cells

    def settle(self, values: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> bool:
        """Set the potentials for ``values`` and the basic flows fixed by
        the marginals, in one walk from row 0; False if a flow is negative.

        The potentials are set down the walk, each node's from its parent's.
        The flows are eliminated up the same walk in reverse: each node's
        net supply (row minus column weights over its subtree) crosses its
        parent edge, from row to column. The walk lists each node's children
        together, in descending node order, so in reverse they add in
        ascending node order and the flows depend only on the basis, bit for
        bit. That order is kept on purpose: the leaving edge is the least
        (flow, cell), and a sum in any other order, such as differences of
        one prefix sum over a preorder, could round tied flows apart and
        change the pivots. Flows within ``_FLOW_TOL`` below zero are
        rounding dust and read as zero.
        """
        n, parent = self.n, self.parent
        walk = self._subtree(0)
        cost = values.flat[self.cells()].tolist()
        pot = [0.0] * len(parent)
        for k in walk[1:]:
            pot[k] = cost[k - 1] - pot[parent[k]]
        self.pot = np.array(pot)
        net = supply.tolist() + (-demand).tolist()
        for k in walk[:0:-1]:
            net[parent[k]] += net[k]
        flow = net[:n] + [-f for f in net[n:]]
        flow[0] = 0.0
        low = min(flow)
        if low < -_FLOW_TOL:
            return False
        self.flow = [max(f, 0.0) for f in flow] if low < 0.0 else flow
        return True

    def pivot(self, ei: int, ej: int, delta: float) -> None:
        """Bring cell (ei, ej), of reduced cost ``delta``, into the basis.

        The cycle it closes is the tree path from row ei to column ej:
        the climbs from both ends up to their common ancestor, the first
        node on column ej's climb that row ei's climb to the root passes.
        Read from row ei to column ej the path's edges alternate -, +, - ...,
        so each edge it crosses from a row to a column gives up flow; that
        is a row's parent edge on row ei's climb and a column's on column
        ej's. The donor edge of least (flow, cell) leaves. Removing it
        cuts off the subtree S holding one end of the entering edge; S is
        re-hung from that end below the other end, and only S's
        potentials change.
        """
        n = self.n
        parent, children, flow = self.parent, self.children, self.flow
        limit = len(parent)
        self._cells = None
        p, q = ei, n + ej
        if parent[p] == q or parent[q] == p:
            raise SolverFailureError("transport basis cell priced below zero")
        # Row 0's parent is -1, and Python's parent[-1] would climb on: a
        # climb that steps above the root or passes more nodes than the
        # tree has is inconsistent.
        up = [p]
        while up[-1] > 0 and len(up) <= limit:
            up.append(parent[up[-1]])
        on_up = set(up)
        climb_q: list[int] = []
        a = q
        while a not in on_up and a >= 0 and len(climb_q) < limit:
            climb_q.append(a)
            a = parent[a]
        if up[-1] != 0 or a not in on_up:
            raise SolverFailureError("transport basis tree is inconsistent")
        climb_p = up[:up.index(a)]

        theta = math.inf
        leave_cell = -1
        out_side = out_at = -1
        for side, climb in enumerate((climb_p, climb_q)):
            for at, k in enumerate(climb):
                # Only a flow at or below theta can win: its cell breaks a tie.
                if (k < n) == (side == 0) and flow[k] <= theta:
                    f, cell = flow[k], self.cell(k)
                    if f < theta or cell < leave_cell:
                        theta, leave_cell, out_side, out_at = f, cell, side, at
        # A degenerate pivot (theta == 0) adds a signed zero: no flow changes.
        for k in climb_p:
            flow[k] += -theta if k < n else theta
        for k in climb_q:
            flow[k] += theta if k < n else -theta

        if out_side == 0:
            path, anchor = climb_p[:out_at + 1], q
        else:
            path, anchor = climb_q[:out_at + 1], p
            delta = -delta  # S holds column ej: its columns gain delta, its rows lose it
        # Cut the leaving edge above path[-1], reverse the path's parent
        # edges (each keeps its flow), and hang path[0] below the anchor.
        children[parent[path[-1]]].remove(path[-1])
        for t in range(len(path) - 1, 0, -1):
            k, below = path[t], path[t - 1]
            children[k].remove(below)
            bisect.insort(children[below], k, key=operator.neg)
            parent[k] = below
            flow[k] = flow[below]
        parent[path[0]] = anchor
        bisect.insort(children[anchor], path[0], key=operator.neg)
        flow[path[0]] = theta
        # S's rows gain delta and its columns lose it.
        subtree = np.array(self._subtree(path[0]))
        self.pot[subtree] += np.where(subtree < n, delta, -delta)
