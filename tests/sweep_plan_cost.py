"""Sweep random OT instances and morphs through the plan-cost rule.

Usage: PYTHONPATH=src python tests/sweep_plan_cost.py [COUNT] [MORPHS] [SEED] [WEIGHTED] [UNIFORM]
    [BARYCENTERS]

Checks five properties on seeded random inputs from SEED (default 0):

* On COUNT (default 4 000) instances, half uniform equal-size sets (the
  assignment route) and half Dirichlet-weighted sets of unequal size
  (the network simplex), ``solve_exact_ot(a, b).total_cost`` equals the
  rounded products ``mass * values`` over the plan's support cells,
  summed as exact fractions and rounded once.
* On MORPHS (default 3 000) sequential morphs of sets with duplicated
  integer tokens, the distribution of the test suite's duplicate-token
  property test, ``step_w2`` equals ``step_lengths`` bit for bit,
  although a full solve can pick another optimal matching than the
  identity.
* On WEIGHTED (default 1 000) sequential morphs of Dirichlet-weighted
  sets of unequal size, every other one with its tokens on a {0, 1, 2}
  grid, ``step_w2`` equals ``step_lengths`` within 1e-12 relative. Bit
  equality does not hold there: a full solve reaches the same optimum
  through its own masses, sums of the weights that round differently.
  These morphs draw after the others, so COUNT and MORPHS instances keep
  their inputs.
* On UNIFORM (default 1 000) instances of uniform sets of unequal size,
  every other one on a {0, 1, 2} grid, drawn last, every plan mass is
  k / (n n') for a whole count k >= 1, correctly rounded, with the
  counts summing to n' in each row and n in each column: no cell holds
  rounding dust. ``total_cost`` is checked as on the COUNT instances.
* On BARYCENTERS (default 0) barycenters of two Dirichlet-weighted
  measures (sizes 2 to 29, dimension 1 to 8, a random beta), drawn after
  all others, every solve warm-started from the previous sweep's plan
  equals a cold solve of the same pair byte for byte: rows, cols, mass
  and ``total_cost``. A support that collapses onto duplicated points
  has other optimal plans at equal cost, so its solves are skipped and
  counted, with how many of them took another plan.

Prints the first failing case and exits 1 on any difference. Not a
pytest module: it runs as its own CI step, so the search does not
lengthen the test suite.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from unittest import mock

from conftest import exact_plan_cost
from tokenmorph import (
    MorphConfig,
    TokenSet,
    cost_matrix,
    morph_geometry,
    pairwise_barycenter,
    solve_exact_ot,
    step_lengths,
)
from tokenmorph import barycenter as barycenter_module


def random_instance(rng: np.random.Generator, weighted: bool) -> tuple[TokenSet, TokenSet]:
    n, m = int(rng.integers(1, 25)), int(rng.integers(1, 6))
    if not weighted:
        return TokenSet(rng.normal(size=(n, m))), TokenSet(rng.normal(size=(n, m)))
    n2 = int(rng.integers(1, 25))
    return (TokenSet(rng.normal(size=(n, m)), rng.dirichlet(np.ones(n))),
            TokenSet(rng.normal(size=(n2, m)), rng.dirichlet(np.ones(n2))))


def duplicate_token_morph(rng: np.random.Generator):
    n, m = int(rng.integers(2, 25)), int(rng.integers(1, 4))
    source = TokenSet(rng.integers(-2, 3, size=(n, m)).astype(float))
    target = TokenSet(rng.integers(-2, 3, size=(n, m)).astype(float))
    return morph_geometry(source, target, MorphConfig(J=6))


def weighted_morph(rng: np.random.Generator, grid: bool):
    n, m = int(rng.integers(1, 25)), int(rng.integers(1, 6))
    n2 = int(rng.integers(1, 24))
    n2 += n2 >= n  # unequal sizes

    def tokens(size):
        points = (rng.integers(0, 3, size=(size, m)).astype(float) if grid
                  else rng.normal(size=(size, m)))
        return TokenSet(points, rng.dirichlet(np.ones(size)))

    return morph_geometry(tokens(n), tokens(n2), MorphConfig(J=6))


def uniform_unequal_instance(rng: np.random.Generator, grid: bool):
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 4))
    n2 = int(rng.integers(1, 39))
    n2 += n2 >= n  # unequal sizes

    def tokens(size):
        return TokenSet(rng.integers(0, 3, size=(size, m)).astype(float) if grid
                        else rng.normal(size=(size, m)))

    return tokens(n), tokens(n2)


def weighted_barycenter_pair(rng: np.random.Generator) -> tuple[TokenSet, TokenSet, float]:
    n, n2, m = int(rng.integers(2, 30)), int(rng.integers(2, 30)), int(rng.integers(1, 9))
    return (TokenSet(rng.normal(size=(n, m)), rng.dirichlet(np.ones(n))),
            TokenSet(rng.normal(size=(n2, m)), rng.dirichlet(np.ones(n2))),
            float(rng.uniform()))


class WarmAgainstCold:
    """Stands in for the barycenter's ``solve_exact_ot``: every warm solve
    is repeated cold, and the two plans compared byte for byte."""

    def __init__(self):
        self.warm = self.skipped = self.skipped_other = 0
        self.mismatch: str | None = None

    def __call__(self, a: TokenSet, b: TokenSet, *, start=None):
        plan = solve_exact_ot(a, b, start=start)
        if start is None:
            return plan
        self.warm += 1
        cold = solve_exact_ot(a, b)
        differ = [name for name in ("rows", "cols", "mass", "total_cost")
                  if np.asarray(getattr(plan, name)).tobytes()
                  != np.asarray(getattr(cold, name)).tobytes()]
        if len(np.unique(a.points, axis=0)) < a.n:
            self.skipped += 1
            self.skipped_other += bool(differ)
        elif differ and self.mismatch is None:
            self.mismatch = f"{a.n}x{b.n}, m={a.m}: {', '.join(differ)} differ"
        return plan


def count_error(plan, n: int, n2: int) -> str | None:
    """Why the plan's masses are not whole counts k / (n n'), or None."""
    counts = np.rint(plan.mass * (n * n2))
    if counts.min() < 1:
        return f"a mass of {plan.mass.min()!r} is below 1 / (n n')"
    if plan.mass.tobytes() != (counts / (n * n2)).tobytes():
        return "a mass is not a correctly rounded count / (n n')"
    if not (np.array_equal(np.bincount(plan.rows, counts, n), np.full(n, n2))
            and np.array_equal(np.bincount(plan.cols, counts, n2), np.full(n2, n))):
        return "the counts do not sum to n' per row and n per column"
    return None


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 4000
    morphs = int(argv[1]) if len(argv) > 1 else 3000
    seed = int(argv[2]) if len(argv) > 2 else 0
    weighted = int(argv[3]) if len(argv) > 3 else 1000
    uniform = int(argv[4]) if len(argv) > 4 else 1000
    barycenters = int(argv[5]) if len(argv) > 5 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for k in range(count):
        a, b = random_instance(rng, weighted=k % 2 == 1)
        plan = solve_exact_ot(a, b)
        expected = exact_plan_cost(plan, cost_matrix(a, b).values)
        if plan.total_cost != expected:
            print(f"instance {k} ({a.n}x{b.n}, m={a.m}): total_cost "
                  f"{plan.total_cost!r}, exact sum {expected!r}")
            return 1
    for k in range(morphs):
        traj = duplicate_token_morph(rng)
        full = step_lengths(traj)
        if np.asarray(traj.step_w2).tobytes() != full.tobytes():
            print(f"morph {k} (n={traj.frames[0].n}, m={traj.frames[0].m}): step_w2 "
                  f"{traj.step_w2!r}, step_lengths {full.tolist()!r}")
            return 1
    for k in range(weighted):
        traj = weighted_morph(rng, grid=k % 2 == 1)
        steps, full = np.asarray(traj.step_w2), step_lengths(traj)
        if not np.all(np.abs(steps - full) <= 1e-12 * full):
            print(f"weighted morph {k} (frames of {traj.frames[0].n}, m={traj.frames[0].m}): "
                  f"step_w2 {traj.step_w2!r}, step_lengths {full.tolist()!r}")
            return 1
    for k in range(uniform):
        a, b = uniform_unequal_instance(rng, grid=k % 2 == 1)
        plan = solve_exact_ot(a, b)
        error = count_error(plan, a.n, b.n)
        expected = exact_plan_cost(plan, cost_matrix(a, b).values)
        if error is None and plan.total_cost != expected:
            error = f"total_cost {plan.total_cost!r}, exact sum {expected!r}"
        if error is not None:
            print(f"uniform instance {k} ({a.n}x{b.n}, m={a.m}): {error}")
            return 1
    checker = WarmAgainstCold()
    with mock.patch.object(barycenter_module, "solve_exact_ot", checker):
        for k in range(barycenters):
            source, target, beta = weighted_barycenter_pair(rng)
            pairwise_barycenter(source, target, beta, source)
            if checker.mismatch is not None:
                print(f"barycenter {k}: a warm solve differs from the cold one, "
                      f"{checker.mismatch}")
                return 1
    print(f"{count} plans, {morphs} morphs, {weighted} weighted morphs and {uniform} uniform "
          f"plans of unequal size, seed {seed}: every total_cost exact, every step_w2 equal "
          f"to step_lengths, within 1e-12 on weighted morphs, every uniform mass a whole "
          f"count; {barycenters} barycenters made {checker.warm} warm solves, each equal to "
          f"a cold solve but {checker.skipped} skipped on duplicated points "
          f"({checker.skipped_other} of them took another optimal plan) "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
