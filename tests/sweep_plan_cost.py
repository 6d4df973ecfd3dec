"""Sweep random OT instances and morphs through the plan-cost rule.

Usage: PYTHONPATH=src python tests/sweep_plan_cost.py [COUNT] [MORPHS] [SEED]

Checks two properties on seeded random inputs from SEED (default 0):

* On COUNT (default 4 000) instances, half uniform equal-size sets (the
  assignment route) and half Dirichlet-weighted sets of unequal size
  (the network simplex), ``solve_exact_ot(a, b).total_cost`` equals the
  rounded products ``coupling * values`` summed as exact fractions and
  rounded once.
* On MORPHS (default 3 000) sequential morphs of sets with duplicated
  integer tokens, the distribution of the test suite's duplicate-token
  property test, ``step_w2`` equals ``step_lengths`` bit for bit,
  although a full solve can pick another optimal matching than the
  identity.

Prints the first failing case and exits 1 on any difference. Not a
pytest module: it runs as its own CI step, so the search does not
lengthen the test suite.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conftest import exact_plan_cost
from tokenmorph import (
    MorphConfig,
    TokenSet,
    cost_matrix,
    morph_geometry,
    solve_exact_ot,
    step_lengths,
)


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


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 4000
    morphs = int(argv[1]) if len(argv) > 1 else 3000
    seed = int(argv[2]) if len(argv) > 2 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for k in range(count):
        a, b = random_instance(rng, weighted=k % 2 == 1)
        plan = solve_exact_ot(a, b)
        expected = exact_plan_cost(plan.coupling, cost_matrix(a, b).values)
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
    print(f"{count} plans and {morphs} morphs, seed {seed}: every total_cost exact, "
          f"every step_w2 equal to step_lengths ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
