"""Sweep random query and candidate sets through the nearest-token search.

Usage: PYTHONPATH=src python tests/sweep_nearest.py [COUNT] [SEED]

COUNT (default 20 000) instances, seeded by SEED (default 0), cycle
through every kind and scale of ``conftest.search_inputs``: ties,
duplicated and jittered tokens, an offset cluster, normal sets, and sets
with one candidate or query 1e4-1e8 times out, at coordinates from
1e-162 to 1e155. Sizes n and n' run from 2 to 256 (several row blocks),
m from 1 to 70. ``selective._nearest_indices`` must return
``np.argmin(squared_distances(q, c), axis=1)`` exactly, or raise the
same ``InvalidParameterError``.

Prints, per kind, how many rows the row band settled, how many the
per-pair bound settled, how many re-ran the einsum on their candidates
and how many the full-matrix fallback decided. Prints the first
mismatching instance and exits 1 on any difference. Not a pytest module:
it runs as its own CI step, so the search does not lengthen the test
suite.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

from conftest import SEARCH_KINDS, SEARCH_SCALES, einsum_argmin, search_inputs, search_outcome
from tokenmorph import selective
from tokenmorph.ot import squared_distances

STAGES = ("band", "per_pair", "einsum", "fallback")


class StageCounter:
    """Counts the rows each stage of ``_nearest_indices`` decides, by
    wrapping the per-pair bound and the einsum in the selective module."""

    def __init__(self) -> None:
        self.rows: Counter = Counter()
        self._in_per_pair = False
        self._per_pair = selective._per_pair_nearest
        selective._per_pair_nearest = self.per_pair
        selective.squared_distances = self.einsum

    def per_pair(self, scores, *args):
        self._in_per_pair = True
        try:
            return self._per_pair(scores, *args)
        finally:
            self._in_per_pair = False
            self.rows["per_pair"] += len(scores)

    def einsum(self, queries, candidates):
        self.rows["einsum" if self._in_per_pair else "fallback"] += len(queries)
        return squared_distances(queries, candidates)

    def search(self, queries, candidates) -> tuple[Counter, list | str]:
        """Rows per stage for one search, its result or error message."""
        before = self.rows.copy()
        result = search_outcome(selective._nearest_indices, queries, candidates)
        rows = self.rows - before
        rows["per_pair"] -= rows["einsum"]
        rows["band"] = len(queries) - rows["per_pair"] - rows["einsum"] - rows["fallback"]
        return rows, result


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 20_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    counter = StageCounter()
    totals = {kind: Counter() for kind in SEARCH_KINDS}
    cases = [(kind, scale) for kind in SEARCH_KINDS for scale in SEARCH_SCALES]
    start = time.perf_counter()
    for k in range(count):
        kind, scale = cases[k % len(cases)]
        n, n_cand = (1 + int(2.0 ** rng.uniform(0, 8)) for _ in range(2))
        m, instance_seed = int(rng.integers(1, 71)), int(rng.integers(2**32))
        q, c = search_inputs(kind, n, n_cand, m, scale, instance_seed)
        rows, result = counter.search(q, c)
        expected = search_outcome(einsum_argmin, q, c)
        if result != expected:
            print(f"instance {k}: search_inputs({kind!r}, {n}, {n_cand}, {m}, {scale!r}, "
                  f"{instance_seed}) gives {result!r:.200}, the einsum {expected!r:.200}")
            return 1
        totals[kind] += rows
        totals[kind]["instances"] += 1
    print(f"{count} searches, seed {seed}: every result the einsum's argmin "
          f"({time.perf_counter() - start:.1f} s). Rows decided per stage:")
    print(f"{'kind':<12}{'instances':>10}" + "".join(f"{s:>10}" for s in STAGES))
    for kind, rows in totals.items():
        print(f"{kind:<12}{rows['instances']:>10}" + "".join(f"{rows[s]:>10}" for s in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
