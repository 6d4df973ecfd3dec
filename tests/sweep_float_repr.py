"""Sweep random doubles through the JSON float kernel against json.dumps.

Usage: PYTHONPATH=src python tests/sweep_float_repr.py [COUNT] [SEED]

Draws COUNT (default 4 194 304) finite float64 bit patterns from SEED
(default 0): sign, biased exponent (every finite one, 0 to 2046) and
significand uniform. Checks in chunks that
``tokenmorph._floatrepr.json_float_array`` writes the same bytes as
``json.dumps``. Prints the first mismatching values and exits 1 on any
difference. Not a pytest module: it runs as its own CI step, so rare
digit cases are searched without lengthening the test suite.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from tokenmorph._floatrepr import json_float_array

CHUNK = 1 << 18


def random_finite_doubles(rng: np.random.Generator, count: int) -> np.ndarray:
    sign = rng.integers(0, 2, size=count, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, size=count, dtype=np.uint64) << np.uint64(52)
    significand = rng.integers(0, 1 << 52, size=count, dtype=np.uint64)
    return (sign | exponent | significand).view(np.float64)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 1 << 22
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for done in range(0, count, CHUNK):
        values = random_finite_doubles(rng, min(CHUNK, count - done))
        ours = json_float_array(values)
        if ours != json.dumps(values.tolist(), separators=(",", ":")).encode():
            texts = ours[1:-1].split(b",")
            bad = [(repr(x), t.decode()) for x, t in zip(values.tolist(), texts)
                   if repr(x).encode() != t]
            print(f"mismatch (json.dumps, kernel): {bad[:10]}")
            return 1
    print(f"{count} doubles, seed {seed}: identical to json.dumps "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
