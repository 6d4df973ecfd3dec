"""Sweep random doubles through the JSON float kernel against json.dumps.

Usage: PYTHONPATH=src python tests/sweep_float_repr.py [COUNT] [SEED]

Two populations, both seeded by SEED (default 0), checked in chunks:
``tokenmorph._floatrepr.json_float_array`` must write the same bytes as
``json.dumps``.

- COUNT (default 4 194 304) finite float64 bit patterns: sign, biased
  exponent (every finite one, 0 to 2046) and significand uniform. Nearly
  all of them need 16 or 17 significant digits.
- Short decimals: ``float(f"{digits}e{exp}")`` for 1 to 17 random
  significant digits, 16 of each count at every decimal exponent from
  -324 to 308, with random signs (about 170 000 values). They take the
  writer's one-digit-shorter branches, trailing zeros and every integer
  and ``0.000...`` layout, which random bit patterns almost never reach.

Prints the first mismatching values and exits 1 on any difference. Not
a pytest module: it runs as its own CI step, so rare digit cases are
searched without lengthening the test suite.
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


def short_decimals(seed: int) -> np.ndarray:
    """The finite doubles ``float(f"{digits}e{exp}")`` of 16 random
    ``digits`` of each length 1-17 at each decimal exponent -324 to 308
    of the leading digit, with random signs."""
    rng = np.random.default_rng([seed, 1])
    values = []
    for n in range(1, 18):
        digits = rng.integers(10 ** (n - 1), 10 ** n, size=(633, 16))
        for exponent, row in zip(range(-324 - n + 1, 309 - n + 1), digits.tolist()):
            values += [float(f"{d}e{exponent}") for d in row]
    values = np.array(values)
    values = values[np.isfinite(values)]
    return values * rng.choice([-1.0, 1.0], size=len(values))


def _mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(json.dumps, kernel) texts of the values the kernel writes otherwise."""
    ours = json_float_array(values)
    if ours == json.dumps(values.tolist(), separators=(",", ":")).encode():
        return []
    texts = ours[1:-1].split(b",")
    bad = [(repr(x), t.decode()) for x, t in zip(values.tolist(), texts) if repr(x).encode() != t]
    return bad or [("(whole chunk)", ours[:80].decode())]


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 1 << 22
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for done in range(0, count, CHUNK):
        bad = _mismatches(random_finite_doubles(rng, min(CHUNK, count - done)))
        if bad:
            print(f"mismatch (json.dumps, kernel): {bad[:10]}")
            return 1
    print(f"{count} doubles, seed {seed}: identical to json.dumps "
          f"({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    short = short_decimals(seed)
    for done in range(0, len(short), CHUNK):
        bad = _mismatches(short[done:done + CHUNK])
        if bad:
            print(f"short decimal mismatch (json.dumps, kernel): {bad[:10]}")
            return 1
    print(f"{len(short)} short decimals of 1-17 digits, seed {seed}: identical to "
          f"json.dumps ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
