"""Differential fuzz of the JSON token reader: random byte edits of canonical files.

Usage: PYTHONPATH=src python tests/sweep_json_fuzz.py [COUNT] [SEED]

Writes canonical token files of ``SHAPES`` (1 024 to 1 025 values each,
the numpy reader's smallest size and up) with coordinates of random sign
and magnitude from 1e-300 to 1e300, each with and without Dirichlet
weights. COUNT (default 20 000) times, seeded by SEED (default 0), it
copies one of them and makes one to three random byte edits: a replaced,
inserted or deleted byte, nine times in ten inside the number text.
Each edited file is read by ``tokenio.tokens_from_json_bytes``, which
takes the numpy reader where the file is still in the writer's layout,
and by ``tokenio._tokens_from_json_doc``, the ``json.loads`` path. The
two must give the same points and weights bit for bit, or raise the same
error class with the same message.

Prints the first file on which they differ and exits 1; else prints how
many edited files each path read and how many failed, and exits 0. Not
a pytest module: it runs as its own CI step.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from tokenmorph import TokenSet
from tokenmorph.tokenio import (
    _canonical_tokens,
    _tokens_from_json_doc,
    tokens_from_json_bytes,
    tokens_to_json_bytes,
)

SHAPES = ((1024, 1), (512, 2), (256, 4), (205, 5), (64, 16))
NUMBER_BYTES = b"0123456789.eE+-"
OTHER_BYTES = b',[]{}" :\nxtn'


def _outcome(read, data: bytes):
    """A read's points and weights as bytes, or the type and message it raised."""
    try:
        tokens = read(data)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return tokens.points.tobytes(), tokens.weights.tobytes()


def _difference(read, reference) -> str:
    """What differs between the reader's and json.loads's ``_outcome``."""
    if isinstance(read[0], bytes) and isinstance(reference[0], bytes):
        a, b = (np.frombuffer(b"".join(outcome), np.float64) for outcome in (read, reference))
        k = int(np.argmax(a.view(np.uint64) != b.view(np.uint64)))
        return (f"value {k} (points, then weights) reads as {float(a[k])!r}, "
                f"by json.loads as {float(b[k])!r}")
    told = [f"{outcome[0]}: {outcome[1]}" if isinstance(outcome[0], str) else "a token set"
            for outcome in (read, reference)]
    return f"the reader gives {told[0]}, json.loads {told[1]}"


def _base_files(rng: np.random.Generator) -> list[bytes]:
    files = []
    for n, d in SHAPES:
        for weighted in (False, True):
            sign = rng.choice([-1.0, 1.0], size=(n, d))
            points = sign * 10.0 ** rng.uniform(-300.0, 300.0, size=(n, d))
            weights = rng.dirichlet(np.ones(n)) if weighted else None
            files.append(tokens_to_json_bytes(TokenSet(points, weights)))
    return files


def _edit(rng: np.random.Generator, data: bytes, number_at: np.ndarray) -> bytes:
    """One to three byte edits, nine in ten at a byte of number text.

    ``number_at`` holds the offsets of ``data``'s number bytes; an edit
    that inserts or deletes shifts the text after it, so later edits may
    land just off a number.
    """
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.9:
            at = int(number_at[rng.integers(len(number_at))])
        else:
            at = int(rng.integers(len(out)))
        at = min(at, len(out) - 1)
        alphabet = NUMBER_BYTES if rng.random() < 0.8 else OTHER_BYTES
        byte = alphabet[rng.integers(len(alphabet))]
        kind = rng.random()
        if kind < 0.5:
            out[at] = byte
        elif kind < 0.75:
            out.insert(at, byte)
        else:
            del out[at]
    return bytes(out)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 20_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    bases = _base_files(rng)
    number_at = [np.flatnonzero(np.isin(np.frombuffer(data, np.uint8),
                                        np.frombuffer(NUMBER_BYTES, np.uint8)))
                 for data in bases]
    by_kernel = by_loads = failed = 0
    for k in range(count):
        b = int(rng.integers(len(bases)))
        data = _edit(rng, bases[b], number_at[b])
        read = _outcome(tokens_from_json_bytes, data)
        reference = _outcome(_tokens_from_json_doc, data)
        if read != reference:
            print(f"edit {k} of base file {b} (shape {SHAPES[b // 2]}): "
                  f"{_difference(read, reference)}")
            print(f"file: {data!r}"[:4000])
            return 1
        if isinstance(read[0], str):
            failed += 1
        elif _canonical_tokens(data) is not None:
            by_kernel += 1
        else:
            by_loads += 1
    print(f"{count} edited token files ({len(bases)} bases, coordinates 1e-300 to 1e300), "
          f"seed {seed}: {by_kernel} read by the numpy reader, {by_loads} by json.loads, "
          f"{failed} failed, each as json.loads reads it "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
