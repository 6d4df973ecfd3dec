"""Sweep JSON number tokens through the numpy float reader against float().

Usage: PYTHONPATH=src python tests/sweep_float_read.py [COUNT] [SEED]

Two parts, both seeded by SEED (default 0):

- Round trips: COUNT (default 4 194 304) finite float64 bit patterns,
  drawn as in ``sweep_float_repr.py`` (sign, every biased exponent 0 to
  2046, significand uniform), and that script's short decimals (1 to 17
  significant digits at every decimal exponent), are written by
  ``tokenmorph._floatrepr.json_float_array`` as 2-D arrays, rows of
  ``WIDTH`` values and a shorter last row where a chunk does not divide,
  and read back by ``tokenmorph._floatread.json_numbers``, which must
  give ``float(token)`` bit for bit and mark the end of every row, so
  that the reader's blocks are also cut next to ``],[``.
- Midpoints: for COUNT // 16 more such doubles x, the decimals of 17 to
  25 significant digits just below and just above the midpoint between
  x and the next double up, and the midpoint itself where it has that
  few digits. These are the hardest tokens for the reader's certified
  product: each lies within one unit of its 17th to 25th digit of a
  rounding boundary.

Prints the first mismatching tokens and exits 1 on any difference. Not
a pytest module: it runs as its own CI step, so rare cases are searched
without lengthening the test suite.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from sweep_float_repr import short_decimals
from tokenmorph._floatrepr import json_float_array
from tokenmorph._floatread import json_numbers

CHUNK = 1 << 18
WIDTH = 64
DIGITS = range(17, 26)
_LARGEST = 0x7FEFFFFFFFFFFFFF  # the midpoint above it reads as inf


def random_finite_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    sign = rng.integers(0, 2, size=count, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, size=count, dtype=np.uint64) << np.uint64(52)
    significand = rng.integers(0, 1 << 52, size=count, dtype=np.uint64)
    return sign | exponent | significand


def midpoint_tokens(bits: int, digits: range) -> list[str]:
    """JSON tokens at and next to the midpoint between the positive double
    with these bits and the next double up, with each count of
    significant digits in ``digits``."""
    biased, fraction = bits >> 52, bits & ((1 << 52) - 1)
    c = fraction | (1 << 52) if biased else fraction
    e = max(biased, 1) - 1075
    # The midpoint (2c + 1) 2**(e - 1) as the integer text * 10**scale.
    if e >= 1:
        text, scale = str((2 * c + 1) << (e - 1)), 0
    else:
        text, scale = str((2 * c + 1) * 5 ** (1 - e)), e - 1
    tokens = []
    for n in digits:
        if len(text) <= n:
            if scale >= 0:
                tokens.append(text)                              # a JSON integer
            tokens.append(f"{text[0]}.{text[1:] or '0'}e{scale + len(text) - 1}")
            continue
        k = scale + len(text) - n
        low = int(text[:n])
        exact = text[n:].strip("0") == ""
        for mantissa in (low,) if exact else (low, low + 1):
            digits_ = str(mantissa)
            tokens.append(f"{mantissa}e{k}")
            tokens.append(f"-{digits_[0]}.{digits_[1:]}E{k + len(digits_) - 1:+d}")
    return tokens


def _check(text: bytes, width: int | None = None) -> list[tuple[str, str, str]]:
    """The tokens of ``text``, JSON numbers separated by ``,`` or ``],[``,
    that json_numbers does not read as float() does; or, if none, its row
    ends where they are not every ``width`` tokens and at the last (only
    at the last without a width)."""
    tokens = text.replace(b"],[", b",").split(b",")
    read = json_numbers(text, 0, len(text))
    expected = np.array([float(t) for t in tokens])
    if read is None:
        return [("(whole chunk)", "None", "")]
    got, row_ends = read
    bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    if len(bad):
        return [(tokens[i].decode(), repr(got[i]), repr(expected[i])) for i in bad[:10]]
    ends = np.zeros(len(tokens), dtype=bool)
    if width is not None:
        ends[width - 1::width] = True
    ends[-1] = True
    wrong = np.flatnonzero(row_ends != ends)
    return [("(row end)", str(i), str(ends[i])) for i in wrong[:10]]


def _rows(values: np.ndarray) -> bytes:
    """``values`` written by json_float_array as a 2-D array of rows of
    WIDTH, with a shorter last row where WIDTH does not divide, less its
    outer brackets: ``a,b],[c,d],[e``."""
    whole = len(values) // WIDTH * WIDTH
    parts = [json_float_array(values[:whole].reshape(-1, WIDTH))[2:-2]] if whole else []
    if whole < len(values):
        parts.append(json_float_array(values[whole:])[1:-1])
    return b"],[".join(parts)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 1 << 22
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for done in range(0, count, CHUNK):
        values = random_finite_bits(rng, min(CHUNK, count - done)).view(np.float64)
        bad = _check(_rows(values), WIDTH)
        if bad:
            print(f"round trip mismatch (token, reader, float): {bad}")
            return 1
    print(f"{count} written doubles in rows of {WIDTH}, seed {seed}: read as float() "
          f"reads them ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    short = short_decimals(seed)
    for done in range(0, len(short), CHUNK):
        bad = _check(_rows(short[done:done + CHUNK]), WIDTH)
        if bad:
            print(f"short decimal round trip mismatch (token, reader, float): {bad}")
            return 1
    print(f"{len(short)} written short decimals of 1-17 digits in rows of {WIDTH}, seed "
          f"{seed}: read as float() reads them ({time.perf_counter() - start:.1f} s)")

    start = time.perf_counter()
    tokens: list[bytes] = []
    checked = 0
    bits = random_finite_bits(rng, count // 16) & np.uint64((1 << 63) - 1)
    for k, b in enumerate(bits.tolist()):
        if b != _LARGEST:
            tokens += [t.encode() for t in midpoint_tokens(b, DIGITS)]
        if len(tokens) >= CHUNK or k == len(bits) - 1:
            bad = _check(b",".join(tokens))
            if bad:
                print(f"midpoint mismatch (token, reader, float): {bad}")
                return 1
            checked += len(tokens)
            tokens = []
    print(f"{checked} tokens at or next to {len(bits)} midpoints, {DIGITS.start}-"
          f"{DIGITS.stop - 1} digits: read as float() reads them "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
