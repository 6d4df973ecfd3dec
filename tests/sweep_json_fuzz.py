"""Differential fuzz of the JSON token reader: random byte edits of canonical files.

Usage: PYTHONPATH=src python tests/sweep_json_fuzz.py [COUNT] [SEED]

Writes canonical token files of ``SHAPES`` (1 024 to 1 025 values each,
the numpy reader's smallest size and up), each with and without
Dirichlet weights, with coordinates of random sign and magnitude from
1e-300 to 1e300, and again with coordinates whose text the reader can
check against the writer's spelling: 17-digit values from 1e-6 to 1e15
and decimals of 1 to 15 digits at any magnitude. COUNT (default 20 000)
times, seeded by SEED (default 0), it copies one of them and makes one
to three random byte edits: a replaced, inserted or deleted byte, nine
times in ten inside the number text. Each edited file is read by
``tokenio.tokens_from_json_bytes``, which takes the numpy reader where
the file is still in the writer's layout, and by
``tokenio._tokens_from_json_doc``, the ``json.loads`` path. The two must
give the same points and weights bit for bit, or raise the same error
class with the same message.

Each file is also read with ``keep_text``, which must give the same
outcome. A set that keeps its rows' text must be spliced from that text
by ``tokens_to_json_bytes(tokens, like)``, with its rows in order and
shuffled, to exactly the bytes the writer encodes. Then COUNT // 4
more files each take one near-canonical spelling of one of their values
that reads back to the same double (a 17th digit one off, an added
trailing zero, "1.50e+16", "1.5e16", "1.5E+16", "1e+016", "100.00",
"100", ...): read with ``keep_text``, such a file must give the same
bits and keep no text.

Prints the first file on which a check fails and exits 1; else prints
how many edited files each path read, failed or kept, and exits 0. Not
a pytest module: it runs as its own CI step.
"""

from __future__ import annotations

import re
import sys
import time

import numpy as np

from tokenmorph import TokenSet
from tokenmorph.tokenio import (
    _canonical_tokens,
    _spliced_points,
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


def near_spellings(x: float) -> set[bytes]:
    """Spellings of ``x`` and of its neighbours other than ``repr(x)``: more
    or fewer digits, a 17th digit one off, a trailing zero, and other
    exponent and point forms. Not all of them read back to ``x``."""
    text = repr(x)
    mantissa, _, exponent = text.partition("e")
    out = {f"{x:.{p}e}" for p in range(14, 19)} | {f"{x:.{p}g}" for p in range(15, 19)}
    out |= {text + "0", mantissa + "0" + ("e" + exponent if exponent else "")}
    if exponent:
        out |= {mantissa + "E" + exponent, mantissa + "e" + exponent.lstrip("+"),
                f"{mantissa}e{exponent[0]}0{exponent[1:]}"}
        if "." not in mantissa:
            out.add(f"{mantissa}.0e{exponent}")
        digits = mantissa.lstrip("-").replace(".", "")
        if len(digits) > 1:  # 1.23e+20 as 12.3e+19
            sign = "-" if x < 0 else ""
            out.add(f"{sign}{digits[:2]}.{digits[2:] or '0'}e{int(exponent) - 1:+03d}")
    elif text.endswith(".0"):
        out |= {text[:-2], f"{x:.1e}", text + "0"}
    head, _, tail = f"{x:.16e}".partition("e")
    for step in (-1, 1):
        if 0 <= int(head[-1]) + step <= 9:
            out.add(f"{head[:-1]}{int(head[-1]) + step}e{tail}")
    return {token.encode() for token in out} - {text.encode()}


def _spelled_points(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Coordinates whose text the reader checks: 17-digit values from 1e-6
    to 1e15, and decimals of 1 to 15 digits at any magnitude."""
    sign = rng.choice([-1.0, 1.0], size=shape)
    wide = sign * rng.uniform(1.0, 10.0, size=shape) * 10.0 ** rng.integers(-6, 15, size=shape)
    digits = rng.integers(1, 16, size=shape)
    short = [float(f"{x:.{p - 1}e}") for x, p in zip(
        (sign * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)).ravel().tolist(),
        digits.ravel().tolist())]
    return np.where(rng.random(shape) < 0.5, wide, np.reshape(short, shape))


def _base_files(rng: np.random.Generator) -> list[bytes]:
    """Canonical files of every shape, unweighted and weighted: coordinates
    from 1e-300 to 1e300, then coordinates whose text the reader checks."""
    files = []
    for spelled in (False, True):
        for n, d in SHAPES:
            for weighted in (False, True):
                if spelled:
                    points = _spelled_points(rng, (n, d))
                else:
                    sign = rng.choice([-1.0, 1.0], size=(n, d))
                    points = sign * 10.0 ** rng.uniform(-300.0, 300.0, size=(n, d))
                weights = rng.dirichlet(np.ones(n)) if weighted else None
                files.append(tokens_to_json_bytes(TokenSet(points, weights)))
    return files


def _keep_text(data: bytes) -> TokenSet:
    return tokens_from_json_bytes(data, keep_text=True)


def _keeps_text(tokens: TokenSet) -> bool:
    """Whether the writer splices ``tokens`` from its own kept text."""
    return _spliced_points(tokens.points, (tokens,)) is not None


def _splice_miss(rng: np.random.Generator, data: bytes) -> str | None:
    """Why ``data`` read with ``keep_text`` breaks the splice, or None:
    a set that keeps its rows' text must splice to the writer's bytes,
    with its rows in order and shuffled."""
    try:
        tokens = _keep_text(data)
    except Exception:
        return None
    if not _keeps_text(tokens):
        return None
    for order in (np.arange(tokens.n), rng.permutation(tokens.n)):
        shuffled = TokenSet(tokens.points[order], tokens.weights[order] / tokens.weights.sum())
        if _spliced_points(shuffled.points, (tokens,)) is None \
                or tokens_to_json_bytes(shuffled, (tokens,)) != tokens_to_json_bytes(shuffled):
            return "a set that keeps its rows' text splices to other bytes than the writer's"
    return None


def _near_canonical(rng: np.random.Generator, data: bytes) -> bytes | None:
    """``data`` with one number respelled as another spelling that reads
    back to the same double, or None if the one picked has none."""
    start = data.index(b"[[") + 2
    tokens = list(re.finditer(rb"[^\[\],]+", data[start:data.index(b"]]")]))
    token = tokens[int(rng.integers(len(tokens)))]
    x = float(token[0])
    same = sorted(t for t in near_spellings(x)
                  if np.float64(float(t)).tobytes() == np.float64(x).tobytes())
    if not same:
        return None
    pick = same[int(rng.integers(len(same)))]
    return data[:start + token.start()] + pick + data[start + token.end():]


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
    for b, data in enumerate(bases):
        if _keeps_text(_keep_text(data)) != (b >= len(bases) // 2):
            print(f"base file {b} keeps its rows' text: {b >= len(bases) // 2} expected")
            return 1
    by_kernel = by_loads = failed = kept = 0
    for k in range(count):
        b = int(rng.integers(len(bases)))
        data = _edit(rng, bases[b], number_at[b])
        read = _outcome(tokens_from_json_bytes, data)
        reference = _outcome(_tokens_from_json_doc, data)
        miss = None if read == reference else _difference(read, reference)
        if miss is None and _outcome(_keep_text, data) != read:
            miss = "a read with keep_text gives another outcome"
        miss = miss or _splice_miss(rng, data)
        if miss is not None:
            print(f"edit {k} of base file {b} (shape {SHAPES[b // 2 % len(SHAPES)]}): {miss}")
            print(f"file: {data!r}"[:4000])
            return 1
        if isinstance(read[0], str):
            failed += 1
        elif _canonical_tokens(data) is not None:
            by_kernel += 1
            kept += _keeps_text(_keep_text(data))
        else:
            by_loads += 1
    respelled = 0
    for k in range(count // 4):
        b = len(bases) // 2 + int(rng.integers(len(bases) // 2))
        data = _near_canonical(rng, bases[b])
        if data is None:
            continue
        respelled += 1
        tokens = _keep_text(data)
        if _outcome(_keep_text, data) != _outcome(tokens_from_json_bytes, bases[b]) \
                or _keeps_text(tokens):
            print(f"respelling {k} of base file {b}: reads other bits or keeps its text")
            print(f"file: {data!r}"[:4000])
            return 1
    print(f"{count} edited token files ({len(bases)} bases), seed {seed}: {by_kernel} read by "
          f"the numpy reader ({kept} keeping their text), {by_loads} by json.loads, {failed} "
          f"failed, each as json.loads reads it; {respelled} near-canonical respellings kept "
          f"no text ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
