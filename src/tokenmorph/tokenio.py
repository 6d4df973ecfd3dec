"""Token-set file formats: JSON and the "BMT1" binary layout.

Both formats round-trip double precision losslessly. The binary layout
is: magic "BMT1", then n and d as 32-bit little-endian unsigned
integers, one weights-present byte, n*d float64 little-endian payload,
then (if present) n float64 weights, and nothing after them.

A JSON token file is written as ``json.dumps`` would write it, compact
with sorted keys, plus a newline; arrays of ``_KERNEL_MIN_VALUES``
values or more are spelled by ``_floatrepr``'s numpy writer. Files in
exactly that layout with at least as many points are read by
``_floatread``'s numpy reader, to the doubles ``json.loads`` gives.
Every other file, and every file the reader turns down (a token that is
not a strict JSON number, rows or a count that do not match n and d, a
number beyond float64), is read by ``json.loads``, which alone decides
its errors.

The writer spells each number by its bits alone, so a row's text is the
same in every file that holds that row. ``read_tokens(path,
keep_text=True)`` has the numpy reader also check that each number of
the points is spelled exactly as the writer spells it; a set that
passes keeps its row table: each row's bytes mapped to its text in the
file. ``tokens_to_json_bytes(tokens, like)`` is the one place that
splices or encodes: it joins the points from the table of the first set
in ``like`` that holds the first row, if it holds every row, and encodes
them otherwise, in the same bytes.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

from ._floatrepr import json_float_array
from .errors import (
    BadMagicError,
    FormatError,
    InvalidWeightsError,
    TruncatedPayloadError,
)
from .tokens import WEIGHT_SUM_TOL, TokenSet, holds_bool

MAGIC = b"BMT1"
FORMATS = ("json", "binary")

# Foreign files get a looser weight-sum gate than in-memory sets; sums
# inside it are renormalized exactly, beyond it the file is rejected.
_FILE_WEIGHT_SUM_TOL = 1e-9

# Arrays this large are written by the numpy kernel, smaller ones by
# json.dumps, and canonical files with this many points are read by the
# numpy kernel, smaller ones by json.loads: their fixed costs are lower.
# Medians of 400 interleaved calls on n x 8 arrays in two sessions:
# writes took 0.54-0.64 ms against 0.89-1.12 ms at 1 024 values, 0.48-0.51
# against 0.54-0.67 ms at 512 and 0.35 against 0.16-0.18 ms at 128; reads
# 0.65-0.70 ms against 0.63-0.65 ms at 1 024, about even.
_KERNEL_MIN_VALUES = 1024

# The writer's layout up to the first point; a canonical file then has
# its points' rows, "]]", optionally ',"weights":[' and the weights and
# "]", then "}" and a newline.
_CANONICAL_HEAD = re.compile(rb'\{"d":([1-9][0-9]*),"n":([1-9][0-9]*),"points":\[\[')


def tokens_to_json_bytes(tokens: TokenSet, like: tuple[TokenSet, ...] = ()) -> bytes:
    """The JSON token file: the bytes of ``json.dumps`` of ``n``, ``d``,
    ``points.tolist()`` and, unless uniform, ``weights.tolist()``, with
    sorted keys and compact separators, plus a newline.

    When every row of ``tokens`` is bitwise a row of one set in ``like``
    that kept its text (``read_tokens``'s ``keep_text``), the points are
    joined from those rows' text instead of encoded: the same bytes.
    """
    points = _spliced_points(tokens.points, like) or [_json_floats(tokens.points)]
    parts = [b'{"d":%d,"n":%d,"points":' % (tokens.m, tokens.n), *points]
    if not _is_exactly_uniform(tokens.weights):
        parts += [b',"weights":', _json_floats(tokens.weights)]
    parts.append(b"}\n")
    return b"".join(parts)


def _spliced_points(points: np.ndarray, like: tuple[TokenSet, ...]) -> list | None:
    """The points array's text as parts to join, each row's text taken
    from the first set in ``like`` whose row table holds the first row,
    or None if that set lacks a row or no set holds the first.
    """
    tables = [tokens._json_rows for tokens in like if tokens._json_rows is not None]
    if not tables:
        return None
    keys = _row_keys(points)
    rows = next((table for table in tables if keys[0] in table), None)
    if rows is None:
        return None
    parts = [b"],["] * (2 * len(keys) + 1)
    parts[0], parts[-1] = b"[[", b"]]"
    try:
        parts[1::2] = [rows[key] for key in keys]
    except KeyError:
        return None
    return parts


def _row_keys(points: np.ndarray) -> list[bytes]:
    """Each row's bytes."""
    points = np.ascontiguousarray(points)
    return points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel().tolist()


def _json_floats(values: np.ndarray) -> bytes:
    if values.size < _KERNEL_MIN_VALUES:
        return json.dumps(values.tolist(), separators=(",", ":")).encode()
    return json_float_array(values)


def tokens_to_binary_bytes(tokens: TokenSet) -> bytes:
    has_weights = not _is_exactly_uniform(tokens.weights)
    header = MAGIC + struct.pack("<IIB", tokens.n, tokens.m, 1 if has_weights else 0)
    payload = np.ascontiguousarray(tokens.points, dtype="<f8").tobytes()
    out = header + payload
    if has_weights:
        out += np.ascontiguousarray(tokens.weights, dtype="<f8").tobytes()
    return out


def tokens_from_json_bytes(data: bytes, keep_text: bool = False) -> TokenSet:
    """Read a JSON token file; see ``read_tokens`` for ``keep_text``."""
    tokens = _canonical_tokens(data, keep_text)
    if tokens is not None:
        return tokens
    return _tokens_from_json_doc(data)


def _canonical_tokens(data: bytes, keep_text: bool = False) -> TokenSet | None:
    """Read a file in the writer's layout with the numpy number kernel.

    None, for ``json.loads`` to read the file instead, when it has fewer
    than ``_KERNEL_MIN_VALUES`` points, is laid out otherwise, holds a
    token that is not a strict JSON number, has rows or a count that do
    not match n and d, or holds a number beyond float64. With
    ``keep_text``, a set whose every point the reader finds spelled as
    the writer spells it keeps its row table.
    """
    head = _CANONICAL_HEAD.match(data)
    if head is None:
        return None
    d, n = int(head[1]), int(head[2])
    if n * d < _KERNEL_MIN_VALUES:
        return None
    from ._floatread import json_numbers  # see _floatread on why not at the top

    if data.endswith(b"]]}\n"):
        close, weights = len(data) - 4, None
    elif data.endswith(b"]}\n"):
        close = data.rfind(b']],"weights":[', head.end())
        if close < 0:
            return None
        weights = json_numbers(data, close + 14, len(data) - 3)
        if weights is None or len(weights[0]) != n or np.count_nonzero(weights[1]) != 1:
            return None
    else:
        return None
    points = json_numbers(data, head.end(), close, keep_text)
    if points is None:
        return None
    values, row_ends, row_stops = points
    if len(values) != n * d or not np.array_equal(np.flatnonzero(row_ends),
                                                  np.arange(d - 1, n * d, d)):
        return None
    # In place, not a reshape view: the set adopts the reader's array.
    values.shape = (n, d)
    values.setflags(write=False)
    tokens = TokenSet(values, None if weights is None else _validate_file_weights(weights[0], n))
    if row_stops is not None:
        # Each row's text ends at its "]"; the next starts past "],[".
        stops, view = row_stops.tolist(), memoryview(data)
        starts = [head.end(), *(stop + 3 for stop in stops[:-1])]
        object.__setattr__(tokens, "_json_rows", dict(zip(
            _row_keys(tokens.points), [view[a:b] for a, b in zip(starts, stops)])))
    return tokens


def _tokens_from_json_doc(data: bytes) -> TokenSet:
    """Read any token JSON file with ``json.loads``."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        # Arrays nested about a thousand deep exhaust json.loads's recursion.
        raise FormatError("not valid token JSON: arrays nested too deep") from None
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    for key in ("n", "d", "points"):
        if key not in doc:
            raise FormatError(f"missing required key {key!r}")
    n, d = doc["n"], doc["d"]
    # bool is an int subclass, but a JSON true is not a count.
    if not (type(n) is int and type(d) is int and n >= 1 and d >= 1):
        raise FormatError(f"n and d must be positive integers, got n={n!r} d={d!r}")
    # np.asarray reads a JSON true/false as 1.0/0.0. Only a file that
    # spells one out can hold one, so the others skip the scan for it.
    spells_bool = b"true" in data or b"false" in data
    points = _json_array(doc, "points", spells_bool)
    if points.shape != (n, d):
        raise TruncatedPayloadError(
            f"points payload has shape {points.shape}, expected ({n}, {d})"
        )
    weights = None
    if "weights" in doc:
        weights = _validate_file_weights(_json_array(doc, "weights", spells_bool), n)
    return TokenSet(points, weights)


def tokens_from_binary_bytes(data: bytes) -> TokenSet:
    if len(data) < 4:
        raise TruncatedPayloadError("file shorter than the 4-byte magic")
    if data[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, got {data[:4]!r}")
    if len(data) < 13:
        raise TruncatedPayloadError("file ends inside the header")
    n, d, flag = struct.unpack("<IIB", data[4:13])
    if n < 1 or d < 1:
        raise FormatError(f"header declares n={n}, d={d}; both must be >= 1")
    if flag not in (0, 1):
        raise FormatError(f"weights-present byte must be 0 or 1, got {flag}")
    need = 13 + 8 * n * d + (8 * n if flag else 0)
    if len(data) < need:
        raise TruncatedPayloadError(
            f"file has {len(data)} bytes but the header requires {need}"
        )
    if len(data) > need:
        raise FormatError(
            f"file has {len(data)} bytes but the header declares {need}: trailing bytes"
        )
    offset = 13
    points = np.frombuffer(data, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    if not np.isfinite(points).all():
        raise FormatError("points payload holds NaN, Infinity or -Infinity")
    offset += 8 * n * d
    weights = None
    if flag:
        weights = _validate_file_weights(
            np.frombuffer(data, dtype="<f8", count=n, offset=offset), n
        )
    # Views of ``data``: the set copies each exactly once.
    return TokenSet(points, weights)


def write_tokens(tokens: TokenSet, path: str | Path, fmt: str = "json") -> None:
    """Serialize a token set to ``path`` in the given format."""
    if fmt not in FORMATS:
        raise FormatError(f"format must be one of {FORMATS}, got {fmt!r}")
    data = tokens_to_json_bytes(tokens) if fmt == "json" else tokens_to_binary_bytes(tokens)
    Path(path).write_bytes(data)


def read_tokens(path: str | Path, keep_text: bool = False) -> TokenSet:
    """Read a token set: binary if it starts with the magic bytes, else JSON.

    With ``keep_text``, a JSON file that the numpy reader reads also has
    each number checked against the writer's spelling, and a set whose
    every point passes keeps its row table, for ``tokens_to_json_bytes``'s
    ``like``.
    """
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        return tokens_from_binary_bytes(data)
    return tokens_from_json_bytes(data, keep_text)


def _json_array(doc: dict, key: str, may_hold_bool: bool) -> np.ndarray:
    try:
        values = np.asarray(doc[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        # Ragged lists, strings, objects, and integers beyond float64.
        raise FormatError(f"{key!r} is not a rectangular array of float64 numbers") from None
    if may_hold_bool and holds_bool(doc[key]):
        raise FormatError(
            f"{key!r} is not a rectangular array of float64 numbers: it holds a JSON true or false"
        )
    # json.loads reads NaN, Infinity and -Infinity (none of them JSON)
    # and turns float literals beyond float64, such as 1e400, into inf.
    if not np.isfinite(values).all():
        raise FormatError(f"{key!r} holds NaN, Infinity or a number beyond float64")
    values.setflags(write=False)
    return values


def _is_exactly_uniform(weights: np.ndarray) -> bool:
    n = weights.shape[0]
    return bool(np.array_equal(weights, np.full(n, 1.0 / n)))


def _validate_file_weights(weights: np.ndarray, n: int) -> np.ndarray:
    if weights.shape != (n,):
        raise TruncatedPayloadError(
            f"weights payload has shape {weights.shape}, expected ({n},)"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise InvalidWeightsError("file weights must be finite and strictly positive")
    total = float(weights.sum())
    if abs(total - 1.0) > _FILE_WEIGHT_SUM_TOL:
        raise InvalidWeightsError(
            f"file weights must sum to 1 within {_FILE_WEIGHT_SUM_TOL}, got {total!r}"
        )
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        weights = weights / total
    weights.setflags(write=False)
    return weights
