"""Token-set file formats: JSON and the "BMT1" binary layout.

Both formats round-trip double precision losslessly. The binary layout
is: magic "BMT1", then n and d as 32-bit little-endian unsigned
integers, one weights-present byte, n*d float64 little-endian payload,
then (if present) n float64 weights, and nothing after them.
"""

from __future__ import annotations

import json
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
from .tokens import WEIGHT_SUM_TOL, TokenSet

MAGIC = b"BMT1"
FORMATS = ("json", "binary")

# Foreign files get a looser weight-sum gate than in-memory sets; sums
# inside it are renormalized exactly, beyond it the file is rejected.
_FILE_WEIGHT_SUM_TOL = 1e-9

# Arrays this large are written by the numpy kernel, smaller ones by
# json.dumps, whose fixed cost is lower: medians of 400 interleaved calls
# on n x 8 arrays took 0.51-0.53 ms against 0.71-0.74 ms at 1 024 values,
# about even near 600 and 0.30-0.50 ms against 0.18-0.19 ms at 128.
_KERNEL_MIN_VALUES = 1024


def tokens_to_json_bytes(tokens: TokenSet) -> bytes:
    """The JSON token file: the bytes of ``json.dumps`` of ``n``, ``d``,
    ``points.tolist()`` and, unless uniform, ``weights.tolist()``, with
    sorted keys and compact separators, plus a newline."""
    parts = [b'{"d":%d,"n":%d,"points":' % (tokens.m, tokens.n), _json_floats(tokens.points)]
    if not _is_exactly_uniform(tokens.weights):
        parts += [b',"weights":', _json_floats(tokens.weights)]
    parts.append(b"}\n")
    return b"".join(parts)


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


def tokens_from_json_bytes(data: bytes) -> TokenSet:
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
            np.frombuffer(data, dtype="<f8", count=n, offset=offset).copy(), n
        )
    return TokenSet(points.copy(), weights)


def write_tokens(tokens: TokenSet, path: str | Path, fmt: str = "json") -> None:
    """Serialize a token set to ``path`` in the given format."""
    if fmt not in FORMATS:
        raise FormatError(f"format must be one of {FORMATS}, got {fmt!r}")
    data = tokens_to_json_bytes(tokens) if fmt == "json" else tokens_to_binary_bytes(tokens)
    Path(path).write_bytes(data)


def read_tokens(path: str | Path) -> TokenSet:
    """Read a token set: binary if it starts with the magic bytes, else JSON."""
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        return tokens_from_binary_bytes(data)
    return tokens_from_json_bytes(data)


def _json_array(doc: dict, key: str, may_hold_bool: bool) -> np.ndarray:
    try:
        values = np.asarray(doc[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        # Ragged lists, strings, objects, and integers beyond float64.
        raise FormatError(f"{key!r} is not a rectangular array of float64 numbers") from None
    if may_hold_bool and _holds_bool(doc[key]):
        raise FormatError(
            f"{key!r} is not a rectangular array of float64 numbers: it holds a JSON true or false"
        )
    # json.loads reads NaN, Infinity and -Infinity (none of them JSON)
    # and turns float literals beyond float64, such as 1e400, into inf.
    if not np.isfinite(values).all():
        raise FormatError(f"{key!r} holds NaN, Infinity or a number beyond float64")
    return values


def _holds_bool(value) -> bool:
    """True if a JSON value, or any list nested in it, is a boolean.

    Only called on values np.asarray accepted, so the nesting depth is
    at most the array's number of dimensions.
    """
    if isinstance(value, list):
        return any(_holds_bool(item) for item in value)
    return isinstance(value, bool)


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
    return weights
