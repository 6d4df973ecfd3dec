"""JSON numbers read to float64 as ``float()`` reads them, in numpy.

``json.loads`` reads each number with ``float()``, about 1 us of CPython
per value. ``json_numbers`` reads a run of them to the same doubles
with no per-value Python, in blocks of about 64 KiB:

- Tokens: ``bytes.translate`` codes every byte; each point, sign and e
  is checked against strict JSON number grammar from its own code and
  its neighbours'. With its points removed (``bytes.replace``) the text
  is a digit stream, and each mantissa of up to 19 digits is read from
  three unaligned 8-byte windows ending at it, masked to its own digits
  and combined eight digits at a time (SWAR).
- Values ``w * 10**q``: Clinger's exact path ("How to read floating
  point numbers accurately", PLDI 1990) when ``w < 2**53`` and
  ``|q| <= 22``, one correctly rounded multiply or divide. Otherwise, as
  in Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
  2021), ``w`` times the top 64 bits of ``_floatrepr``'s 126-bit power
  of ten: the result stands when every value that the truncated power
  allows rounds the same way, which fails about once in 2**10.
- Those failures, mantissas of more than 19 digits, exponents of more
  than 8 digits and subnormal or overflowing results are read by
  ``float()``, one token each.

The tokenio reader imports this module on first use: without cached
bytecode, compiling it would add about 4 ms to every start of the CLI.
"""

from __future__ import annotations

import numpy as np

from ._floatrepr import _G0, _G1, _K_MAX, _K_MIN, _U, _mulhi

# Bytes of text per block. Interleaved reads of a 512 x 64 blob file,
# medians of 60, 2 vCPUs: 19.7 ms in blocks of 32 KiB (tracemalloc peak
# 0.65 MiB), 15.5 ms at 64 KiB (1.00 MiB), 13.7 ms at 128 KiB (1.70 MiB);
# json.loads and np.asarray took 22.7 ms (1.64 MiB).
_READ_BLOCK = 1 << 16

# Byte codes for bytes.translate, 0 for digits: bits 4-6 say what a
# byte is (1 ",", 2 ";", 3 ".", 4 "-", 5 "+", 6 "e" or "E", 7 else),
# bits 2-3 what it is as the byte before another (0 digit, 1 separator,
# 2 e, 3 else), bits 0-1 what it is as the byte after one (0 digit,
# 1 sign, 2 else).
_CODE = bytes(0 if 48 <= b <= 57 else
              {44: 0x16, 59: 0x26, 46: 0x3E, 45: 0x4D, 43: 0x5D, 101: 0x6A, 69: 0x6A}.get(b, 0x7E)
              for b in range(256))
_SEMICOLON, _POINT, _MINUS, _E = 0x26, 0x3E, 0x4D, 0x6A
# Where strict JSON number grammar allows a point, sign or e, by its
# bits 4-6 and the before and after bits of its neighbours: a point
# between digits, a "-" that starts a token or follows an e, a "+" after
# an e, an e after a digit and before a digit or sign. Every token then
# ends in a digit, since the text ends in a separator.
_ALLOWED = np.zeros(128, dtype=bool)
_ALLOWED[[0x30, 0x44, 0x48, 0x58, 0x60, 0x61]] = True
_LOW_NIBBLES = _U(0x0F0F0F0F0F0F0F0F)
# Zero digits ahead of the digit stream, so that every mantissa's three
# windows start inside the stream.
_PAD = 24
# Every 10**k that is an exact double; Clinger's path needs no other.
_EXACT_POW10 = np.array([float(10 ** k) for k in range(23)])
# Masks of a mantissa's windows by its digit count (at most 19). Window
# j (0-2) ends 8 * (2 - j) digits before the mantissa ends and keeps the
# low nibble of its last min(8, max(0, count - 8 * (2 - j))) bytes.
_kept = np.clip(np.arange(20)[:, None] - np.array([16, 8, 0]), 0, 8)
_WINDOW_MASK = _LOW_NIBBLES << (8 * (8 - _kept)).astype(np.uint64)
del _kept


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The values of little-endian words of eight digits 0-9, one a byte,
    computed in place."""
    v *= _U(10 * 256 + 1)
    v >>= _U(8)
    v &= _U(0x00FF00FF00FF00FF)
    v *= _U(100 * 65536 + 1)
    v >>= _U(16)
    v &= _U(0x0000FFFF0000FFFF)
    v *= _U(10000 * (1 << 32) + 1)
    v >>= _U(32)
    return v


def json_numbers(text: bytes, start: int, stop: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read the JSON numbers in ``text[start:stop]``, separated by ``,``,
    or by ``],[`` where one row of a 2-D array ends and the next begins.

    Returns each number's double, exactly as ``float()`` of its token
    reads it except that an integer token ``-0`` reads as ``+0.0`` (as
    ``float(int(token))``), and whether a row ends after it (always
    after the last). Returns None if a token is not a strict JSON number
    (``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?``), reads as an
    infinity, or is separated otherwise.

    The text is read in blocks of about ``_READ_BLOCK`` bytes, cut at a
    ``,`` between two numbers, so that temporaries stay small.
    """
    values, row_ends = [], []
    while True:
        cut = stop
        if start + _READ_BLOCK < stop:
            cut = text.find(b",", start + _READ_BLOCK, stop)
            while cut > 0 and text[cut - 1] == ord("]"):
                cut = text.find(b",", cut + 1, stop)
            cut = stop if cut < 0 else cut
        block = text[start:cut]
        # Rows end in ";" and every other number in ","; a ";" in the
        # text itself is no JSON.
        read = None if b";" in block else _read_block(block.replace(b"],[", b";") + b",")
        if read is None:
            return None
        values.append(read[0])
        row_ends.append(read[1])
        if cut == stop:
            break
        start = cut + 1
    row_ends[-1][-1] = True
    return np.concatenate(values), np.concatenate(row_ends)


def _read_block(text: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """``json_numbers`` on ``text``, JSON numbers each followed by one
    ``,`` or ``;``: the values, and whether each is followed by ``;``."""
    layout = _layout(text)
    if layout is None:
        return None
    bounds, row_ends, neg, first, last, ends, nfrac, exp_at = layout
    stream = b"0" * _PAD + text.replace(b".", b"")
    size = last - first
    # A leading zero before a digit.
    if ((np.frombuffer(stream, dtype=np.uint8)[first] == ord("0")) & (size - nfrac > 1)).any():
        return None
    windows = np.ndarray((len(stream) - 23, 3), dtype="<u8", buffer=stream, strides=(1, 8))
    v = windows[last - 24]
    v &= _WINDOW_MASK.take(size, axis=0, mode="clip")
    v = _eight_digits(v)
    w = v[:, 0] * _U(10 ** 16)
    w += v[:, 1] * _U(10 ** 8)
    w += v[:, 2]
    q = -nfrac
    fallback = size > 19
    if len(exp_at):
        e_tok, e_at, minus, n_exp = exp_at.T
        fallback[e_tok[n_exp > 8]] = True
        keep = _LOW_NIBBLES << (8 * np.maximum(8 - n_exp, 0)).astype(np.uint64)
        words = np.ndarray((len(stream) - 7,), dtype="<u8", buffer=stream, strides=(1,))
        exp = _eight_digits(words[ends[e_tok] - 8] & keep).astype(np.int64)
        q[e_tok] += np.where(minus == 1, -exp, exp)

    # Clinger: both operands exact, one rounding.
    out = w.astype(np.float64)
    out *= _EXACT_POW10.take(q, mode="clip")
    out /= _EXACT_POW10.take(-q, mode="clip")
    rest = np.flatnonzero(~fallback & ((w >= _U(1 << 53)) | (q < -22) | (q > 22)))
    if len(rest):
        bits, certified = _scaled(w[rest], q[rest])
        out[rest] = bits.view(np.float64)
        fallback[rest[~certified]] = True
    zero = np.flatnonzero(w == 0)
    if len(zero):
        out[zero] = 0.0
        # A JSON integer -0 is int 0, which reads as +0.0.
        neg[zero[(last[zero] == ends[zero]) & (nfrac[zero] == 0)]] = False
    out.view(np.uint64)[:] |= neg.astype(np.uint64) << _U(63)
    for t in np.flatnonzero(fallback).tolist():
        value = float(text[bounds[t - 1] + 1 if t else 0:bounds[t]])
        if value in (np.inf, -np.inf):
            return None
        out[t] = value
    return out, row_ends


def _layout(text: bytes):
    """Where each token's parts lie, or None if one breaks the grammar.

    Returns the tokens' separator offsets in ``text``, whether each is
    ";", and per token its sign, the digit stream offsets of its
    mantissa's first digit and end and of its separator, its fraction
    digits, and one row (token, e offset, exponent sign is "-", exponent
    digits) per token with an e. The digit stream is the text without
    its points, after _PAD zeros.
    """
    c = np.frombuffer(text.translate(_CODE), dtype=np.uint8)
    special = np.flatnonzero(c != 0)
    kind = c[special]
    is_sep = kind < 0x30
    sep_at = np.flatnonzero(is_sep)
    other = np.flatnonzero(~is_sep)
    pos, k = special[other], kind[other]
    before = c[pos - 1]  # c[-1] is the last separator
    if not _ALLOWED[(k & 0x70) | (before & 0x0C) | (c[pos + 1] & 0x03)].all():
        return None
    tok = other - np.arange(len(other))  # the token of each point, sign and e
    is_dot, is_e = k == _POINT, k == _E
    dot_tok, e_tok = tok[is_dot], tok[is_e]
    if (dot_tok[1:] == dot_tok[:-1]).any() or (e_tok[1:] == e_tok[:-1]).any():
        return None

    # A mantissa runs from its token's first digit to its e or
    # separator; its point, if any, is nfrac digits before that end.
    count = len(sep_at)
    at = special - np.cumsum(kind == _POINT) + _PAD
    ends = at[sep_at]
    neg = np.zeros(count, dtype=bool)
    neg[tok[(k == _MINUS) & ((before & 0x0C) == 0x04)]] = True
    first = np.empty(count, dtype=np.int64)
    first[0] = _PAD
    first[1:] = ends[:-1] + 1
    first += neg
    last = ends.copy()
    e_at = at[other[is_e]]
    last[e_tok] = e_at
    nfrac = np.zeros(count, dtype=np.int64)
    nfrac[dot_tok] = last[dot_tok] - at[other[is_dot]] - 1
    # An empty token, or a point after the e.
    if (last <= first).any() or (nfrac < 0).any():
        return None
    sign = c[pos[is_e] + 1] & 0x03  # 1 for "+" or "-"
    exp_at = np.stack([e_tok, e_at, c[pos[is_e] + 1] == _MINUS, ends[e_tok] - e_at - 1 - sign],
                      axis=1)
    return special[sep_at], kind[sep_at] == _SEMICOLON, neg, first, last, ends, nfrac, exp_at


def _scaled(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The IEEE bits of ``w * 10**q`` rounded to nearest, even on ties, for
    ``0 < w < 2**64``, and whether each is certified: normal, and
    rounded as the exact value would be.

    As in Eisel-Lemire: ``w`` shifted to ``wn`` with its top bit set
    times ``g``, the top 64 bits of the table's 126-bit value for 10**q
    (10**q = T 2**r with T within [g 2**62 - 1, (g + 1) 2**62)), gives
    ``P = wn * g``, and ``wn * T / 2**62`` lies in [P - 4, P + wn). With
    2**73 or more between the rounding's midpoints, the rounding of P
    stands unless one of them lies in that interval, about once in 2**10.
    """
    valid = (q >= -_K_MAX) & (q <= -_K_MIN)
    # r = bit_length(10**q) - 126 = floor(q log2 10) - 125, for either sign of q.
    r = ((q * 217706) >> 16) - 125
    k = -q - _K_MIN
    g = (_G1.take(k, mode="clip") << _U(1)) | (_G0.take(k, mode="clip") >> _U(62))
    # float(w) can round up to the next power of two: then shift once more.
    lz = _U(1086) - (w.astype(np.float64).view(np.uint64) >> _U(52))
    wn = w << lz
    short = (wn >> _U(63)) ^ _U(1)
    wn <<= short
    lz += short
    hi, lo = _mulhi(wn, g), wn * g
    # 2**126 <= P < 2**128: hi's top 54 bits are the significand and the
    # rounding bit, at bit 64 + s of P.
    s = _U(9) + (hi >> _U(63))
    top = hi >> s
    half = top & _U(1)
    below = hi & ((_U(1) << s) - _U(1))
    straddles = np.where(half == 0, (below == (_U(1) << s) - _U(1)) & (lo >= ~wn),
                         (below == 0) & (lo <= 4))
    significand = (top >> _U(1)) + half
    carry = significand >> _U(53)
    significand >>= carry
    biased = (s + carry).astype(np.int64) + r - lz.astype(np.int64) + 127 + 1075
    certified = valid & ~straddles & (biased >= 1) & (biased <= 2046)
    bits = (biased.astype(np.uint64) << _U(52)) | (significand & _U((1 << 52) - 1))
    return bits, certified
