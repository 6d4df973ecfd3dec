"""JSON numbers read to float64 as ``float()`` reads them, in numpy.

``json.loads`` reads each number with ``float()``, about 1 us of CPython
per value. ``json_numbers`` reads a run of them to the same doubles
with no per-value Python, in blocks of about 64 KiB:

- Tokens: ``bytes.translate`` codes every byte, each digit as its
  value; each bracket, point, sign and e is checked against strict JSON
  number grammar from its own code and its neighbours'. With its points
  removed (``bytes.replace``) the coded text is a digit stream, and each
  mantissa of up to 19 digits is read from three unaligned 8-byte
  windows ending at it, masked to its own digits and combined eight
  digits at a time (SWAR).
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

from ._floatrepr import _G0, _G1, _K_MAX, _K_MIN, _M32, _U

# Bytes of text per block. Interleaved reads of a 512 x 64 blob file,
# medians of 60 in two sessions, 2 vCPUs: 12.4-16.4 ms in blocks of 32 KiB
# (tracemalloc peak 0.65 MiB), 9.7-12.3 ms at 64 KiB (1.00 MiB), 8.6-10.8
# ms at 128 KiB (1.70 MiB); json.loads and np.asarray took 13.4-18.5 ms.
_READ_BLOCK = 1 << 16

# Byte codes for bytes.translate. A digit codes as its value 0-9, so
# that the coded text without its points is a digit stream. Every other
# byte codes as 0x40 or more: bits 6-7 say what it is as the byte before
# another (0 digit, 1 separator, 2 e, 3 else), bits 4-5 what it is as the
# byte after one (0 digit, 1 sign, 2 else), bits 0-3 what it is (1 ",",
# 2 "]", 3 ".", 4 "-", 5 "+", 6 "e" or "E", 7 else, 8 "[").
_CODE = bytes(b - 48 if 48 <= b <= 57 else
              {44: 0x61, 93: 0xE2, 46: 0xE3, 45: 0xD4, 43: 0xD5, 101: 0xA6, 69: 0xA6,
               91: 0x68}.get(b, 0xE7) for b in range(256))
_COMMA, _CLOSE, _POINT, _MINUS, _E, _OPEN = 0x61, 0xE2, 0xE3, 0xD4, 0xA6, 0x68
# A coded token back to text that float() reads as it read the original.
_DECODE = bytes.maketrans(bytes([*range(10), _POINT, _MINUS, 0xD5, _E]), b"0123456789.-+e")
_BRACKETS = bytes([_CLOSE, _OPEN])
# Where strict JSON number grammar allows a bracket, point, sign or e, by
# its bits 0-3 and the before and after bits of its neighbours: a "]"
# after a digit and before a separator, a "[" after a separator and
# before a digit or sign, a point between digits, a "-" that starts a
# token or follows an e, a "+" after an e, an e after a digit and before
# a digit or sign. Every token then ends in a digit, since the text ends
# in a separator.
_ALLOWED = np.zeros(256, dtype=bool)
_ALLOWED[[0x22, 0x48, 0x58, 0x03, 0x44, 0x84, 0x85, 0x06, 0x16]] = True
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


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (m2 >> _U(32)) + (mid >> _U(32))


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
        read = _read_block(text[start:cut] + b",")
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
    """``json_numbers`` on ``text``, JSON numbers each followed by ``,``
    or ``],[``, then by a final ``,``: the values, and whether a row ends
    after each."""
    coded = text.translate(_CODE)
    layout = _layout(coded)
    if layout is None:
        return None
    bounds, row_ends, first, last, ends, nfrac, exp_at = layout
    stream = b"\0" * _PAD + coded.replace(bytes([_POINT]), b"")
    digits = np.frombuffer(stream, dtype=np.uint8)
    neg = digits.take(first) == _MINUS
    first += neg
    size = last - first
    # A leading zero before a digit.
    if ((digits.take(first) == 0) & (size - nfrac > 1)).any():
        return None
    # Each mantissa's three windows as one 24-byte item.
    windows = np.ndarray((len(stream) - 23,), dtype="V24", buffer=stream, strides=(1,))
    v = windows[last - 24].view("<u8").reshape(-1, 3)
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
        value = float(coded[bounds[t - 1] + 1 if t else 0:bounds[t]].translate(_DECODE, _BRACKETS))
        if value in (np.inf, -np.inf):
            return None
        out[t] = value
    return out, row_ends


def _layout(coded: bytes):
    """Where each token's parts lie, or None if one breaks the grammar.

    Returns the tokens' separator offsets in the coded text, whether a
    row ends after each, and per token the digit stream offsets of its
    first byte, of its mantissa's end and of its own end, its fraction
    digits, and one row (token, e offset, exponent sign is "-", exponent
    digits) per token with an e. The digit stream is the coded text
    without its points, after _PAD zeros.
    """
    c = np.frombuffer(coded, dtype=np.uint8)
    special = np.flatnonzero(c > 9)
    kind = c.take(special)
    is_sep = kind == _COMMA
    sep_at = np.flatnonzero(is_sep)
    other = np.flatnonzero(~is_sep)
    pos, k = special.take(other), kind.take(other)
    # c[-1] is the last separator.
    context = c.take(pos - 1) & 0xC0
    context |= c.take(pos + 1) & 0x30
    context |= k & 0x0F
    if not _ALLOWED.take(context).all():
        return None
    tok = other - np.arange(len(other))  # the token of each bracket, point, sign and e
    dots, es = np.flatnonzero(k == _POINT), np.flatnonzero(k == _E)
    dot_tok, e_tok = tok.take(dots), tok.take(es)
    # Rows end at "],[": each "]" is followed by the "[" two bytes on.
    closes, opens = np.flatnonzero(k == _CLOSE), np.flatnonzero(k == _OPEN)
    if (len(closes) != len(opens) or (pos.take(opens) != pos.take(closes) + 2).any()
            or (dot_tok[1:] == dot_tok[:-1]).any() or (e_tok[1:] == e_tok[:-1]).any()):
        return None

    # A mantissa runs from its token's first digit to its e or the end of
    # the token; its point, if any, is nfrac digits before that end.
    count = len(sep_at)
    bounds = special.take(sep_at)
    # A byte's stream offset is its coded offset less the points before
    # it, plus _PAD; shift counts a token's point as before its e and its
    # end (a point after the e then gives nfrac < 0).
    shift = np.zeros(count, dtype=np.int64)
    shift[dot_tok] = 1
    shift = np.cumsum(shift) - _PAD
    ends = bounds - shift
    first = np.empty(count, dtype=np.int64)
    first[0] = _PAD
    first[1:] = ends[:-1] + 1
    # A row's last token ends at its "]", and the next one starts after "[".
    row_end = tok.take(closes)
    ends[row_end] -= 1
    first[row_end + 1] += 1
    row_ends = np.zeros(count, dtype=bool)
    row_ends[row_end] = True
    last = ends.copy()
    e_at = pos.take(es) - shift.take(e_tok)
    last[e_tok] = e_at
    nfrac = np.zeros(count, dtype=np.int64)
    nfrac[dot_tok] = last.take(dot_tok) - (pos.take(dots) - shift.take(dot_tok)) - 1
    # An empty token, or a point after the e.
    if (last <= first).any() or (nfrac < 0).any():
        return None
    after_e = c.take(pos.take(es) + 1)
    sign = (after_e & 0x30) >> 4  # 1 for "+" or "-"
    exp_at = np.stack([e_tok, e_at, after_e == _MINUS, ends.take(e_tok) - e_at - 1 - sign], axis=1)
    return bounds, row_ends, first, last, ends, nfrac, exp_at


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
