"""JSON numbers read to float64 as ``float()`` reads them, in numpy.

``json.loads`` reads each number with ``float()``, about 1 us of CPython
per value. ``json_numbers`` reads a run of them to the same doubles
with no per-value Python, in blocks of about 128 KiB:

- Tokens: ``bytes.translate`` codes every byte, each digit as its
  value; each bracket, point, sign and e is checked against strict JSON
  number grammar from its own code and its neighbours'. With its points
  removed (``bytes.replace``) the coded text is a digit stream, and each
  mantissa of up to 24 digits is read from three unaligned 8-byte
  windows ending at it, masked to its own digits and combined eight
  digits at a time (SWAR).
- Values ``w * 10**q``: Clinger's exact path ("How to read floating
  point numbers accurately", PLDI 1990) when ``w < 2**53`` and
  ``|q| <= 22``, one correctly rounded multiply or divide. Otherwise, as
  in Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
  2021), ``w`` times the top 64 bits of ``_floatrepr``'s 126-bit power
  of ten: the result stands when every value that the truncated power
  allows rounds the same way, which fails about once in 2**10.
- Those failures, mantissas of more than 19 significant digits or more
  than 24 digits, exponents of more than 8 digits and subnormal or
  overflowing results are read by ``float()`` from the text, one token
  each.

Each block's arrays are freed at their last use, and most of its
arithmetic runs in place: its temporaries peak at about 5 bytes per
byte of text.

The tokenio reader imports this module on first use: without cached
bytecode, compiling it would add about 4 ms to every start of the CLI.
"""

from __future__ import annotations

import numpy as np

from ._floatrepr import _G0, _G1, _K_MAX, _K_MIN, _M32, _U

# Bytes of text per block. Reads of a 512 x 64 normal file in fresh
# processes, medians of 150 in four alternating rounds, 2 vCPUs: 9.8-10.4
# ms in blocks of 64 KiB (tracemalloc peak 0.60 MB, that of the final
# concatenation), 8.2-8.7 ms at 128 KiB (0.89 MB; no minor page fault in
# a warm read), 9.3-9.9 ms at 256 KiB (1.54 MB), where glibc trims the
# heap top after each read and about 650 minor page faults a read bring
# it back. 192 KiB would peak at 1.25 MB, over the bound of
# tests/test_io.py's TestKernelPeaks.
_READ_BLOCK = 1 << 17

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
# Masks of a mantissa's windows by its digit count (at most 24). Window
# j (0-2) ends 8 * (2 - j) digits before the mantissa ends and keeps the
# low nibble of its last min(8, max(0, count - 8 * (2 - j))) bytes.
_kept = np.clip(np.arange(25)[:, None] - np.array([16, 8, 0]), 0, 8)
_WINDOW_MASK = _LOW_NIBBLES << (8 * (8 - _kept)).astype(np.uint64)
del _kept


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products a * b. Overwrites b."""
    a0, a1, b1 = a & _M32, a >> _U(32), b >> _U(32)
    b &= _M32
    lo = a0 * b
    b *= a1
    a0 *= b1
    a1 *= b1
    # The middle column: a1 b0, plus lo's high half and a0 b1's low half,
    # stays below 2**64.
    np.right_shift(lo, _U(32), out=b1)
    b += b1
    np.bitwise_and(a0, _M32, out=b1)
    b += b1
    lo &= _M32
    np.left_shift(b, _U(32), out=b1)
    lo |= b1
    b >>= _U(32)
    a0 >>= _U(32)
    a1 += b
    a1 += a0
    return a1, lo


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
        read = _read_block(text, start, cut)
        if read is None:
            return None
        values.append(read[0])
        row_ends.append(read[1])
        if cut == stop:
            break
        start = cut + 1
    row_ends[-1][-1] = True
    return np.concatenate(values), np.concatenate(row_ends)


def _read_block(text: bytes, start: int, stop: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``json_numbers`` on one block ``text[start:stop]``, JSON numbers each
    followed by ``,`` or ``],[`` but the last: the values, and whether a
    row ends after each."""
    # Every token ends at a separator: a block cut at a comma takes it along.
    block = text[start:stop + 1] if text[stop:stop + 1] == b"," else text[start:stop] + b","
    coded = block.translate(_CODE)
    del block
    stream = bytes(_PAD) + coded.replace(bytes([_POINT]), b"")
    layout = _layout(coded)
    del coded
    if layout is None:
        return None
    bounds, row_ends, first, last, q, (e_tok, e_end, minus, n_exp) = layout
    del layout
    digits = np.frombuffer(stream, dtype=np.uint8, offset=_PAD)
    neg = digits.take(first) == _MINUS
    first += neg
    zero = digits.take(first) == 0
    size = np.subtract(last, first, out=first)
    del first
    # A leading zero before a digit (size + q is the count of integer digits).
    if (zero & (size + q > 1)).any():
        return None
    # A JSON integer -0 is int 0, which reads as +0.0.
    zero &= size == 1
    zero[e_tok] = False
    neg &= ~zero
    del zero
    fallback = size > 24
    # Each mantissa's three windows as one 24-byte item: item i of the
    # stream ends at stream offset i.
    windows = np.ndarray((len(stream) - 23,), dtype="V24", buffer=stream, strides=(1,))
    # Word i holds the eight stream bytes before stream offset i.
    words = np.ndarray((len(stream) - 23,), dtype="<u8", buffer=stream, offset=16, strides=(1,))
    v = windows[last].view("<u8").reshape(-1, 3)
    del last
    v &= _WINDOW_MASK.take(size, axis=0, mode="clip")
    del size
    v = _eight_digits(v)
    # More than 19 significant digits, or w >= 10**19.
    fallback |= v[:, 0] >= 1000
    w = v[:, 0] * _U(10 ** 16)
    middle = v[:, 1]
    middle *= _U(10 ** 8)
    w += middle
    w += v[:, 2]
    del v, middle
    if len(e_tok):
        fallback[e_tok[n_exp > 8]] = True
        keep = _LOW_NIBBLES << (8 * np.maximum(8 - n_exp, 0)).astype(np.uint64)
        e = _eight_digits(words[e_end] & keep).astype(np.int64)
        q[e_tok] += np.where(minus, -e, e)
    del stream, digits, windows, words

    # Clinger: both operands exact, one rounding. A zero is exact at any q.
    out = w.astype(np.float64)
    out *= _EXACT_POW10.take(q, mode="clip")
    out /= _EXACT_POW10.take(-q, mode="clip")
    rest = np.flatnonzero(((w >= _U(1 << 53)) | (q < -22) | (q > 22)) & (w != 0))
    if len(rest):
        bits, certified = _scaled(w.take(rest), q.take(rest))
        out[rest] = bits.view(np.float64)
        fallback[rest[~certified]] = True
    out.view(np.uint64)[:] |= np.left_shift(neg, _U(63), dtype=np.uint64)
    for t in np.flatnonzero(fallback).tolist():
        token = text[start + (int(bounds[t - 1]) + 1 if t else 0):start + int(bounds[t])]
        value = float(token.translate(None, b"[]"))
        if value in (np.inf, -np.inf):
            return None
        out[t] = value
    return out, row_ends


def _layout(coded: bytes):
    """Where each token's parts lie, or None if one breaks the grammar.

    Returns per token its separator's offset in the coded text, whether
    a row ends after it, the stream offsets of its first byte and of its
    mantissa's end, and q, minus its fraction digits; and one row (token,
    stream offset of its end, exponent sign is "-", exponent digits) per
    token with an e. A byte's stream offset is its coded offset less the
    points before it: its index in the digit stream less _PAD.
    """
    c = np.frombuffer(coded, dtype=np.uint8)
    special = np.flatnonzero(c > 9)
    kind = c.take(special)
    is_sep = kind == _COMMA
    bounds = special.take(np.flatnonzero(is_sep))
    other = np.flatnonzero(~is_sep)
    pos, k = special.take(other), kind.take(other)
    del special, kind, is_sep
    # c[-1] is the last separator.
    context = c.take(pos - 1) & 0xC0
    context |= c.take(pos + 1) & 0x30
    context |= k & 0x0F
    if not _ALLOWED.take(context).all():
        return None
    # The token of each bracket, point, sign and e.
    tok = np.subtract(other, np.arange(len(other)), out=other)
    dots, es = np.flatnonzero(k == _POINT), np.flatnonzero(k == _E)
    dot_tok, e_tok = tok.take(dots), tok.take(es)
    # Rows end at "],[": each "]" is followed by the "[" two bytes on.
    closes, opens = np.flatnonzero(k == _CLOSE), np.flatnonzero(k == _OPEN)
    if (len(closes) != len(opens) or (pos.take(opens) != pos.take(closes) + 2).any()
            or (dot_tok[1:] == dot_tok[:-1]).any() or (e_tok[1:] == e_tok[:-1]).any()):
        return None
    row_end = tok.take(closes)
    # The j-th point lies at stream offset (its coded offset) - j, where
    # its token's first fraction digit lands.
    dot_at = pos.take(dots)
    dot_at -= np.arange(len(dots))
    e_at = pos.take(es)
    after_e = c.take(e_at + 1)
    del other, tok, pos, k, dots

    # A mantissa runs from its token's first digit to its e or the end of
    # the token. shift counts a token's point as before its e and its end
    # (a point after the e then gives q > 0).
    count = len(bounds)
    shift = np.zeros(count, dtype=np.int64)
    shift[dot_tok] = 1
    np.cumsum(shift, out=shift)
    ends = bounds - shift
    e_at -= shift.take(e_tok)
    del shift
    first = np.empty(count, dtype=np.int64)
    first[0] = 0
    np.add(ends[:-1], 1, out=first[1:])
    # A row's last token ends at its "]", and the next one starts after "[".
    ends[row_end] -= 1
    first[row_end + 1] += 1
    row_ends = np.zeros(count, dtype=bool)
    row_ends[row_end] = True
    e_end = ends.take(e_tok)
    last = ends
    del ends
    last[e_tok] = e_at
    q = np.zeros(count, dtype=np.int64)
    dot_at -= last.take(dot_tok)
    q[dot_tok] = dot_at
    # An empty token, or a point after the e.
    if (last <= first).any() or (q > 0).any():
        return None
    sign = (after_e & 0x30) >> 4  # 1 for "+" or "-"
    return bounds, row_ends, first, last, q, (e_tok, e_end, after_e == _MINUS, e_end - e_at - 1 - sign)


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
    Overwrites ``w`` and ``q``.
    """
    valid = q >= -_K_MAX
    valid &= q <= -_K_MIN
    # r = bit_length(10**q) - 126 = floor(q log2 10) - 125, for either sign of q.
    r = q * 217706
    r >>= 16
    r -= 125
    row = np.subtract(-_K_MIN, q, out=q)  # the table row of 10**q
    g = _G1.take(row, mode="clip")
    g <<= _U(1)
    g |= _G0.take(row, mode="clip") >> _U(62)
    del q, row
    # w becomes wn. float(w) can round up to the next power of two: then
    # shift once more.
    lz = w.astype(np.float64).view(np.uint64)
    lz >>= _U(52)
    np.subtract(_U(1086), lz, out=lz)
    w <<= lz
    short = w >> _U(63)
    short ^= _U(1)
    w <<= short
    lz += short
    r -= lz.view(np.int64)
    del lz, short
    hi, lo = _mul128(w, g)
    del g
    # 2**126 <= P < 2**128: hi's top 54 bits are the significand and the
    # rounding bit, at bit 64 + s of P.
    s = hi >> _U(63)
    s += _U(9)
    top = hi >> s
    half = top & _U(1)
    ones = np.left_shift(_U(1), s)
    ones -= _U(1)
    hi &= ones  # the bits below the rounding bit
    np.invert(w, out=w)
    straddles = np.where(half == 0, (hi == ones) & (lo >= w), (hi == 0) & (lo <= 4))
    del w, hi, lo, ones
    # top becomes the significand, r the biased exponent and then the bits.
    top >>= _U(1)
    top += half
    carry = top >> _U(53)
    top >>= carry
    s += carry
    r += s.view(np.int64)
    r += 127 + 1075
    certified = valid & ~straddles & (r >= 1) & (r <= 2046)
    top &= _U((1 << 52) - 1)
    bits = r.view(np.uint64)
    bits <<= _U(52)
    bits |= top
    return bits, certified
