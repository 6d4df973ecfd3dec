"""Float64 arrays as JSON text, byte-identical to ``json.dumps``, in numpy.

``json.dumps`` spells each float with ``float.__repr__``, about 1 us of
CPython per value. This kernel writes the same bytes with no per-value
Python:

- Digits: Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020, as in Java's ``DoubleToDecimal``) gives each value's
  shortest decimal that reads back to it, the one nearest the value
  when several are that short, as ``f * 10**e``. Its 126-bit powers of
  ten are a table built from Python ints; its 64x64 -> 128-bit products
  run on 32-bit limbs in uint64 lanes. Java keeps at least two digits:
  its ``s >= 100`` guard skips the one-digit-shorter try, and it scales
  the significands 1 and 2 of the two smallest subnormals by ten first
  (``C_TINY``). Python's repr wants ``5e-324`` and ``1e-323``, so
  neither is kept; without the scaling both values still come out right.
- Layout: CPython's repr rules. Decimal exponents -4..15 are
  positional, with ``.0`` on integers; others are ``d.ddde±XX``; the
  sign of ``-0.0`` is kept. Each value gets a 48-byte cell of NUL-padded
  text that also holds its brackets and comma, and ``bytes.translate``
  drops the NULs of each block of cells.

Only finite values are supported.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)

# Decimal exponents k = floor(log10(2^q)) of every finite double.
_K_MIN, _K_MAX = -324, 292


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k / 2^r) + 1 with 2^125 <= g < 2^126, as g1 2^63 + g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = p.bit_length() - 126
            beta = p >> shift if shift >= 0 else p << -shift
        else:
            p = 10 ** k
            beta = (1 << (125 + p.bit_length())) // p
        g = beta + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _powers_of_ten()


def _mulhi(a1: np.ndarray, a0: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """High 64 bits of a * b from 32-bit halves; a < 2^63, b < 2^60: no sum overflows."""
    mid = ((a0 * b0) >> _U(32)) + a1 * b0 + a0 * b1
    return a1 * b1 + (mid >> _U(32))


def _rop(g: tuple, g1: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp * g / 2^127 rounded to odd, for cp < 2^60; ``g`` holds the
    32-bit halves of g1 and g0, which a value's three products share."""
    c1, c0 = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g[2], g[3], c1, c0)
    return (_mulhi(g[0], g[1], c1, c0) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimals ``f * 10**e`` of nonzero finite doubles.

    ``bits`` are the doubles' IEEE bit patterns; zeros give garbage.
    """
    t = bits & _U((1 << 52) - 1)
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    c = np.where(bq > 0, t | _U(1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    # Powers of two above the smallest normal have a closer lower neighbour.
    irregular = (t == 0) & (bq > 1)
    out = c & _U(1)
    cb = c << _U(2)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = _G1.take(k - _K_MIN), _G0.take(k - _K_MIN)
    # cp = c 2^(h + 2) < 2^60, as h <= 5.
    g = (g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32)
    vb = _rop(g, g1, cb << h)
    vbl = _rop(g, g1, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, g1, (cb + _U(2)) << h) - out

    s = vb >> _U(2)
    s4 = s << _U(2)
    # One digit shorter: the multiples of ten around s, if exactly one of
    # them rounds back to the value (lies within [vbl, vbr] / 4).
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    # Else s or s + 1: whichever alone rounds back, or the nearer (s on an even tie).
    uin = vbl <= s4
    win = s4 + _U(4) <= vbr
    nearer_s = vb + (s & _U(1)) <= s4 + _U(2)
    f = s + _U(1) - ((uin & ~win) | (nearer_s & (uin == win)))
    np.copyto(f, sp10 + wpin * _U(10), where=upin != wpin)
    return f, k


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """Texts NUL-padded to ``width`` bytes, as little-endian uint64 words."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype="<u8")


_POW10 = 10 ** np.arange(18, dtype=np.uint64)

# A value's 48-byte cell is six words:
#   0: bracket, sign, "0.000"-style prefix, first digit
#   1-4: digits 2..17 as (separator, digit) byte pairs; a separator
#        byte is NUL, or the decimal point before that digit
#   5: exponent ("e-05"), closing bracket, comma
# The layout depends on the decimal exponent x only through its class
# clip(x, -5, 16) + 5: -4..15 are positional, -5 and 16 stand for the rest.
_X = np.arange(-5, 17)
_HEAD = _words([b"\0" + sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                for sign in (b"", b"-") for x in _X.tolist()], 8)
_EXP = _words([(b"" if -4 <= x <= 15 else b"e%+03d" % x).ljust(5, b"\0") + b","
               for x in range(-324, 309)], 8)

# Each 4-digit group 0000-9999 as (0xFF, digit) pairs, its digit i running
# through "0"-"9" in steps of 10^(3 - i) groups; masks then pick what shows.
_GROUP = sum((np.tile(np.repeat(np.arange(48, 58, dtype=np.uint64), 10 ** (3 - i)), 10 ** i)
              << _U(16 * i + 8)) | _U(0xFF << (16 * i)) for i in range(4))
# Significant digits of a nonzero group, 4 less its trailing zeros; -12
# for 0000, so that only a value whose four groups are all 0000 gets 1.
_SIG = 4 - sum(np.tile(np.arange(10 ** i) == 0, 10 ** (4 - i)) for i in (1, 2, 3)).astype(np.int16)
_SIG[0] = -12
_DIGITS_BEFORE = np.array([[1], [5], [9], [13]], dtype=np.int16)

# Masks for words 1-4 by (significant digits L, exponent class): show L
# digits, or up to one past a positional point, and "." after the first p.
_sig = np.arange(18)[:, None]
_whole = (_X >= 0) & (_X <= 15)
_shown = np.where(_whole, np.maximum(_sig, _X + 2), _sig)
_point = np.where(_whole, _X + 1, ((_X < -4) | (_X > 15)) & (_sig > 1))
_mask = np.zeros((18, 22, 16, 2), dtype=np.uint8)
_mask[..., 0] = np.where(np.arange(1, 17) == _point[..., None], ord("."), 0)
_mask[..., 1] = np.where(np.arange(1, 17) < _shown[..., None], 0xFF, 0)
_MASK = np.ascontiguousarray(_mask.reshape(18 * 22, 32).view("<u8").T)
del _sig, _whole, _shown, _point, _mask

# Values per pass: enough to amortize numpy's per-call cost, few enough
# that a pass's temporaries stay small. Medians of 60 interleaved calls,
# 2 vCPUs, in passes of 4096/8192/2048/16384: a 256x64 frame 4.9/4.7/5.4/6.3
# ms, a 512x64 array 9.1/9.0/10.8/11.0 ms; 8192 is within noise of 4096.
_BLOCK = 4096


def _fill(words: np.ndarray, bits: np.ndarray) -> None:
    """Write the text of the doubles ``bits`` into their cells, held as
    the rows of ``words``: row j holds word j of every cell."""
    f, e = _shortest(bits)
    zero = (bits << _U(1)) == 0
    f[zero] = 0
    nd = np.searchsorted(_POW10, f, side="right")
    f17 = f * _POW10.take(17 - nd)
    exp10 = e + nd - 1
    exp10[zero] = 0
    hi = f17 // _U(10 ** 8)
    lo = f17 - hi * _U(10 ** 8)
    top = hi // _U(10 ** 4)
    first = top // _U(10 ** 4)
    groups = np.empty((4, len(bits)), dtype=np.uint64)
    np.subtract(top, first * _U(10 ** 4), out=groups[0])
    np.subtract(hi, top * _U(10 ** 4), out=groups[1])
    np.floor_divide(lo, _U(10 ** 4), out=groups[2])
    np.subtract(lo, groups[2] * _U(10 ** 4), out=groups[3])
    groups = groups.view(np.intp)
    sig = np.maximum.reduce(_SIG.take(groups) + _DIGITS_BEFORE)

    x = np.clip(exp10, -5, 16) + 5
    head = (bits >> _U(63)).view(np.int64) * 22 + x
    words[0] = _HEAD.take(head) | ((first + _U(48)) << _U(56))
    np.bitwise_and(_GROUP.take(groups), _MASK.take(sig * 22 + x, axis=1), out=words[1:5])
    words[5] = _EXP.take(exp10 + 324)


def json_float_array(values: np.ndarray) -> bytes:
    """``json.dumps(values.tolist(), separators=(",", ":"))`` as bytes.

    ``values`` is a 1-D or 2-D array of finite floats.
    """
    values = np.asarray(values, dtype=np.float64)
    d = values.shape[-1]
    bits = np.ascontiguousarray(values).reshape(-1).view(np.uint64)
    words = np.empty((6, min(_BLOCK, bits.size)), dtype="<u8")
    outer = values.ndim == 2
    parts = [b"[" * outer]
    for start in range(0, bits.size, _BLOCK):
        block = bits[start:start + _BLOCK]
        cells = words[:, :len(block)]
        _fill(cells, block)
        # Value start + i opens a row when (start + i) % d == 0, and closes
        # one when it is d - 1: the "," of its word 5 turns into "],".
        cells[0, -start % d::d] |= _U(ord("["))
        cells[5, (d - 1 - start) % d::d] += _U(((ord("]") - ord(",")) << 40) | (ord(",") << 48))
        parts.append(cells.T.tobytes().translate(None, b"\0"))
    parts[-1] = parts[-1][:-1] + b"]" * outer
    return b"".join(parts)
