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


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (m2 >> _U(32)) + (mid >> _U(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp * g / 2^127 rounded to odd."""
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


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
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U(2) + irregular) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)

    s = vb >> _U(2)
    # One digit shorter: the multiples of ten around s, if exactly one of
    # them rounds back to the value.
    sp10 = (s // _U(10)) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # Else s or s + 1: whichever alone rounds back, or the nearer one.
    t1 = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t1 << _U(2)) + out <= vbr
    mid = (s + t1) << _U(1)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(np.where(uin != win, uin, nearer_s), s, t1))
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
_CELL = 48
_HEAD = _words([b"\0" + sign + prefix for sign in (b"", b"-")
                for prefix in (b"", b"0.", b"0.0", b"0.00", b"0.000")], 8)
_EXP = _words([b"e%+03d" % e for e in range(-324, 309)] + [b""], 8)
_EXP_NONE = len(_EXP) - 1

_g = np.arange(10000, dtype=np.uint64)
# Each 4-digit group as (0xFF, digit) pairs; masks then pick what shows.
_GROUP = sum(((_g // _U(10 ** (3 - i)) % _U(10) + _U(48)) << _U(16 * i + 8))
              | _U(0xFF << (16 * i)) for i in range(4))
# Significant digits of a nonzero group (-99 for 0000, so it never wins).
_SIG = 4 - sum((_g % _U(10 ** i) == 0) for i in (1, 2, 3)).astype(np.int64)
_SIG[0] = -99
del _g

# Masks for words 1-4 by (digits shown L, point position p): keep the
# first L digits and put "." after the first p (p = 0: no point).
_j = np.arange(1, 17)
_mask = np.zeros((18, 17, 16, 2), dtype=np.uint8)
_mask[..., 0] = np.where(_j == np.arange(17)[:, None], ord("."), 0)
_mask[..., 1] = np.where(_j < np.arange(18)[:, None, None], 0xFF, 0)
_MASK = _mask.reshape(18 * 17, 32).view("<u8")
del _j, _mask

# Values per pass: large enough to amortize numpy's per-call cost, small
# enough that a pass's temporaries stay in cache. Medians of 60
# interleaved calls, 2 vCPUs: a 256x64 frame took 6.6 ms in passes of
# 4096, 7.5 at 8192, 8.7 at 2048 and 9.2 in one pass of 16384; a 512x64
# array 13.2, 14.1, 16.0 and 16.5 ms.
_BLOCK = 4096


def _fill(cells: np.ndarray, bits: np.ndarray) -> None:
    """Write the text of the doubles ``bits`` into words 0-5 of ``cells``."""
    f, e = _shortest(bits)
    zero = (bits << _U(1)) == 0
    f[zero] = 0
    nd = np.searchsorted(_POW10, f, side="right")
    f17 = f * _POW10[17 - nd]
    exp10 = np.where(zero, 0, e + nd - 1)
    hi = f17 // _U(10 ** 8)
    lo = f17 - hi * _U(10 ** 8)
    top = hi // _U(10 ** 4)
    first = top // _U(10 ** 4)
    groups = np.empty((len(bits), 4), dtype=np.intp)
    groups[:, 0] = top - first * _U(10 ** 4)
    groups[:, 1] = hi - top * _U(10 ** 4)
    groups[:, 2] = lo // _U(10 ** 4)
    groups[:, 3] = lo % _U(10 ** 4)
    sig = np.maximum(np.maximum(1 + _SIG[groups[:, 0]], 5 + _SIG[groups[:, 1]]),
                     np.maximum(9 + _SIG[groups[:, 2]], 13 + _SIG[groups[:, 3]]))
    np.maximum(sig, 1, out=sig)

    positional = (exp10 >= -4) & (exp10 <= 15)
    whole = positional & (exp10 >= 0)
    # Digits shown: the significant ones, plus zeros up to one past the point.
    shown = np.where(whole, np.maximum(sig, exp10 + 2), sig)
    point = np.where(whole, exp10 + 1, (~positional & (sig > 1)).astype(np.int64))
    head = (bits >> _U(63)).astype(np.intp) * 5 + np.where(positional & (exp10 < 0), -exp10, 0)
    cells[:, 0] = _HEAD[head] | ((first + _U(48)) << _U(56))
    cells[:, 1:5] = _GROUP[groups] & _MASK[shown * 17 + point]
    cells[:, 5] = _EXP[np.where(positional, _EXP_NONE, exp10 + 324)]


def json_float_array(values: np.ndarray) -> bytes:
    """``json.dumps(values.tolist(), separators=(",", ":"))`` as bytes.

    ``values`` is a 1-D or 2-D array of finite floats.
    """
    values = np.asarray(values, dtype=np.float64)
    d = values.shape[-1]
    bits = np.ascontiguousarray(values).reshape(-1).view(np.uint64)
    cells = np.empty((min(_BLOCK, bits.size), _CELL // 8), dtype="<u8")
    outer = values.ndim == 2
    parts = [b"[" * outer]
    for start in range(0, bits.size, _BLOCK):
        block = bits[start:start + _BLOCK]
        _fill(cells[:len(block)], block)
        # Value start + i opens a row when (start + i) % d == 0 and closes
        # one when it is d - 1; every value is followed by a comma.
        text = cells[:len(block)].view(np.uint8)
        text[:, 45] = ord(",")
        text[-start % d::d, 0] = ord("[")
        text[(d - 1 - start) % d::d, 45:47] = (ord("]"), ord(","))
        parts.append(text.tobytes().translate(None, b"\0"))
    parts[-1] = parts[-1][:-1] + b"]" * outer
    return b"".join(parts)
