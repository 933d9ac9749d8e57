"""Doubles as the text ``repr`` gives them, laid out in rows as ``csv.writer`` writes them.

``csv_rows`` formats a whole chunk of rows at once in numpy arrays, and
writes the same bytes as ``csv.writer`` with Python floats.  Its tables
are built on the first call.  ``dataio`` imports this module on its first
CSV write, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# The digits are computed all in unsigned arrays, uint64 and for the last
# groups uint32: mixing in a signed operand would promote uint64 to float64,
# so every constant is unsigned.
_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW52 = _U(2**52 - 1)
_LOW63 = _U(2**63 - 1)
_POW10 = np.array([10**j for j in range(18)], dtype=_U)
# The text is laid out in little-endian words: byte k of a word is bits 8k to 8k + 7.
_WORD = np.dtype("<u8")
_GROUP = np.uint32(10_000)
_ROW_END = _U((ord(",") ^ ord("\r")) << 32 | ord("\n") << 40)  # turns "," and NUL into CR LF


def csv_rows(chunk: np.ndarray) -> bytes:
    """The rows of finite ``chunk`` as ``csv.writer`` writes them, floats as ``repr``.

    Each value gets a row of seven ``uint64`` words, 56 bytes in which NUL
    marks an unused byte: after 5 unused bytes, a sign, 21 digit places
    with a place for the decimal point after each of the first 20, an
    exponent and a separator.  The digit places are 4 leading zeros and
    the 17 shortest digits, left-aligned, with their trailing zeros NUL;
    the last 16 digits fall in four-digit groups of one word each, the
    digits at even bytes and the point places at odd ones.  A frame chosen
    by the notation adds the point, the zeros and the ``e`` that the
    notation needs, and the separator.  Deleting every NUL leaves the
    text.  ``repr`` writes fixed notation for decimal exponents -4 to 15,
    else one digit, the rest after a point and ``e`` with a sign and at
    least two exponent digits.
    """
    return _words(chunk).tobytes().translate(None, b"\0")


def _words(chunk: np.ndarray) -> np.ndarray:
    """The word rows of ``csv_rows``: its work arrays are freed before the words are copied."""
    d = chunk.shape[1]
    bits = np.ascontiguousarray(chunk, dtype=np.float64).ravel().view(_U)
    magnitude = bits & _LOW63
    zero = magnitude == 0
    digits, exponent = shortest_digits(magnitude)
    digits[zero] = 0
    count = np.searchsorted(_POW10, digits, "right")
    digits *= _POW10.take(17 - count)  # now 17 digits, or 0
    lead = digits // _POW10[16]
    rest = digits - lead * _POW10[16]
    point = np.where(zero, 0, exponent + (count - 1))
    scientific = (point < -4) | (point >= 16)
    groups, frames, exponents = text_tables()
    words = frames.take(np.where(scientific, 20 + (rest != 0), point + 4), axis=0)
    words[:, 0] |= (bits >> _U(63)) * _U(ord("-") << 40)
    words[:, 1] |= (lead + _U(ord("0"))) << _U(48)
    # the 16 digits after the lead: two uint32 halves of two four-digit groups
    high = rest // _POW10[8]
    low = (rest - high * _POW10[8]).astype(np.uint32)
    for word, half, zeros_after in ((2, high.astype(np.uint32), low == 0), (4, low, True)):
        group = half // _GROUP
        half -= group * _GROUP
        # where only zeros follow a group, its own trailing zeros are dropped
        group += ((half == 0) & zeros_after) * _GROUP
        half += zeros_after * _GROUP
        words[:, word] |= groups.take(group)
        words[:, word + 1] |= groups.take(half)
    at = np.flatnonzero(scientific)
    words[at, 6] |= exponents.take(point[at] + 324)
    words[d - 1 :: d, 6] ^= _ROW_END
    return words


@functools.cache
def text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word tables of ``csv_rows``, built on the first write.

    Four-digit groups: word g is g's digits at even bytes, word
    10 000 + g the same with its trailing zeros NUL.  Frames, seven words
    each with the point, zeros and ``e`` of a notation and the separator:
    row e + 4 for fixed notation with decimal exponent e, rows 20 and 21
    for one digit and for more in scientific notation.  Exponents: word
    e + 324 is e's sign and digits.
    """
    groups = np.zeros(20_000, dtype=_WORD)
    # axes: variant, then g's thousands, hundreds, tens and units, then the byte
    cells = groups.view(np.uint8).reshape(2, 10, 10, 10, 10, 8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        cells[..., 2 * j] = digits.reshape((10,) + (1,) * (3 - j))
    for j in range(4):
        cells[(1,) + (slice(None),) * j + (0,) * (4 - j) + (2 * j,)] = 0  # it and what follows are zeros
    frames = np.zeros((22, 7), dtype=_WORD)
    text = frames.view(np.uint8)
    for e in range(-4, 16):
        # digit place j is byte 2j + 4; the point after place j is byte 2j + 5
        first, point = 5 + min(e, 0), 5 + e
        text[e + 4, 2 * first + 4 : 2 * max(point + 2, 5) + 4 : 2] = ord("0")
        text[e + 4, 2 * point + 5] = ord(".")
    text[21, 15] = ord(".")
    text[20:, 47] = ord("e")
    text[:, 52] = ord(",")
    exponents = np.zeros(633, dtype=_WORD)
    text = exponents.view(np.uint8).reshape(633, 8)
    for e in range(-324, 309):
        text[e + 324, :4] = list((b"%+03d" % e).ljust(4, b"\0"))
    return _read_only(groups, frames, exponents)


def shortest_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integers f and k with f * 10**k the decimal that ``repr`` gives each double.

    ``magnitude`` holds the bits of positive finite doubles.  This is R.
    Giulietti's Schubfach ("The Schubfach way to render doubles", 2020),
    one code path for normal, subnormal and power-of-two values, but
    without the rescale that forces two digits: among the shortest
    decimals in the rounding interval it takes the nearest, ties to an
    even last digit, as ``repr`` does.  f has at most 17 digits and may
    end in zeros.
    """
    field = magnitude >> _U(52)
    fraction = magnitude & _LOW52
    closer = (fraction == 0) & (field > 1)  # the next lower double is half as far
    index = field.astype(np.intp)
    index[closer] += 2048
    g1s, g0s, shifts, ks = schubfach_tables()
    g1, g0, h = g1s.take(index), g0s.take(index), shifts.take(index)
    c = fraction | ((field != 0) << _U(52))
    # g times 4c << h, for v = 4c and, by shifted g, its bounds 4c + 2 and 4c - 2 (or - 1)
    cp = c << (h + _U(2))
    y1, y0 = _product(g1, cp)
    x1, x0 = _product(g0, cp)
    v = _scaled(y1, y0, x1)
    odd = c & _U(1)
    right = h + _U(1)
    upper = _scaled(*_add_shifted(y1, y0, g1, right), _add_shifted(x1, x0, g0, right)[0]) - odd
    left = right - closer
    lower = _scaled(*_sub_shifted(y1, y0, g1, left), _sub_shifted(x1, x0, g0, left)[0]) + odd
    s = v >> _U(2)
    s4 = v & ~_U(3)
    nearest = s + (((v & _U(3)) + (s & _U(1)) + _U(1)) >> _U(2))
    above = s4 + _U(4) <= upper
    f = np.where((lower <= s4) != above, s + above, nearest)
    s40 = s // _U(10) * _U(40)
    above = s40 + _U(40) <= upper
    shorter = ((lower <= s40) != above) & (s >= _U(10))
    return np.where(shorter, (s40 >> _U(2)) + above * _U(10), f), ks.take(index)


@functools.cache
def schubfach_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per exponent field, and at 2048 + field for a closer lower neighbour: g1, g0, h and k.

    k is the decimal exponent, floor(log10(2**q)) or, with the closer
    neighbour, floor(log10(3/4 * 2**q)).  g = g1 * 2**63 + g0 is the 126-bit
    floor(10**-k * 2**-r) + 1 with r = floor(log2(10**-k)) - 125, and
    h = q + r + 127, from 2 to 5.  g and r are built with Python integers,
    once per k, on the first write.
    """
    q = np.arange(4096) & 2047
    np.maximum(q, 1, out=q)
    q -= 1075
    ks = q * 661_971_961_083
    ks[2048:] -= 274_743_187_321
    ks >>= 41
    k0 = int(ks.min())
    g1s, g0s = np.empty((2, ks.max() + 1 - k0), dtype=_U)
    rs = np.empty(g1s.size, dtype=np.int64)
    for i in range(g1s.size):
        k = k0 + i
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g = (p >> r if r > 0 else p << -r) + 1
        else:
            r = -p.bit_length() - 125
            g = (1 << -r) // p + 1
        g1s[i], g0s[i], rs[i] = g >> 63, g & (2**63 - 1), r
    at = ks - k0
    q += rs.take(at)  # q becomes h = q + r + 127, in place
    q += 127
    return _read_only(g1s.take(at), g0s.take(at), q.view(_U), ks)


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, frozen: a cache hands the same arrays to every caller."""
    for table in tables:
        table.setflags(write=False)
    return tables


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products a * b, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _U(32)
    b0, b1 = b & _LOW32, b >> _U(32)
    p01, p10 = a0 * b1, a1 * b0
    middle = ((a0 * b0) >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (middle >> _U(32)), a * b


def _add_shifted(hi, lo, g, shift):
    """(hi, lo) + (g << shift) in 128 bits, for shifts 1 to 63."""
    low = lo + (g << shift)
    return hi + (g >> (_U(64) - shift)) + (low < lo), low


def _sub_shifted(hi, lo, g, shift):
    """(hi, lo) - (g << shift) in 128 bits, for shifts 1 to 63."""
    low = lo - (g << shift)
    return hi - (g >> (_U(64) - shift)) - (low > lo), low


def _scaled(y1, y0, x1):
    """floor(g * x / 2**127), its last bit set when inexact, as Schubfach rounds.

    From g1 * x = (y1, y0) and the high word x1 of g0 * x, where
    g = g1 * 2**63 + g0.
    """
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z & _LOW63) != 0)
