"""Doubles as the text ``repr`` gives them, laid out in rows as ``csv.writer`` writes them.

``csv_rows`` formats a whole chunk of rows at once in numpy arrays, and
writes the same bytes as ``csv.writer`` with Python floats.  Its tables
are built on the first call.  ``dataio`` imports this module on its first
CSV write, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# The digits are computed all in uint64 arrays: mixing in a signed operand
# would promote to float64, so every constant is a uint64.
_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW52 = _U(2**52 - 1)
_LOW63 = _U(2**63 - 1)
_POW10 = np.array([10**j for j in range(18)], dtype=_U)


def csv_rows(chunk: np.ndarray) -> bytes:
    """The rows of finite ``chunk`` as ``csv.writer`` writes them, floats as ``repr``.

    Each value gets a row of a byte matrix in which NUL marks an unused
    byte: a sign, 21 digit places with a place for the decimal point after
    each of the first 20, an exponent and a separator.  The digit places
    are 4 leading zeros and the 17 shortest digits, left-aligned, with
    their trailing zeros NUL; a frame chosen by the notation adds the
    point and the zeros that the notation needs.  Deleting every NUL
    leaves the text.  ``repr`` writes fixed notation for decimal exponents
    -4 to 15, else one digit, the rest after a point and ``e`` with a sign
    and at least two exponent digits.
    """
    d = chunk.shape[1]
    bits = np.ascontiguousarray(chunk, dtype=np.float64).ravel().view(_U)
    n = bits.size
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
    frame = np.where(scientific, 20 + (rest != 0), point + 4)
    four = np.empty((n, 4), dtype=np.intp)
    for i, scale in enumerate(_POW10[12::-4]):
        group = rest // scale
        rest -= group * scale
        four[:, i] = group
        four[:, i] += (rest == 0) * 10_000  # what follows is zeros: drop the group's trailing ones
    text = np.empty((n, 49), dtype=np.uint8)
    text[:, 0] = (bits >> _U(63)) * _U(ord("-"))
    text[:, 1:42] = frames.take(frame, axis=0)
    text[:, 9] |= (lead + _U(ord("0"))).astype(np.uint8)
    text[:, 11:42:2] |= groups.take(four, axis=0).reshape(n, 16)
    text[:, 42:47] = exponents.take(np.where(scientific, point + 325, 0), axis=0)
    text[:, 47:] = ord(","), 0
    text[d - 1 :: d, 47:] = ord("\r"), ord("\n")
    return text.tobytes().translate(None, b"\0")


@functools.cache
def text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte tables of ``csv_rows``, built on the first write.

    Four-digit groups: row g is g's digits, row 10 000 + g the same with
    its trailing zeros NUL.  Frames over the 41 digit and point places:
    row e + 4 for fixed notation with decimal exponent e, rows 20 and 21
    for one digit and for more in scientific notation.  Exponents: row
    e + 325 is ``e`` and e's sign and digits, row 0 nothing.
    """
    # int16 keeps each work array small
    g = np.arange(10_000, dtype=np.int16)[:, None]
    places = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    digits = (g // places % 10 + ord("0")).astype(np.uint8)
    trailing = g % (10 * places) == 0  # the digit and those after it are zeros
    groups = np.concatenate([digits, np.where(trailing, 0, digits).astype(np.uint8)])
    frames = np.zeros((22, 41), dtype=np.uint8)
    for e in range(-4, 16):
        # digit place j is column 2j - 2; the point after place j is column 2j - 1
        first, point = 5 + min(e, 0), 5 + e
        frames[e + 4, 2 * first - 2 : 2 * max(point + 2, 5) - 2 : 2] = ord("0")
        frames[e + 4, 2 * point - 1] = ord(".")
    frames[21, 9] = ord(".")
    exponents = np.zeros((634, 5), dtype=np.uint8)
    for e in range(-324, 309):
        text = b"e%+03d" % e
        exponents[e + 325, : len(text)] = list(text)
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
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    closer = np.arange(4096) >= 2048
    ks = (q * 661_971_961_083 - closer * 274_743_187_321) >> 41
    g1s, g0s, rs = [], [], []
    for k in range(ks.min(), ks.max() + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g = (p >> r if r > 0 else p << -r) + 1
        else:
            r = -p.bit_length() - 125
            g = (1 << -r) // p + 1
        g1s.append(g >> 63)
        g0s.append(g & (2**63 - 1))
        rs.append(r)
    at = ks - ks.min()
    return _read_only(
        np.array(g1s, dtype=_U).take(at),
        np.array(g0s, dtype=_U).take(at),
        (q + np.take(rs, at) + 127).astype(_U),
        ks,
    )


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
