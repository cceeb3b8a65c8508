"""CSV text of float64 tables, ``repr``'s bytes from numpy array passes.

:func:`rows_text` turns a 2-d float64 array into the text a writer that
joins ``repr`` of each cell writes: ``,`` between the cells of a row and
``\\n`` after it. ``repr`` prints the shortest decimal that reads back as
the same double, and of those the one nearest it, ties to even. Here each
step of that is a pass over the whole array:

1. Scale |x| to y = |x| 10^(16-E), 10^E <= |x| < 10^(E+1), so that the
   17-digit decimals near x are the integers near y. y is a
   double-double: a Dekker product of x with 10^k kept as hi + lo, good
   to about 1e-14 of a unit, and exact where 10^k is a double (k <= 22).
2. The reals that read back as x lie within half an ulp of it, within h
   of y. A decimal of 17 - j digits is a multiple of 10^j, so the digits
   are those of the multiple of the largest 10^j in (y - h, y + h)
   nearest y. The decisions are float passes on y less a multiple of 100.
3. Split the digits, shifted by 10^(E mod 4), into five 4-digit limbs and
   gather them into place-aligned 4-byte columns: column g holds places
   4g + 3 .. 4g of every cell. A mask row per (highest, lowest) place
   keeps the digits shown; the sign, point, exponent and separator have
   bytes of their own, NUL pads the rest, and the table is joined by
   dropping the NULs.

A cell that float64 cannot decide with margin is written by ``repr``
itself, so the bytes are ``repr``'s by construction, not to a tolerance:
NaN and +-inf; |x| below 1e-290 (the subnormals among them) or at least
1e15 (above the columns); powers of two, whose lower half-gap is half the
upper; |x| within an ulp or so of a power of ten, where log10 rounds
across it; an interval end, or a tie of the nearest candidates that is
not exact, within 1e-9 of a 17th-digit unit; and a rounding that carries
into an 18th digit.

On the CLI's develop-gravity table at step 1e-4 the passes take about 0.3
of the time of one ``repr`` per cell: steps 1 and 2 about 30% of it, the
layout of step 3 50% and dropping the NULs 20%.
"""

from __future__ import annotations

import functools

import numpy as np

_MARGIN = 1e-9  # in units of y; y, h and their sums are good to about 1e-14
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for Dekker products
_MANTISSA = (1 << 52) - 1
_MARK = 1  # a slow cell's placeholder byte, replaced by its repr
_N_EXP = 292  # |E| of a sci-notation cell is at most 291


def _limbs(strings: list[bytes]) -> np.ndarray:
    """Byte strings of one length, a multiple of 4, as rows of uint32 limbs
    (in native byte order, so a limb's bytes are the string's)."""
    return np.frombuffer(b"".join(strings), dtype=np.uint32).reshape(len(strings), -1)


def _powers_of_ten() -> np.ndarray:
    """Row k = 0..308: 10^k as hi + lo (each the double nearest what is
    left), and hi's Veltkamp split into a 26-bit head and its exact rest,
    taken on hi 2^-200 so that the splitter does not overflow."""
    tens = [10 ** k for k in range(309)]
    hi = np.array([float(p) for p in tens])
    lo = np.array([float(p - int(h)) for p, h in zip(tens, hi.tolist())])
    c = hi * 2.0 ** -200 * _SPLIT
    head = (c - (c - hi * 2.0 ** -200)) * 2.0 ** 200
    return np.stack([hi, lo, head, hi - head], axis=1)


def _digit_limbs() -> tuple[np.ndarray, np.ndarray]:
    """The 4 digits of each k < 10^4 as a limb, and k's trailing zeros (4
    for k = 0)."""
    k = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1).astype(np.uint8) + ord("0")
    return digits.view(np.uint32).ravel(), sum((k % 10 ** m == 0).astype(np.uint8) for m in range(1, 5))


_POWERS = _powers_of_ten()
_DIGITS, _ZEROS = _digit_limbs()
_UNIT = np.array([1.0, 0.1])  # 10^-j, j = 0, 1
_SHIFT = 10 ** np.arange(4)
# e-k, k >= 5, in the one or two columns below a sci cell's lowest place
_EXP = _limbs([(b"e-%02d" % -e).ljust(8, b"\0") if e < -4 else bytes(8) for e in range(1 - _N_EXP, 15)]).T.copy()
_ZERO, _POINT, _COMMA, _NEWLINE = _limbs([b"0000", b".\0\0\0", b",\0\0\0", b"\n\0\0\0"]).ravel()
# what turns a leading "0" into NUL, "-" or a slow cell's mark, by neg + 2 slow
_SIGN = _limbs([bytes([ord("0") ^ b, 0, 0, 0]) for b in (0, ord("-"), _MARK, _MARK)]).ravel()


@functools.cache
def _masks(top: int, bottom: int) -> np.ndarray:
    """The mask rows of a chunk laid out as place groups top..0, the point,
    groups -1..bottom and the separator (group g holds places 4g + 3..4g).
    Row ``21 hi - lo`` keeps places lo..hi of a plain cell (hi in 0..14, lo
    in -20..-1); row ``315 - lo`` the digits of a sci cell down to place lo
    (-16..0), its point unless lo = 0 and its exponent, below place -16.
    Every row keeps the first byte (the sign) and the separator; row 0, a
    slow cell's, nothing else."""
    place = (4 * np.arange(top, bottom - 1, -1)[:, None] + np.arange(3, -1, -1)).ravel()
    hi, lo = np.divmod(np.arange(21 * 16)[:, None], 21)
    lo = -lo
    sci = hi == 15
    keep = (place >= lo) & (place <= np.where(sci, 0, hi)) | sci & (place < -16)
    keep[0] = False
    keep[:, 0] = True
    digits = (keep * np.uint8(255)).view(np.uint32)
    point = np.where(lo < 0, 0xFFFFFFFF, 0).astype(np.uint32)
    return np.hstack([digits[:, :top + 1], point, digits[:, top + 1:], np.full_like(point, 0xFFFFFFFF)])


def _split(v: np.ndarray, p: int) -> np.ndarray:
    """``v // p`` for int64 v >= 0, leaving ``v % p`` in v."""
    q = v // p
    v -= q * p
    return q


def _shortest(a: np.ndarray, slow: np.ndarray):
    """The shortest round-trip decimal of each a > 0 as C 10^(e - 16): C an
    int64 in [10^16, 10^17) whose digits, less its trailing zeros, are the
    decimal's. Marks in ``slow`` the cells it cannot decide."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, t, hh, hl = _POWERS.take(16 - e, axis=0).T.copy()
    exact = t == 0.0  # 10^k is a double, so y below is a 10^k exactly
    # Dekker: p + err is a hi exactly, summed in this order
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    p = a * hi
    err = ah * hh
    err -= p
    ah *= hl
    err += ah
    hh *= al
    err += hh
    al *= hl
    err += al
    del ah, al, hh, hl
    t *= a
    t += err
    s = p + t
    p -= s
    t += p  # y = s + t = p + err + a lo, s a whole number (y >= 2^53)
    del err, p
    w = np.floor(t)
    t -= w
    y = s.astype(np.int64)
    hundreds = _split(y, 100)
    w += y
    del s, y
    # from here on a number is y - 100 hundreds, below 130, or a part of
    # it: w whole, t its fraction; h is half an ulp of a, 2^(b - 1076) for
    # biased exponent b, times 10^k
    h = a.view(np.int64) >> 52
    h -= 53
    h <<= 52
    h = h.view(np.float64)
    h *= hi
    # the integers strictly inside (y - h, y + h) are (top - span, top],
    # read with margin from where y - h and y + h fall between integers
    lower = t - h
    h += t
    up = np.floor(h)
    span = np.floor(lower)
    lower -= span + 0.5
    h -= up + 0.5
    slow |= np.maximum(np.abs(lower), np.abs(h)) > 0.5 - _MARGIN
    np.subtract(up, span, out=span)
    up += w  # top - 100 hundreds
    by_100 = np.floor(up * 0.01)
    j2 = up - 100.0 * by_100 < span  # a multiple of 100 inside: j >= 2
    j1 = up - 10.0 * np.floor(up * 0.1) < span  # a multiple of 10 inside
    del lower, h, up, span
    # j = 0, 1: the multiple of 10^j nearest y, ties to even where y is exact
    unit = _UNIT.take(j1.view(np.uint8))
    z = w + t
    z *= unit
    z += 0.5
    c = np.floor(z)
    z -= c
    tie = z == 0.0
    tie &= exact
    z -= 0.5
    np.abs(z, out=z)
    near = z > 0.5 - _MARGIN
    if tie.any():
        # an exact tie: y's fraction is 1/2 (j = 0), or 0 with a 5 last
        tie &= t == np.where(j1, 0.0, 0.5)
        c -= tie & (c % 2 == 1)
        near &= ~tie
    slow |= near
    c /= unit
    c += (100.0 * by_100 - c) * j2  # j >= 2: the one multiple of 100 inside
    del exact, t, z, near, unit, by_100
    hundreds *= 100
    hundreds += c.astype(np.int64)
    # log10 rounds across a power of ten only for |x| within an ulp or so of
    # it, and a carry takes C to 10^17
    slow |= (hundreds - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16
    return hundreds, e


def _cells(x: np.ndarray, sep: np.ndarray):
    """The limbs of the cells of float64 ``x``, a row of uint32 each ending
    in its ``sep`` limb, and the mask of the cells to ``repr``."""
    n = x.size
    bits = x.view(np.int64)
    a = np.abs(x)
    zero = a == 0.0
    slow = ~((a >= 1e-290) & (a < 1e15) & (bits & _MANTISSA != 0) | zero)
    c, e = _shortest(np.where(slow | zero, 1.5, a), slow)  # 1.5: any decided number
    sign = (bits < 0).view(np.uint8) + slow.view(np.uint8) * np.uint8(2)
    # a zero is laid out as 0.0 (all the digits of 1.5 at e = 0 zero), and a
    # slow cell likewise, to show none of it
    c *= ~(slow | zero)
    e *= ~slow
    del a, zero
    # a sci cell is laid out as d.ddd at e = 0, then its exponent; the
    # digits of c 10^(ef mod 4) make five 4-digit limbs, the highest in
    # place group ef // 4
    plain = e >= -4
    ef = e * plain
    shift = _SHIFT.take(ef & 3)
    high = _split(c, 10 ** 8)
    c *= shift
    high *= shift
    high += _split(c, 10 ** 8)
    g1 = _split(c, 10_000)
    g3 = _split(high, 10_000)
    g4 = _split(g3, 10_000)
    groups = (g4, g3, high, g1, c)
    del c, high, g1, g3, shift
    # the lowest place shown: that of the last digit that is not zero, and
    # place -1 at the least for a plain cell
    zeros = _ZEROS.take(g4)
    for g in groups[1:]:
        zeros *= g == 0
        zeros += _ZEROS.take(g)
    start = ef >> 2
    lo = np.minimum(4 * start - 16 + zeros, plain * -1)
    row = (21 * (np.maximum(e, 0) + 15 * ~plain) - lo) * ~slow
    # the columns this chunk needs: from the group that holds its sign (a
    # place above every integer digit) down to its lowest place, and the
    # exponent's if a cell has one
    top = (max(int(e.max()), 0) + 1) >> 2
    bottom = int(lo.min()) >> 2
    del g4, zeros, lo, g
    # a cell's limbs from its group ef // 4 + 4 down: "0000" above its
    # digits, the digits, its exponent
    limbs = np.empty((11, n), dtype=np.uint32)
    limbs[min(max(4 - top + (int(ef.min()) >> 2), 0), 4):4] = _ZERO
    for i, g in enumerate(groups, 4):
        _DIGITS.take(g, out=limbs[i])
    if not plain.all():
        bottom = min(bottom, -5 if e.min() > -100 else -6)
        _EXP.take(e + (_N_EXP - 1), axis=1, out=limbs[9:])
    del groups, g, e, ef, plain
    # column g of a cell is its limb 4 - g + ef // 4 (a column that takes a
    # limb below the 11th shows none of it)
    start += 1
    start *= n
    start += np.arange(n)
    flat = limbs.ravel()
    cut = top + 1
    out = np.empty((top - bottom + 3, n), dtype=np.uint32)
    for i, g in enumerate(range(top, bottom - 1, -1)):
        flat[(3 - g) * n:].take(start, out=out[i + (g < 0)], mode="clip")
    del limbs, flat, start
    out[cut] = _POINT
    out[-1] = sep
    out[0] ^= _SIGN.take(sign)  # its first byte is a leading zero of every cell
    cells = np.empty((n, len(out)), dtype=np.uint32)
    np.bitwise_and(out.T, _masks(top, bottom).take(row, axis=0), out=cells)
    return cells, slow


def rows_text(rows: np.ndarray) -> str:
    """The rows of a 2-d float64 array (at least one column) as CSV text:
    each cell's ``repr``, ``,`` between cells and ``\\n`` after each row."""
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    sep = np.full(rows.shape[1], _COMMA)
    sep[-1] = _NEWLINE
    with np.errstate(invalid="ignore"):  # NaN cells compare false, quietly
        out, slow = _cells(x, np.tile(sep, len(rows)))
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    del out
    if not slow.any():
        return text
    parts = text.split(chr(_MARK))
    return parts[0] + "".join(r + p for r, p in zip(map(repr, x[slow].tolist()), parts[1:]))
