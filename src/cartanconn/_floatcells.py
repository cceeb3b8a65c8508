"""CSV text of float64 tables, ``repr``'s bytes from numpy array passes.

:func:`rows_text` turns a 2-d float64 array into the text a writer that
joins ``repr`` of each cell writes: ``,`` between the cells of a row and
``\\n`` after it. ``repr`` prints the shortest decimal that reads back as
the same double, and of those the one nearest it. Here each step of that
is a pass over the whole array:

1. Scale |x| to y = |x| 10^(16-E), 10^E <= |x| < 10^(E+1), so that the
   17-digit decimals near x are the integers near y. y is a
   double-double: a Dekker product of x with 10^k kept as hi + lo, good
   to about 1e-14 of a unit.
2. The reals that read back as x lie within half an ulp of it, within h
   of y. A decimal of 17 - j digits is a multiple of 10^j, so the digits
   are those of the multiple of the largest 10^j in (y - h, y + h)
   nearest y.
3. Lay the sign, digits, point, leading zeros and exponent of each cell
   into fixed NUL-padded slots of 4-byte limbs, and join the table by
   dropping the NULs.

A cell that float64 cannot decide with margin is written by ``repr``
itself, so the bytes are ``repr``'s by construction, not to a tolerance:
NaN and +-inf; |x| below 1e-290 (the subnormals among them) or at least
1e15 (whose y needs a negative k); powers of two, whose lower half-gap is
half the upper; |x| within an ulp or so of a power of ten, where log10
rounds across it; an interval end, or a tie of the nearest candidates,
within 1e-9 of a 17th-digit unit; and a rounding that carries into an
18th digit.
"""

from __future__ import annotations

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


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10^k, k = 0..308, as hi + lo (each the double nearest what is left),
    and hi's Veltkamp split into a 26-bit head and its exact rest, taken on
    hi 2^-200 so that the splitter does not overflow."""
    tens = [10 ** k for k in range(309)]
    hi = np.array([float(p) for p in tens])
    lo = np.array([float(p - int(h)) for p, h in zip(tens, hi.tolist())])
    c = hi * 2.0 ** -200 * _SPLIT
    head = (c - (c - hi * 2.0 ** -200)) * 2.0 ** 200
    return hi, lo, head, hi - head


_P_HI, _P_LO, _P_HH, _P_HL = _powers_of_ten()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10F = 10.0 ** np.arange(19)

# A cell is up to 13 limbs: places 15..0 in four | the point | places -1..-20
# in five | the exponent in two | the separator. Places 15..0 keep the sign
# in the first byte of the highest limb that a chunk lays out, a place
# above every integer digit in the chunk.


def _digit_limbs() -> tuple[np.ndarray, np.ndarray]:
    """The 4 digits of each k < 10^4 as a limb, and the limbs of k < 2000
    whose first byte is NUL (k < 1000) or ``-`` and then k's last 3 digits."""
    k = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1).astype(np.uint8) + ord("0")
    sign = np.repeat(np.array([0, ord("-")], dtype=np.uint8), 1000)[:, None]
    lead = np.hstack([sign, np.tile(digits[:1000, 1:], (2, 1))])
    return digits.view(np.uint32).ravel(), lead.view(np.uint32).ravel()


_DIGITS, _LEAD = _digit_limbs()
_EXP = _limbs([f"e-{e:02d}".encode().ljust(8, b"\0") if e >= 5 else bytes(8) for e in range(_N_EXP)])
_POINT, _COMMA, _NEWLINE, _MARKER = _limbs([b".\0\0\0", b",\0\0\0", b"\n\0\0\0", bytes([_MARK, 0, 0, 0])]).ravel()


def _masks() -> np.ndarray:
    """Row ``21 hi - lo`` of table ``top`` keeps the bytes of places lo..hi
    of a cell, the sign byte of limb ``top`` and every byte that is not a
    digit: top in 0..3, hi in 0..14, lo in -20..0."""
    place = np.full(52, 99)  # 99: kept whatever hi and lo
    place[0:16] = np.arange(15, -1, -1)
    place[20:40] = np.arange(-1, -21, -1)
    hi = np.arange(15)[:, None, None]
    lo = -np.arange(21)[None, :, None]
    keep = np.repeat(((place == 99) | ((place <= hi) & (place >= lo)))[None], 4, axis=0)
    for top in range(4):
        keep[top, :, :, 4 * top] = True
    return (keep * np.uint8(255)).view(np.uint32).reshape(4, 15 * 21, 13)


_MASKS = _masks()


def _scaled(a: np.ndarray, e: np.ndarray):
    """y = a 10^(16 - e) as an int64 ``whole`` plus a fraction in [0, 1),
    and the hi part of 10^(16 - e)."""
    k = 16 - e
    hi, hh, hl = _P_HI.take(k), _P_HH.take(k), _P_HL.take(k)
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    p = a * hi
    # Dekker: p + err is a hi exactly, summed in this order
    err = ah * hh
    err -= p
    err += ah * hl
    err += al * hh
    err += al * hl
    del ah, al, hh, hl
    t = a * _P_LO.take(k)
    t += err
    s = p + t
    t -= s - p  # s + t is p + err + a lo
    floor = np.floor(t)
    t -= floor
    whole = s.astype(np.int64)
    whole += floor.astype(np.int64)
    return whole, t, hi


def _divmod10(v: np.ndarray, k: np.ndarray):
    """``v // 10**k`` and ``v % 10**k`` for int64 v >= 0 whose quotient is
    below 1e15: a float64 quotient, off by at most one, corrected."""
    p = _POW10.take(k)
    q = (v / _POW10F.take(k)).astype(np.int64)
    q += v - q * p >= p
    q -= v - q * p < 0
    return q, v - q * p


def _shortest(a: np.ndarray, slow: np.ndarray):
    """The shortest round-trip decimal of each a > 0 as C 10^(e - 16): C an
    int64 in [10^16, 10^17) that ends in j zeros, so that the decimal's
    digits are C's first 17 - j. Marks in ``slow`` the cells it cannot
    decide."""
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac, hi = _scaled(a, e)
    # log10 rounds across a power of ten only for |x| within an ulp or so of it
    slow |= (whole < 10 ** 16) | (whole >= 10 ** 17)
    # h: half an ulp of a, 2^(b - 1076) for biased exponent b, times 10^k
    h = a.view(np.int64) >> 52
    h -= 53
    h <<= 52
    h = h.view(np.float64)
    h *= hi
    del hi
    # the integers strictly inside (y - h, y + h) are (top - span, top],
    # read with margin from where y - h and y + h fall between integers
    lower = frac - h
    h += frac
    upper = h
    down, up = np.floor(lower), np.floor(upper)
    lower -= down
    upper -= up
    slow |= (lower < _MARGIN) | (lower > 1.0 - _MARGIN) | (upper < _MARGIN) | (upper > 1.0 - _MARGIN)
    del lower, upper
    span = up - down
    top = whole + up.astype(np.int64)
    del down, up
    top_hundreds = top // 100
    top_100 = top - top_hundreds * 100
    # j = 0: the integer nearest y; j = 1: the multiple of ten nearest y
    ones = whole - whole // 10 * 10
    mod_ten = ones + frac  # y mod 10
    by_ten = top_100 % 10 < span
    c = np.where(by_ten, whole - ones + 10 * (mod_ten > 5.0), whole + (frac > 0.5))
    slow |= np.abs(np.where(by_ten, mod_ten - 5.0, frac - 0.5)) < _MARGIN
    j = by_ten.astype(np.int64)
    del ones, mod_ten, whole, frac
    # j >= 2: one multiple of 100 lies inside (the span is at most 23), and
    # it is a multiple of 10^(2 + t) for t the trailing zeros of top // 100,
    # counted 8 + 4 + 2 + 1 at a time (a float64 quotient of an integer
    # below 1e15 is whole just when the division is exact)
    idx = np.flatnonzero(top_100 < span)
    if idx.size:
        v = top_hundreds[idx].astype(np.float64)
        zeros = np.zeros(idx.size, np.int64)
        for step in (8, 4, 2, 1):
            q = v / _POW10F[step]
            exact = q == np.floor(q)
            v = np.where(exact, q, v)
            zeros += step * exact
        j[idx] = 2 + zeros
        c[idx] = top[idx] - top_100[idx]
    # a carry: |x| within an ulp of 10^(e + 1), which the log10 check above
    # already catches when log10 is correctly rounded
    slow |= c >= 10 ** 17
    return c, e, j


def _cells(x: np.ndarray, sep: np.ndarray):
    """The limbs of the cells of float64 ``x``, a row of uint32 each ending
    in its ``sep`` limb, and the mask of the cells to ``repr``."""
    bits = x.view(np.int64)
    neg = bits < 0
    a = np.abs(x)
    zero = a == 0.0
    slow = ~((a >= 1e-290) & (a < 1e15) & (bits & _MANTISSA != 0) | zero)
    a[slow | zero] = 1.5  # any number the passes decide; laid out as zero below
    c, e, j = _shortest(a, slow)
    del a
    dummy = slow | zero
    c[dummy], e[dummy], j[dummy] = 0, 0, 16
    # sci-notation cells are laid out as d.ddd at e = 0, then the exponent
    sci = e < -4
    ef = np.where(sci, 0, e)
    lo = np.where(sci, j - 16, np.minimum(ef + j - 16, -1))
    point = np.where(sci & (j == 16), 0, _POINT)
    exponent = np.where(sci, -e, 0)
    del e, j
    whole, frac = _divmod10(c, np.minimum(16 - ef, 17))
    del c
    # frac has 16 - ef digits: places -1..-12 go to ``head``, -13..-20 to ``tail``
    t = 4 - ef
    head, tail = _divmod10(frac, np.maximum(t, 0))
    del frac
    head *= _POW10.take(np.maximum(-t, 0))
    tail *= _POW10.take(np.clip(8 - t, 0, 8))
    del t

    # the limbs this chunk needs: from the one that holds its sign down to
    # its lowest place, and the exponent if a cell has one
    top = 3 - (max(int(ef.max()), 0) + 1) // 4
    bottom = 4 + (3 - int(lo.min())) // 4
    cols = [*range(top, bottom + 1), *([10, 11] if sci.any() else []), 12]
    out = _MASKS[top][:, cols].take(21 * ef.clip(0) - lo, axis=0)
    del ef, lo
    at = {col: i for i, col in enumerate(cols)}
    for v, group in ((whole, (3, 2, 1, 0)), (head, (7, 6, 5)), (tail, (9, 8))):
        for col in group:
            if col == top:
                out[:, 0] &= _LEAD.take(v + 1000 * neg)
                break
            q = v // 10_000
            if col in at:
                out[:, at[col]] &= _DIGITS.take(v - q * 10_000)
            v = q
    out[:, at[4]] = point
    if 10 in at:
        out[:, at[10]:at[12]] = _EXP.take(exponent, axis=0)
    out[:, -1] = sep
    if slow.any():
        out[slow, :-1] = 0
        out[slow, 0] = _MARKER
    return out, slow


def rows_text(rows: np.ndarray) -> str:
    """The rows of a 2-d float64 array (at least one column) as CSV text:
    each cell's ``repr``, ``,`` between cells and ``\\n`` after each row."""
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    sep = np.full(rows.shape[1], _COMMA)
    sep[-1] = _NEWLINE
    with np.errstate(invalid="ignore"):  # NaN cells compare false, quietly
        out, slow = _cells(x, np.tile(sep, len(rows)))
    limbs = out.view(np.uint8).ravel()
    limbs = limbs[limbs != 0]
    del out
    text = str(limbs, "ascii")
    if not slow.any():
        return text
    del limbs
    parts = text.split(chr(_MARK))
    return parts[0] + "".join(r + p for r, p in zip(map(repr, x[slow].tolist()), parts[1:]))
