"""Vectorised "%.17g": each float of an array as a fixed-width row of ASCII
bytes, padded with NUL bytes that the writer deletes.

For a finite v with 1e-9 <= |v| < 1e15 the 17 significant digits are
D = |v| 10^s rounded half to even, s = 16 - X for the decade X of v, and
come from exact integer arithmetic on the bits of v.  X is read from two
tables on the biased exponent E: a binade holds at most one power of ten,
so X is the binade's decade, plus one from the least double not below the
next power of ten.  With |v| = m 2^(E - 1075) (m < 2^53 with its implicit
bit) and sh = 1059 + X - E in [1, 57], |v| 10^s = m 5^s 2^-sh.  A float
product gives D to within 24; m 5^s minus that estimate times 2^sh is then
below 2^63 in magnitude, so uint64 arithmetic that wraps modulo 2^64 gives
it exactly, and with it floor(|v| 10^s) and the bits that decide the
rounding.  Zeros take the path of 1.0 with D = 0.  Non-finite values,
subnormals and other magnitudes are formatted by "%.17g" % v one by one.

The layout follows C's %g at precision 17: fixed notation for -4 <= X < 17,
d.ddd...e-XX otherwise, with trailing zeros and a bare point dropped.  A
column takes a fixed number of passes: the first 8 bytes of each row (sign,
the "0.000" prefix below 1, the first digit and the point that follows it)
are one uint64 from a table on (decade, sign, first digit), and the other
16 digits are four ASCII groups from a table of the 10^4 four-digit
strings.  Only the rows whose last digit is 0 (10% of a generic column)
count their trailing zeros, from the groups, and mask them off with the
point when no digit follows it.  Only rows from 10 up move their integer
digits over the point, and only rows below 1e-4 move their digits over the
empty prefix to make room for "e-XX".
"""

from __future__ import annotations

import math

import numpy as np

_LO, _HI = 1e-9, 1e15
_XMIN, _XMAX = -9, 14  # the decades of the values in [_LO, _HI)
_U64 = np.uint64
_HALF = _U64(1 << 63)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


_ABS = np.int64((1 << 63) - 1)
_FRAC = np.int64((1 << 52) - 1)
_IMPLICIT = np.int64(1 << 52)
_LO_BITS, _ONE_BITS = np.int64(_bits(_LO)), np.int64(_bits(1.0))
_FAST_SPAN = _U64(_bits(_HI) - _bits(_LO))


def _least_double_from(k: int) -> float:
    """The least double not below 10^k."""
    d = float(f"1e{k}")
    num, den = d.as_integer_ratio()
    if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
        d = math.nextafter(d, math.inf)
    return d


# per biased exponent E: the decade index X - _XMIN of the binade's least
# value, and the bits of the least double of the next decade (at most one
# lies inside a binade, as 10 > 2)
_THRESH = np.array([_least_double_from(X) for X in range(_XMIN, _XMAX + 2)]).view(np.int64)
_BINADE_DECADE = np.searchsorted(_THRESH, np.arange(2048) << 52, side="right") - 1
_NEXT_DECADE = _THRESH[np.minimum(_BINADE_DECADE + 1, len(_THRESH) - 1)]

# per decade index: 10^s rounded, 5^s and 1059 + X, from which
# sh = 1059 + X - E
_POW10 = np.array([float(10 ** (16 - X)) for X in range(_XMIN, _XMAX + 1)])
_POW5 = np.array([5 ** (16 - X) for X in range(_XMIN, _XMAX + 1)], dtype=_U64)
_SH_BASE = np.array([1059 + X for X in range(_XMIN, _XMAX + 1)], dtype=_U64)

# A row is [sign][prefix][first digit][point][16 digits]: the "0.000" of
# fixed notation below 1, and the point that follows the first digit in
# exponent form and from 1 to 10.  From 10 up the point slot is empty until
# the integer digits move into it; in exponent form the first digit, point
# and digits move over the empty prefix and "e-XX" follows them.  Bytes a
# value does not use stay NUL.
_PREFIX = 5
_LEAD = 1 + _PREFIX
_POINT = _LEAD + 1
_DIGITS = _POINT + 1  # 8: the sign to the point are one uint64
WIDTH = _DIGITS + 16  # 24, the longest %.17g string


def _layout(X: int):
    """Prefix, point slot and exponent suffix of the decade X."""
    if X >= 0:
        return "", "." if X == 0 else "", ""
    if X >= -4:
        return "0." + "0" * (-X - 1), "", ""
    return "", ".", "e-%02d" % -X


def _heads() -> np.ndarray:
    """The first 8 bytes of a row, as one uint64 per (decade, sign, first
    digit)."""
    rows = np.zeros((_XMAX - _XMIN + 1, 2, 10, _DIGITS), dtype=np.uint8)
    for i, X in enumerate(range(_XMIN, _XMAX + 1)):
        prefix, point, _ = _layout(X)
        row = b"\0" + prefix.encode().ljust(_PREFIX, b"\0") + b"0" + point.encode()
        rows[i] = np.frombuffer(row.ljust(_DIGITS, b"\0"), dtype=np.uint8)
    rows[:, 1, :, 0] = ord("-")
    rows[:, :, :, _LEAD] += np.arange(10, dtype=np.uint8)
    return rows.view(np.uint64).ravel()


_HEADS = _heads()
_SUFFIX = np.array(
    [list(_layout(X)[2].encode().ljust(4, b"\0")) for X in range(_XMIN, _XMAX + 1)],
    dtype=np.uint8,
)
# the ASCII of 0000 to 9999, one uint32 each, and the trailing zeros of
# each, 4 for 0000
_ASCII = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _k in range(4):
    _ASCII[..., _k] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _k))
_ASCII = _ASCII.reshape(10**4, 4)
_GROUPS = _ASCII.view(np.uint32).ravel()
_TRAILING = np.zeros(10**4, dtype=np.int64)
_zeros = np.ones(10**4, dtype=bool)
for _k in range(3, -1, -1):
    _zeros &= _ASCII[:, _k] == ord("0")
    _TRAILING += _zeros
# per number of digits kept (1 to 17), the byte mask of a row, as the uint64
# of its first 8 bytes and the uint32 of each group: the point stays only if
# a digit follows it
_KEEP = np.full((18, WIDTH), 0xFF, dtype=np.uint8)
for _k in range(1, 18):
    _KEEP[_k, _DIGITS + _k - 1 :] = 0
    _KEEP[_k, _POINT] = 0xFF if _k > 1 else 0
_KEEP_HEAD = _KEEP[:, :_DIGITS].copy().view(np.uint64).ravel()
_KEEP_QUADS = _KEEP[:, _DIGITS:].copy().view(np.uint32).T.copy()


def _digits17(a, E, idx):
    """|v| 10^s rounded half to even, for the bits a of |v|, with s and sh
    those of the decade index idx and the biased exponent E."""
    # within 24 of floor(|v| 10^s): two roundings of 2^-53 each, on < 1e17
    q = (a.view(np.float64) * _POW10[idx]).astype(np.int64).view(_U64)
    sh = _SH_BASE[idx] - E
    # the error of q times 2^sh, exactly: it is below 24 2^57 < 2^63 in
    # magnitude, so the product and the shift may wrap modulo 2^64
    m = ((a & _FRAC) | _IMPLICIT).view(_U64)
    r = m * _POW5[idx] - (q << sh)
    D = q + (r.view(np.int64) >> sh.view(np.int64)).view(_U64)
    # the rest, as a fraction of 2^64: above one half rounds up, and so
    # does exactly one half below an odd D
    D += (r << (_U64(64) - sh)) > _HALF - (D & _U64(1))
    return D.view(np.int64)


def write_g17(values, cells) -> None:
    """Write "%.17g" % values[i] into row i of the (n, WIDTH) uint8 array
    cells, padded with NUL.  cells may be a view of rows of a wider array
    whose bytes within a row are contiguous."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = v.view(np.int64)
    a = bits & _ABS
    # false for nan, inf, zeros and subnormals
    fast = (a - _LO_BITS).view(_U64) < _FAST_SPAN
    # the other values are computed as 1.0, with D = 0 for the zeros, and
    # the rest replaced one by one at the end
    other = np.flatnonzero(~fast)
    a[other] = _ONE_BITS
    zero = other[v[other] == 0]

    E = a >> 52
    idx = _BINADE_DECADE[E] + (a >= _NEXT_DECADE[E])
    D = _digits17(a, E.view(_U64), idx)
    D[zero] = 0

    lead = D // 10**16
    rest = D - lead * 10**16
    head = _HEADS[idx * 20 + (bits < 0) * 10 + lead]
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    groups = (g1, hi8 - g1 * 10**4, g3, lo8 - g3 * 10**4)
    quads = [_GROUPS[g] for g in groups]

    # drop trailing zeros, but not the zeros of an integer part
    z = np.flatnonzero(quads[3].view(np.uint8)[3::4] == ord("0"))
    if z.size:
        gz = [g[z] for g in groups]
        tz = _TRAILING[gz[0]]
        for g in gz[1:]:
            tz = np.where(g == 0, tz + 4, _TRAILING[g])
        keep = np.maximum(17 - tz, idx[z] + (_XMIN + 1))
        head[z] &= _KEEP_HEAD[keep]
        for q, mask in zip(quads, _KEEP_QUADS):
            q[z] &= mask[keep]
    cells[:, :_DIGITS].view(np.uint64)[:, 0] = head
    for k, q in enumerate(quads):
        cells[:, _DIGITS + 4 * k : _DIGITS + 4 * k + 4].view(np.uint32)[:, 0] = q
    # from 10 up, the first X + 1 digits come before the point, and the
    # point only if a digit follows
    big = np.flatnonzero(idx > -_XMIN)
    X_big = idx[big] + _XMIN
    for X in np.unique(X_big):
        sel = big[X_big == X]
        cells[sel, _POINT : _POINT + X] = cells[sel, _DIGITS : _DIGITS + X]
        cells[sel, _POINT + X] = np.where(cells[sel, _DIGITS + X] != 0, ord("."), 0)

    # below 1e-04, the exponent form: the digits move over the empty prefix
    tiny = np.flatnonzero(idx < -4 - _XMIN)
    cells[tiny, 1 : WIDTH - _PREFIX] = cells[tiny, _LEAD:]
    cells[tiny, WIDTH - _PREFIX : -1] = _SUFFIX[idx[tiny]]
    cells[tiny, -1] = 0

    for i in other[v[other] != 0]:
        text = ("%.17g" % v[i]).encode("ascii")
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
