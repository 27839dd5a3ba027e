"""Vectorised "%.17g": each float of an array as a fixed-width row of ASCII
bytes, padded with NUL bytes that the writer deletes.

For a finite v with 1e-10 <= |v| < 1e15 the 17 significant digits come from
exact integer arithmetic.  With |v| = m 2^E (m < 2^53) and decade X, they are
D = m 5^s 2^(E+s) for s = 16 - X, rounded half to even.  m 5^s (s <= 27) is a
128-bit product of 32-bit limbs held in uint64 words, and -(E + s) lies in
[1, 61], so D is a right shift of it.  The layout follows C's %g at
precision 17: fixed notation for -4 <= X < 17, d.ddd...e-XX otherwise, with
trailing zeros and a bare point dropped.  Every other value (zero, -0.0,
inf, nan and magnitudes outside the range) is formatted by "%.17g" % v.
"""

from __future__ import annotations

import numpy as np

_LO, _HI = 1e-10, 1e15
_XMIN, _XMAX = -10, 14  # the decades of the values in [_LO, _HI)
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**s for s in range(28)], dtype=_U64)
_D_LO, _D_HI = _U64(10**16), _U64(10**17)

# A row is [sign][prefix][17 digits and a point][exponent]: the "0.000" of
# fixed notation below 1, then the digits with a point after the first p of
# them, then "e-XX".  p is X + 1 in fixed notation from 1 up and 1 in
# exponent form.  Below 1 the point is in the prefix, and p = 17 puts the
# body's point after the last digit, where it never shows.  Bytes a value
# does not use stay NUL.
_PREFIX, _BODY_LEN, _EXP = 5, 18, 4
WIDTH = 1 + _PREFIX + _BODY_LEN + _EXP  # >= 24, the longest %.17g string


def _layout(X: int):
    """Prefix, p and exponent suffix of the decade X."""
    if X >= 0:
        return "", X + 1, ""
    if X >= -4:
        return "0." + "0" * (-X - 1), 17, ""
    return "", 1, "e-%02d" % -X


def _static_rows() -> np.ndarray:
    rows = []
    for X in range(_XMIN, _XMAX + 1):
        prefix, _, suffix = _layout(X)
        row = b"\0" + prefix.encode().ljust(_PREFIX, b"\0") + b"\0" * _BODY_LEN
        rows.append(row + suffix.encode().ljust(_EXP, b"\0"))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, WIDTH)


# per decade: the row without sign and digits (as one void item per row, so
# that picking rows copies whole rows), and where the point goes
_STATIC = _static_rows().view(np.dtype((np.void, WIDTH))).ravel()
_POINT_AT = np.array([_layout(X)[1] for X in range(_XMIN, _XMAX + 1)])
_BODY = 1 + _PREFIX
_COLS = np.arange(17)


def _shifted(m, e, X):
    """floor(m 5^s 2^-sh) with s = 16 - X and sh = 53 - e - s, and whether
    rounding half to even takes it one up."""
    s = 16 - X
    p = _POW5[s]
    sh = (53 - e - s).astype(_U64)
    m0, m1 = m & _M32, m >> _U64(32)
    p0, p1 = p & _M32, p >> _U64(32)
    ll, lh, hl = m0 * p0, m0 * p1, m1 * p0
    mid = (ll >> _U64(32)) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | (mid << _U64(32))
    hi = m1 * p1 + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    trunc = (lo >> sh) | (hi << (_U64(64) - sh))
    rem = lo & ((_U64(1) << sh) - _U64(1))
    half = _U64(1) << (sh - _U64(1))
    up = (rem > half) | ((rem == half) & ((trunc & _U64(1)) == _U64(1)))
    return trunc, up


def _digit_chars(D, out):
    """Write the 17 decimal digits of each D, most significant first, as
    ASCII into the columns of out."""
    # two uint32 halves: 32-bit division is much cheaper than 64-bit
    hi = D // _U64(10**9)
    parts = ((hi.astype(np.uint32), 7, 8),
             ((D - hi * _U64(10**9)).astype(np.uint32), 16, 9))
    for d, last, n in parts:
        for k in range(last, last - n, -1):
            q = d // np.uint32(10)
            out[:, k] = d - q * np.uint32(10) + np.uint32(ord("0"))
            d = q


def _fast_rows(a, negative):
    """Rows of the values 1e-10 <= a < 1e15."""
    f, e = np.frexp(a)
    m = (f * 2.0**53).astype(_U64)
    e = e.astype(np.int64)
    X = np.floor(np.log10(a)).astype(np.int64)
    trunc, up = _shifted(m, e, X)
    # correct the decade from the truncated digits: the rounded ones would put
    # 9.9999999999999995e-08 (the double nearest 1e-07) in the decade of 1e-07
    fix = np.flatnonzero((trunc < _D_LO) | (trunc >= _D_HI))
    if fix.size:
        X[fix] += np.where(trunc[fix] < _D_LO, -1, 1)
        trunc[fix], up[fix] = _shifted(m[fix], e[fix], X[fix])
    # rounding never carries into the next decade: the double nearest below
    # each 10^e in range is at least 4.5e-17 of it away (e = -7, -6), more
    # than half a unit of the 17th digit, 5e-18 of it
    D = trunc + up.astype(_U64)

    row = X - _XMIN
    rows = _STATIC[row].view(np.uint8).reshape(a.size, WIDTH)
    rows[:, 0] = np.where(negative, ord("-"), 0)
    digits = rows[:, _BODY : _BODY + 17]
    _digit_chars(D, digits)
    # drop trailing zeros, but not the zeros of an integer part
    nsig = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keep = np.maximum(nsig, np.maximum(X, 0) + 1)
    digits *= _COLS < keep[:, None]
    # the point goes after the first p digits, and only if a digit follows
    point_at = _POINT_AT[row]
    for p in np.unique(point_at[point_at < 17]):
        sel = np.flatnonzero(point_at == p)
        col = _BODY + p
        point = np.where(rows[sel, col] != 0, ord("."), 0)
        rows[sel, col + 1 : _BODY + 18] = rows[sel, col : _BODY + 17]
        rows[sel, col] = point
    return rows


def g17_cells(values) -> np.ndarray:
    """(n, WIDTH) uint8 array whose row i, with its NUL bytes deleted, is
    the ASCII of "%.17g" % values[i]."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= _LO) & (a < _HI)  # false for nan
    # the rows of the other values are computed for 1.0 and then replaced
    cells = _fast_rows(np.where(fast, a, 1.0), v < 0)
    for i in np.flatnonzero(~fast):
        text = ("%.17g" % v[i]).encode("ascii")
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells
