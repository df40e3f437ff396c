"""The CSV text of a float64 table: each value as '%.17g' writes it.

'%.17g' prints a finite x in fixed notation when its decimal exponent X,
that of x rounded to 17 significant digits, lies in [-4, 17).  For
1e-4 <= |x| < 1e16 the digits are the integer D = round(|x| 10^(16-X)),
half to even, found in integer arithmetic on the binary value (Steele &
White, "How to print floating-point numbers accurately", PLDI 1990): with
|x| = M 2^e and M the 53-bit significand, |x| 10^(16-X) = M 5^(16-X)
2^(e+16-X), a product held in two uint64 words and shifted.  X starts as
floor(log10|x|) and steps by one wherever D falls outside [10^16, 10^17).
0 and -0 are written as '0' and '-0', and every other value goes through
'%.17g' itself.  No floating-point rounding enters the digits, so the text
is that of '%.17g' on any platform.
"""

from __future__ import annotations

import numpy as np

_POW5 = np.array([5**q for q in range(24)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
# A value's slot: '-', '0', '.', three '0's, then the 17 digits each followed
# by a '.', the last of which the separator replaces; 8 bytes are a uint64.
_SLOT = 40
_HEAD = np.frombuffer(b"-0.0000.", dtype=np.uint8).view(np.uint64)[0]
# the longest text '%.17g' writes, as -2.2250738585072014e-308
_WIDE = 24


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group g: its digits with a '.' after each, as one uint64,
    and its count of trailing zeros (4 for 0)."""
    g = np.arange(10_000)
    words = np.full((g.size, 8), ord("."), dtype=np.uint8)
    for j, power in enumerate((1000, 100, 10, 1)):
        words[:, 2 * j] = ord("0") + g // power % 10
    zeros = sum((g % power == 0).astype(np.int64) for power in (10, 100, 1000, 10_000))
    return words.view(np.uint64).ravel(), zeros


def _keep_table() -> np.ndarray:
    """The bytes of a slot to keep.  Row (sign * 20 + X + 4) * 18 + n, for a
    value of sign 1 if negative, exponent X in [-4, 15] and n significant
    digits, keeps the sign, '0.' and -X-1 zeros if X < 0, the first max(n,
    X + 1) digits, the point after digit X if X >= 0 and digits follow it,
    and the separator.  Row 720 keeps the first _WIDE bytes and the
    separator, for a value written by '%.17g' itself, and rows 721 and 722
    the '0' of 0 and the '-0' of -0 and the separator."""
    sign = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 16)[None, :, None, None]
    n = np.arange(18)[None, None, :, None]
    col = np.arange(_SLOT)
    i = (col - 6) // 2  # the digit, or the point after it, at col >= 6
    digit = (col >= 6) & (col % 2 == 0)
    point = (col >= 7) & (col % 2 == 1) & (col < _SLOT - 1)
    fixed = (
        ((col == 0) & (sign == 1))
        | ((col >= 1) & (col < 3) & (x < 0))
        | ((col >= 3) & (col < 6) & (col - 3 < -x - 1))
        | (digit & (i < np.maximum(n, x + 1)))
        | (point & (x >= 0) & (i == x) & (n > x + 1))
        | (col == _SLOT - 1)
    )
    written = (col < _WIDE) | (col == _SLOT - 1)
    zero = (col == 1) | (col == _SLOT - 1)
    return np.concatenate([fixed.reshape(-1, _SLOT), [written, zero, zero | (col == 0)]])


_DIGIT_WORDS, _TRAILING_ZEROS = _digit_tables()
_KEEP = _keep_table()
_WRITTEN = 2 * 20 * 18  # _KEEP's row for a text that '%.17g' wrote, then 0 and -0


def _scaled(sig: np.ndarray, exp2: np.ndarray, x10: np.ndarray) -> np.ndarray:
    """round(sig 2^exp2 10^(16 - x10)), half to even, for a 53-bit sig, where
    -5 <= x10 <= 16 and the result lies below 2^63.  The product
    (sig 2^10) 5^(16 - x10) takes at most 113 bits, and the right shift by
    r = 10 - exp2 - (16 - x10) then lies in [8, 56]."""
    q = 16 - x10
    p = _POW5[q]
    right = (10 - exp2 - q).astype(np.uint64)
    sig = sig << 10
    sig_lo, sig_hi, p_lo, p_hi = sig & _LOW32, sig >> 32, p & _LOW32, p >> 32
    low = sig_lo * p_lo
    mid = sig_lo * p_hi + sig_hi * p_lo
    lo = low + (mid << 32)
    hi = sig_hi * p_hi + (mid >> 32) + (lo < low)
    d = (lo >> right) | (hi << (64 - right))
    rest = lo & ((1 << right) - 1)
    half = 1 << (right - 1)
    return d + ((rest > half) | ((rest == half) & ((d & 1) == 1)))


def _decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per positive finite value: the 17 digits D as an integer and the
    decimal exponent X of the value rounded to them; and the indices of the
    values left with D outside [10^16, 10^17), which two steps always empty."""
    fraction, exp2 = np.frexp(magnitude)
    sig = (fraction * 2.0**53).astype(np.uint64)
    exp2 = exp2.astype(np.int64) - 53
    x10 = np.floor(np.log10(magnitude)).astype(np.int64)
    d = _scaled(sig, exp2, x10)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    # log10 can miss X by one, and rounding to 17 digits can carry into the
    # next decade
    for _ in range(2 if off.size else 0):
        x10[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _scaled(sig[off], exp2[off], x10[off])
        off = off[(d[off] < 10**16) | (d[off] >= 10**17)]
    return d, x10, off


def csv_rows(table: np.ndarray) -> str:
    """Each row of a 2-d float table as one line of %.17g values."""
    rows, cols = table.shape
    values = table.ravel()
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    # the digits are worked out only for the values in that range; a slice
    # when that is all of them spares the scatters
    at = np.flatnonzero(fast)
    if at.size == values.size:
        at = slice(None)
    d, x10, off = _decimal(magnitude[at])
    good = (x10 >= -4) & (x10 <= 15)
    good[off] = False
    fast[at] = good
    # D = first 10^16 + a 10^8 + b, and a and b hold two 4-digit groups each
    a = d // 10**8
    b = (d - a * 10**8).astype(np.uint32)
    a = a.astype(np.uint32)
    first = a // 10**8
    a -= first * 10**8
    groups = (a // 10**4, a % 10**4, b // 10**4, b % 10**4)
    # trailing zeros of D, group by group from the last, for the few values
    # whose later groups are all 0; the first digit is never 0
    zeros = _TRAILING_ZEROS[groups[3]]
    for count, group in zip((4, 8, 12), groups[2::-1]):
        more = np.flatnonzero(zeros == count)
        zeros[more] = count + _TRAILING_ZEROS[group[more]]
    words = np.empty((values.size, _SLOT // 8), dtype=np.uint64)
    words[:, 0] = _HEAD
    for j, group in enumerate(groups, start=1):
        words[at, j] = _DIGIT_WORDS[group]
    slots = words.view(np.uint8)
    slots[at, 6] = ord("0") + first
    slots.reshape(rows, cols, _SLOT)[:, :, -1] = [ord(",")] * (cols - 1) + [ord("\n")]
    sign = np.signbit(values)
    zero = magnitude == 0
    code = _WRITTEN + (1 + sign) * zero
    code[at] = np.where(good, (sign[at] * 20 + x10 + 4) * 18 + 17 - zeros, _WRITTEN)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        # padded with spaces to one width, which bytes.translate deletes below
        text = (f"%-{_WIDE}.17g" * slow.size % tuple(values[slow].tolist())).encode("ascii")
        slots[slow, :_WIDE] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDE)
    # the dropped bytes become 0 and bytes.translate deletes them, faster than
    # np.compress; a boolean index of this irregular mask mispredicts branches
    # and is several times slower
    slots *= _KEEP[code]
    return slots.tobytes().translate(None, b"\0 ").decode("ascii")
