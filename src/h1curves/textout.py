"""CSV text of float tables, byte for byte what Python's ``"%.17g"`` prints.

``csv(header, rows)`` formats the flattened table in numpy, a chunk of
whole rows at a time, into one byte buffer that is decoded once.

Digits.  For x with 1e-280 < |x| < 1e280, take k = floor(log10 |x|) and
N = |x| 10**(16 - k) rounded half-even to an int64: the 17 significant
digits of x, and x's exponent k, or k + 1 when N rounds up to 10**17.
When the integer part of the product falls outside [10**16, 10**17),
log10 was one off and k is corrected.  The test is on the int64 integer
part before rounding: 10**17 - 2 and 10**17 round to the same double,
and 1e-12, a double below 10**-12, scales to 10**16 - 0.2.  The product is a double-double: 10**p
is hi + lo, the double nearest 10**p and the double nearest the rest,
both from exact integer arithmetic, and |x| hi is split exactly by
Dekker's two-product.  Below 10**17 the sum misses |x| 10**p by less
than 4e-15: the tail |x| lo <= 11.1 rounds by at most 8.9e-16, the sum of
the two tails (below 32) by 1.8e-15, and 10**p - hi - lo is below
2**-106 10**p, 1.3e-15 after the product.  So the rounding direction is
certain whenever the fraction is farther than _TIE from one half.

Fallback.  Non-finite values, |x| outside (1e-280, 1e280), where the
split overflows and 10**p leaves the double range, and near-ties (exact
ties among them) are formatted by Python's ``"%.17g"`` itself.  Zeros
take the fast path.

Layout.  Each number gets a row of _WIDTH byte slots that holds every
form ``%.17g`` can take: sign, the ``0.000`` of a small number, 17
digits each followed by a point slot, ``e``, the exponent's sign and
three digits, and the separator.  Which slots a number keeps depends
only on its sign, its form (a fixed-point exponent from -4 to 16, or an
exponent of two or three digits) and its count of significant digits, so
the keep mask of each row is gathered from a table of those keys;
``np.compress`` of the flat rows under the flat mask is the text.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv"]

_CHUNK = 4096  # numbers per chunk, rounded down to whole rows
_LIMIT = 1e280  # the fast path takes 1/_LIMIT < |x| < _LIMIT
_K_MAX = 280  # so its decimal exponents k lie in [-_K_MAX, _K_MAX]
_TIE = 1e-12  # fractions within this of one half are formatted by Python
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter

# byte slots of a number's row; the digit j is at 6 + 2j, its point after it
_WIDTH = 46
_TEMPLATE = b"-0.000" + b"0." * 17 + b"e+000,"
_LONGEST = 24  # the longest %.17g text, as "-1.2345678901234567e-300"
_ROW = np.dtype({  # the slots written per number, as whole fields
    "names": ["d0", "g1", "g2", "g3", "g4", "exp"],
    "formats": ["u1", "<u8", "<u8", "<u8", "<u8", "<u4"],
    "offsets": [6, 8, 16, 24, 32, 41],
    "itemsize": _WIDTH,
})
_MASK = np.dtype(f"V{_WIDTH}")  # a row of the keep mask, as one record
# forms: 0-20 fixed point with exponent form - 4, 21 and 22 an exponent of
# two and of three digits; keys (form, significant digits 0-17, sign)
_FORMS = 23
_KEYS = _FORMS * 18 * 2


@functools.cache
def _tables():
    """Lookup tables, built on first use: the digit pairs ("d." four
    times, as uint64) of each 4-digit group, the 1-based place of the
    last nonzero digit of each group (0 for 0), and for each exponent
    k + _K_MAX its form and its text (sign and three digits, as uint32)."""
    i = np.arange(100, dtype=np.uint64)
    two = (i // 10 + 0x2E00_2E30) | (i % 10 + 0x30) << 16  # "d.d." of i
    pairs = (two[:, None] | two << 32).astype("<u8").ravel()
    last2 = np.where(i % 10 != 0, 2, i != 0)
    last = np.where(last2 != 0, 2 + last2, last2[:, None]).ravel()
    k = np.arange(-_K_MAX, _K_MAX + 1)
    form = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22))
    a = np.abs(k)
    text = (np.where(k < 0, ord("-"), ord("+")) | (a // 100 + 0x30) << 8
            | (a // 10 % 10 + 0x30) << 16 | (a % 10 + 0x30) << 24)
    return pairs, last, form, text.astype("<u4")


@functools.cache
def _masks() -> np.ndarray:
    """The keep mask of every key (form, significant digits, negative),
    one _WIDTH-byte record per key."""
    form, nd, neg = (a.ravel() for a in np.indices((_FORMS, 18, 2)))
    fixed = form < 21
    exponent = form - 4
    unit = np.where(fixed, exponent, 0)  # index of the units digit
    lead = np.where(fixed & (exponent < 0), -exponent, -1)  # zeros after "0."
    keep = np.zeros((_KEYS, _WIDTH), dtype=bool)
    keep[:, 0] = neg == 1
    keep[:, 1:6] = np.arange(5) <= lead[:, None]
    keep[:, 6:40:2] = np.arange(17) < np.maximum(nd, unit + 1)[:, None]
    keep[:, 7:40:2] = np.arange(17) == np.where(nd > unit + 1, unit, -1)[:, None]
    keep[:, 40:45] = ~fixed[:, None]
    keep[:, 42] &= form == 22
    keep[:, 45] = True
    return keep.view(_MASK).ravel()


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, lo and the two Veltkamp halves of hi for 10**(16 - k),
    column k + _K_MAX; a column is NaN until ``_power`` fills it."""
    return np.full((4, 2 * _K_MAX + 1), np.nan)


def _power(p: int) -> tuple[float, float, float, float]:
    """hi, lo and the Veltkamp halves of hi, with hi + lo = 10**p to
    2**-106 relative: hi and lo are each correctly rounded from exact
    integers (int / int true division is correctly rounded)."""
    if p >= 0:
        exact = 10**p
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10**-p
        hi = 1 / den
        num, two = hi.as_integer_ratio()
        lo = (two - num * den) / (two * den)
    c = hi * _SPLIT
    big = c - (c - hi)
    return hi, lo, big, hi - big


def _scaled(a: np.ndarray, k: np.ndarray):
    """floor(a 10**(16 - k)) as int64, and the fraction it drops."""
    table = _powers()
    col = k + _K_MAX
    lo, hi = int(col.min()), int(col.max())
    if np.isnan(table[0, lo:hi + 1]).any():
        for c in range(lo, hi + 1):
            table[:, c] = _power(16 - (c - _K_MAX))
    p_hi, p_lo, bh, bl = table[:, col]
    prod = a * p_hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    tail = (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + a * p_lo
    whole = np.floor(tail)
    return prod.astype(np.int64) + whole.astype(np.int64), tail - whole


def _digits(x: np.ndarray):
    """The 17-digit int64 mantissa and the decimal exponent of each of x,
    and whether Python must format it (zeros give 0 and 0)."""
    a = np.abs(x)
    fast = (a > 1.0 / _LIMIT) & (a < _LIMIT)  # False for nan and inf
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k)
    shift = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    off = np.flatnonzero(shift)
    if off.size:
        k[off] += shift[off]
        whole[off], frac[off] = _scaled(a[off], k[off])
    n = whole + (frac > 0.5)
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry] = 10**16
    k += carry
    n[zero] = 0
    k[zero] = 0
    return n, k, (np.abs(frac - 0.5) < _TIE) | ~(fast | zero)


def _fill(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write the slots of each of x into its row of ``chars`` and its keep
    mask into its row of ``keep``; return the indices Python formatted."""
    pairs, last, form, exp_text = _tables()
    row = chars.view(_ROW).ravel()
    n, k, slow = _digits(x)
    d0, rest = np.divmod(n, 10**16)
    high, low = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    row["d0"] = d0 + ord("0")
    for name, g in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4)):
        row[name] = pairs[g]
    row["exp"] = exp_text[k + _K_MAX]
    nd = np.where(g4 != 0, 13 + last[g4],
                  np.where(g3 != 0, 9 + last[g3],
                           np.where(g2 != 0, 5 + last[g2],
                                    np.where(g1 != 0, 1 + last[g1], d0 != 0))))
    key = (form[k + _K_MAX] * 18 + nd) * 2 + np.signbit(x)
    np.take(_masks(), key, out=keep.view(_MASK).ravel())
    fallback = np.flatnonzero(slow)
    if fallback.size:
        text = "".join(f"{v:.17g}".ljust(_WIDTH - 1, "\0") for v in x[fallback].tolist())
        text = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _WIDTH - 1)
        chars[fallback, :-1] = text
        keep[fallback, :-1] = text != 0
    return fallback


def csv(header: list[str], rows) -> str:
    """``header`` joined by commas, then one line per row of the 2-d float
    table ``rows``, each value as ``"%.17g"`` prints it."""
    rows = np.asarray(rows, dtype=float)
    head = np.frombuffer((",".join(header) + "\n").encode("utf-8"), dtype=np.uint8)
    values = rows.ravel()
    out = np.empty(head.size + values.size * (_LONGEST + 1), dtype=np.uint8)
    out[:head.size] = head
    pos = head.size
    if values.size:
        ncols = rows.shape[1]
        chunk = max(1, _CHUNK // ncols) * ncols
        size = min(chunk, values.size)
        template = np.frombuffer(_TEMPLATE, dtype=np.uint8)
        chars = np.empty((size, _WIDTH), dtype=np.uint8)
        chars[:] = template
        chars[ncols - 1::ncols, -1] = ord("\n")
        keep = np.empty((size, _WIDTH), dtype=bool)
        for start in range(0, values.size, chunk):
            x = values[start:start + chunk]
            fallback = _fill(x, chars[:x.size], keep[:x.size])
            text = np.compress(keep[:x.size].ravel(), chars[:x.size].ravel())
            out[pos:pos + text.size] = text
            pos += text.size
            chars[fallback, :-1] = template[:-1]  # the constant slots Python overwrote
    return str(out[:pos].data, "utf-8")
