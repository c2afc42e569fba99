"""Text of float tables: CSV with the bytes of Python's ``"%.17g"``, and
JSON with the bytes of ``json.dumps(..., indent=2)``.

``csv(header, rows)`` and ``json_table(doc, key, rows)`` are two styles
of one layout engine: the flattened table is formatted in numpy, a chunk
of whole rows at a time, into one byte buffer that also holds the text
before and after the table and is decoded once.

Decimal scaling.  For x with 1e-280 < |x| < 1e280, take k = floor(log10
|x|) and S = |x| 10**(16 - k) = whole + frac, with whole an int64 in
[10**16, 10**17).  When whole falls outside that range, log10 was one off
and k is corrected; the test is on the int64 integer part: 10**17 - 2 and
10**17 are one double, and 1e-12, a double below 10**-12, scales to
10**16 - 0.2.  The product is a double-double: 10**p is hi + lo, the
double nearest 10**p and the double nearest the rest, both from exact
integer arithmetic, and |x| hi is split exactly by Dekker's two-product.
Below 10**17 the sum misses S by less than 4e-15: the tail |x| lo <= 11.1
rounds by at most 8.9e-16, the sum of the two tails (below 32) by
1.8e-15, and 10**p - hi - lo is below 2**-106 10**p, 1.3e-15 after the
product.

CSV digits (``"%.17g"``).  N = S rounded half-even: whole, plus one when
frac > 1/2.  The direction is certain whenever frac is farther than _TIE
(1e-12) from one half.

JSON digits (``repr``, shortest round trip).  Every real within half an
ulp of x reads back as x; scaled, that is the interval (S - H, S + H)
with H = 2**(e - 54) hi for |x| in [2**(e - 1), 2**e), and below a power
of two, where the gap below is half the gap above, (S - H/2, S + H).  H
lies in (0.55, 11.2), so [A, B], the integers inside, is never empty and
B - A <= 23.  The search runs on S less a multiple of 100, below 128, so
its ends and its tie tests are within 2.1e-14 of the exact ones: S is
off by 4e-15, H by at most hi's 2**-53, 1.2e-15, and each of two
roundings below 128 by 7.1e-15.  So unless an end is within _TIE of an
integer, [A, B] is certain.  The shortest digits are a multiple of 10**q
in [A, B] for the largest such q; dtoa's mode 0, which ``repr`` uses,
takes the one nearest S.  With r = whole mod 100 the search runs in
small exact doubles: a multiple of 100 in [A, B] is unique (it is
whole - r, or whole - r + 100), and otherwise the step is 10 if [A, B]
holds a multiple of 10, else 1.  The multiple of the step nearest S lies
in [A, B] when the interval is symmetric; below a power of two it may
lie below A, and then the next one up is taken.  A choice within _TIE of
a tie goes to Python.  Digits of 10**17 carry into the exponent, as in
CSV.

Fallback.  Non-finite values, |x| outside (1e-280, 1e280), where the
split overflows and 10**p leaves the double range, and the near-ties
and interval ends near an integer above are formatted by Python itself:
``"%.17g"`` for CSV, and for JSON ``repr``, or ``NaN``, ``Infinity`` and
``-Infinity`` as ``json.dumps`` spells them.  Exact ones are among them:
from 2**52 to 1e17 S and H are integers, and whether an interval end
reads back depends on the mantissa's parity.  Zeros take the fast path.

Layout.  Each number gets _SLOTS byte slots that hold every form its
text can take: sign, the ``0.000`` of a small number, 17 digits each
followed by a point slot, ``e``, the exponent's sign and three digits.
Which slots a number keeps depends only on its sign, its form (a
fixed-point exponent from -4 up to 16 for ``"%.17g"`` and 15 for
``repr``, which also keeps one digit after the point, or an exponent of
two or three digits) and its count of significant digits, so its keep
mask is gathered from a table of those keys.  The style's separator
follows each number, and a table row ends in the row-end text (for JSON
the row's closing bracket, a comma, the next row's opening bracket and
the indent of its first number); those slots are always kept.
``np.compress`` of the flat rows under the flat mask is the text.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["csv", "json_table"]

_CHUNK = 4096  # numbers per chunk, rounded down to whole rows
_LIMIT = 1e280  # the fast path takes 1/_LIMIT < |x| < _LIMIT
_K_MAX = 280  # so its decimal exponents k lie in [-_K_MAX, _K_MAX]
_TIE = 1e-12  # choices within this of a tie or an interval end go to Python
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_EXPONENT_BITS = 0x7FF0_0000_0000_0000  # a double's biased exponent

# byte slots of a number; the digit j is at 6 + 2j, its point after it
_NUMBER = b"-0.000" + b"0." * 17 + b"e+000"
_SLOTS = len(_NUMBER)
_LONGEST = 24  # the longest text of a number, as "-1.2345678901234567e-300"
# forms: 0-20 fixed point with exponent form - 4, 21 and 22 an exponent of
# two and of three digits; keys (form, significant digits 0-17, sign)
_FORMS = 23


class _Style(NamedTuple):
    digits: Callable  # x -> (int64 digits, exponent, whether Python formats it)
    fallback: Callable  # float -> its text
    fixed: int  # fixed point for exponents -4 <= k < fixed
    point_zero: int  # digits always kept after the point in fixed form
    between: bytes  # the text after a number inside a row
    row_end: bytes  # and after a row's last number
    trim: int  # bytes of the table's last row_end that the closing text replaces


@functools.cache
def _tables():
    """Lookup tables, built on first use: the digit pairs ("d." four
    times, as uint64) of each 4-digit group; for each group and each of
    the four places a group takes after the leading digit, the 1-based
    place of its last nonzero digit among the 17 (0 for 0), as uint8; and
    for each exponent k + _K_MAX its text (sign and three digits, as
    uint32)."""
    i = np.arange(100, dtype=np.uint64)
    two = (i // 10 + 0x2E00_2E30) | (i % 10 + 0x30) << 16  # "d.d." of i
    pairs = (two[:, None] | two << 32).astype("<u8").ravel()
    last2 = np.where(i % 10 != 0, 2, i != 0)
    last = np.where(last2 != 0, 2 + last2, last2[:, None]).ravel()
    places = np.where(last != 0, last + np.array([[1], [5], [9], [13]]), 0).astype(np.uint8)
    k = np.arange(-_K_MAX, _K_MAX + 1)
    a = np.abs(k)
    text = (np.where(k < 0, ord("-"), ord("+")) | (a // 100 + 0x30) << 8
            | (a // 10 % 10 + 0x30) << 16 | (a % 10 + 0x30) << 24)
    return pairs, places, text.astype("<u4")


@functools.cache
def _layout(style: _Style):
    """A style's form of each exponent k + _K_MAX, the keep mask of every
    key (form, significant digits, sign), one _SLOTS-byte record per key,
    and the dtype of a number's slots and the separator after them."""
    k = np.arange(-_K_MAX, _K_MAX + 1)
    form = np.where((k >= -4) & (k < style.fixed), k + 4, np.where(np.abs(k) < 100, 21, 22))
    key_form, nd, neg = (a.ravel() for a in np.indices((_FORMS, 18, 2)))
    fixed = key_form < 21
    exponent = key_form - 4
    unit = np.where(fixed, exponent, 0)  # index of the units digit
    lead = np.where(fixed & (exponent < 0), -exponent, -1)  # zeros after "0."
    shown = np.maximum(nd, unit + 1 + style.point_zero * fixed)  # digits kept
    keep = np.zeros((key_form.size, _SLOTS), dtype=bool)
    keep[:, 0] = neg == 1
    keep[:, 1:6] = np.arange(5) <= lead[:, None]
    keep[:, 6:40:2] = np.arange(17) < shown[:, None]
    keep[:, 7:40:2] = np.arange(17) == np.where(shown > unit + 1, unit, -1)[:, None]
    keep[:, 40:45] = ~fixed[:, None]
    keep[:, 42] &= key_form == 22
    row = np.dtype({  # the slots written per number, as whole fields
        "names": ["d0", "g1", "g2", "g3", "g4", "exp"],
        "formats": ["u1", "<u8", "<u8", "<u8", "<u8", "<u4"],
        "offsets": [6, 8, 16, 24, 32, 41],
        "itemsize": _SLOTS + len(style.between),
    })
    return form, keep.view(f"V{_SLOTS}").ravel(), row


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
    """floor(a 10**(16 - k)) as int64, the fraction it drops, and hi of
    10**(16 - k)."""
    table = _powers()
    col = k + _K_MAX
    lo, hi = int(col.min()), int(col.max())
    if np.isnan(table[0, lo:hi + 1]).any():
        for c in range(lo, hi + 1):
            table[:, c] = _power(16 - (c - _K_MAX))
    p_hi, p_lo, bh, bl = np.take(table, col, axis=1)
    prod = a * p_hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    tail = (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + a * p_lo
    whole = np.floor(tail)
    return prod.astype(np.int64) + whole.astype(np.int64), tail - whole, p_hi


def _decimal(x: np.ndarray):
    """|x| (1 off the fast path), its exponent k, whole and frac of
    S = |x| 10**(16 - k), hi of 10**(16 - k), whether x takes the fast
    path and whether it is zero."""
    a = np.abs(x)
    zero = a == 0.0
    fast = ((a > 1.0 / _LIMIT) & (a < _LIMIT)) | zero  # False for nan and inf
    a = np.where(fast & ~zero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac, hi = _scaled(a, k)
    shift = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    off = np.flatnonzero(shift)
    if off.size:
        k[off] += shift[off]
        whole[off], frac[off], hi[off] = _scaled(a[off], k[off])
    return a, k, whole, frac, hi, fast, zero


def _carried(n: np.ndarray, k: np.ndarray, zero: np.ndarray):
    """Digits of 10**17, rounded up to the next power of ten, carry into
    the exponent; zeros give 0 and 0."""
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    n[zero] = 0
    k[zero] = 0
    return n, k


def _digits(x: np.ndarray):
    """The 17-digit int64 mantissa and the decimal exponent of each of x,
    and whether Python must format it (zeros give 0 and 0)."""
    _, k, whole, frac, _, fast, zero = _decimal(x)
    n, k = _carried(whole + (frac > 0.5), k, zero)
    return n, k, (np.abs(frac - 0.5) < _TIE) | ~fast


def _off_integer(d: np.ndarray) -> np.ndarray:
    """Whether d in [0, 1], a distance past an integer, is within _TIE of one."""
    return np.abs(d - 0.5) > 0.5 - _TIE


def _shortest(x: np.ndarray):
    """The shortest round-trip digits of each of x, nearest |x|, as a
    17-digit int64 (trailing zeros pad them), the decimal exponent, and
    whether Python must format it."""
    a, k, whole, frac, p_hi, fast, zero = _decimal(x)
    bits = a.view(np.int64)
    binade = (bits & _EXPONENT_BITS).view(np.float64)  # 2**(e - 1)
    half = binade * (p_hi * 2.0**-53)  # H
    below = np.where(binade == a, 0.5 * half, half)  # the gap below a power of two is half
    r = whole - whole // 100 * 100
    s = r + frac  # S less the multiple of 100 whole - r
    lo_end = s - below
    hi_end = s + half
    lo = np.ceil(lo_end)  # A and B, less the same multiple
    hi = np.floor(hi_end)
    ends = _off_integer(lo - lo_end) | _off_integer(hi_end - hi)
    step = np.where((lo <= 0.0) | (hi >= 100.0), 100.0,
                    np.where(np.floor(hi / 10.0) * 10.0 >= lo, 10.0, 1.0))
    v = s / step + 0.5
    near = np.floor(v)
    # the multiple of step nearest S is in [A, B], unless the gap below is
    # the shorter one and it lies below A; then the next one up is
    local = np.maximum(near * step, np.ceil(lo / step) * step)
    slow = ~fast | _off_integer(v - near) | ends
    n, k = _carried(whole - r + local.astype(np.int64), k, zero)
    return n, k, slow


def _json_number(v: float) -> str:
    """``v`` as ``json.dumps`` writes it."""
    if math.isfinite(v):
        return repr(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


_CSV = _Style(_digits, "{:.17g}".format, 17, 0, b",", b"\n", 0)
_JSON = _Style(_shortest, _json_number, 16, 1, b",\n      ", b"\n    ],\n    [\n      ",
               len(b",\n    [\n      "))


def _divmod(n: np.ndarray, d: int):
    """np.divmod for n >= 0; numpy divides by a scalar fast, but not its remainder."""
    q = n // d
    return q, n - q * d


def _fill(style: _Style, x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write the slots of each of the 2-d x into its row of ``chars`` and
    its keep mask into its row of ``keep``, both (rows, columns, slots);
    return the flat indices Python formatted."""
    pairs, places, exp_text = _tables()
    form, masks, row_dtype = _layout(style)
    row = chars.view(row_dtype)[..., 0]
    flat = x.ravel()
    n, k, slow = style.digits(flat)
    d0, rest = _divmod(n, 10**16)
    high, low = _divmod(rest, 10**8)
    g1, g2 = _divmod(high, 10**4)
    g3, g4 = _divmod(low, 10**4)
    row["d0"] = (d0 + ord("0")).reshape(x.shape)
    for name, g in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4)):
        row[name] = pairs[g].reshape(x.shape)
    row["exp"] = exp_text[k + _K_MAX].reshape(x.shape)
    nd = np.maximum(np.maximum(places[3, g4], places[2, g3]),
                    np.maximum(places[1, g2], np.maximum(places[0, g1], d0 != 0)))
    key = (form[k + _K_MAX] * 18 + nd) * 2 + np.signbit(flat)
    keep[:, :, :_SLOTS].view(masks.dtype)[..., 0] = masks[key].reshape(x.shape)
    fallback = np.flatnonzero(slow)
    if fallback.size:
        text = "".join(style.fallback(v).ljust(_SLOTS, "\0") for v in flat[fallback].tolist())
        text = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _SLOTS)
        at = np.divmod(fallback, x.shape[1])
        chars[at + (slice(0, _SLOTS),)] = text
        keep[at + (slice(0, _SLOTS),)] = text != 0
    return fallback


def _write(style: _Style, head: str, rows: np.ndarray, tail: str) -> str:
    """``head``, the 2-d float table ``rows`` in ``style`` and ``tail``,
    formatted into one buffer."""
    head = np.frombuffer(head.encode("utf-8"), dtype=np.uint8)
    tail = np.frombuffer(tail.encode("utf-8"), dtype=np.uint8)
    nrows, ncols = rows.shape
    sep = len(style.between)
    extra = len(style.row_end) - sep  # slots a row's end adds
    out = np.empty(head.size + rows.size * (_LONGEST + sep) + nrows * extra + tail.size,
                   dtype=np.uint8)
    out[:head.size] = head
    pos = head.size
    if rows.size:
        # a chunk is whole table rows, each ncols numbers of _SLOTS + sep
        # slots and then ``extra`` slots, all separator slots kept
        size = min(max(1, _CHUNK // ncols), nrows)
        number = _NUMBER + style.between
        template = np.frombuffer(number * (ncols - 1) + _NUMBER + style.row_end, dtype=np.uint8)
        chars = np.empty((size, template.size), dtype=np.uint8)
        chars[:] = template
        keep = np.ones((size, template.size), dtype=bool)
        cells = np.s_[:, :ncols * len(number)]
        slots = chars[cells].reshape(size, ncols, len(number))
        kept = keep[cells].reshape(size, ncols, len(number))
        for start in range(0, nrows, size):
            x = rows[start:start + size]
            m = len(x)
            fallback = _fill(style, x, slots[:m], kept[:m])
            text = np.compress(keep[:m].ravel(), chars[:m].ravel())
            out[pos:pos + text.size] = text
            pos += text.size
            # the constant slots Python overwrote
            slots[np.divmod(fallback, ncols) + (slice(0, _SLOTS),)] = template[:_SLOTS]
        pos -= style.trim
    out[pos:pos + tail.size] = tail
    return str(out[:pos + tail.size].data, "utf-8")


def csv(header: list[str], rows) -> str:
    """``header`` joined by commas, then one line per row of the 2-d float
    table ``rows``, each value as ``"%.17g"`` prints it."""
    return _write(_CSV, ",".join(header) + "\n", np.asarray(rows, dtype=float), "")


def json_table(doc: dict, key: str, rows) -> str:
    """``json.dumps({**doc, key: rows.tolist()}, indent=2) + "\n"`` for the
    2-d float table ``rows``, wherever ``key`` falls in ``doc``."""
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return json.dumps({**doc, key: rows.tolist()}, indent=2) + "\n"
    text = json.dumps({**doc, key: None}, indent=2)
    # a top-level key line: nested lines are indented deeper, and strings
    # hold no raw newline
    mark = f"\n  {json.dumps(key)}: null"
    at = text.index(mark) + len(mark) - len("null")
    return _write(_JSON, text[:at] + "[\n    [\n      ", rows,
                  "\n  ]" + text[at + len("null"):] + "\n")
