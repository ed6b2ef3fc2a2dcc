"""Number text: the float and integer printers of the writer, and the decoder of the reader."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BadNumber, ParseError


# --- float text -------------------------------------------------------------------
#
# `_fmt_array` prints float64 values as the exact bytes of
# " ".join("%.9g" % x for x in values), a chunk at a time in numpy. Per value
# it finds the decimal exponent e and the 9-digit mantissa m (the value times
# 10**(8 - e), rounded), and looks up three 8-byte slots of ASCII padded with
# NUL: separator, sign and any "0.000" lead; digits 1-6 with the point; digits
# 7-9 with any "e+XX". The NULs are then dropped. The scaled value carries at
# most two roundings, so it is within 2**-22 of the exact product, and rint
# gives the correctly rounded mantissa unless the fraction is within 2**-20
# of one half. Such near-ties, exponents outside [_E_MIN, _E_MAX],
# subnormals, nan and infinities are printed by "%.9g" one at a time.

FLOAT_DIGITS = 9  # significant digits of every float printed: the 9 of "%.9g"
_E_MIN, _E_MAX = -36, 30
_NEAR_TIE = 0.5 - 2.0**-20
_CHUNK = 16384  # values per chunk, which bounds the temporaries


def _ascii_slots(texts) -> np.ndarray:
    """Each text as one little-endian uint64 of its bytes padded with NUL."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), "<u8")


def _float_tables():
    # The value times 10**k, k = 8 - e, is a * mul[i] / div[i] * mul2[i] for
    # i = e - _E_MIN, with exact powers of ten: one rounding for |k| <= 22,
    # two up to k = 44.
    k = 8 - np.arange(_E_MIN, _E_MAX + 1)
    mul, div, mul2 = (
        np.array([float(10**n) for n in np.clip(j, 0, 22).tolist()]) for j in (k, -k, k - 22)
    )
    # Digit groups: group g (000-999) as c digits with a point after the q-th
    # (q = 0: none), at index 16 g + 4 c + q.
    groups = _ascii_slots(
        d[:q] + "." + d[q:c] if 1 <= q <= c else d[:c]
        for d in ("%03d" % g for g in range(1000))
        for c in range(4)
        for q in range(4)
    )
    trailing_zeros = np.array([3 - len(("%03d" % g).rstrip("0")) for g in range(1000)])
    # Per (e, s) with s the significant digits left after trailing zeros are
    # stripped (s = 0 for zero): each group's 4 c + q, the exponent, and the
    # lead for either sign.
    layout = np.zeros((3, len(k) * 10), np.intp)
    exponent, lead = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < 9
        point = e + 1 if fixed and e >= 0 else int(not fixed)  # digits before the point
        zeros = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        for s in range(10):
            kept = max(s, point) if s else 0
            for j in range(3):
                q = point - 3 * j
                layout[j, (e - _E_MIN) * 10 + s] = 4 * min(max(kept - 3 * j, 0), 3) + (
                    q if 1 <= q <= 3 and kept > point else 0
                )
            exponent.append("" if fixed or not s else "e%+03d" % e)
            lead += [" " + zeros, " -" + zeros] if s else [" 0", " -0"]
    shift = np.uint64(32)
    return (
        mul, div, mul2, groups, groups << shift, trailing_zeros, layout,
        _ascii_slots(exponent) << shift, _ascii_slots(lead),
    )


(
    _MUL, _DIV, _MUL2, _GROUP, _GROUP_HI, _TRAILING_ZEROS, _LAYOUT, _EXPONENT_HI, _LEAD,
) = _float_tables()
# The last row of every 4x4 matrix the writer prints.
_MATRIX_TAIL = _ascii_slots([" 0 0 0 1"])[0]


def _decimal(x: np.ndarray) -> tuple:
    """Per value of the 1-D float64 `x`: the 9-digit mantissa m as a float
    (0 for zero), the exponent e as the index e - _E_MIN, and whether the
    value must be printed by "%.9g" instead (m and the index are then 0 and
    in range, but meaningless)."""
    a = np.abs(x)
    zero = a == 0
    regular = ~zero & (a < np.inf)
    a = np.where(regular, a, 1.0)
    top = _E_MAX - _E_MIN
    i = np.clip(np.floor(np.log10(a)).astype(np.intp) - _E_MIN, 0, top)
    p = a * _MUL[i] / _DIV[i] * _MUL2[i]
    off = np.flatnonzero((p < 1e8) | (p >= 1e9))  # log10 one off, or e out of range
    if len(off):
        i[off] = np.clip(i[off] + np.where(p[off] < 1e8, -1, 1), 0, top)
        io = i[off]
        p[off] = a[off] * _MUL[io] / _DIV[io] * _MUL2[io]
    m = np.rint(p)
    fallback = (np.abs(p - m) >= _NEAR_TIE) | (p < 1e8) | (p >= 1e9) | (~regular & ~zero)
    carry = m == 1e9
    m[carry] = 1e8
    i[carry] += 1
    fallback |= i > top
    m[zero | fallback] = 0
    np.minimum(i, top, out=i)
    return m, i, fallback


def _fmt_chunk(x: np.ndarray, tail_every: int) -> str:
    """The text of the 1-D float64 `x`, each value preceded by a space, with
    ``_MATRIX_TAIL`` after every `tail_every` values (0: never)."""
    m, i, fallback = _decimal(x)
    m = m.astype(np.int64)
    g0 = m // 1000000
    m -= g0 * 1000000
    g1 = m // 1000
    g2 = m - g1 * 1000
    tz = np.where(
        g2 != 0,
        _TRAILING_ZEROS[g2],
        3 + np.where(g1 != 0, _TRAILING_ZEROS[g1], 3 + _TRAILING_ZEROS[g0]),
    )
    key = i * 10 + (9 - tz)
    slots = [
        _LEAD[2 * key + np.signbit(x)],
        _GROUP[16 * g0 + _LAYOUT[0, key]] | _GROUP_HI[16 * g1 + _LAYOUT[1, key]],
        _GROUP[16 * g2 + _LAYOUT[2, key]] | _EXPONENT_HI[key],
    ]
    for j in np.flatnonzero(fallback).tolist():
        text = (" %.*g" % (FLOAT_DIGITS, x[j])).encode("ascii").ljust(24, b"\0")
        for slot, word in zip(slots, np.frombuffer(text, "<u8")):
            slot[j] = word

    if tail_every:
        record = np.empty((len(x) // tail_every, 3 * tail_every + 1), "<u8")
        record[:, -1] = _MATRIX_TAIL
    else:
        tail_every = 1
        record = np.empty((len(x), 3), "<u8")
    for j, slot in enumerate(slots):
        record[:, j : 3 * tail_every : 3] = slot.reshape(-1, tail_every)
    return record.tobytes().translate(None, b"\0").decode("ascii")


def _fmt_chunks(values: np.ndarray, tail_every: int = 0) -> list[str]:
    """The text of `_fmt_array` as its chunk texts, in order."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    step = _CHUNK - _CHUNK % tail_every if tail_every else _CHUNK
    texts = [_fmt_chunk(flat[lo : lo + step], tail_every) for lo in range(0, len(flat), step)]
    if texts:
        texts[0] = texts[0][1:]  # the separator before the first value
    return texts


def _fmt_array(values: np.ndarray, tail_every: int = 0) -> str:
    """`values` printed as " ".join("%.9g" % x for x in values.ravel()), with
    " 0 0 0 1" after every `tail_every` values (0: never; 12 prints row-major
    4x4 matrices from their top three rows)."""
    return "".join(_fmt_chunks(values, tail_every))


# --- integer text ---------------------------------------------------------------
#
# `_fmt_ints` prints each value as its 3-digit groups from `_GROUP`'s slots,
# one 4-byte slot per group, right-aligned to the largest value's groups:
# inner groups with their leading zeros, the leading group without them, and
# NUL where a value has no group. Index g + 1000 picks inner group g, index g
# the leading one (g * 10**(3 - c) as its first c digits); 0 is no group.

_INT_GROUPS = np.concatenate([
    _GROUP[[16 * g * 10 ** (3 - len(str(g))) + 4 * len(str(g)) for g in range(1000)]],
    _GROUP[16 * np.arange(1000) + 12],
]).astype("<u4")
_INT_GROUPS[0] = 0


def _fmt_ints(values: np.ndarray) -> str:
    """The non-negative integers `values` printed as
    " ".join(map(str, values.ravel()))."""
    flat = np.asarray(values, dtype=np.int64).ravel()
    if not len(flat):
        return ""
    if flat.min() < 0:
        raise ValueError("only non-negative integers are printed")
    width = -(-len(str(flat.max())) // 3)
    record = np.empty((len(flat), width + 1), "<u4")
    record[:, 0] = ord(" ")
    record[0, 0] = 0  # no separator before the first value
    rest = flat
    for j in range(width, 0, -1):
        rest, group = np.divmod(rest, 1000)
        record[:, j] = _INT_GROUPS[group + 1000 * (rest > 0)]
    record[flat == 0, width] = ord("0")
    return record.tobytes().translate(None, b"\0").decode("ascii")


def _finite(values, what: str):
    """`values`, which must be finite, since read_collada rejects nan and
    infinities: otherwise BadNumber."""
    if not np.isfinite(values).all():
        raise BadNumber(f"{what} is not finite", module="export")
    return values


_INT64 = np.iinfo(np.int64)
# Characters per ``np.loadtxt`` call: it holds 6-7 bytes per character.
_FLOAT_SLICE = 1 << 16
# Whitespace to ``np.loadtxt`` (as to ``str.isspace``), but not to C's isspace.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _numbers(text: str | None, dtype=np.float64, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The numbers of ``text[lo:hi]``, separated by ASCII whitespace, as
    ``np.fromstring(text[lo:hi], dtype, sep=" ")`` read them, bit for bit;
    blank text is empty. Floats must be finite; integers are ASCII digits
    with an optional sign, strictly inside int64 (``np.fromstring``
    saturated both ways to the int64 maximum).

    ``np.loadtxt`` decodes the text in slices cut at a space, each one row,
    so the text is never copied whole. It takes non-ASCII spaces and
    ``_SEPARATORS`` for whitespace, so a slice holding them is refused,
    blank or not; it ends a row at CR and LF, so they become spaces; it
    warns on a row with no number, so a blank slice is skipped; and numpy
    1.x reads an integer token it cannot parse through a float and warns
    DeprecationWarning, a refusal here.
    """
    text = text or ""
    hi = len(text) if hi is None else hi
    pieces = [np.empty(0, dtype)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            while lo < hi:
                cut = text.find(" ", lo + _FLOAT_SLICE, hi)
                cut = hi if cut < 0 else cut
                piece = text[lo:cut]
                if not piece.isascii() or any(c in piece for c in _SEPARATORS):
                    raise ValueError
                piece = piece.replace("\n", " ").replace("\r", " ")
                if not piece.isspace():
                    pieces.append(np.loadtxt([piece], dtype=dtype, comments=None, ndmin=1))
                lo = cut
    except (ValueError, DeprecationWarning):
        raise ParseError(f"bad {np.dtype(dtype)} in array text", module="export") from None
    values = np.concatenate(pieces)
    del pieces  # before the checks' temporaries
    if dtype is np.float64:
        if not np.isfinite(values).all():
            raise ParseError("non-finite number in array text", module="export")
    elif ((values == _INT64.max) | (values == _INT64.min)).any():
        raise ParseError("bad int64 in array text", module="export")
    return values
