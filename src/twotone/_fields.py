"""The ``%.17g`` field kernel behind :func:`twotone.tables.write_csv`.

:mod:`twotone.tables` describes the algorithm, its guard and its error
bound, and why one call keeps its temporaries in one workspace.
``write_csv`` imports this module when it writes its first table, so
``import twotone`` does not compile the kernel.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_MARGIN = 1e-6  # guard band around a rounding half, far above the 2^-46 error
BLOCK = 8192  # most rows formatted at once: bounds the workspace on huge grids


def _in_range(a):
    """Magnitudes the kernel formats: false for zero, nan, inf and the extremes."""
    return (a >= 1e-280) & (a <= 1e280)


def _split(a, out):
    """Dekker's split a = high + low into the rows ``out`` = (high, low)."""
    high, low = out
    np.multiply(a, _SPLIT, out=high)  # t
    np.subtract(high, np.subtract(high, a, out=low), out=high)  # t - (t - a)
    np.subtract(a, high, out=low)


# the text of i = 0000..9999 as one little-endian uint32 word, and its trailing zeros
_PLACES = np.stack(np.unravel_index(np.arange(10000), (10, 10, 10, 10)), axis=1)
_ASCII4 = (_PLACES + ord("0")).astype(np.uint8).view("<u4")[:, 0]
_ZEROS4 = np.cumprod(_PLACES[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.int16)
del _PLACES


def kernel_tables(table: np.ndarray) -> tuple:
    """The lookup tables the kernel shares across the row blocks of ``table``.

    They cover the decimal exponents X = low, low + 1, ..., high: those of
    the smallest and the largest in-range magnitude in ``table``, one more
    on either side, and 0, which guarded fields are given. Column X - low of
    ``powers`` is (hi, hi_high, hi_low, lo) of 10^(16 - X): hi correctly
    rounded, (hi_high, hi_low) its Dekker split and lo the rounded rest, all
    from exact integers. ``lengths[(X - low) * 18 + n]`` is the length of a
    field of n significant digits, the sign column included.
    """
    a = np.abs(table.ravel())
    a = a[_in_range(a)]
    ends = np.floor(np.log10([a.min(), a.max()])).astype(int).tolist() if a.size else [0, 0]
    low, high = min(ends[0] - 1, 0), max(ends[1] + 1, 0)

    powers = np.empty((4, high - low + 1))
    for j, k in enumerate(range(16 - low, 15 - high, -1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        n, d = hi.as_integer_ratio()
        powers[0, j], powers[3, j] = hi, (num * d - n * den) / (den * d)
    _split(powers[0], powers[1:3])

    x = np.arange(low, high + 1)[:, None]
    n = np.arange(18)
    lengths = np.where(
        (x < -4) | (x >= 17),
        n + (n > 1) + 5 + (np.abs(x) >= 100),  # d.ddde+xx
        np.where(x < 0, 2 - x + n, np.where(n > x + 1, n + 2, x + 2)),  # 0.000ddd, ddd.ddd
    )
    return low, powers, lengths.astype(np.int16).ravel()


def _carve(rows, shape, dtype):
    """A C-ordered ``dtype`` array of ``shape`` on the memory of consecutive workspace rows."""
    return rows.reshape(-1).view(dtype)[: shape[0] * shape[1]].reshape(shape)


def format_rows(table, low, powers, lengths) -> np.ndarray:
    """CSV lines of a 2-d float table as a uint8 array: ``%.17g`` fields, ``,`` and newline separated."""
    rows, cols = table.shape
    x = table.ravel()
    count = x.size
    # Every temporary of `count` entries lives in one workspace of 12 rows,
    # whose rows each phase takes over from the last:
    #   numbers  0 a, 1-4 powers, 5-6 split of a, 7 p, 8 c, 9 t, 10 d, 11 floor(c)
    #   digits   0 sorted d, 1 lead, 2-4 rest, 5-8 groups, 9-11 words
    #   text     0-3 buf, 4-7 out, 8-11 mask (a field and its separator take at most 26 bytes)
    ws = np.empty((12, count))
    ints = ws.view(np.int64)
    a, hi, hi_high, hi_low, lo, a_high, a_low, p, c, t = ws[:10]
    np.abs(x, out=a)
    ok = _in_range(a)
    a[~ok] = 1.0

    # D = round(a * 10^(16 - X)) = p + round(c), p = fl(a * hi) an integer
    key = np.floor(np.log10(a, out=t), out=t).astype(np.int16)
    key -= low
    # take(..., out=) buffers `out` unless mode="clip"; every index here is in range
    np.take(powers, key, axis=1, out=ws[1:5], mode="clip")
    _split(a, ws[5:7])
    np.multiply(a, hi, out=p)
    # c = ((a_high hi_high - p) + a_high hi_low + a_low hi_high) + a_low hi_low + a lo
    np.subtract(np.multiply(a_high, hi_high, out=c), p, out=c)
    c += np.multiply(a_high, hi_low, out=t)
    c += np.multiply(a_low, hi_high, out=t)
    c += np.multiply(a_low, hi_low, out=t)
    c += np.multiply(a, lo, out=t)
    whole = np.floor(c, out=t)
    frac = np.subtract(c, whole, out=c)
    d, whole_int = ints[10:12]
    np.copyto(d, p, casting="unsafe")
    np.copyto(whole_int, whole, casting="unsafe")
    d += whole_int  # floor(D)
    ok &= np.abs(np.subtract(frac, 0.5, out=t), out=t) >= _MARGIN
    ok &= d >= 10**16
    d += frac > 0.5
    ok &= d < 10**17
    d[~ok] = 10**16  # any 17-digit value: Python formats these fields

    # fields sorted by X, the guarded ones last
    guard = powers.shape[1]
    key[~ok] = guard
    order = np.argsort(key, kind="stable")
    key = key[order]
    d = np.take(d, order, out=ints[0], mode="clip")

    # the 17 digits: the leading one and four 4-digit groups
    lead, rest, upper, lower = ints[1:5]
    groups = ints[5:9]
    np.divmod(d, 10**16, out=(lead, rest))
    np.divmod(rest, 10**8, out=(upper, lower))
    np.divmod(upper, 10**4, out=(groups[0], groups[1]))
    np.divmod(lower, 10**4, out=(groups[2], groups[3]))
    words = _carve(ws[9:12], (count, 5), "<u4")
    words[:, 0] = (lead.astype(np.uint32) + ord("0")) << 24
    for j, g in enumerate(groups, 1):
        words[:, j] = _ASCII4[g]
    digits = words.view(np.uint8)[:, 3:]
    trailing = _ZEROS4[groups[3]]
    for j in (2, 1, 0):  # rare: a zero group, and the zeros run on
        more = np.flatnonzero(trailing == 4 * (3 - j))
        if not more.size:
            break
        trailing[more] += _ZEROS4[groups[j][more]]

    # column 0 holds a "-" that only negative fields keep; a field ends at `length`
    length = np.take(lengths, key * 18 + 17 - trailing, mode="clip")  # guarded: set below
    guarded = int(np.searchsorted(key, guard))
    texts = ["%.17g" % v for v in x[order[guarded:]].tolist()]
    length[guarded:] = [len(t) + 1 for t in texts]

    starts = [0, *(np.flatnonzero(np.diff(key[:guarded])) + 1).tolist()]
    layouts = [k + low for k in key[starts].tolist()] if guarded else []
    # one column past the longest field and past the digits each layout writes
    width = max([int(length.max()) + 1] + [19 - xe if -4 <= xe < 0 else 19 for xe in layouts])
    buf = _carve(ws[0:4], (count, width), np.uint8)
    buf[:, 0] = ord("-")
    flat = buf.reshape(-1)
    for s, e, xe in zip(starts, [*starts[1:], guarded], layouts):
        block, dig = buf[s:e], digits[s:e]
        if xe < -4 or xe >= 17:
            block[:, 1] = dig[:, 0]
            block[:, 2] = ord(".")
            block[:, 3:19] = dig[:, 1:]
            suffix = np.frombuffer(b"e%+03d" % xe, np.uint8)
            at = np.arange(s, e) * width + length[s:e] - suffix.size
            flat[at[:, None] + np.arange(suffix.size)] = suffix
        elif xe >= 0:
            block[:, 1 : xe + 2] = dig[:, : xe + 1]
            block[:, xe + 2] = ord(".")
            block[:, xe + 3 : 19] = dig[:, xe + 1 :]
        else:
            block[:, 1 : 2 - xe] = np.frombuffer(b"0.000"[: 1 - xe], np.uint8)
            block[:, 2 - xe : 19 - xe] = dig
    for r, t in enumerate(texts, guarded):
        buf[r, 1 : len(t) + 1] = np.frombuffer(t.encode(), np.uint8)
    negative = np.signbit(x[order])
    negative[guarded:] = False  # Python's text carries its own sign

    # back to table order, each field cut to its sign, digits and separator
    inverse = np.empty_like(order)
    inverse[order] = np.arange(count)
    out = np.take(buf, inverse, axis=0, out=_carve(ws[4:8], buf.shape, np.uint8), mode="clip")
    length = length[inverse]
    separators = np.full((rows, cols), ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    out.reshape(-1)[np.arange(0, count * width, width) + length] = separators.reshape(-1)
    keep = np.arange(width) <= np.arange(width)[:, None]
    keep = np.concatenate([keep, keep])
    keep[:width, 0] = False
    code = length + width * negative[inverse]
    mask = np.take(keep, code, axis=0, out=_carve(ws[8:12], buf.shape, np.bool_), mode="clip")
    return out[mask]
