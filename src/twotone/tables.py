"""The one CSV format of every data table the toolkit writes.

A table is optional ``# key: value`` comment lines (a ``warnings`` entry
becomes one ``# warning:`` line per warning), a header of column names and
one row per sample with every value written as ``%.17g``, which round-trips
IEEE doubles exactly, so equal values give equal bytes.

The fields are formatted by one numpy kernel, ``twotone._fields``, loaded
by the first table written, a whole table per call (up to ``BLOCK`` rows),
and the file is written as the kernel's bytes. Every temporary of the call
that grows with the table lives in one workspace allocation, reused from
phase to phase: glibc trims the top of its heap once it exceeds twice the
largest mmapped chunk freed so far (mallopt(3)), so many separate
temporaries would hand their pages back after every table and fault them
in again for the next. It works the way
fast exact float printers do: scale and round with a bounded error, and
hand a value to the exact printer when that bound cannot decide it
(Loitsch, PLDI 2010: Grisu3 falls back to Dragon4). For |x| with decimal
exponent X = floor(log10|x|), the 17 digits are D = x * 10^(16-X) rounded
to nearest. 10^k is held as hi + lo, both correctly rounded from exact
integers, for the exponents the table can need only. Dekker's two-product
(Numer. Math. 18, 224 (1971); split by 2^27 + 1, no FMA) gives
x * hi = p + e exactly, and p is an integer, as it lies in [1e16, 1e17).
So the rounding of D is decided by the small term c = e + x * lo alone,
whose error is at most about 2^-46: the rounding of x * lo and of the sum,
and the part of 10^k that hi + lo leaves out. D goes to ASCII through a
4-digit table. The fields are sorted by X, so that each ``%g`` layout
(``ddd.ddd``, ``0.000ddd`` or ``d.ddde+xx``) is filled by plain slicing;
a leading ``-`` column is kept for negative fields only. Each field's ``,``
or newline is written at its own length, and one boolean mask compresses
the padded byte matrix into the text.

The guard: a value is formatted by Python's own ``'%.17g' % x`` when the
fraction of c lies within 1e-6 of 1/2 (an exact decimal tie, which rounds
half to even, or a rounding the error bound does not prove); when D before
rounding falls below 1e16 or D reaches 1e17 (log10 put x in the decade
above or below); or when x is zero, not finite or outside 1e-280..1e280,
where the split could overflow. Every field is therefore exactly
``'%.17g' % x``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def write_csv(
    path,
    names: Sequence[str],
    columns: Sequence,
    meta: Iterable[tuple[str, object]] = (),
) -> None:
    """Write equal-length numeric ``columns`` under ``names`` and ``meta`` comments."""
    from ._fields import BLOCK, format_rows, kernel_tables

    lines = []
    for key, value in meta:
        if key == "warnings":
            lines += [f"# warning: {w}" for w in value]
        else:
            lines.append(f"# {key}: {value}")
    lines.append(",".join(names))
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    tables = kernel_tables(table)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for start in range(0, len(table), BLOCK):
            fh.write(format_rows(table[start : start + BLOCK], *tables))
