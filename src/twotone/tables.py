"""The one CSV format of every data table the toolkit writes.

A table is optional ``# key: value`` comment lines (a ``warnings`` entry
becomes one ``# warning:`` line per warning), a header of column names and
one row per sample with every value written as ``%.17g``, which round-trips
IEEE doubles exactly and keeps reruns byte-identical.
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
    lines = []
    for key, value in meta:
        if key == "warnings":
            lines += [f"# warning: {w}" for w in value]
        else:
            lines.append(f"# {key}: {value}")
    lines.append(",".join(names))
    row = ",".join(["%.17g"] * len(columns))
    lines += map(row.__mod__, zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
