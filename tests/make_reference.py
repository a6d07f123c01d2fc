"""Regenerate ``tests/reference/``, the committed reference of the bundled artifacts.

The reference covers the six bundled configurations, each run at
``--seed 3`` and ``--seed 11`` (``SEEDS``), as ``seed_<seed>/<config>/<artifact>``.
It holds:

- every small data artifact verbatim: the fit records, the summary tables
  (``TABLES``) and the units (198 files);
- ``reference.json``: the fingerprint of the numpy and BLAS build the
  artifacts were made on, the sha256 of every data artifact (368; the run
  manifest records timings and is excluded), and for each of the 170
  spectrum CSVs its comment lines, header, row count and per-column sum and
  2-norm.

``tests/test_reference.py`` runs the same configurations and compares them
with it. A change that alters any data artifact reruns this script and
states the change: before it replaces the reference, the script prints the
largest relative change against it of every float field of the fit
records, summaries and tables, and of every spectrum column's sum and norm,
measured as the test measures them (``relative_change``). pytest does not
collect this file. Run it from the repository root with::

    PYTHONPATH=src python tests/make_reference.py
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from twotone.config import bundled_config_path, load_config
from twotone.scenarios import run_scenario

CONFIGS = (
    "paper_device",
    "backaction_sweep",
    "squeeze_sweep",
    "tomography",
    "tomography_cooling",
    "driven_response",
)
SEEDS = (3, 11)
# the scenario tables, one row per sweep point; every other CSV is a spectrum
TABLES = frozenset({"backaction.csv", "squeeze.csv", "tomogram.csv"})
REFERENCE = Path(__file__).resolve().parent / "reference"


def run_one(out: Path, seed: int, name: str) -> Path:
    """Run the bundled configuration ``name`` at ``seed`` into ``out/seed_<seed>/<name>``."""
    cfg, ds, scenario = load_config(bundled_config_path(f"{name}.json"))
    run_dir = out / f"seed_{seed}" / name
    run_scenario(cfg, ds, scenario, run_dir, seed=seed)
    return run_dir


def run_bundled(out: Path) -> None:
    """Run every bundled configuration at every seed of ``SEEDS`` under ``out``."""
    for seed in SEEDS:
        for name in CONFIGS:
            run_one(out, seed, name)


def data_artifacts(root: Path) -> list[str]:
    """Every data artifact under ``root`` as a sorted relative path; manifests excluded."""
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )


def is_small(name: str) -> bool:
    """Whether an artifact is kept verbatim: a JSON record or a scenario table."""
    return name.endswith(".json") or name.rsplit("/", 1)[-1] in TABLES


def read_table(data: bytes) -> tuple[list[str], list[str], np.ndarray]:
    """The comment lines, the column names and the (rows, columns) values of a CSV."""
    lines = data.decode().split("\n")
    k = 0
    while lines[k].startswith("#"):
        k += 1
    header = lines[k].split(",")
    values = np.loadtxt(io.StringIO("\n".join(lines[k + 1 :])), delimiter=",", ndmin=2)
    return lines[:k], header, values.reshape(-1, len(header))


def column_summary(data: bytes) -> dict:
    """A spectrum CSV's comment lines, header, row count, column sums and 2-norms."""
    comments, header, values = read_table(data)
    return {
        "comments": comments,
        "header": header,
        "rows": len(values),
        "sum": values.sum(axis=0).tolist(),
        "norm": np.linalg.norm(values, axis=0).tolist(),
    }


def relative_change(got: float, expected: float, scale: float | None = None) -> float:
    """|got - expected| over ``scale``, by default the larger magnitude.

    Equal values, and two NaNs, change by 0; a value that is finite on one
    side only, or any change on a zero scale, changes by infinity.
    """
    if got == expected or (math.isnan(got) and math.isnan(expected)):
        return 0.0
    if scale is None:
        scale = max(abs(got), abs(expected))
    if not (math.isfinite(got) and math.isfinite(expected)) or scale == 0.0:
        return math.inf
    return abs(got - expected) / scale


def close(got: float, expected: float, rtol: float, scale: float | None = None) -> bool:
    """Whether ``got`` is within ``rtol`` of ``expected`` (see ``relative_change``)."""
    return relative_change(got, expected, scale) <= rtol


def is_number(key: str) -> bool:
    try:
        float(key)
    except ValueError:
        return False
    return True


def float_pairs(got, expected, key=None):
    """(key, got, expected) for every float at the same place in two parsed records.

    A float is named by its key; the entries of a mapping keyed by numbers
    (the squeeze summary's significance per ratio) by the mapping's key.
    """
    if isinstance(got, dict) and isinstance(expected, dict):
        for k in (k for k in expected if k in got):
            yield from float_pairs(got[k], expected[k], key if is_number(k) else k)
    elif isinstance(got, list) and isinstance(expected, list) and len(got) == len(expected):
        for g, e in zip(got, expected):
            yield from float_pairs(g, e, key)
    elif isinstance(got, float) and isinstance(expected, float):
        yield key, got, expected


def field_changes(root: Path, reference: Path = REFERENCE) -> dict[str, tuple[float, str]]:
    """The largest relative change of each field of the artifacts under ``root``.

    A field is a key of the JSON records or a column of the tables, pooled
    over every run, or ``spectrum <column> sum`` and ``... norm`` for the
    spectrum CSVs; each maps to its largest change and the artifact it is in.
    A sum is measured on the scale ``sqrt(rows) * norm`` of the reference.
    """
    index = json.loads((reference / "reference.json").read_text())
    largest: dict[str, tuple[float, str]] = {}

    def note(field, got, expected, name, scale=None):
        change = relative_change(got, expected, scale)
        if field not in largest or change > largest[field][0]:
            largest[field] = (change, name)

    for name in data_artifacts(root):
        if name not in index["sha256"]:
            continue
        data = (root / name).read_bytes()
        if not is_small(name):
            got, expected = column_summary(data), index["spectra"][name]
            columns = zip(expected["header"], got["sum"], expected["sum"], got["norm"], expected["norm"])
            for column, total, total_ref, norm, norm_ref in columns:
                note(f"spectrum {column} sum", total, total_ref, name, math.sqrt(expected["rows"]) * norm_ref)
                note(f"spectrum {column} norm", norm, norm_ref, name)
            continue
        kept = (reference / name).read_bytes()
        if name.endswith(".json"):
            for key, got, expected in float_pairs(json.loads(data), json.loads(kept)):
                note(key, got, expected, name)
        else:
            (_, columns, got), (_, _, expected) = read_table(data), read_table(kept)
            if got.shape == expected.shape:
                for column, g, e in zip(columns, got.T.tolist(), expected.T.tolist()):
                    for a, b in zip(g, e):
                        note(column, a, b, name)
    return largest


def print_changes(root: Path, reference: Path = REFERENCE) -> None:
    """Print each field's largest relative change against ``reference``."""
    print("largest relative change against the committed reference:")
    for field, (change, name) in sorted(field_changes(root, reference).items()):
        print(f"  {field:<28} {change:.2g}" + (f"  {name}" if change else ""))


def openblas_core() -> str | None:
    """The kernel OpenBLAS picked for this CPU (``OPENBLAS_CORETYPE`` overrides it).

    Read from the OpenBLAS that numpy's wheel bundles; ``None`` for a numpy
    built against another BLAS.
    """
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def fingerprint() -> dict:
    """The numpy version, its BLAS name and version, and the OpenBLAS kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "core": openblas_core(),
    }


def summarize(root: Path) -> dict:
    """The ``reference.json`` content of the artifacts under ``root``."""
    sha256, spectra = {}, {}
    for name in data_artifacts(root):
        data = (root / name).read_bytes()
        sha256[name] = hashlib.sha256(data).hexdigest()
        if not is_small(name):
            spectra[name] = column_summary(data)
    return {"fingerprint": fingerprint(), "sha256": sha256, "spectra": spectra}


def write_reference(root: Path, reference: Path = REFERENCE) -> None:
    """Replace ``reference`` with the small artifacts and the summary of ``root``."""
    if reference.exists():
        shutil.rmtree(reference)
    for name in filter(is_small, data_artifacts(root)):
        (reference / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / name, reference / name)
    with open(reference / "reference.json", "w") as fh:
        json.dump(summarize(root), fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_bundled(Path(tmp))
        if (REFERENCE / "reference.json").exists():
            print_changes(Path(tmp))
        write_reference(Path(tmp))
    print(f"wrote {REFERENCE} on {fingerprint()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
