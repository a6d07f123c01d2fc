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
states the change. pytest does not collect this file. Run it from the
repository root with::

    PYTHONPATH=src python tests/make_reference.py
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
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
        write_reference(Path(tmp))
    print(f"wrote {REFERENCE} on {fingerprint()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
