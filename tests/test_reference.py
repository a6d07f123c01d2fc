"""The bundled artifacts against their committed reference, ``tests/reference/``.

``make_reference.py`` wrote the reference from the six bundled
configurations at ``--seed 3`` and ``--seed 11``; this test runs the same
twelve in-process, one case each. It always compares values: the artifact names, comment
lines, column names, row counts, strings, booleans and integers exactly;
every float of the fit records, summaries and scenario tables within a
relative bound; each spectrum CSV by its per-column sums and 2-norms. On the
numpy and BLAS kernel the reference was made on (its ``fingerprint``) every
data artifact must also have the reference's sha256: the same bytes.

The bounds come from the largest relative difference between the reference
kernel (numpy 2.4.6 with its OpenBLAS 0.3.31 on an x86-64 CPU, kernel
``SkylakeX``) and runs under ``OPENBLAS_CORETYPE=Haswell`` and
``OPENBLAS_CORETYPE=SandyBridge``, over all twelve configurations:

- ``RTOL`` 1e-10 for every float not named below; measured at most 1.6e-11
  (a tomogram area and ``v_measured``), a margin of 6.
- ``CANCELLING_RTOL`` 1e-8 for the quantities formed by cancellation, near
  zero or near one where a logarithm or an angle is taken: v12 3.7e-10,
  ``chi2_dof`` 2.3e-10 (the line fit's), ``angle_rad`` 2.1e-10,
  ``squeezing_db`` 9.1e-11, ``delta_v1`` 8.5e-11, ``occupancy`` 2.7e-11;
  a margin of 27.
- ``CENTER_RTOL`` 1e-4 for the fitted ``center_hz``, measured 1.3e-5 (a
  margin of 7.6): the fits fix their centre only to about 1e-6 of its
  error, and the centres lie within a few errors of zero.
- ``SPECTRUM_RTOL`` 1e-12 for the column sums and norms, measured 4e-16.
  A sum is compared on the scale ``sqrt(rows) * norm``, the largest it can
  have, because the offset column sums to about zero.
"""

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from make_reference import (
    CONFIGS,
    REFERENCE,
    SEEDS,
    TABLES,
    close,
    column_summary,
    data_artifacts,
    field_changes,
    fingerprint,
    is_small,
    read_table,
    run_one,
)

RTOL = 1e-10
CANCELLING_RTOL = 1e-8
CENTER_RTOL = 1e-4
SPECTRUM_RTOL = 1e-12
CANCELLING = ("v12", "chi2_dof", "angle_rad", "squeezing_db", "delta_v1", "occupancy")
KEY_RTOL = {"center_hz": CENTER_RTOL, **dict.fromkeys(CANCELLING, CANCELLING_RTOL)}

INDEX = json.loads((REFERENCE / "reference.json").read_text())
BUNDLED = [(seed, name) for seed in SEEDS for name in CONFIGS]


def value_problems(got, expected, key, where):
    """How a parsed record differs from its reference; floats within ``KEY_RTOL``."""
    if type(got) is not type(expected):
        return [f"{where}: {key} is {got!r}, expected {expected!r}"]
    if isinstance(expected, dict):
        if list(got) != list(expected):
            return [f"{where}: keys {list(got)}, expected {list(expected)}"]
        return [p for k in expected for p in value_problems(got[k], expected[k], k, where)]
    if isinstance(expected, list):
        if len(got) != len(expected):
            return [f"{where}: {key} has {len(got)} entries, expected {len(expected)}"]
        return [p for g, e in zip(got, expected) for p in value_problems(g, e, key, where)]
    if isinstance(expected, float):
        ok = close(got, expected, KEY_RTOL.get(key, RTOL))
    else:
        ok = got == expected
    return [] if ok else [f"{where}: {key} is {got!r}, expected {expected!r}"]


def table_problems(got, expected, where):
    (got_comments, got_names, got_values), (comments, names, values) = read_table(got), read_table(expected)
    if (got_comments, got_names, got_values.shape) != (comments, names, values.shape):
        return [f"{where}: comments, columns or shape differ"]
    return [
        p
        for name, column, reference in zip(names, got_values.T, values.T)
        for p in value_problems(column.tolist(), reference.tolist(), name, where)
    ]


def spectrum_problems(got, expected, where):
    shape = ("comments", "header", "rows")
    if [got[k] for k in shape] != [expected[k] for k in shape]:
        return [f"{where}: comments, columns or row count differ"]
    problems = []
    columns = zip(expected["header"], got["sum"], expected["sum"], got["norm"], expected["norm"])
    for name, total, total_ref, norm, norm_ref in columns:
        if not close(total, total_ref, SPECTRUM_RTOL, math.sqrt(expected["rows"]) * norm_ref):
            problems.append(f"{where}: {name} sums to {total!r}, expected {total_ref!r}")
        if not close(norm, norm_ref, SPECTRUM_RTOL):
            problems.append(f"{where}: {name} has norm {norm!r}, expected {norm_ref!r}")
    return problems


def artifact_problems(name, data, *, same_bytes, index=INDEX):
    """How one data artifact's bytes differ from the reference: ``index`` and the kept files."""
    problems = []
    if same_bytes and hashlib.sha256(data).hexdigest() != index["sha256"][name]:
        problems.append(f"{name}: sha256 differs")
    if not is_small(name):
        return problems + spectrum_problems(column_summary(data), index["spectra"][name], name)
    expected = (REFERENCE / name).read_bytes()
    if name.endswith(".json"):
        return problems + value_problems(json.loads(data), json.loads(expected), None, name)
    return problems + table_problems(data, expected, name)


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """The run of one bundled configuration at one seed, made once per module."""
    out = tmp_path_factory.mktemp("bundled")
    runs = {}

    def run(seed, name):
        if (seed, name) not in runs:
            runs[seed, name] = run_one(out, seed, name)
        return runs[seed, name]

    return run


def test_the_reference_covers_every_bundled_run():
    runs = {tuple(name.split("/", 2)[:2]) for name in INDEX["sha256"]}
    assert runs == {(f"seed_{seed}", name) for seed, name in BUNDLED}


@pytest.mark.parametrize("seed, config", BUNDLED)
def test_bundled_artifacts_match_the_reference(bundled_run, seed, config):
    run_dir, prefix = bundled_run(seed, config), f"seed_{seed}/{config}/"
    artifacts = data_artifacts(run_dir)
    assert [prefix + a for a in artifacts] == sorted(n for n in INDEX["sha256"] if n.startswith(prefix))
    same_bytes = fingerprint() == INDEX["fingerprint"]
    problems = []
    for artifact in artifacts:
        data = (run_dir / artifact).read_bytes()
        problems += artifact_problems(prefix + artifact, data, same_bytes=same_bytes)
    assert problems == []


def test_the_reference_keeps_every_small_artifact():
    kept = sorted(p for p in data_artifacts(REFERENCE) if p != "reference.json")
    assert kept == sorted(filter(is_small, INDEX["sha256"]))
    assert {name.rsplit("/", 1)[-1] for name in kept if name.endswith(".csv")} == TABLES
    for name in kept:
        assert hashlib.sha256((REFERENCE / name).read_bytes()).hexdigest() == INDEX["sha256"][name]


def test_one_ulp_in_one_spectrum_value_fails_the_bytes_check(bundled_run):
    name = "seed_3/paper_device/spectrum.csv"
    data = (bundled_run(3, "paper_device") / "spectrum.csv").read_bytes()
    lines = data.decode().split("\n")
    row = len(lines) // 2
    offset, flux = lines[row].split(",")
    lines[row] = f"{offset},{np.nextafter(float(flux), math.inf):.17g}"
    mutated = "\n".join(lines).encode()
    assert mutated != data
    # the reference this run's own bytes would give, so that the check runs on any kernel
    index = {
        "sha256": {name: hashlib.sha256(data).hexdigest()},
        "spectra": {name: column_summary(data)},
    }
    assert artifact_problems(name, data, same_bytes=True, index=index) == []
    assert artifact_problems(name, mutated, same_bytes=True, index=index) == [f"{name}: sha256 differs"]
    assert artifact_problems(name, mutated, same_bytes=False, index=index) == []


def test_a_1e_9_relative_change_to_one_fit_area_fails_the_values_check():
    name = "seed_3/paper_device/fit.json"
    data = (REFERENCE / name).read_bytes()
    assert artifact_problems(name, data, same_bytes=False) == []
    record = json.loads(data)
    record["area"] *= 1.0 + 1e-9
    mutated = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    (problem,) = artifact_problems(name, mutated, same_bytes=False)
    assert problem.startswith(f"{name}: area is ")


def test_the_change_report_names_the_field_and_the_artifact(tmp_path):
    name = "seed_3/paper_device/fit.json"
    shutil.copytree(REFERENCE, tmp_path, dirs_exist_ok=True)
    record = json.loads((tmp_path / name).read_text())
    record["area"] *= 1.0 + 1e-9
    (tmp_path / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    changes = field_changes(tmp_path)
    change, where = changes.pop("area")
    assert change == pytest.approx(1e-9, rel=1e-6) and where == name
    assert {"center_hz", "subvacuum_significance", "v_measured"} <= changes.keys()
    assert all(change == 0.0 for change, _ in changes.values())
