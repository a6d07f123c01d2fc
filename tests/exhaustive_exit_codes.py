"""Every one-field perturbation of the bundled configurations, run to its exit code.

The exhaustive form of ``test_cli.py::test_schema_valid_input_never_exits_one``,
which draws a sample of the same perturbations: each of the six bundled
configurations on at most 101 grid points, with one field at a time replaced
by each value of ``PERTURBATIONS``. The fields are those of
``perturbable_fields``: every params and noise field (the first and last
entry of a list), and every numeric field of the mechanics, the cavities and
the drives. Warnings are errors, as in the test suite. A run must exit 0, 2,
3 or 4 and print no traceback; any other outcome is listed and makes the scan
exit 1.

pytest does not collect this file. Run it from the repository root with::

    PYTHONPATH=src python tests/exhaustive_exit_codes.py
"""

import contextlib
import io
import json
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import BUNDLED, PERTURBATIONS, perturbable_fields, perturbed, small_bundled_document  # noqa: E402

from twotone.cli import main  # noqa: E402


def run(document) -> tuple[object, str]:
    """Exit code (or the uncaught exception) and standard error of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(document))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
            except Exception:
                code = "uncaught exception"
                err.write(traceback.format_exc())
    return code, err.getvalue()


def scan() -> int:
    warnings.simplefilter("error")
    start = time.perf_counter()
    runs, bad = 0, []
    for name in BUNDLED:
        for path in perturbable_fields(small_bundled_document(name)):
            for value in PERTURBATIONS:
                code, err = run(perturbed(small_bundled_document(name), path, value))
                runs += 1
                if code not in (0, 2, 3, 4) or "Traceback" in err:
                    last = err.strip().splitlines()[-1] if err.strip() else ""
                    bad.append(f"{name} {'.'.join(map(str, path))} = {value!r}: exit {code}: {last}")
    print("\n".join(bad))
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s, {len(bad)} outside exit codes 0, 2, 3 and 4")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(scan())
