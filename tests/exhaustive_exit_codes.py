"""Every one-field perturbation of the bundled configurations, through both commands.

The exhaustive form of ``test_cli.py::test_schema_valid_input_never_exits_one``,
which draws a sample of the same perturbations: each of the six bundled
configurations on at most 101 grid points, with one field at a time replaced
by each value of its kind. ``perturbable_fields`` lists the fields and their
values from the schema tables of ``twotone.config``: every field of every
section, absent optional fields included, and the first and last entry of a
list; a number takes ``PERTURBATIONS``, an integer ``INTEGERS`` (a grid size
all but 2**64, which would be allocated), a string ``STRINGS``, and a choice
each other valid choice and ``STRINGS``. Warnings are errors, as in the test
suite. Each document goes through ``validate`` and ``run``, and must keep
the rules of ``both_commands``: exit 0, 2, 3 or 4 without a traceback;
``validate`` exits 2 exactly when ``run`` does, and such a run makes no
output directory; when ``validate`` exits 3, ``run`` exits 3 and makes no
output directory; an output directory holds exactly its manifest's artifacts
and ``manifest.json``. Any broken rule is listed and makes the scan exit 1.
The scan ends with the tally of (validate's exit, run's exit, output
directory made).

pytest does not collect this file. Run it from the repository root with::

    PYTHONPATH=src python tests/exhaustive_exit_codes.py
"""

import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import BUNDLED, both_commands, perturbable_fields, perturbed, small_bundled_document  # noqa: E402


def scan() -> int:
    warnings.simplefilter("error")
    start = time.perf_counter()
    tally, bad = Counter(), []
    for name in BUNDLED:
        for path, values in perturbable_fields(small_bundled_document(name)):
            for value in values:
                try:
                    outcome, broken = both_commands(perturbed(small_bundled_document(name), path, value))
                except Exception:
                    outcome, broken = "uncaught exception", [traceback.format_exc().strip().splitlines()[-1]]
                tally[outcome] += 1
                if broken:
                    bad.append(f"{name} {'.'.join(map(str, path))} = {value!r}: {outcome}: {'; '.join(broken)}")
    print("\n".join(bad))
    for outcome, count in sorted(tally.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{outcome}: {count}")
    print(f"{sum(tally.values())} runs in {time.perf_counter() - start:.1f} s, {len(bad)} breaking a rule")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(scan())
