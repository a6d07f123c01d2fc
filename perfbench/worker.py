"""One fresh benchmark process: set up, run the cold operation, then a warm pass.

Usage: python3 worker.py JOB.json RESULT.json

The job file names the workload and its generated inputs. The process times
``import twotone`` and the parsing of the workload's configurations (set-up),
then the workload's cold operation, then one warm pass. After set-up, after
the cold operation and, on crossval, between blocks of drive sets it also
times the reference kernel of ``hostspeed.py``; those pauses are left out of
the pass's time. The pass writes into a fresh directory that is checked and
deleted outside the timed region; the cold operation's output is checked
against it. With tracing on, processes of
even index trace their pass, so that untraced passes of the same run give the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
from tracer import Tracer, layer_totals

def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer() if job["trace"] else None

    start = time.perf_counter()
    import twotone
    import workloads

    imported = time.perf_counter()
    if Path(twotone.__file__).resolve().parent != (src / "twotone").resolve():
        raise SystemExit(f"imported twotone from {twotone.__file__}, not from {src}")
    if tracer:
        tracer.install()
    parse_start = time.perf_counter()
    parsed = workloads.load_configs(job["workload"])
    parse_end = time.perf_counter()
    if tracer:
        tracer.uninstall()
    result = {
        "import_s": imported - start,
        "setup_s": imported - start + parse_end - parse_start,
        "setup_span": [start, parse_end],
        "load_config_s": sum(s.end - s.start for s in tracer.spans if s.name == "config.load_config")
        if tracer
        else None,
        "env": _environment(),
    }
    result["reference"] = [hostspeed.sample()]
    result.update(_load(job, workloads.build(job["workload"], job, parsed), tracer, result["reference"]))
    if tracer:
        tracer.write(job["spans_path"])
    Path(result_path).write_text(json.dumps(result))


def _load(job: dict, work, tracer: Tracer | None, reference: list[list[float]]) -> dict:
    out_root = Path(job["out_dir"])
    cold_out = out_root / "cold"
    cold_out.mkdir(parents=True)
    start = time.perf_counter()
    try:
        cold_raw, cold_error = work.cold(cold_out), None
    except Exception as exc:  # the cold operation counts as failed; the run goes on
        cold_raw, cold_error = None, f"cold operation: {type(exc).__name__}: {exc}"
    cold_span = [start, time.perf_counter()]
    cold_problems = [cold_error] if cold_error else []
    reference.append(hostspeed.sample())
    paused = []

    def pause() -> None:
        start = time.perf_counter()
        reference.append(hostspeed.sample())
        paused.append(time.perf_counter() - start)

    traced = bool(tracer) and job["index"] % 2 == 0
    out = out_root / "pass"
    out.mkdir()
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        if traced:
            raw = tracer.run_pass(0, lambda: work.execute(out, pause))
        else:
            raw = work.execute(out, pause)
        error = None
    except Exception as exc:  # the pass counts as failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if traced:
        tracer.uninstall()
    if error is None:
        outcome = work.verify(raw, out)
    else:
        ops = work.operations
        outcome = {
            "attempted": ops,
            "failed_ops": list(range(ops)),
            "problems": [error],
            "items": {},
            "digests": [""] * ops,
        }
    if not cold_problems:
        cold_problems = work.verify_cold(cold_raw, cold_out, out, outcome["digests"])
    outcome.update(
        traced=traced,
        span=[start, end],
        seconds=end - start - sum(paused),
        failed=len(outcome.pop("failed_ops")),
    )
    if traced:
        outcome["layers"] = layer_totals(tracer.spans, 0)
    shutil.rmtree(out_root)
    return {
        "cold_s": cold_span[1] - cold_span[0],
        "cold_span": cold_span,
        "cold_problems": cold_problems,
        "pass": outcome,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
