"""twotone benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner makes the workload's
inputs from the seed, then starts fresh worker processes one after another,
never two at once, until ``--seconds`` is used (at least ``MIN_PROCESSES``).
Each sets up, runs the workload's cold operation and then one warm pass. With
tracing on, every other process traces its pass. Every output is checked.
A fixed reference kernel is timed before and after each worker and between
the worker's phases, and every time the run reports is scaled to the host
speed at which that kernel takes ``REFERENCE_NOMINAL_S`` (see
``hostspeed.py`` and ``scale_times``).

The report goes to standard output, ending with one JSON line holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json. Run artifacts, traces and the full result, raw
times included, live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PROCESSES = 3
RUN_LIMIT_S = 170.0
# The load is driven by one thread. On matrices of 6 x 6 to 62 x 62 a second
# BLAS thread only spins: on 2 CPUs it made crossval passes up to 3x slower
# and far less steady, so BLAS gets one thread, well under nproc.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# crossval draws resonant drive sets on the paper device: G- log-uniform in
# 30-2000 gamma_m, G+/G- uniform in [0, 0.3], and a balanced measurement pair
# at a uniform angle with Gmeas/G- = u**2 for uniform u. The oracle's cost
# steps up with the Fock truncation, which grows with the state's largest
# quadrature variance. So the items are stratified on that variance: a pool
# is sorted by it and one item is drawn from each of ITEMS equal slices,
# which holds the share of each truncation step steady across seeds. The
# squared ratio keeps the 50th and 79th latency percentiles inside a step
# rather than on one.
ITEMS = 48
POOL_PER_ITEM = 32
G_MINUS_RANGE = (30.0, 2000.0)  # in units of the mechanical damping
PLUS_RATIO_MAX = 0.3
THERMAL_OCCUPANCY = 42.0  # of the mechanics in paper_device.json


def largest_variance(item: dict) -> float:
    """Largest mechanical quadrature variance in closed form (vacuum = 1)."""
    g, r = item["g_minus"], item["plus_ratio"]
    width = 1.0 + g * (1.0 - r)
    heat = 2.0 * THERMAL_OCCUPANCY + 1.0
    v1 = (heat + g * (1.0 - math.sqrt(r)) ** 2) / width
    v2 = (heat + g * (1.0 + math.sqrt(r)) ** 2) / width
    # measurement backaction heats the quadrature orthogonal to the measured one
    back = 4.0 * item["meas_ratio"] * g / width
    s, c = math.sin(item["meas_angle"]), math.cos(item["meas_angle"])
    a11, a22, a12 = v1 + back * s * s, v2 + back * c * c, -back * s * c
    return 0.5 * (a11 + a22) + math.hypot(0.5 * (a11 - a22), a12)


def crossval_items(rng: random.Random) -> list[dict]:
    lo, hi = G_MINUS_RANGE
    pool = sorted(
        (
            {
                "g_minus": lo * (hi / lo) ** rng.random(),
                "plus_ratio": PLUS_RATIO_MAX * rng.random(),
                "meas_ratio": rng.random() ** 2,
                "meas_angle": math.pi * rng.random(),
            }
            for _ in range(ITEMS * POOL_PER_ITEM)
        ),
        key=largest_variance,
    )
    return [pool[k * POOL_PER_ITEM + rng.randrange(POOL_PER_ITEM)] for k in range(ITEMS)]


def run_inputs(workload: str, seed: int) -> dict:
    """Inputs of the run, the same for every worker process."""
    rng = random.Random(seed)
    if workload == "crossval":
        return {"items": crossval_items(rng)}
    return {"cli_seed": rng.randrange(2**31)}


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rank(n: int) -> int:
    """Highest percentile up to 90 with at least ten samples beyond it.

    It is never below the median, which a sweep with few points would reach.
    """
    return max(50, min(90, math.floor(100.0 * (1.0 - 10.0 / n))))


def scale_times(results: list[dict], samples: list[list[float]]) -> None:
    """Add each worker's times at the nominal host speed next to its raw ones.

    A crossval drive set is scaled by the samples around it; a sweep point,
    whose start is not recorded, by those around its pass.
    """
    for r in results:
        r["setup_scale"] = hostspeed.scale(samples, *r["setup_span"])
        r["cold_scale"] = hostspeed.scale(samples, *r["cold_span"])
        p = r["pass"]
        p["scale"] = hostspeed.scale(samples, *p["span"])
        p["scaled_items"] = {
            name: t * (p["scale"] if start is None else hostspeed.scale(samples, start, start + t))
            for name, (start, t) in p["items"].items()
        }
        placed = [name for name, (start, _) in p["items"].items() if start is not None]
        rest = p["seconds"] - sum(p["items"][name][1] for name in placed)
        p["scaled_seconds"] = rest * p["scale"] + sum(p["scaled_items"][name] for name in placed)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(job: dict, run_dir: Path, tag: str, env: dict, deadline: float) -> dict:
    job_path = run_dir / f"{tag}.job.json"
    result_path = run_dir / f"{tag}.result.json"
    job_path.write_text(json.dumps(dict(job, spans_path=str(run_dir / f"{tag}.spans.jsonl"))))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        stdout=subprocess.DEVNULL,
        env=env,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        fail(f"worker {tag} ran past the {RUN_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result_path.exists():
        fail(f"worker {tag} exited with code {code}")
    return json.loads(result_path.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM the runner unwinds through spawn(), which stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "twotone" / "__init__.py").is_file():
        fail(f"no twotone sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    # The reference kernel and the workers share one CPU; the workers inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    job = dict(
        run_inputs(args.workload, args.seed),
        root=str(ROOT),
        workload=args.workload,
        trace=bool(args.trace),
    )

    # A new process starts only if one as long as the median so far still
    # ends within --seconds.
    results, durations, reference = [], [], [hostspeed.sample()]
    while len(results) < MIN_PROCESSES or time.perf_counter() - started + statistics.median(durations) <= args.seconds:
        k = len(results)
        t = time.perf_counter()
        results.append(spawn(dict(job, index=k, out_dir=str(run_dir / f"out{k}")), run_dir, f"load{k}", env, deadline))
        reference.append(hostspeed.sample())
        durations.append(time.perf_counter() - t)

    report = summarize(args, results, reference)
    report["env"] = results[0]["env"]
    report["measured_s"] = time.perf_counter() - started
    (run_dir / "result.json").write_text(json.dumps(report, indent=1))
    print_report(args, spec, report)


def summarize(args, results: list[dict], reference: list[float]) -> dict:
    passes = [r["pass"] for r in results]
    problems = [msg for r in results for msg in r["cold_problems"]]
    problems += [msg for p in passes for msg in p["problems"]]
    attempted = len(results) + sum(p["attempted"] for p in passes)
    failed = sum(1 for r in results if r["cold_problems"]) + sum(p["failed"] for p in passes)
    first = passes[0]["digests"]
    for k, p in enumerate(passes[1:], 1):
        differs = [i for i, (a, b) in enumerate(zip(first, p["digests"])) if a and b and a != b]
        if differs:
            failed += len(differs)
            problems.append(f"process {k}: operations {differs} differ from the first process")
    scale_times(results, sorted(reference + [x for r in results for x in r["reference"]]))
    good = [p for p in passes if p["failed"] == 0]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not untraced:
        fail("no warm pass succeeded; " + "; ".join(problems[:3]))
    names = list(untraced[0]["items"])
    rank = tail_rank(len(names))

    def times(scaled: bool) -> dict:
        """End-to-end times, raw or at the nominal host speed."""
        items = [
            1e3 * statistics.median(p["scaled_items"][n] if scaled else p["items"][n][1] for p in untraced)
            for n in names
        ]
        return {
            "setup_s": statistics.median(r["setup_s"] * (r["setup_scale"] if scaled else 1.0) for r in results),
            "cold_s": statistics.median(r["cold_s"] * (r["cold_scale"] if scaled else 1.0) for r in results),
            "wall_s": statistics.median(p["scaled_seconds"] if scaled else p["seconds"] for p in untraced),
            "item_ms_p50": percentile(items, 50),
            "item_ms_p90": percentile(items, rank),
        }

    raw, e2e = times(False), times(True)
    e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    n, m = len(results), len(untraced)
    notes = {
        "setup_s": f"median of {n} fresh processes",
        "cold_s": f"median of {n} fresh processes",
        "wall_s": f"warm pass, median of {m}",
        "item_ms_p50": f"median of {len(names)} items, each its median over {m} passes",
        "item_ms_p90": f"p{rank} of {len(names)} items, each its median over {m} passes",
        "peak_rss_mb": f"median of {n} processes",
    }
    layers = layer_metrics(results, traced, e2e["wall_s"]) if args.trace else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "host_scale": statistics.median(p["scale"] for p in passes),
        "end_to_end": e2e,
        "raw": raw,
        "notes": notes,
        "per_layer": layers,
        "samples": {
            "reference": reference,
            "worker_reference": [r["reference"] for r in results],
            "setup_s": [r["setup_s"] for r in results],
            "cold_s": [r["cold_s"] for r in results],
            "passes": [[p["traced"], p["seconds"], p["scale"], p["items"]] for p in passes],
        },
    }


def layer_metrics(results: list[dict], traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer figures of one warm pass: medians over the traced passes.

    Times are scaled to the nominal host speed like the end-to-end ones.
    """
    from tracer import LAYERS, PASS

    if not traced:
        fail("no traced pass succeeded")

    def field(layer: str, key: str, scaled: bool = False) -> float:
        return statistics.median(p["layers"].get(layer, {}).get(key, 0) * (p["scale"] if scaled else 1.0) for p in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = field(layer, "calls")
        out[f"{layer}.busy_s"] = field(layer, "busy_s", scaled=True)
        out[f"{layer}.self_s"] = field(layer, "self_s", scaled=True)
    spectrum, probe = "dynamics.output_spectrum", "dynamics.driven_response"
    out[f"{spectrum}.freq_points"] = field(spectrum, "freq_points")
    out[f"{spectrum}.us_per_point"] = 1e6 * ratio(out[f"{spectrum}.busy_s"], out[f"{spectrum}.freq_points"])
    out[f"{probe}.freq_points"] = field(probe, "freq_points")
    out["synthesis.write_noisy_csv.bytes"] = field("synthesis.write_noisy_csv", "bytes")
    fit = "inference.fit_lorentzian"
    out[f"{fit}.zero_area_frac"] = ratio(field(fit, "zero_area"), out[f"{fit}.calls"])
    out["oracle.first_try_frac"] = ratio(
        out["oracle.converged_steady_state.calls"], out["oracle.steady_state.calls"]
    )
    out["oracle.truncation_max"] = max(
        p["layers"].get("oracle.converged_steady_state", {}).get("truncation", 0) for p in traced
    )
    out["setup.import_s"] = statistics.median(r["import_s"] * r["setup_scale"] for r in results)
    out["config.load_config.busy_s"] = statistics.median(r["load_config_s"] * r["setup_scale"] for r in results)
    out["trace.wall_s"] = statistics.median(p["scaled_seconds"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.covered_frac"] = statistics.median(
        ratio(p["layers"][PASS]["covered_s"], p["seconds"]) for p in traced
    )
    return out


def print_report(args, spec, report: dict) -> None:
    env = report["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']}, BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
        f"run pinned to CPU {env['pinned_cpus']}"
    )
    reference = [t for _, t in report["samples"]["reference"]]
    print(
        f"host: reference kernel {1e3 * statistics.median(reference):.2f} ms (median of the runner's "
        f"{len(reference)}), nominal {1e3 * hostspeed.REFERENCE_NOMINAL_S:.2f} ms; times below are scaled "
        f"to the nominal speed, passes by a median factor of {report['host_scale']:.4f}"
    )
    e2e, raw = report["end_to_end"], report["raw"]
    for m in spec["end_to_end"]:
        name = m["name"]
        shown = f"(raw {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<14} {e2e[name]:12.4f} {m['unit']:<6} {shown:<16} {report['notes'][name]}")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':<14} {rate:12.4f} {'1':<6} {report['failed']} failed of {report['attempted']} operations")
    for msg in report["problems"][:10]:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<44} {report['per_layer'][m['name']]:14.6g} {m['unit']}")
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else e2e
    missing = [m["name"] for m in chosen if m["name"] not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
            }
        )
    )


if __name__ == "__main__":
    main()
