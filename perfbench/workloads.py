"""Workload passes and their output checks, run inside a worker process.

A pass is the workload's fixed work: the bundled sweep configurations run
through the command line, or every cross-validation drive set of the run.
The cold operation is the workload's first, small piece of work in a fresh
process: a two-point ``twotone run`` of its first configuration, or one
drive set. ``execute`` and ``cold`` are the timed regions; ``verify`` reads
the outputs afterwards, counts each operation (a sweep pass, or one drive
set) that raised or whose output is wrong, and returns the time of each item
of the pass: a sweep point of the first configuration, or a drive set.
The worker imports this module only after it has timed ``import twotone``.
Layer functions are looked up on their modules at call time so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from twotone import analytic, cli, config, dynamics, oracle
from twotone.sysmodel import DriveSet, drive_pair

CONFIGS = {
    "backaction": ("backaction_sweep.json",),
    "squeeze": ("squeeze_sweep.json", "tomography.json"),
    "crossval": ("paper_device.json",),
}
# The cold sweep run keeps the first two points: a backaction line needs two.
COLD_POINTS = 2

# Tolerances of the acceptance suite (tests/test_acceptance.py).
BACKACTION_SLOPE_TOL = 0.05
BACKACTION_INTERCEPT = 42.0 / 530.0
BACKACTION_INTERCEPT_TOL = 0.02
LYAPUNOV_RTOL = 0.01
ORACLE_RTOL = 0.005
FWHM_RTOL = 0.01
# Measured variances may sit this many standard errors from theory.
SQUEEZE_SIGMAS = 5.0
PROBE_POINTS = 801
PROBE_SPAN = 6.0
# A crossval pass pauses after this many drive sets for the worker to time
# the host's speed, about twice a second.
PAUSE_EVERY = 6


def load_configs(workload: str) -> list:
    """Parse the workload's bundled configurations (part of set-up)."""
    return [config.load_config(config.bundled_config_path(n)) for n in CONFIGS[workload]]


def build(workload: str, job: dict, parsed: list):
    if workload == "crossval":
        return CrossVal(parsed[0][0], job["items"])
    return Sweep(workload, job["cli_seed"], Path(job["out_dir"]))


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return lines[0].split(","), data


def _sigma_outliers(path: Path, pairs) -> list[str]:
    header, data = _table(path)
    bad = []
    for value, err, theory in pairs:
        z = (data[:, header.index(value)] - data[:, header.index(theory)]) / data[:, header.index(err)]
        if not np.all(np.abs(z) < SQUEEZE_SIGMAS):
            bad.append(f"{path.name}: {value} is {np.max(np.abs(z)):.2f} sigma from {theory}")
    return bad


def _check_backaction(out: Path) -> list[str]:
    line = json.loads((out / "backaction_sweep" / "summary.json").read_text())["line_fit"]
    bad = []
    if not abs(line["slope"] - 1.0) < BACKACTION_SLOPE_TOL:
        bad.append(f"backaction slope {line['slope']:.4f} not within 0.05 of 1")
    if not abs(line["intercept"] - BACKACTION_INTERCEPT) < BACKACTION_INTERCEPT_TOL:
        bad.append(f"backaction intercept {line['intercept']:.4f} not within 0.02 of 42/530")
    return bad


def _check_squeeze(out: Path) -> list[str]:
    return _sigma_outliers(
        out / "squeeze_sweep" / "squeeze.csv", (("v1", "v1_err", "v1_theory"), ("v2", "v2_err", "v2_theory"))
    ) + _sigma_outliers(out / "tomography" / "tomogram.csv", (("v_measured", "v_err", "v_theory"),))


def _manifest_problems(out: Path, stem: str) -> tuple[list[str], dict]:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = [] if manifest["status"] == "complete" else [f"{stem}: manifest status {manifest['status']}"]
    return problems, manifest


class Sweep:
    """Bundled sweep configurations run through ``twotone run`` with one seed."""

    def __init__(self, workload: str, cli_seed: int, work_dir: Path) -> None:
        self.paths = [config.bundled_config_path(n) for n in CONFIGS[workload]]
        self.seed = str(cli_seed)
        self.check = _check_backaction if workload == "backaction" else _check_squeeze
        self.operations = 1
        first = self.paths[0]
        raw = json.loads(first.read_text())
        raw["scenario"]["params"]["ratios"] = raw["scenario"]["params"]["ratios"][:COLD_POINTS]
        work_dir.mkdir(parents=True, exist_ok=True)
        self.cold_path = work_dir / f"{first.stem}_cold.json"
        self.cold_path.write_text(json.dumps(raw))

    def _run(self, path: Path, out: Path) -> int:
        return cli.main(["run", "--config", str(path), "--out", str(out), "--seed", self.seed])

    def cold(self, out: Path) -> int:
        return self._run(self.cold_path, out / self.paths[0].stem)

    def execute(self, out: Path, pause) -> list[int]:
        return [self._run(p, out / p.stem) for p in self.paths]

    def verify(self, codes: list[int], out: Path) -> dict:
        """One operation; its items are the points of the first configuration.

        Those are timed by the run manifest. The tomography points that follow
        the squeeze sweep cost half as much, and a median over both kinds
        would sit on the border between them.
        """
        problems = [f"exit code {c}" for c in codes if c != 0]
        items = {}
        digest = hashlib.sha256()
        if not problems:
            for p in self.paths:
                bad, manifest = _manifest_problems(out / p.stem, p.stem)
                problems += bad
                if p == self.paths[0]:  # the manifest gives durations only
                    items = {k: [None, t] for k, t in manifest["timings_s"].items() if k.startswith("point_")}
            problems += self.check(out)
            for f in sorted(out.rglob("*")):
                if f.is_file() and f.name != "manifest.json":
                    digest.update(str(f.relative_to(out)).encode() + b"\0" + f.read_bytes())
        return {
            "attempted": 1,
            "failed_ops": [0] if problems else [],
            "problems": problems,
            "items": items,
            "digests": [digest.hexdigest()],
        }

    def verify_cold(self, code: int, cold_out: Path, warm_out: Path, warm_digests: list[str]) -> list[str]:
        """The cold run's point files must equal those of a full warm pass."""
        if code != 0:
            return [f"cold run: exit code {code}"]
        stem = self.paths[0].stem
        problems, _ = _manifest_problems(cold_out / stem, stem)
        files = sorted((cold_out / stem).glob("point_*"))
        if len(files) < COLD_POINTS:
            problems.append(f"cold run: {len(files)} point files")
        for f in files:
            twin = warm_out / stem / f.name
            if not twin.is_file() or twin.read_bytes() != f.read_bytes():
                problems.append(f"cold run: {f.name} differs from the warm pass")
        return problems


class CrossVal:
    """Resonant drive sets refereed three ways: closed form, Lyapunov, oracle."""

    def __init__(self, cfg, items: list[dict]) -> None:
        self.cfg = cfg
        self.cases = []
        for it in items:
            g_minus = it["g_minus"] * cfg.mech.gamma
            g_meas = it["meas_ratio"] * g_minus
            ds = DriveSet(
                drive_pair(2, g_minus, it["plus_ratio"] * g_minus)
                + drive_pair(1, g_meas, g_meas, angle=it["meas_angle"])
            )
            width = cfg.mech.gamma + (1.0 - it["plus_ratio"]) * g_minus
            grid = np.linspace(-PROBE_SPAN * width, PROBE_SPAN * width, PROBE_POINTS)
            self.cases.append((ds, width, grid))
        self.operations = len(self.cases)
        # The items come sorted by cost class, so the middle one is typical.
        self.cold_index = len(self.cases) // 2

    def _evaluate(self, ds, grid):
        cfg = self.cfg
        closed = analytic.quadrature_variances(cfg.mech, ds)
        lyap = dynamics.mechanical_marginal(dynamics.steady_covariance(dynamics.build_linear_model(cfg, ds)))
        state = oracle.converged_steady_state(oracle.EffectiveDissipators.from_drives(cfg.mech, ds))
        exact = (oracle.quad_variance(state, 0.0), oracle.quad_variance(state, math.pi / 2.0))
        s11 = dynamics.driven_response(cfg, ds, 1, grid)
        fwhm = dynamics.transparency_window_fwhm(cfg, ds, 2)
        return closed, lyap, exact, s11, fwhm

    def _timed(self, ds, grid) -> tuple[list[float], object]:
        start = time.perf_counter()
        try:
            value = self._evaluate(ds, grid)
        except Exception as exc:  # a failed item is counted, the pass goes on
            value = exc
        return [start, time.perf_counter() - start], value

    def cold(self, out: Path):
        ds, _, grid = self.cases[self.cold_index]
        return self._timed(ds, grid)[1]

    def execute(self, out: Path, pause) -> list:
        """Evaluate every drive set; call ``pause()`` between blocks of them."""
        results = []
        for k, (ds, _, grid) in enumerate(self.cases):
            if k and k % PAUSE_EVERY == 0:
                pause()
            results.append(self._timed(ds, grid))
        return results

    def _check(self, width: float, value) -> tuple[list[str], str]:
        if isinstance(value, Exception):
            return [f"{type(value).__name__}: {value}"], ""
        closed, lyap, exact, s11, fwhm = value
        bad = []
        if not _rel(lyap.v1, closed.v1) < LYAPUNOV_RTOL or not _rel(lyap.v2, closed.v2) < LYAPUNOV_RTOL:
            bad.append("Lyapunov differs from closed form")
        if not _rel(exact[0], closed.v1) < ORACLE_RTOL or not _rel(exact[1], closed.v2) < ORACLE_RTOL:
            bad.append("oracle differs from closed form")
        if not _rel(fwhm, width) < FWHM_RTOL:
            bad.append("transparency FWHM differs from the effective linewidth")
        if not (np.all(np.isfinite(s11)) and np.max(np.abs(s11)) <= 1.0):
            bad.append("probe reflection is not finite and passive")
        numbers = (closed.v1, closed.v2, lyap.v1, lyap.v2, *exact, fwhm)
        return bad, hashlib.sha256(np.array(numbers).tobytes() + s11.tobytes()).hexdigest()

    def verify(self, results: list, out: Path) -> dict:
        failed, problems, digests, items = [], [], [], {}
        for k, ((_, width, _), (span, value)) in enumerate(zip(self.cases, results)):
            items[f"item{k:03d}"] = span
            bad, digest = self._check(width, value)
            if bad:
                failed.append(k)
                problems.append(f"item {k}: " + "; ".join(bad))
            digests.append(digest)
        return {
            "attempted": len(results),
            "failed_ops": failed,
            "problems": problems,
            "items": items,
            "digests": digests,
        }

    def verify_cold(self, value, cold_out: Path, warm_out: Path, warm_digests: list[str]) -> list[str]:
        """The cold item must pass its checks and equal its warm execution."""
        bad, digest = self._check(self.cases[self.cold_index][1], value)
        if not bad and digest != warm_digests[self.cold_index]:
            bad.append("differs from the warm pass")
        return [f"cold item {self.cold_index}: {msg}" for msg in bad]


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)
