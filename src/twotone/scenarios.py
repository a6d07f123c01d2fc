"""Scenario orchestration: run the bundled experiments end to end.

Each scenario builds drive configurations, evaluates the linear model,
synthesizes noisy spectra, runs the inference pipeline and emits plain data
tables (CSV) plus fit records (JSON). Plotting is left to the consumer. All
floating-point output is serialized with 17 significant digits and every
random draw is keyed by (seed, point index), so a rerun with the same
configuration and seed reproduces the data artifacts byte for byte. The run
manifest records timings and is therefore excluded from that guarantee.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import quadrature_variances, variance_of_phase
from .config import (
    Scenario,
    parse_backaction_params,
    parse_probe_params,
    parse_squeeze_params,
    parse_tomography_params,
)
from .dynamics import (
    build_linear_model,
    driven_response,
    effective_linewidth,
    output_spectrum,
    spectrum_grid,
    transparency_window_fwhm,
    write_spectrum_csv,
)
from .errors import ConfigError
from .inference import (
    FIT_RECORD_UNITS,
    backaction_evasion_report,
    backaction_line_fit,
    fit_lorentzian,
    occupancy_from_sidebands,
    squeezing_metrics,
    tomography_sweep,
    write_fit_records,
)
from .synthesis import NoiseModel, synthesize, write_noisy_csv
from .sysmodel import LOWER, UPPER, Drive, DriveSet, SystemConfig, drive_pair
from .tables import write_csv

TWO_PI = 2.0 * math.pi


@dataclass
class RunManifest:
    """Record of one scenario run: inputs, artifacts, timings, status."""

    toolkit_version: str
    scenario: str
    seed: int
    config_digest: str
    artifacts: list[str] = field(default_factory=list)
    timings_s: dict = field(default_factory=dict)
    status: str = "complete"
    failure: str | None = None
    failure_point: str | None = None

    def write(self, out_dir: Path) -> Path:
        """Atomically serialize the manifest at the end of the run."""
        path = out_dir / "manifest.json"
        tmp = out_dir / "manifest.json.tmp"
        payload = {
            "toolkit_version": self.toolkit_version,
            "scenario": self.scenario,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "artifacts": sorted(self.artifacts),
            "timings_s": self.timings_s,
            "status": self.status,
            "failure": self.failure,
            "failure_point": self.failure_point,
        }
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path


def _require_drive(ds: DriveSet, cavity: int, sideband: str, scenario: str) -> Drive:
    d = ds.get(cavity, sideband)
    if d is None:
        raise ConfigError(
            f"scenario {scenario} requires a {sideband}-sideband drive on cavity {cavity}"
        )
    return d


def _reject_drives(ds: DriveSet, cavity: int, scenario: str) -> None:
    if any(d.cavity_index == cavity for d in ds.drives):
        raise ConfigError(
            f"scenario {scenario} constructs the cavity-{cavity} drives itself; "
            "remove them from the drives list"
        )


def _write_record(manifest: RunManifest, out_dir: Path, name: str, records: dict) -> None:
    write_fit_records(records, out_dir / name)
    manifest.artifacts.append(name)


def _write_columns(manifest: RunManifest, out_dir: Path, name: str, names, columns) -> None:
    write_csv(out_dir / name, names, columns)
    manifest.artifacts.append(name)


def _measure(cfg, ds, cavity, noise, stream, out_dir, manifest, tag, fit, *, points, span=None):
    """One synthesized measurement of a cavity's output, fitted and written.

    ``fit`` maps the noisy spectrum to the fit result. It runs before the
    spectrum is written as ``{tag}.csv``, because a fit that follows the
    write of its own spectrum is measurably slower. Returns the ideal
    spectrum and the fit result.
    """
    grid = spectrum_grid(cfg, ds, points=points, span=span)
    spectrum = output_spectrum(build_linear_model(cfg, ds), cavity, grid)
    noisy = synthesize(spectrum, noise, stream=stream)
    result = fit(noisy)
    write_noisy_csv(noisy, out_dir / f"{tag}.csv")
    manifest.artifacts.append(f"{tag}.csv")
    return spectrum, result


def _measure_area(cfg, ds, cavity, noise, stream, out_dir, manifest, tag, points):
    """Lorentzian fit of one measurement, recorded as ``{tag}_fit.json``.

    The fit linewidth is pinned to the calibrated total damping, as the
    driven-response calibration provides it; this keeps weak-peak areas
    unbiased.
    """
    fixed = {"fwhm": effective_linewidth(cfg, ds)}
    _, fit = _measure(
        cfg, ds, cavity, noise, stream, out_dir, manifest, tag,
        lambda noisy: fit_lorentzian(noisy, fixed=fixed), points=points,
    )
    _write_record(manifest, out_dir, f"{tag}_fit.json", fit.to_record())
    return fit


def _fit_sidebands(noisy, delta: float, window: float, width: float):
    """Anti-Stokes and Stokes fits of the sidebands at -delta and +delta."""
    return tuple(
        fit_lorentzian(
            noisy.windowed(np.abs(noisy.freq - center) < window),
            init={"center": center},
            fixed={"fwhm": width},
        )
        for center in (-delta, delta)
    )


def run_scenario(
    cfg: SystemConfig,
    ds: DriveSet,
    scenario: Scenario,
    out_dir,
    *,
    seed: int | None = None,
    config_digest: str = "unspecified",
) -> RunManifest:
    """Execute a scenario and write its artifacts under ``out_dir``.

    A failure at any sweep point still writes the manifest, with the failed
    point identified in ``failure_point``, before the error propagates;
    artifacts of the completed points are preserved.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    noise = scenario.noise if seed is None else NoiseModel(
        floor=scenario.noise.floor, averages=scenario.noise.averages, seed=seed
    )
    manifest = RunManifest(
        toolkit_version=__version__,
        scenario=scenario.name,
        seed=noise.seed,
        config_digest=config_digest,
    )
    _, runner = SCENARIOS[scenario.name]
    start = time.perf_counter()
    try:
        runner(cfg, ds, scenario, noise, out_dir, manifest)
        manifest.failure_point = None
    except Exception as exc:
        manifest.status = "failed"
        manifest.failure = f"{type(exc).__name__}: {exc}"
        manifest.timings_s["total"] = time.perf_counter() - start
        manifest.write(out_dir)
        raise
    manifest.timings_s["total"] = time.perf_counter() - start
    _write_record(manifest, out_dir, "fit_units.json", FIT_RECORD_UNITS)
    manifest.write(out_dir)
    return manifest


def _run_backaction_sweep(cfg, ds, scenario, noise, out_dir, manifest):
    """Measurement-strength sweep with balanced pairs, by frequency placement.

    Per point: the pair detuned symmetrically off its sidebands measures both
    quadratures (its two thermomechanical sidebands are fitted separately),
    the on-sideband pair measures the single quadrature X1, and the cooling
    cavity's sideband provides the total occupancy in the latter case.
    """
    cooling = _require_drive(ds, 2, LOWER, scenario.name)
    if ds.get(2, UPPER) is not None:
        raise ConfigError("backaction_sweep runs against a pure cooling drive")
    _reject_drives(ds, 1, scenario.name)
    delta = scenario.params["pair_detuning"]
    points = scenario.params["points"]
    rows = []
    per_point = []
    for k, ratio in enumerate(scenario.params["ratios"]):
        t0 = time.perf_counter()
        gamma_meas = ratio * cooling.rate
        tag = f"point_{k:02d}"
        manifest.failure_point = f"{tag} (gamma_ratio {ratio:g})"

        # detuned (both-quadrature) case: two sidebands at -/+ delta
        ds_nonqnd = DriveSet(
            (cooling,) + drive_pair(1, gamma_meas, gamma_meas, detuning=delta)
        )
        width = effective_linewidth(cfg, ds_nonqnd)
        span = delta + 10.0 * width
        window = min(0.85 * delta, span - delta)
        _, (anti, stokes) = _measure(
            cfg, ds_nonqnd, 1, noise, 3 * k, out_dir, manifest, f"{tag}_nonqnd",
            lambda noisy: _fit_sidebands(noisy, delta, window, width), points=points, span=span,
        )
        n_anti, n_stokes, calibration = occupancy_from_sidebands(
            anti, stokes, gamma_meas, gamma_meas
        )
        calibration_err = calibration * math.hypot(
            anti.area_err / anti.area, stokes.area_err / stokes.area
        )
        err_anti = anti.area_err / gamma_meas
        err_stokes = stokes.area_err / gamma_meas
        w_anti, w_stokes = err_anti**-2, err_stokes**-2
        n_nonqnd = (w_anti * n_anti + w_stokes * n_stokes) / (w_anti + w_stokes)
        n_nonqnd_err = (w_anti + w_stokes) ** -0.5
        _write_record(
            manifest,
            out_dir,
            f"{tag}_nonqnd_fit.json",
            {
                "anti_stokes": anti.to_record(),
                "stokes": stokes.to_record(),
                "calibration_factor": calibration,
            },
        )

        # on-sideband (single-quadrature) case: X1 from cavity 1, total
        # occupancy from the cooling cavity's sideband
        ds_qnd = DriveSet((cooling,) + drive_pair(1, gamma_meas, gamma_meas))
        fit1 = _measure_area(cfg, ds_qnd, 1, noise, 3 * k + 1, out_dir, manifest, f"{tag}_qnd_cav1", points)
        fit2 = _measure_area(cfg, ds_qnd, 2, noise, 3 * k + 2, out_dir, manifest, f"{tag}_qnd_cav2", points)
        rows.append(
            [
                ratio,
                fit2.area / cooling.rate, fit2.area_err / cooling.rate,
                n_nonqnd, n_nonqnd_err,
                fit1.area / gamma_meas, fit1.area_err / gamma_meas,
            ]
        )
        per_point.append(
            {
                "gamma_ratio": ratio,
                "calibration_factor": calibration,
                "calibration_factor_err": calibration_err,
                "asymmetry_expected": n_nonqnd / (n_nonqnd + 1.0),
            }
        )
        manifest.timings_s[tag] = time.perf_counter() - t0

    data = np.array(rows)
    _write_columns(
        manifest,
        out_dir,
        "backaction.csv",
        ["gamma_ratio", "n_tot_qnd", "n_tot_qnd_err", "n_tot_nonqnd", "n_tot_nonqnd_err", "v1_qnd", "v1_qnd_err"],
        data.T,
    )
    line = backaction_line_fit(data[:, 0], data[:, 3], data[:, 4])
    top = int(np.argmax(data[:, 0]))
    evasion = backaction_evasion_report(
        qnd_v1=float(data[top, 5]),
        qnd_v1_err=float(data[top, 6]),
        nonqnd_occupancies=[(r[0], r[3], r[4]) for r in rows],
        gamma_ratio=float(data[top, 0]),
    )
    summary = {
        "line_fit": {
            "slope": line.slope,
            "slope_err": line.slope_err,
            "intercept": line.intercept,
            "intercept_err": line.intercept_err,
            "chi2_dof": line.chi2_dof,
        },
        "evasion": evasion.to_record(),
        "asymmetry": per_point,
    }
    _write_record(manifest, out_dir, "summary.json", summary)


def _run_squeeze_sweep(cfg, ds, scenario, noise, out_dir, manifest):
    """Squeezed and anti-squeezed variances against the drive-rate ratio.

    Per ratio the control pair sets the engineered bath and the balanced
    measurement pair reads X1 (angle 0) and X2 (angle pi/2) in separate
    acquisitions. Theory columns come from the closed-form moments of the
    same drive sets.
    """
    cooling = _require_drive(ds, 2, LOWER, scenario.name)
    if ds.get(2, UPPER) is not None:
        raise ConfigError(
            "squeeze_sweep constructs the upper control tone per point; "
            "remove it from the drives list"
        )
    _reject_drives(ds, 1, scenario.name)
    gamma_meas = scenario.params["measurement_ratio"] * cooling.rate
    points = scenario.params["points"]
    rows = []
    for k, ratio in enumerate(scenario.params["ratios"]):
        t0 = time.perf_counter()
        tag = f"point_{k:02d}"
        manifest.failure_point = f"{tag} (squeeze_ratio {ratio:g})"
        control = drive_pair(2, cooling.rate, ratio * cooling.rate)
        measured, theory = [ratio], []
        for sub, angle in enumerate((0.0, math.pi / 2.0)):
            ds_phi = DriveSet(control + drive_pair(1, gamma_meas, gamma_meas, angle=angle))
            fit = _measure_area(
                cfg, ds_phi, 1, noise, 2 * k + sub, out_dir, manifest, f"{tag}_angle{sub}", points
            )
            measured += [fit.area / gamma_meas, fit.area_err / gamma_meas]
            theory.append(variance_of_phase(quadrature_variances(cfg.mech, ds_phi), angle))
        rows.append(measured + theory)
        manifest.timings_s[tag] = time.perf_counter() - t0
    data = np.array(rows)
    _write_columns(
        manifest,
        out_dir,
        "squeeze.csv",
        ["squeeze_ratio", "v1", "v1_err", "v2", "v2_err", "v1_theory", "v2_theory"],
        data.T,
    )
    below = (1.0 - data[:, 1]) / data[:, 2]
    summary = {
        "min_v1_theory": float(np.min(data[:, 5])),
        "subvacuum_significance": {
            f"{r:.17g}": float(s) for r, s in zip(data[:, 0], below)
        },
    }
    _write_record(manifest, out_dir, "summary.json", summary)


def _run_tomography(cfg, ds, scenario, noise, out_dir, manifest):
    """Variance of the measured quadrature versus measurement phase.

    The control drives come from the configuration (cooling only gives the
    isotropic state, an asymmetric pair a squeezed one); the balanced pair's
    angle is swept over [0, pi].
    """
    cooling = _require_drive(ds, 2, LOWER, scenario.name)
    _reject_drives(ds, 1, scenario.name)
    gamma_meas = scenario.params["measurement_ratio"] * cooling.rate
    points = scenario.params["points"]
    phases = np.linspace(0.0, math.pi, scenario.params["n_phases"])
    rows = []
    for k, phi in enumerate(phases):
        t0 = time.perf_counter()
        tag = f"point_{k:02d}"
        manifest.failure_point = f"{tag} (phi {phi:g})"
        ds_phi = DriveSet(ds.drives + drive_pair(1, gamma_meas, gamma_meas, angle=phi))
        fit = _measure_area(cfg, ds_phi, 1, noise, k, out_dir, manifest, tag, points)
        theory = variance_of_phase(quadrature_variances(cfg.mech, ds_phi), phi)
        rows.append([phi, fit.area / gamma_meas, fit.area_err / gamma_meas, theory])
        manifest.timings_s[tag] = time.perf_counter() - t0
    data = np.array(rows)
    _write_columns(
        manifest, out_dir, "tomogram.csv", ["phi_rad", "v_measured", "v_err", "v_theory"], data.T
    )
    fit = tomography_sweep(data[:, 0], data[:, 1], data[:, 2])
    metrics = squeezing_metrics(fit)
    occupancy = (fit.v1 + fit.v2 - 2.0) / 4.0
    occupancy_err = math.sqrt(fit.cov[0, 0] + fit.cov[1, 1] + 2.0 * fit.cov[0, 1]) / 4.0
    _write_record(
        manifest,
        out_dir,
        "summary.json",
        {
            "tomogram": fit.to_record(),
            "metrics": metrics.to_record(),
            "occupancy": occupancy,
            "occupancy_err": occupancy_err,
        },
    )


def _run_driven_response(cfg, ds, scenario, noise, out_dir, manifest):
    """Complex reflection of a weak probe across the transparency window."""
    cavity = scenario.params["cavity"]
    points = scenario.params["points"]
    span = scenario.params.get("span")
    if span is None:
        span = 6.0 * abs(effective_linewidth(cfg, ds))
    grid = np.linspace(-span, span, points)
    s11 = driven_response(cfg, ds, cavity, grid)
    _write_columns(
        manifest,
        out_dir,
        "response.csv",
        ["offset_hz", "re_s11", "im_s11"],
        (grid / TWO_PI, s11.real, s11.imag),
    )
    fwhm = transparency_window_fwhm(cfg, ds, cavity)
    _write_record(
        manifest,
        out_dir,
        "summary.json",
        {
            "window_fwhm_hz": fwhm / TWO_PI,
            "damping_sum_hz": effective_linewidth(cfg, ds) / TWO_PI,
        },
    )


def _run_single_spectrum(cfg, ds, scenario, noise, out_dir, manifest):
    """One ideal spectrum of the configured drive set, plus a measurement."""
    spectrum, fit = _measure(
        cfg, ds, scenario.params["cavity"], noise, 0, out_dir, manifest, "noisy", fit_lorentzian,
        points=scenario.params["points"], span=scenario.params.get("span"),
    )
    write_spectrum_csv(spectrum, out_dir / "spectrum.csv")
    manifest.artifacts.append("spectrum.csv")
    _write_record(manifest, out_dir, "fit.json", fit.to_record())
    _write_record(manifest, out_dir, "summary.json", {"integrated_flux": spectrum.integrated_flux()})


# Every scenario by name: the parser of its ``scenario.params`` section and
# its runner. Adding a scenario is one entry here plus those two functions.
SCENARIOS = {
    "backaction_sweep": (parse_backaction_params, _run_backaction_sweep),
    "squeeze_sweep": (parse_squeeze_params, _run_squeeze_sweep),
    "tomography": (parse_tomography_params, _run_tomography),
    "driven_response": (parse_probe_params, _run_driven_response),
    "single_spectrum": (parse_probe_params, _run_single_spectrum),
}
