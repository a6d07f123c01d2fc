"""Scenario orchestration: run the bundled experiments end to end.

Each scenario builds drive configurations, evaluates the linear model,
synthesizes noisy spectra, runs the inference pipeline and emits plain data
tables (CSV) plus fit records (JSON). Plotting is left to the consumer. All
floating-point output is serialized with 17 significant digits and every
random draw is keyed by (seed, point index), so a rerun with the same
configuration and seed, on the same numpy and BLAS kernel, reproduces the
data artifacts byte for byte. On another kernel the values agree within the
bounds that ``tests/test_reference.py`` states. The run manifest records
timings and is excluded from either guarantee.

A runner is called as ``runner(run, ds, params)`` and writes only through
its run context ``run`` (``_Run``), which lists each artifact in the
manifest once it is written and gives each sweep point its
``failure_point`` and its entry in ``timings_s``. A scenario's params
check tests what it requires of the configured drives and hands a sweep
its cooling drive as ``params["cooling"]``, so every ``ConfigError`` comes
from ``load_config``, before ``out_dir`` exists.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, config
from .analytic import quadrature_variances, variance_of_phase
from .config import Scenario, sideband_samples, sideband_window
from .dynamics import (
    build_linear_model,
    driven_response,
    effective_linewidth,
    output_spectrum,
    spectrum_grid,
    transparency_window_fwhm,
    write_spectrum_csv,
)
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
from .sysmodel import TWO_PI, DriveSet, SystemConfig, drive_pair
from .tables import write_csv


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

    def write(self, out_dir: Path) -> None:
        """Atomically serialize the manifest at the end of the run."""
        tmp = out_dir / "manifest.json.tmp"
        payload = asdict(self)
        payload["artifacts"].sort()
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out_dir / "manifest.json")


@dataclass(frozen=True)
class _Run:
    """The device, noise model, output directory and manifest of one run.

    Its methods look the pipeline functions up as module globals at each
    call, so a wrapper installed on those globals sees every call.
    """

    cfg: SystemConfig
    noise: NoiseModel
    out_dir: Path
    manifest: RunManifest

    def record(self, name: str, records: dict) -> None:
        write_fit_records(records, self.out_dir / name)
        self.manifest.artifacts.append(name)

    def table(self, name: str, names, columns) -> None:
        write_csv(self.out_dir / name, names, columns)
        self.manifest.artifacts.append(name)

    def points(self, values, label: str):
        """Yield ``(k, tag, value)`` for each sweep point.

        While a point runs, ``failure_point`` names it; once it completes,
        ``timings_s[tag]`` holds its duration. A failed point gets no timing.
        """
        for k, value in enumerate(values):
            t0 = time.perf_counter()
            tag = f"point_{k:02d}"
            self.manifest.failure_point = f"{tag} ({label} {value:g})"
            yield k, tag, value
            self.manifest.timings_s[tag] = time.perf_counter() - t0

    def measure(self, ds, cavity, stream, tag, fit, *, points, span=None):
        """One synthesized measurement of a cavity's output, fitted and written.

        The grid is ``spectrum_grid`` of the drive set's model, ``points``
        offsets over ``span`` or its default. ``fit`` maps the noisy
        spectrum to the fit result. It runs before the spectrum is written
        as ``{tag}.csv``, because a fit that follows the write of its own
        spectrum is measurably slower. Returns the ideal spectrum and the
        fit result.
        """
        m = build_linear_model(self.cfg, ds)
        spectrum = output_spectrum(m, cavity, spectrum_grid(m, points=points, span=span))
        noisy = synthesize(spectrum, self.noise, stream=stream)
        result = fit(noisy)
        write_noisy_csv(noisy, self.out_dir / f"{tag}.csv")
        self.manifest.artifacts.append(f"{tag}.csv")
        return spectrum, result

    def area(self, ds, cavity, stream, tag, points):
        """Lorentzian fit of one measurement, recorded as ``{tag}_fit.json``.

        The fit linewidth is pinned to ``effective_linewidth``, the
        weak-coupling total damping gamma_m + sum(Gamma- - Gamma+) of the
        drive set, computed from its rates rather than calibrated from a
        driven response. The pin removes the area-width correlation of a
        free fit on weak peaks.
        """
        width = effective_linewidth(self.cfg, ds)
        _, fit = self.measure(
            ds, cavity, stream, tag, lambda noisy: fit_lorentzian(noisy, fwhm=width), points=points
        )
        self.record(f"{tag}_fit.json", fit.to_record())
        return fit


def _fit_sidebands(noisy, delta: float, window: float, width: float):
    """Anti-Stokes and Stokes fits of the sidebands at -delta and +delta."""
    return tuple(
        fit_lorentzian(noisy.windowed(inside), fwhm=width, center=c)
        for inside, c in zip(sideband_samples(noisy.freq, delta, window), (-delta, delta))
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

    ``ds`` and ``scenario`` come from one ``load_config`` call, which has
    checked every scenario requirement. A ``seed`` override replaces the
    configured seed, and is checked, before ``out_dir`` is made. A failure
    at any sweep point still writes the manifest, with the failed point
    identified in ``failure_point``, before the error propagates; artifacts
    of the completed points are preserved.
    """
    noise = scenario.noise if seed is None else replace(scenario.noise, seed=seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        toolkit_version=__version__,
        scenario=scenario.name,
        seed=noise.seed,
        config_digest=config_digest,
    )
    run = _Run(cfg, noise, out_dir, manifest)
    *_, runner = SCENARIOS[scenario.name]
    start = time.perf_counter()
    try:
        runner(run, ds, scenario.params)
        manifest.failure_point = None
        run.record("fit_units.json", FIT_RECORD_UNITS)
    except BaseException as exc:
        manifest.status = "failed"
        manifest.failure = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.timings_s["total"] = time.perf_counter() - start
        manifest.write(out_dir)
    return manifest


def _run_backaction_sweep(run: _Run, ds: DriveSet, params: dict) -> None:
    """Measurement-strength sweep with balanced pairs, by frequency placement.

    Per point: the pair detuned symmetrically off its sidebands measures both
    quadratures (its two thermomechanical sidebands are fitted separately),
    the on-sideband pair measures the single quadrature X1, and the cooling
    cavity's sideband provides the total occupancy in the latter case.
    """
    cooling = params["cooling"]
    delta = params["pair_detuning"]
    points = params["points"]
    rows = []
    per_point = []
    for k, tag, ratio in run.points(params["ratios"], "gamma_ratio"):
        gamma_meas = ratio * cooling.rate

        # detuned (both-quadrature) case: two sidebands at -/+ delta
        ds_nonqnd = DriveSet(
            (cooling,) + drive_pair(1, gamma_meas, gamma_meas, detuning=delta)
        )
        width = effective_linewidth(run.cfg, ds_nonqnd)
        span, window = sideband_window(width, delta)
        _, (anti, stokes) = run.measure(
            ds_nonqnd, 1, 3 * k, f"{tag}_nonqnd",
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
        run.record(
            f"{tag}_nonqnd_fit.json",
            {"anti_stokes": anti.to_record(), "stokes": stokes.to_record(), "calibration_factor": calibration},
        )

        # on-sideband (single-quadrature) case: X1 from cavity 1, total
        # occupancy from the cooling cavity's sideband
        ds_qnd = DriveSet((cooling,) + drive_pair(1, gamma_meas, gamma_meas))
        fit1 = run.area(ds_qnd, 1, 3 * k + 1, f"{tag}_qnd_cav1", points)
        fit2 = run.area(ds_qnd, 2, 3 * k + 2, f"{tag}_qnd_cav2", points)
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

    data = np.array(rows)
    run.table(
        "backaction.csv",
        ["gamma_ratio", "n_tot_qnd", "n_tot_qnd_err", "n_tot_nonqnd", "n_tot_nonqnd_err", "v1_qnd", "v1_qnd_err"],
        data.T,
    )
    line = backaction_line_fit(data[:, 0], data[:, 3], data[:, 4])
    top = int(np.argmax(data[:, 0]))
    evasion = backaction_evasion_report(
        qnd_v1=float(data[top, 5]),
        qnd_v1_err=float(data[top, 6]),
        line=line,
        gamma_ratio=float(data[top, 0]),
    )
    run.record(
        "summary.json",
        {"line_fit": asdict(line), "evasion": asdict(evasion), "asymmetry": per_point},
    )


def _run_squeeze_sweep(run: _Run, ds: DriveSet, params: dict) -> None:
    """Squeezed and anti-squeezed variances against the drive-rate ratio.

    Per ratio the control pair sets the engineered bath and the balanced
    measurement pair reads X1 (angle 0) and X2 (angle pi/2) in separate
    acquisitions. Theory columns come from the closed-form moments of the
    same drive sets.
    """
    cooling = params["cooling"]
    gamma_meas = params["measurement_ratio"] * cooling.rate
    rows = []
    for k, tag, ratio in run.points(params["ratios"], "squeeze_ratio"):
        control = drive_pair(2, cooling.rate, ratio * cooling.rate)
        measured, theory = [ratio], []
        for sub, angle in enumerate((0.0, math.pi / 2.0)):
            ds_phi = DriveSet(control + drive_pair(1, gamma_meas, gamma_meas, angle=angle))
            fit = run.area(ds_phi, 1, 2 * k + sub, f"{tag}_angle{sub}", params["points"])
            measured += [fit.area / gamma_meas, fit.area_err / gamma_meas]
            theory.append(variance_of_phase(quadrature_variances(run.cfg.mech, ds_phi), angle))
        rows.append(measured + theory)
    data = np.array(rows)
    run.table(
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
    run.record("summary.json", summary)


def _run_tomography(run: _Run, ds: DriveSet, params: dict) -> None:
    """Variance of the measured quadrature versus measurement phase.

    The control drives come from the configuration (cooling only gives the
    isotropic state, an asymmetric pair a squeezed one); the balanced pair's
    angle is swept over [0, pi].
    """
    cooling = params["cooling"]
    gamma_meas = params["measurement_ratio"] * cooling.rate
    rows = []
    for k, tag, phi in run.points(np.linspace(0.0, math.pi, params["n_phases"]), "phi"):
        ds_phi = DriveSet(ds.drives + drive_pair(1, gamma_meas, gamma_meas, angle=phi))
        fit = run.area(ds_phi, 1, k, tag, params["points"])
        theory = variance_of_phase(quadrature_variances(run.cfg.mech, ds_phi), phi)
        rows.append([phi, fit.area / gamma_meas, fit.area_err / gamma_meas, theory])
    data = np.array(rows)
    run.table("tomogram.csv", ["phi_rad", "v_measured", "v_err", "v_theory"], data.T)
    fit = tomography_sweep(data[:, 0], data[:, 1], data[:, 2])
    metrics = squeezing_metrics(fit)
    occupancy = (fit.v1 + fit.v2 - 2.0) / 4.0
    occupancy_err = math.sqrt(fit.cov[0, 0] + fit.cov[1, 1] + 2.0 * fit.cov[0, 1]) / 4.0
    run.record(
        "summary.json",
        {
            "tomogram": fit.to_record(),
            "metrics": asdict(metrics),
            "occupancy": occupancy,
            "occupancy_err": occupancy_err,
        },
    )


def _run_driven_response(run: _Run, ds: DriveSet, params: dict) -> None:
    """Complex reflection of a weak probe across the transparency window."""
    cavity = params["cavity"]
    width = effective_linewidth(run.cfg, ds)
    span = params.get("span", 6.0 * abs(width))
    grid = np.linspace(-span, span, params["points"])
    s11 = driven_response(run.cfg, ds, cavity, grid)
    run.table("response.csv", ["offset_hz", "re_s11", "im_s11"], (grid / TWO_PI, s11.real, s11.imag))
    fwhm = transparency_window_fwhm(run.cfg, ds, cavity)
    run.record(
        "summary.json",
        {"window_fwhm_hz": fwhm / TWO_PI, "damping_sum_hz": width / TWO_PI},
    )


def _run_single_spectrum(run: _Run, ds: DriveSet, params: dict) -> None:
    """One ideal spectrum of the configured drive set, plus a measurement."""
    spectrum, fit = run.measure(
        ds, params["cavity"], 0, "noisy", fit_lorentzian,
        points=params["points"], span=params.get("span"),
    )
    write_spectrum_csv(spectrum, run.out_dir / "spectrum.csv")
    run.manifest.artifacts.append("spectrum.csv")
    run.record("fit.json", fit.to_record())
    run.record("summary.json", {"integrated_flux": spectrum.integrated_flux()})


# Every scenario by name: the table of its ``scenario.params`` section, the
# check that runs once the table is read (None if there is none) and its
# runner. Adding a scenario is one entry here plus those three.
SCENARIOS = {
    "backaction_sweep": (config.BACKACTION_PARAMS, config.check_backaction_params, _run_backaction_sweep),
    "squeeze_sweep": (config.SQUEEZE_PARAMS, config.check_squeeze_params, _run_squeeze_sweep),
    "tomography": (config.TOMOGRAPHY_PARAMS, config.check_tomography_params, _run_tomography),
    "driven_response": (config.PROBE_PARAMS, None, _run_driven_response),
    "single_spectrum": (config.PROBE_PARAMS, None, _run_single_spectrum),
}
