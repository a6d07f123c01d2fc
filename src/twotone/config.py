"""Strict JSON configuration schema for devices, drives and scenarios.

Physical quantities carry their unit in the key name (``_hz``, ``_rad``;
occupancies and ratios are dimensionless) and are converted to angular
frequencies on load. The schema is strict: unknown keys are rejected with
their full path, physical parameters have no defaults, and only numerical
knobs (grid sizes, spans) may be omitted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .dynamics import effective_linewidth
from .errors import ConfigError, DomainError
from .inference import backaction_line_fit
from .sysmodel import (
    LOWER,
    RESOLVED_SIDEBAND_RATIO,
    TWO_PI,
    UPPER,
    Cavity,
    Drive,
    DriveSet,
    MechanicalMode,
    SystemConfig,
    drive_pair,
)
from .synthesis import NoiseModel

# Smallest spread (max - min) of the backaction ratios, as a share of the
# largest. The line fit solves the normal equations, whose condition number
# grows as the inverse square of the spread: at this spread a two-point slope
# is still exact to about 1e-7. The ratios must also pass the line fit's own
# degeneracy rule at unit weights, which also rejects ratios clustered far
# from 1: its normal matrix holds an intercept column of ones.
MIN_RATIO_SPREAD = 1e-4
# Floating parameters of each sideband fit of the detuned pair, whose
# linewidth and center are pinned: a window must hold more samples than this.
SIDEBAND_FIT_PARAMETERS = 3


@dataclass(frozen=True)
class Scenario:
    """A named experiment with its sweep grid, noise model and output dir."""

    name: str
    params: dict
    noise: NoiseModel
    outputs: str | None = None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required field {path}.{key}")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {type(value).__name__}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")


def _rate_ratio(value, path: str) -> float:
    ratio = _number(value, path)
    if not math.isfinite(ratio):
        raise ConfigError(f"{path} must be finite, got {ratio}")
    if ratio < 0:
        raise ConfigError(f"{path} = {ratio:g}: scattering rate must be non-negative")
    return ratio


def _rate_ratios(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of numbers")
    return [_rate_ratio(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _measurement_ratio(raw: dict, path: str) -> float:
    """The measurement pair's rate ratio, positive: every fitted area is divided by its rate."""
    ratio = _rate_ratio(_require(raw, "measurement_ratio", path), f"{path}.measurement_ratio")
    if ratio == 0:
        raise ConfigError(f"{path}.measurement_ratio = 0: a measured scattering rate must be positive")
    return ratio


def _grid_points(raw: dict, path: str) -> int:
    points = _integer(raw.get("points", 2001), f"{path}.points")
    if points < 2:
        raise ConfigError(f"{path}.points must be at least 2, got {points}")
    return points


def _parse_mechanics(section: dict) -> MechanicalMode:
    path = "system.mechanics"
    _check_keys(section, {"frequency_hz", "damping_hz", "thermal_occupancy"}, path)
    return MechanicalMode(
        omega=TWO_PI * _number(_require(section, "frequency_hz", path), f"{path}.frequency_hz"),
        gamma=TWO_PI * _number(_require(section, "damping_hz", path), f"{path}.damping_hz"),
        n_thermal=_number(_require(section, "thermal_occupancy", path), f"{path}.thermal_occupancy"),
    )


def _parse_cavity(section: dict, index: int) -> Cavity:
    path = f"system.cavities[{index}]"
    _check_keys(
        section,
        {"frequency_hz", "linewidth_hz", "external_coupling_hz", "vacuum_coupling_hz", "thermal_occupancy"},
        path,
    )
    return Cavity(
        omega=TWO_PI * _number(_require(section, "frequency_hz", path), f"{path}.frequency_hz"),
        kappa=TWO_PI * _number(_require(section, "linewidth_hz", path), f"{path}.linewidth_hz"),
        kappa_ext=TWO_PI
        * _number(_require(section, "external_coupling_hz", path), f"{path}.external_coupling_hz"),
        g0=TWO_PI * _number(_require(section, "vacuum_coupling_hz", path), f"{path}.vacuum_coupling_hz"),
        n_thermal=_number(_require(section, "thermal_occupancy", path), f"{path}.thermal_occupancy"),
    )


def _parse_drive(section: dict, index: int) -> Drive:
    path = f"drives[{index}]"
    _check_keys(section, {"cavity", "sideband", "rate_hz", "detuning_hz", "phase_rad"}, path)
    cavity = _integer(_require(section, "cavity", path), f"{path}.cavity")
    sideband = _require(section, "sideband", path)
    if sideband not in ("lower", "upper"):
        raise ConfigError(f"{path}.sideband must be 'lower' or 'upper'")
    return Drive(
        cavity_index=cavity,
        sideband=sideband,
        rate=TWO_PI * _number(_require(section, "rate_hz", path), f"{path}.rate_hz"),
        detuning=TWO_PI * _number(section.get("detuning_hz", 0.0), f"{path}.detuning_hz"),
        phase=_number(section.get("phase_rad", 0.0), f"{path}.phase_rad"),
    )


def _parse_noise(section: dict, path: str) -> NoiseModel:
    _check_keys(section, {"floor", "averages", "seed"}, path)
    return NoiseModel(
        floor=_number(_require(section, "floor", path), f"{path}.floor"),
        averages=_integer(_require(section, "averages", path), f"{path}.averages"),
        seed=_integer(_require(section, "seed", path), f"{path}.seed"),
    )


def _cooling_drive(ds: DriveSet, scenario: str, upper_error: str | None = None) -> Drive:
    """The cavity-2 cooling drive of a sweep that builds the cavity-1 drives.

    Its rate must be positive: the measured rates are multiples of it, and
    each fitted area is divided by one of them. With ``upper_error`` given,
    an upper-sideband drive on cavity 2 is rejected with that message as
    well.
    """
    cooling = ds.get(2, LOWER)
    if cooling is None:
        raise ConfigError(f"scenario {scenario} requires a lower-sideband drive on cavity 2")
    if not cooling.rate > 0:
        raise ConfigError(f"scenario {scenario} requires a positive cooling rate, got {cooling.rate:g}")
    if upper_error is not None and ds.get(2, UPPER) is not None:
        raise ConfigError(upper_error)
    if any(d.cavity_index == 1 for d in ds.drives):
        raise ConfigError(
            f"scenario {scenario} constructs the cavity-1 drives itself; "
            "remove them from the drives list"
        )
    return cooling


def sideband_window(width: float, delta: float) -> tuple[float, float]:
    """Span of the detuned pair's spectrum and half-width of each sideband's fit window.

    The spectrum reaches ten effective linewidths ``width`` beyond the
    sidebands at -delta and +delta; each is fitted over the samples within
    0.85 delta of it, or within those ten linewidths if that is less.
    """
    span = delta + 10.0 * width
    return span, min(0.85 * delta, span - delta)


def sideband_samples(
    freq: NDArray[np.float64], delta: float, window: float
) -> tuple[NDArray[np.bool_], ...]:
    """The samples of ``freq`` in the anti-Stokes (-delta) and Stokes (+delta) fit windows."""
    return tuple(np.abs(freq - c) < window for c in (-delta, delta))


def parse_backaction_params(raw: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> dict:
    """``scenario.params`` of ``backaction_sweep``, with its cooling drive.

    Each point's detuned pair is fitted sideband by sideband; a grid that
    leaves too few samples in a window for that fit is refused here, from
    the very window and grid the run will use.
    """
    _check_keys(raw, {"ratios", "pair_detuning_hz", "points"}, path)
    ratios = _rate_ratios(_require(raw, "ratios", path), f"{path}.ratios")
    if 0.0 in ratios:  # each sets the measurement pair's rates, which fitted areas are divided by
        raise ConfigError(f"{path}.ratios[{ratios.index(0.0)}] = 0: a measured scattering rate must be positive")
    if not max(ratios) - min(ratios) > MIN_RATIO_SPREAD * max(ratios):
        raise ConfigError(
            f"{path}.ratios must spread by more than {MIN_RATIO_SPREAD:g} of the largest "
            "ratio for the backaction line fit"
        )
    try:
        backaction_line_fit(ratios, [0.0] * len(ratios), [1.0] * len(ratios))
    except DomainError as exc:
        raise ConfigError(f"{path}.ratios do not admit the backaction line fit: {exc}") from None
    detuning = _number(_require(raw, "pair_detuning_hz", path), f"{path}.pair_detuning_hz")
    if not 0.0 < detuning < math.inf:
        raise ConfigError(f"{path}.pair_detuning_hz must be positive and finite, got {detuning}")
    points = _grid_points(raw, path)
    cooling = _cooling_drive(ds, "backaction_sweep", "backaction_sweep runs against a pure cooling drive")
    delta = TWO_PI * detuning
    widths = set()  # one in practice: the balanced pair leaves the linewidth as it is
    for ratio in ratios:
        rate = ratio * cooling.rate
        try:
            pair = DriveSet((cooling,) + drive_pair(1, rate, rate, detuning=delta))
        except DomainError as exc:
            raise ConfigError(f"{path}.ratios: {ratio:g} times the cooling rate: {exc}") from None
        widths.add(effective_linewidth(cfg, pair))
    for width in widths:
        span, window = sideband_window(width, delta)
        grid = np.linspace(-span, span, points)
        fewest = min(int(np.count_nonzero(inside)) for inside in sideband_samples(grid, delta, window))
        if fewest <= SIDEBAND_FIT_PARAMETERS:
            raise ConfigError(
                f"{path}.points = {points} leaves {fewest} samples in a sideband fit window; "
                f"the fit needs more than {SIDEBAND_FIT_PARAMETERS}"
            )
    return {"ratios": ratios, "pair_detuning": delta, "points": points, "cooling": cooling}


def parse_squeeze_params(raw: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> dict:
    """``scenario.params`` of ``squeeze_sweep``, with its cooling drive."""
    _check_keys(raw, {"ratios", "measurement_ratio", "points"}, path)
    ratios = _rate_ratios(_require(raw, "ratios", path), f"{path}.ratios")
    ratio, points = _measurement_ratio(raw, path), _grid_points(raw, path)
    upper = "squeeze_sweep constructs the upper control tone per point; remove it from the drives list"
    cooling = _cooling_drive(ds, "squeeze_sweep", upper)
    if cooling.detuning != 0.0 or cooling.phase != 0.0:
        raise ConfigError(
            "scenario squeeze_sweep requires a resonant cooling tone at phase 0, since it builds "
            f"each control pair from its rate alone; got {cooling.detuning / TWO_PI:g} Hz, {cooling.phase:g} rad"
        )
    return {"ratios": ratios, "measurement_ratio": ratio, "points": points, "cooling": cooling}


def parse_tomography_params(raw: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> dict:
    """``scenario.params`` of ``tomography``, with its cooling drive."""
    _check_keys(raw, {"n_phases", "measurement_ratio", "points"}, path)
    n_phases = _integer(_require(raw, "n_phases", path), f"{path}.n_phases")
    if n_phases < 5:
        raise ConfigError(f"{path}.n_phases must be at least 5")
    ratio, points = _measurement_ratio(raw, path), _grid_points(raw, path)
    cooling = _cooling_drive(ds, "tomography")
    for d in ds.drives:
        if d.detuning != 0.0:
            raise ConfigError(
                "scenario tomography requires resonant drives for its closed-form theory column; "
                f"the cavity {d.cavity_index} {d.sideband} tone is detuned by {d.detuning / TWO_PI:g} Hz"
            )
    return {"n_phases": n_phases, "measurement_ratio": ratio, "points": points, "cooling": cooling}


def parse_probe_params(raw: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> dict:
    """``scenario.params`` of the one-cavity scenarios: ``driven_response``, ``single_spectrum``."""
    _check_keys(raw, {"cavity", "points", "span_hz"}, path)
    cavity = _integer(_require(raw, "cavity", path), f"{path}.cavity")
    if cavity not in (1, 2):
        raise ConfigError(f"{path}.cavity must be 1 or 2")
    params = {"cavity": cavity, "points": _grid_points(raw, path)}
    if "span_hz" in raw:
        span = _number(raw["span_hz"], f"{path}.span_hz")
        if not 0.0 < span < math.inf:
            raise ConfigError(f"{path}.span_hz must be positive and finite, got {span}")
        params["span"] = TWO_PI * span
    return params


def _parse_scenario(section: dict, cfg: SystemConfig, ds: DriveSet) -> Scenario:
    # the table imports this module's parsers, so it is looked up here
    from .scenarios import SCENARIOS

    path = "scenario"
    _check_keys(section, {"name", "noise", "params", "output_dir", "note"}, path)
    name = _require(section, "name", path)
    if name not in SCENARIOS:
        raise ConfigError(f"{path}.name must be one of {tuple(SCENARIOS)}, got {name!r}")
    noise = _parse_noise(_require(section, "noise", path), f"{path}.noise")
    parse_params, _ = SCENARIOS[name]
    params = parse_params(_require(section, "params", path), f"{path}.params", cfg, ds)
    outputs = section.get("output_dir")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigError(f"{path}.output_dir must be a string path")
    if not isinstance(section.get("note"), (str, type(None))):
        raise ConfigError(f"{path}.note must be a string")
    return Scenario(name=name, params=params, noise=noise, outputs=outputs)


def load_config(path) -> tuple[SystemConfig, DriveSet, Scenario]:
    """Parse and validate a configuration file.

    Raises
    ------
    ConfigError
        On JSON syntax errors (with line and column), missing or unknown
        fields (with the field path), physically invalid values, or
        drives that the scenario cannot run with.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(document)


def parse_config(document: dict) -> tuple[SystemConfig, DriveSet, Scenario]:
    """Validate an already-parsed configuration document."""
    _check_keys(document, {"system", "drives", "scenario"}, "config")
    system = _require(document, "system", "config")
    _check_keys(system, {"mechanics", "cavities"}, "system")
    mech = _parse_mechanics(_require(system, "mechanics", "system"))
    cavities_raw = _require(system, "cavities", "system")
    if not isinstance(cavities_raw, list) or len(cavities_raw) != 2:
        raise ConfigError("system.cavities must list exactly two cavities")
    try:
        cavities = tuple(_parse_cavity(c, i) for i, c in enumerate(cavities_raw))
        cfg = SystemConfig(mech=mech, cavities=cavities)
        for i, cavity in enumerate(cfg.cavities):
            # every scenario builds the rotating-wave linear model, which needs this
            ratio = cfg.mech.omega / cavity.kappa
            if ratio <= RESOLVED_SIDEBAND_RATIO:
                raise ConfigError(
                    f"system.cavities[{i}]: omega_m/kappa = {ratio:.6g} must exceed "
                    f"{RESOLVED_SIDEBAND_RATIO:g}, the resolved-sideband condition of the linear model"
                )
        drives_raw = document.get("drives", [])
        if not isinstance(drives_raw, list):
            raise ConfigError("drives must be a list")
        ds = DriveSet(tuple(_parse_drive(d, i) for i, d in enumerate(drives_raw)))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    scenario = _parse_scenario(_require(document, "scenario", "config"), cfg, ds)
    return cfg, ds, scenario


def config_digest(path) -> str:
    """Stable digest of the configuration file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_config_path(name: str) -> Path:
    """Path of a configuration file shipped with the package."""
    ref = resources.files("twotone") / "configs" / name
    with resources.as_file(ref) as concrete:
        return Path(concrete)
