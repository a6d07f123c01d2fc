"""Strict JSON configuration schema for devices, drives and scenarios.

Physical quantities carry their unit in the key name (``_hz``, ``_rad``;
occupancies and ratios are dimensionless) and are converted to angular
frequencies on load. The schema is strict: unknown keys are rejected with
their full path, and physical parameters have no defaults but a drive's
detuning and phase (0). Each section's fields are listed once, in its table.
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
REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class Scenario:
    """A named experiment with its sweep grid, noise model and output dir."""

    name: str
    params: dict
    noise: NoiseModel
    outputs: str | None = None


def _read(section, path: str, table: dict) -> dict:
    """``section`` read by ``table``, which maps each key it allows to ``(keyword, reader, default)``.

    A key's value is kept under its keyword as ``reader(value, f"{path}.{key}")``
    returns it. An absent key takes its default, except that ``REQUIRED`` makes
    it an error and ``None`` leaves the keyword to the consumer's own default.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = section.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")
    fields = {}
    for key, (keyword, reader, default) in table.items():
        if key in section:
            fields[keyword] = reader(section[key], f"{path}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"missing required field {path}.{key}")
        elif default is not None:
            fields[keyword] = default
    return fields


def _raw(value, path: str):  # a section read with its own table once its context is known
    return value


def _checked(read, holds, message: str):
    """The reader ``read``, refusing a result for which ``holds`` is false with ``message`` formatted by it."""

    def reader(value, path: str):
        result = read(value, path)
        if not holds(result):
            raise ConfigError(f"{path} {message.format(result)}")
        return result

    return reader


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {type(value).__name__}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {type(value).__name__}")
    return value


_positive = _checked(_number, lambda x: 0.0 < x < math.inf, "must be positive and finite, got {}")
_finite = _checked(_number, math.isfinite, "must be finite, got {}")
_rate_ratio = _checked(_finite, lambda ratio: ratio >= 0, "= {:g}: scattering rate must be non-negative")
# every fitted area is divided by the measured rate
_measured_ratio = _checked(_rate_ratio, lambda ratio: ratio != 0, "= 0: a measured scattering rate must be positive")
_points = _checked(_integer, lambda n: n >= 2, "must be at least 2, got {}")
_n_phases = _checked(_integer, lambda n: n >= 5, "must be at least 5")
_cavity = _checked(_integer, lambda n: n in (1, 2), "must be 1 or 2")
_sideband = _checked(_raw, lambda text: text in (LOWER, UPPER), "must be 'lower' or 'upper'")
_output_dir = _checked(_raw, lambda text: text is None or isinstance(text, str), "must be a string path")
_note = _checked(_raw, lambda text: text is None or isinstance(text, str), "must be a string")


def _hz(value, path: str) -> float:
    return TWO_PI * _number(value, path)


def _positive_hz(value, path: str) -> float:
    return TWO_PI * _positive(value, path)


def _rate_ratios(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of numbers")
    return [_rate_ratio(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _scenario_name(value, path: str) -> str:
    from .scenarios import SCENARIOS  # which imports this module

    if not isinstance(value, str) or value not in SCENARIOS:
        raise ConfigError(f"{path} must be one of {tuple(SCENARIOS)}, got {value!r}")
    return value


def _mechanics(value, path: str) -> MechanicalMode:
    return MechanicalMode(**_read(value, path, MECHANICS))


def _cavities(value, path: str) -> tuple[Cavity, Cavity]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must list exactly two cavities")
    return tuple(Cavity(**_read(c, f"{path}[{i}]", CAVITY)) for i, c in enumerate(value))


def _noise(value, path: str) -> NoiseModel:
    return NoiseModel(**_read(value, path, NOISE))


# The schema: one table per section, mapping each JSON key to (keyword, reader, default).
# The top level prefixes no path, so parse_config reads its sections itself.
DOCUMENT = {
    "system": ("system", _raw, REQUIRED),
    "drives": ("drives", _raw, []),
    "scenario": ("scenario", _raw, REQUIRED),
}
SYSTEM = {"mechanics": ("mech", _mechanics, REQUIRED), "cavities": ("cavities", _cavities, REQUIRED)}
MECHANICS = {
    "frequency_hz": ("omega", _hz, REQUIRED),
    "damping_hz": ("gamma", _hz, REQUIRED),
    "thermal_occupancy": ("n_thermal", _number, REQUIRED),
}
CAVITY = {
    "frequency_hz": ("omega", _hz, REQUIRED),
    "linewidth_hz": ("kappa", _hz, REQUIRED),
    "external_coupling_hz": ("kappa_ext", _hz, REQUIRED),
    "vacuum_coupling_hz": ("g0", _hz, REQUIRED),
    "thermal_occupancy": ("n_thermal", _number, REQUIRED),
}
DRIVE = {
    "cavity": ("cavity_index", _integer, REQUIRED),
    "sideband": ("sideband", _sideband, REQUIRED),
    "rate_hz": ("rate", _hz, REQUIRED),
    "detuning_hz": ("detuning", _hz, None),
    "phase_rad": ("phase", _number, None),
}
SCENARIO = {
    "name": ("name", _scenario_name, REQUIRED),
    "noise": ("noise", _noise, REQUIRED),
    "params": ("params", _raw, REQUIRED),  # by the table of the scenario named
    "output_dir": ("outputs", _output_dir, None),
    "note": ("note", _note, None),
}
NOISE = {
    "floor": ("floor", _number, REQUIRED),
    "averages": ("averages", _integer, REQUIRED),
    "seed": ("seed", _integer, REQUIRED),
}
# Each scenario's params, listed beside its check and runner in scenarios.SCENARIOS
POINTS = ("points", _points, 2001)
RATIOS = ("ratios", _rate_ratios, REQUIRED)
MEASUREMENT_RATIO = ("measurement_ratio", _measured_ratio, REQUIRED)
BACKACTION_PARAMS = {
    "ratios": RATIOS,
    "pair_detuning_hz": ("pair_detuning", _positive_hz, REQUIRED),
    "points": POINTS,
}
SQUEEZE_PARAMS = {"ratios": RATIOS, "measurement_ratio": MEASUREMENT_RATIO, "points": POINTS}
TOMOGRAPHY_PARAMS = {
    "n_phases": ("n_phases", _n_phases, REQUIRED),
    "measurement_ratio": MEASUREMENT_RATIO,
    "points": POINTS,
}
PROBE_PARAMS = {"cavity": ("cavity", _cavity, REQUIRED), "points": POINTS, "span_hz": ("span", _positive_hz, None)}


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


def check_backaction_params(params: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> None:
    """The cross-field checks of ``backaction_sweep``; adds its cooling drive as ``params["cooling"]``.

    Each point's detuned pair is fitted sideband by sideband; a grid that
    leaves too few samples in a window for that fit is refused here, from
    the very window and grid the run will use.
    """
    ratios, delta, points = params["ratios"], params["pair_detuning"], params["points"]
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
    cooling = _cooling_drive(ds, "backaction_sweep", "backaction_sweep runs against a pure cooling drive")
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
    params["cooling"] = cooling


def check_squeeze_params(params: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> None:
    """The drive requirements of ``squeeze_sweep``; adds its cooling drive as ``params["cooling"]``."""
    upper = "squeeze_sweep constructs the upper control tone per point; remove it from the drives list"
    cooling = _cooling_drive(ds, "squeeze_sweep", upper)
    if cooling.detuning != 0.0 or cooling.phase != 0.0:
        raise ConfigError(
            "scenario squeeze_sweep requires a resonant cooling tone at phase 0, since it builds "
            f"each control pair from its rate alone; got {cooling.detuning / TWO_PI:g} Hz, {cooling.phase:g} rad"
        )
    params["cooling"] = cooling


def check_tomography_params(params: dict, path: str, cfg: SystemConfig, ds: DriveSet) -> None:
    """The drive requirements of ``tomography``; adds its cooling drive as ``params["cooling"]``."""
    params["cooling"] = _cooling_drive(ds, "tomography")
    for d in ds.drives:
        if d.detuning != 0.0:
            raise ConfigError(
                "scenario tomography requires resonant drives for its closed-form theory column; "
                f"the cavity {d.cavity_index} {d.sideband} tone is detuned by {d.detuning / TWO_PI:g} Hz"
            )


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
    from .scenarios import SCENARIOS  # which imports this module

    sections = _read(document, "config", DOCUMENT)
    try:
        cfg = SystemConfig(**_read(sections["system"], "system", SYSTEM))
        for i, cavity in enumerate(cfg.cavities):
            # every scenario builds the rotating-wave linear model, which needs this
            ratio = cfg.mech.omega / cavity.kappa
            if ratio <= RESOLVED_SIDEBAND_RATIO:
                raise ConfigError(
                    f"system.cavities[{i}]: omega_m/kappa = {ratio:.6g} must exceed "
                    f"{RESOLVED_SIDEBAND_RATIO:g}, the resolved-sideband condition of the linear model"
                )
        if not isinstance(sections["drives"], list):
            raise ConfigError("drives must be a list")
        ds = DriveSet(tuple(Drive(**_read(d, f"drives[{i}]", DRIVE)) for i, d in enumerate(sections["drives"])))
        scenario = _read(sections["scenario"], "scenario", SCENARIO)
        table, check, _ = SCENARIOS[scenario["name"]]
        params = _read(scenario["params"], "scenario.params", table)
        if check is not None:
            check(params, "scenario.params", cfg, ds)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    outputs = scenario.get("outputs")
    return cfg, ds, Scenario(name=scenario["name"], params=params, noise=scenario["noise"], outputs=outputs)


def config_digest(path) -> str:
    """Stable digest of the configuration file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_config_path(name: str) -> Path:
    """Path of a configuration file shipped with the package."""
    ref = resources.files("twotone") / "configs" / name
    with resources.as_file(ref) as concrete:
        return Path(concrete)
