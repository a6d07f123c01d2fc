"""Device description, drive configuration and physical-validity checks.

A single mechanical mode is dispersively coupled to two microwave cavities.
Each cavity can carry a drive on its lower and/or upper mechanical sideband;
a drive is specified by the sideband scattering rate it induces,
``gamma = 4 g0^2 n_photons / kappa``, rather than by photon number, so the
steady-state formulas consume it directly.

All frequencies and rates are angular (rad/s). Quadratures are normalized so
a vacuum state has variance 1 and a thermal state has variance 2 n + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

TWO_PI = 2.0 * math.pi

LOWER = "lower"
UPPER = "upper"
SIDEBANDS = (LOWER, UPPER)

# The sideband-pair symmetry condition is exact in the model; these fixed
# tolerances only absorb floating-point noise.
QND_RATE_RTOL = 1e-9
QND_DETUNING_RTOL = 1e-9

# omega_m / kappa above which the rotating-wave linear model applies: the
# counter-rotating sideband it drops is then far outside the cavity line.
RESOLVED_SIDEBAND_RATIO = 5.0


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical oscillator: frequency, relaxation rate, bath occupancy.

    Parameters
    ----------
    omega:
        Angular resonance frequency (rad/s).
    gamma:
        Energy relaxation rate (rad/s).
    n_thermal:
        Equilibrium phonon occupancy of the mechanical bath.
    """

    omega: float
    gamma: float
    n_thermal: float

    def __post_init__(self):
        _require_finite("omega", self.omega)
        _require_finite("gamma", self.gamma)
        _require_finite("n_thermal", self.n_thermal)
        if self.omega <= 0:
            raise DomainError("mechanical frequency must be positive")
        if self.gamma <= 0:
            raise DomainError("mechanical relaxation rate must be positive")
        if self.n_thermal < 0:
            raise DomainError("thermal occupancy must be non-negative")

    @property
    def thermal_variance(self) -> float:
        """Quadrature variance 2 n + 1 of the equilibrium thermal state."""
        return 2.0 * self.n_thermal + 1.0


# Overcoupled default: internal dissipation contributes 5% of the linewidth.
DEFAULT_EXTERNAL_FRACTION = 0.95


@dataclass(frozen=True)
class Cavity:
    """Microwave cavity with one external port and an internal loss port.

    Parameters
    ----------
    omega:
        Angular resonance frequency (rad/s).
    kappa:
        Total linewidth (rad/s).
    g0:
        Vacuum optomechanical coupling rate (rad/s).
    kappa_ext:
        External coupling rate (rad/s). Defaults to 0.95 kappa.
    n_thermal:
        Thermal occupancy of the cavity baths (both ports). Defaults to 0.
    """

    omega: float
    kappa: float
    g0: float
    kappa_ext: float | None = None
    n_thermal: float = 0.0

    def __post_init__(self):
        if self.kappa_ext is None:
            object.__setattr__(self, "kappa_ext", DEFAULT_EXTERNAL_FRACTION * self.kappa)
        for name in ("omega", "kappa", "g0", "kappa_ext", "n_thermal"):
            _require_finite(name, getattr(self, name))
        if self.omega <= 0 or self.kappa <= 0 or self.g0 <= 0:
            raise DomainError("cavity frequency, linewidth and g0 must be positive")
        if not 0.0 < self.kappa_ext <= self.kappa:
            raise DomainError("external coupling must satisfy 0 < kappa_ext <= kappa")
        if self.n_thermal < 0:
            raise DomainError("cavity thermal occupancy must be non-negative")

    @property
    def kappa_int(self) -> float:
        return self.kappa - self.kappa_ext

    @property
    def external_fraction(self) -> float:
        return self.kappa_ext / self.kappa


@dataclass(frozen=True)
class SystemConfig:
    """Static device description: one mechanical mode, two cavities.

    Cavity index 1 is the measurement cavity, index 2 the control cavity.
    Both must be sideband resolved (omega_m > kappa): below that the
    sidebands overlap and the device is outside the physical domain. The
    stricter ``RESOLVED_SIDEBAND_RATIO`` is where the rotating-wave model
    becomes accurate; a device between the two limits is valid and is
    reported by ``validate_system`` and refused by the linear model.
    """

    mech: MechanicalMode
    cavities: tuple[Cavity, Cavity]

    def __post_init__(self):
        if len(self.cavities) != 2:
            raise DomainError("exactly two cavities are required")
        for i, cav in enumerate(self.cavities, start=1):
            if self.mech.omega / cav.kappa <= 1.0:
                raise DomainError(
                    f"cavity {i} is not sideband resolved: "
                    f"omega_m/kappa = {self.mech.omega / cav.kappa:.3g}"
                )

    def cavity(self, index: int) -> Cavity:
        if index not in (1, 2):
            raise DomainError(f"cavity index must be 1 or 2, got {index}")
        return self.cavities[index - 1]


@dataclass(frozen=True)
class Drive:
    """One microwave tone near a mechanical sideband of one cavity.

    Parameters
    ----------
    cavity_index:
        Target cavity, 1 or 2.
    sideband:
        ``"lower"`` (anti-Stokes / beam-splitter) or ``"upper"``
        (Stokes / two-mode squeezing).
    rate:
        Sideband scattering rate gamma (rad/s).
    detuning:
        Offset of the tone from the exact sideband frequency (rad/s).
    phase:
        Drive phase (rad).
    """

    cavity_index: int
    sideband: str
    rate: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.cavity_index not in (1, 2):
            raise DomainError(f"cavity index must be 1 or 2, got {self.cavity_index}")
        if self.sideband not in SIDEBANDS:
            raise DomainError(f"sideband must be 'lower' or 'upper', got {self.sideband!r}")
        _require_finite("rate", self.rate)
        _require_finite("detuning", self.detuning)
        _require_finite("phase", self.phase)
        if self.rate < 0:
            raise DomainError("scattering rate must be non-negative")

    @property
    def slot(self) -> tuple[int, str]:
        return (self.cavity_index, self.sideband)


@dataclass(frozen=True)
class DriveSet:
    """The applied tones, at most one per (cavity, sideband) slot."""

    drives: tuple[Drive, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "drives", tuple(self.drives))
        if len(self.drives) > 4:
            raise DomainError("at most four drives (two cavities, two sidebands)")
        slots = [d.slot for d in self.drives]
        if len(set(slots)) != len(slots):
            raise DomainError("duplicate (cavity, sideband) drive slot")

    def get(self, cavity_index: int, sideband: str) -> Drive | None:
        for d in self.drives:
            if d.cavity_index == cavity_index and d.sideband == sideband:
                return d
        return None

    def rate(self, cavity_index: int, sideband: str) -> float:
        d = self.get(cavity_index, sideband)
        return d.rate if d is not None else 0.0

    def driven_cavities(self) -> tuple[int, ...]:
        return tuple(sorted({d.cavity_index for d in self.drives}))

    def digest(self) -> str:
        """Short stable digest of the drive configuration, used in metadata."""
        import hashlib

        text = ";".join(
            f"{d.cavity_index}{d.sideband[0]}:{d.rate:.17g},{d.detuning:.17g},{d.phase:.17g}"
            for d in sorted(self.drives, key=lambda d: d.slot)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def drive_pair(
    cavity_index: int,
    rate_lower: float,
    rate_upper: float,
    *,
    angle: float = 0.0,
    detuning: float = 0.0,
) -> tuple[Drive, Drive]:
    """Build a lower/upper sideband tone pair on one cavity.

    ``angle`` sets the mechanical quadrature the pair addresses: the drive
    phases are -angle and +angle, so an equal-rate pair measures X_angle and
    an unequal pair squeezes along X_angle. ``detuning`` moves the tones
    symmetrically outward, to rate_lower at -detuning and rate_upper at
    +detuning from their sidebands.
    """
    return (
        Drive(cavity_index, LOWER, rate_lower, detuning=-detuning, phase=-angle),
        Drive(cavity_index, UPPER, rate_upper, detuning=+detuning, phase=+angle),
    )


def scattering_rate(g0: float, n_photons: float, kappa: float) -> float:
    """Sideband scattering rate 4 g0^2 n / kappa of a drive (rad/s).

    Parameters
    ----------
    g0:
        Vacuum optomechanical coupling (rad/s).
    n_photons:
        Intracavity photon number induced by the drive.
    kappa:
        Total cavity linewidth (rad/s).
    """
    g0 = _require_finite("g0", g0)
    n_photons = _require_finite("n_photons", n_photons)
    kappa = _require_finite("kappa", kappa)
    if g0 < 0 or n_photons < 0 or kappa <= 0:
        raise DomainError("scattering_rate requires g0, n >= 0 and kappa > 0")
    return 4.0 * g0 * g0 * n_photons / kappa


def photons_for_rate(g0: float, rate: float, kappa: float) -> float:
    """Intracavity photon number that yields a given scattering rate."""
    g0 = _require_finite("g0", g0)
    rate = _require_finite("rate", rate)
    kappa = _require_finite("kappa", kappa)
    if g0 <= 0:
        raise DomainError("photons_for_rate requires g0 > 0")
    if rate < 0 or kappa <= 0:
        raise DomainError("photons_for_rate requires rate >= 0 and kappa > 0")
    return rate * kappa / (4.0 * g0 * g0)


def is_qnd(ds: DriveSet, cavity_index: int, *, gamma_m: float | None = None) -> bool:
    """True iff the cavity's sideband pair realizes a single-quadrature probe.

    Requires both sidebands driven with equal rates (relative mismatch below
    1e-9) and zero detuning. With ``gamma_m`` given, detunings up to
    1e-9 gamma_m are tolerated; otherwise they must vanish exactly.
    """
    lo = ds.get(cavity_index, LOWER)
    up = ds.get(cavity_index, UPPER)
    if lo is None or up is None:
        return False
    if lo.rate == 0.0 and up.rate == 0.0:
        return False
    scale = max(lo.rate, up.rate)
    if abs(lo.rate - up.rate) > QND_RATE_RTOL * scale:
        return False
    detuning_tol = QND_DETUNING_RTOL * gamma_m if gamma_m is not None else 0.0
    return abs(lo.detuning) <= detuning_tol and abs(up.detuning) <= detuning_tol


PASS = "pass"
FAIL = "fail"
WARN = "warn"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    value: float
    threshold: float

    def __str__(self) -> str:
        return f"[{self.status:4s}] {self.name}: value={self.value:.4g} threshold={self.threshold:.4g}"


@dataclass(frozen=True)
class ValidationReport:
    """Deterministic list of physical-validity checks for a configuration."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    def warnings(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.status == WARN)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def validate_system(cfg: SystemConfig, ds: DriveSet) -> ValidationReport:
    """Check the rate hierarchy gamma_m, gamma_pm << kappa << omega_m.

    Failures are reported, never raised: resolved-sideband and weak-coupling
    violations fail, soft conditions (rate hierarchy, overcoupling, drive
    detuning) warn.
    """
    checks: list[Check] = []
    for i in (1, 2):
        cav = cfg.cavity(i)
        ratio = cfg.mech.omega / cav.kappa
        resolved = PASS if ratio > RESOLVED_SIDEBAND_RATIO else FAIL
        checks.append(Check(f"resolved_sideband_cavity{i}", resolved, ratio, RESOLVED_SIDEBAND_RATIO))
        frac = cav.external_fraction
        checks.append(Check(f"overcoupling_cavity{i}", PASS if frac >= 0.9 else WARN, frac, 0.9))
    for d in ds.drives:
        cav = cfg.cavity(d.cavity_index)
        tag = f"cavity{d.cavity_index}_{d.sideband}"
        weak = d.rate / cav.kappa
        checks.append(Check(f"weak_coupling_{tag}", PASS if weak < 0.01 else FAIL, weak, 0.01))
        if d.rate > 0:
            hier = d.rate / cfg.mech.gamma
            checks.append(Check(f"rate_hierarchy_{tag}", PASS if hier > 1.0 else WARN, hier, 1.0))
        det = abs(d.detuning) / cav.kappa
        checks.append(Check(f"drive_detuning_{tag}", PASS if det < 0.1 else WARN, det, 0.1))
    return ValidationReport(tuple(checks))
