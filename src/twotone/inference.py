"""Measurement analysis: peak fitting, thermometry, tomography, squeezing.

Occupancies are extracted from fitted Lorentzian areas rather than peak
heights because areas are independent of the effective linewidth, which
varies across drive sweeps. With spectra in scattered-photon units a
sideband's area divided by its scattering rate is the emitting quadrature
moment directly: anti-Stokes area / gamma_minus = n, Stokes area /
gamma_plus = n + 1, and the area ratio n / (n + 1) is the primary,
calibration-free thermometer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, FitError
from .lsq import levenberg_marquardt
from .synthesis import NoisySpectrum
from .sysmodel import TWO_PI


@dataclass(frozen=True)
class LorentzianFit:
    """Weighted least-squares fit of one spectral peak.

    ``area`` integrates the peak as int flux domega / 2 pi; ``center`` and
    ``fwhm`` are in rad/s on the spectrum's offset axis. ``zero_area`` marks
    peakless data fitted by a flat background.
    """

    center: float
    fwhm: float
    area: float
    background: float
    center_err: float
    fwhm_err: float
    area_err: float
    background_err: float
    chi2_dof: float
    converged: bool
    zero_area: bool = False

    def to_record(self) -> dict:
        """The fields of ``_FIT_FIELDS`` by record key, those in Hz divided by 2 pi."""
        return {
            key: getattr(self, name) / TWO_PI if hz else getattr(self, name)
            for key, name, hz, _ in _FIT_FIELDS
        }


# Every field of a fit record: its key, the ``LorentzianFit`` attribute it
# holds, whether that angular frequency is written in Hz, and its unit
_FIT_FIELDS = (
    ("center_hz", "center", True, "Hz offset from the analysis cavity resonance"),
    ("fwhm_hz", "fwhm", True, "Hz"),
    ("area", "area", False, "photons/s (scattered-photon units)"),
    ("background", "background", False, "photons/s/Hz"),
    ("center_err_hz", "center_err", True, "Hz"),
    ("fwhm_err_hz", "fwhm_err", True, "Hz"),
    ("area_err", "area_err", False, "photons/s"),
    ("background_err", "background_err", False, "photons/s/Hz"),
    ("chi2_dof", "chi2_dof", False, "dimensionless"),
    ("converged", "converged", False, "boolean"),
    ("zero_area", "zero_area", False, "boolean"),
)
FIT_RECORD_UNITS = {key: unit for key, _, _, unit in _FIT_FIELDS}


def lorentzian(freq: NDArray, center: float, fwhm: float, area: float, background: float):
    """Lorentzian with unit-normalized area: int L domega / 2 pi = area."""
    return background + area * fwhm / ((freq - center) ** 2 + fwhm**2 / 4.0)


def _weighted_linear_fit(design, y, sigma):
    """Weighted least squares of y on the columns of ``design``, sigma taken as absolute.

    Returns (beta, covariance, chi^2/dof) from the normal equations of
    design / sigma. A degenerate design raises ``DomainError``: the normal
    matrix has numerical rank below the column count at 1e-10 of its trace,
    or the covariance has a diagonal entry that is not finite and positive.
    """
    a = design / sigma[:, None]
    gram = a.T @ a
    columns = design.shape[1]
    if np.linalg.matrix_rank(gram, tol=1e-10 * np.trace(gram)) == columns:
        beta = np.linalg.solve(gram, a.T @ (y / sigma))
        cov = np.linalg.inv(gram)
        variances = cov.diagonal()
        if np.all((variances > 0) & (variances < np.inf)):  # NaN fails too
            resid = (design @ beta - y) / sigma
            chi2 = float(np.sum(resid**2) / max(len(y) - columns, 1))
            return beta, cov, chi2
    raise DomainError(
        "degenerate design: its normal matrix is singular or nearly singular, "
        "so the data do not constrain every coefficient"
    )


def _flat_background_fit(freq, y, err) -> LorentzianFit:
    (flat,), cov, chi2 = _weighted_linear_fit(np.ones((len(y), 1)), y, err)
    flat_err = math.sqrt(cov[0, 0])
    return LorentzianFit(
        center=float(freq[int(np.argmax(y))]),
        fwhm=0.0,
        area=0.0,
        background=float(flat),
        center_err=math.inf,
        fwhm_err=math.inf,
        area_err=flat_err * float(freq[-1] - freq[0]) / TWO_PI,
        background_err=flat_err,
        chi2_dof=chi2,
        converged=True,
        zero_area=True,
    )


def _smoothed(y: NDArray, window: int) -> NDArray:
    kernel = np.ones(window) / window
    return np.convolve(y, kernel, mode="same")


def fit_lorentzian(
    ns: NoisySpectrum,
    *,
    fwhm: float | None = None,
    center: float | None = None,
) -> LorentzianFit:
    """Fit one Lorentzian peak on a flat background, weighted by std_err.

    The centre, area and background float; so does the width, unless
    ``fwhm`` holds it fixed (and reported with zero error). The start comes
    from a lightly smoothed copy of the data, so that single-bin noise
    spikes do not seed the peak position; ``center``, if given, replaces
    the start of the peak position. Pinning the linewidth removes the
    area-width correlation that otherwise biases weak peaks; the sweeps pin
    it to ``dynamics.effective_linewidth``, the weak-coupling total damping
    gamma_m + sum(Gamma- - Gamma+), which is computed from the drive rates
    and not calibrated from a driven response. Data whose fitted area is
    not significant at one standard error falls back to a flat-background
    fit flagged ``zero_area``.

    The least-squares fit is ``lsq.levenberg_marquardt`` (MINPACK's
    Levenberg-Marquardt) with the analytic Jacobian of the floating
    parameters; their errors come from (J^T J)^-1 at the solution, with the
    per-bin errors taken as absolute.

    Raises
    ------
    DomainError
        If the data hold a non-finite value or a non-positive error.
    FitError
        If the data hold no more samples than floating parameters, or the
        least-squares iteration does not converge on data that does carry a
        peak.
    """
    freq = ns.freq
    y = ns.flux_measured
    err = ns.std_err
    if not (np.isfinite(freq).all() and np.isfinite(y).all() and np.isfinite(err).all()):
        raise DomainError("frequencies, fluxes and standard errors must be finite")
    if np.any(err <= 0):
        raise DomainError("per-bin standard errors must be positive")
    pinned = fwhm is not None
    n_free = 3 if pinned else 4
    if len(y) <= n_free:
        raise FitError(f"fit needs more than {n_free} samples, got {len(y)}")

    smooth = _smoothed(y, max(3, len(y) // 100))
    # the median as np.median forms it: the mean of the middle one or two values
    low, high = (len(smooth) - 1) // 2, len(smooth) // 2
    background0 = float(np.mean(np.partition(smooth, [low, high])[low : high + 1]))
    center0 = float(freq[int(np.argmax(smooth))]) if center is None else center
    prominence = float(np.max(smooth) - background0)
    above = smooth - background0 > prominence / 2.0
    fwhm0 = float(max(np.count_nonzero(above), 3) * (freq[1] - freq[0]))
    start = [center0, fwhm0, prominence * fwhm0 / 4.0, background0]
    if pinned:
        del start[1]

    def params(theta):
        """(center, fwhm, area, background) at the floating parameters ``theta``."""
        return (theta[0], fwhm, theta[1], theta[2]) if pinned else tuple(theta)

    def residuals(theta):
        return (lorentzian(freq, *params(theta)) - y) / err

    weight = 1.0 / err
    # the transposed Jacobian, one row per floating parameter; the background
    # row is constant and written once, each call writes the others
    jt = np.empty((n_free, len(y)))
    jt[-1] = weight

    def jacobian(theta):
        position, width, area, _ = params(theta)
        offset = freq - position
        square, quarter = offset**2, width**2 / 4.0
        inv = 1.0 / (square + quarter)
        weighted = weight * inv
        peak = area * inv * weighted
        np.multiply((2.0 * width) * offset, peak, out=jt[0])
        if not pinned:
            np.multiply(square - quarter, peak, out=jt[1])
        np.multiply(width, weighted, out=jt[-2])
        return jt

    popt, info = levenberg_marquardt(residuals, jacobian, start, ftol=1e-12, xtol=1e-12, maxfev=20000)
    if info not in (1, 2, 3, 4):
        flat = _flat_background_fit(freq, y, err)
        if flat.chi2_dof < 2.0:
            return flat
        raise FitError(f"Lorentzian fit did not converge (MINPACK info {info})")
    # a singular covariance on peakless data is handled by the
    # flat-background fallback below
    jac = jacobian(popt)
    try:
        pcov = np.linalg.inv(jac @ jac.T)
    except np.linalg.LinAlgError:
        pcov = np.full((n_free, n_free), np.inf)
    variances = np.diag(pcov)
    errors = np.sqrt(np.where(variances >= 0.0, variances, np.nan))
    position, width, area, background = params(popt)
    if not np.isfinite(errors).all() or abs(area) <= errors[-2]:
        return _flat_background_fit(freq, y, err)
    chi2 = float(np.sum(residuals(popt) ** 2) / max(len(y) - n_free, 1))
    return LorentzianFit(
        center=float(position),
        # a negative-width minimum is the same curve; report the canonical sign
        fwhm=float(abs(width)),
        area=float(area),
        background=float(background),
        center_err=float(errors[0]),
        fwhm_err=0.0 if pinned else float(errors[1]),
        area_err=float(errors[-2]),
        background_err=float(errors[-1]),
        chi2_dof=chi2,
        converged=True,
    )


def occupancy_from_sidebands(
    anti_stokes: LorentzianFit,
    stokes: LorentzianFit,
    gamma_minus: float,
    gamma_plus: float,
) -> tuple[float, float, float]:
    """Occupancies and the asymmetry calibration factor from two sidebands.

    Returns (n_anti, n_stokes, calibration_factor) with n_anti =
    area_minus / gamma_minus, n_stokes = area_plus / gamma_plus - 1 and
    calibration_factor = (area_minus / area_plus)(gamma_plus / gamma_minus),
    to be compared against n / (n + 1).

    Raises
    ------
    FitError
        If either sideband fell back to a zero-area fit, whose area cannot
        calibrate the asymmetry.
    """
    if not (anti_stokes.converged and stokes.converged):
        raise DomainError("both sideband fits must have converged")
    for name, fit in (("anti-Stokes", anti_stokes), ("Stokes", stokes)):
        if fit.zero_area or fit.area == 0.0:
            raise FitError(f"the {name} sideband carries no significant area")
    if gamma_minus <= 0:
        raise DomainError("anti-Stokes scattering rate must be positive")
    if gamma_plus <= 0:
        raise DomainError(
            "a Stokes fit was supplied but the Stokes scattering rate is zero"
        )
    n_anti = anti_stokes.area / gamma_minus
    n_stokes = stokes.area / gamma_plus - 1.0
    calibration = anti_stokes.area / stokes.area * (gamma_plus / gamma_minus)
    return n_anti, n_stokes, calibration


@dataclass(frozen=True, eq=False)
class TomogramFit:
    """Reconstructed mechanical second moments from a phase sweep.

    ``angle`` is the phase of minimum variance; ``cov`` the 3x3 covariance
    of (v1, v2, v12) from the weighted fit.
    """

    v1: float
    v2: float
    v12: float
    angle: float
    cov: NDArray[np.float64]
    chi2_dof: float

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        moment = np.array([[self.v1, self.v12], [self.v12, self.v2]])
        if np.linalg.eigvalsh(moment).min() < 0.0:
            raise DomainError("fitted variance model is negative at some phase")

    @property
    def v1_err(self) -> float:
        return float(np.sqrt(self.cov[0, 0]))

    @property
    def v2_err(self) -> float:
        return float(np.sqrt(self.cov[1, 1]))

    @property
    def v12_err(self) -> float:
        return float(np.sqrt(self.cov[2, 2]))

    def to_record(self) -> dict:
        return {
            "v1": self.v1,
            "v2": self.v2,
            "v12": self.v12,
            "angle_rad": self.angle,
            "v1_err": self.v1_err,
            "v2_err": self.v2_err,
            "v12_err": self.v12_err,
            "chi2_dof": self.chi2_dof,
        }


def tomography_sweep(
    phases: NDArray,
    variances: NDArray,
    errors: NDArray,
) -> TomogramFit:
    """Weighted fit of v(phi) = v1 cos^2 + v2 sin^2 + v12 sin(2 phi).

    Needs finite inputs and at least five distinct phases spanning at least
    pi. Requesting all three moments from phases that are all multiples of
    pi/2 leaves v12 unconstrained and raises a degenerate-design error.
    Moments that make the variance negative at some phase are a fit outcome
    and raise ``FitError``.
    """
    phases = np.asarray(phases, dtype=float)
    variances = np.asarray(variances, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if phases.shape != variances.shape or phases.shape != errors.shape:
        raise DomainError("phases, variances and errors must have equal lengths")
    if not np.isfinite((phases, variances, errors)).all():
        raise DomainError("phases, variances and errors must be finite")
    ordered = np.sort(phases)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 < 5:
        raise DomainError("tomography needs at least 5 distinct phases")
    if phases.max() - phases.min() < math.pi - 1e-9:
        raise DomainError("tomography phases must span at least pi")
    if np.any(errors <= 0):
        raise DomainError("variance errors must be positive")

    design = np.column_stack(
        [np.cos(phases) ** 2, np.sin(phases) ** 2, np.sin(2.0 * phases)]
    )
    beta, cov, chi2 = _weighted_linear_fit(design, variances, errors)

    v1, v2, v12 = (float(x) for x in beta)
    # v(phi) = mean + R cos(2 phi - psi): the minimum lies at (psi + pi) / 2
    psi = math.atan2(v12, (v1 - v2) / 2.0)
    angle = ((psi + math.pi) / 2.0) % math.pi
    try:
        return TomogramFit(v1=v1, v2=v2, v12=v12, angle=angle, cov=cov, chi2_dof=chi2)
    except DomainError as exc:
        raise FitError(str(exc)) from exc


@dataclass(frozen=True)
class SqueezingMetrics:
    """Squeezing level, state purity and the uncertainty-relation flag."""

    squeezing_db: float
    purity: float
    heisenberg_ok: bool
    v_min: float
    v_max: float


def squeezing_metrics(t: TomogramFit) -> SqueezingMetrics:
    """Metrics of the fitted moment matrix.

    v_min is its smaller eigenvalue, squeezing_db = 10 log10(1 / v_min),
    purity = 1 / sqrt(v1 v2 - v12^2). A determinant below 1 by more than
    three propagated standard deviations clears ``heisenberg_ok``; the
    metrics are still returned.
    """
    mean = (t.v1 + t.v2) / 2.0
    radius = math.hypot((t.v1 - t.v2) / 2.0, t.v12)
    v_min = mean - radius
    v_max = mean + radius
    det = t.v1 * t.v2 - t.v12**2
    if v_min <= 0 or det <= 0:
        raise DomainError("fitted moments are not positive definite")
    grad = np.array([t.v2, t.v1, -2.0 * t.v12])
    det_err = float(np.sqrt(grad @ t.cov @ grad))
    return SqueezingMetrics(
        squeezing_db=10.0 * math.log10(1.0 / v_min),
        purity=1.0 / math.sqrt(det),
        heisenberg_ok=bool(det >= 1.0 - 3.0 * det_err),
        v_min=float(v_min),
        v_max=float(v_max),
    )


@dataclass(frozen=True)
class LineFit:
    """Weighted straight-line fit y = slope x + intercept."""

    slope: float
    intercept: float
    slope_err: float
    intercept_err: float
    chi2_dof: float


def backaction_line_fit(ratios, values, sigmas) -> LineFit:
    """Weighted linear fit of total occupancy against measurement strength.

    The intercept extrapolates the occupancy without measurement backaction;
    the slope should be one when the added occupancy equals the strength
    ratio.

    Raises
    ------
    DomainError
        If the inputs differ in length or hold a non-finite value, there are
        fewer than two points, a sigma is not positive, or the design is
        degenerate by the rule of ``_weighted_linear_fit``: ratios that
        spread by 1e-6 of the largest are, ratios that spread by
        ``config.MIN_RATIO_SPREAD`` (1e-4) are not.
    """
    x = np.asarray(ratios, dtype=float)
    y = np.asarray(values, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if x.shape != y.shape or x.shape != s.shape:
        raise DomainError("ratios, values and sigmas must have equal lengths")
    if not np.isfinite((x, y, s)).all():
        raise DomainError("ratios, values and sigmas must be finite")
    if x.size < 2:
        raise DomainError("line fit needs at least two points")
    if np.any(s <= 0):
        raise DomainError("sigmas must be positive")
    (slope, intercept), cov, chi2 = _weighted_linear_fit(np.column_stack([x, np.ones_like(x)]), y, s)
    return LineFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_err=float(np.sqrt(cov[0, 0])),
        intercept_err=float(np.sqrt(cov[1, 1])),
        chi2_dof=chi2,
    )


@dataclass(frozen=True)
class EvasionReport:
    """How far the measured quadrature sits below the injected backaction."""

    evasion_db: float
    is_lower_bound: bool
    n_ba: float
    delta_v1: float
    delta_v1_err: float
    v1_reference: float


def backaction_evasion_report(
    qnd_v1: float,
    qnd_v1_err: float,
    line: LineFit,
    gamma_ratio: float,
) -> EvasionReport:
    """Backaction evasion in dB at one measurement strength.

    The reference variance without measurement, 2 n_m + 1, comes from the
    zero-strength intercept of ``line``, the ``backaction_line_fit`` of the
    swept occupancies. The injected backaction is n_ba = gamma_ratio, which
    would raise the variance by 2 n_ba if not evaded;
    evasion_db = 10 log10(2 n_ba / max(delta_v1, its uncertainty)), reported
    as a lower bound whenever the excess is consistent with zero.
    """
    if gamma_ratio <= 0:
        raise DomainError("evasion is undefined at zero measurement strength")
    v1_reference = 2.0 * line.intercept + 1.0
    delta_v1 = qnd_v1 - v1_reference
    delta_err = math.sqrt(qnd_v1_err**2 + (2.0 * line.intercept_err) ** 2)
    n_ba = gamma_ratio
    denominator = max(delta_v1, delta_err)
    if denominator <= 0:
        raise DomainError("evasion denominator must be positive")
    return EvasionReport(
        evasion_db=10.0 * math.log10(2.0 * n_ba / denominator),
        is_lower_bound=bool(delta_v1 <= delta_err),
        n_ba=n_ba,
        delta_v1=delta_v1,
        delta_v1_err=delta_err,
        v1_reference=v1_reference,
    )


def write_fit_records(records: dict, path) -> None:
    """Emit fit results as a JSON record; ``FIT_RECORD_UNITS`` gives the units."""
    with open(path, "w") as fh:
        fh.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
