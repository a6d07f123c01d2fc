"""Closed-form steady-state quadrature statistics of the driven mechanics.

Each cavity's sideband tone pair, after adiabatic elimination of the cavity,
couples the mechanical mode to an engineered bath: damping at gamma_minus -
gamma_plus, quadrature noise (sqrt(gamma_minus) -/+ sqrt(gamma_plus))^2 along
and across the pair's phase axis. The steady-state covariance is the ratio of
total injected noise to total damping; with a single resonant pair this is
the familiar two-tone result, and the limits gamma_plus = 0 (sideband
cooling) and gamma_plus = gamma_minus (single-quadrature measurement) follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InstabilityError
from .sysmodel import LOWER, UPPER, DriveSet, MechanicalMode

# Guard for the uncertainty-product check; theory values satisfy it exactly.
_HEISENBERG_SLACK = 1e-9


@dataclass(frozen=True)
class QuadratureMoments:
    """Second moments of the mechanical quadratures, vacuum variance = 1.

    v1 and v2 are the variances of X1 and X2, v12 the symmetrized cross
    moment. The convention [X1, X2] = 2i makes the uncertainty product
    v1 v2 - v12^2 >= 1.
    """

    v1: float
    v2: float
    v12: float = 0.0

    def __post_init__(self):
        if not (self.v1 > 0 and self.v2 > 0):
            raise DomainError("quadrature variances must be positive")
        if self.v1 * self.v2 - self.v12**2 < 1.0 - _HEISENBERG_SLACK:
            raise DomainError(
                "moments violate the uncertainty relation: "
                f"v1 v2 - v12^2 = {self.v1 * self.v2 - self.v12 ** 2:.6g} < 1"
            )


@dataclass(frozen=True)
class BathParams:
    """Engineered-bath parameters of an asymmetric sideband pair.

    r is the squeeze parameter, v_min the minimum bath variance and rate_eff
    the net coupling rate gamma_minus - gamma_plus. The ideal bath is pure:
    v_min v_max = 1 with v_max = 1 / v_min.
    """

    r: float
    v_min: float
    rate_eff: float

    @property
    def v_max(self) -> float:
        return 1.0 / self.v_min


def _pair_noise(rate_lower: float, rate_upper: float, angle: float) -> tuple[float, float, float]:
    """2x2 noise matrix (d11, d22, d12) injected by one cavity's tone pair.

    The low-noise axis (sqrt(g-) - sqrt(g+))^2 lies along X_angle, the
    high-noise axis (sqrt(g-) + sqrt(g+))^2 across it.
    """
    lo = (math.sqrt(rate_lower) - math.sqrt(rate_upper)) ** 2
    hi = (math.sqrt(rate_lower) + math.sqrt(rate_upper)) ** 2
    c, s = math.cos(angle), math.sin(angle)
    d11 = lo * c * c + hi * s * s
    d22 = lo * s * s + hi * c * c
    d12 = (lo - hi) * c * s
    return d11, d22, d12


def quadrature_variances(mech: MechanicalMode, ds: DriveSet) -> QuadratureMoments:
    """Steady-state mechanical moments for resonant sideband drives.

    Per cavity j the drives contribute damping gamma_j^- - gamma_j^+ and a
    noise matrix v_in,j * R(theta_j) diag((sqrt(g-) - sqrt(g+))^2,
    (sqrt(g-) + sqrt(g+))^2) R(theta_j)^T, where theta_j = (phi_j^+ -
    phi_j^-)/2 is the pair's quadrature angle and v_in,j = 2 n_cav,j + 1 (= 1
    here: drive sets carry no cavity occupancy, vacuum inputs assumed). The
    thermal bath adds gamma_m (2 n_th + 1) on both quadratures.

    Raises
    ------
    DomainError
        If any drive is detuned from its sideband; detuned configurations
        need the full linear model.
    InstabilityError
        If the total damping is not positive.
    """
    for d in ds.drives:
        if d.detuning != 0.0:
            raise DomainError(
                "closed-form moments require resonant drives; "
                f"cavity {d.cavity_index} {d.sideband} tone is detuned"
            )
    damping = mech.gamma
    d11 = mech.gamma * mech.thermal_variance
    d22 = d11
    d12 = 0.0
    for j in ds.driven_cavities():
        lo = ds.get(j, LOWER)
        up = ds.get(j, UPPER)
        rate_lo = lo.rate if lo else 0.0
        rate_up = up.rate if up else 0.0
        angle = ((up.phase if up else 0.0) - (lo.phase if lo else 0.0)) / 2.0
        damping += rate_lo - rate_up
        n11, n22, n12 = _pair_noise(rate_lo, rate_up, angle)
        d11 += n11
        d22 += n22
        d12 += n12
    if damping <= 0.0:
        raise InstabilityError(
            f"total damping {damping:.4g} rad/s is not positive; no steady state"
        )
    return QuadratureMoments(v1=d11 / damping, v2=d22 / damping, v12=d12 / damping)


def variance_of_phase(m: QuadratureMoments, phi: float) -> float:
    """Variance of the generalized quadrature X_phi; pi-periodic in phi."""
    c, s = math.cos(phi), math.sin(phi)
    return m.v1 * c * c + m.v2 * s * s + m.v12 * 2.0 * s * c


def occupancy_from_variances(m: QuadratureMoments) -> float:
    """Mean phonon number (v1 + v2 - 2) / 4 of a zero-mean Gaussian state."""
    return (m.v1 + m.v2 - 2.0) / 4.0


def backaction_occupancy(gamma_meas: float, gamma_cool: float) -> float:
    """Occupancy added by a balanced measurement pair, gamma_meas/gamma_cool.

    The pair feeds its full scattering noise into the orthogonal quadrature;
    against a cooling drive of rate gamma_cool the mean occupancy rises by
    this ratio (up to a gamma_m / gamma_cool correction).
    """
    if gamma_cool <= 0:
        raise DomainError("backaction_occupancy requires gamma_cool > 0")
    if gamma_meas < 0:
        raise DomainError("measurement rate must be non-negative")
    return gamma_meas / gamma_cool


def squeezed_bath_params(gamma_minus: float, gamma_plus: float) -> BathParams:
    """Parameters of the engineered bath of an asymmetric tone pair.

    v_min = (sqrt(g-) - sqrt(g+))^2 / (g- - g+), r = artanh(sqrt(g+/g-)),
    rate_eff = g- - g+. The identity v_min = exp(-2 r) holds exactly.
    """
    if gamma_minus < 0 or gamma_plus < 0:
        raise DomainError("scattering rates must be non-negative")
    if gamma_plus >= gamma_minus:
        raise InstabilityError(
            "engineered bath requires gamma_plus < gamma_minus "
            f"(got {gamma_plus:.4g} >= {gamma_minus:.4g})"
        )
    rate_eff = gamma_minus - gamma_plus
    v_min = (math.sqrt(gamma_minus) - math.sqrt(gamma_plus)) ** 2 / rate_eff
    r = math.atanh(math.sqrt(gamma_plus / gamma_minus))
    return BathParams(r=r, v_min=v_min, rate_eff=rate_eff)
