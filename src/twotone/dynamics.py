"""Exact linearized dynamics of the driven two-cavity electromechanical system.

Within the rotating-wave approximation each sideband tone contributes a
beam-splitter (lower sideband) or two-mode-squeezing (upper sideband)
coupling of strength g = sqrt(gamma kappa) / 2 between its cavity and the
mechanics. The six quadratures (X_a1, P_a1, X_a2, P_a2, X_b, P_b) then obey
linear Langevin equations du/dt = A u + noise; the steady-state covariance
solves the Lyapunov equation A V + V A^T + D = 0 and emitted spectra follow
from input-output theory on the frequency-domain transfer matrix. Spectra
and the probe response come from the resolvent (-i w I - C)^-1. The two
cavities couple only through the mechanics, so their block of the
resolvent is diagonal and is eliminated exactly: what is left at each
frequency is one 2 x 2 solve for the dressed mechanical susceptibility,
whose Schur complement is the optomechanical self-energy (Aspelmeyer,
Kippenberg & Marquardt, Rev. Mod. Phys. 86, 1391 (2014)). The whole grid
is solved at once.

Tone detunings are absorbed into a co-rotating frame: the mechanical frame
may shift by s_b and each cavity frame by s_j, which turns symmetric pair
detunings (-delta, +delta) and common offsets into static detuning blocks.
Drive sets whose detunings admit no such frame are rejected.

Spectra are reported as emitted photon-flux spectral density (normally
ordered with respect to the output field, so an undriven cavity reports
exactly zero and no separate floor subtraction is needed) in
scattered-photon units: the external-port flux divided by the collection
efficiency kappa_ext / kappa, so that a sideband's integrated flux equals
its scattering rate times the emitting quadrature moment. Photon ordering,
rather than a symmetrized quadrature spectrum, is what carries the
anti-Stokes / Stokes asymmetry between n and n + 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .analytic import QuadratureMoments
from .errors import DomainError, InstabilityError, NumericalError
from .lsq import levenberg_marquardt
from .sysmodel import LOWER, RESOLVED_SIDEBAND_RATIO, UPPER, DriveSet, SystemConfig
from .tables import write_csv

_LYAPUNOV_RESIDUAL_RTOL = 1e-10
# smallest eigenvalue of V + iJ that ``CovarianceMatrix.is_physical`` accepts
_PHYSICAL_TOL = 1e-9


@dataclass(frozen=True)
class InputChannel:
    """One white-noise port: label, target mode, coupling rate, occupancy."""

    label: str
    mode: int  # 0 = cavity 1, 1 = cavity 2, 2 = mechanics
    rate: float
    occupancy: float

    @property
    def variance(self) -> float:
        return 2.0 * self.occupancy + 1.0


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Drift/diffusion description of the linearized system.

    ``drift`` and ``diffusion`` are the 6x6 real matrices of the quadrature
    Langevin equations; ``complex_drift`` is the same generator in the
    (a1, a1+, a2, a2+, b, b+) basis, used for the driven response.
    ``frame_shifts`` records the rotating-frame offsets (s_cav1, s_cav2,
    s_mech) relative to the cavity resonances and the mechanical sideband,
    needed to map internal frequencies onto laboratory offsets.

    A model is immutable: the dataclass is frozen, its arrays are read-only
    and ``max_real_eigenvalue`` is computed once, on first use. That is what
    lets :func:`build_linear_model` hand the same model to every caller that
    passes the same ``cfg`` and ``ds`` objects.
    """

    drift: NDArray[np.float64]
    diffusion: NDArray[np.float64]
    channels: tuple[InputChannel, ...]
    complex_drift: NDArray[np.complex128]
    frame_shifts: tuple[float, float, float]
    cfg: SystemConfig
    ds: DriveSet

    def __post_init__(self):
        for name in ("drift", "diffusion", "complex_drift"):
            getattr(self, name).flags.writeable = False

    def eigenvalues(self) -> NDArray[np.complex128]:
        return np.linalg.eigvals(self.drift)

    @cached_property
    def max_real_eigenvalue(self) -> float:
        return float(np.max(self.eigenvalues().real))

    @property
    def is_stable(self) -> bool:
        return self.max_real_eigenvalue < 0.0

    def noise_input_matrix(self) -> NDArray[np.float64]:
        """6 x 2 n_ch input coupling matrix with sqrt(rate) per channel.

        The same block structure serves both bases: in the quadrature basis
        column pairs are (X_in, P_in), in the complex-mode basis they are
        (a_in, a_in+) feeding the mode's (a, a+) rows.
        """
        b = np.zeros((6, 2 * len(self.channels)))
        for k, ch in enumerate(self.channels):
            r = np.sqrt(ch.rate)
            b[2 * ch.mode, 2 * k] = r
            b[2 * ch.mode + 1, 2 * k + 1] = r
        return b


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """6x6 symmetrized quadrature covariance, vacuum-normalized."""

    v: NDArray[np.float64]

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (6, 6):
            raise DomainError(f"covariance must be 6x6, got {v.shape}")
        v = 0.5 * (v + v.T)
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    def block(self, mode: int) -> NDArray[np.float64]:
        i = 2 * mode
        return self.v[i : i + 2, i : i + 2]

    def is_physical(self) -> bool:
        """Check V + i J >= 0, to within 1e-9, for the commutator convention [X, P] = 2i."""
        j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        j = np.kron(np.eye(3), j2)
        eig = np.linalg.eigvalsh(self.v + 1j * j)
        return bool(eig.min() > -_PHYSICAL_TOL)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Output photon-flux spectral density on a laboratory frequency grid.

    ``freq`` holds offsets from the analysis cavity's resonance (rad/s),
    ``flux`` the vacuum-floor-subtracted flux density (photons/s/Hz) in
    scattered-photon units. ``meta`` carries the cavity index, drive digest,
    units and any validity warnings.
    """

    freq: NDArray[np.float64]
    flux: NDArray[np.float64]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        flux = np.asarray(self.flux, dtype=float)
        if freq.ndim != 1 or freq.shape != flux.shape:
            raise DomainError("freq and flux must be matching 1-d arrays")
        if not (np.isfinite(freq).all() and np.isfinite(flux).all()):
            raise DomainError("freq and flux must be finite")
        if np.any(np.diff(freq) <= 0):
            raise DomainError("frequency grid must be strictly increasing")
        if np.any(flux < 0):
            raise DomainError("flux density must be non-negative")
        freq.flags.writeable = False
        flux.flags.writeable = False
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "flux", flux)

    def integrated_flux(self) -> float:
        """Total emitted photon rate: integral of flux over the grid / 2 pi."""
        return float(np.trapezoid(self.flux, self.freq) / (2.0 * np.pi))


def _solve_frame_shifts(ds: DriveSet) -> tuple[float, float, float]:
    """Rotating-frame offsets (s_cav1, s_cav2, s_mech) absorbing detunings.

    A lower-sideband tone detuned by d is static iff d = s_j - s_b, an
    upper-sideband tone iff d = s_j + s_b. A cavity driven on both sidebands
    fixes s_b = (d_up - d_lo) / 2; two such cavities must agree.
    """
    s_b: float | None = None
    fixed_by: int | None = None
    for j in (1, 2):
        lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
        if lo is not None and up is not None:
            candidate = 0.5 * (up.detuning - lo.detuning)
            if s_b is None:
                s_b, fixed_by = candidate, j
            elif abs(candidate - s_b) > 1e-9 * max(1.0, abs(s_b)):
                raise DomainError(
                    "sideband detunings admit no time-independent frame: "
                    f"cavity {fixed_by} requires a mechanical frame shift of "
                    f"{s_b:.6g} rad/s but cavity {j} requires {candidate:.6g}"
                )
    if s_b is None:
        s_b = 0.0
    shifts = []
    for j in (1, 2):
        lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
        if lo is not None:
            shifts.append(lo.detuning + s_b)
        elif up is not None:
            shifts.append(up.detuning - s_b)
        else:
            shifts.append(0.0)
    return shifts[0], shifts[1], s_b


# (X, P) = T (a, a+) per mode, with X = a + a+ and P = -i (a - a+)
_QUADRATURES = np.kron(np.eye(3), np.array([[1.0, 1.0], [-1.0j, 1.0j]]))
_QUADRATURES_INV = np.kron(np.eye(3), np.array([[0.5, 0.5j], [0.5, -0.5j]]))

# the model of the last successful build_linear_model call
_last_model: LinearModel | None = None


def build_linear_model(cfg: SystemConfig, ds: DriveSet) -> LinearModel:
    """Assemble the drift and diffusion matrices for a drive configuration.

    Couplings are g_j_pm = sqrt(gamma_j_pm kappa_j) / 2 exp(i phase). The
    generator is written once, in the complex-mode basis, as Python scalars
    that become one array; the real quadrature drift is its change of
    basis T C T^-1. Each cavity decays
    through its external port and an internal loss port, both at the
    cavity's thermal occupancy. Unstable models are allowed here; the
    steady-state solver rejects them.

    The last model built is kept, and a call with the very same ``cfg`` and
    ``ds`` objects returns it instead of building it again, as when a drive
    set's covariance, probe response and transparency window each ask for
    it. The key is object identity, not equality: two drive sets that
    compare equal can differ in a signed zero (a phase of 0.0 and one of
    -0.0), which ``DriveSet.digest`` prints into a spectrum's metadata, so
    each distinct object gets a model of its own. Sharing a model is safe
    because it is immutable (see :class:`LinearModel`). A call that raises
    keeps nothing, so it raises again when repeated.

    Raises
    ------
    DomainError
        If a cavity is outside the resolved-sideband regime or the drive
        detunings admit no time-independent rotating frame.
    """
    global _last_model
    last = _last_model  # read once: another thread may replace it
    if last is not None and last.cfg is cfg and last.ds is ds:
        return last
    for i in (1, 2):
        if cfg.mech.omega / cfg.cavity(i).kappa <= RESOLVED_SIDEBAND_RATIO:
            raise DomainError(
                f"cavity {i} violates the resolved-sideband condition; the "
                "rotating-wave model does not apply"
            )
    s1, s2, s_b = _solve_frame_shifts(ds)
    cav1, cav2 = cfg.cavity(1), cfg.cavity(2)

    c = [[0j] * 6 for _ in range(6)]
    # mode detunings relative to the shifted frames
    halves = (cav1.kappa / 2.0, cav2.kappa / 2.0, cfg.mech.gamma / 2.0)
    for i, shift, half in zip((0, 2, 4), (s1, s2, s_b), halves):
        delta = -shift
        c[i][i] = -1j * delta - half
        c[i + 1][i + 1] = +1j * delta - half

    for i, j, cav in ((0, 1, cav1), (2, 2, cav2)):
        lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
        g_lo = math.sqrt(lo.rate * cav.kappa) / 2.0 * cmath.exp(1j * lo.phase) if lo else 0j
        g_up = math.sqrt(up.rate * cav.kappa) / 2.0 * cmath.exp(1j * up.phase) if up else 0j
        # da/dt = -i(g_lo b + g_up b+), db/dt = -i(conj(g_lo) a + g_up a+); each
        # entry is written once, and the 0j added to it keeps no -0 part
        c[i][4] = 0j + -1j * g_lo
        c[i][5] = 0j + -1j * g_up
        c[i + 1][5] = 0j + 1j * g_lo.conjugate()
        c[i + 1][4] = 0j + 1j * g_up.conjugate()
        c[4][i] = 0j + -1j * g_lo.conjugate()
        c[4][i + 1] = 0j + -1j * g_up
        c[5][i + 1] = 0j + 1j * g_lo
        c[5][i] = 0j + 1j * g_up.conjugate()
    c = np.array(c)

    channels = []
    for j, cav in ((1, cav1), (2, cav2)):
        channels.append(InputChannel(f"cav{j}_ext", j - 1, cav.kappa_ext, cav.n_thermal))
        if cav.kappa_int > 0:
            channels.append(InputChannel(f"cav{j}_int", j - 1, cav.kappa_int, cav.n_thermal))
    channels.append(InputChannel("mech", 2, cfg.mech.gamma, cfg.mech.n_thermal))
    # each channel feeds both quadratures of its mode
    diffusion = np.zeros((6, 6))
    level = [0.0, 0.0, 0.0]
    for ch in channels:
        level[ch.mode] += ch.rate * ch.variance
    diffusion.flat[::7] = [level[0], level[0], level[1], level[1], level[2], level[2]]

    model = LinearModel(
        drift=(_QUADRATURES @ c @ _QUADRATURES_INV).real.copy(),
        diffusion=diffusion,
        channels=tuple(channels),
        complex_drift=c,
        frame_shifts=(s1, s2, s_b),
        cfg=cfg,
        ds=ds,
    )
    _last_model = model
    return model


def steady_covariance(m: LinearModel) -> CovarianceMatrix:
    """Solve A V + V A^T + D = 0 for the steady-state covariance.

    The equation is one linear system in the entries of V,
    (I (x) A + A (x) I) vec(V) = -vec(D), 36 x 36 for the six quadratures.
    Its solution is symmetrized once, by ``CovarianceMatrix``, and the
    residual is checked on that symmetric V.

    Raises
    ------
    InstabilityError
        If the drift matrix has an eigenvalue with non-negative real part.
    NumericalError
        If the solver fails or the residual is not within 1e-10 ||D||.
    """
    max_re = m.max_real_eigenvalue
    if max_re >= 0.0:
        raise InstabilityError(
            f"drift matrix is not stable (max Re eigenvalue {max_re:.4g} rad/s)"
        )
    try:
        n = m.drift.shape[0]
        eye = np.eye(n)
        # I (x) A + A (x) I, entry ((i, k), (j, l)) = I_ij A_kl + A_ij I_kl
        kron_sum = np.multiply(eye[:, None, :, None], m.drift[None, :, None, :])
        kron_sum += m.drift[:, None, :, None] * eye[None, :, None, :]
        v = np.linalg.solve(kron_sum.reshape(n * n, n * n), -m.diffusion.ravel()).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(m.drift)
        raise NumericalError(f"Lyapunov solve failed (cond(A) = {cond:.3g})") from exc
    cov = CovarianceMatrix(v)
    v = cov.v
    residual = np.linalg.norm(m.drift @ v + v @ m.drift.T + m.diffusion)
    bound = _LYAPUNOV_RESIDUAL_RTOL * np.linalg.norm(m.diffusion)
    if not residual <= bound:  # a NaN residual fails too
        raise NumericalError(
            f"Lyapunov residual {residual:.3g} exceeds {bound:.3g} "
            f"(cond(A) = {np.linalg.cond(m.drift):.3g})"
        )
    return cov


def mechanical_marginal(v: CovarianceMatrix) -> QuadratureMoments:
    """Mechanical 2x2 block of the covariance as (v1, v2, v12)."""
    blk = v.block(2)
    return QuadratureMoments(v1=float(blk[0, 0]), v2=float(blk[1, 1]), v12=float(blk[0, 1]))


def effective_linewidth(cfg: SystemConfig, ds: DriveSet) -> float:
    """Total mechanical damping gamma_m + sum(gamma_minus - gamma_plus)."""
    rate = cfg.mech.gamma
    for j in (1, 2):
        rate += ds.rate(j, LOWER) - ds.rate(j, UPPER)
    return rate


def spectrum_grid(m: LinearModel, *, points: int, span: float | None = None) -> NDArray[np.float64]:
    """Symmetric laboratory-offset grid of ``points`` covering the mechanical features.

    The default span is ten effective mechanical linewidths beyond the
    outermost sideband feature, set by the model's mechanical frame shift
    s_b when the measurement pair is detuned.
    """
    if span is None:
        span = 10.0 * abs(effective_linewidth(m.cfg, m.ds)) + 2.0 * abs(m.frame_shifts[2])
    return np.linspace(-span, span, points)


def _frequency_grid(grid) -> NDArray[np.float64]:
    """``grid`` as floats, checked to be a non-empty, finite 1-d array."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise DomainError("frequency grid must be a non-empty 1-d array of finite offsets")
    return grid


def _resolvent_solve(
    c: NDArray, w: NDArray, index: int, *, adjoint: bool
) -> NDArray[np.complex128]:
    """Resolvent column ``index`` of (-i w I - c) at every frame frequency w.

    Returns the call's workspace, a (25, n_freq) complex array whose first
    six rows hold x, the column at each grid point; the other 19 rows are
    scratch the caller may reuse. With ``adjoint`` the transposed systems
    are solved, giving the resolvent row instead. The four cavity modes
    couple only through the mechanics, so with M = c (or c^T) and s = -i w
    the cavity block of s I - M is the diagonal 1 / u, u = 1 / (s - diag
    M_cc), and eliminating it leaves the 2 x 2 dressed mechanical system
    S x_m = r with S = s I - M_mm - M_mc diag(u) M_cm, the optomechanical
    self-energy subtracted. That system is solved by its adjugate, x_m =
    adj(S) r / det S, forward stable for n = 2 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002), and the cavity rows follow as
    x_c = u (e_c + M_cm x_m), all over the whole grid at once.

    Every array of n_freq entries is a row of the workspace, written in
    place, so that glibc keeps its memory between calls (see twotone.tables).

    Raises
    ------
    DomainError
        If two cavity modes of c couple directly.
    NumericalError
        If -i w I - c is singular at some grid point: a cavity gap s - M_kk
        or det S is zero.
    """
    m = c.T if adjoint else c
    d = np.diagonal(m)[:4]
    if np.count_nonzero(m[:4, :4]) > np.count_nonzero(d):
        raise DomainError("the cavity modes of the drift must couple only through the mechanics")
    ws = np.empty((25, w.size), dtype=complex)  # 4 rows spare keep glibc's trim threshold up
    x, u, sch, rhs, (det, part, s) = ws[:6], ws[6:10], ws[10:14], ws[14:16], ws[16:19]
    np.multiply(-1j, w, out=s)
    np.subtract(s, d[:, None], out=u)
    # s is imaginary, so a gap can vanish only on a diagonal entry without damping
    if not (d.real.all() or u.all()):
        raise NumericalError("the resolvent is singular on the frequency grid")
    np.divide(1.0, u, out=u)
    to_mech, from_mech = m[4:, :4], m[:4, 4:]
    # S as rows (S_00, S_01, S_10, S_11): minus the self-energy is one product
    # with u, added to the bare mechanical gaps s - M_bb, which near resonance
    # are far smaller than s
    loops = -(to_mech[:, None, :] * from_mech.T[None, :, :]).reshape(4, 4)
    np.matmul(loops, u, out=sch)
    sch[3] += np.subtract(s, m[5, 5], out=part)
    sch[0] += np.subtract(s, m[4, 4], out=s)
    sch[1] -= m[4, 5]
    sch[2] -= m[5, 4]
    if index < 4:
        np.multiply(to_mech[:, index, None], u[index], out=rhs)
    else:
        rhs[...] = np.eye(2)[index - 4, :, None]
    # S^-1 = adj(S) / det S: x_4 = (S_11 r_0 - S_01 r_1) / det and
    # x_5 = (S_00 r_1 - S_10 r_0) / det, both scaled by one reciprocal of det
    (s00, s01, s10, s11), (r0, r1) = sch, rhs
    np.subtract(np.multiply(s00, s11, out=det), np.multiply(s01, s10, out=part), out=det)
    if not det.all():
        raise NumericalError("the resolvent is singular on the frequency grid")
    np.subtract(np.multiply(s11, r0, out=x[4]), np.multiply(s01, r1, out=part), out=x[4])
    np.subtract(np.multiply(s00, r1, out=x[5]), np.multiply(s10, r0, out=part), out=x[5])
    x[4:] *= np.divide(1.0, det, out=det)
    np.matmul(from_mech, x[4:], out=x[:4])
    if index < 4:
        x[index] += 1.0
    x[:4] *= u
    return ws


def output_spectrum(m: LinearModel, cavity_index: int, grid: NDArray[np.float64]) -> Spectrum:
    """Emitted photon-flux spectral density of one cavity.

    The output field is sqrt(kappa_ext) a - a_in. Writing it in terms of all
    input channels through the complex-mode transfer matrix,
    a_out(w) = sum_c [A_c(w) a_c,in(w) + B_c(w) a_c,in+(w)], the emitted
    photon flux density is sum_c |A_c|^2 n_c + |B_c|^2 (n_c + 1). Vacuum
    inputs through the direct coefficients contribute nothing, so an
    undriven cavity reports exactly zero; the anomalous coefficients carry
    the Stokes-scattered (n + 1) flux and hence the sideband asymmetry. The
    result is divided by kappa_ext / kappa so integrated sideband fluxes
    equal scattering rates times quadrature moments.

    Parameters
    ----------
    m:
        Linear model from :func:`build_linear_model`.
    cavity_index:
        Cavity whose output is analyzed (1 or 2).
    grid:
        Laboratory frequency offsets from that cavity's resonance (rad/s),
        such as those of :func:`spectrum_grid`.
    """
    if cavity_index not in (1, 2):
        raise DomainError(f"cavity index must be 1 or 2, got {cavity_index}")
    if not m.is_stable:
        raise InstabilityError("cannot evaluate the spectrum of an unstable model")
    grid = _frequency_grid(grid)

    cav = m.cfg.cavity(cavity_index)
    shift = m.frame_shifts[cavity_index - 1]
    warnings: list[str] = []
    if np.max(np.abs(grid)) > cav.kappa / 2.0:
        warnings.append(
            "grid extends beyond half the cavity linewidth where the "
            "rotating-wave model loses accuracy"
        )

    occ = np.array([ch.occupancy for ch in m.channels])
    ext_col = next(
        2 * k for k, ch in enumerate(m.channels) if ch.label == f"cav{cavity_index}_ext"
    )
    # the resolvent row reaching the output mode is an adjoint solve; r and its
    # squared magnitude take 3 rows past x per channel, so at least 15 must be free
    ws = _resolvent_solve(m.complex_drift, grid - shift, 2 * (cavity_index - 1), adjoint=True)
    rows = 2 * len(m.channels)
    r = ws[6 : 6 + rows]
    np.matmul(m.noise_input_matrix().T, ws[:6], out=r)
    r *= np.sqrt(cav.kappa_ext)
    r[ext_col] -= 1.0
    parts = np.square(r.view(float), out=r.view(float))
    power = ws[6 + rows : 6 + rows + rows // 2].view(float).reshape(rows, -1)
    np.add(parts[:, 0::2], parts[:, 1::2], out=power)
    flux = occ @ power[0::2] + (occ + 1.0) @ power[1::2]

    meta = {
        "cavity": cavity_index,
        "drives": m.ds.digest(),
        "units": "offset rad/s; flux photons/s/Hz emitted, scattered-photon units",
        "collection_efficiency": cav.external_fraction,
        "frame_shift": shift,
        "warnings": tuple(warnings),
    }
    return Spectrum(freq=grid, flux=flux / cav.external_fraction, meta=meta)


def driven_response(
    cfg: SystemConfig,
    ds: DriveSet,
    probe_cavity: int,
    probe_grid: NDArray[np.float64],
) -> NDArray[np.complex128]:
    """Reflection coefficient S11 of a weak probe on one cavity.

    S11(w) = 1 - kappa_ext chi_eff(w), where chi_eff is the probe-frequency
    diagonal of the dressed resolvent (-i w I - C)^-1 in the complex-mode
    basis, including the optomechanical self-energy from all drives. A
    transparency window of width gamma_m + sum(gamma_minus - gamma_plus)
    opens at the sideband condition.

    ``probe_grid`` holds laboratory offsets from the probe cavity resonance.
    """
    if probe_cavity not in (1, 2):
        raise DomainError(f"cavity index must be 1 or 2, got {probe_cavity}")
    m = build_linear_model(cfg, ds)
    if not m.is_stable:
        raise InstabilityError("cannot evaluate the driven response of an unstable model")
    w = _frequency_grid(probe_grid) - m.frame_shifts[probe_cavity - 1]
    index = 2 * (probe_cavity - 1)
    ws = _resolvent_solve(m.complex_drift, w, index, adjoint=False)
    return 1.0 - cfg.cavity(probe_cavity).kappa_ext * ws[index]


# probe grid of the window fit: points, and half-span in effective linewidths
_WINDOW_POINTS = 801
_WINDOW_SPAN = 6.0


def transparency_window_fwhm(cfg: SystemConfig, ds: DriveSet, probe_cavity: int) -> float:
    """Fitted full width at half maximum of the transparency window.

    Samples the complex reflection across the mechanically induced
    interference feature and fits a single complex pole on a linear
    background, S(w) = c0 + c1 w + D / (-i (w - w0) + fwhm / 2). The fitted
    pole width is the window's FWHM; in the weak-coupling limit it equals
    the total mechanical damping gamma_m + sum(gamma_minus - gamma_plus).

    The fit determines the FWHM to about 1e-9 relative only. On some drive
    sets the Levenberg-Marquardt iteration stops at one of two points up to
    6e-10 apart whose chi^2 agree to one ulp, and rounding-level noise in
    S11 decides which, so a tighter tolerance on the result measures the
    fit's stopping rule, not the physics.
    """
    width_guess = abs(effective_linewidth(cfg, ds))
    grid = np.linspace(-_WINDOW_SPAN * width_guess, _WINDOW_SPAN * width_guess, _WINDOW_POINTS)
    s11 = driven_response(cfg, ds, probe_cavity, grid)

    edge = 0.5 * (s11[0] + s11[-1])
    peak = int(np.argmax(np.abs(s11 - edge)))
    d0 = (s11[peak] - edge) * width_guess / 2.0
    p0 = np.array([edge.real, edge.imag, 0.0, 0.0, d0.real, d0.imag, grid[peak], width_guess])

    n = grid.size
    # the last residual's pole denominator -i (w - w0) + fwhm / 2, reused by a Jacobian there
    denominator, formed_at = np.empty(n, dtype=complex), [b""]

    def form_denominator(p):
        np.add(-1j * (grid - p[6]), p[7] / 2.0, out=denominator)
        formed_at[0] = p[6:].tobytes()

    def residuals(p):
        c0 = p[0] + 1j * p[1]
        c1 = p[2] + 1j * p[3]
        d = p[4] + 1j * p[5]
        form_denominator(p)
        model = c0 + c1 * grid + d / denominator
        diff = np.empty(2 * n)  # new on every call, as the solver requires
        np.subtract(model.real, s11.real, out=diff[:n])
        np.subtract(model.imag, s11.imag, out=diff[n:])
        return diff

    # the transposed Jacobian, real parts then imaginary parts: the rows of c0
    # and c1 are constant and written once, as 1, 1j, w and 1j * w (whose real
    # part 0 w is -0 for w < 0); each call writes the four of D, w0 and fwhm
    jt = np.zeros((8, 2 * n))
    jt[0, :n] = jt[1, n:] = 1.0
    jt[2, :n] = jt[3, n:] = grid
    np.multiply(0.0, grid, out=jt[3, :n])
    inv, turned, moved, widened = pole_rows = np.empty((4, n), dtype=complex)
    pole = np.empty(n, dtype=complex)

    def jacobian(p):
        d = p[4] + 1j * p[5]
        if formed_at[0] != p[6:].tobytes():
            form_denominator(p)
        np.divide(1.0, denominator, out=inv)
        np.multiply(1j, inv, out=turned)
        np.multiply(np.multiply(d, inv, out=pole), inv, out=pole)
        np.multiply(-1j, pole, out=moved)
        np.multiply(-0.5, pole, out=widened)
        jt[4:, :n], jt[4:, n:] = pole_rows.real, pole_rows.imag
        return jt

    p, info = levenberg_marquardt(
        residuals, jacobian, p0, ftol=1e-14, xtol=1e-14, gtol=1e-14, maxfev=100 * p0.size
    )
    if info not in (1, 2, 3, 4) or p[7] <= 0:
        raise NumericalError("transparency window fit did not converge")
    return float(p[7])


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Serialize a spectrum as CSV with `# key: value` metadata comments."""
    columns = (spectrum.freq / (2.0 * np.pi), spectrum.flux)
    write_csv(path, ("offset_hz", "flux"), columns, spectrum.meta.items())
