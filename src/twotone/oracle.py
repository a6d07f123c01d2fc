"""Independent brute-force validator: truncated-Fock-space master equation.

After adiabatic elimination of the cavities, each sideband tone pair acts on
the mechanical mode as a single collapse operator
c = sqrt(gamma_minus) e^{i theta_minus} b + sqrt(gamma_plus) e^{i theta_plus} b+,
the engineered squeezed bath, while the thermal environment contributes the
usual pair of operators sqrt(gamma_m (n_th + 1)) b and sqrt(gamma_m n_th) b+.
Every operator is linear in b and b+, so the Liouvillian is assembled in one
pass from their combined moments (A, B, C) rather than operator by operator.
The steady state is found by a direct linear solve for the null vector of
the Liouvillian on a finite Fock space, restricted to the even parity sector
that holds it, with explicit truncation checks, and
provides variances against which the closed-form and Lyapunov routes are
validated. The steady state is Gaussian, so its Fock populations, and with
them the truncation to start from, follow in closed form from the moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.sparse.linalg import norm, splu

from .errors import DomainError, InstabilityError, NumericalError, TruncationError
from .sysmodel import LOWER, UPPER, DriveSet, MechanicalMode

TAIL_THRESHOLD = 1e-6
_TRACE_TOL = 1e-10
_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class EffectiveDissipators:
    """Collapse operators of the reduced mechanical master equation.

    ``engineered`` holds one (c_minus, c_plus) coefficient pair per tone
    pair, meaning the single operator c_minus b + c_plus b+ with complex
    coefficients in sqrt(rad/s). The thermal pair derived from ``gamma_m``
    and ``n_thermal`` acts as two separate operators and is always present.
    """

    gamma_m: float
    n_thermal: float
    engineered: tuple[tuple[complex, complex], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.gamma_m <= 0:
            raise DomainError("thermal relaxation rate must be positive")
        if self.n_thermal < 0:
            raise DomainError("thermal occupancy must be non-negative")
        object.__setattr__(self, "engineered", tuple(
            (complex(cm), complex(cp)) for cm, cp in self.engineered
        ))

    @classmethod
    def from_drives(cls, mech: MechanicalMode, ds: DriveSet) -> "EffectiveDissipators":
        """Engineered operators for a resonant drive set, one per cavity."""
        pairs = []
        for j in ds.driven_cavities():
            lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
            for d in (lo, up):
                if d is not None and d.detuning != 0.0:
                    raise DomainError("adiabatic reduction requires resonant drives")
            cm = np.sqrt(lo.rate) * np.exp(1j * lo.phase) if lo else 0.0
            cp = np.sqrt(up.rate) * np.exp(1j * up.phase) if up else 0.0
            pairs.append((cm, cp))
        return cls(gamma_m=mech.gamma, n_thermal=mech.n_thermal, engineered=tuple(pairs))

    def collapse_coefficients(self) -> tuple[tuple[complex, complex], ...]:
        """All collapse operators as (coefficient of b, coefficient of b+)."""
        ops = [
            (complex(np.sqrt(self.gamma_m * (self.n_thermal + 1.0))), 0.0 + 0.0j),
            (0.0 + 0.0j, complex(np.sqrt(self.gamma_m * self.n_thermal))),
        ]
        ops.extend(self.engineered)
        return tuple(ops)

    def moments(self) -> tuple[float, float, complex]:
        """(A, B, C) = sum_k (|a_k|^2, |beta_k|^2, a_k conj(beta_k)).

        For collapse operators c_k = a_k b + beta_k b+ these fix the whole
        generator: sum_k c_k rho c_k+ = A b rho b+ + B b+ rho b + C b rho b
        + conj(C) b+ rho b+, and sum_k c_k+ c_k = A b+b + B b b+
        + conj(C) b+^2 + C b^2.
        """
        coeffs = np.array(self.collapse_coefficients())
        a, beta = coeffs[:, 0], coeffs[:, 1]
        return (
            float(np.sum(np.abs(a) ** 2)),
            float(np.sum(np.abs(beta) ** 2)),
            complex(np.sum(a * np.conj(beta))),
        )


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on a Fock space of dimension ``n_trunc``.

    Valid states are Hermitian, unit trace within 1e-10, have eigenvalues
    above -1e-10, and for a converged result the top-level population must
    stay below 1e-6.
    """

    rho: NDArray[np.complex128]
    n_trunc: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.n_trunc, self.n_trunc):
            raise DomainError("density matrix shape does not match truncation")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise NumericalError(f"state trace {np.trace(rho):.12g} differs from 1")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
            raise NumericalError("state is not Hermitian")
        eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eig.min() < -_EIGENVALUE_TOL:
            raise NumericalError(f"state has negative eigenvalue {eig.min():.3g}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> NDArray[np.float64]:
        return np.diag(self.rho).real

    @property
    def tail_population(self) -> float:
        return float(self.rho[-1, -1].real)


def _lowering(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n)), offsets=1, format="csr", dtype=complex)


def build_liouvillian(d: EffectiveDissipators, n_trunc: int) -> sp.csr_matrix:
    """Matrix of the Lindblad generator on the truncated space.

    Returns the N^2 x N^2 sparse matrix acting on column-stacked density
    matrices, index p + qN for rho[p, q]:
    L[rho] = sum_k (c_k rho c_k+ - {c_k+ c_k, rho} / 2). Every collapse
    operator is linear in b and b+, so the sum folds into the moments
    (A, B, C) of ``EffectiveDissipators.moments`` and L into nine index
    shifts. The products are those of the truncated matrices
    (b b+ = diag(1, ..., N-1, 0)), so the representation is exact on the
    truncated space.
    """
    if n_trunc < 2:
        raise DomainError("truncation must be at least 2 to represent the mode")
    n = n_trunc
    A, B, C = d.moments()
    root = np.sqrt(np.arange(n + 1))
    # <p|b|p+1> for p = 0 .. N-2; the same array is sqrt(p) for p = 1 .. N-1
    lower = root[1:n]
    lower2 = root[1 : n - 1] * root[2:n]  # <p|b^2|p+2>, p = 0 .. N-3
    ones = np.ones(n)
    index = np.arange(n * n).reshape(n, n)  # index[q, p] = p + qN

    rows, cols, vals = [], [], []

    def shift(dp: int, dq: int, coef: complex, fp, fq) -> None:
        # L[(p, q), (p + dp, q + dq)] = coef * fp[p] * fq[q] on the valid rectangle
        row = index[max(0, -dq) : n - max(0, dq), max(0, -dp) : n - max(0, dp)]
        rows.append(row.ravel())
        cols.append(row.ravel() + (dp + dq * n))
        vals.append((coef * np.multiply.outer(fq, fp)).ravel())

    shift(1, 1, A, lower, lower)  # A b rho b+
    shift(-1, -1, B, lower, lower)  # B b+ rho b
    shift(1, -1, C, lower, lower)  # C b rho b
    shift(-1, 1, np.conj(C), lower, lower)  # conj(C) b+ rho b+
    shift(2, 0, -0.5 * C, lower2, ones)  # -C b^2 rho / 2
    shift(-2, 0, -0.5 * np.conj(C), lower2, ones)  # -conj(C) b+^2 rho / 2
    shift(0, -2, -0.5 * C, ones, lower2)  # -C rho b^2 / 2
    shift(0, 2, -0.5 * np.conj(C), ones, lower2)  # -conj(C) rho b+^2 / 2
    # -(A b+b + B b b+) rho / 2 and its mirror
    k = A * np.arange(n) + B * np.append(np.arange(1.0, n), 0.0)
    rows.append(index.ravel())
    cols.append(index.ravel())
    vals.append((-0.5 * np.add.outer(k, k)).ravel())

    row, col, val = (np.concatenate(x) for x in (rows, cols, vals))
    keep = val != 0  # a zero moment or B = 0 at rho[0, 0] leaves no entry
    return sp.csr_matrix(
        (val[keep], (row[keep], col[keep])), shape=(n * n, n * n), dtype=complex
    )


def steady_state(lv: sp.spmatrix) -> TruncatedState:
    """Normalized kernel vector of the Liouvillian as a density matrix.

    Every collapse operator is linear in b and b+, so the generator conserves
    the parity of p + q for rho[p, q] (Albert & Jiang, PRA 89, 022118
    (2014)); ``lv`` must not couple the even and odd sectors. The trace
    functional lives in the even sector, so only that block, about N^2 / 2
    unknowns, is solved and the odd entries of the state are zero.

    The even block with its rho[0, 0] row replaced by the trace functional
    is factorized once, and the LU solves two right-hand sides: the unit
    vector of that row gives the state x1, the unit vector of the
    rho[N-1, N-1] row gives z1. Kernel uniqueness is checked against x2,
    the solution with the last row replaced instead: the two systems differ
    only in those two rows, so x2 = x1 - (l0 . x1) / (l0 . z1) z1 exactly,
    with l0 the rho[0, 0] row of L (trace preservation makes l0 . z1 = -1).
    A degenerate kernel yields inconsistent solutions. A kernel vector in
    the odd sector carries no trace and goes unchecked; on the device's
    drive sets up to N = 41 the odd block's smallest-to-largest singular
    value ratio stays above 2e-4.

    Raises
    ------
    DomainError
        If the size is not a perfect square or ``lv`` couples the two
        parity sectors.
    NumericalError
        If the kernel is degenerate or the solve fails.
    TruncationError
        If the top-level population exceeds ``TAIL_THRESHOLD``.
    """
    size = lv.shape[0]
    n = int(round(np.sqrt(size)))
    if n * n != size:
        raise DomainError("Liouvillian size is not a perfect square")

    coo = lv.tocoo()
    index = np.arange(size)
    odd = (index % n + index // n) % 2 == 1
    if np.any(odd[coo.row] != odd[coo.col]):
        raise DomainError("Liouvillian couples the even and odd parity sectors")
    even = np.flatnonzero(~odd)  # starts at rho[0, 0], ends at rho[N-1, N-1]
    sector = np.cumsum(~odd) - 1  # position of each even index within ``even``
    first = coo.row == 0
    keep = ~(odd[coo.row] | first)
    mat = sp.csc_matrix(
        (
            np.concatenate([coo.data[keep], np.ones(n)]),
            (
                np.concatenate([sector[coo.row[keep]], np.zeros(n, dtype=int)]),
                np.concatenate([sector[coo.col[keep]], sector[np.arange(n) * (n + 1)]]),
            ),
        ),
        shape=(even.size, even.size),
    )
    rhs = np.zeros((even.size, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = 1.0
    try:
        x1, z1 = splu(mat).solve(rhs).T
    except RuntimeError as exc:
        raise NumericalError(f"steady-state solve failed: {exc}") from exc

    l0, l0_cols = coo.data[first], sector[coo.col[first]]
    l0_z1 = l0 @ z1[l0_cols]
    if l0_z1 == 0 or not np.isfinite(l0_z1):
        raise NumericalError("steady-state solve failed: the last-row constraint is singular")
    x2 = x1 - (l0 @ x1[l0_cols]) / l0_z1 * z1
    if np.max(np.abs(x1 - x2)) > 1e-8 * max(1.0, np.max(np.abs(x1))):
        raise NumericalError(
            "Liouvillian kernel is degenerate: steady state depends on the "
            "imposed constraint row"
        )
    x = np.zeros(size, dtype=complex)
    x[even] = x1
    residual = np.linalg.norm(lv @ x)
    scale = norm(lv) * np.linalg.norm(x)
    if residual > 1e-9 * max(scale, 1.0):
        raise NumericalError(f"steady-state residual {residual:.3g} too large")

    rho = x.reshape((n, n), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    state = TruncatedState(rho=rho, n_trunc=n)
    if state.tail_population > TAIL_THRESHOLD:
        raise TruncationError(
            f"top-level population {state.tail_population:.3g} exceeds "
            f"{TAIL_THRESHOLD:.1g}; increase the truncation"
        )
    return state


def quad_variance(s: TruncatedState, phi: float) -> float:
    """Variance of X_phi = b e^{-i phi} + b+ e^{i phi} in the state."""
    b = _lowering(s.n_trunc).toarray()
    x = b * np.exp(-1j * phi) + b.conj().T * np.exp(1j * phi)
    mean = np.trace(s.rho @ x).real
    second = np.trace(s.rho @ x @ x).real
    return float(second - mean * mean)


def number_occupancy(s: TruncatedState) -> float:
    """Mean phonon number sum_k k p_k."""
    return float(np.arange(s.n_trunc) @ s.populations)


def gaussian_covariance(d: EffectiveDissipators) -> NDArray[np.float64]:
    """Quadrature covariance of the Gaussian steady state, from the moments.

    With damping Gamma = A - B the master equation gives
    <b+b> = B / Gamma and <b^2> = -conj(C) / Gamma. The result is the 2x2
    symmetrized covariance of X = b + b+ and P = -i (b - b+), with vacuum
    variance 1, so its eigenvalues are 1 + 2 <b+b> +- 2 |C| / Gamma.

    Raises
    ------
    InstabilityError
        If Gamma <= 0, so that no steady state exists.
    """
    A, B, C = d.moments()
    damping = A - B
    if damping <= 0.0:
        raise InstabilityError(
            f"damping A - B = {damping:.4g} is not positive; no steady state"
        )
    var = 2.0 * B / damping + 1.0
    m = -np.conj(C) / damping
    return np.array(
        [[var + 2.0 * m.real, 2.0 * m.imag], [2.0 * m.imag, var - 2.0 * m.real]]
    )


def gaussian_populations(v: NDArray[np.float64], size: int) -> NDArray[np.float64]:
    """Fock populations P(0) .. P(size - 1) of the zero-mean Gaussian state.

    Uses the generating function Tr(rho z^n) = 2 / sqrt(det((1 - z) V
    + (1 + z) I)) (Weedbrook et al., RMP 84, 621 (2012)). Each eigenvalue
    lam of V contributes the factor sqrt(2 / (lam + 1)) (1 - r z)^(-1/2),
    r = (lam - 1) / (lam + 1), whose series has coefficients
    sqrt(2 / (lam + 1)) C(2k, k) 4^-k r^k; P(n) is the convolution of the two.
    """
    k = np.arange(1, size)
    central = np.cumprod(np.append(1.0, (2.0 * k - 1.0) / (2.0 * k)))  # C(2k, k) 4^-k
    series = [
        np.sqrt(2.0 / (lam + 1.0)) * central * ((lam - 1.0) / (lam + 1.0)) ** np.arange(size)
        for lam in np.linalg.eigvalsh(v)
    ]
    return np.convolve(*series)[:size]


def _truncation_ladder(n_max: int) -> list[int]:
    """Truncations to try in turn: 8, then 1.5x steps capped at ``n_max``."""
    rungs = [8]
    while rungs[-1] < n_max:
        rungs.append(min(n_max, int(np.ceil(1.5 * rungs[-1]))))
    return rungs


def _predicted_rung(d: EffectiveDissipators, rungs: list[int]) -> int:
    """Index of the first rung N whose Gaussian tail P(N - 1) is below threshold.

    An anti-damped bath has no Gaussian steady state; its search starts at
    the first rung.
    """
    try:
        v = gaussian_covariance(d)
    except InstabilityError:
        return 0
    p = gaussian_populations(v, rungs[-1])
    return next(
        (i for i, n in enumerate(rungs) if p[n - 1] < TAIL_THRESHOLD), len(rungs) - 1
    )


def converged_steady_state(d: EffectiveDissipators, *, n_max: int = 120) -> TruncatedState:
    """Steady state at the first truncation whose tail check passes.

    Truncations follow the ladder 8, then 1.5x steps up to ``n_max``. The
    search starts at the rung the Gaussian steady state predicts from its
    populations (``gaussian_populations``); the tail check of
    ``steady_state`` still decides, and a start that proves too low moves up
    one rung at a time.
    """
    rungs = _truncation_ladder(n_max)
    for n in rungs[_predicted_rung(d, rungs) :]:
        try:
            return steady_state(build_liouvillian(d, n))
        except TruncationError:
            if n == rungs[-1]:
                raise
