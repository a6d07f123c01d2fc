"""Independent brute-force validator: truncated-Fock-space master equation.

After adiabatic elimination of the cavities, each sideband tone pair acts on
the mechanical mode as a single collapse operator
c = sqrt(gamma_minus) e^{i theta_minus} b + sqrt(gamma_plus) e^{i theta_plus} b+,
the engineered squeezed bath, while the thermal environment contributes the
usual pair of operators sqrt(gamma_m (n_th + 1)) b and sqrt(gamma_m n_th) b+.
Every operator is linear in b and b+, so the Liouvillian follows in one
pass from their combined moments (A, B, C) rather than operator by operator,
as nine index shifts of rho[p, q]. Each shift changes the coherence order
d = p - q by 0 or +-2, so the even parity sector that holds the steady state
is block tridiagonal in d, and block -d is the conjugate of block d. Only
C is complex, so in the squeezing frame, the mechanical phase rotated by
arg(C) / 2, every block is real. The steady state on a finite Fock space is
found in that frame by a float64 block elimination from the outermost order
inward to d = 0, built straight from the moments, with explicit uniqueness,
residual and truncation checks, and rotated back; it provides variances
against which the closed-form and Lyapunov routes are validated. The steady
state is Gaussian, so its Fock populations, and with them the truncation to
start from, follow in closed form from the moments. scipy is loaded only by
``build_liouvillian``, which returns the generator as a sparse matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, InstabilityError, NumericalError, TruncationError
from .sysmodel import LOWER, UPPER, DriveSet, MechanicalMode, _require_finite

if TYPE_CHECKING:
    import scipy.sparse as sp

TAIL_THRESHOLD = 1e-6
_TRACE_TOL = 1e-10
# smallest-to-largest singular value of the constrained order-0 Schur
# complement at or below which the kernel counts as degenerate
_SINGULAR_RATIO = 1e-12
_EIGENVALUE_TOL = 1e-10
# (dp, dq) of the index shifts L[(p, q), (p + dp, q + dq)] of a generator
# quadratic in b and b+: within the coherence order d = p - q, to d + 2 with
# q shifted by 0, -1, -2, and to d - 2 with q shifted by 0, +1, +2
_SHIFTS = ((0, 0), (1, 1), (-1, -1), (2, 0), (1, -1), (0, -2), (-2, 0), (-1, 1), (0, 2))
# Fock truncations ``converged_steady_state`` tries in turn: 8, then 1.5x
# steps rounded up, capped at 120
_LADDER = (8, 12, 18, 27, 41, 62, 93, 120)


@dataclass(frozen=True)
class EffectiveDissipators:
    """Collapse operators of the reduced mechanical master equation.

    ``engineered`` holds one (c_minus, c_plus) coefficient pair per tone
    pair, meaning the single operator c_minus b + c_plus b+ with complex
    coefficients in sqrt(rad/s). The thermal pair derived from ``gamma_m``
    and ``n_thermal`` acts as two separate operators and is always present.
    Every input must be finite; the moments (A, B, C) are formed once, here.
    """

    gamma_m: float
    n_thermal: float
    engineered: tuple[tuple[complex, complex], ...] = field(default_factory=tuple)
    _moments: tuple[float, float, complex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite("thermal relaxation rate", self.gamma_m)
        _require_finite("thermal occupancy", self.n_thermal)
        if self.gamma_m <= 0:
            raise DomainError("thermal relaxation rate must be positive")
        if self.n_thermal < 0:
            raise DomainError("thermal occupancy must be non-negative")
        object.__setattr__(self, "engineered", tuple(
            (complex(cm), complex(cp)) for cm, cp in self.engineered
        ))
        coeffs = np.array(self.collapse_coefficients())
        if not np.isfinite(coeffs).all():
            raise DomainError("engineered collapse coefficients must be finite")
        squares = np.abs(coeffs) ** 2
        moments = (float(np.sum(squares[:, 0])), float(np.sum(squares[:, 1])))
        C = complex(np.sum(coeffs[:, 0] * np.conj(coeffs[:, 1])))
        object.__setattr__(self, "_moments", (*moments, C))

    @classmethod
    def from_drives(cls, mech: MechanicalMode, ds: DriveSet) -> "EffectiveDissipators":
        """Engineered operators for a resonant drive set, one per cavity."""
        pairs = []
        for j in ds.driven_cavities():
            lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
            for d in (lo, up):
                if d is not None and d.detuning != 0.0:
                    raise DomainError("adiabatic reduction requires resonant drives")
            cm = math.sqrt(lo.rate) * cmath.exp(1j * lo.phase) if lo else 0.0
            cp = math.sqrt(up.rate) * cmath.exp(1j * up.phase) if up else 0.0
            pairs.append((cm, cp))
        return cls(gamma_m=mech.gamma, n_thermal=mech.n_thermal, engineered=tuple(pairs))

    def collapse_coefficients(self) -> tuple[tuple[complex, complex], ...]:
        """All collapse operators as (coefficient of b, coefficient of b+)."""
        ops = [
            (complex(math.sqrt(self.gamma_m * (self.n_thermal + 1.0))), 0.0 + 0.0j),
            (0.0 + 0.0j, complex(math.sqrt(self.gamma_m * self.n_thermal))),
        ]
        ops.extend(self.engineered)
        return tuple(ops)

    def moments(self) -> tuple[float, float, complex]:
        """(A, B, C) = sum_k (|a_k|^2, |beta_k|^2, a_k conj(beta_k)).

        For collapse operators c_k = a_k b + beta_k b+ these fix the whole
        generator: sum_k c_k rho c_k+ = A b rho b+ + B b+ rho b + C b rho b
        + conj(C) b+ rho b+, and sum_k c_k+ c_k = A b+b + B b b+
        + conj(C) b+^2 + C b^2. They are formed at construction.
        """
        return self._moments


@dataclass(frozen=True, eq=False)
class TruncatedState:
    """Density matrix on a Fock space of dimension ``n_trunc``.

    Valid states are finite, Hermitian, unit trace within 1e-10, have
    eigenvalues above -1e-10, and for a converged result the top-level
    population must stay below 1e-6. Positivity is checked by one Cholesky
    factorization of the Hermitian part shifted by 1e-10; only a failed
    factorization computes the eigenvalues, which decide and word the error.
    """

    rho: NDArray[np.complex128]
    n_trunc: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.n_trunc, self.n_trunc):
            raise DomainError("density matrix shape does not match truncation")
        if not np.isfinite(rho).all():
            raise NumericalError("state holds a non-finite entry")
        trace = complex(np.trace(rho))
        if abs(trace.real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
            raise NumericalError(f"state trace {trace:.12g} differs from 1")
        adjoint = rho.conj().T
        if np.abs(rho - adjoint).max() > 1e-9:
            raise NumericalError("state is not Hermitian")
        shifted = rho + adjoint
        shifted *= 0.5
        shifted.reshape(-1)[:: self.n_trunc + 1] += _EIGENVALUE_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            smallest = np.linalg.eigvalsh(0.5 * (rho + adjoint))[0]
            if not smallest >= -_EIGENVALUE_TOL:
                raise NumericalError(f"state has negative eigenvalue {smallest:.3g}") from None
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> NDArray[np.float64]:
        return np.diag(self.rho).real

    @property
    def tail_population(self) -> float:
        return float(self.rho[-1, -1].real)


def _bands(A: float, B: float, C: complex, n: int) -> NDArray[np.inexact]:
    """Generator entries in the rows of coherence order d = p - q >= 0.

    ``bands[k, d, q]`` is L[(p, q), (p + dp, q + dq)] with p = q + d and
    (dp, dq) the k-th of ``_SHIFTS``, for the generator with moments
    (A, B, C) on the truncated space (b b+ = diag(1, ..., N-1, 0)). Rows
    beyond the truncation, and shifts that leave it, hold 0. The rows with
    d < 0 are the conjugate mirror images (p, q) -> (q, p) of these. The
    bands are float64 for a real C and complex128 otherwise. Bands 1 to 8
    are those of ``_layout(n)`` times their coefficients.
    """
    layout = _layout(n)
    k = np.zeros(2 * n)  # (A b+b + B b b+) on level p
    k[:n] = A * layout.levels[0] + B * layout.levels[1]
    zero = (k[layout.p] + k[:n]) * (layout.p < n)  # -(A b+b + B b b+) rho / 2 and its mirror
    cc = np.conj(C)
    coef = np.array([-0.5, A, B, -0.5 * C, C, -0.5 * C, -0.5 * cc, cc, -0.5 * cc])
    return coef[:, None, None] * np.concatenate([zero[None], layout.unit])


def build_liouvillian(d: EffectiveDissipators, n_trunc: int) -> sp.csr_matrix:
    """Matrix of the Lindblad generator on the truncated space.

    Returns the N^2 x N^2 sparse matrix acting on column-stacked density
    matrices, index p + qN for rho[p, q]:
    L[rho] = sum_k (c_k rho c_k+ - {c_k+ c_k, rho} / 2). Every collapse
    operator is linear in b and b+, so the sum folds into the moments
    (A, B, C) of ``EffectiveDissipators.moments`` and L into nine index
    shifts, those of ``_bands``. The products are those of the truncated
    matrices (b b+ = diag(1, ..., N-1, 0)), so the representation is exact
    on the truncated space. The solve takes ``coherence_blocks`` and needs
    no scipy; this sparse matrix serves as an independent reference.
    """
    import scipy.sparse as sp

    n = n_trunc
    bands = _bands(*d.moments(), n)
    k, order, q = np.nonzero(bands)  # a zero moment or B = 0 at rho[0, 0] leaves no entry
    val = bands[k, order, q]
    p = q + order
    shift = np.array(_SHIFTS)[k]
    p_to, q_to = p + shift[:, 0], q + shift[:, 1]
    mirror = order > 0  # rows with d < 0: L[(q, p), (q', p')] = conj L[(p, q), (p', q')]
    rows = np.concatenate([p + q * n, (q + p * n)[mirror]])
    cols = np.concatenate([p_to + q_to * n, (q_to + p_to * n)[mirror]])
    vals = np.concatenate([val, val[mirror].conj()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n), dtype=complex)


@dataclass(frozen=True, eq=False)
class CoherenceBlocks:
    """Even parity sector of a generator, in blocks of coherence order d.

    The sector holds rho[q + d, q] for even d. Block d >= 0 is indexed by
    q = 0 .. N - 1 - d; block -d, rho[q, q + d], is its conjugate mirror
    image, and so are its rows of the generator, so only d = 2j >= 0 is
    stored.
    - ``diagonal[j]``: the dense block of order 2j onto itself.
    - ``up[i, j, q]``: the entry of row rho[q + 2j, q] at
      rho[q + 2j + 2 - i, q - i], in order 2j + 2.
    - ``down[i, j, q]``: the entry of that row at rho[q + 2j - 2 + i, q + i],
      in order 2j - 2.
    - ``norm``: the Frobenius norm of the whole generator, both parity
      sectors and both signs of d.
    - ``theta``: the mechanical phase of the frame the blocks are written
      in. Their kernel x_d[q] is e^{i theta d} rho[q + d, q], the state
      rotated to e^{i theta b+b} rho e^{-i theta b+b}; 0 is the frame of
      ``build_liouvillian``, the lab frame.
    - ``within``: the diagonal blocks again, as 2K + 1 bands that the
      residual check reads: ``within[k][j, q]`` is the entry of block j at
      (q, q + k - K), 0 where that column leaves the block; rows q beyond
      the block meet only zeros of the state. Left out, it is
      read off ``diagonal``, every diagonal of every block (K = N - 1), so
      blocks built or replaced by hand stay consistent; ``coherence_blocks``
      passes the three bands (K = 1) of its tridiagonal blocks.
    """

    n_trunc: int
    diagonal: tuple[NDArray[np.inexact], ...]
    up: NDArray[np.inexact]
    down: NDArray[np.inexact]
    norm: float
    theta: float
    within: InitVar[tuple[NDArray[np.inexact], ...] | None] = None
    _within: tuple[NDArray[np.inexact], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, within):
        if within is None:
            n = self.n_trunc
            bands = np.zeros((2 * n - 1, len(self.diagonal), n), np.result_type(*self.diagonal))
            for j, block in enumerate(self.diagonal):
                q, column = np.indices(block.shape)
                bands[column - q + n - 1, j, q] = block
            within = tuple(bands)
        object.__setattr__(self, "_within", within)


def coherence_blocks(d: EffectiveDissipators, n_trunc: int) -> CoherenceBlocks:
    """The blocks of ``build_liouvillian(d, n_trunc)`` in the squeezing frame.

    Only the moment C is complex, and only the couplings to d +- 2 carry it:
    ``up`` is proportional to C and ``down`` to conj(C). Rotating the
    mechanical phase by theta = arg(C) / 2 multiplies them by e^{-i arg C}
    and e^{+i arg C}, so the blocks are built from (A, B, |C|) and are all
    float64. Each diagonal block is tridiagonal and holds only A and B, the
    same in every frame, and each coupling to d +- 2 has the three bands
    ``up`` and ``down``. Only the even orders of ``_bands`` are formed, and
    the diagonal blocks are written by one scatter into one packed buffer,
    order 0 first; ``diagonal`` holds views into it, and ``within`` the
    three bands they were written from. The Frobenius norm
    takes bands 1 to 8 from the layout's sums of squares and band 0 in
    O(N): over both signs of d it is the sum over p, q < N of (k_p + k_q)^2 / 4.
    """
    n, layout = n_trunc, _layout(n_trunc)
    A, B, C = d.moments()
    c = abs(C)
    k = np.zeros(2 * n)  # (A b+b + B b b+) on level p, as in ``_bands``
    k[:n] = A * layout.levels[0] + B * layout.levels[1]
    coef = np.array([A, B, -0.5 * c, c, -0.5 * c, -0.5 * c, c, -0.5 * c])
    even = coef[:, None, None] * layout.unit[:, ::2]
    main = -0.5 * (k[layout.p[::2]] + k[:n])  # beyond the block, where x is 0, it holds -k_q / 2
    diagonal = tuple(layout.diagonal.pack(np.float64, main, even))
    norm = float(np.sqrt(coef**2 @ layout.sums + 0.5 * (n * (k @ k) + k.sum() ** 2)))
    theta = float(np.angle(C)) / 2.0
    return CoherenceBlocks(n, diagonal, even[2:5], even[5:8], norm, theta, (even[1], main, even[0]))


class _Packing(NamedTuple):
    """Where the entries of blocks go in one packed buffer, and the blocks in it.

    ``pack`` writes ``source.take(index)`` (flat indices) to ``packed[target]``
    for each source array in one scatter, and returns the blocks as views
    into ``packed``: (start, rows, columns) of each in ``shapes``.
    """

    size: int
    targets: tuple[NDArray[np.intp], ...]
    indices: tuple[NDArray[np.intp], ...]
    shapes: tuple[tuple[int, int, int], ...]

    def pack(self, dtype, *sources: NDArray) -> list[NDArray]:
        packed = np.zeros(self.size, dtype=dtype)
        for target, index, source in zip(self.targets, self.indices, sources):
            packed[target] = source.take(index)
        return [packed[a : a + r * c].reshape(r, c) for a, r, c in self.shapes]


class _Layout(NamedTuple):
    """The arrays of the oracle that depend on the truncation N alone.

    ``unit`` holds bands 1 to 8 of ``_bands`` at unit coefficients, over all
    orders, and ``sums`` the sum of squares of each over both signs of d;
    ``p`` is the level q + d of row (d, q), and ``levels`` holds the
    diagonals of the truncated b+b and b b+. ``diagonal`` packs the m x m
    tridiagonal blocks of orders 2j, m = N - 2j, from j = 0 up: row q of
    block j takes its main diagonal from band 0 at (j, q), its upper from
    band 1 at (j, q) and its lower from band 2 at (j, q), out of band 0 and
    bands 1 to 8 of the even orders. ``coupling`` packs the couplings of
    each eliminated order 2j, to and from 2j - 2, from j = 1 up: with
    m = N - 2j, level j holds the lowering matrix L_{2j,2j-2} (m x m + 2)
    with entry (q, q + i) = ``down[i, j, q]``, then the raising matrix
    L_{2j-2,2j} (m + 2 x m) with entry (q + i, q) = ``up[i, j - 1, q + i]``.
    ``placed`` holds, for every x_{2j}[q] within the truncation, j, its
    flat index in ``steady_state``'s (top + 3, N + 4, 2) buffer, where it
    sits at [j + 1, q + 2, 0], and the flat indices of rho[q + 2j, q] and
    rho[q, q + 2j] in the N x N state; ``weights`` are
    ``quad_variance``'s <q|b|q+1>, <q|b^2|q+2> and
    diagonal of the truncated b b+ + b+ b.
    """

    unit: NDArray[np.float64]
    sums: NDArray[np.float64]
    p: NDArray[np.intp]
    levels: NDArray[np.float64]
    diagonal: _Packing
    coupling: _Packing
    placed: tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]]
    weights: tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]


@functools.lru_cache(maxsize=len(_LADDER))
def _layout(n: int) -> _Layout:
    """The read-only ``_Layout`` of truncation ``n``, built once and shared.

    The cache holds one layout per rung of ``_LADDER``, about 116 N^2 bytes
    each and 3.5 MB for all eight.
    """
    if n < 2:
        raise DomainError("truncation must be at least 2 to represent the mode")
    q = np.arange(n)
    p = q + q[:, None]
    # sqrt of the level, 0 beyond the truncation; index -1 reads a trailing 0
    root = np.zeros(2 * n + 2)
    root[:n] = np.sqrt(q)
    rp, rp1, rq, rq1 = root[p], root[p + 1], root[:n], root[1 : n + 1]
    unit = np.stack(np.broadcast_arrays(
        rp1 * rq1,  # A b rho b+
        rp * rq,  # B b+ rho b
        rp1 * root[p + 2],  # -C b^2 rho / 2
        rp1 * rq,  # C b rho b
        rq * root[q - 1],  # -C rho b^2 / 2
        rp * root[p - 1],  # -conj(C) b+^2 rho / 2
        rp * rq1,  # conj(C) b+ rho b+
        rq1 * root[2 : n + 2],  # -conj(C) rho b+^2 / 2
    )) * (p < n)
    squares = unit * unit
    sums = 2.0 * squares.sum(axis=(1, 2)) - squares[:, 0].sum(axis=1)

    sizes = np.arange(n, 0, -2)  # m of the orders 2j = 0, 2, ...
    order, row = np.nonzero(q < sizes[:, None])
    m = sizes[order]
    starts = np.cumsum(sizes**2) - sizes**2
    main = starts[order] + row * (m + 1)
    at = order * n + row  # flat (j, q) in a source of shape (..., (N + 1) // 2, N)
    inner = row > 0  # rows with a lower diagonal, and the rows above them an upper one
    targets = (main, np.concatenate([main[inner] - m[inner], main[inner] - 1]))
    indices = (at, np.concatenate([at[inner] - 1, at[inner] + sizes.size * n]))
    shapes = tuple(zip(starts.tolist(), sizes.tolist(), sizes.tolist()))
    diagonal = _Packing(int(np.sum(sizes**2)), targets, indices, shapes)

    sizes = sizes[1:]  # m of the levels j = 1, 2, ...
    area = sizes * (sizes + 2)
    lowering = np.cumsum(2 * area) - 2 * area
    raising = lowering + area
    level, row = np.nonzero(q < sizes[:, None])
    band = np.repeat(np.arange(3), level.size)
    level, row = np.tile(level, 3), np.tile(row, 3)
    m = sizes[level]
    targets = (lowering[level] + row * (m + 3) + band, raising[level] + row * (m + 1) + band * m)
    at = (band * (sizes.size + 1) + level) * n + row  # flat (i, j - 1, q)
    shapes = []
    for a, b, k in zip(lowering.tolist(), raising.tolist(), sizes.tolist()):
        shapes += [(a, k, k + 2), (b, k + 2, k)]
    coupling = _Packing(int(np.sum(2 * area)), targets, (at + n, at + band), tuple(shapes))

    order, row = np.nonzero(q + 2 * np.arange((n + 1) // 2)[:, None] < n)
    below = row + 2 * order
    placed = (order, 2 * ((order + 1) * (n + 4) + row + 2), below * n + row, row * n + below)
    levels = np.array([q, np.append(q[1:], 0)], dtype=float)
    one = np.sqrt(q[1:])  # <q|b|q+1>
    weights = (one, one[:-1] * one[1:], levels[0] + levels[1])
    for a in (unit, sums, p, levels, *placed, *weights, *diagonal.targets, *diagonal.indices,
              *coupling.targets, *coupling.indices):
        a.flags.writeable = False  # shared by every caller
    return _Layout(unit, sums, p, levels, diagonal, coupling, placed, weights)


def _both_signs_norm(a: NDArray) -> float:
    """2-norm of the entries of orders d >= 0, indexed along axis 0, and their mirrors at -d."""
    return math.sqrt(2.0 * np.vdot(a, a).real - np.vdot(a[0], a[0]).real)


def _residual(blocks: CoherenceBlocks, padded: NDArray) -> NDArray:
    """Rows d = 2j >= 0 of L x, for the even-sector state x held zero-padded.

    ``padded`` is (top + 3, N + 4) with x_{2j}[q] at [j + 1, q + 2] and 0
    everywhere else, the layout of ``steady_state``'s buffer; x_{-d} is
    taken to be the conjugate of x_d, a Hermitian state. The rows are nine
    shifted band products over all orders at once, three within the order
    (``within``) and three to each neighbour, so no Python loop runs over
    the orders: order 2j + 2 through ``up`` and 2j - 2 through ``down``,
    whose rows at order 0 meet the zero order below and take instead the
    conjugate of order 0's coupling up, the mirror of order -2. Entry
    [j, q] of the result is row rho[q + 2j, q], 0 beyond the block.
    """
    n, up, down, within = blocks.n_trunc, blocks.up, blocks.down, blocks._within
    x = padded[1:-1, 2:-2]
    raised = up[0] * padded[2:, 2:-2] + up[1] * padded[2:, 1:-3] + up[2] * padded[2:, :-4]
    rows = raised + down[0] * padded[:-2, 2:-2] + down[1] * padded[:-2, 3:-1] + down[2] * padded[:-2, 4:]
    rows[0] += raised[0].conj()
    for offset, band in enumerate(within, start=(1 - len(within)) // 2):
        lo, hi = max(0, -offset), n - max(0, offset)
        rows[:, lo:hi] += band[:, lo:hi] * x[:, lo + offset : hi + offset]
    return rows


def steady_state(blocks: CoherenceBlocks) -> TruncatedState:
    """Normalized kernel vector of the Liouvillian as a density matrix.

    Every collapse operator is linear in b and b+, so each term of the
    generator changes the coherence order d = p - q of rho[p, q] by 0 or +-2
    and conserves the parity of d (Albert & Jiang, PRA 89, 022118 (2014)).
    The trace functional lives in the even sector, so only that sector is
    solved and the odd entries of the state are zero. Ordered by d, the
    even sector is block tridiagonal, and the generator preserves
    Hermiticity, so block -d is the conjugate of block d; ``blocks`` holds
    that sector, as ``coherence_blocks`` builds it.

    The elimination runs in the common dtype of all the blocks: float64 for
    those of ``coherence_blocks``, which are written in the squeezing frame,
    and complex128 as soon as one block is complex. The state is then
    rotated back to the frame of ``build_liouvillian``,
    rho[q + d, q] = e^{-i theta d} x_d[q] with the blocks' ``theta``. The
    reduced master equation has no Hamiltonian term, since its drives are
    resonant: a detuning -i delta [b+b, rho] would put -i delta d on the
    diagonal blocks and leave the generator complex in every frame.

    Block elimination (Golub & Van Loan, Matrix Computations, ch. 4) runs
    from the outermost order inward: W_d = S_d^-1 L_{d,d-2} and
    S_{d-2} = L_{d-2,d-2} - L_{d-2,d} W_d, starting from S = L at the top.
    The couplings of every level are scattered from ``up`` and ``down`` into
    one buffer per solve before the loop, by the packing that ``_layout``
    caches for the truncation, laid out level by level from
    d = 2 outward: the dense m x (m + 2) lowering matrix L_{d,d-2}, then the
    dense (m + 2) x m raising matrix L_{d-2,d}, with m = N - d. Each level
    is then one solve, one matrix product and one subtraction, written over
    that fresh product; the products go through ``np.dot``, which calls the
    same BLAS routine as ``@`` with less dispatch. Only d > 0 is eliminated;
    order -d contributes the conjugate, so the order-0 Schur complement is
    L_00 - M - conj(M) with M = L_{0,2} W_2. Its rho[0, 0] row is replaced
    by the trace functional, scaled to the root-mean-square row norm so that
    no check depends on the units of L, and that N x N matrix solves two
    right-hand sides: the (scaled) unit vector of that row gives the state
    x1 with unit trace, the unit vector of the rho[N-1, N-1] row gives z1.
    Back substitution x_d = -W_d x_{d-2} writes each order with
    ``np.dot(..., out=)`` into one (top + 3, N + 4, 2) buffer, x_{2j}[q] at
    [j + 1, q + 2] with a zero order on either side and two zero columns on
    either end, and W_d is never negated: the buffer holds (-1)^j x_{2j}
    until one pass writes 0 - x over the odd orders. That is exact: each
    term of the product is the negated term of -W_d x_{d-2}, a rounded sum
    of negated terms is the negated sum, and a zero sum is +0 either way,
    which 0 - x keeps. The state x1 then fills rho[q + d, q] and,
    conjugated, rho[q, q + d].

    Three checks guard the solve; none is a proof of uniqueness.
    - Singular values: with every outer Schur block nonsingular, the
      constrained even sector is singular exactly when the constrained
      order-0 Schur complement is, and a second even kernel vector makes it
      singular, because some combination of the two carries no trace. A
      smallest-to-largest singular value ratio of that N x N matrix at or
      below 1e-12 raises; an exactly singular outer block raises too. The
      ratio is a condition number of the reduced matrix only: a nearly
      degenerate kernel (a slowly relaxing generator) above 1e-12 passes,
      and an outer block that is nearly singular is seen only through the
      residual.
    - Row swap: x1 is compared with x2, the solution with the last row
      replaced instead. The two systems differ only in those two rows, both
      of order 0, so x2 = x1 - (l0 . x1) / (l0 . z1) z1 exactly, with l0 the
      rho[0, 0] row of the order-0 Schur complement (trace preservation
      makes l0 . z1 = -1). This sees only a degenerate kernel whose parts
      differ in the rho[0, 0] and rho[N-1, N-1] rows.
    - Residual: ||L x|| over both signs of d, against the generator's
      Frobenius norm times ||x||, sees a solve spoiled by an ill-conditioned
      outer block. ``_residual`` forms L x from the same buffer, as nine
      shifted band products over all orders at once.
    A kernel vector in the odd sector carries no trace and is seen by none
    of them; on the device's drive sets up to N = 41 the odd block's
    smallest-to-largest singular value ratio stays above 2e-4.

    Raises
    ------
    NumericalError
        If the kernel is degenerate or the solve fails.
    TruncationError
        If the top-level population exceeds ``TAIL_THRESHOLD``.
    """
    n, diagonal = blocks.n_trunc, blocks.diagonal
    dtype = np.result_type(blocks.up, blocks.down, *diagonal)
    top = len(diagonal) - 1
    layout = _layout(n)
    couplings = layout.coupling.pack(dtype, blocks.down, blocks.up)
    w = [None] * (top + 1)
    schur = diagonal[top]
    for j in range(top, 0, -1):
        lowering, raising = couplings[2 * j - 2 : 2 * j]
        try:
            w[j] = np.linalg.solve(schur, lowering)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"steady-state solve failed: the Schur block of order {2 * j} is singular"
            ) from exc
        inflow = np.dot(raising, w[j])
        if j > 1:  # the next Schur block takes the place of this fresh product
            schur = np.subtract(diagonal[j - 1], inflow, out=inflow)
    if top:  # order 0 takes the term of order 2 and, conjugated, that of its mirror -2
        schur = diagonal[0] - inflow
        schur -= inflow.conj() if dtype.kind == "c" else inflow

    trace = np.linalg.norm(schur) / n  # the row norm of n entries of this size
    l0 = schur[0].copy()
    constrained = schur if top else schur.copy()  # at top = 0 it is the caller's block
    constrained[0] = trace
    rhs = np.zeros((n, 2))
    rhs[0, 0], rhs[-1, 1] = trace, 1.0
    try:
        singular = np.linalg.svd(constrained, compute_uv=False)
        if not singular[-1] > _SINGULAR_RATIO * singular[0]:
            ratio = singular[-1] / singular[0] if singular[0] > 0 else 0.0
            raise NumericalError(
                "Liouvillian kernel is degenerate: smallest-to-largest singular value "
                f"ratio {ratio:.3g} of the constrained order-0 Schur complement"
            )
        x0 = np.linalg.solve(constrained, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state solve failed: {exc}") from exc
    padded = np.zeros((top + 3, n + 4, 2), dtype=dtype)
    padded[1, 2:-2] = x0
    for j in range(1, top + 1):
        m = n - 2 * j
        np.dot(w[j], padded[j, 2 : m + 4], out=padded[j + 1, 2 : m + 2])
    odd = padded[2::2]
    np.subtract(0.0, odd, out=odd)
    x1, z1 = padded[1:-1, 2:-2, 0], padded[1:-1, 2:-2, 1]

    l0_z1 = l0 @ z1[0]
    if l0_z1 == 0 or not cmath.isfinite(l0_z1):
        raise NumericalError("steady-state solve failed: the last-row constraint is singular")
    if np.abs((l0 @ x1[0]) / l0_z1 * z1).max() > 1e-8 * max(1.0, np.abs(x1).max()):
        raise NumericalError(
            "Liouvillian kernel is degenerate: steady state depends on the "
            "imposed constraint row"
        )

    # the state as returned: real populations, order -d the conjugate of d
    if dtype.kind == "c":
        x1[0] = x1[0].real
    residual = _both_signs_norm(_residual(blocks, padded[..., 0]))
    scale = blocks.norm * _both_signs_norm(x1)
    if not residual <= 1e-9 * max(scale, 1.0):  # a NaN residual or norm fails too
        raise NumericalError(f"steady-state residual {residual:.3g} too large")

    order, source, lower, upper = layout.placed
    rotation = np.exp(-2j * blocks.theta * np.arange(top + 1))  # back to theta = 0
    entries = rotation[order] * padded.take(source)
    rho = np.zeros((n, n), dtype=complex)
    flat = rho.reshape(-1)
    flat[lower] = entries
    flat[upper] = entries.conj()  # the diagonal, written twice, keeps the conjugate
    rho /= np.trace(rho).real
    state = TruncatedState(rho=rho, n_trunc=n)
    if state.tail_population > TAIL_THRESHOLD:
        raise TruncationError(
            f"top-level population {state.tail_population:.3g} exceeds "
            f"{TAIL_THRESHOLD:.1g}; increase the truncation"
        )
    return state


def quad_variance(s: TruncatedState, phi: float) -> float:
    """Variance of X_phi = b e^{-i phi} + b+ e^{i phi} in the state.

    Tr(rho X) needs the diagonals d = +-1 of rho and Tr(rho X^2) those of
    d = 0 and +-2, with the truncated b b+ + b+ b = diag(1, 3, ..., 2N-3, N-1);
    these level weights are read from ``_layout(N)``.
    """
    rho = s.rho
    phase = np.exp(-1j * phi)
    one, two, number = _layout(s.n_trunc).weights
    mean = (
        phase * (one @ np.diagonal(rho, -1)) + np.conj(phase) * (one @ np.diagonal(rho, 1))
    ).real
    second = (
        number @ np.diagonal(rho).real
        + (phase**2 * (two @ np.diagonal(rho, -2))).real
        + (np.conj(phase) ** 2 * (two @ np.diagonal(rho, 2))).real
    )
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
    central, k = _series_terms(size)
    series = [
        np.sqrt(2.0 / (lam + 1.0)) * central * ((lam - 1.0) / (lam + 1.0)) ** k
        for lam in np.linalg.eigvalsh(v)
    ]
    return np.convolve(*series)[:size]


@functools.lru_cache(maxsize=4)
def _series_terms(size: int) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """C(2k, k) 4^-k and k for k = 0 .. size - 1, read-only and shared by every call."""
    k = np.arange(1, size)
    central = np.cumprod(np.append(1.0, (2.0 * k - 1.0) / (2.0 * k)))
    k = np.arange(size)
    for a in (central, k):
        a.flags.writeable = False
    return central, k


def _predicted_rung(d: EffectiveDissipators) -> int:
    """Index in ``_LADDER`` of the first rung N whose Gaussian tail P(N - 1) is below threshold.

    An anti-damped bath has no Gaussian steady state; its search starts at
    the first rung.
    """
    try:
        v = gaussian_covariance(d)
    except InstabilityError:
        return 0
    p = gaussian_populations(v, _LADDER[-1])
    return next(
        (i for i, n in enumerate(_LADDER) if p[n - 1] < TAIL_THRESHOLD), len(_LADDER) - 1
    )


def converged_steady_state(d: EffectiveDissipators) -> TruncatedState:
    """Steady state at the first truncation whose tail check passes.

    Truncations follow ``_LADDER``: 8, then 1.5x steps rounded up, to 120.
    The search starts at the rung the Gaussian steady state predicts from
    its populations (``gaussian_populations``); the tail check of
    ``steady_state`` still decides, and a start that proves too low moves
    up one rung at a time. The check bounds the tail, not the error: over
    the 192 crossval drive sets of perfbench seeds 3, 11, 12 and 77, X1 and
    X2 agree with the closed form to 8.2e-4 relative at worst (N = 41,
    where N = 40 passes too); solving at the smallest N that passes would
    loosen that to 1.9e-3.

    Raises
    ------
    TruncationError
        If the tail check fails at the last rung, N = 120, as well.
    """
    for n in _LADDER[_predicted_rung(d) :]:
        try:
            return steady_state(coherence_blocks(d, n))
        except TruncationError:
            if n == _LADDER[-1]:
                raise
