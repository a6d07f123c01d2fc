"""The one-write assemblies and narrowed interfaces against what they replaced.

Each reference below is a construction that a faster or narrower one
replaced, kept as it was: the entry-by-entry arrays and the
channel-by-channel diffusion of ``build_linear_model``, the ``np.kron``
Lyapunov operator, the diagonal blocks of ``coherence_blocks`` filled through
``ndarray.flat``, the whole former ``coherence_blocks``, which took the even
orders of every band of the former ``_bands`` (``banded_coherence_blocks``
and ``factorwise_bands``), the former
bodies of ``quad_variance`` and ``EffectiveDissipators.moments``, which
formed their level weights and moments on every call, the stacked Jacobian
of the window fit, the dict-built
Jacobian of ``fit_lorentzian`` and the whole former ``fit_lorentzian`` with
its ``init`` and ``fixed`` dicts (``dict_fit_lorentzian``), the former
``spectrum_grid``, which took the drive set and solved its frame shifts again
(``drive_set_grid``), the former ``steady_covariance``, which symmetrized V
twice (``twice_symmetrized_covariance``), and the former truncation ladder
with its ``n_max`` (``capped_ladder``). The
rewrites make the same floating-point operations on the same operands, so
every array and every fit must agree to the bit, signed zeros included. So must the
backaction line, whose former normal-equation solve (``normal_equation_line``)
had the same weighting as the shared ``_weighted_linear_fit`` that replaced
it. The exceptions agree to 1e-12 relative: the generator norm of
``coherence_blocks`` (to 1e-14), now summed from per-truncation sums of
squares rather than over the bands; the per-level elimination of
``steady_state``, whose raising bands became a dense matrix product, so that
its sums run in another order; the tomogram (``normal_equation_tomogram``),
whose rows were multiplied by 1/sigma and are now divided by sigma; and the
flat-background fit (``summed_flat_background``), which summed the weights
1/sigma^2 and now solves the same one-column normal equations.

The artifacts of the bundled configurations are checked against their
committed reference by ``test_reference.py``; the copies here serve the
inputs those configurations never build or whose results no artifact
holds: the oracle's blocks and solves, the drift and diffusion, detuned,
one-sided and random drive sets, random baths and synthetic peaks.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LADDER_CASES,
    angle,
    device_drive_set,
    device_drives,
    dissipators,
    lab_frame,
    qnd_config,
    resonant_pairs,
)
from twotone import dynamics, inference, lsq
from twotone.dynamics import (
    _QUADRATURES,
    _QUADRATURES_INV,
    _WINDOW_POINTS,
    _WINDOW_SPAN,
    _solve_frame_shifts,
    build_linear_model,
    driven_response,
    effective_linewidth,
    spectrum_grid,
    steady_covariance,
    transparency_window_fwhm,
)
from twotone.errors import DomainError, FitError, NumericalError, TruncationError
from twotone.inference import (
    LineFit,
    LorentzianFit,
    backaction_line_fit,
    fit_lorentzian,
    lorentzian,
    tomography_sweep,
)
from twotone.oracle import (
    _LADDER,
    CoherenceBlocks,
    EffectiveDissipators,
    TruncatedState,
    _bands,
    _layout,
    coherence_blocks,
    converged_steady_state,
    quad_variance,
    steady_state,
)
from twotone.synthesis import NoiseModel, NoisySpectrum
from twotone.sysmodel import LOWER, TWO_PI, UPPER, Drive, DriveSet, drive_pair


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def ladder_drives(mech):
    return [device_drives(mech, *case[:4]) for case in LADDER_CASES]


def elementwise_linear_model(cfg, ds):
    """Reference build: ``build_linear_model``'s arrays, written entry by entry.

    Returns (drift, diffusion, complex_drift): the generator accumulated in
    a complex array through numpy-scalar couplings, and the diffusion summed
    per mode in a float array.
    """
    s1, s2, s_b = _solve_frame_shifts(ds)
    c = np.zeros((6, 6), dtype=complex)
    for mode, (shift, half) in enumerate(
        [
            (s1, cfg.cavity(1).kappa / 2.0),
            (s2, cfg.cavity(2).kappa / 2.0),
            (s_b, cfg.mech.gamma / 2.0),
        ]
    ):
        delta = -shift
        i = 2 * mode
        c[i, i] = -1j * delta - half
        c[i + 1, i + 1] = +1j * delta - half
    for j in (1, 2):
        cav = cfg.cavity(j)
        lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
        g_lo = np.sqrt(ds.rate(j, LOWER) * cav.kappa) / 2.0 * np.exp(1j * (lo.phase if lo else 0.0))
        g_up = np.sqrt(ds.rate(j, UPPER) * cav.kappa) / 2.0 * np.exp(1j * (up.phase if up else 0.0))
        if g_lo == 0 and g_up == 0:
            continue
        i = 2 * (j - 1)
        c[i, 4] += -1j * g_lo
        c[i, 5] += -1j * g_up
        c[i + 1, 5] += 1j * np.conj(g_lo)
        c[i + 1, 4] += 1j * np.conj(g_up)
        c[4, i] += -1j * np.conj(g_lo)
        c[4, i + 1] += -1j * g_up
        c[5, i + 1] += 1j * g_lo
        c[5, i] += 1j * np.conj(g_up)
    level = np.zeros(3)
    for j in (1, 2):
        cav = cfg.cavity(j)
        level[j - 1] += cav.kappa_ext * (2.0 * cav.n_thermal + 1.0)
        if cav.kappa_int > 0:
            level[j - 1] += cav.kappa_int * (2.0 * cav.n_thermal + 1.0)
    level[2] += cfg.mech.gamma * (2.0 * cfg.mech.n_thermal + 1.0)
    drift = (_QUADRATURES @ c @ _QUADRATURES_INV).real.copy()
    return drift, np.diag(level.repeat(2)), c


def assert_model_matches_elementwise_build(cfg, ds):
    m = build_linear_model(cfg, ds)
    for got, expected in zip((m.drift, m.diffusion, m.complex_drift), elementwise_linear_model(cfg, ds)):
        assert_same_bits(got, expected)


def channelwise_diffusion(m):
    """Reference build: the diffusion, one 2 x 2 block per input channel."""
    d = np.zeros((6, 6))
    for ch in m.channels:
        i = 2 * ch.mode
        d[i : i + 2, i : i + 2] += ch.rate * ch.variance * np.eye(2)
    return d


def assert_diffusion_matches_channelwise_build(cfg, ds):
    m = build_linear_model(cfg, ds)
    assert_same_bits(m.diffusion, channelwise_diffusion(m))


def assert_lyapunov_operator_is_the_kron_sum(monkeypatch, cfg, ds):
    m = build_linear_model(cfg, ds)
    solved = []
    solve = np.linalg.solve

    def spy(a, b):
        solved.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    v = steady_covariance(m).v
    monkeypatch.undo()
    eye = np.eye(6)
    kron_sum = np.kron(eye, m.drift) + np.kron(m.drift, eye)
    ((a, b),) = solved
    assert_same_bits(a, kron_sum)
    x = np.linalg.solve(kron_sum, -m.diffusion.ravel()).reshape(6, 6)
    assert_same_bits(v, dynamics.CovarianceMatrix(0.5 * (x + x.T)).v)


def twice_symmetrized_covariance(m):
    """Reference build: the former ``steady_covariance``, which symmetrized V
    before ``CovarianceMatrix`` symmetrized it again."""
    n = m.drift.shape[0]
    eye = np.eye(n)
    kron_sum = np.multiply(eye[:, None, :, None], m.drift[None, :, None, :])
    kron_sum += m.drift[:, None, :, None] * eye[None, :, None, :]
    v = np.linalg.solve(kron_sum.reshape(n * n, n * n), -m.diffusion.ravel()).reshape(n, n)
    return dynamics.CovarianceMatrix(0.5 * (v + v.T))


def drive_set_grid(cfg, ds, *, points=2001, span=None):
    """Reference build: the former ``spectrum_grid``, which took the drive set
    and solved its mechanical frame shift again."""
    if span is None:
        width = abs(effective_linewidth(cfg, ds))
        _, _, s_b = _solve_frame_shifts(ds)
        span = 10.0 * width + 2.0 * abs(s_b)
    return np.linspace(-span, span, points)


def assert_grid_and_covariance_match_the_former_builds(cfg, ds):
    m = build_linear_model(cfg, ds)
    for points, span in ((2001, None), (41, None), (2, 3.0e5)):
        expected = drive_set_grid(cfg, ds, points=points, span=span)
        assert_same_bits(spectrum_grid(m, points=points, span=span), expected)
    if m.is_stable:
        assert_same_bits(steady_covariance(m).v, twice_symmetrized_covariance(m).v)


def blockwise_diagonal(d, n, even=None):
    """Reference build: the diagonal blocks of ``coherence_blocks`` through ``ndarray.flat``."""
    if even is None:
        A, B, C = d.moments()
        even = _bands(A, B, abs(C), n)[:, ::2]
    diagonal = []
    for j, m in enumerate(range(n, 0, -2)):
        block = np.zeros((m, m))
        block.flat[:: m + 1] = even[0, j, :m]
        block.flat[1 :: m + 1] = even[1, j, : m - 1]
        block.flat[m :: m + 1] = even[2, j, 1:m]
        diagonal.append(block)
    return diagonal


def factorwise_bands(A, B, C, n):
    """Reference build: the former ``_bands``, its square-root factors formed on each call."""
    q = np.arange(n)
    p = q + q[:, None]
    root = np.zeros(2 * n + 2)
    root[:n] = np.sqrt(np.arange(n))
    k = np.zeros(2 * n)
    k[:n] = A * np.arange(n) + B * np.append(np.arange(1.0, n), 0.0)
    rp, rp1, rq, rq1 = root[p], root[p + 1], root[:n], root[1 : n + 1]
    factors = np.empty((9, n, n))
    factors[0] = k[p] + k[:n]
    factors[1] = rp1 * rq1
    factors[2] = rp * rq
    factors[3] = rp1 * root[p + 2]
    factors[4] = rp1 * rq
    factors[5] = rq * root[q - 1]
    factors[6] = rp * root[p - 1]
    factors[7] = rp * rq1
    factors[8] = rq1 * root[2 : n + 2]
    factors *= p < n
    cc = np.conj(C)
    coef = np.array([-0.5, A, B, -0.5 * C, C, -0.5 * C, -0.5 * cc, cc, -0.5 * cc])
    return coef[:, None, None] * factors


def banded_coherence_blocks(d, n):
    """Reference build: the former ``coherence_blocks``, every order of every band first.

    It takes the bands of all orders from ``factorwise_bands``, their 2-norm
    over both signs of d, and the even orders, whose diagonal blocks are
    those of ``blockwise_diagonal``.
    """
    A, B, C = d.moments()
    bands = factorwise_bands(A, B, abs(C), n)
    zero = bands[:, 0]
    norm = float(np.sqrt(2.0 * np.vdot(bands, bands).real - np.vdot(zero, zero).real))
    even = bands[:, ::2]
    diagonal = tuple(blockwise_diagonal(d, n, even))
    return CoherenceBlocks(n, diagonal, even[3:6], even[6:9], norm, float(np.angle(C)) / 2.0)


def assert_blocks_match_blockwise_build(d, n):
    built = coherence_blocks(d, n)
    reference = banded_coherence_blocks(d, n)
    assert len(built.diagonal) == len(reference.diagonal)
    for block, expected in zip(built.diagonal, reference.diagonal):
        assert_same_bits(block, expected)
        assert block.base is built.diagonal[0].base  # views into one packed buffer
    assert_same_bits(built.up, reference.up)
    assert_same_bits(built.down, reference.down)
    assert built.theta == reference.theta
    assert abs(built.norm - reference.norm) <= 1e-14 * reference.norm
    A, B, C = d.moments()
    for c in (abs(C), C):
        assert_same_bits(_bands(A, B, c, n), factorwise_bands(A, B, c, n))


def summed_moments(d):
    """Reference: ``EffectiveDissipators.moments``, summed from the coefficients on each call."""
    coeffs = np.array(d.collapse_coefficients())
    a, beta = coeffs[:, 0], coeffs[:, 1]
    return (
        float(np.sum(np.abs(a) ** 2)),
        float(np.sum(np.abs(beta) ** 2)),
        complex(np.sum(a * np.conj(beta))),
    )


def levelwise_quad_variance(s, phi):
    """Reference: ``quad_variance`` with its level weights formed on each call."""
    rho, n = s.rho, s.n_trunc
    phase = np.exp(-1j * phi)
    level = np.arange(n, dtype=float)
    one = np.sqrt(level[1:])  # <q|b|q+1>
    two = one[:-1] * one[1:]  # <q|b^2|q+2>
    mean = (
        phase * (one @ np.diagonal(rho, -1)) + np.conj(phase) * (one @ np.diagonal(rho, 1))
    ).real
    number = 2.0 * level + 1.0
    number[-1] = n - 1.0
    second = (
        number @ np.diagonal(rho).real
        + (phase**2 * (two @ np.diagonal(rho, -2))).real
        + (np.conj(phase) ** 2 * (two @ np.diagonal(rho, 2))).real
    )
    return float(second - mean * mean)


def assert_moments_match_summed_build(d):
    assert_same_bits(np.array(d.moments()), np.array(summed_moments(d)))


def assert_quad_variance_matches_levelwise_build(state):
    for phi in (0.0, 0.3, math.pi / 2.0, -2.0, 5.0):
        assert_same_bits(quad_variance(state, phi), levelwise_quad_variance(state, phi))


def layout_arrays(value):
    """Every array of a ``_layout``, through its nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from layout_arrays(item)


def raise_order(up, x):
    """L_{d, d+2} x for the bands ``up`` of order d and columns x on order d + 2."""
    m = x.shape[0]
    out = np.zeros((m + 2, x.shape[1]), dtype=x.dtype)
    for i in range(3):
        out[i : m + i] += up[i, i : m + i, None] * x
    return out


def per_level_solve(blocks):
    """Reference solve: the elimination with each level's couplings written anew.

    Each level allocates its lowering matrix and fills it through
    ``ndarray.flat``, and ``raise_order`` applies the raising bands. Returns
    the order-0 Schur complement and the normalized state of ``steady_state``,
    without its checks.
    """
    n, diagonal, up, down = blocks.n_trunc, blocks.diagonal, blocks.up, blocks.down
    dtype = np.result_type(up, down, *diagonal)
    top = len(diagonal) - 1
    w = [None] * (top + 1)
    schur = diagonal[top]
    for j in range(top, 0, -1):
        m = n - 2 * j
        lowered = np.zeros((m, m + 2), dtype=dtype)
        for i in range(3):
            lowered.flat[i :: m + 3] = down[i, j, :m]
        w[j] = np.linalg.solve(schur, lowered)
        inflow = raise_order(up[:, j - 1], w[j])
        schur = diagonal[j - 1] - inflow
    if top:
        schur -= inflow.conj()
    trace = np.linalg.norm(schur) / n
    x = np.zeros((top + 1, n), dtype=dtype)
    x[0] = np.linalg.solve(np.vstack([np.full(n, trace), schur[1:]]), np.eye(n)[0] * trace).real
    for j in range(1, top + 1):
        x[j, : n - 2 * j] = -w[j] @ x[j - 1, : n - 2 * j + 2]
    j, q = np.nonzero(np.arange(n) + 2 * np.arange(top + 1)[:, None] < n)
    rho = np.zeros((n, n), dtype=complex)
    rho[q + 2 * j, q] = np.exp(-2j * blocks.theta * j) * x[j, q]
    rho[q, q + 2 * j] = rho[q + 2 * j, q].conj()
    return schur, rho / np.trace(rho).real


def assert_close(got, expected, rtol=1e-12):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def assert_solve_matches_per_level_elimination(monkeypatch, blocks):
    constrained = []
    svd = np.linalg.svd

    def spy(a, **kwargs):
        constrained.append(a.copy())
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    try:
        state = steady_state(blocks)
    except TruncationError:  # raised after the solve, whose state is still compared
        state = None
    monkeypatch.undo()
    schur, rho = per_level_solve(blocks)
    (reduced,) = constrained
    assert_close(reduced[1:], schur[1:])
    if state is not None:
        assert_close(state.rho, rho)


def stacked_window_jacobian(grid, p):
    """Reference: the window fit's transposed Jacobian, stacked anew."""
    ones = np.ones_like(grid)
    d = p[4] + 1j * p[5]
    inv = 1.0 / (-1j * (grid - p[6]) + p[7] / 2.0)
    pole = d * inv * inv
    rows = np.stack([ones, 1j * ones, grid, 1j * grid, inv, 1j * inv, -1j * pole, -0.5 * pole])
    return np.concatenate([rows.real, rows.imag], axis=1)


def stacked_window_fwhm(cfg, ds, probe_cavity):
    """Reference fit: ``transparency_window_fwhm`` with the stacked Jacobian."""
    width_guess = abs(effective_linewidth(cfg, ds))
    grid = np.linspace(-_WINDOW_SPAN * width_guess, _WINDOW_SPAN * width_guess, _WINDOW_POINTS)
    s11 = driven_response(cfg, ds, probe_cavity, grid)
    edge = 0.5 * (s11[0] + s11[-1])
    peak = int(np.argmax(np.abs(s11 - edge)))
    d0 = (s11[peak] - edge) * width_guess / 2.0
    p0 = np.array([edge.real, edge.imag, 0.0, 0.0, d0.real, d0.imag, grid[peak], width_guess])

    def residuals(p):
        c0 = p[0] + 1j * p[1]
        c1 = p[2] + 1j * p[3]
        d = p[4] + 1j * p[5]
        model = c0 + c1 * grid + d / (-1j * (grid - p[6]) + p[7] / 2.0)
        diff = model - s11
        return np.concatenate([diff.real, diff.imag])

    p, info = lsq.levenberg_marquardt(
        residuals,
        lambda p: stacked_window_jacobian(grid, p),
        p0,
        ftol=1e-14,
        xtol=1e-14,
        gtol=1e-14,
        maxfev=100 * p0.size,
    )
    if info not in (1, 2, 3, 4) or p[7] <= 0:
        raise NumericalError("transparency window fit did not converge")
    return float(p[7]), grid


def recorded_jacobians(monkeypatch, module):
    """(jac, x0, x) of every ``levenberg_marquardt`` call made from ``module``."""
    solves = []

    def spy(fun, jac, x0, **tolerances):
        x, info = lsq.levenberg_marquardt(fun, jac, x0, **tolerances)
        solves.append((jac, np.array(x0, dtype=float), x))
        return x, info

    monkeypatch.setattr(module, "levenberg_marquardt", spy)
    return solves


def assert_window_fit_matches_stacked_build(monkeypatch, cfg, ds):
    solves = recorded_jacobians(monkeypatch, dynamics)
    fwhm = transparency_window_fwhm(cfg, ds, 2)
    monkeypatch.undo()
    reference, grid = stacked_window_fwhm(cfg, ds, 2)
    assert fwhm == reference
    ((jac, x0, x),) = solves
    for p in (x0, x, 0.5 * (x0 + x)):
        assert_same_bits(jac(p), stacked_window_jacobian(grid, p))


class TestLadderCases:
    @pytest.mark.parametrize("case", range(len(LADDER_CASES)))
    def test_diffusion_matches_channelwise_build(self, cfg, case):
        assert_diffusion_matches_channelwise_build(cfg, ladder_drives(cfg.mech)[case])

    @pytest.mark.parametrize("case", range(len(LADDER_CASES)))
    def test_lyapunov_operator_is_the_kron_sum(self, monkeypatch, cfg, case):
        assert_lyapunov_operator_is_the_kron_sum(monkeypatch, cfg, ladder_drives(cfg.mech)[case])

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_blocks_match_blockwise_build(self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc):
        d = EffectiveDissipators.from_drives(
            mech, device_drives(mech, g_minus, plus_ratio, meas_ratio, angle)
        )
        for n in (2, 3, n_trunc):
            assert_blocks_match_blockwise_build(d, n)

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_moments_and_quad_variance_match_the_former_bodies(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        d = EffectiveDissipators.from_drives(
            mech, device_drives(mech, g_minus, plus_ratio, meas_ratio, angle)
        )
        assert_moments_match_summed_build(d)
        assert_quad_variance_matches_levelwise_build(converged_steady_state(d))

    @pytest.mark.parametrize("case", range(len(LADDER_CASES)))
    def test_model_matches_elementwise_build(self, cfg, case):
        assert_model_matches_elementwise_build(cfg, ladder_drives(cfg.mech)[case])

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_solve_matches_per_level_elimination(
        self, monkeypatch, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        d = EffectiveDissipators.from_drives(
            mech, device_drives(mech, g_minus, plus_ratio, meas_ratio, angle)
        )
        blocks = coherence_blocks(d, n_trunc)
        for frame in (blocks, lab_frame(blocks)):
            assert_solve_matches_per_level_elimination(monkeypatch, frame)

    def test_detuned_and_one_sided_drives(self, monkeypatch, cfg, mech):
        # a lone upper tone leaves g_lo = 0, whose -1j * 0 puts a -0 in the drift
        for ds in (
            DriveSet((Drive(1, "upper", 10.0 * mech.gamma), Drive(2, "lower", 500.0 * mech.gamma))),
            DriveSet(drive_pair(1, 200.0 * mech.gamma, 200.0 * mech.gamma, detuning=3e3)),
            DriveSet(),
        ):
            assert_model_matches_elementwise_build(cfg, ds)
            assert_diffusion_matches_channelwise_build(cfg, ds)
            assert_lyapunov_operator_is_the_kron_sum(monkeypatch, cfg, ds)
            assert_grid_and_covariance_match_the_former_builds(cfg, ds)


@settings(max_examples=30, deadline=None)
@given(drives=resonant_pairs)
def test_diffusion_and_lyapunov_operator_match_the_old_builds(cfg, drives):
    ds = device_drive_set(cfg.mech, *drives)
    assert_model_matches_elementwise_build(cfg, ds)
    assert_diffusion_matches_channelwise_build(cfg, ds)
    assert_grid_and_covariance_match_the_former_builds(cfg, ds)
    with pytest.MonkeyPatch.context() as mp:
        assert_lyapunov_operator_is_the_kron_sum(mp, cfg, ds)


@settings(max_examples=30, deadline=None)
@given(
    ratio=st.floats(min_value=0.01, max_value=3.0),
    detuning=st.one_of(st.just(0.0), st.floats(min_value=-2e6, max_value=2e6)),
    angle=angle,
)
def test_grid_and_covariance_match_the_former_builds_on_detuned_pairs(cfg, ratio, detuning, angle):
    # a detuned measurement pair shifts the mechanical frame, which widens the grid
    assert_grid_and_covariance_match_the_former_builds(
        cfg, qnd_config(cfg.mech, ratio, angle=angle, detuning=detuning)
    )


# tones on any of the four slots, each absent, at zero rate or driven, with
# detunings and phases of either sign; pairs detuned symmetrically, so that a
# rotating frame exists, or by independent offsets that may admit none
slot = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=5e5)),
        st.one_of(st.just(0.0), st.floats(min_value=-1e4, max_value=1e4)),
        st.one_of(st.just(-0.0), st.floats(min_value=-7.0, max_value=7.0)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(slots=st.tuples(slot, slot, slot, slot), symmetric=st.floats(min_value=-1e4, max_value=1e4))
def test_model_matches_elementwise_build(cfg, slots, symmetric):
    drives = []
    for (cavity, sideband), tone in zip([(1, LOWER), (1, UPPER), (2, LOWER), (2, UPPER)], slots):
        if tone is not None:
            rate, detuning, phase = tone
            sign = -1.0 if sideband == LOWER else 1.0
            drives.append(Drive(cavity, sideband, rate, detuning + sign * symmetric, phase))
    try:
        assert_model_matches_elementwise_build(cfg, DriveSet(tuple(drives)))
    except DomainError:
        with pytest.raises(DomainError):
            elementwise_linear_model(cfg, DriveSet(tuple(drives)))


@settings(max_examples=30, deadline=None)
@given(d=dissipators, n=st.integers(min_value=2, max_value=40))
def test_solve_matches_per_level_elimination(d, n):
    blocks = coherence_blocks(d, n)
    try:
        steady_state(blocks)
    except NumericalError:
        return
    except TruncationError:
        pass
    with pytest.MonkeyPatch.context() as mp:
        for frame in (blocks, lab_frame(blocks)):
            assert_solve_matches_per_level_elimination(mp, frame)


@settings(max_examples=30, deadline=None)
@given(drives=resonant_pairs, n=st.integers(min_value=2, max_value=62))
def test_blocks_match_blockwise_build_on_device_drives(mech, drives, n):
    assert_blocks_match_blockwise_build(
        EffectiveDissipators.from_drives(mech, device_drive_set(mech, *drives)), n
    )


@settings(max_examples=30, deadline=None)
@given(d=dissipators, n=st.integers(min_value=2, max_value=40))
def test_blocks_match_blockwise_build(d, n):
    assert_blocks_match_blockwise_build(d, n)


@pytest.mark.parametrize(
    "d",
    [
        EffectiveDissipators(gamma_m=1.0, n_thermal=0.0),
        EffectiveDissipators(gamma_m=2.0, n_thermal=3.5),
        EffectiveDissipators(gamma_m=1.0, n_thermal=0.5, engineered=((4.0 * np.exp(0.7j), 0.0),)),
        EffectiveDissipators(gamma_m=1.0, n_thermal=0.0, engineered=((0.0, 0.0),)),
    ],
    ids=["vacuum", "thermal", "cooling", "zero_pair"],
)
@pytest.mark.parametrize("n", [2, 3, 8, 27])
def test_blocks_match_banded_build_without_squeezing(d, n):
    assert d.moments()[2] == 0  # C = 0: theta = 0 and no coupling
    assert_blocks_match_blockwise_build(d, n)


@settings(max_examples=30, deadline=None)
@given(d=dissipators)
def test_moments_match_summed_build(d):
    assert_moments_match_summed_build(d)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=30), phi=st.floats(-7.0, 7.0), seed=st.integers(0, 2**32 - 1))
def test_quad_variance_matches_levelwise_build(n, phi, seed):
    g = np.random.default_rng(seed).normal(size=(2, n, n))
    rho = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    state = TruncatedState(rho=rho / np.trace(rho).real, n_trunc=n)
    assert_same_bits(quad_variance(state, phi), levelwise_quad_variance(state, phi))


def capped_ladder(n_max):
    """Reference build: the former truncation ladder of ``converged_steady_state``,
    8 or a smaller ``n_max``, then 1.5x steps capped at it."""
    rungs = [min(8, n_max)]
    while rungs[-1] < n_max:
        rungs.append(min(n_max, int(np.ceil(1.5 * rungs[-1]))))
    return rungs


def test_ladder_is_the_former_default_ladder():
    assert _LADDER == tuple(capped_ladder(120))


def test_layout_cache_keeps_one_layout_per_rung():
    for n in (*range(2, 30), *_LADDER):
        _layout(n)
    info = _layout.cache_info()
    assert info.maxsize == len(_LADDER)
    assert info.currsize == len(_LADDER)


@pytest.mark.parametrize("n", [2, 3, 8, 41])
def test_layout_is_read_only_and_shared(n):
    layout = _layout(n)
    assert _layout(n) is layout
    arrays = list(layout_arrays(layout))
    assert len(arrays) == 19
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


@settings(max_examples=15, deadline=None)
@given(drives=resonant_pairs)
def test_window_fit_matches_stacked_build(cfg, drives):
    with pytest.MonkeyPatch.context() as mp:
        assert_window_fit_matches_stacked_build(mp, cfg, device_drive_set(cfg.mech, *drives))


PARAMS = ("center", "fwhm", "area", "background")


def dict_built_jacobian(ns, free, fixed, theta):
    """Reference: ``fit_lorentzian``'s transposed Jacobian from a dict of rows."""
    values = dict(fixed)
    values.update(zip(free, theta))
    center, fwhm, area, _ = (values[name] for name in PARAMS)
    weight = 1.0 / ns.std_err
    offset = ns.freq - center
    inv = 1.0 / (offset**2 + fwhm**2 / 4.0)
    weighted = weight * inv
    peak = area * inv * weighted
    rows = {
        "center": lambda: (2.0 * fwhm) * offset * peak,
        "fwhm": lambda: (offset**2 - fwhm**2 / 4.0) * peak,
        "area": lambda: fwhm * weighted,
        "background": lambda: weight,
    }
    return np.stack([rows[name]() for name in free])


def peak_spectrum(seed, samples=401, area=40.0):
    """A noisy Lorentzian on a background of 2, with its true centre and width."""
    rng = np.random.default_rng(seed)
    freq = np.linspace(-50.0, 50.0, samples)
    center, fwhm = rng.uniform(-20.0, 20.0), rng.uniform(2.0, 10.0)
    err = rng.uniform(0.05, 0.5) * np.ones_like(freq)
    y = lorentzian(freq, center, fwhm, area, 2.0) + err * rng.standard_normal(freq.size)
    ns = NoisySpectrum(freq=freq, flux_true=y, flux_measured=y, std_err=err, noise=NoiseModel())
    return ns, center, fwhm


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pin=st.booleans(),
    start=st.one_of(st.none(), st.floats(min_value=-5.0, max_value=5.0)),
)
def test_lorentzian_jacobian_matches_dict_build(seed, pin, start):
    ns, center, fwhm = peak_spectrum(seed)
    pinned = {"fwhm": fwhm} if pin else {}
    free = [name for name in PARAMS if name not in pinned]
    with pytest.MonkeyPatch.context() as mp:
        solves = recorded_jacobians(mp, inference)
        fit_lorentzian(ns, fwhm=pinned.get("fwhm"), center=None if start is None else center + start)
    ((jac, x0, x),) = solves
    for theta in (x0, x, 0.5 * (x0 + x)):
        assert_same_bits(jac(theta), dict_built_jacobian(ns, free, pinned, theta))


def dict_fit_lorentzian(ns, init=None, *, fixed=None):
    """Reference: ``fit_lorentzian`` as it was, with its dict interface.

    ``init`` replaces start values and ``fixed`` holds parameters at given
    values, each by name. The body is the former one; it looks the smoothing,
    the flat-background fit and the solver up in ``inference``, so that a
    solver patched there serves both fits.
    """
    freq = ns.freq
    y = ns.flux_measured
    err = ns.std_err
    if not (np.isfinite(freq).all() and np.isfinite(y).all() and np.isfinite(err).all()):
        raise DomainError("frequencies, fluxes and standard errors must be finite")
    if np.any(err <= 0):
        raise DomainError("per-bin standard errors must be positive")
    fixed = dict(fixed or {})
    if set(fixed) - set(PARAMS):
        raise DomainError(f"unknown fixed parameters {set(fixed) - set(PARAMS)}")
    free = [name for name in PARAMS if name not in fixed]
    if not free:
        raise DomainError("at least one parameter must float")
    if len(y) <= len(free):
        raise FitError(f"fit needs more than {len(free)} samples, got {len(y)}")

    smooth = inference._smoothed(y, max(3, len(y) // 100))
    # the median as np.median forms it: the mean of the middle one or two values
    low, high = (len(smooth) - 1) // 2, len(smooth) // 2
    background0 = float(np.mean(np.partition(smooth, [low, high])[low : high + 1]))
    center0 = float(freq[int(np.argmax(smooth))])
    prominence = float(np.max(smooth) - background0)
    above = smooth - background0 > prominence / 2.0
    fwhm0 = float(max(np.count_nonzero(above), 3) * (freq[1] - freq[0]))
    start = {
        "center": center0,
        "fwhm": fwhm0,
        "area": prominence * fwhm0 / 4.0,
        "background": background0,
    }
    start.update(init or {})
    start.update(fixed)

    def params(theta):
        values = dict(fixed)
        values.update(zip(free, theta))
        return [values[name] for name in PARAMS]

    def residuals(theta):
        return (lorentzian(freq, *params(theta)) - y) / err

    weight = 1.0 / err
    # the transposed Jacobian, one row per floating parameter; the background
    # row is constant and written once, each call writes the others
    jt = np.empty((len(free), len(y)))
    row = dict(zip(free, jt))
    if "background" in row:
        row["background"][:] = weight

    def jacobian(theta):
        center, fwhm, area, _ = params(theta)
        offset = freq - center
        square, quarter = offset**2, fwhm**2 / 4.0
        inv = 1.0 / (square + quarter)
        weighted = weight * inv
        peak = area * inv * weighted
        if "center" in row:
            np.multiply((2.0 * fwhm) * offset, peak, out=row["center"])
        if "fwhm" in row:
            np.multiply(square - quarter, peak, out=row["fwhm"])
        if "area" in row:
            np.multiply(fwhm, weighted, out=row["area"])
        return jt

    popt, info = inference.levenberg_marquardt(
        residuals,
        jacobian,
        [start[name] for name in free],
        ftol=1e-12,
        xtol=1e-12,
        maxfev=20000,
    )
    if info not in (1, 2, 3, 4):
        flat = inference._flat_background_fit(freq, y, err)
        if flat.chi2_dof < 2.0:
            return flat
        raise FitError(f"Lorentzian fit did not converge (MINPACK info {info})")
    # a singular covariance on peakless data is handled by the
    # flat-background fallback below
    jac = jacobian(popt)
    try:
        pcov = np.linalg.inv(jac @ jac.T)
    except np.linalg.LinAlgError:
        pcov = np.full((len(free), len(free)), np.inf)
    variances = np.diag(pcov)
    values = dict(zip(PARAMS, params(popt)))
    errors = dict.fromkeys(PARAMS, 0.0)
    errors.update(zip(free, np.sqrt(np.where(variances >= 0.0, variances, np.nan))))
    if not all(np.isfinite(errors[name]) for name in free) or (
        "area" in free and abs(values["area"]) <= errors["area"]
    ):
        return inference._flat_background_fit(freq, y, err)
    chi2 = float(np.sum(residuals(popt) ** 2) / max(len(y) - len(free), 1))
    return LorentzianFit(
        center=float(values["center"]),
        # a negative-width minimum is the same curve; report the canonical sign
        fwhm=float(abs(values["fwhm"])),
        area=float(values["area"]),
        background=float(values["background"]),
        center_err=float(errors["center"]),
        fwhm_err=float(errors["fwhm"]),
        area_err=float(errors["area"]),
        background_err=float(errors["background"]),
        chi2_dof=chi2,
        converged=True,
    )


def fit_outcome(fit, *args, **kwargs):
    """The fit's result, or the type and message of the error it raised."""
    try:
        return fit(*args, **kwargs)
    except (DomainError, FitError) as exc:
        return type(exc), str(exc)


def assert_fit_matches_dict_interface(ns, fwhm, center):
    got = fit_outcome(fit_lorentzian, ns, fwhm=fwhm, center=center)
    expected = fit_outcome(
        dict_fit_lorentzian,
        ns,
        {} if center is None else {"center": center},
        fixed={} if fwhm is None else {"fwhm": fwhm},
    )
    if isinstance(expected, LorentzianFit):
        assert isinstance(got, LorentzianFit)
        assert_same_bits(np.array(dataclasses.astuple(got)), np.array(dataclasses.astuple(expected)))
    else:
        assert got == expected


def stalled(fun, jac, x0, **tolerances):
    """The solver's end point, reported as an evaluation budget spent (info 5)."""
    return lsq.levenberg_marquardt(fun, jac, x0, **tolerances)[0], 5


# peaks from none to strong, so that some fits end in the flat fallback for an
# insignificant area; ``stall`` reports every solve as not converged, so that
# the fallback's chi^2 gate either returns the flat fit or raises
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    samples=st.sampled_from([4, 5, 9, 41, 301]),
    area=st.sampled_from([0.0, 0.5, 5.0, 40.0]),
    pin=st.booleans(),
    start=st.one_of(st.none(), st.floats(min_value=-60.0, max_value=60.0)),
    stall=st.booleans(),
)
def test_fit_matches_dict_interface(seed, samples, area, pin, start, stall):
    ns, _, fwhm = peak_spectrum(seed, samples, area)
    with pytest.MonkeyPatch.context() as mp:
        if stall:
            mp.setattr(inference, "levenberg_marquardt", stalled)
        assert_fit_matches_dict_interface(ns, fwhm if pin else None, start)


def summed_flat_background(freq, y, err):
    """Reference: the flat-background fit from sums of the weights, as it was."""
    weights = 1.0 / err**2
    flat = float(np.sum(weights * y) / np.sum(weights))
    flat_err = float(1.0 / math.sqrt(np.sum(weights)))
    chi2 = float(np.sum(((y - flat) / err) ** 2) / max(len(y) - 1, 1))
    return LorentzianFit(
        center=float(freq[int(np.argmax(y))]),
        fwhm=0.0,
        area=0.0,
        background=flat,
        center_err=math.inf,
        fwhm_err=math.inf,
        area_err=flat_err * float(freq[-1] - freq[0]) / TWO_PI,
        background_err=flat_err,
        chi2_dof=chi2,
        converged=True,
        zero_area=True,
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), samples=st.integers(min_value=4, max_value=300))
def test_flat_background_matches_summed_weights(seed, samples):
    rng = np.random.default_rng(seed)
    freq = np.linspace(-50.0, 50.0, samples)
    err = rng.uniform(0.01, 2.0, samples)
    y = 20.0 + err * rng.standard_normal(samples)
    got = dataclasses.astuple(inference._flat_background_fit(freq, y, err))
    expected = dataclasses.astuple(summed_flat_background(freq, y, err))
    for value, reference in zip(got, expected):
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0)


def normal_equation_tomogram(phases, variances, errors):
    """Reference: the tomogram's weighted solve, as it was: (beta, cov, chi^2/dof)."""
    design = np.column_stack([np.cos(phases) ** 2, np.sin(phases) ** 2, np.sin(2.0 * phases)])
    w = 1.0 / errors
    a = design * w[:, None]
    b = variances * w
    gram = a.T @ a
    if np.linalg.matrix_rank(gram, tol=1e-10 * np.trace(gram)) < 3:
        raise DomainError("degenerate tomography design: phases do not constrain all moments")
    beta = np.linalg.solve(gram, a.T @ b)
    cov = np.linalg.inv(gram)
    resid = (design @ beta - variances) / errors
    chi2 = float(np.sum(resid**2) / max(len(phases) - 3, 1))
    return beta, cov, chi2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=5, max_value=40),
    jitter=st.floats(min_value=0.0, max_value=0.2),
)
def test_tomogram_matches_normal_equation_solve(seed, n_phases, jitter):
    rng = np.random.default_rng(seed)
    phases = np.linspace(0.0, math.pi, n_phases)
    phases[1:-1] += jitter * rng.uniform(-1.0, 1.0, n_phases - 2)
    v1, v2 = rng.uniform(0.3, 3.0, 2)
    v12 = rng.uniform(-0.9, 0.9) * math.sqrt(v1 * v2) / 2.0
    errors = rng.uniform(0.01, 0.1, n_phases)
    truth = v1 * np.cos(phases) ** 2 + v2 * np.sin(phases) ** 2 + v12 * np.sin(2.0 * phases)
    variances = truth + errors * rng.standard_normal(n_phases)
    beta, cov, chi2 = normal_equation_tomogram(phases, variances, errors)
    try:
        fit = tomography_sweep(phases, variances, errors)
    except FitError:  # noise can make the fitted moment matrix negative
        assert np.linalg.eigvalsh([[beta[0], beta[2]], [beta[2], beta[1]]]).min() < 0.0
        return
    assert_close(np.array([fit.v1, fit.v2, fit.v12]), beta)
    assert_close(fit.cov, cov)
    assert fit.chi2_dof == pytest.approx(chi2, rel=1e-12, abs=0.0)


def normal_equation_line(ratios, values, sigmas):
    """Reference: the backaction line's weighted solve and covariance rule, as they were."""
    x = np.asarray(ratios, dtype=float)
    y = np.asarray(values, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    design = np.column_stack([x, np.ones_like(x)])
    a = design / s[:, None]
    b = y / s
    gram = a.T @ a
    try:
        beta = np.linalg.solve(gram, a.T @ b)
        cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise DomainError("line fit design is singular: the ratios must not all be equal") from None
    variances = cov.diagonal()
    if not np.all((variances > 0) & (variances < np.inf)):  # NaN fails too
        raise DomainError("line fit design is nearly singular")
    resid = (design @ beta - y) / s
    chi2 = float(np.sum(resid**2) / max(x.size - 2, 1))
    return LineFit(
        slope=float(beta[0]),
        intercept=float(beta[1]),
        slope_err=float(np.sqrt(variances[0])),
        intercept_err=float(np.sqrt(variances[1])),
        chi2_dof=chi2,
    )


# ratios from clustered to the bundled sweep's spread, so that the rank test
# also rejects some designs that the covariance rule alone let through
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=12),
    scale=st.floats(min_value=1e-3, max_value=3.0),
    spread=st.sampled_from([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-1, 1.0]),
)
def test_line_fit_matches_normal_equation_solve(seed, n, scale, spread):
    rng = np.random.default_rng(seed)
    ratios = scale * (1.0 + spread * rng.uniform(0.0, 1.0, n))
    sigmas = rng.uniform(0.01, 0.2, n)
    values = 0.08 + ratios + sigmas * rng.standard_normal(n)
    try:
        fit = backaction_line_fit(ratios, values, sigmas)
    except DomainError:
        return  # the rank test is the stricter rule
    assert_same_bits(
        np.array(dataclasses.astuple(fit)),
        np.array(dataclasses.astuple(normal_equation_line(ratios, values, sigmas))),
    )
