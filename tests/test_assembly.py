"""The one-write assemblies of the hot layers against the builds they replaced.

Each reference below is a construction that a faster one replaced, kept as
it was: the entry-by-entry arrays and the channel-by-channel diffusion of
``build_linear_model``, the ``np.kron`` Lyapunov operator, the diagonal
blocks of ``coherence_blocks`` filled through ``ndarray.flat``, the stacked
Jacobian of the window fit and the dict-built Jacobian of
``fit_lorentzian``. The rewrites make the same floating-point operations on
the same operands, so every array must agree to the bit, signed zeros
included. The one exception is the per-level elimination of
``steady_state``, whose raising bands became a dense matrix product: its
sums run in another order, so the Schur complement and the state agree to
1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LADDER_CASES,
    device_drive_set,
    device_drives,
    dissipators,
    lab_frame,
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
    steady_covariance,
    transparency_window_fwhm,
)
from twotone.errors import DomainError, NumericalError, TruncationError
from twotone.inference import fit_lorentzian, lorentzian
from twotone.oracle import EffectiveDissipators, _bands, coherence_blocks, steady_state
from twotone.synthesis import NoiseModel, NoisySpectrum
from twotone.sysmodel import LOWER, UPPER, Drive, DriveSet, drive_pair


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


def blockwise_diagonal(d, n):
    """Reference build: the diagonal blocks of ``coherence_blocks`` through ``ndarray.flat``."""
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


def assert_blocks_match_blockwise_build(d, n):
    built = coherence_blocks(d, n).diagonal
    reference = blockwise_diagonal(d, n)
    assert len(built) == len(reference)
    for block, expected in zip(built, reference):
        assert_same_bits(block, expected)
        assert block.base is built[0].base  # views into one packed buffer


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

    @pytest.mark.parametrize("case", range(len(LADDER_CASES)))
    def test_window_fit_matches_stacked_build(self, monkeypatch, cfg, case):
        assert_window_fit_matches_stacked_build(monkeypatch, cfg, ladder_drives(cfg.mech)[case])

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


@settings(max_examples=30, deadline=None)
@given(drives=resonant_pairs)
def test_diffusion_and_lyapunov_operator_match_the_old_builds(cfg, drives):
    ds = device_drive_set(cfg.mech, *drives)
    assert_model_matches_elementwise_build(cfg, ds)
    assert_diffusion_matches_channelwise_build(cfg, ds)
    with pytest.MonkeyPatch.context() as mp:
        assert_lyapunov_operator_is_the_kron_sum(mp, cfg, ds)


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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fixed=st.sampled_from([(), ("fwhm",), ("center", "fwhm"), ("background",), ("area",)]),
)
def test_lorentzian_jacobian_matches_dict_build(seed, fixed):
    rng = np.random.default_rng(seed)
    freq = np.linspace(-50.0, 50.0, 401)
    truth = dict(zip(PARAMS, (rng.uniform(-5.0, 5.0), rng.uniform(2.0, 10.0), 40.0, 2.0)))
    err = np.full_like(freq, 0.05)
    y = lorentzian(freq, *truth.values()) + err * rng.standard_normal(freq.size)
    ns = NoisySpectrum(freq=freq, flux_true=y, flux_measured=y, std_err=err, noise=NoiseModel())
    pinned = {name: truth[name] for name in fixed}
    free = [name for name in PARAMS if name not in pinned]
    with pytest.MonkeyPatch.context() as mp:
        solves = recorded_jacobians(mp, inference)
        fit_lorentzian(ns, fixed=pinned)
    ((jac, x0, x),) = solves
    for theta in (x0, x, 0.5 * (x0 + x)):
        assert_same_bits(jac(theta), dict_built_jacobian(ns, free, pinned, theta))
