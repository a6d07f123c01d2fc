"""The one-write assemblies of the hot layers against the builds they replaced.

Each reference below is a construction that a faster one replaced, kept as
it was: the channel-by-channel diffusion of ``build_linear_model``, the
``np.kron`` Lyapunov operator, the diagonal blocks of ``coherence_blocks``
filled through ``ndarray.flat``, the stacked Jacobian of the window fit and
the dict-built Jacobian of ``fit_lorentzian``. The rewrites make the same
floating-point operations on the same operands, so every array must agree
to the bit, signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LADDER_CASES, device_drive_set, device_drives, dissipators, resonant_pairs
from twotone import dynamics, inference, lsq
from twotone.dynamics import (
    _WINDOW_POINTS,
    _WINDOW_SPAN,
    build_linear_model,
    driven_response,
    effective_linewidth,
    steady_covariance,
    transparency_window_fwhm,
)
from twotone.errors import NumericalError
from twotone.inference import fit_lorentzian, lorentzian
from twotone.oracle import EffectiveDissipators, _bands, coherence_blocks
from twotone.synthesis import NoiseModel, NoisySpectrum
from twotone.sysmodel import Drive, DriveSet, drive_pair


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def ladder_drives(mech):
    return [device_drives(mech, *case[:4]) for case in LADDER_CASES]


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
    def test_window_fit_matches_stacked_build(self, monkeypatch, cfg, case):
        assert_window_fit_matches_stacked_build(monkeypatch, cfg, ladder_drives(cfg.mech)[case])

    def test_detuned_and_one_sided_drives(self, monkeypatch, cfg, mech):
        # a lone upper tone leaves g_lo = 0, whose -1j * 0 puts a -0 in the drift
        for ds in (
            DriveSet((Drive(1, "upper", 10.0 * mech.gamma), Drive(2, "lower", 500.0 * mech.gamma))),
            DriveSet(drive_pair(1, 200.0 * mech.gamma, 200.0 * mech.gamma, detuning=3e3)),
            DriveSet(),
        ):
            assert_diffusion_matches_channelwise_build(cfg, ds)
            assert_lyapunov_operator_is_the_kron_sum(monkeypatch, cfg, ds)


@settings(max_examples=30, deadline=None)
@given(drives=resonant_pairs)
def test_diffusion_and_lyapunov_operator_match_the_old_builds(cfg, drives):
    ds = device_drive_set(cfg.mech, *drives)
    assert_diffusion_matches_channelwise_build(cfg, ds)
    with pytest.MonkeyPatch.context() as mp:
        assert_lyapunov_operator_is_the_kron_sum(mp, cfg, ds)


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
