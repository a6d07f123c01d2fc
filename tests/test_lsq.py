"""The numpy Levenberg-Marquardt against scipy's MINPACK drivers.

scipy.optimize serves here as the reference only: ``curve_fit`` with the
model, weights, tolerances and evaluation budget of ``fit_lorentzian``, and
``least_squares(method="lm")`` on the residuals, Jacobian and tolerances of
``transparency_window_fwhm``.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit, least_squares

from conftest import LADDER_CASES, device_drives
from twotone import dynamics, inference
from twotone.inference import fit_lorentzian, lorentzian
from twotone.lsq import levenberg_marquardt
from twotone.synthesis import NoiseModel, NoisySpectrum

PARAMS = ("center", "fwhm", "area", "background")


def curve_fit_reference(ns, start, fwhm):
    """Free parameters, their errors and chi^2 from ``curve_fit`` (MINPACK lmdif).

    A given ``fwhm`` is held fixed, as ``fit_lorentzian`` holds it.
    """
    fixed = {} if fwhm is None else {"fwhm": fwhm}
    free = [name for name in PARAMS if name not in fixed]

    def model(f, *theta):
        values = dict(fixed)
        values.update(zip(free, theta))
        return lorentzian(f, *(values[name] for name in PARAMS))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            model,
            ns.freq,
            ns.flux_measured,
            p0=start,
            sigma=ns.std_err,
            absolute_sigma=True,
            xtol=1e-12,
            ftol=1e-12,
            maxfev=20000,
        )
    chi2 = np.sum(((model(ns.freq, *popt) - ns.flux_measured) / ns.std_err) ** 2)
    return popt, np.sqrt(np.diag(pcov)), chi2


def recorded_solves(monkeypatch, module):
    """(fun, jac, x0, x, info) of every ``levenberg_marquardt`` call made from ``module``."""
    solves = []

    def spy(fun, jac, x0, **tolerances):
        x, info = levenberg_marquardt(fun, jac, x0, **tolerances)
        solves.append((fun, jac, np.array(x0, dtype=float), x, info))
        return x, info

    monkeypatch.setattr(module, "levenberg_marquardt", spy)
    return solves


class TestAgainstCurveFit:
    @pytest.mark.parametrize("corpus, count", [("backaction", 8), ("single", 1), ("tomography_4", 12)])
    def test_no_worse_than_minpack(self, monkeypatch, fit_corpus, corpus, count):
        fits = fit_corpus[corpus]
        assert len(fits) == count
        solves = recorded_solves(monkeypatch, inference)
        for ns, fwhm, center in fits:
            fit = fit_lorentzian(ns, fwhm=fwhm, center=center)
            fun, _, start, x, info = solves[-1]
            assert info in (1, 2, 3, 4)
            try:
                popt, perr, chi2_ref = curve_fit_reference(ns, start, fwhm)
            except RuntimeError:
                # no finite minimum (3 of the 4-point spectra): curve_fit
                # spends its evaluations walking down a flat valley, and the
                # fit falls back to the flat background
                assert fit.zero_area
                continue
            assert np.sum(fun(x) ** 2) <= chi2_ref * (1.0 + 1e-12)
            assert np.all(np.abs(x - popt) <= 1e-3 * perr)

    def test_exact_data_from_the_truth_returns_at_once(self, monkeypatch):
        # exact data fitted with the width pinned and the centre started at
        # the truth: the fit ends on the truth, and the solver started there
        # with the fit's own residuals returns it at once
        freq = np.linspace(-5.0, 5.0, 201)
        truth = {"center": 0.3, "fwhm": 1.2, "area": 4.0, "background": 2.0}
        y = lorentzian(freq, *truth.values())
        ns = NoisySpectrum(
            freq=freq, flux_true=y, flux_measured=y, std_err=np.full_like(y, 0.1), noise=NoiseModel()
        )
        solves = recorded_solves(monkeypatch, inference)
        fit = fit_lorentzian(ns, fwhm=truth["fwhm"], center=truth["center"])
        fun, jac, _, x, info = solves[-1]
        free = [truth["center"], truth["area"], truth["background"]]
        np.testing.assert_array_equal(x, free)
        assert fit.chi2_dof == 0.0
        assert np.isfinite([fit.center_err, fit.fwhm_err, fit.area_err, fit.background_err]).all()
        evaluations = []

        def counted(theta):
            evaluations.append(1)
            return fun(theta)

        x, info = levenberg_marquardt(counted, jac, free, ftol=1e-12, xtol=1e-12, maxfev=20000)
        assert (info, len(evaluations)) == (4, 1)
        np.testing.assert_array_equal(x, free)

    def test_rank_deficient_jacobian_gives_infinite_errors(self):
        # a start centre far off the grid leaves the centre and area columns
        # too small against the background's for a covariance: its inverse
        # holds a negative variance, so the flat-background fit is the only
        # outcome
        rng = np.random.default_rng(3)
        freq = np.linspace(-5.0, 5.0, 201)
        y = lorentzian(freq, 0.0, 1.0, 3.0, 2.0) + 0.1 * rng.standard_normal(freq.size)
        ns = NoisySpectrum(
            freq=freq, flux_true=y, flux_measured=y, std_err=np.full_like(y, 0.1), noise=NoiseModel()
        )
        fit = fit_lorentzian(ns, fwhm=1.0, center=1e6)
        assert fit.zero_area
        assert fit.center_err == fit.fwhm_err == np.inf


class TestSolver:
    def test_zero_residual_reached_in_one_step(self):
        x, info = levenberg_marquardt(
            lambda x: x - 3.0, lambda x: np.ones((1, 1)), [0.0], ftol=1e-12, xtol=1e-12, maxfev=100
        )
        assert (x[0], info) == (3.0, 4)

    def test_linear_least_squares(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 4))
        b = rng.standard_normal(30)
        x, info = levenberg_marquardt(
            lambda x: a @ x - b, lambda x: a.T, np.zeros(4), ftol=1e-12, xtol=1e-12, maxfev=100
        )
        assert info in (1, 2, 3, 4)
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-10)

    def test_zero_column_stays_at_its_start(self):
        # a parameter the residual does not depend on: its zero column gets
        # unit scaling, drops out of the gradient test and spans the null
        # space of the normal matrix, so the parameter moves only by the
        # rounding of the eigenvectors (at most 2.1e-15 here)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((30, 4))
            a[:, 2] = 0.0
            b = rng.standard_normal(30)
            x0 = rng.standard_normal(4)
            x, info = levenberg_marquardt(
                lambda x: a @ x - b, lambda x: a.T, x0, ftol=1e-12, xtol=1e-12, maxfev=100
            )
            assert info in (1, 2, 3, 4)
            assert abs(x[2] - x0[2]) <= 1e-14
            best = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.linalg.norm(a @ x - b) == pytest.approx(np.linalg.norm(a @ best - b), rel=1e-12)

    def test_gradient_test_reads_only_the_nonzero_columns(self):
        # started at the least-squares point of the other columns, the
        # gradient test passes at once, whatever the free parameter's value
        rng = np.random.default_rng(7)
        a = rng.standard_normal((30, 4))
        a[:, 2] = 0.0
        b = rng.standard_normal(30)
        start = np.linalg.lstsq(a, b, rcond=None)[0]
        start[2] = 1.5
        evaluations = []

        def fun(x):
            evaluations.append(1)
            return a @ x - b

        x, info = levenberg_marquardt(
            fun, lambda x: a.T, start, ftol=1e-12, xtol=1e-12, gtol=1e-8, maxfev=100
        )
        assert (info, len(evaluations)) == (4, 1)
        np.testing.assert_array_equal(x, start)

    def test_rank_deficient_jacobian(self):
        # two equal columns make the scaled normal matrix singular: the step
        # is the pseudo-inverse one, which splits their weight equally
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.standard_normal((30, 4))
            a[:, 3] = a[:, 1]
            b = rng.standard_normal(30)
            x, info = levenberg_marquardt(
                lambda x: a @ x - b, lambda x: a.T, np.zeros(4), ftol=1e-12, xtol=1e-12, maxfev=100
            )
            assert info in (1, 2, 3, 4)
            best = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.linalg.norm(a @ x - b) == pytest.approx(np.linalg.norm(a @ best - b), rel=1e-12)
            assert x[1] == pytest.approx(x[3], rel=0.0, abs=1e-12)

    def test_jacobian_may_reuse_one_buffer(self):
        # a decay on a background, fitted over several Jacobians: a jac that
        # overwrites one array takes the solver down the same iterates
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 4.0, 60)
        y = 3.0 * np.exp(-1.3 * t) + 0.5 + 0.01 * rng.standard_normal(t.size)

        def fun(x):
            return x[0] * np.exp(-x[1] * t) + x[2] - y

        def fresh(x):
            decay = np.exp(-x[1] * t)
            return np.stack([decay, -x[0] * t * decay, np.ones_like(t)])

        buffer = np.empty((3, t.size))
        calls = []

        def reused(x):
            calls.append(1)
            buffer[...] = fresh(x)
            return buffer

        tolerances = dict(ftol=1e-14, xtol=1e-14, maxfev=1000)
        x, info = levenberg_marquardt(fun, fresh, [1.0, 0.2, 0.0], **tolerances)
        x_reused, info_reused = levenberg_marquardt(fun, reused, [1.0, 0.2, 0.0], **tolerances)
        assert len(calls) > 3
        assert info_reused == info and info in (1, 2, 3, 4)
        assert x_reused.tobytes() == x.tobytes()

    def test_evaluation_budget_is_reported(self):
        # Rosenbrock from its standard start needs more than three evaluations
        def fun(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], -1.0], [10.0, 0.0]])

        _, info = levenberg_marquardt(fun, jac, [-1.2, 1.0], ftol=1e-12, xtol=1e-12, maxfev=3)
        assert info == 5
        x, info = levenberg_marquardt(fun, jac, [-1.2, 1.0], ftol=1e-12, xtol=1e-12, maxfev=1000)
        assert info in (1, 2, 3, 4)
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-10)


@pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
def test_window_fwhm_matches_least_squares(
    monkeypatch, cfg, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
):
    solves = recorded_solves(monkeypatch, dynamics)
    ds = device_drives(mech, g_minus, plus_ratio, meas_ratio, angle)
    fwhm = dynamics.transparency_window_fwhm(cfg, ds, 2)
    fun, jac, start, _, _ = solves[-1]
    reference = least_squares(
        fun, start, jac=lambda p: jac(p).T, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14
    )
    assert reference.success
    assert fwhm == pytest.approx(reference.x[7], rel=1e-8, abs=0.0)
