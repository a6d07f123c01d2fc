"""The numpy Levenberg-Marquardt against scipy's MINPACK drivers.

scipy.optimize serves here as the reference only: ``curve_fit`` with the
model, weights, tolerances and evaluation budget of ``fit_lorentzian``, and
``least_squares(method="lm")`` on the residuals, Jacobian and tolerances of
``transparency_window_fwhm``.
"""

import json
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit, least_squares

from conftest import LADDER_CASES, device_drives
from twotone import dynamics, inference, scenarios
from twotone.config import bundled_config_path, parse_config
from twotone.errors import FitError
from twotone.inference import fit_lorentzian, lorentzian
from twotone.lsq import levenberg_marquardt
from twotone.synthesis import NoiseModel, NoisySpectrum

PARAMS = ("center", "fwhm", "area", "background")


def curve_fit_reference(ns, start, fixed):
    """Free parameters, their errors and chi^2 from ``curve_fit`` (MINPACK lmdif)."""
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


def scenario_fits(monkeypatch, tmp_path, name, **params):
    """(spectrum, init, fixed) of every Lorentzian fit a bundled scenario makes at seed 11."""
    document = json.loads(bundled_config_path(name).read_text())
    document["scenario"]["params"].update(params)
    cfg, ds, scenario = parse_config(document)
    fits = []

    def spy(ns, init=None, *, fixed=None):
        fits.append((ns, init, fixed or {}))
        return fit_lorentzian(ns, init, fixed=fixed)

    monkeypatch.setattr(scenarios, "fit_lorentzian", spy)
    try:
        scenarios.run_scenario(cfg, ds, scenario, tmp_path, seed=11)
    except FitError:
        pass  # a tomogram of 4-point spectra fits to a negative moment
    monkeypatch.undo()
    return fits


@pytest.fixture(scope="module")
def fit_corpus(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return {
            # pinned fits of the on-sideband pairs, windowed sideband fits of
            # the detuned pair
            "backaction": scenario_fits(
                mp, tmp_path_factory.mktemp("ba"), "backaction_sweep.json", ratios=[0.1, 2.44]
            ),
            # one free four-parameter fit
            "single": scenario_fits(mp, tmp_path_factory.mktemp("single"), "paper_device.json"),
            # one degree of freedom per fit
            "tomography_4": scenario_fits(
                mp, tmp_path_factory.mktemp("tomo"), "tomography.json", points=4
            ),
        }


class TestAgainstCurveFit:
    @pytest.mark.parametrize("corpus, count", [("backaction", 8), ("single", 1), ("tomography_4", 12)])
    def test_no_worse_than_minpack(self, monkeypatch, fit_corpus, corpus, count):
        fits = fit_corpus[corpus]
        assert len(fits) == count
        solves = recorded_solves(monkeypatch, inference)
        for ns, init, fixed in fits:
            fit = fit_lorentzian(ns, init, fixed=fixed)
            fun, _, start, x, info = solves[-1]
            assert info in (1, 2, 3, 4)
            try:
                popt, perr, chi2_ref = curve_fit_reference(ns, start, fixed)
            except RuntimeError:
                # no finite minimum (3 of the 4-point spectra): curve_fit
                # spends its evaluations walking down a flat valley, and the
                # fit falls back to the flat background
                assert fit.zero_area
                continue
            assert np.sum(fun(x) ** 2) <= chi2_ref * (1.0 + 1e-12)
            assert np.all(np.abs(x - popt) <= 1e-3 * perr)

    def test_exact_data_from_the_truth_returns_at_once(self, monkeypatch):
        freq = np.linspace(-5.0, 5.0, 201)
        truth = {"center": 0.3, "fwhm": 1.2, "area": 4.0, "background": 2.0}
        y = lorentzian(freq, *truth.values())
        ns = NoisySpectrum(
            freq=freq, flux_true=y, flux_measured=y, std_err=np.full_like(y, 0.1), noise=NoiseModel()
        )
        solves = recorded_solves(monkeypatch, inference)
        fit = fit_lorentzian(ns, init=truth)
        _, _, _, x, info = solves[-1]
        assert info == 4
        np.testing.assert_array_equal(x, list(truth.values()))
        assert fit.chi2_dof == 0.0
        assert np.isfinite([fit.center_err, fit.fwhm_err, fit.area_err, fit.background_err]).all()

    def test_rank_deficient_jacobian_gives_infinite_errors(self):
        # a pinned zero area leaves the centre and width columns zero, so the
        # flat-background fit is the only outcome
        rng = np.random.default_rng(3)
        freq = np.linspace(-5.0, 5.0, 201)
        y = lorentzian(freq, 0.0, 1.0, 3.0, 2.0) + 0.1 * rng.standard_normal(freq.size)
        ns = NoisySpectrum(
            freq=freq, flux_true=y, flux_measured=y, std_err=np.full_like(y, 0.1), noise=NoiseModel()
        )
        fit = fit_lorentzian(ns, fixed={"area": 0.0})
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
