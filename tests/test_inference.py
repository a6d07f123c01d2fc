import dataclasses
import math

import numpy as np
import pytest

from twotone.analytic import occupancy_from_variances, quadrature_variances
from twotone.dynamics import (
    build_linear_model,
    mechanical_marginal,
    output_spectrum,
    spectrum_grid,
    steady_covariance,
)
from twotone.errors import DomainError, FitError
from twotone.inference import (
    FIT_RECORD_UNITS,
    LorentzianFit,
    TomogramFit,
    backaction_evasion_report,
    backaction_line_fit,
    fit_lorentzian,
    lorentzian,
    occupancy_from_sidebands,
    squeezing_metrics,
    tomography_sweep,
)
from twotone.synthesis import NoiseModel, NoisySpectrum, synthesize

TWO_PI = 2.0 * math.pi


def make_noisy(freq, measured, err, truth=None):
    truth = measured if truth is None else truth
    return NoisySpectrum(
        freq=freq,
        flux_true=truth,
        flux_measured=measured,
        std_err=err,
        noise=NoiseModel(seed=0),
    )


class TestFitLorentzian:
    def test_noiseless_recovery(self):
        freq = np.linspace(-TWO_PI * 50e3, TWO_PI * 50e3, 2001)
        truth = lorentzian(freq, 0.0, TWO_PI * 5e3, 100.0, 20.0)
        ns = make_noisy(freq, truth, np.full_like(freq, 0.05))
        fit = fit_lorentzian(ns)
        assert fit.converged and not fit.zero_area
        assert fit.fwhm == pytest.approx(TWO_PI * 5e3, rel=1e-6)
        assert fit.area == pytest.approx(100.0, rel=1e-6)
        assert fit.background == pytest.approx(20.0, rel=1e-6)
        assert abs(fit.center) < 1e-6 * TWO_PI * 5e3

    def test_cooling_pipeline_within_three_sigma(self, cfg, mech, cooling_529):
        model = build_linear_model(cfg, cooling_529)
        spectrum = output_spectrum(model, 2, spectrum_grid(model, points=2001))
        ns = synthesize(spectrum, NoiseModel(floor=20.0, averages=10_000, seed=1))
        fit = fit_lorentzian(ns)
        n_true = occupancy_from_variances(mechanical_marginal(steady_covariance(model)))
        gamma = 529.0 * mech.gamma
        assert abs(fit.area / gamma - n_true) < 3.0 * fit.area_err / gamma

    def test_flat_data_yields_zero_area_flag(self):
        freq = np.linspace(-1.0, 1.0, 301)
        ns = make_noisy(freq, np.full_like(freq, 20.0), np.full_like(freq, 0.2))
        fit = fit_lorentzian(ns)
        assert fit.zero_area and fit.area == 0.0
        assert fit.background == pytest.approx(20.0, abs=1e-9)

    def test_unbiased_at_default_noise(self, cfg, mech, cooling_529):
        # mean fitted area over 200 seeds within 1% of the true peak area,
        # with the linewidth pinned at its calibration value as in the
        # measurement pipeline
        from twotone.dynamics import effective_linewidth

        model = build_linear_model(cfg, cooling_529)
        spectrum = output_spectrum(model, 2, spectrum_grid(model, points=2001))
        n_true = occupancy_from_variances(mechanical_marginal(steady_covariance(model)))
        truth = 529.0 * mech.gamma * n_true
        width = effective_linewidth(cfg, cooling_529)
        nm_base = NoiseModel(floor=20.0, averages=10_000, seed=123)
        areas = []
        for stream in range(200):
            ns = synthesize(spectrum, nm_base, stream=stream)
            areas.append(fit_lorentzian(ns, fwhm=width).area)
        assert np.mean(areas) == pytest.approx(truth, rel=0.01)

    def test_init_override(self):
        # a start centre off the peak, with the width free and pinned
        freq = np.linspace(-10.0, 10.0, 801)
        truth = lorentzian(freq, 1.0, 2.0, 30.0, 5.0)
        ns = make_noisy(freq, truth, np.full_like(freq, 0.01))
        for fwhm in (None, 2.0):
            fit = fit_lorentzian(ns, fwhm=fwhm, center=0.5)
            assert fit.area == pytest.approx(30.0, rel=1e-6)
            assert fit.center == pytest.approx(1.0, rel=1e-9)

    def test_nonpositive_errors_rejected(self):
        freq = np.linspace(-1.0, 1.0, 301)
        ns = make_noisy(freq, np.full_like(freq, 20.0), np.zeros_like(freq))
        with pytest.raises(DomainError):
            fit_lorentzian(ns)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", ["freq", "flux_measured", "std_err"])
    def test_nonfinite_data_rejected(self, column, bad):
        freq = np.linspace(-10.0, 10.0, 801)
        data = {
            "freq": freq,
            "flux_measured": lorentzian(freq, 1.0, 2.0, 30.0, 5.0),
            "std_err": np.full_like(freq, 0.01),
        }
        data[column] = data[column].copy()
        data[column][400] = bad
        ns = make_noisy(data["freq"], data["flux_measured"], data["std_err"])
        with pytest.raises(DomainError, match="finite"):
            fit_lorentzian(ns)

    @pytest.mark.parametrize("samples, fixed", [(0, {}), (1, {"fwhm": 2.0}), (4, {}), (3, {"fwhm": 2.0})])
    def test_too_few_samples_rejected(self, samples, fixed):
        freq = np.linspace(-10.0, 10.0, samples)
        truth = lorentzian(freq, 1.0, 2.0, 30.0, 5.0)
        ns = make_noisy(freq, truth, np.full_like(freq, 0.01))
        with pytest.raises(FitError, match="fit needs more than"):
            fit_lorentzian(ns, **fixed)

    def test_one_degree_of_freedom_fits(self):
        # a pinned width leaves three parameters for four samples
        freq = np.linspace(-10.0, 10.0, 4)
        ns = make_noisy(freq, lorentzian(freq, 1.0, 2.0, 30.0, 5.0), np.full_like(freq, 0.01))
        fit = fit_lorentzian(ns, fwhm=2.0, center=1.0)
        assert fit.area == pytest.approx(30.0, rel=1e-6)
        assert fit.fwhm_err == 0.0


class TestOccupancyFromSidebands:
    @staticmethod
    def exact_fit(area):
        return LorentzianFit(
            center=0.0, fwhm=1.0, area=area, background=0.0,
            center_err=0.0, fwhm_err=0.0, area_err=0.01 * area, background_err=0.0,
            chi2_dof=1.0, converged=True,
        )

    def test_inverts_definitions(self):
        gamma = 2.0
        n_anti, n_stokes, cal = occupancy_from_sidebands(
            self.exact_fit(gamma * 1.0), self.exact_fit(gamma * 2.0), gamma, gamma
        )
        assert n_anti == pytest.approx(1.0)
        assert n_stokes == pytest.approx(1.0)
        assert cal == pytest.approx(0.5)

    def test_asymmetry_value_at_low_occupancy(self):
        n_tot = 0.979
        assert n_tot / (n_tot + 1.0) == pytest.approx(0.4947, abs=1e-4)

    def test_zero_stokes_rate_rejected(self):
        with pytest.raises(DomainError):
            occupancy_from_sidebands(self.exact_fit(1.0), self.exact_fit(1.0), 1.0, 0.0)

    @pytest.mark.parametrize("flagged", [True, False])
    @pytest.mark.parametrize("side", ["anti_stokes", "stokes"])
    def test_zero_area_rejected(self, side, flagged):
        # a zero-area fallback fit used to reach the calibration ratio and
        # raise ZeroDivisionError
        fits = {"anti_stokes": self.exact_fit(1.0), "stokes": self.exact_fit(2.0)}
        fits[side] = dataclasses.replace(fits[side], area=0.0, zero_area=flagged)
        with pytest.raises(FitError, match="no significant area"):
            occupancy_from_sidebands(fits["anti_stokes"], fits["stokes"], 1.0, 1.0)

    def test_unconverged_rejected(self):
        bad = LorentzianFit(
            center=0.0, fwhm=1.0, area=1.0, background=0.0,
            center_err=0.0, fwhm_err=0.0, area_err=0.1, background_err=0.0,
            chi2_dof=1.0, converged=False,
        )
        with pytest.raises(DomainError):
            occupancy_from_sidebands(bad, self.exact_fit(1.0), 1.0, 1.0)


class TestTomography:
    def test_isotropic_state(self):
        phases = np.linspace(0.0, math.pi, 8)
        fit = tomography_sweep(phases, np.full_like(phases, 1.05), np.full_like(phases, 0.01))
        assert fit.v1 == pytest.approx(1.05, abs=1e-12)
        assert fit.v2 == pytest.approx(1.05, abs=1e-12)
        assert fit.v12 == pytest.approx(0.0, abs=1e-12)

    def test_exact_recovery(self):
        phases = np.linspace(0.0, math.pi, 12)
        v1, v2, v12 = 0.6368, 1.7739, 0.0
        values = v1 * np.cos(phases) ** 2 + v2 * np.sin(phases) ** 2 + v12 * np.sin(2 * phases)
        fit = tomography_sweep(phases, values, np.full_like(phases, 1e-6))
        assert fit.v1 == pytest.approx(v1, abs=1e-9)
        assert fit.v2 == pytest.approx(v2, abs=1e-9)
        assert fit.v12 == pytest.approx(0.0, abs=1e-9)
        assert fit.angle == pytest.approx(0.0, abs=1e-6)

    def test_rotated_state_angle(self):
        phases = np.linspace(0.0, math.pi, 24)
        theta = 0.6
        v_min, v_max = 0.7, 2.5
        values = (
            v_min * np.cos(phases - theta) ** 2 + v_max * np.sin(phases - theta) ** 2
        )
        fit = tomography_sweep(phases, values, np.full_like(phases, 1e-6))
        assert fit.angle == pytest.approx(theta, abs=1e-6)
        metrics = squeezing_metrics(fit)
        assert metrics.v_min == pytest.approx(v_min, rel=1e-9)
        assert metrics.v_max == pytest.approx(v_max, rel=1e-9)

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(2)
        phases = np.linspace(0.0, math.pi, 12)
        v1, v2 = 0.6368, 1.7739
        truth = v1 * np.cos(phases) ** 2 + v2 * np.sin(phases) ** 2
        sigma = 0.05
        values = truth + sigma * rng.standard_normal(truth.shape)
        fit = tomography_sweep(phases, values, np.full_like(phases, sigma))
        assert abs(fit.v1 - v1) < 3.0 * fit.v1_err
        assert abs(fit.v2 - v2) < 3.0 * fit.v2_err
        assert fit.v1 + 3.0 * fit.v1_err < 1.0  # sub-vacuum resolved

    def test_too_few_phases(self):
        phases = np.array([0.0, 0.5, 1.0, math.pi])
        with pytest.raises(DomainError):
            tomography_sweep(phases, np.ones_like(phases), np.full_like(phases, 0.1))

    def test_repeated_phases_count_once(self):
        phases = np.array([0.0, 0.0, 0.5, 1.0, math.pi, math.pi])
        with pytest.raises(DomainError, match="5 distinct phases"):
            tomography_sweep(phases, np.ones_like(phases), np.full_like(phases, 0.1))

    def test_span_below_pi(self):
        phases = np.linspace(0.0, 0.9 * math.pi, 8)
        with pytest.raises(DomainError):
            tomography_sweep(phases, np.ones_like(phases), np.full_like(phases, 0.1))

    @pytest.mark.parametrize("column", ["phases", "variances", "errors"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, column, bad):
        # a NaN phase used to pass the distinct-phase and span checks and end
        # in a bare LinAlgError from the fit
        inputs = {
            "phases": np.array([0.0, 0.5, 1.0, 2.0, math.pi, 2.5]),
            "variances": np.ones(6),
            "errors": np.full(6, 0.1),
        }
        inputs[column][-1] = bad
        with pytest.raises(DomainError, match="finite"):
            tomography_sweep(**inputs)

    def test_degenerate_design(self):
        phases = np.array([0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi])
        with pytest.raises(DomainError):
            tomography_sweep(phases, np.ones_like(phases), np.full_like(phases, 0.1))

    def test_negative_model_rejected(self):
        with pytest.raises(DomainError):
            TomogramFit(v1=0.1, v2=0.1, v12=0.5, angle=0.0, cov=np.eye(3), chi2_dof=1.0)


class TestSqueezingMetrics:
    @staticmethod
    def tomogram(v1, v2, v12=0.0, err=1e-6):
        return TomogramFit(
            v1=v1, v2=v2, v12=v12, angle=0.0, cov=np.eye(3) * err**2, chi2_dof=1.0
        )

    def test_vacuum(self):
        metrics = squeezing_metrics(self.tomogram(1.0, 1.0))
        assert metrics.squeezing_db == pytest.approx(0.0, abs=1e-12)
        assert metrics.purity == pytest.approx(1.0, rel=1e-12)
        assert metrics.heisenberg_ok

    def test_measured_subvacuum_level(self):
        metrics = squeezing_metrics(self.tomogram(0.78, 85.0, err=0.08))
        assert metrics.squeezing_db == pytest.approx(10.0 * math.log10(1.0 / 0.78), rel=1e-12)
        assert metrics.squeezing_db == pytest.approx(1.08, abs=5e-3)

    def test_ideal_theory_point(self):
        metrics = squeezing_metrics(self.tomogram(0.6367707566329247, 1.7739840553671538))
        assert metrics.squeezing_db == pytest.approx(1.96, abs=5e-3)
        assert metrics.purity == pytest.approx(0.941, abs=1e-3)
        assert metrics.heisenberg_ok

    def test_purity_bounded_for_physical_states(self, mech):
        from twotone.sysmodel import DriveSet, drive_pair

        rng = np.random.default_rng(8)
        for _ in range(20):
            g_minus = rng.uniform(10.0, 2000.0) * mech.gamma
            g_plus = rng.uniform(0.0, 0.9) * g_minus
            m = quadrature_variances(mech, DriveSet(drive_pair(2, g_minus, g_plus)))
            metrics = squeezing_metrics(self.tomogram(m.v1, m.v2, m.v12))
            assert metrics.purity <= 1.0 + 1e-9

    def test_violation_flagged_not_thrown(self):
        metrics = squeezing_metrics(self.tomogram(0.5, 1.0))
        assert not metrics.heisenberg_ok
        assert metrics.squeezing_db > 0.0


class TestBackactionLine:
    def test_exact_line(self):
        x = np.array([0.1, 0.5, 1.0, 2.0])
        fit = backaction_line_fit(x, 0.08 + 1.0 * x, np.full_like(x, 0.01))
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.08, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            backaction_line_fit([1.0], [1.0], [0.1])

    def test_equal_ratios_rejected(self):
        # two points at one ratio leave the slope undetermined
        with pytest.raises(DomainError, match="singular"):
            backaction_line_fit([1.0, 1.0], [1.0, 1.1], [0.1, 0.1])

    def test_nearly_equal_ratios_rejected(self):
        # the normal equations of ratios 1e-9 apart give a negative variance,
        # whose square root would warn
        with pytest.raises(DomainError, match="nearly singular"):
            backaction_line_fit([1.0, 1.000000001], [1.0, 1.1], [0.1, 0.1])

    def test_ratio_spread_of_the_schema_fits(self):
        # config.MIN_RATIO_SPREAD: ratios 1e-4 of the largest apart
        fit = backaction_line_fit([1.0, 1.0001], [1.0, 1.1], [0.1, 0.1])
        assert np.isfinite([fit.slope, fit.slope_err, fit.intercept_err]).all()

    def test_ratio_spread_of_one_in_a_million_rejected(self):
        # the normal matrix has rank 1 at 1e-10 of its trace; its covariance
        # would still be finite and positive
        with pytest.raises(DomainError, match="nearly singular"):
            backaction_line_fit([1.0, 1.000001], [1.0, 1.1], [0.1, 0.1])

    def test_covariance_overflow_rejected(self):
        # a full-rank normal matrix of order 1e-308, whose inverse overflows:
        # the covariance rule, not the rank test, rejects it
        with pytest.raises(DomainError, match="nearly singular"):
            backaction_line_fit([1.0, 2.0], [1.0, 2.0], [1e154, 1e154])

    @pytest.mark.parametrize("column", ["ratios", "values", "sigmas"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, column, bad):
        # a NaN ratio would otherwise reach the rank test's SVD, which raises
        # a bare LinAlgError
        inputs = {"ratios": [0.1, 0.5, 1.0], "values": [0.2, 0.6, 1.1], "sigmas": [0.01, 0.01, 0.01]}
        inputs[column][-1] = bad
        with pytest.raises(DomainError, match="finite"):
            backaction_line_fit(**inputs)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DomainError, match="equal lengths"):
            backaction_line_fit([0.1, 0.5, 1.0], [0.2, 0.6], [0.01, 0.01, 0.01])


class TestEvasionReport:
    def reference_line(self, sigma=1e-6):
        ratios = np.array([0.1, 0.5, 1.0, 2.0])
        return backaction_line_fit(ratios, 0.0792 + ratios, np.full_like(ratios, sigma))

    def test_lower_bound_structure(self):
        report = backaction_evasion_report(
            qnd_v1=2.0 * 0.0792 + 1.0,
            qnd_v1_err=0.22,
            line=self.reference_line(),
            gamma_ratio=2.44,
        )
        assert report.is_lower_bound
        assert report.evasion_db == pytest.approx(10.0 * math.log10(2.0 * 2.44 / 0.22), abs=1e-6)
        assert report.evasion_db == pytest.approx(13.46, abs=0.01)

    def test_no_evasion_is_zero_db(self):
        n_ba = 2.44
        report = backaction_evasion_report(
            qnd_v1=(2.0 * 0.0792 + 1.0) + 2.0 * n_ba,
            qnd_v1_err=1e-6,
            line=self.reference_line(),
            gamma_ratio=n_ba,
        )
        assert not report.is_lower_bound
        assert report.evasion_db == pytest.approx(0.0, abs=1e-4)

    def test_zero_strength_rejected(self):
        with pytest.raises(DomainError):
            backaction_evasion_report(1.0, 0.1, self.reference_line(), 0.0)

    def test_missing_reference_rejected(self):
        with pytest.raises(DomainError):
            backaction_evasion_report(1.0, 0.1, backaction_line_fit([1.0], [1.08], [0.01]), 1.0)


class TestRecords:
    def test_fit_from_csv_matches_direct(self, cfg, mech, cooling_529, tmp_path):
        # the CSV interface feeds the same fit results as in-memory data
        from twotone.synthesis import read_noisy_csv, write_noisy_csv

        model = build_linear_model(cfg, cooling_529)
        ns = synthesize(output_spectrum(model, 2, spectrum_grid(model, points=2001)), NoiseModel(seed=6))
        path = tmp_path / "noisy.csv"
        write_noisy_csv(ns, path)
        direct = fit_lorentzian(ns)
        from_csv = fit_lorentzian(read_noisy_csv(path))
        # the Hz round trip perturbs the grid by one ulp, which moves the
        # optimizer within its own tolerance
        assert from_csv.area == pytest.approx(direct.area, rel=1e-5)
        assert from_csv.fwhm == pytest.approx(direct.fwhm, rel=1e-5)

    def test_units_cover_fit_record(self):
        fit = LorentzianFit(
            center=1.0, fwhm=2.0, area=3.0, background=4.0,
            center_err=0.1, fwhm_err=0.2, area_err=0.3, background_err=0.4,
            chi2_dof=1.1, converged=True,
        )
        assert set(FIT_RECORD_UNITS) >= set(fit.to_record())
