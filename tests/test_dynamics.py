import copy
import dataclasses
import gc
import math
import platform
import sys
import threading

import numpy as np
import pytest

from twotone.analytic import occupancy_from_variances, quadrature_variances, variance_of_phase
from twotone.dynamics import (
    CovarianceMatrix,
    build_linear_model,
    driven_response,
    effective_linewidth,
    mechanical_marginal,
    output_spectrum,
    spectrum_grid,
    steady_covariance,
    transparency_window_fwhm,
    write_spectrum_csv,
)
from twotone import dynamics
from twotone.config import bundled_config_path, load_config
from twotone.dynamics import Spectrum, _resolvent_solve, _solve_frame_shifts
from twotone.errors import DomainError, InstabilityError, NumericalError
from twotone.inference import tomography_sweep
from twotone.oracle import EffectiveDissipators, TruncatedState, coherence_blocks
from twotone.synthesis import NoiseModel, synthesize
from twotone.sysmodel import LOWER, UPPER, Cavity, Drive, DriveSet, SystemConfig, drive_pair
from twotone.tables import write_csv

TWO_PI = 2.0 * math.pi


def hand_coded_drift(cfg, ds):
    """Reference: the real quadrature drift written out block by block."""
    s1, s2, s_b = _solve_frame_shifts(ds)
    a = np.zeros((6, 6))
    halves = (cfg.cavity(1).kappa / 2.0, cfg.cavity(2).kappa / 2.0, cfg.mech.gamma / 2.0)
    for mode, (shift, half) in enumerate(zip((s1, s2, s_b), halves)):
        delta = -shift
        i = 2 * mode
        a[i : i + 2, i : i + 2] = np.array([[-half, delta], [-delta, -half]])
    for j in (1, 2):
        cav = cfg.cavity(j)
        lo, up = ds.get(j, LOWER), ds.get(j, UPPER)
        g_lo = np.sqrt(ds.rate(j, LOWER) * cav.kappa) / 2.0 * np.exp(1j * (lo.phase if lo else 0.0))
        g_up = np.sqrt(ds.rate(j, UPPER) * cav.kappa) / 2.0 * np.exp(1j * (up.phase if up else 0.0))
        if g_lo == 0 and g_up == 0:
            continue
        i = 2 * (j - 1)
        a[i : i + 2, 4:6] = np.array(
            [
                [g_lo.imag + g_up.imag, g_lo.real - g_up.real],
                [-(g_lo.real + g_up.real), g_lo.imag - g_up.imag],
            ]
        )
        a[4:6, i : i + 2] = np.array(
            [
                [-g_lo.imag + g_up.imag, g_lo.real - g_up.real],
                [-(g_lo.real + g_up.real), -g_lo.imag - g_up.imag],
            ]
        )
    return a


def lorentzian_span_fraction(half_widths: float) -> float:
    """Area fraction of a Lorentzian within +- half_widths of its center."""
    return 2.0 / math.pi * math.atan(2.0 * half_widths)


class TestBuildLinearModel:
    def test_undriven_eigenvalues(self, cfg):
        model = build_linear_model(cfg, DriveSet())
        eig = np.sort(model.eigenvalues().real)
        expected = np.sort(
            [-cfg.cavity(1).kappa / 2.0] * 2
            + [-cfg.cavity(2).kappa / 2.0] * 2
            + [-cfg.mech.gamma / 2.0] * 2
        )
        assert np.allclose(eig, expected, rtol=1e-12)
        assert np.allclose(np.abs(model.eigenvalues().imag), 0.0, atol=1e-9)

    def test_cooling_dressed_pole(self, cfg, mech):
        # the relative pole shift beyond the adiabatic value is gamma/kappa
        # times (1 + O(gamma/kappa)); allow that next order
        gamma = 529.0 * mech.gamma
        model = build_linear_model(cfg, DriveSet((Drive(2, "lower", gamma),)))
        least_damped = max(model.eigenvalues().real)
        expected = -(mech.gamma + gamma) / 2.0
        assert abs(least_damped - expected) / abs(expected) < 1.05 * gamma / cfg.cavity(2).kappa

    def test_overdriven_upper_sideband_unstable(self, cfg, mech):
        ds = DriveSet(drive_pair(2, 10.0 * mech.gamma, 30.0 * mech.gamma))
        model = build_linear_model(cfg, ds)
        assert not model.is_stable

    def test_complex_and_quadrature_generators_agree(self, cfg, mech):
        s2 = np.array([[1.0, 1.0], [-1j, 1j]])
        basis_change = np.kron(np.eye(3), s2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            rates = rng.uniform(0.0, 1000.0, size=4) * mech.gamma
            angle = rng.uniform(0.0, math.pi)
            delta = rng.uniform(0.0, 5e4) * TWO_PI
            ds = DriveSet(
                drive_pair(1, rates[0], rates[0], angle=angle, detuning=delta)
                + (Drive(2, "lower", rates[2]),)
            )
            model = build_linear_model(cfg, ds)
            rebuilt = basis_change @ model.complex_drift @ np.linalg.inv(basis_change)
            assert np.max(np.abs(rebuilt.imag)) < 1e-9
            assert np.allclose(rebuilt.real, model.drift, atol=1e-9)

    @pytest.mark.parametrize("drives", ["paper_device", "detuned_pair", "phased_pairs", "detuned_asymmetric"])
    def test_drift_equals_hand_coded_blocks(self, cfg, mech, drives):
        g = mech.gamma
        if drives == "paper_device":
            cfg, ds, _ = load_config(bundled_config_path("paper_device.json"))
        elif drives == "detuned_pair":
            ds = DriveSet((Drive(2, "lower", 529.0 * g),) + drive_pair(1, 300.0 * g, 300.0 * g, detuning=TWO_PI * 5e4))
        elif drives == "phased_pairs":
            ds = DriveSet(drive_pair(2, 1600.0 * g, 100.0 * g, angle=0.3) + drive_pair(1, 200.0 * g, 200.0 * g, angle=1.1))
        else:
            ds = DriveSet(
                drive_pair(2, 1600.0 * g, 400.0 * g, detuning=TWO_PI * 3e4)
                + drive_pair(1, 200.0 * g, 100.0 * g, detuning=TWO_PI * 3e4, angle=0.7)
            )
        assert np.array_equal(build_linear_model(cfg, ds).drift, hand_coded_drift(cfg, ds))

    def test_incompatible_detunings_rejected(self, cfg, mech):
        ds = DriveSet(
            drive_pair(1, mech.gamma, mech.gamma, detuning=100.0)
            + drive_pair(2, 10.0 * mech.gamma, mech.gamma)
        )
        with pytest.raises(DomainError):
            build_linear_model(cfg, ds)

    def test_unresolved_sideband_rejected(self, mech):
        cfg = SystemConfig(
            mech=mech,
            cavities=(
                Cavity(omega=1e10, kappa=mech.omega / 2.0, g0=100.0),
                Cavity(omega=1e10, kappa=mech.omega / 20.0, g0=100.0),
            ),
        )
        with pytest.raises(DomainError):
            build_linear_model(cfg, DriveSet())



def crossval_drives(mech, angle=0.3):
    """A squeezing pair on cavity 2 and a balanced measurement pair on cavity 1."""
    rate = 800.0 * mech.gamma
    return DriveSet(drive_pair(2, rate, 0.1 * rate) + drive_pair(1, 0.5 * rate, 0.5 * rate, angle=angle))


class TestModelMemo:
    """``build_linear_model`` keeps its last model, keyed on the identity of its arguments."""

    def test_same_objects_share_one_model(self, cfg, mech):
        ds = crossval_drives(mech)
        assert build_linear_model(cfg, ds) is build_linear_model(cfg, ds)

    def test_other_objects_get_a_model_of_their_own(self, cfg, mech):
        ds = crossval_drives(mech, angle=0.0)
        # equal drive sets, but the signed zero of a phase reaches the digest
        twin = crossval_drives(mech, angle=-0.0)
        assert twin == ds and twin.digest() != ds.digest()
        m = build_linear_model(cfg, ds)
        other = build_linear_model(cfg, twin)
        assert other is not m and other.ds is twin
        grid = spectrum_grid(other, points=11)
        assert output_spectrum(other, 1, grid).meta["drives"] == twin.digest()
        copy = dataclasses.replace(cfg)
        assert copy == cfg
        again = build_linear_model(copy, twin)
        assert again is not other and again.cfg is copy

    def test_only_the_last_model_is_kept(self, cfg, mech):
        first, second = crossval_drives(mech, 0.1), crossval_drives(mech, 0.2)
        m1 = build_linear_model(cfg, first)
        build_linear_model(cfg, second)
        rebuilt = build_linear_model(cfg, first)
        assert rebuilt is not m1
        assert build_linear_model(cfg, first) is rebuilt

    def test_a_failed_build_fails_again(self, mech):
        cfg = SystemConfig(
            mech=mech,
            cavities=(
                Cavity(omega=1e10, kappa=mech.omega / 2.0, g0=100.0),
                Cavity(omega=1e10, kappa=mech.omega / 20.0, g0=100.0),
            ),
        )
        ds = DriveSet()
        for _ in range(2):
            with pytest.raises(DomainError, match="resolved-sideband"):
                build_linear_model(cfg, ds)

    def test_threads_get_models_of_their_own_drive_sets(self, cfg, mech):
        # the threads replace the kept model under each other
        sets = [crossval_drives(mech, 0.1 * k) for k in range(4)]
        wrong = []

        def build_repeatedly(ds):
            for _ in range(200):
                m = build_linear_model(cfg, ds)
                if m.ds is not ds or m.cfg is not cfg:
                    wrong.append(m)

        threads = [threading.Thread(target=build_repeatedly, args=(ds,)) for ds in sets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_one_build_and_one_eigendecomposition_per_drive_set(self, monkeypatch, cfg, mech):
        # the cross-validation of a drive set: covariance, probe response, window fit
        calls = {"builds": 0, "eigvals": 0}
        solve_frame_shifts, eigvals = dynamics._solve_frame_shifts, np.linalg.eigvals

        def counted(name, function):
            def spy(*args):
                calls[name] += 1
                return function(*args)

            return spy

        monkeypatch.setattr(dynamics, "_solve_frame_shifts", counted("builds", solve_frame_shifts))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", eigvals))
        for k, angle in enumerate((0.0, 0.4, 1.1), start=1):
            ds = crossval_drives(mech, angle)
            steady_covariance(build_linear_model(cfg, ds))
            driven_response(cfg, ds, 1, np.linspace(-1e5, 1e5, 101))
            transparency_window_fwhm(cfg, ds, 2)
            assert calls == {"builds": k, "eigvals": k}

class TestSteadyCovariance:
    def test_undriven_thermal_state(self, cfg):
        v = steady_covariance(build_linear_model(cfg, DriveSet()))
        assert np.allclose(v.v, np.diag([1.0, 1.0, 1.0, 1.0, 85.0, 85.0]), atol=1e-9)
        assert v.is_physical()

    def test_cooling_matches_closed_form(self, cfg, cooling_529):
        moments = mechanical_marginal(steady_covariance(build_linear_model(cfg, cooling_529)))
        assert moments.v1 == pytest.approx(614.0 / 530.0, rel=0.01)
        assert moments.v2 == pytest.approx(614.0 / 530.0, rel=0.01)

    def test_squeezing_matches_closed_form(self, cfg, squeeze_007):
        moments = mechanical_marginal(steady_covariance(build_linear_model(cfg, squeeze_007)))
        assert moments.v1 == pytest.approx(0.6367707566329247, rel=0.01)
        assert moments.v2 == pytest.approx(1.7739840553671538, rel=0.01)
        assert abs(moments.v12) < 1e-6

    def test_unstable_model_rejected(self, cfg, mech):
        model = build_linear_model(cfg, DriveSet(drive_pair(2, mech.gamma, 30.0 * mech.gamma)))
        with pytest.raises(InstabilityError):
            steady_covariance(model)

    def test_adiabatic_consistency(self, cfg, mech):
        # weak coupling, resonant drives: the Lyapunov marginal reproduces
        # the closed-form moments on v1 and v2 within 1%
        rng = np.random.default_rng(33)
        for _ in range(8):
            g2_minus = rng.uniform(50.0, 1500.0) * mech.gamma
            g2_plus = rng.uniform(0.0, 0.5) * g2_minus
            ratio = rng.uniform(0.0, 2.0)
            angle = rng.uniform(0.0, math.pi)
            ds = DriveSet(
                drive_pair(2, g2_minus, g2_plus)
                + drive_pair(1, ratio * g2_minus, ratio * g2_minus, angle=angle)
            )
            assert max(d.rate for d in ds.drives) / cfg.cavity(1).kappa < 1e-2
            lyap = mechanical_marginal(steady_covariance(build_linear_model(cfg, ds)))
            closed = quadrature_variances(mech, ds)
            assert lyap.v1 == pytest.approx(closed.v1, rel=0.01)
            assert lyap.v2 == pytest.approx(closed.v2, rel=0.01)
            assert lyap.v12 == pytest.approx(closed.v12, abs=0.01 * closed.v2)

    def test_nan_residual_rejected(self, cfg, cooling_529):
        model = build_linear_model(cfg, cooling_529)
        diffusion = model.diffusion.copy()
        diffusion[4, 4] = np.nan
        with pytest.raises(NumericalError, match="Lyapunov residual nan"):
            steady_covariance(dataclasses.replace(model, diffusion=diffusion))

    def test_residual_is_small(self, cfg, squeeze_007):
        model = build_linear_model(cfg, squeeze_007)
        v = steady_covariance(model)
        residual = model.drift @ v.v + v.v @ model.drift.T + model.diffusion
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(model.diffusion)


class TestMechanicalMarginal:
    def test_identity(self):
        moments = mechanical_marginal(CovarianceMatrix(np.eye(6)))
        assert (moments.v1, moments.v2, moments.v12) == (1.0, 1.0, 0.0)

    def test_thermal_block(self):
        moments = mechanical_marginal(CovarianceMatrix(np.diag([1, 1, 1, 1, 85.0, 85.0])))
        assert (moments.v1, moments.v2, moments.v12) == (85.0, 85.0, 0.0)

    def test_squeezed_block(self, cfg, squeeze_007):
        moments = mechanical_marginal(steady_covariance(build_linear_model(cfg, squeeze_007)))
        assert moments.v1 == pytest.approx(0.6368, abs=2e-3)
        assert moments.v2 == pytest.approx(1.7739, abs=2e-2)


class TestOutputSpectrum:
    def test_undriven_cavity_reports_zero(self, cfg):
        model = build_linear_model(cfg, DriveSet())
        spectrum = output_spectrum(model, 1, np.linspace(-1e5, 1e5, 101))
        assert np.all(spectrum.flux == 0.0)

    def test_cooling_lorentzian(self, cfg, mech, cooling_529):
        model = build_linear_model(cfg, cooling_529)
        n_ss = occupancy_from_variances(mechanical_marginal(steady_covariance(model)))
        gamma = 529.0 * mech.gamma
        width = mech.gamma + gamma
        spectrum = output_spectrum(model, 2, np.linspace(-40.0 * width, 40.0 * width, 8001))
        half = spectrum.flux >= spectrum.flux.max() / 2.0
        fwhm = spectrum.freq[half][-1] - spectrum.freq[half][0]
        assert fwhm == pytest.approx(width, rel=0.01)
        expected = gamma * n_ss * lorentzian_span_fraction(40.0)
        assert spectrum.integrated_flux() == pytest.approx(expected, rel=0.01)

    def test_single_quadrature_measurement_flux(self, cfg, mech):
        from conftest import qnd_config

        ds = qnd_config(mech, 0.9)
        model = build_linear_model(cfg, ds)
        moments = mechanical_marginal(steady_covariance(model))
        gamma_meas = 0.9 * 529.0 * mech.gamma
        width = effective_linewidth(cfg, ds)
        spectrum = output_spectrum(model, 1, np.linspace(-40.0 * width, 40.0 * width, 8001))
        expected = gamma_meas * moments.v1 * lorentzian_span_fraction(40.0)
        assert spectrum.integrated_flux() == pytest.approx(expected, rel=0.01)

    def test_detuned_pair_sideband_asymmetry(self, cfg, mech):
        from conftest import qnd_config

        delta = TWO_PI * 50e3
        ds = qnd_config(mech, 0.9, detuning=delta)
        gamma_meas = 0.9 * 529.0 * mech.gamma
        model = build_linear_model(cfg, ds)
        n_tot = occupancy_from_variances(mechanical_marginal(steady_covariance(model)))
        spectrum = output_spectrum(model, 1, spectrum_grid(model, points=16001))
        negative = spectrum.freq < 0
        peak_neg = spectrum.freq[negative][np.argmax(spectrum.flux[negative])]
        peak_pos = spectrum.freq[~negative][np.argmax(spectrum.flux[~negative])]
        assert peak_neg == pytest.approx(-delta, abs=0.02 * delta)
        assert peak_pos == pytest.approx(delta, abs=0.02 * delta)
        area_neg = np.trapezoid(spectrum.flux[negative], spectrum.freq[negative]) / TWO_PI
        area_pos = np.trapezoid(spectrum.flux[~negative], spectrum.freq[~negative]) / TWO_PI
        assert area_neg == pytest.approx(gamma_meas * n_tot, rel=0.03)
        assert area_pos == pytest.approx(gamma_meas * (n_tot + 1.0), rel=0.03)

    def test_tomography_angle_reads_rotated_variance(self, cfg, mech):
        rate = 1643.0 * mech.gamma
        gamma_meas = 0.48 * rate
        width = mech.gamma + 0.93 * rate
        for angle in (0.0, math.pi / 3.0, math.pi / 2.0):
            ds = DriveSet(
                drive_pair(2, rate, 0.07 * rate)
                + drive_pair(1, gamma_meas, gamma_meas, angle=angle)
            )
            model = build_linear_model(cfg, ds)
            spectrum = output_spectrum(model, 1, np.linspace(-40.0 * width, 40.0 * width, 8001))
            expected = (
                gamma_meas
                * variance_of_phase(quadrature_variances(mech, ds), angle)
                * lorentzian_span_fraction(40.0)
            )
            assert spectrum.integrated_flux() == pytest.approx(expected, rel=0.015)

    def test_control_flux_includes_pair_coherence(self, cfg, mech, squeeze_007):
        # emitted control-cavity flux is the engineered-operator expectation
        # <c+ c> = g- n + g+ (n + 1) + 2 sqrt(g- g+) Re<bb>
        model = build_linear_model(cfg, squeeze_007)
        moments = mechanical_marginal(steady_covariance(model))
        g_minus = 1643.0 * mech.gamma
        g_plus = 0.07 * g_minus
        n = occupancy_from_variances(moments)
        re_bb = (moments.v1 - moments.v2) / 4.0
        width = effective_linewidth(cfg, squeeze_007)
        spectrum = output_spectrum(model, 2, np.linspace(-40.0 * width, 40.0 * width, 8001))
        expected = (
            g_minus * n + g_plus * (n + 1.0) + 2.0 * math.sqrt(g_minus * g_plus) * re_bb
        ) * lorentzian_span_fraction(40.0)
        assert spectrum.integrated_flux() == pytest.approx(expected, rel=0.01)

    def test_qnd_flux_depends_only_on_measured_variance(self, cfg, mech):
        # two engineered baths tuned to the same v1 give the same
        # measurement-cavity flux even though their upper-tone rates differ
        g_a = 529.0 * mech.gamma
        target_v1 = (mech.gamma * 85.0 + g_a) / (mech.gamma + g_a)

        def v1_of(g_minus, ratio):
            den = mech.gamma + g_minus * (1.0 - ratio)
            return (
                mech.gamma * 85.0
                + g_minus * (1.0 - math.sqrt(ratio)) ** 2
            ) / den

        # solve for the cooling rate that restores v1 at ratio 0.1 (a weaker
        # squeezed bath reaches the same v1 at a lower pump rate)
        from scipy.optimize import brentq

        g_b = brentq(lambda g: v1_of(g, 0.1) - target_v1, g_a / 20.0, g_a)
        gamma_meas = 0.5 * g_a
        areas = []
        for control in (
            (Drive(2, "lower", g_a),),
            drive_pair(2, g_b, 0.1 * g_b),
        ):
            ds = DriveSet(tuple(control) + drive_pair(1, gamma_meas, gamma_meas))
            model = build_linear_model(cfg, ds)
            width = effective_linewidth(cfg, ds)
            spectrum = output_spectrum(model, 1, np.linspace(-50.0 * width, 50.0 * width, 8001))
            areas.append(spectrum.integrated_flux() / lorentzian_span_fraction(50.0))
        assert areas[0] == pytest.approx(areas[1], rel=0.01)

    def test_parseval_within_half_percent(self, cfg, mech, cooling_529):
        # integrated flux against the steady-state combination gamma_minus n,
        # both restricted to the +-20 linewidth span of the grid
        model = build_linear_model(cfg, cooling_529)
        n_ss = occupancy_from_variances(mechanical_marginal(steady_covariance(model)))
        gamma = 529.0 * mech.gamma
        width = mech.gamma + gamma
        spectrum = output_spectrum(model, 2, np.linspace(-20.0 * width, 20.0 * width, 8001))
        expected = gamma * n_ss * lorentzian_span_fraction(20.0)
        assert spectrum.integrated_flux() == pytest.approx(expected, rel=0.005)

    def test_unstable_model_rejected(self, cfg, mech):
        model = build_linear_model(cfg, DriveSet(drive_pair(2, mech.gamma, 30.0 * mech.gamma)))
        with pytest.raises(InstabilityError):
            output_spectrum(model, 2, spectrum_grid(model, points=101))

    def test_wide_grid_warns_in_meta(self, cfg, cooling_529):
        model = build_linear_model(cfg, cooling_529)
        spectrum = output_spectrum(model, 2, np.linspace(-2.0e6 * TWO_PI, 2.0e6 * TWO_PI, 51))
        assert spectrum.meta["warnings"]

    def test_spectrum_validation(self):
        with pytest.raises(DomainError):
            Spectrum(freq=np.array([0.0, -1.0]), flux=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            Spectrum(freq=np.array([0.0, 1.0]), flux=np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["freq", "flux"])
    def test_spectrum_rejects_non_finite(self, column, bad):
        # nan passes both the ordering and the sign check on its own
        values = {"freq": np.array([0.0, 1.0, 2.0]), "flux": np.array([1.0, 1.0, 1.0])}
        values[column][2] = bad
        with pytest.raises(DomainError, match="finite"):
            Spectrum(**values)

    def test_csv_round_trip(self, cfg, cooling_529, tmp_path):
        model = build_linear_model(cfg, cooling_529)
        spectrum = output_spectrum(model, 2, spectrum_grid(model, points=101))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(spectrum, path)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("cavity: 2" in ln for ln in header)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "offset_hz,flux"
        data = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
        assert np.allclose(data[:, 0] * TWO_PI, spectrum.freq, rtol=1e-15)
        assert np.allclose(data[:, 1], spectrum.flux, rtol=1e-15)


def looped_flux(model, cavity_index, grid):
    """Per-frequency reference for output_spectrum: one solve per grid point."""
    cav = model.cfg.cavity(cavity_index)
    shift = model.frame_shifts[cavity_index - 1]
    b = model.noise_input_matrix()
    occ = np.array([ch.occupancy for ch in model.channels])
    ext_channel = [ch.label for ch in model.channels].index(f"cav{cavity_index}_ext")
    unit = np.zeros(6, dtype=complex)
    unit[2 * (cavity_index - 1)] = 1.0
    flux = np.empty_like(grid)
    for i, w_lab in enumerate(grid):
        resolvent = -1j * (w_lab - shift) * np.eye(6) - model.complex_drift
        r = np.sqrt(cav.kappa_ext) * (np.linalg.solve(resolvent.T, unit) @ b)
        r[2 * ext_channel] -= 1.0
        flux[i] = np.abs(r[0::2]) ** 2 @ occ + np.abs(r[1::2]) ** 2 @ (occ + 1.0)
    return flux / cav.external_fraction


def looped_response(model, probe_cavity, grid):
    """Per-frequency reference for driven_response: one solve per grid point."""
    idx = 2 * (probe_cavity - 1)
    shift = model.frame_shifts[probe_cavity - 1]
    unit = np.zeros(6, dtype=complex)
    unit[idx] = 1.0
    kappa_ext = model.cfg.cavity(probe_cavity).kappa_ext
    s11 = np.empty(grid.shape, dtype=complex)
    for i, w_lab in enumerate(grid):
        resolvent = -1j * (w_lab - shift) * np.eye(6) - model.complex_drift
        s11[i] = 1.0 - kappa_ext * np.linalg.solve(resolvent, unit)[idx]
    return s11


class TestBatchedResolvent:
    """The batched resolvent matches one np.linalg.solve per frequency point."""

    @pytest.fixture(params=["detuned_pair", "pairs_on_both_cavities"])
    def model(self, request, cfg, mech):
        from conftest import qnd_config

        if request.param == "detuned_pair":
            ds = qnd_config(mech, 1.0, detuning=TWO_PI * 5e4)
        else:
            rate = 1643.0 * mech.gamma
            ds = DriveSet(
                drive_pair(2, rate, 0.07 * rate) + drive_pair(1, 0.3 * rate, 0.3 * rate, angle=0.4)
            )
        return build_linear_model(cfg, ds)

    @pytest.mark.parametrize("cavity", [1, 2])
    @pytest.mark.parametrize("points", [1, 801])
    def test_output_spectrum_matches_loop(self, model, cavity, points):
        grid = spectrum_grid(model, points=points)
        spectrum = output_spectrum(model, cavity, grid)
        assert spectrum.flux.shape == grid.shape
        np.testing.assert_allclose(spectrum.flux, looped_flux(model, cavity, grid), rtol=1e-13)

    @pytest.mark.parametrize("cavity", [1, 2])
    @pytest.mark.parametrize("points", [1, 801])
    def test_driven_response_matches_loop(self, model, cavity, points):
        grid = spectrum_grid(model, points=points)
        s11 = driven_response(model.cfg, model.ds, cavity, grid)
        assert s11.shape == grid.shape
        np.testing.assert_allclose(s11, looped_response(model, cavity, grid), rtol=1e-13)

    def test_output_spectrum_reads_resolvent_row(self, cfg, mech):
        # the physical drift gives rows and columns of equal magnitude, so a
        # generic drift is needed to tell the adjoint solve from the plain one;
        # it is kicked only where a physical drift has entries, leaving the
        # cavity modes coupled only through the mechanics
        from conftest import qnd_config

        model = build_linear_model(cfg, qnd_config(mech, 1.0, detuning=TWO_PI * 5e4))
        rng = np.random.default_rng(8)
        kick = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        kick[:4, :4] *= np.eye(4)
        model = dataclasses.replace(
            model, complex_drift=model.complex_drift + 300.0 * mech.gamma * kick
        )
        grid = spectrum_grid(model, points=201)
        spectrum = output_spectrum(model, 1, grid)
        np.testing.assert_allclose(spectrum.flux, looped_flux(model, 1, grid), rtol=1e-13)

    @pytest.mark.parametrize("entry", [output_spectrum, driven_response], ids=lambda f: f.__name__)
    def test_no_per_frequency_loop(self, model, entry):
        # the number of Python and C calls made inside must not grow with the grid
        def calls(points):
            grid = spectrum_grid(model, points=points)
            args = (model, 1, grid) if entry is output_spectrum else (model.cfg, model.ds, 1, grid)
            entry(*args)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")

            # a collection would count the collector's callbacks, which
            # depend on what earlier tests allocated, not on the grid
            gc.disable()
            sys.setprofile(profile)
            try:
                entry(*args)
            finally:
                sys.setprofile(None)
                gc.enable()
            return count

        assert calls(11) == calls(4001)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_pivots_on_the_larger_candidate(self, adjoint):
        # at w = 0 the 2 x 2 mechanical system has S_00 = 1e-13 against a 1
        # below it: an elimination that divided by S_00 would lose ten digits
        # of the solution, which the adjugate solve keeps
        drift = -np.eye(6, dtype=complex)
        drift[4:, 4:] = [[-1e-13, -1.0], [1.0, -1.0]]
        if adjoint:
            drift = drift.T.copy()
        x = _resolvent_solve(drift, np.array([0.0]), 4, adjoint=adjoint)[:6]
        expected = np.linalg.solve(-(drift.T if adjoint else drift), np.eye(6)[4])
        np.testing.assert_allclose(x[:, 0], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("zero", [0, 3, 5, "mechanics"])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_singular_resolvent_raises(self, zero, adjoint):
        # -i w I - C is singular at w = 0 when C has a zero eigenvalue: a zero
        # on its diagonal, or decoupled cavities and M_mm = -[[1, 2], [2, 4]],
        # which leave the dressed system S = [[1, 2], [2, 4]], singular
        # although none of its entries is zero
        drift = -np.eye(6, dtype=complex)
        if zero == "mechanics":
            drift[4:, 4:] = -np.array([[1.0, 2.0], [2.0, 4.0]])
        else:
            drift[zero, zero] = 0.0
        with pytest.raises(NumericalError, match="singular"):
            _resolvent_solve(drift, np.array([1.0, 0.0]), 0, adjoint=adjoint)

    @pytest.mark.parametrize("entry", [(0, 2), (3, 1), (0, 1)])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_coupled_cavity_modes_raise(self, model, entry, adjoint):
        # the elimination needs the cavity modes to meet only through the mechanics
        drift = model.complex_drift.copy()
        drift[entry] = 1.0
        with pytest.raises(DomainError, match="only through the mechanics"):
            _resolvent_solve(drift, np.array([0.0, 1.0]), 0, adjoint=adjoint)

    def test_detuned_pair_has_frame_shift(self, cfg, mech):
        from conftest import qnd_config

        model = build_linear_model(cfg, qnd_config(mech, 1.0, detuning=TWO_PI * 5e4))
        assert model.frame_shifts[2] != 0.0
        assert np.linalg.cond(np.linalg.eig(model.complex_drift)[1]) > 1e5


BAD_GRIDS = {
    "empty": np.array([]),
    "nan": np.array([-1.0, math.nan, 1.0]),
    "inf": np.array([-1.0, 0.0, math.inf]),
    "two_dimensional": np.zeros((2, 3)),
}


class TestGridValidation:
    """Both frequency-response entry points reject a grid they cannot evaluate."""

    @pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
    def test_output_spectrum_rejects(self, cfg, cooling_529, grid):
        with pytest.raises(DomainError, match="frequency grid"):
            output_spectrum(build_linear_model(cfg, cooling_529), 2, grid)

    @pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
    def test_driven_response_rejects(self, cfg, cooling_529, grid):
        with pytest.raises(DomainError, match="frequency grid"):
            driven_response(cfg, cooling_529, 2, grid)


class TestDrivenResponse:
    def test_overcoupled_reflection(self, mech):
        cfg = SystemConfig(
            mech=mech,
            cavities=(
                Cavity(omega=TWO_PI * 8.89e9, kappa=TWO_PI * 1.7e6, g0=TWO_PI * 145.0),
                Cavity(
                    omega=TWO_PI * 9.93e9,
                    kappa=TWO_PI * 2.1e6,
                    g0=TWO_PI * 170.0,
                    kappa_ext=TWO_PI * 2.1e6,
                ),
            ),
        )
        s11 = driven_response(cfg, DriveSet(), 2, np.array([0.0]))
        assert s11[0] == pytest.approx(-1.0, abs=1e-12)

    def test_partially_coupled_reflection(self, cfg):
        s11 = driven_response(cfg, DriveSet(), 2, np.array([0.0]))
        assert s11[0] == pytest.approx(-0.9, abs=1e-12)

    def test_window_width_cooling(self, cfg, mech, cooling_529):
        fwhm = transparency_window_fwhm(cfg, cooling_529, 2)
        assert fwhm == pytest.approx(mech.gamma + 529.0 * mech.gamma, rel=0.01)

    def test_window_width_squeezing_configs(self, cfg, mech):
        for g_minus, ratio in ((529.0, 0.0), (1643.0, 0.07), (1643.0, 0.25)):
            rate = g_minus * mech.gamma
            if ratio:
                ds = DriveSet(drive_pair(2, rate, ratio * rate))
            else:
                ds = DriveSet((Drive(2, "lower", rate),))
            fwhm = transparency_window_fwhm(cfg, ds, 2)
            assert fwhm == pytest.approx(effective_linewidth(cfg, ds), rel=0.01)

    def test_unstable_rejected(self, cfg, mech):
        with pytest.raises(InstabilityError):
            driven_response(
                cfg,
                DriveSet(drive_pair(2, mech.gamma, 30.0 * mech.gamma)),
                2,
                np.array([0.0]),
            )


@pytest.mark.parametrize("kernel", ["output_spectrum", "write_csv"])
def test_warm_hot_kernels_take_no_page_faults(cfg, mech, tmp_path, kernel):
    # glibc trims the top of its heap once it exceeds twice the largest
    # mmapped chunk freed so far (mallopt(3)): a call whose temporaries sum to
    # more than that hands its pages back and faults them in again next time
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap trimming rule is glibc's")
    import resource

    from conftest import qnd_config

    model = build_linear_model(cfg, qnd_config(mech, 1.0, detuning=TWO_PI * 5e4))
    grid = spectrum_grid(model, points=4001)
    rng = np.random.default_rng(16)
    flux = output_spectrum(model, 1, grid).flux
    columns = (grid, flux, rng.normal(size=4001), 1e-12 * rng.normal(size=4001))
    calls = {
        "output_spectrum": lambda: output_spectrum(model, 1, grid),
        "write_csv": lambda: write_csv(tmp_path / "table.csv", ("a", "b", "c", "d"), columns),
    }
    call = calls[kernel]
    call()
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def test_array_records_compare_and_hash_by_identity(cfg, mech, cooling_529):
    # records that hold arrays compare by identity: field-wise == would ask
    # numpy for the truth value of an array, and hash() would fail
    model = build_linear_model(cfg, cooling_529)
    spectrum = output_spectrum(model, 2, spectrum_grid(model, points=41))
    phases = np.linspace(0.0, math.pi, 7)
    records = [
        model,
        steady_covariance(model),
        spectrum,
        synthesize(spectrum, NoiseModel(), stream=0),
        tomography_sweep(phases, 1.0 + 0.5 * np.sin(phases) ** 2, np.full(7, 0.01)),
        TruncatedState(rho=np.eye(3) / 3.0, n_trunc=3),
        coherence_blocks(EffectiveDissipators.from_drives(mech, cooling_529), 8),
    ]
    for record in records:
        twin = copy.deepcopy(record)  # equal fields, distinct arrays
        assert record == record
        assert record != twin
        assert len({record, twin, record}) == 2
