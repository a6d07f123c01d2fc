import math

import numpy as np
import pytest

from twotone.dynamics import build_linear_model
from twotone.errors import DomainError
from twotone.sysmodel import (
    Cavity,
    Drive,
    DriveSet,
    MechanicalMode,
    SystemConfig,
    drive_pair,
    is_qnd,
    photons_for_rate,
    scattering_rate,
    validate_system,
)

TWO_PI = 2.0 * math.pi


class TestScatteringRate:
    def test_device_control_tone(self):
        # 4 (2 pi 170)^2 88470 / (2 pi 2.1e6) evaluated independently
        expected = 4.0 * (TWO_PI * 170.0) ** 2 * 88470.0 / (TWO_PI * 2.1e6)
        rate = scattering_rate(TWO_PI * 170.0, 88470.0, TWO_PI * 2.1e6)
        assert rate == pytest.approx(expected, rel=1e-15)
        assert rate / TWO_PI == pytest.approx(4.87e3, rel=1e-3)

    def test_no_photons_no_scattering(self):
        assert scattering_rate(TWO_PI * 170.0, 0.0, TWO_PI * 2.1e6) == 0.0

    def test_single_photon_rate(self):
        rate = scattering_rate(TWO_PI * 145.0, 1.0, TWO_PI * 1.7e6)
        assert rate / TWO_PI == pytest.approx(0.0494705882352941, rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            scattering_rate(bad, 10.0, 1.0)
        with pytest.raises(DomainError):
            scattering_rate(1.0, bad, 1.0)

    def test_kappa_must_be_positive(self):
        with pytest.raises(DomainError):
            scattering_rate(1.0, 1.0, 0.0)

    def test_linear_in_photons_quadratic_in_g0(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g0, n, kappa = rng.uniform(0.1, 1e4, size=3)
            base = scattering_rate(g0, n, kappa)
            assert scattering_rate(g0, 3.0 * n, kappa) == pytest.approx(3.0 * base, rel=1e-14)
            assert scattering_rate(2.0 * g0, n, kappa) == pytest.approx(4.0 * base, rel=1e-14)


class TestPhotonsForRate:
    def test_inverts_device_rate(self):
        n = photons_for_rate(TWO_PI * 170.0, TWO_PI * 4.87e3, TWO_PI * 2.1e6)
        assert n == pytest.approx(8.85e4, rel=2e-3)

    def test_zero_rate(self):
        assert photons_for_rate(TWO_PI * 170.0, 0.0, TWO_PI * 2.1e6) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g0, rate, kappa = rng.uniform(0.5, 1e5, size=3)
            back = scattering_rate(g0, photons_for_rate(g0, rate, kappa), kappa)
            assert abs(back - rate) < 1e-12 * rate

    def test_zero_coupling_rejected(self):
        with pytest.raises(DomainError):
            photons_for_rate(0.0, 1.0, 1.0)


class TestIsQnd:
    def test_balanced_pair_with_cooling(self, mech):
        g2 = 529.0 * mech.gamma
        ds = DriveSet((Drive(2, "lower", g2),) + drive_pair(1, 0.9 * g2, 0.9 * g2))
        assert is_qnd(ds, 1)
        assert not is_qnd(ds, 2)

    def test_single_sideband_is_not(self, mech):
        ds = DriveSet((Drive(1, "lower", mech.gamma * 100.0),))
        assert not is_qnd(ds, 1)

    def test_detuned_pair_is_not(self, mech):
        ds = DriveSet(drive_pair(1, 10.0, 10.0, detuning=50.0 * mech.gamma))
        assert not is_qnd(ds, 1, gamma_m=mech.gamma)
        assert not is_qnd(ds, 1)

    def test_rate_mismatch(self):
        ds = DriveSet(drive_pair(1, 10.0, 10.0 * (1 + 1e-6)))
        assert not is_qnd(ds, 1)

    def test_swap_and_global_phase_invariance(self):
        lo, up = drive_pair(1, 5.0, 5.0, angle=0.3)
        assert is_qnd(DriveSet((lo, up)), 1) == is_qnd(DriveSet((up, lo)), 1)
        shifted = DriveSet(
            (
                Drive(1, "lower", 5.0, phase=lo.phase + 1.1),
                Drive(1, "upper", 5.0, phase=up.phase + 1.1),
            )
        )
        assert is_qnd(shifted, 1)

    def test_zero_rate_pair_is_not(self):
        ds = DriveSet(drive_pair(1, 0.0, 0.0))
        assert not is_qnd(ds, 1)


class TestTypes:
    def test_default_external_coupling(self):
        cav = Cavity(omega=1e10, kappa=1e6, g0=100.0)
        assert cav.kappa_ext == pytest.approx(0.95e6)
        assert cav.kappa_int == pytest.approx(0.05e6)

    def test_cavity_invariants(self):
        with pytest.raises(DomainError):
            Cavity(omega=1e10, kappa=1e6, g0=100.0, kappa_ext=2e6)
        with pytest.raises(DomainError):
            Cavity(omega=1e10, kappa=1e6, g0=0.0)
        with pytest.raises(DomainError):
            Cavity(omega=1e10, kappa=1e6, g0=10.0, n_thermal=-0.1)

    def test_mechanics_invariants(self):
        with pytest.raises(DomainError):
            MechanicalMode(omega=0.0, gamma=1.0, n_thermal=0.0)
        with pytest.raises(DomainError):
            MechanicalMode(omega=1.0, gamma=-1.0, n_thermal=0.0)
        assert MechanicalMode(omega=1.0, gamma=1.0, n_thermal=42.0).thermal_variance == 85.0

    def test_sideband_resolution_required(self, mech):
        with pytest.raises(DomainError):
            SystemConfig(
                mech=mech,
                cavities=(
                    Cavity(omega=1e10, kappa=2.0 * mech.omega, g0=100.0),
                    Cavity(omega=1e10, kappa=1e6, g0=100.0),
                ),
            )

    def test_duplicate_slot_rejected(self):
        with pytest.raises(DomainError):
            DriveSet((Drive(1, "lower", 1.0), Drive(1, "lower", 2.0)))

    def test_drive_validation(self):
        with pytest.raises(DomainError):
            Drive(3, "lower", 1.0)
        with pytest.raises(DomainError):
            Drive(1, "middle", 1.0)
        with pytest.raises(DomainError):
            Drive(1, "lower", -1.0)

    def test_drive_pair_layout(self):
        lo, up = drive_pair(2, 3.0, 4.0, angle=0.25, detuning=10.0)
        assert lo.slot == (2, "lower") and up.slot == (2, "upper")
        assert lo.detuning == -10.0 and up.detuning == 10.0
        assert lo.phase == -0.25 and up.phase == 0.25


class TestValidateSystem:
    def test_device_parameters_pass(self, cfg, cooling_529):
        report = validate_system(cfg, cooling_529)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["resolved_sideband_cavity1"].value == pytest.approx(8.8, abs=0.05)
        assert by_name["resolved_sideband_cavity2"].value == pytest.approx(7.1, abs=0.05)

    def test_marginally_resolved_cavity_fails(self, mech):
        cfg = SystemConfig(
            mech=mech,
            cavities=(
                Cavity(omega=1e10, kappa=mech.omega / 2.0, g0=100.0),
                Cavity(omega=1e10, kappa=1e6, g0=100.0),
            ),
        )
        report = validate_system(cfg, DriveSet())
        assert not report.passed
        assert any(c.name == "resolved_sideband_cavity1" for c in report.failures())

    @pytest.mark.parametrize("ratio, resolved", [(4.9, False), (5.1, True)])
    def test_linear_model_agrees_on_sideband_resolution(self, mech, ratio, resolved):
        cfg = SystemConfig(
            mech=mech,
            cavities=(
                Cavity(omega=1e10, kappa=mech.omega / ratio, g0=100.0),
                Cavity(omega=1e10, kappa=1e6, g0=100.0),
            ),
        )
        failed = {c.name for c in validate_system(cfg, DriveSet()).failures()}
        assert ("resolved_sideband_cavity1" not in failed) == resolved
        if resolved:
            build_linear_model(cfg, DriveSet())
        else:
            with pytest.raises(DomainError):
                build_linear_model(cfg, DriveSet())

    def test_strong_drive_fails_weak_coupling(self, cfg):
        kappa = cfg.cavity(2).kappa
        report = validate_system(cfg, DriveSet((Drive(2, "lower", kappa / 2.0),)))
        assert any(c.name.startswith("weak_coupling") for c in report.failures())

    def test_weak_drive_warns_on_hierarchy(self, cfg, mech):
        report = validate_system(cfg, DriveSet((Drive(2, "lower", 0.5 * mech.gamma),)))
        assert report.passed
        assert any(c.name.startswith("rate_hierarchy") for c in report.warnings())

    def test_deterministic(self, cfg, cooling_529):
        a = validate_system(cfg, cooling_529)
        b = validate_system(cfg, cooling_529)
        assert a == b
