import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm

from twotone.analytic import quadrature_variances
from twotone.errors import DomainError, NumericalError, TruncationError
from twotone.oracle import (
    EffectiveDissipators,
    TruncatedState,
    _lowering,
    build_liouvillian,
    converged_steady_state,
    number_occupancy,
    quad_variance,
    required_truncation,
    steady_state,
)
from twotone.sysmodel import Drive, DriveSet, drive_pair


def reference_variances(n_th, gamma_m, g_minus, g_plus):
    den = gamma_m + g_minus - g_plus
    v1 = (gamma_m * (2 * n_th + 1) + (math.sqrt(g_minus) - math.sqrt(g_plus)) ** 2) / den
    v2 = (gamma_m * (2 * n_th + 1) + (math.sqrt(g_minus) + math.sqrt(g_plus)) ** 2) / den
    return v1, v2


def kron_liouvillian(d, n):
    """Reference build: one Kronecker sum per collapse operator."""
    b = _lowering(n)
    bdag = b.conj().T
    eye = sp.identity(n, dtype=complex, format="csr")
    lv = sp.csr_matrix((n**2, n**2), dtype=complex)
    for cm, cp in d.collapse_coefficients():
        if cm == 0 and cp == 0:
            continue
        c = (cm * b + cp * bdag).tocsr()
        cdc = (c.conj().T @ c).tocsr()
        lv = lv + sp.kron(c.conj(), c) - 0.5 * sp.kron(eye, cdc) - 0.5 * sp.kron(cdc.T, eye)
    return lv.tocsr()


def device_dissipators(mech, g_minus, plus_ratio, meas_ratio=0.0, angle=0.0):
    """Squeezing pair on cavity 2 plus an optional balanced measurement pair
    on cavity 1, rates in units of the mechanical damping."""
    rate = g_minus * mech.gamma
    drives = drive_pair(2, rate, plus_ratio * rate)
    if meas_ratio:
        drives += drive_pair(1, meas_ratio * rate, meas_ratio * rate, angle=angle)
    return EffectiveDissipators.from_drives(mech, DriveSet(drives))


class TestMomentBuild:
    """The (A, B, C) moment build against the Kronecker-sum reference."""

    @pytest.mark.parametrize(
        "case, n",
        [
            ("thermal", 30),
            ("device_with_pair", 41),
            ("zero_coefficient", 18),
            ("device_with_pair", 2),
            ("thermal", 2),
            ("device_with_pair", 62),
            ("zero_coefficient", 70),
        ],
    )
    def test_matches_kron_sum(self, mech, case, n):
        d = {
            "thermal": EffectiveDissipators(gamma_m=mech.gamma, n_thermal=mech.n_thermal),
            "device_with_pair": device_dissipators(mech, 300.0, 0.1, 0.4, angle=0.7),
            "zero_coefficient": EffectiveDissipators(
                gamma_m=1.0, n_thermal=0.0, engineered=((10.0 * np.exp(0.3j), 0.0),)
            ),
        }[case]
        built = build_liouvillian(d, n)
        reference = kron_liouvillian(d, n)
        assert built.shape == reference.shape
        assert built.nnz == reference.nnz
        built.sort_indices()
        reference.sort_indices()
        np.testing.assert_array_equal(built.indptr, reference.indptr)
        np.testing.assert_array_equal(built.indices, reference.indices)
        np.testing.assert_allclose(built.data, reference.data, rtol=1e-14, atol=0.0)

    def test_moments_fold_the_collapse_operators(self):
        d = EffectiveDissipators(
            gamma_m=2.0, n_thermal=1.5, engineered=((3.0, 1.0j), (2.0 * np.exp(0.2j), 0.5))
        )
        A, B, C = d.moments()
        assert A == pytest.approx(2.0 * 2.5 + 9.0 + 4.0, rel=1e-15)
        assert B == pytest.approx(2.0 * 1.5 + 1.0 + 0.25, rel=1e-15)
        assert C == pytest.approx(3.0 * -1.0j + np.exp(0.2j), rel=1e-15)

    @pytest.mark.parametrize(
        "g_minus, plus_ratio, meas_ratio, angle, n_trunc",
        [
            (2000.0, 0.0, 0.0, 0.0, 8),
            (1000.0, 0.05, 0.0, 0.0, 12),
            (300.0, 0.1, 0.1, 0.5, 18),
            (200.0, 0.2, 0.3, 1.0, 27),
            (100.0, 0.3, 0.5, 2.0, 41),
            (60.0, 0.25, 0.9, 0.3, 62),
        ],
    )
    def test_growth_ladder_ends_on_the_same_rung(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        # rungs recorded with the Kronecker-sum build
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        assert converged_steady_state(d).n_trunc == n_trunc


class TestLiouvillian:
    def test_two_level_decay(self):
        d = EffectiveDissipators(gamma_m=3.0, n_thermal=0.0)
        lv = build_liouvillian(d, 2)
        assert lv.shape == (4, 4)
        excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        drho = (lv @ excited.flatten(order="F")).reshape(2, 2, order="F")
        assert drho[1, 1].real == pytest.approx(-3.0, rel=1e-14)
        assert drho[0, 0].real == pytest.approx(3.0, rel=1e-14)

    def test_trace_preservation(self):
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.5, engineered=((10.0, 2.0 * np.exp(0.4j)),)
        )
        lv = build_liouvillian(d, 25)
        trace_row = np.zeros(625)
        trace_row[np.arange(25) * 26] = 1.0
        residual = np.max(np.abs(trace_row @ lv.toarray()))
        assert residual < 1e-12 * norm(lv)

    def test_too_small_truncation_rejected(self):
        with pytest.raises(DomainError):
            build_liouvillian(EffectiveDissipators(gamma_m=1.0, n_thermal=0.0), 1)

    def test_unique_kernel_at_device_ratio(self):
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=0.5, engineered=((math.sqrt(100.0), math.sqrt(7.0)),)
        )
        lv = build_liouvillian(d, 14).toarray()
        singular_values = np.linalg.svd(lv, compute_uv=False)
        near_null = np.sum(singular_values < 1e-10 * singular_values[0])
        assert near_null == 1


class TestSteadyState:
    def test_thermal_is_bose_einstein(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=1.0)
        state = steady_state(build_liouvillian(d, 40))
        expected = 0.5 ** np.arange(40) / 2.0
        assert np.max(np.abs(state.populations - expected)) < 1e-8
        assert number_occupancy(state) == pytest.approx(1.0, abs=1e-6)

    def test_squeezed_bath_variances(self):
        v1_ref, v2_ref = reference_variances(1.0, 1.0, 100.0, 7.0)
        assert v1_ref == pytest.approx(0.6072869550926403, rel=1e-13)
        assert v2_ref == pytest.approx(1.7331385768222530, rel=1e-13)
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.0, engineered=((math.sqrt(100.0), math.sqrt(7.0)),)
        )
        state = steady_state(build_liouvillian(d, 40))
        assert quad_variance(state, 0.0) == pytest.approx(v1_ref, rel=0.005)
        assert quad_variance(state, math.pi / 2.0) == pytest.approx(v2_ref, rel=0.005)
        assert number_occupancy(state) == pytest.approx((v1_ref + v2_ref - 2.0) / 4.0, rel=0.005)

    def test_balanced_pair_keeps_thermal_variance(self):
        # the model value is exactly 2 n_th + 1; the truncated solve carries
        # a residue set by the anti-squeezed tail, within the 0.5% contract
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.0, engineered=((math.sqrt(5.0), math.sqrt(5.0)),)
        )
        state = converged_steady_state(d)
        assert quad_variance(state, 0.0) == pytest.approx(3.0, rel=0.005)
        assert quad_variance(state, math.pi / 2.0) == pytest.approx(
            3.0 + 4.0 * 5.0 / 1.0, rel=0.005
        )

    def test_degenerate_kernel_detected(self):
        with pytest.raises(NumericalError):
            steady_state(sp.csr_matrix((9, 9), dtype=complex))

    def test_truncation_too_small(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=3.0)
        with pytest.raises(TruncationError):
            steady_state(build_liouvillian(d, 8))

    def test_converged_steady_state_grows(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=3.0)
        state = converged_steady_state(d, n_start=8)
        assert state.tail_population < 1e-6
        assert number_occupancy(state) == pytest.approx(3.0, rel=1e-4)

    def test_state_validation(self):
        with pytest.raises(NumericalError):
            TruncatedState(rho=np.eye(4, dtype=complex), n_trunc=4)  # trace 4
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.2
        rho[1, 1] = -0.2
        with pytest.raises(NumericalError):
            TruncatedState(rho=rho, n_trunc=4)


class TestQuadVariance:
    def test_vacuum(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=0.0)
        state = steady_state(build_liouvillian(d, 10))
        for phi in (0.0, 0.4, math.pi / 2.0):
            assert quad_variance(state, phi) == pytest.approx(1.0, abs=1e-9)
        assert number_occupancy(state) == pytest.approx(0.0, abs=1e-9)

    def test_thermal(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=1.0)
        state = steady_state(build_liouvillian(d, 40))
        assert quad_variance(state, 1.1) == pytest.approx(3.0, abs=1e-7)


class TestAgainstClosedForm:
    def test_random_configurations(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 6:
            n_th = rng.uniform(0.0, 3.0)
            g_minus = rng.uniform(2.0, 300.0)
            g_plus = rng.uniform(0.0, 0.9) * g_minus
            v1_ref, v2_ref = reference_variances(n_th, 1.0, g_minus, g_plus)
            if required_truncation(v1_ref, v2_ref) > 56:
                continue
            checked += 1
            d = EffectiveDissipators(
                gamma_m=1.0,
                n_thermal=n_th,
                engineered=((math.sqrt(g_minus), math.sqrt(g_plus)),),
            )
            state = converged_steady_state(d, n_max=60)
            assert quad_variance(state, 0.0) == pytest.approx(v1_ref, rel=0.005)
            assert quad_variance(state, math.pi / 2.0) == pytest.approx(v2_ref, rel=0.005)

    def test_from_drives_matches_manual(self, mech):
        ds = DriveSet(drive_pair(2, 100.0 * mech.gamma, 7.0 * mech.gamma))
        d = EffectiveDissipators.from_drives(mech, ds)
        assert d.gamma_m == mech.gamma
        assert d.n_thermal == 42.0
        (cm, cp), = d.engineered
        assert abs(cm) ** 2 == pytest.approx(100.0 * mech.gamma, rel=1e-12)
        assert abs(cp) ** 2 == pytest.approx(7.0 * mech.gamma, rel=1e-12)

    def test_from_drives_rejects_detuned(self, mech):
        ds = DriveSet((Drive(2, "lower", mech.gamma, detuning=1.0),))
        with pytest.raises(DomainError):
            EffectiveDissipators.from_drives(mech, ds)

    def test_measurement_pair_dephases_only_orthogonal(self):
        # balanced pair at angle phi: variance at phi untouched, variance at
        # phi + pi/2 raised by 4 gamma / gamma_total
        phi = 0.7
        gamma = 2.0
        base = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.0, engineered=((math.sqrt(50.0), math.sqrt(10.0)),)
        )
        with_pair = EffectiveDissipators(
            gamma_m=1.0,
            n_thermal=1.0,
            engineered=(
                (math.sqrt(50.0), math.sqrt(10.0)),
                (math.sqrt(gamma) * np.exp(-1j * phi), math.sqrt(gamma) * np.exp(1j * phi)),
            ),
        )
        s_base = converged_steady_state(base)
        s_pair = converged_steady_state(with_pair)
        assert quad_variance(s_pair, phi) == pytest.approx(quad_variance(s_base, phi), rel=0.005)
        gamma_total = 1.0 + 50.0 - 10.0
        assert quad_variance(s_pair, phi + math.pi / 2.0) - quad_variance(
            s_base, phi + math.pi / 2.0
        ) == pytest.approx(4.0 * gamma / gamma_total, rel=0.005)

    def test_truncation_convergence(self):
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.0, engineered=((math.sqrt(100.0), math.sqrt(7.0)),)
        )
        coarse = steady_state(build_liouvillian(d, 30))
        fine = steady_state(build_liouvillian(d, 60))
        tolerance = 0.005 * quad_variance(fine, 0.0)
        assert abs(quad_variance(coarse, 0.0) - quad_variance(fine, 0.0)) < 0.1 * tolerance

    def test_device_squeeze_ratio_at_reduced_occupancy(self):
        # the device drive-rate ratio cross-checked at a Fock-tractable
        # thermal occupancy; the formulas are parameter-free in form
        g_minus, ratio, n_th = 1643.0, 0.07, 1.0
        v1_ref, v2_ref = reference_variances(n_th, 1.0, g_minus, ratio * g_minus)
        d = EffectiveDissipators(
            gamma_m=1.0,
            n_thermal=n_th,
            engineered=((math.sqrt(g_minus), math.sqrt(ratio * g_minus)),),
        )
        state = converged_steady_state(d)
        assert quad_variance(state, 0.0) == pytest.approx(v1_ref, rel=0.005)
        assert quad_variance(state, math.pi / 2.0) == pytest.approx(v2_ref, rel=0.005)
        assert quad_variance(state, 0.0) < 1.0  # sub-vacuum

    def test_rotated_bath_squeezes_along_its_axis(self):
        from twotone.analytic import variance_of_phase
        from twotone.sysmodel import MechanicalMode

        theta = 0.9
        mech = MechanicalMode(omega=1e6, gamma=1.0, n_thermal=1.0)
        ds = DriveSet(drive_pair(2, 80.0, 8.0, angle=theta))
        closed = quadrature_variances(mech, ds)
        state = converged_steady_state(EffectiveDissipators.from_drives(mech, ds))
        for phi in (0.0, theta, theta + math.pi / 2.0, 2.0):
            assert quad_variance(state, phi) == pytest.approx(
                variance_of_phase(closed, phi), rel=0.005
            )

    def test_three_route_consistency(self, cfg):
        # one squeezed configuration computed by the closed form, the full
        # Lyapunov model and the reduced master equation
        from twotone.dynamics import build_linear_model, mechanical_marginal, steady_covariance
        from twotone.sysmodel import MechanicalMode, SystemConfig

        mech = MechanicalMode(omega=cfg.mech.omega, gamma=cfg.mech.gamma, n_thermal=1.0)
        small = SystemConfig(mech=mech, cavities=cfg.cavities)
        ds = DriveSet(drive_pair(2, 120.0 * mech.gamma, 10.0 * mech.gamma))
        closed = quadrature_variances(mech, ds)
        lyap = mechanical_marginal(steady_covariance(build_linear_model(small, ds)))
        state = converged_steady_state(EffectiveDissipators.from_drives(mech, ds))
        assert lyap.v1 == pytest.approx(closed.v1, rel=0.01)
        assert lyap.v2 == pytest.approx(closed.v2, rel=0.01)
        assert quad_variance(state, 0.0) == pytest.approx(closed.v1, rel=0.005)
        assert quad_variance(state, math.pi / 2.0) == pytest.approx(closed.v2, rel=0.005)
