"""Property-based checks of invariants over random inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twotone.analytic import quadrature_variances, variance_of_phase
from twotone.dynamics import build_linear_model, mechanical_marginal, steady_covariance
from twotone.oracle import EffectiveDissipators, build_liouvillian, gaussian_covariance
from twotone.sysmodel import DriveSet, drive_pair

coefficient = st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)

dissipators = st.builds(
    EffectiveDissipators,
    gamma_m=st.floats(min_value=0.01, max_value=10.0),
    n_thermal=st.floats(min_value=0.0, max_value=50.0),
    engineered=st.lists(st.tuples(coefficient, coefficient), max_size=3).map(tuple),
)

angle = st.floats(min_value=0.0, max_value=math.pi)

# A squeezing pair on cavity 2 and an unbalanced pair on cavity 1, both on
# resonance: (G-, G+/G-, angle, Gmeas-/G-, Gmeas+/Gmeas-, angle) with rates in
# units of the mechanical damping. Every pair damps, so the steady state exists.
resonant_pairs = st.tuples(
    st.floats(min_value=30.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=0.9),
    angle,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    angle,
)


def device_drive_set(mech, g_minus, plus_ratio, theta, meas_ratio, meas_plus, phi):
    rate = g_minus * mech.gamma
    return DriveSet(
        drive_pair(2, rate, plus_ratio * rate, angle=theta)
        + drive_pair(1, meas_ratio * rate, meas_plus * meas_ratio * rate, angle=phi)
    )


ANGLES = np.linspace(0.0, math.pi, 7)


@settings(max_examples=60, deadline=None)
@given(d=dissipators, n=st.integers(min_value=2, max_value=40))
def test_generator_preserves_trace(d, n):
    lv = build_liouvillian(d, n)
    trace_row = np.zeros(n * n)
    trace_row[np.arange(n) * (n + 1)] = 1.0
    assert np.max(np.abs(lv.T @ trace_row)) <= 1e-13 * np.max(np.abs(lv.data))


@settings(max_examples=60, deadline=None)
@given(
    d=dissipators,
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generator_preserves_hermiticity(d, n, seed):
    # L[rho+] = L[rho]+ for any operator rho, Hermitian or not
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lv = build_liouvillian(d, n)

    def apply(op):
        return (lv @ op.ravel(order="F")).reshape((n, n), order="F")

    lhs = apply(rho.conj().T)
    rhs = apply(rho).conj().T
    scale = np.max(np.abs(lv.data)) * np.max(np.abs(rho))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(drives=resonant_pairs)
def test_oracle_gaussian_covariance_is_the_closed_form(mech, drives):
    ds = device_drive_set(mech, *drives)
    v = gaussian_covariance(EffectiveDissipators.from_drives(mech, ds))
    closed = quadrature_variances(mech, ds)
    for phi in ANGLES:
        c, s = math.cos(phi), math.sin(phi)
        variance = v[0, 0] * c * c + v[1, 1] * s * s + 2.0 * v[0, 1] * s * c
        np.testing.assert_allclose(variance, variance_of_phase(closed, phi), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(drives=resonant_pairs)
def test_lyapunov_matches_the_closed_form(cfg, drives):
    ds = device_drive_set(cfg.mech, *drives)
    lyap = mechanical_marginal(steady_covariance(build_linear_model(cfg, ds)))
    closed = quadrature_variances(cfg.mech, ds)
    for phi in ANGLES:
        np.testing.assert_allclose(
            variance_of_phase(lyap, phi), variance_of_phase(closed, phi), rtol=0.01
        )
