"""Property-based checks of invariants over random inputs."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import device_drive_set, dissipators, resonant_pairs
from twotone.analytic import quadrature_variances, variance_of_phase
from twotone.dynamics import (
    _resolvent_solve,
    build_linear_model,
    mechanical_marginal,
    spectrum_grid,
    steady_covariance,
)
from twotone.oracle import EffectiveDissipators, build_liouvillian, gaussian_covariance
from twotone.sysmodel import DriveSet
from twotone.tables import write_csv

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


@settings(max_examples=40, deadline=None)
@given(drives=resonant_pairs)
def test_lyapunov_covariance_is_physical(cfg, drives):
    # V + iJ >= 0: the uncertainty principle for all three modes at once
    ds = device_drive_set(cfg.mech, *drives)
    assert steady_covariance(build_linear_model(cfg, ds)).is_physical()


def assert_matches_per_frequency_solve(c, w, index, adjoint):
    """The batched column matches np.linalg.solve to 1e-12 of each point's largest entry."""
    got = _resolvent_solve(c, w, index, adjoint=adjoint)[:6].T
    solved = c.T if adjoint else c
    expected = np.array([np.linalg.solve(-1j * f * np.eye(6) - solved, np.eye(6)[index]) for f in w])
    scale = np.max(np.abs(expected), axis=1, keepdims=True)
    assert np.max(np.abs(got - expected) / scale) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    structure=st.sampled_from(["dense", "reducible", "undriven"]),
    index=st.integers(min_value=0, max_value=5),
    adjoint=st.booleans(),
    points=st.integers(min_value=1, max_value=50),
    log_span=st.floats(min_value=-2.0, max_value=2.0),
)
def test_resolvent_solve_matches_per_frequency_solve(
    cfg, seed, structure, index, adjoint, points, log_span
):
    # The drift keeps the one structure the solver relies on, a diagonal
    # cavity block, and is generic otherwise. The grid reaches from well
    # inside the spectrum, where the pivot of the 2 x 2 mechanical system is
    # the lower entry, to far outside, where it is the diagonal one.
    rng = np.random.default_rng(seed)
    if structure == "undriven":
        # diagonal: the mechanics and every cavity mode are decoupled
        c = build_linear_model(cfg, DriveSet()).complex_drift
    else:
        c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        c[:4, :4] *= np.eye(4)
        if structure == "reducible":
            # the solved matrix maps the coordinates in `block`, `index` among
            # them, into themselves, so entries outside it are exactly zero
            block = np.zeros(6, dtype=bool)
            block[rng.permutation(6)[: rng.integers(1, 6)]] = True
            block[index] = True
            (c.T if adjoint else c)[np.ix_(~block, block)] = 0.0
        c -= (np.linalg.eigvals(c).real.max() + 0.5) * np.eye(6)
    w = 10.0**log_span * np.max(np.abs(c)) * rng.uniform(-1.0, 1.0, points)
    assert_matches_per_frequency_solve(c, w, index, adjoint)


@settings(max_examples=60, deadline=None)
@given(
    drives=resonant_pairs,
    index=st.integers(min_value=0, max_value=5),
    adjoint=st.booleans(),
    log_span=st.floats(min_value=-2.0, max_value=3.0),
)
def test_resolvent_solve_matches_per_frequency_solve_on_device_drifts(
    cfg, drives, index, adjoint, log_span
):
    # every drift the model builds has the structure the solver needs
    ds = device_drive_set(cfg.mech, *drives)
    m = build_linear_model(cfg, ds)
    w = 10.0**log_span * spectrum_grid(m, points=41)
    assert_matches_per_frequency_solve(m.complex_drift, w, index, adjoint)


# any 64-bit pattern: +-0, subnormals, nan payloads and +-inf occur as well
raw_double = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
# any mantissa, binary exponents of about 1e-280 to 1e280
scaled_double = st.builds(
    lambda mantissa, exponent, sign: sign * math.ldexp(1.0 + mantissa / 2**52, exponent),
    st.integers(min_value=0, max_value=2**52 - 1),
    st.integers(min_value=-930, max_value=930),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(raw_double, scaled_double, st.floats()), min_size=1, max_size=120),
    columns=st.integers(min_value=1, max_value=4),
)
def test_csv_fields_are_percent_17g(tmp_path_factory, values, columns):
    columns = min(columns, len(values))
    table = np.array(values[: len(values) // columns * columns]).reshape(-1, columns)
    path = tmp_path_factory.getbasetemp() / "fields.csv"
    write_csv(path, [f"c{j}" for j in range(columns)], table.T, [("rows", len(table))])
    lines = path.read_text().split("\n")
    assert lines[:2] == [f"# rows: {len(table)}", ",".join(f"c{j}" for j in range(columns))]
    assert lines[2:] == [",".join("%.17g" % v for v in row) for row in table.tolist()] + [""]
