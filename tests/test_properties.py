"""Property-based checks of invariants over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twotone.oracle import EffectiveDissipators, build_liouvillian

coefficient = st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)

dissipators = st.builds(
    EffectiveDissipators,
    gamma_m=st.floats(min_value=0.01, max_value=10.0),
    n_thermal=st.floats(min_value=0.0, max_value=50.0),
    engineered=st.lists(st.tuples(coefficient, coefficient), max_size=3).map(tuple),
)


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
