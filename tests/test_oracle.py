import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import norm, splu

from conftest import LADDER_CASES, device_drives, sample_truncation_estimate
from twotone import oracle
from twotone.analytic import quadrature_variances
from twotone.errors import DomainError, InstabilityError, NumericalError, TruncationError
from twotone.oracle import (
    EffectiveDissipators,
    TAIL_THRESHOLD,
    TruncatedState,
    _lowering,
    build_liouvillian,
    converged_steady_state,
    gaussian_covariance,
    gaussian_populations,
    number_occupancy,
    quad_variance,
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


def two_factorization_steady_state(lv):
    """Reference solve: the full constrained system factorized twice.

    Row 0 and then row N^2 - 1 of L are replaced by the trace functional,
    each system gets its own LU, and the two solutions must agree; the
    checks and the normalization are those of ``steady_state``.
    """
    size = lv.shape[0]
    n = math.isqrt(size)
    coo = lv.tocoo()
    diagonal = np.arange(n) * (n + 1)

    def solve_with_replaced_row(row_index):
        keep = coo.row != row_index
        mat = sp.csc_matrix(
            (
                np.concatenate([coo.data[keep], np.ones(n)]),
                (
                    np.concatenate([coo.row[keep], np.full(n, row_index)]),
                    np.concatenate([coo.col[keep], diagonal]),
                ),
            ),
            shape=(size, size),
        )
        rhs = np.zeros(size, dtype=complex)
        rhs[row_index] = 1.0
        try:
            return splu(mat).solve(rhs)
        except RuntimeError as exc:
            raise NumericalError(f"steady-state solve failed: {exc}") from exc

    x1 = solve_with_replaced_row(0)
    x2 = solve_with_replaced_row(size - 1)
    if np.max(np.abs(x1 - x2)) > 1e-8 * max(1.0, np.max(np.abs(x1))):
        raise NumericalError("Liouvillian kernel is degenerate")
    residual = np.linalg.norm(lv @ x1)
    if residual > 1e-9 * max(norm(lv) * np.linalg.norm(x1), 1.0):
        raise NumericalError(f"steady-state residual {residual:.3g} too large")
    rho = x1.reshape((n, n), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    state = TruncatedState(rho=rho / np.trace(rho).real, n_trunc=n)
    if state.tail_population > TAIL_THRESHOLD:
        raise TruncationError("top-level population exceeds the threshold")
    return state


def device_dissipators(mech, g_minus, plus_ratio, meas_ratio=0.0, angle=0.0):
    return EffectiveDissipators.from_drives(
        mech, device_drives(mech, g_minus, plus_ratio, meas_ratio, angle)
    )


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

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_growth_ladder_ends_on_the_same_rung(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        # rungs recorded with the Kronecker-sum build
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        assert converged_steady_state(d).n_trunc == n_trunc


def record_solves(monkeypatch):
    """Truncation of every ``steady_state`` solve made through the oracle module."""
    solved = []

    def spy(lv):
        solved.append(math.isqrt(lv.shape[0]))
        return steady_state(lv)

    monkeypatch.setattr(oracle, "steady_state", spy)
    return solved


class TestTruncationPrediction:
    """The converged search starts where the Gaussian state's Fock tail predicts."""

    def test_populations_match_the_truncated_solve(self):
        thermal = EffectiveDissipators(gamma_m=1.0, n_thermal=1.0)
        np.testing.assert_allclose(
            gaussian_populations(gaussian_covariance(thermal), 40),
            0.5 ** np.arange(1, 41),
            rtol=1e-13,
            atol=0.0,
        )
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=1.0, engineered=((math.sqrt(100.0), math.sqrt(7.0)),)
        )
        state = steady_state(build_liouvillian(d, 40))
        predicted = gaussian_populations(gaussian_covariance(d), 40)
        assert np.max(np.abs(predicted - state.populations)) < 1e-12

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_predicted_rung_is_solved_once(
        self, mech, monkeypatch, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        solved = record_solves(monkeypatch)
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        assert converged_steady_state(d).n_trunc == n_trunc
        assert solved == [n_trunc]

    def test_state_hotter_than_the_budget_raises(self, monkeypatch):
        solved = record_solves(monkeypatch)
        with pytest.raises(TruncationError):
            converged_steady_state(EffectiveDissipators(gamma_m=1.0, n_thermal=40.0), n_max=60)
        assert solved == [60]

    def test_antidamped_bath_climbs_the_whole_ladder(self, monkeypatch):
        # A - B = -7: no Gaussian steady state, so every rung is tried
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=0.0, engineered=((1.0, 3.0),))
        with pytest.raises(InstabilityError):
            gaussian_covariance(d)
        solved = record_solves(monkeypatch)
        with pytest.raises(TruncationError):
            converged_steady_state(d, n_max=30)
        assert solved == [8, 12, 18, 27, 30]


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
        state = converged_steady_state(d)
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


def jump_generator(rates):
    """Generator of classical jumps, rates[i, j] from level i to level j.

    Coherences only decay, so the generator conserves the parity of p + q.
    """
    n = len(rates)
    out = rates.sum(axis=1)
    index = np.arange(n * n).reshape(n, n)  # index[q, p] = p + qN
    lv = sp.lil_matrix((n * n, n * n), dtype=complex)
    for p in range(n):
        for q in range(n):
            lv[index[q, p], index[q, p]] = -0.5 * (out[p] + out[q])
    for i, j in zip(*np.nonzero(rates)):
        lv[index[j, j], index[i, i]] += rates[i, j]
    return lv.tocsr()


def two_block_rates(n, seed):
    """n x n jump rates, random within the closed blocks of levels 0-2 and 3-5."""
    rng = np.random.default_rng(seed)
    rates = np.zeros((n, n))
    for block in (range(0, 3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    rates[i, j] = rng.uniform(0.5, 2.0)
    return rates


def two_block_generator(eps, seed):
    """Classical jumps between the levels of two 3-level blocks, linked at rate eps.

    Levels 0-2 and 3-5 jump among themselves at random rates; eps joins
    level 2 and level 3 both ways, so at eps = 0 the kernel is two-fold.
    Jumps into the top level are slowed 1e7-fold to keep it nearly empty.
    """
    rates = two_block_rates(6, seed)
    rates[:, 5] *= 1e-7
    rates[2, 3] = rates[3, 2] = eps
    return jump_generator(rates)


def drained_two_block_generator(seed):
    """Two closed 3-level blocks plus an empty level 6 that decays into level 0.

    The kernel is two-fold, one state per block, yet the row-swap
    comparison alone does not see it for seeds 4-8 and 10.
    """
    rates = two_block_rates(7, seed)
    rates[6, 0] = 1.0
    return jump_generator(rates)


class TestSectorSolve:
    """One LU of the even parity sector against the two-factorization reference."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_weakly_linked_blocks_agree(self, eps, seed):
        lv = two_block_generator(eps, seed)
        state = steady_state(lv)
        reference = two_factorization_steady_state(lv)
        np.testing.assert_allclose(state.rho, reference.rho, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [1e-12, 0.0])
    def test_degenerate_blocks_detected(self, eps, seed):
        lv = two_block_generator(eps, seed)
        with pytest.raises(NumericalError):
            two_factorization_steady_state(lv)
        with pytest.raises(NumericalError):
            steady_state(lv)

    @pytest.mark.parametrize("seed", [4, 5, 6, 7, 8, 10])
    def test_kernel_hidden_from_the_row_swap_detected(self, seed):
        # without the pivot check these seeds returned the block-A state
        with pytest.raises(NumericalError, match="pivot ratio"):
            steady_state(drained_two_block_generator(seed))

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_scaled_generator_keeps_the_state(self, mech, scale):
        lv = build_liouvillian(device_dissipators(mech, 200.0, 0.2, 0.3, 1.0), 27)
        expected = steady_state(lv).populations
        scaled = steady_state(scale * lv).populations
        np.testing.assert_allclose(scaled, expected, rtol=0.0, atol=1e-12)

    def test_sector_coupling_rejected(self):
        # a coherent drive -i[F (b + b+), rho] mixes the parity of p + q
        n = 10
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=0.5)
        b = _lowering(n)
        h = 0.3 * (b + b.conj().T)
        eye = sp.identity(n, dtype=complex, format="csr")
        drive = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
        with pytest.raises(DomainError, match="parity"):
            steady_state((build_liouvillian(d, n) + drive).tocsr())

    def test_one_factorization_per_solve(self, mech, monkeypatch):
        calls = []

        def spy(mat):
            calls.append(mat.shape)
            return splu(mat)

        monkeypatch.setattr(oracle, "splu", spy)
        steady_state(build_liouvillian(device_dissipators(mech, 300.0, 0.1, 0.1, 0.5), 18))
        assert calls == [(162, 162)]  # the even sector of N = 18: 18^2 / 2 unknowns

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES[:5])
    def test_odd_block_is_well_conditioned(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        # the solve skips the odd sector, which would hide a kernel there
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        lv = build_liouvillian(d, n_trunc)
        index = np.arange(n_trunc**2)
        odd = np.flatnonzero((index % n_trunc + index // n_trunc) % 2 == 1)
        assert np.linalg.cond(lv[odd][:, odd].toarray()) < 1e6


settled_baths = st.builds(
    lambda gamma_m, n_thermal, pairs: EffectiveDissipators(
        gamma_m=gamma_m,
        n_thermal=n_thermal,
        engineered=tuple((m * np.exp(1j * a), r * m * np.exp(1j * b)) for m, r, a, b in pairs),
    ),
    gamma_m=st.floats(min_value=0.01, max_value=10.0),
    n_thermal=st.floats(min_value=0.0, max_value=1.0),
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0),
            st.floats(min_value=0.0, max_value=0.6),
            st.floats(min_value=0.0, max_value=2.0 * math.pi),
            st.floats(min_value=0.0, max_value=2.0 * math.pi),
        ),
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(d=settled_baths, n=st.integers(min_value=2, max_value=40))
def test_sector_solve_matches_two_factorizations(d, n):
    # baths near the vacuum, so that most truncations hold their state
    lv = build_liouvillian(d, n)
    try:
        reference = two_factorization_steady_state(lv)
    except NumericalError as exc:
        with pytest.raises(type(exc)):
            steady_state(lv)
        return
    np.testing.assert_allclose(steady_state(lv).rho, reference.rho, rtol=0.0, atol=1e-12)


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
            if sample_truncation_estimate(v1_ref, v2_ref) > 56:
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
