import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.linalg import norm, splu

from conftest import (
    LADDER_CASES,
    device_drives,
    dissipators,
    lab_frame,
    sample_truncation_estimate,
)
from twotone import oracle
from twotone.analytic import quadrature_variances
from twotone.errors import DomainError, InstabilityError, NumericalError, TruncationError
from twotone.oracle import (
    EffectiveDissipators,
    TAIL_THRESHOLD,
    TruncatedState,
    build_liouvillian,
    coherence_blocks,
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
    b = sp.diags(np.sqrt(np.arange(1, n)), offsets=1, format="csr", dtype=complex)
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

    def spy(blocks):
        solved.append(blocks.n_trunc)
        return steady_state(blocks)

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
        state = steady_state(coherence_blocks(d, 40))
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
        # P(119) of a thermal state at n = 40 is 1.3e-3, so the search starts at the top rung
        solved = record_solves(monkeypatch)
        with pytest.raises(TruncationError):
            converged_steady_state(EffectiveDissipators(gamma_m=1.0, n_thermal=40.0))
        assert solved == [120]

    def test_antidamped_bath_climbs_the_whole_ladder(self, monkeypatch):
        # A - B = -7: no Gaussian steady state, so every rung is tried
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=0.0, engineered=((1.0, 3.0),))
        with pytest.raises(InstabilityError):
            gaussian_covariance(d)
        solved = record_solves(monkeypatch)
        with pytest.raises(TruncationError):
            converged_steady_state(d)
        assert solved == [8, 12, 18, 27, 41, 62, 93, 120]

    @pytest.mark.parametrize("n_trunc", [2, 5, 7])
    def test_budget_below_eight_is_the_only_rung(self, n_trunc):
        # a truncation below the ladder's first rung is solved, or fails its
        # tail check, through ``steady_state`` alone
        vacuum = EffectiveDissipators(gamma_m=1.0, n_thermal=0.0)
        assert steady_state(coherence_blocks(vacuum, n_trunc)).n_trunc == n_trunc
        with pytest.raises(TruncationError):
            steady_state(coherence_blocks(EffectiveDissipators(gamma_m=1.0, n_thermal=3.0), n_trunc))

    @pytest.mark.parametrize("n_trunc", [1, 0, -4])
    def test_budget_below_two_rejected(self, n_trunc):
        with pytest.raises(DomainError, match="at least 2"):
            coherence_blocks(EffectiveDissipators(gamma_m=1.0, n_thermal=0.0), n_trunc)

    @pytest.mark.parametrize(
        "gamma_m, n_thermal, engineered",
        [
            (math.nan, 1.0, ()),
            (1.0, math.nan, ()),
            (math.inf, 1.0, ()),
            (1.0, math.inf, ()),
            (1.0, 1.0, ((math.nan, 1.0),)),
            (1.0, 1.0, ((3.0, complex(0.0, math.inf)),)),
        ],
    )
    def test_non_finite_input_rejected_before_any_solve(
        self, monkeypatch, gamma_m, n_thermal, engineered
    ):
        # accepted before, a NaN bath skipped to the last rung and failed in the SVD
        solved = record_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                converged_steady_state(
                    EffectiveDissipators(
                        gamma_m=gamma_m, n_thermal=n_thermal, engineered=engineered
                    )
                )
        assert solved == []


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
        state = steady_state(coherence_blocks(d, 40))
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
        state = steady_state(coherence_blocks(d, 40))
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
            steady_state(jump_blocks(np.zeros((3, 3))))

    def test_truncation_too_small(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=3.0)
        with pytest.raises(TruncationError):
            steady_state(coherence_blocks(d, 8))

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

    def test_state_with_nan_rejected(self):
        # NaN compares false in the trace, Hermiticity and Cholesky checks alike
        rho = np.eye(3, dtype=complex) / 3.0
        rho[1, 2] = rho[2, 1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            TruncatedState(rho=rho, n_trunc=3)

    def test_nan_generator_norm_fails_the_residual_check(self):
        blocks = coherence_blocks(EffectiveDissipators(gamma_m=1.0, n_thermal=0.2), 12)
        assert steady_state(blocks).n_trunc == 12
        with pytest.raises(NumericalError, match="steady-state residual .* too large"):
            steady_state(dataclasses.replace(blocks, norm=math.nan))

    @pytest.mark.parametrize("smallest, valid", [(-2e-10, False), (-5e-11, True)])
    def test_positivity_boundary(self, smallest, valid):
        # a Hermitian unit-trace state in a random eigenbasis, one eigenvalue
        # just below zero on either side of the -1e-10 tolerance
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        levels = np.array([0.5, 0.3, 0.2 - smallest, 0.0, 0.0, smallest])
        rho = (basis * levels) @ basis.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        if valid:
            assert TruncatedState(rho=rho, n_trunc=6).n_trunc == 6
        else:
            with pytest.raises(NumericalError, match="negative eigenvalue -2e-10"):
                TruncatedState(rho=rho, n_trunc=6)


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


def jump_blocks(rates):
    """The even-sector blocks of ``jump_generator(rates)``, for rates with a zero diagonal.

    Order 0 is the rate matrix, populations in and out; every order d > 0
    only decays, at half the two levels' summed outflow; nothing couples
    the orders.
    """
    n = len(rates)
    out = rates.sum(axis=1)
    diagonal = [rates.T - np.diag(out)]
    diagonal += [np.diag(-0.5 * (out[d:] + out[: n - d])) for d in range(2, n, 2)]
    couplings = np.zeros((3, len(diagonal), n))
    decay = 0.5 * (out[:, None] + out)
    np.fill_diagonal(decay, 0.0)
    norm = math.sqrt(np.sum(decay**2) + np.sum(diagonal[0] ** 2))
    return oracle.CoherenceBlocks(n, tuple(diagonal), couplings, couplings, norm, 0.0)


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


def linked_two_block_rates(eps, seed):
    """Classical jumps between the levels of two 3-level blocks, linked at rate eps.

    Levels 0-2 and 3-5 jump among themselves at random rates; eps joins
    level 2 and level 3 both ways, so at eps = 0 the kernel is two-fold.
    Jumps into the top level are slowed 1e7-fold to keep it nearly empty.
    """
    rates = two_block_rates(6, seed)
    rates[:, 5] *= 1e-7
    rates[2, 3] = rates[3, 2] = eps
    return rates


def drained_two_block_rates(seed):
    """Two closed 3-level blocks plus an empty level 6 that decays into level 0.

    The kernel is two-fold, one state per block, yet the row-swap
    comparison alone does not see it for seeds 4-8 and 10.
    """
    rates = two_block_rates(7, seed)
    rates[6, 0] = 1.0
    return rates


def generator_rows(blocks):
    """The rows of the even parity sector, as a sparse matrix on column-stacked rho.

    The reverse of the ``CoherenceBlocks`` layout: each stored entry goes
    to its row rho[q + d, q], d >= 0, and the rows of order -d are their
    conjugate mirror images. Order 0's coupling to order -2 is stored in
    ``down``, so only d > 0 is mirrored, as in ``build_liouvillian``.
    """
    n = blocks.n_trunc
    rows, cols, vals = [], [], []

    def add(order, q, p_to, q_to, val):
        p = q + order
        rows.append(p + q * n)
        cols.append(p_to + q_to * n)
        vals.append(val)
        if order > 0:
            rows.append(q + p * n)
            cols.append(q_to + p_to * n)
            vals.append(val.conj())

    for j, block in enumerate(blocks.diagonal):
        order = 2 * j
        q, q_to = np.nonzero(block)
        add(order, q, q_to + order, q_to, block[q, q_to])
        q = np.arange(n - order)
        for i in range(3):
            inside = np.flatnonzero((q >= i) & (q + order + 2 - i < n))
            add(order, q[inside], q[inside] + order + 2 - i, q[inside] - i, blocks.up[i, j, inside])
            inside = np.flatnonzero((q + order - 2 + i >= 0) & (q + i < n))
            add(order, q[inside], q[inside] + order - 2 + i, q[inside] + i, blocks.down[i, j, inside])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
        dtype=complex,
    )


def assert_rows_of_the_generator(blocks, lv):
    """``generator_rows(blocks)`` are the even-sector rows of ``lv``, entry for entry.

    Same sparsity pattern, values and norm to rtol 1e-14; the odd sector is
    not part of the blocks, so its rows of ``lv`` are left out.
    """
    n = blocks.n_trunc
    index = np.arange(n**2)
    even = (index % n + index // n) % 2 == 0
    rows = sp.diags(even.astype(float)) @ lv
    converted = generator_rows(blocks)
    assert converted.shape == rows.shape
    for m in (converted, rows):
        m.eliminate_zeros()
        m.sort_indices()
    np.testing.assert_array_equal(converted.indptr, rows.indptr)
    np.testing.assert_array_equal(converted.indices, rows.indices)
    np.testing.assert_allclose(converted.data, rows.data, rtol=1e-14, atol=0.0)
    assert blocks.norm == pytest.approx(norm(lv), rel=1e-14)


class TestSectorSolve:
    """One LU of the even parity sector against the two-factorization reference."""

    @pytest.mark.parametrize("case", ["linked", "drained"])
    def test_jump_blocks_are_the_jump_generator(self, case):
        # the jump cases solve these blocks against SuperLU on the generator
        rates = linked_two_block_rates(1e-2, 0) if case == "linked" else drained_two_block_rates(4)
        assert_rows_of_the_generator(jump_blocks(rates), jump_generator(rates))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_weakly_linked_blocks_agree(self, eps, seed):
        rates = linked_two_block_rates(eps, seed)
        state = steady_state(jump_blocks(rates))
        reference = two_factorization_steady_state(jump_generator(rates))
        np.testing.assert_allclose(state.rho, reference.rho, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [1e-12, 0.0])
    def test_degenerate_blocks_detected(self, eps, seed):
        rates = linked_two_block_rates(eps, seed)
        with pytest.raises(NumericalError):
            two_factorization_steady_state(jump_generator(rates))
        with pytest.raises(NumericalError):
            steady_state(jump_blocks(rates))

    @pytest.mark.parametrize("seed", [4, 5, 6, 7, 8, 10])
    def test_kernel_hidden_from_the_row_swap_detected(self, seed):
        # without the uniqueness check these seeds returned the block-A state
        with pytest.raises(NumericalError, match="singular value ratio"):
            steady_state(jump_blocks(drained_two_block_rates(seed)))

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_scaled_generator_keeps_the_state(self, mech, scale):
        blocks = coherence_blocks(device_dissipators(mech, 200.0, 0.2, 0.3, 1.0), 27)
        expected = steady_state(blocks).populations
        scaled = dataclasses.replace(
            blocks,
            diagonal=tuple(scale * block for block in blocks.diagonal),
            up=scale * blocks.up,
            down=scale * blocks.down,
            norm=scale * blocks.norm,
        )
        np.testing.assert_allclose(steady_state(scaled).populations, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_moment_built_solve_makes_no_sparse_factorization(
        self, mech, monkeypatch, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        import scipy.sparse.linalg as spla

        def forbidden(*args, **kwargs):
            raise AssertionError("the moment-built solve reached a sparse routine")

        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        blocks = coherence_blocks(d, n_trunc)
        with monkeypatch.context() as patch:
            for name in ("splu", "spilu", "spsolve", "factorized"):
                patch.setattr(spla, name, forbidden)
            state = steady_state(blocks)
        reference = steady_state(lab_frame(blocks))
        np.testing.assert_allclose(state.rho, reference.rho, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "g_minus, plus_ratio, meas_ratio, angle, n_trunc",
        LADDER_CASES + [(300.0, 0.1, 0.4, 0.7, 2), (300.0, 0.1, 0.4, 0.7, 3)],
    )
    def test_moment_blocks_match_the_converted_generator(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        built = coherence_blocks(d, n_trunc)
        assert len(built.diagonal) == (n_trunc + 1) // 2
        # the built blocks are in the squeezing frame, where C is real; turned
        # back to theta = 0 and converted to rows, they are those of the generator
        assert built.theta == np.angle(d.moments()[2]) / 2.0
        lv = build_liouvillian(d, n_trunc)
        assert_rows_of_the_generator(lab_frame(built), lv)

    @pytest.mark.parametrize("g_minus, plus_ratio, meas_ratio, angle, n_trunc", LADDER_CASES)
    def test_ladder_rungs_match_two_factorizations(
        self, mech, g_minus, plus_ratio, meas_ratio, angle, n_trunc
    ):
        # the packed elimination, in the squeezing frame and in the complex lab
        # frame, against SuperLU on the generator summed operator by operator
        d = device_dissipators(mech, g_minus, plus_ratio, meas_ratio, angle)
        reference = two_factorization_steady_state(kron_liouvillian(d, n_trunc))
        blocks = coherence_blocks(d, n_trunc)
        atol = 1e-12 * np.max(np.abs(reference.rho))
        for frame in (blocks, lab_frame(blocks)):
            np.testing.assert_allclose(steady_state(frame).rho, reference.rho, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("detuning", [0.5, -3.0])
    def test_detuned_bath_agrees(self, detuning):
        # -i [delta b+b, rho] puts -i delta d on the diagonal of order d, so the
        # order-0 Schur complement takes a complex part from each side; the
        # shift is the same in every frame, and the couplings stay real
        n = 16
        d = EffectiveDissipators(
            gamma_m=1.0, n_thermal=0.3, engineered=((3.0, 1.2 * np.exp(0.4j)),)
        )
        index = np.arange(n * n)
        order = index % n - index // n
        lv = (build_liouvillian(d, n) + sp.diags(-1j * detuning * order)).tocsr()
        reference = two_factorization_steady_state(lv)
        blocks = coherence_blocks(d, n)
        detuned = dataclasses.replace(
            blocks,
            diagonal=tuple(
                block - 1j * detuning * 2 * j * np.eye(len(block))
                for j, block in enumerate(blocks.diagonal)
            ),
            norm=norm(lv),
        )
        np.testing.assert_allclose(steady_state(detuned).rho, reference.rho, rtol=0.0, atol=1e-12)

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
    blocks = coherence_blocks(d, n)
    try:
        reference = two_factorization_steady_state(build_liouvillian(d, n))
    except NumericalError as exc:
        with pytest.raises(type(exc)):
            steady_state(blocks)
        return
    np.testing.assert_allclose(steady_state(blocks).rho, reference.rho, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=settled_baths, n=st.integers(min_value=2, max_value=16))
def test_squeezing_frame_solve_matches_the_sparse_generator(d, n):
    # the real float64 elimination, rotated back, against the complex one of
    # the same blocks turned back to the lab frame of the sparse generator
    blocks = coherence_blocks(d, n)
    assert {a.dtype for a in (*blocks.diagonal, blocks.up, blocks.down)} == {np.dtype(np.float64)}
    try:
        reference = steady_state(lab_frame(blocks))
    except (NumericalError, TruncationError) as exc:
        with pytest.raises(type(exc)):
            steady_state(blocks)
        return
    atol = 1e-12 * np.max(np.abs(reference.rho))
    np.testing.assert_allclose(steady_state(blocks).rho, reference.rho, rtol=0.0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(d=st.one_of(dissipators, settled_baths), n=st.integers(min_value=2, max_value=24))
def test_both_frames_match_two_factorizations(d, n):
    # any bath, warm or anti-damped ones whose truncated state fails the tail
    # check among them: each frame's solve either matches SuperLU on the
    # generator summed operator by operator or raises as that reference does
    blocks = coherence_blocks(d, n)
    try:
        reference = two_factorization_steady_state(kron_liouvillian(d, n))
    except (NumericalError, TruncationError) as exc:
        for frame in (blocks, lab_frame(blocks)):
            with pytest.raises(type(exc)):
                steady_state(frame)
        return
    atol = 1e-12 * np.max(np.abs(reference.rho))
    for frame in (blocks, lab_frame(blocks)):
        np.testing.assert_allclose(steady_state(frame).rho, reference.rho, rtol=0.0, atol=atol)


# baths from the vacuum to n_th = 50 and from weak to 3000 gamma_m cooling;
# rates in units of gamma_m, log-uniform from 1 to 3000
warm_baths = st.builds(
    lambda gamma_m, n_thermal, pairs: EffectiveDissipators(
        gamma_m=gamma_m,
        n_thermal=n_thermal,
        engineered=tuple(
            (
                math.sqrt(gamma_m * 10.0**e) * np.exp(1j * a),
                math.sqrt(r * gamma_m * 10.0**e) * np.exp(1j * b),
            )
            for e, r, a, b in pairs
        ),
    ),
    gamma_m=st.floats(min_value=0.1, max_value=10.0),
    n_thermal=st.floats(min_value=0.0, max_value=50.0),
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=math.log10(3000.0)),
            st.floats(min_value=0.0, max_value=0.6),
            st.floats(min_value=0.0, max_value=2.0 * math.pi),
            st.floats(min_value=0.0, max_value=2.0 * math.pi),
        ),
        min_size=1,
        max_size=2,
    ),
)


@settings(max_examples=60, deadline=None)
@given(d=warm_baths, phi=st.floats(min_value=0.0, max_value=math.pi))
def test_oracle_matches_the_gaussian_covariance_at_its_truncation(d, phi):
    cov = gaussian_covariance(d)
    # within a budget of N = 62 by the Gaussian tail, to keep the solves small
    assume(gaussian_populations(cov, 62)[-1] < TAIL_THRESHOLD)
    state = converged_steady_state(d)
    # the truncation error is absolute in the Fock basis, so it is measured
    # against the largest variance: a squeezed quadrature near 0.2 misses by
    # up to 2e-3 of itself at N = 41, and by 4e-4 of the anti-squeezed one
    scale = np.linalg.eigvalsh(cov)[-1]
    for angle in (0.0, math.pi / 2.0, phi):
        u = np.array([math.cos(angle), math.sin(angle)])
        assert abs(quad_variance(state, angle) - u @ cov @ u) <= 1e-3 * scale


class TestQuadVariance:
    def test_vacuum(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=0.0)
        state = steady_state(coherence_blocks(d, 10))
        for phi in (0.0, 0.4, math.pi / 2.0):
            assert quad_variance(state, phi) == pytest.approx(1.0, abs=1e-9)
        assert number_occupancy(state) == pytest.approx(0.0, abs=1e-9)

    def test_thermal(self):
        d = EffectiveDissipators(gamma_m=1.0, n_thermal=1.0)
        state = steady_state(coherence_blocks(d, 40))
        assert quad_variance(state, 1.1) == pytest.approx(3.0, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    phi=st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi),
    even_only=st.booleans(),
    data=st.data(),
)
def test_quad_variance_matches_the_dense_trace(n, phi, even_only, data):
    # random states G G+ / Tr, with the odd sector p + q odd zeroed or kept
    parts = data.draw(arrays(np.float64, (2, n, n), elements=st.floats(-1.0, 1.0)))
    g = parts[0] + 1j * parts[1]
    rho = g @ g.conj().T
    if even_only:
        rho[np.add.outer(np.arange(n), np.arange(n)) % 2 == 1] = 0.0
    trace = np.trace(rho).real
    if trace < 1e-3:
        return
    state = TruncatedState(rho=rho / trace, n_trunc=n)
    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    x = b * np.exp(-1j * phi) + b.conj().T * np.exp(1j * phi)
    mean = np.trace(state.rho @ x).real
    expected = np.trace(state.rho @ x @ x).real - mean * mean
    assert quad_variance(state, phi) == pytest.approx(expected, rel=1e-12, abs=1e-12 * n)


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
            state = converged_steady_state(d)
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
        coarse = steady_state(coherence_blocks(d, 30))
        fine = steady_state(coherence_blocks(d, 60))
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
