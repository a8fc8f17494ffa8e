"""Tests for the orthonormal history factor construction."""
import numpy as np
import pytest
from dense_oracle import dense_factors
from hypothesis import given, settings
from hypothesis import strategies as st

import sclrom.ohf
from sclrom import (
    DegenerateHistory,
    DimensionMismatch,
    DimensionTooSmall,
    FitOptions,
    GaussianBump,
    NonFiniteData,
    NotOrthogonal,
    NumericalFailure,
    SnapshotHistory,
    WaveConfig,
    build_ohf,
    complement_basis,
    fit,
    periodic_history,
    random_orthonormal_columns,
    simulate_wave_1d,
    thin_svd,
    verify_mimetic,
    verify_ohf,
)
from sclrom.ohf import _complement_loop


class TestSnapshotHistory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected_with_position(self, bad):
        data = np.ones((6, 3), dtype=complex)
        data[4, 1] = bad
        data[5, 2] = bad
        with pytest.raises(NonFiniteData) as exc:
            SnapshotHistory(data)
        assert "non-finite" in str(exc.value)
        assert "(row 4, column 1)" in str(exc.value)


class TestThinSvd:
    def test_orthonormal_columns(self):
        data = np.zeros((4, 2), dtype=complex)
        data[0, 0] = 1.0
        data[1, 1] = 1.0
        V, S, _ = thin_svd(SnapshotHistory(data))
        np.testing.assert_allclose(S, [1.0, 1.0], atol=1e-15)
        # left factor spans the same plane
        proj = V @ V.conj().T
        np.testing.assert_allclose(proj @ data, data, atol=1e-14)

    def test_single_column(self):
        data = np.array([[2.0], [0.0], [0.0], [0.0]], dtype=complex)
        V, S, W = thin_svd(SnapshotHistory(data))
        np.testing.assert_allclose(S, [2.0], atol=1e-15)
        np.testing.assert_allclose(V[:, 0], [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(W, [[1.0]], atol=1e-15)

    def test_singular_values_against_gram_eigenvalues(self):
        # oracle: eigenvalues of H* H, computed independently of the SVD
        data = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], dtype=complex)
        gram_eigs = np.linalg.eigvalsh(data.conj().T @ data)
        expected = np.sqrt(gram_eigs[::-1])
        np.testing.assert_allclose(expected, [1.618033988749895, 0.618033988749895], rtol=1e-14)
        _, S, _ = thin_svd(SnapshotHistory(data))
        np.testing.assert_allclose(S, expected, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_residual(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        V, S, W = thin_svd(SnapshotHistory(data))
        residual = np.linalg.norm((V * S) @ W - data)
        assert residual <= 1e-12 * S[0] * 20

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        V1, _, W1 = thin_svd(SnapshotHistory(data))
        V2, _, W2 = thin_svd(SnapshotHistory(data.copy()))
        assert np.array_equal(V1, V2)
        assert np.array_equal(W1, W2)
        for j in range(4):
            pivot = V1[np.argmax(np.abs(V1[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0


class TestComplementBasis:
    def test_canonical_complement(self):
        V = np.zeros((4, 2), dtype=complex)
        V[0, 0] = 1.0
        V[1, 1] = 1.0
        U = complement_basis(V)
        expected = np.zeros((4, 2), dtype=complex)
        expected[2, 0] = 1.0
        expected[3, 1] = 1.0
        np.testing.assert_allclose(U, expected, atol=1e-14)

    def test_single_direction(self):
        V = np.array([[1.0], [0.0]], dtype=complex)
        np.testing.assert_allclose(complement_basis(V), [[0.0], [1.0]], atol=1e-14)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            complement_basis(np.eye(3, 2, dtype=complex))

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonality_residuals(self, seed):
        V = random_orthonormal_columns(8, 3, seed)
        U = complement_basis(V)
        assert np.linalg.norm(U.conj().T @ V) <= 1e-12
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-12


def _loop_spy(monkeypatch):
    """Record every call of the Gram-Schmidt fallback of complement_basis."""
    calls = []

    def spy(V):
        calls.append(V.shape)
        return _complement_loop(V)

    monkeypatch.setattr(sclrom.ohf, "_complement_loop", spy)
    return calls


class TestFastComplement:
    """The CholeskyQR2 path of complement_basis against the Gram-Schmidt loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 100), st.integers(0, 2**32 - 1))
    def test_matches_loop_on_well_conditioned_frames(self, m, extra, seed):
        # n >= 8m keeps the projected block (1 - V V*)[e_1..e_m] far from
        # rank deficient, so the fast path must be taken
        V = random_orthonormal_columns(8 * m + extra, m, seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _loop_spy(monkeypatch)
            U = complement_basis(V)
        assert calls == []
        assert np.max(np.abs(U - _complement_loop(V))) <= 1e-12
        assert np.linalg.norm(U.conj().T @ V) <= 1e-14

    def test_wave_frame_takes_the_loop_bitwise(self):
        """The frame of the wave workload (nx=512, nt=192, Gaussian of width
        0.05 centred from seed 7, truncated): its projected block has a
        condition number near 1e9 behind Cholesky pivots of order 0.1, so
        only the loss-of-orthogonality gate can send it to the loop."""
        center = 0.25 + 0.5 * float(np.random.default_rng(7).random())
        cfg = WaveConfig(L=1.0, c=1.0, nx=512, nt=192, dt=2.0 / 192,
                         w0=GaussianBump(center, 0.05))
        history = simulate_wave_1d(cfg)
        V, s, _ = thin_svd(history)
        V = np.ascontiguousarray(V[:, : np.count_nonzero(s > 1e-12 * s[0])])
        assert complement_basis(V).tobytes() == _complement_loop(V).tobytes()
        model, _ = fit(history, FitOptions(mode="least_squares", truncate_rank=True))
        eps = 1e-8 * float(np.max(np.linalg.norm(history.data, axis=0)))
        assert verify_mimetic(model, history, eps).passed

    def test_frame_holding_e1_takes_the_loop(self, monkeypatch):
        # e_1 projects to zero, so B* B is singular and Cholesky fails
        V = random_orthonormal_columns(16, 4, seed=1)
        V[:, 0] = 0.0
        V[0, 0] = 1.0
        V = np.linalg.qr(V)[0]
        calls = _loop_spy(monkeypatch)
        U = complement_basis(V)
        assert calls == [(16, 4)]
        assert U.tobytes() == _complement_loop(V).tobytes()
        assert np.linalg.norm(U.conj().T @ V) <= 1e-14

    def test_frame_that_fires_the_skip_rule_takes_the_loop(self, monkeypatch):
        # e_2 lies within 1e-9 of range(V): the loop skips it and takes e_4
        rng = np.random.default_rng(3)
        V = random_orthonormal_columns(16, 3, seed=2)
        V[:, 0] = 0.0
        V[1, 0] = 1.0
        V[:, 0] += 1e-9 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        V = np.linalg.qr(V)[0]
        calls = _loop_spy(monkeypatch)
        U = complement_basis(V)
        assert calls == [(16, 3)]
        assert U.tobytes() == _complement_loop(V).tobytes()
        # no column is built on e_2, and e_4 entered in its place
        assert np.abs(U[1]).max() <= 1e-8 and np.abs(U[3]).max() > 0.5


class TestBuildOhf:
    def test_orthonormal_input_has_trivial_complement_part(self):
        data = np.zeros((4, 2), dtype=complex)
        data[0, 0] = 1.0
        data[1, 1] = 1.0
        ohf = build_ohf(SnapshotHistory(data))
        assert ohf.kappa == pytest.approx(1.0)
        assert ohf.rho == pytest.approx(1.0)
        # t_j = 0: Vhat is its span part V W alone
        np.testing.assert_allclose(ohf.Vhat, ohf.V @ ohf.W, atol=1e-7)
        # Vhat spans the same plane as the input
        P = ohf.Vhat @ ohf.Vhat.conj().T
        np.testing.assert_allclose(P @ data, data, atol=1e-12)

    def test_single_snapshot_closed_form(self):
        data = np.array([[2.0], [0.0], [0.0], [0.0]], dtype=complex)
        ohf = build_ohf(SnapshotHistory(data))
        assert ohf.kappa == pytest.approx(2.0)
        assert ohf.rho == pytest.approx(2.0)
        _, T, _ = dense_factors(ohf.V, ohf.Vhat)
        np.testing.assert_allclose(T @ data[:, 0], ohf.rho * ohf.Vhat[:, 0], atol=1e-14)
        np.testing.assert_allclose(T @ data[:, 0], [2, 0, 0, 0], atol=1e-14)

    def test_periodic_history_verifies(self):
        h = periodic_history(16, 4, seed=7)
        ohf = build_ohf(h)
        report = verify_ohf(ohf, h, tol=1e-12)
        assert report.passed
        # oracle: substitute the factors into the identities directly
        K, _, U = dense_factors(ohf.V, ohf.Vhat)
        recon = ohf.kappa * (K @ ohf.Vhat)
        np.testing.assert_allclose(recon, h.data, atol=1e-12)
        np.testing.assert_allclose(
            U @ ohf.Vhat, np.roll(ohf.Vhat, -1, axis=1), atol=1e-12
        )

    def test_vhat_columns_orthonormal(self):
        h = periodic_history(32, 6, seed=3)
        ohf = build_ohf(h)
        gram = ohf.Vhat.conj().T @ ohf.Vhat
        assert np.linalg.norm(gram - np.eye(6)) <= 1e-12 * 6

    def test_span_and_complement_parts_orthogonal(self):
        h = periodic_history(24, 5, seed=11)
        ohf = build_ohf(h)
        span_part = dense_factors(ohf.V, ohf.Vhat)[0] @ ohf.Vhat
        complement_part = ohf.Vhat - span_part
        assert np.linalg.norm(complement_part.conj().T @ span_part) <= 1e-12

    def test_rho_real_positive(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
            ohf = build_ohf(SnapshotHistory(data))
            assert ohf.rho.imag == 0.0
            assert ohf.rho.real > 0.0

    def test_t_schur_parameters(self):
        h = periodic_history(24, 5, seed=4)
        ohf = build_ohf(h)
        ratios = ohf.singular_values / ohf.singular_values[0]
        # the complement part (1 - V V*) Vhat = U diag(t) W has column norms t_j after W*
        complement = (ohf.Vhat - ohf.V @ (ohf.V.conj().T @ ohf.Vhat)) @ ohf.W.conj().T
        t_values = np.linalg.norm(complement, axis=0)
        np.testing.assert_allclose(ratios**2 + t_values**2, np.ones(5), atol=1e-14)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        ohf1 = build_ohf(SnapshotHistory(data))
        ohf3 = build_ohf(SnapshotHistory(3.0 * data))
        assert ohf3.kappa == pytest.approx(3.0 * ohf1.kappa, rel=1e-12)
        recon1 = ohf1.kappa * (dense_factors(ohf1.V, ohf1.Vhat)[0] @ ohf1.Vhat)
        recon3 = ohf3.kappa * (dense_factors(ohf3.V, ohf3.Vhat)[0] @ ohf3.Vhat)
        np.testing.assert_allclose(recon3, 3.0 * recon1, rtol=1e-10, atol=1e-12)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            build_ohf(SnapshotHistory(np.eye(5, 3, dtype=complex)))

    def test_non_orthogonal_vhat_rejected_at_fit(self, monkeypatch):
        # complement columns still orthogonal to range(V) (so rho checks
        # out) but not to each other, so the Vhat columns drift
        def skewed_complement(V):
            cols = complement_basis(V)
            cols[:, 1] += cols[:, 0]
            return cols

        monkeypatch.setattr(sclrom.ohf, "complement_basis", skewed_complement)
        with pytest.raises(NotOrthogonal):
            build_ohf(periodic_history(16, 4, seed=7))

    def test_degenerate_history_reports_rank(self):
        col = np.arange(1.0, 9.0)
        data = np.column_stack([col, 2.0 * col, 3.0 * col]).astype(complex)
        with pytest.raises(DegenerateHistory) as exc:
            build_ohf(SnapshotHistory(data))
        assert exc.value.rank == 1

    def test_truncate_reduces_to_numerical_rank(self):
        col = np.arange(1.0, 9.0)
        data = np.column_stack([col, 2.0 * col, 3.0 * col]).astype(complex)
        ohf = build_ohf(SnapshotHistory(data), truncate=True)
        assert ohf.m == 1
        gram = ohf.Vhat.conj().T @ ohf.Vhat
        assert np.linalg.norm(gram - np.eye(1)) <= 1e-12

    def test_zero_history_degenerate(self):
        with pytest.raises(DegenerateHistory):
            build_ohf(SnapshotHistory(np.zeros((8, 2), dtype=complex)))

    @pytest.mark.parametrize("part", ["complex", "real"])
    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_rho_rejected(self, scale, part):
        # v_1* v_1 overflows: rho is NaN for complex entries, inf for real ones
        data = periodic_history(16, 4, seed=1).data
        data = data.real.astype(complex) if part == "real" else data
        with pytest.raises(NumericalFailure, match="rho"):
            build_ohf(SnapshotHistory(data * scale))


class TestVerifyOhf:
    def test_wellconditioned_inputs_pass(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(12, 40))
            m = int(rng.integers(1, n // 2 + 1))
            data = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            h = SnapshotHistory(data)
            report = verify_ohf(build_ohf(h), h, tol=1e-10)
            assert report.passed

    def test_corrupted_shift_factor_fails(self):
        # the shift factor is derived from the frame: mixing one frame column
        # into another breaks its cycle relations and its unitarity
        h = periodic_history(16, 4, seed=1)
        ohf = build_ohf(h)
        Vhat = ohf.Vhat.copy()
        Vhat[:, 2] += 0.5 * Vhat[:, 0]
        ohf.Vhat = Vhat
        report = verify_ohf(ohf, h, tol=1e-10)
        assert not report.passed
        assert report.shift_residual > 0.1
        assert report.unitary_residual > 0.1

    def test_dependent_frame_columns_rejected(self):
        # equal columns: the Gram matrix of Vhat has no Cholesky factor
        h = periodic_history(16, 4, seed=1)
        ohf = build_ohf(h)
        ohf.Vhat = ohf.Vhat.copy()
        ohf.Vhat[:, 2] = ohf.Vhat[:, 0]
        with pytest.raises(NotOrthogonal, match="linearly dependent"):
            verify_ohf(ohf, h)

    def test_single_snapshot_shift_residual_zero(self):
        h = SnapshotHistory(np.array([[2.0], [0.0], [0.0], [0.0]], dtype=complex))
        ohf = build_ohf(h)
        report = verify_ohf(ohf, h)
        assert report.shift_residual <= 1e-15

    def test_dimension_mismatch(self):
        h = periodic_history(16, 4, seed=1)
        ohf = build_ohf(h)
        other = periodic_history(16, 3, seed=1)
        with pytest.raises(DimensionMismatch):
            verify_ohf(ohf, other)
