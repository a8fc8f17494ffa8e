"""Tests for the orthonormal history factor construction."""
import numpy as np
import pytest
from dense_oracle import dense_factors
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sclrom.ohf
from sclrom import (
    DegenerateHistory,
    DimensionMismatch,
    DimensionTooSmall,
    FitOptions,
    GaussianBump,
    InvariantViolation,
    NonFiniteData,
    NotOrthogonal,
    NumericalFailure,
    SnapshotHistory,
    WaveConfig,
    almost_periodic_history,
    build_ohf,
    fit,
    periodic_history,
    random_orthonormal_columns,
    read_model,
    replay,
    simulate_wave_1d,
    thin_svd,
    verify_mimetic,
    verify_ohf,
    write_model,
)
from sclrom.ohf import complement_basis, pin_column_phases


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


def _pinned_complex_svd(data):
    """The oracle: LAPACK's complex SVD with phases pinned by pin_column_phases."""
    V, s, W = np.linalg.svd(np.asarray(data, dtype=complex), full_matrices=False)
    V, W = V.copy(), W.copy()
    pin_column_phases(V, W)
    return V, s, W


def _real_histories():
    """Random real histories, full rank and rank-deficient, and one whose
    imaginary parts are all -0.0."""
    rng = np.random.default_rng(11)
    cases = []
    for n, m, rank in [(40, 6, 6), (97, 20, 20), (30, 1, 1), (64, 12, 5), (50, 9, 1)]:
        data = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        cases.append(pytest.param(data.astype(complex), id=f"{n}x{m}-rank-{rank}"))
    negative_zero = rng.standard_normal((24, 5)).astype(complex)
    negative_zero.imag[:] = -0.0
    cases.append(pytest.param(negative_zero, id="imag-minus-zero"))
    return cases


class TestRealSvd:
    """A history with no imaginary part takes the real SVD; projectors and
    reconstructions match the complex SVD (columns need not: equal or close
    singular values leave them free to rotate)."""

    @pytest.mark.parametrize("rank_tol", [None, 1e-12], ids=["full", "truncated"])
    @pytest.mark.parametrize("data", _real_histories())
    def test_matches_pinned_complex_svd(self, data, rank_tol):
        history = SnapshotHistory(data)
        V, s, W = thin_svd(history, rank_tol)
        Vo, so, Wo = _pinned_complex_svd(data)
        # directions past the numerical rank are set by rounding alone
        rank = int(np.count_nonzero(so > 1e-12 * so[0]))
        if rank_tol is not None:
            Vo, so, Wo = Vo[:, :rank], so[:rank], Wo[:rank]
        assert s.size == so.size
        assert V.dtype == W.dtype == np.complex128 and V.flags.c_contiguous
        assert not V.imag.any() and not np.signbit(V.imag).any()
        assert not W.imag.any()
        scale = so[0]
        P, Po = V[:, :rank], Vo[:, :rank]
        assert np.max(np.abs(P @ P.conj().T - Po @ Po.conj().T)) <= 1e-13
        assert np.max(np.abs((V * s) @ W - (Vo * so) @ Wo)) <= 1e-13 * scale
        np.testing.assert_allclose(s, so, rtol=0, atol=1e-13 * scale)

    def test_complex_history_keeps_the_complex_factors(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        V, s, W = thin_svd(SnapshotHistory(data))
        Vo, so, Wo = _pinned_complex_svd(data)
        assert V.tobytes() == Vo.tobytes() and W.tobytes() == Wo.tobytes()
        assert s.tobytes() == so.tobytes()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_wave_histories_keep_their_rank_and_verify(self, seed):
        history = _wave_history(seed)
        so = np.linalg.svd(history.data, compute_uv=False)
        model, _ = fit(history, FitOptions(mode="least_squares", truncate_rank=True))
        assert model.m == int(np.count_nonzero(so > 1e-12 * so[0]))
        assert not model.ohf.V.imag.any()
        eps = 1e-8 * float(np.max(np.linalg.norm(history.data, axis=0)))
        assert verify_mimetic(model, history, eps).passed


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


def _wave_history(seed):
    """The wave workload's history: nx=512, nt=192, a Gaussian of width 0.05
    centred from the seed."""
    center = 0.25 + 0.5 * float(np.random.default_rng(seed).random())
    cfg = WaveConfig(L=1.0, c=1.0, nx=512, nt=192, dt=2.0 / 192,
                     w0=GaussianBump(center, 0.05))
    return simulate_wave_1d(cfg)


def _wave_frame_seed_7():
    """The frame of the wave workload (nx=512, nt=192, Gaussian of width 0.05
    centred from seed 7, truncated to its numerical rank): the worst-conditioned
    wave frame seen, where e_1..e_m projected against V have a condition
    number near 1e9."""
    history = _wave_history(7)
    V, s, _ = thin_svd(history)
    return np.ascontiguousarray(V[:, : np.count_nonzero(s > 1e-12 * s[0])])


def _frame_holding_e1():
    V = random_orthonormal_columns(16, 4, seed=1)
    V[:, 0] = 0.0
    V[0, 0] = 1.0
    return np.linalg.qr(V)[0]


def _frame_near_e2():
    # e_2 lies within 1e-9 of range(V)
    rng = np.random.default_rng(3)
    V = random_orthonormal_columns(16, 3, seed=2)
    V[:, 0] = 0.0
    V[1, 0] = 1.0
    V[:, 0] += 1e-9 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    return np.linalg.qr(V)[0]


def _frame_below_top_block():
    # supported on rows >= 2m, so the top 2m x m block is zero
    V = np.zeros((20, 4), dtype=complex)
    V[8:] = random_orthonormal_columns(12, 4, seed=4)
    return V


def _check_complement(V):
    """The contract of complement_basis: orthonormal, orthogonal to range(V),
    zero below row 2m, and the same bits on every call."""
    n, m = V.shape
    U = complement_basis(V)
    assert U.shape == (n, m)
    assert np.linalg.norm(U.conj().T @ U - np.eye(m)) <= 1e-13
    assert np.linalg.norm(U.conj().T @ V) <= 1e-13
    assert not U[2 * m:].any()
    assert U.tobytes() == complement_basis(V.copy()).tobytes()


class TestComplementContract:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 100), st.integers(0, 2**32 - 1))
    @example(1, 0, 0)
    @example(16, 0, 1)
    def test_random_frames(self, m, extra, seed):
        _check_complement(random_orthonormal_columns(2 * m + extra, m, seed))

    @pytest.mark.parametrize("frame", [_frame_holding_e1, _frame_near_e2,
                                       _frame_below_top_block, _wave_frame_seed_7],
                             ids=["holds-e1", "near-e2", "below-top-block", "wave-seed-7"])
    def test_adversarial_frames(self, frame):
        _check_complement(frame())

    def test_zero_top_block_gives_the_next_canonical_vectors(self):
        U = complement_basis(_frame_below_top_block())
        assert np.array_equal(U, np.eye(20, 4, k=-4, dtype=complex))

    def test_wave_frame_fits_and_verifies(self):
        history = _wave_history(7)
        model, _ = fit(history, FitOptions(mode="least_squares", truncate_rank=True))
        eps = 1e-8 * float(np.max(np.linalg.norm(history.data, axis=0)))
        assert verify_mimetic(model, history, eps).passed


def _full_height_vhat(history, truncate=False):
    """build_ohf's blend with the complement part formed on all n rows."""
    V, s, W = thin_svd(history)
    rank = int(np.count_nonzero(s > 1e-12 * s[0]))
    if truncate and rank < V.shape[1]:
        V, s, W = np.ascontiguousarray(V[:, :rank]), s[:rank], np.eye(rank, dtype=complex)
    ratios = s / s[0]
    t_vals = np.sqrt(np.maximum(0.0, 1.0 - ratios**2))
    return (V * ratios) @ W + (complement_basis(V) * t_vals) @ W


class TestFrameBlend:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 80), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(m=16, extra=0, rank=16, seed=1)
    def test_vhat_is_the_full_height_blend_bitwise(self, m, extra, rank, seed):
        """complement_basis is zero below row 2m, so its part is added on
        those rows alone; a rank-deficient history is truncated."""
        rank = min(rank, m)
        rng = np.random.default_rng(seed)

        def gaussian(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        n = 2 * m + extra
        data = gaussian(n, m) if rank == m else gaussian(n, rank) @ gaussian(rank, m)
        history = SnapshotHistory(data)
        ohf = build_ohf(history, truncate=rank < m)
        assert ohf.Vhat.tobytes() == _full_height_vhat(history, truncate=rank < m).tobytes()

    def test_wave_seed_7_vhat_is_the_full_height_blend_bitwise(self):
        history = _wave_history(7)
        ohf = build_ohf(history, truncate=True)
        assert ohf.m < history.m
        assert ohf.Vhat.tobytes() == _full_height_vhat(history, truncate=True).tobytes()

    def test_zero_rows_differ_at_most_in_the_sign_of_zero(self):
        """Where a row of V is exactly zero, the full-height sum adds the
        complement GEMM's signed zeros, which can turn -0 into +0; the
        values stay equal."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            data = np.zeros((40, m), dtype=complex)
            rows = rng.choice(40, size=2 * m + 1, replace=False)
            data[rows] = rng.standard_normal((rows.size, m)) + 1j * rng.standard_normal((rows.size, m))
            history = SnapshotHistory(data)
            assert np.array_equal(build_ohf(history).Vhat, _full_height_vhat(history))


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

    @pytest.mark.parametrize("m", [8, 16, 32, 66])
    def test_replay_operator_is_the_closed_form(self, m):
        """V B, with B = (rho/kappa) diag(s) W, is the replay operator
        R = V (V* Vhat) circ(g) of the derived frame, with circ(g) stacked
        from rolled copies of g = rho Vhat* vhat_1, to rounding."""
        ohf = build_ohf(periodic_history(2 * m + 4, m, seed=m))
        g = ohf.rho * (ohf.Vhat.conj().T @ ohf.Vhat[:, 0])
        circ = np.column_stack([np.roll(g, k) for k in range(m)])
        expected = ohf.V @ ((ohf.V.conj().T @ ohf.Vhat) @ circ)
        closed = ohf.rho / ohf.kappa * (ohf.V * ohf.singular_values) @ ohf.W
        for R in (ohf.V @ ohf.B, closed):
            assert np.linalg.norm(R - expected) <= 1e-14 * np.linalg.norm(expected)

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
        # V columns mixed, so the Vhat blended from them is not orthogonal:
        # the gate refuses V before any Vhat is formed
        def skewed_svd(history, rank_tol=None):
            V, s, W = thin_svd(history, rank_tol)
            V[:, 1] += 1e-6 * V[:, 0]
            return V, s, W

        monkeypatch.setattr(sclrom.ohf, "thin_svd", skewed_svd)
        with pytest.raises(NotOrthogonal, match="^V max relative cross product 1.000e-06 "):
            build_ohf(periodic_history(16, 4, seed=7))

    def test_fit_refuses_a_frame_that_load_refuses(self, monkeypatch, tmp_path):
        # V scaled by 1 + 1e-6: orthogonal, and rho still checks out, but the
        # V column norms drift past the gate that fitting and loading share
        rng = np.random.default_rng(0)

        def gaussian(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        history = SnapshotHistory(gaussian(32, 3) @ gaussian(3, 6))
        opts = FitOptions(mode="least_squares", truncate_rank=True)
        model, _ = fit(history, opts)
        model.ohf.V *= 1 + 1e-6
        path = tmp_path / "m.bin"
        write_model(model, path)
        with pytest.raises(InvariantViolation) as loading:
            read_model(path)

        def scaled_svd(history, rank_tol=None):
            V, s, W = thin_svd(history, rank_tol)
            return V * (1 + 1e-6), s, W

        monkeypatch.setattr(sclrom.ohf, "thin_svd", scaled_svd)
        with pytest.raises(InvariantViolation) as fitting:
            fit(history, opts)
        message = "V columns orthonormal: residual 3.464e-06"
        assert str(fitting.value) == str(loading.value) == message

    @pytest.mark.parametrize("forged", [
        lambda U: U + np.roll(U, 1, axis=1) * (np.arange(U.shape[1]) == 1),
        lambda U: U * (1 + 1e-6),
    ], ids=["skewed", "scaled"])
    def test_fit_and_load_never_call_complement_basis(self, monkeypatch, tmp_path, forged):
        """The gate is m x m, so a forged complement_basis (column 0 added
        to column 1, or every column scaled by 1 + 1e-6) is never called by
        fitting, saving, loading or replay, which go on bit for bit. The
        Vhat derived on demand is the first to call it, and verify_ohf then
        sees the forged frame."""
        history = periodic_history(16, 4, seed=7)
        model, _ = fit(history, FitOptions(mode="least_squares"))
        assert verify_ohf(model.ohf, history).passed
        path = tmp_path / "m.bin"
        calls = []

        def spy(V):
            calls.append(V.shape)
            return forged(complement_basis(V))

        monkeypatch.setattr(sclrom.ohf, "complement_basis", spy)
        forged_model, _ = fit(history, FitOptions(mode="least_squares"))
        write_model(forged_model, path)
        loaded = read_model(path)
        states = replay(loaded, 0, 8)
        assert calls == []
        assert states.tobytes() == replay(model, 0, 8).tobytes()
        assert not verify_ohf(loaded.ohf, history).passed
        assert calls == [(16, 4)]

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 64), st.integers(0, 2**16))
    # histories on which strided and contiguous products round differently
    @example(m=8, extra=48, seed=0)
    @example(m=8, extra=48, seed=2)
    def test_residuals_do_not_depend_on_the_history_layout(self, m, extra, seed):
        data = almost_periodic_history(2 * m + extra, m, 1e-3, m, seed).perturbed.data
        ohf = build_ohf(SnapshotHistory(data))
        reports = [verify_ohf(ohf, SnapshotHistory(layout))
                   for layout in (np.ascontiguousarray(data), np.asfortranarray(data))]
        assert reports[0] == reports[1]
