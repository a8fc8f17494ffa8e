"""Tests for model fitting, prediction, and the replay verification."""
import numpy as np
import pytest
from dense_oracle import dense_factors, transition_matrix

from sclrom import (
    DegenerateHistory,
    FitOptions,
    InsufficientData,
    SnapshotHistory,
    almost_periodic_history,
    detect_period,
    fit,
    periodic_history,
    predict,
    replay,
    verify_mimetic,
)


def full_matrix_residuals(model, history):
    """Oracle: residuals through the explicit K H_t T v_1 product chain."""
    K, T, _ = dense_factors(model.ohf.V, model.ohf.Vhat)
    v1 = history.data[:, 0]
    out = []
    for t in range(model.period):
        xt = K @ transition_matrix(model, t) @ (T @ v1)
        out.append(np.linalg.norm(xt - history.data[:, t]))
    return out


class TestFitMonomial:
    def test_exactly_periodic_reproduction(self):
        h = periodic_history(64, 8, seed=1)
        model, report = fit(h, FitOptions(mode="monomial"))
        assert report.epsilon_achieved <= 1e-10
        assert report.target_met

    def test_epsilon_matches_full_matrix_recompute(self):
        h = periodic_history(64, 8, seed=1)
        model, report = fit(h, FitOptions(mode="monomial"))
        oracle = max(full_matrix_residuals(model, h))
        assert abs(oracle - model.epsilon_achieved) <= 1e-12

    def test_single_snapshot_closed_form(self):
        h = SnapshotHistory(np.array([[2.0], [1.0], [0.0], [0.0]], dtype=complex))
        model, report = fit(h, FitOptions(mode="monomial"))
        kappa, rho = model.ohf.kappa, model.ohf.rho
        np.testing.assert_allclose(model.coeffs[:, 0], [kappa / rho], atol=1e-14)
        np.testing.assert_allclose(predict(model, 0), h.data[:, 0], atol=1e-12)

    def test_missed_target_is_flagged_not_raised(self):
        pair = almost_periodic_history(32, 4, 1e-2, 8, seed=3)
        train = SnapshotHistory(pair.perturbed.data[:, :8].copy())
        model, report = fit(train, FitOptions(mode="monomial", epsilon=1e-16, period=4))
        assert not report.target_met
        assert report.epsilon_achieved > 1e-16

    def test_period_smaller_than_history(self):
        h = periodic_history(64, 8, seed=5, horizon=16)
        model, report = fit(h, FitOptions(mode="monomial", period=8))
        assert model.m == 8
        assert model.period == 16
        assert report.epsilon_achieved <= 1e-10

    def test_period_larger_than_history_rejected(self):
        h = periodic_history(64, 8, seed=5)
        with pytest.raises(InsufficientData):
            fit(h, FitOptions(period=9))


class TestFitLeastSquares:
    def test_matches_normal_equations_oracle(self):
        # independent path: solve (rho CH)* (rho CH) c = (rho CH)* target
        h = periodic_history(32, 6, seed=2)
        model, _ = fit(h, FitOptions(mode="least_squares"))
        ohf = model.ohf
        CH = (ohf.V * (ohf.singular_values / ohf.singular_values[0])) @ ohf.W
        A = ohf.rho * CH
        gram = A.conj().T @ A
        for t in range(model.period):
            target = h.data[:, t]
            oracle = np.linalg.solve(gram, A.conj().T @ target)
            np.testing.assert_allclose(model.coeffs[:, t], oracle, rtol=1e-8, atol=1e-12)

    def test_coefficients_match_per_step_solve(self):
        """The one-product coefficients equal W* diag(kappa/(rho s)) V* v_t per step."""
        pair = almost_periodic_history(48, 6, 1e-3, 20, seed=3)
        model, _ = fit(pair.perturbed, FitOptions(mode="least_squares", period=6))
        ohf = model.ohf
        inv_scale = ohf.kappa / (ohf.rho * ohf.singular_values)
        for t in range(model.period):
            target = pair.perturbed.data[:, t]
            step = ohf.W.conj().T @ (inv_scale * (ohf.V.conj().T @ target))
            assert np.linalg.norm(model.coeffs[:, t] - step) <= 1e-12 * np.linalg.norm(step)

    def test_dominates_monomial(self):
        for seed in range(5):
            pair = almost_periodic_history(48, 6, 1e-3, 6, seed=seed)
            m_lsq, r_lsq = fit(pair.perturbed, FitOptions(mode="least_squares"))
            m_mono, r_mono = fit(pair.perturbed, FitOptions(mode="monomial"))
            assert r_lsq.epsilon_achieved <= r_mono.epsilon_achieved + 1e-12

    def test_rank_truncated_fit(self):
        # a rank-one trajectory: every column is a multiple of one profile
        profile = np.sin(np.linspace(0.1, 3.0, 24))
        amplitudes = np.cos(0.3 * np.arange(10))
        data = np.outer(profile, amplitudes).astype(complex)
        h = SnapshotHistory(data)
        with pytest.raises(DegenerateHistory):
            fit(h, FitOptions(mode="least_squares"))
        model, report = fit(h, FitOptions(mode="least_squares", truncate_rank=True))
        assert model.m == 1
        assert model.period == 10
        scale = np.max(np.linalg.norm(data, axis=0))
        assert report.epsilon_achieved <= 1e-10 * scale


class TestAlmostPeriodicBound:
    @pytest.mark.parametrize("eps_pert", [1e-2, 1e-4])
    def test_prediction_tracks_perturbed_trajectory(self, eps_pert):
        T = 8
        pair = almost_periodic_history(64, T, eps_pert, 2 * T, seed=12)
        train = SnapshotHistory(pair.perturbed.data[:, :T].copy())
        model, _ = fit(train, FitOptions(mode="least_squares"))
        for t in range(T, 2 * T):
            residual = np.linalg.norm(predict(model, t) - pair.perturbed.data[:, t])
            assert residual <= 2.0 * eps_pert + 1e-10


class TestTransitionMatrix:
    def test_identity_coefficient_gives_span_projector(self):
        cols = np.zeros((8, 3), dtype=complex)
        cols[0, 0] = cols[1, 1] = cols[2, 2] = 1.0
        h = SnapshotHistory(cols)
        model, _ = fit(h, FitOptions(mode="monomial"))
        assert model.ohf.kappa == pytest.approx(1.0)
        assert model.ohf.rho == pytest.approx(1.0)
        P = model.ohf.Vhat @ model.ohf.Vhat.conj().T
        np.testing.assert_allclose(transition_matrix(model, 0), P, atol=1e-12)

    def test_periodic_extension_is_bitwise(self):
        h = periodic_history(32, 4, seed=8)
        model, _ = fit(h)
        assert np.array_equal(transition_matrix(model, 1), transition_matrix(model, 5))

    def test_rank_bounded_by_frame_size(self):
        h = periodic_history(32, 8, seed=6)
        model, _ = fit(h)
        for t in range(model.period):
            s = np.linalg.svd(transition_matrix(model, t), compute_uv=False)
            rank = int(np.count_nonzero(s > 1e-10 * s[0]))
            assert rank == 8


class TestPredict:
    def test_step_zero_returns_first_snapshot(self):
        h = periodic_history(48, 6, seed=10)
        model, report = fit(h)
        np.testing.assert_allclose(
            predict(model, 0), h.data[:, 0], atol=max(report.epsilon_achieved, 1e-12)
        )

    def test_full_period_wraps_to_start(self):
        h = periodic_history(48, 6, seed=10)
        model, report = fit(h)
        np.testing.assert_allclose(
            predict(model, 6), h.data[:, 0], atol=max(report.epsilon_achieved, 1e-12)
        )

    def test_intermediate_step(self):
        h = periodic_history(64, 8, seed=4)
        model, _ = fit(h)
        target = h.data[:, 3]
        assert np.linalg.norm(predict(model, 3) - target) <= 1e-10 * np.linalg.norm(target)

    def test_modular_reduction_is_bitwise(self):
        h = periodic_history(32, 4, seed=8)
        model, _ = fit(h)
        assert np.array_equal(predict(model, 2), predict(model, 6))

    def test_negative_step_rejected(self):
        h = periodic_history(32, 4, seed=8)
        model, _ = fit(h)
        with pytest.raises(ValueError):
            predict(model, -1)


class TestReplay:
    def test_window_shape_and_period_wrap(self):
        h = periodic_history(32, 4, seed=8)
        model, _ = fit(h)
        window = replay(model, 2, 11)
        assert window.shape == (32, 9)
        assert np.array_equal(window[:, 0], window[:, 4])
        assert replay(model, 5, 5).shape == (32, 0)

    def test_predict_returns_an_owned_vector(self):
        model, _ = fit(periodic_history(32, 4, seed=8))
        state = predict(model, 1)
        assert state.flags.owndata and state.flags.c_contiguous

    @pytest.mark.parametrize("t0, t1", [(-1, 2), (3, 2)])
    def test_bad_window_rejected(self, t0, t1):
        model, _ = fit(periodic_history(32, 4, seed=8))
        with pytest.raises(ValueError):
            replay(model, t0, t1)


class TestVerifyMimetic:
    def test_desk_scale_pass(self):
        h = periodic_history(64, 8, seed=1)
        model, _ = fit(h)
        report = verify_mimetic(model, h, 1e-10)
        assert report.passed
        assert report.max_residual <= 1e-10
        assert report.m == 8
        assert report.n == 64
        assert len(report.per_step) == 8

    def test_residual_matches_predict(self):
        h = periodic_history(32, 4, seed=2)
        model, _ = fit(h)
        report = verify_mimetic(model, h, 1e-10)
        for k, residual in report.per_step:
            direct = np.linalg.norm(predict(model, k) - h.data[:, k])
            assert residual == direct

    def test_corrupted_step_zero_fails(self):
        h = periodic_history(64, 8, seed=1)
        model, _ = fit(h)
        model.coeffs[:, 0] = model.coeffs[:, 1]
        report = verify_mimetic(model, h, 1e-10)
        assert not report.passed
        worst_step, worst = max(report.per_step, key=lambda item: item[1])
        assert worst_step == 0 and worst > 0.1
        assert all(r <= 1e-10 for k, r in report.per_step if k > 0)

    def test_failing_threshold(self):
        pair = almost_periodic_history(32, 4, 1e-2, 4, seed=1)
        model, _ = fit(pair.clean)
        report = verify_mimetic(model, pair.perturbed, 1e-10)
        assert not report.passed


class TestDetectPeriod:
    def test_exact_period_found(self):
        h = periodic_history(24, 4, seed=3, horizon=12)
        report = detect_period(h, [2, 3, 4, 5])
        assert report.best_T == 4
        assert report.scores[4] == 0.0
        assert report.within_tol

    def test_constant_history_tie_breaks_small(self):
        data = np.tile(np.arange(1.0, 9.0).reshape(-1, 1), (1, 6)).astype(complex)
        report = detect_period(SnapshotHistory(data), [1, 2, 3])
        assert report.best_T == 1

    def test_noisy_score_within_generator_bound(self):
        # noise of relative size 1e-3: perturbation norm scaled to the
        # (constant) clean column norm
        clean = periodic_history(64, 4, seed=6, horizon=16)
        scale = float(np.linalg.norm(clean.data[:, 0]))
        pair = almost_periodic_history(64, 4, 1e-3 * scale, 16, seed=6)
        report = detect_period(pair.perturbed, [2, 3, 4, 5], tol=1.0)
        assert report.best_T == 4
        assert 0.5e-3 <= report.scores[4] <= 4e-3

    def test_insufficient_columns(self):
        h = periodic_history(24, 4, seed=3, horizon=7)
        with pytest.raises(InsufficientData):
            detect_period(h, [2, 3, 4])

    def test_empty_candidates(self):
        h = periodic_history(24, 4, seed=3, horizon=8)
        with pytest.raises(InsufficientData):
            detect_period(h, [])
