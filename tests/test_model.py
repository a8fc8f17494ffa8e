"""Tests for model fitting, prediction, and the replay verification."""
import tracemalloc
import warnings

import numpy as np
import pytest
from dense_oracle import dense_factors, transition_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclrom import (
    ConfigInvalid,
    DegenerateHistory,
    DimensionMismatch,
    FitOptions,
    InsufficientData,
    SclRomError,
    SnapshotHistory,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    replay,
    verify_mimetic,
    write_model,
    write_snapshots,
)
from sclrom.persistence import _snapshot_columns


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
        assert model.period == 8
        assert report.epsilon_achieved <= 1e-10

    def test_period_larger_than_history_rejected(self):
        h = periodic_history(64, 8, seed=5)
        with pytest.raises(InsufficientData):
            fit(h, FitOptions(period=9))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown mode 'bogus'"):
            FitOptions(mode="bogus")


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
        """Column k of the coefficients of a period-6 fit of 20 steps is the
        mean of the per-step solves W* diag(kappa/(rho s)) V* v_t over the
        steps t = k mod 6."""
        pair = almost_periodic_history(48, 6, 1e-3, 20, seed=3)
        model, _ = fit(pair.perturbed, FitOptions(mode="least_squares", period=6))
        ohf = model.ohf
        inv_scale = ohf.kappa / (ohf.rho * ohf.singular_values)
        assert model.period == 6
        for k in range(model.period):
            steps = [ohf.W.conj().T @ (inv_scale * (ohf.V.conj().T @ pair.perturbed.data[:, t]))
                     for t in range(k, 20, 6)]
            mean = np.mean(steps, axis=0)
            assert np.linalg.norm(model.coeffs[:, k] - mean) <= 1e-12 * np.linalg.norm(mean)

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

    @pytest.mark.parametrize("t0, t1", [(0, 1), (5, 256), (256, 600), (300, 511), (856, 1200)])
    def test_window_in_one_block_is_its_fresh_states(self, t0, t1):
        """A 600-step period is the blocks [0, 256) and [256, 600). A window
        inside one of them, wrapped or not, is a view of that block's fresh
        states: writable, column-major, bitwise predict, and made with no
        second copy, so the replay peaks near the block alone."""
        # a rank-4 history fitted with period 600 has 4 x 600 coefficients
        history = periodic_history(256, 4, seed=3, horizon=600)
        model, _ = fit(history, FitOptions(mode="least_squares", period=600, truncate_rank=True))
        assert model.period == 600
        start = 0 if t0 % 600 < 256 else 256
        block_bytes = ((256 if start == 0 else 600) - start) * 256 * 16
        tracemalloc.start()
        try:
            window = replay(model, t0, t1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + window.nbytes / 2 + 2**16, (peak, block_bytes)
        assert window.shape == (256, t1 - t0)
        assert window.flags.f_contiguous and window.flags.writeable
        for j, t in enumerate(range(t0, t1)):
            assert window[:, j].tobytes() == predict(model, t).tobytes(), t

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
        assert model.m == 8
        assert model.n == 64
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

    def test_state_dimension_mismatch_rejected(self):
        model, _ = fit(periodic_history(64, 8, seed=1))
        with pytest.raises(DimensionMismatch, match="state dimension 64 but history has 32"):
            verify_mimetic(model, periodic_history(32, 8, seed=1), 1e-10)

    def test_failing_threshold(self):
        pair = almost_periodic_history(32, 4, 1e-2, 4, seed=1)
        model, _ = fit(pair.clean)
        report = verify_mimetic(model, pair.perturbed, 1e-10)
        assert not report.passed

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 200),
        period=st.integers(1, 6),
        extra=st.integers(0, 5),
        seed=st.integers(0, 2**16),
        fit_order=st.sampled_from(["C", "F"]),
        verify_order=st.sampled_from(["C", "F"]),
    )
    @example(n=64, period=1, extra=0, seed=1, fit_order="C", verify_order="F")  # one step
    @example(n=2**16, period=4, extra=2, seed=3, fit_order="F", verify_order="F")
    def test_fit_and_verify_residuals_are_bitwise_predict_gaps(
        self, n, period, extra, seed, fit_order, verify_order
    ):
        """Residuals keep every bit, whatever the layouts of the fitted and
        the verified history, also on the columns past the fitted period,
        which verify_mimetic replays from the start of the period again."""
        period = min(period, n // 2)
        steps = period + extra
        data = almost_periodic_history(n, period, 1e-3, steps + 3, seed=seed).perturbed.data
        history = SnapshotHistory(np.asarray(data, order=verify_order))
        train = SnapshotHistory(np.array(data[:, :steps], order=fit_order))
        model, fit_report = fit(train, FitOptions(mode="least_squares", period=period))
        report = verify_mimetic(model, history, 1.0)
        direct = [np.linalg.norm(predict(model, t) - data[:, t]) for t in range(steps + 3)]
        assert np.array(fit_report.per_step).tobytes() == np.array(direct[:steps]).tobytes()
        assert [k for k, _ in report.per_step] == list(range(steps + 3))
        assert np.array([r for _, r in report.per_step]).tobytes() == np.array(direct).tobytes()

    @pytest.mark.parametrize("period, n, columns", [
        *(pytest.param(8, 64, columns, id=str(columns)) for columns in (5, 16, 20, 600)),
        # the last lap ends inside the first of the period's two pinned blocks
        pytest.param(512, 1024, 600, id="period512-600"),
    ])
    def test_every_column_is_verified(self, tmp_path, period, n, columns):
        """A history longer than the model's period is checked on every
        column, step k against phase k mod period as replay wraps it, in
        memory and streamed from a file: the columns past the period are
        scaled and shifted, so verification fails, and each residual is the
        gap that replay gives. The fitted history is exactly periodic, so
        the model's period is the frame's."""
        h = periodic_history(n, period, seed=1)
        model, _ = fit(h)
        data = h.data[:, np.arange(columns) % period]
        data[:, period:] = 3.0 * data[:, period:] + 0.5
        states = replay(model, 0, columns)
        gaps = [np.linalg.norm(states[:, k] - data[:, k]) for k in range(columns)]
        path = tmp_path / "h.bin"
        write_snapshots(SnapshotHistory(data), path)
        with _snapshot_columns(path) as streamed:
            reports = [verify_mimetic(model, SnapshotHistory(data), 1e-10),
                       verify_mimetic(model, streamed, 1e-10)]
        for report in reports:
            assert [k for k, _ in report.per_step] == list(range(columns))
            assert np.array([r for _, r in report.per_step]).tobytes() == np.array(gaps).tobytes()
            assert report.passed == (columns <= period)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("scale, overflows", [(1e154, False), (1.5e154, True), (1e155, True)],
                             ids=["finite", "sum-overflows", "parts-overflow"])
    def test_huge_gaps_keep_their_bits_and_overflow_to_inf(self, order, scale, overflows):
        """Gaps near sqrt(float max): a residual whose square overflows, in
        one part or only in their sum, reads inf, without a warning."""
        h = periodic_history(64, 4, seed=2)
        model, _ = fit(h)
        far = SnapshotHistory(np.asarray(h.data * scale, order=order))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_mimetic(model, far, 1.0)
        with np.errstate(over="ignore"):
            direct = [np.linalg.norm(predict(model, t) - far.data[:, t]) for t in range(4)]
        assert np.array([r for _, r in report.per_step]).tobytes() == np.array(direct).tobytes()
        assert np.isinf(report.max_residual) == overflows
        assert not report.passed


class TestLayoutInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        period=st.integers(1, 6),
        extra=st.integers(0, 6),
        spare=st.integers(0, 200),
        noise=st.sampled_from([0.0, 1e-6]),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["monomial", "least_squares"]),
        truncate=st.booleans(),
        frame_period=st.booleans(),
    )
    # the history on which the strided and the contiguous dot product of
    # the first column round differently
    @example(period=32, extra=0, spare=1984, noise=0.0, seed=1, mode="monomial",
             truncate=False, frame_period=False)
    @example(period=16, extra=48, spare=480, noise=1e-6, seed=1, mode="least_squares",
             truncate=False, frame_period=True)
    @example(period=4, extra=8, spare=30, noise=0.0, seed=3, mode="least_squares",
             truncate=True, frame_period=False)
    def test_c_and_f_ordered_histories_give_identical_model_files(
        self, tmp_path_factory, period, extra, spare, noise, seed, mode, truncate, frame_period
    ):
        """A fit, its model file and its residuals depend on the history's
        values, not on its memory layout; so does a failed fit."""
        steps = period + extra
        data = almost_periodic_history(2 * period + spare, period, noise, steps, seed).perturbed.data
        opts = FitOptions(mode=mode, truncate_rank=truncate,
                          period=period if frame_period else None)
        outcomes = []
        for layout in (np.ascontiguousarray(data), np.asfortranarray(data)):
            try:
                model, report = fit(SnapshotHistory(layout), opts)
            except SclRomError as exc:
                outcomes.append(repr(exc))
                continue
            path = tmp_path_factory.mktemp("layout") / "m.bin"
            write_model(model, path)
            outcomes.append((path.read_bytes(), np.array(report.per_step).tobytes()))
        assert outcomes[0] == outcomes[1]
