"""Tests for the deterministic data generators and the wave simulator."""
import tracemalloc

import numpy as np
import pytest
from dense_oracle import dense_wave_1d
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sclrom import (
    ConfigInvalid,
    DegenerateHistory,
    DimensionTooSmall,
    GaussianBump,
    InsufficientData,
    NumericalFailure,
    SclRomError,
    SineMode,
    SnapshotHistory,
    WaveConfig,
    almost_periodic_history,
    build_ohf,
    periodic_history,
    random_orthonormal_columns,
    simulate_wave_1d,
    wave_energy,
)


class TestRandomOrthonormalColumns:
    def test_orthonormality(self):
        Q = random_orthonormal_columns(10, 4, seed=0)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(4), atol=1e-12)

    def test_deterministic(self):
        a = random_orthonormal_columns(10, 4, seed=0)
        b = random_orthonormal_columns(10, 4, seed=0)
        assert np.array_equal(a, b)

    def test_phase_convention(self):
        Q = random_orthonormal_columns(10, 4, seed=1)
        for j in range(4):
            pivot = Q[np.argmax(np.abs(Q[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0

    def test_too_many_columns(self):
        with pytest.raises(DimensionTooSmall):
            random_orthonormal_columns(3, 4, seed=0)


class TestPeriodicHistory:
    def test_periodicity_is_bitwise(self):
        h = periodic_history(4, 2, seed=0, horizon=4)
        assert np.array_equal(h.data[:, 0], h.data[:, 2])
        assert np.array_equal(h.data[:, 1], h.data[:, 3])

    def test_determinism_is_bitwise(self):
        a = periodic_history(64, 8, seed=1)
        b = periodic_history(64, 8, seed=1)
        assert a.data.tobytes() == b.data.tobytes()

    def test_columns_have_distinct_directions(self):
        h = periodic_history(64, 8, seed=1)
        norms = np.linalg.norm(h.data, axis=0)
        gram = np.abs(h.data.conj().T @ h.data) / np.outer(norms, norms)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-3

    def test_nondegenerate_for_many_seeds(self):
        for seed in range(20):
            h = periodic_history(32, 8, seed=seed)
            s = np.linalg.svd(h.data, compute_uv=False)
            assert s[-1] > 0.1 * s[0]  # spectrum magnitudes bound the ratio by 3

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            periodic_history(15, 8, seed=0)

    @pytest.mark.parametrize("horizon", [3, 8, 40, 43])
    def test_matches_per_step_generator_bitwise(self, horizon):
        """Below, equal to, a multiple of and not a multiple of the period 8."""
        n, period, seed = 24, 8, 5
        rng = np.random.default_rng(seed)
        frame = random_orthonormal_columns(n, period, rng)
        magnitudes = 0.5 + rng.random(period)
        phases = np.exp(2j * np.pi * rng.random(period))
        weights = np.fft.ifft(magnitudes * phases)
        per_step = np.column_stack(
            [frame @ np.roll(weights, t % period) for t in range(horizon)]
        )
        h = periodic_history(n, period, seed, horizon)
        assert h.data.tobytes() == per_step.tobytes()


class TestAlmostPeriodicHistory:
    def test_zero_perturbation_is_bitwise_copy(self):
        pair = almost_periodic_history(16, 4, 0.0, 8, seed=2)
        assert pair.perturbed.data.tobytes() == pair.clean.data.tobytes()

    def test_perturbation_norms_are_exact(self):
        # recovering E as (clean + E) - clean loses bits below 1e-16 * |clean|,
        # so the recomputed norms match to ~1e-12 relative, not to the ulp
        pair = almost_periodic_history(64, 8, 1e-3, 16, seed=2)
        diffs = np.linalg.norm(pair.perturbed.data - pair.clean.data, axis=0)
        np.testing.assert_allclose(diffs, 1e-3, rtol=1e-11)

    def test_clean_matches_periodic_generator(self):
        pair = almost_periodic_history(16, 4, 1e-3, 8, seed=5)
        direct = periodic_history(16, 4, seed=5, horizon=8)
        assert np.array_equal(pair.clean.data, direct.data)

    @pytest.mark.parametrize(
        "n, period, eps_pert, horizon, seed", [(64, 8, 1e-3, 16, 2), (16, 4, 0.5, 37, 9)]
    )
    def test_noise_is_one_interleaved_draw(self, n, period, eps_pert, horizon, seed):
        """Row t of one (horizon, 2n) normal draw is column t's perturbation as
        (re, im) pairs; the sum is column-major."""
        pair = almost_periodic_history(n, period, eps_pert, horizon, seed)
        draw = np.random.default_rng([seed, 1]).standard_normal((horizon, 2 * n))
        noise = draw[:, 0::2] + 1j * draw[:, 1::2]
        noise *= eps_pert / np.linalg.norm(noise, axis=1, keepdims=True)
        # the difference loses bits below 1e-16 * |clean|, hence the atol
        np.testing.assert_allclose(
            pair.perturbed.data - pair.clean.data, noise.T, rtol=1e-9, atol=1e-9 * eps_pert
        )
        assert pair.perturbed.data.flags.f_contiguous

    @pytest.mark.parametrize("seed", [1, 2])
    def test_peak_memory_stays_near_two_histories(self, seed):
        """The clean history and the noise buffer the sum is built in; the
        long-horizon benchmark's size."""
        n, horizon = 512, 1024
        tracemalloc.start()
        try:
            almost_periodic_history(n, 16, 1e-6, horizon, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history_bytes = n * horizon * 16
        assert peak <= 2.25 * history_bytes, f"peak {peak / history_bytes:.2f}x the history"

    def test_horizon_shorter_than_period_rejected(self):
        with pytest.raises(InsufficientData):
            almost_periodic_history(16, 4, 1e-3, 3, seed=0)


class TestWaveSimulator:
    def test_output_shape(self):
        h = simulate_wave_1d(WaveConfig())
        assert h.data.shape == (100, 41)

    def test_non_finite_mode_angle_is_numerical_failure(self, monkeypatch):
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda *args: np.nan * arctan2(*args))
        with pytest.raises(NumericalFailure, match="non-finite mode angle"):
            simulate_wave_1d(WaveConfig())

    def test_grid_beyond_float_range_raises_library_error(self):
        # c**2 underflows and 1/dx**2 overflows: the config is rejected
        L, c, nt = 5.8e-158, 1.4e-178, 7
        with pytest.raises(SclRomError):
            simulate_wave_1d(WaveConfig(L=L, c=c, nx=8, nt=nt, dt=2.0 * L / (c * nt)))

    def test_matches_separated_solution(self):
        # oracle: w(x, t) = cos(pi c t / L) sin(pi x / L) for the fundamental
        # mode; agreement is limited by the O(dt^2) + O(dx^2) phase error
        cfg = WaveConfig()
        h = simulate_wave_1d(cfg)
        x = cfg.grid()
        worst = 0.0
        for k in range(cfg.nt + 1):
            exact = np.cos(np.pi * cfg.c * k * cfg.dt / cfg.L) * np.sin(np.pi * x / cfg.L)
            worst = max(worst, np.max(np.abs(h.data[:, k].real - exact)))
        assert worst <= 2e-2

    def test_detected_period_matches_sampling(self):
        # two fundamental periods of 40 steps each
        cfg = WaveConfig(nt=84)
        data = simulate_wave_1d(cfg).data
        # worst wrap-around mismatch max_t ||v_{t+T} - v_t||, relative to the largest state
        scale = np.max(np.linalg.norm(data, axis=0))
        scores = {T: np.max(np.linalg.norm(data[:, T:] - data[:, :-T], axis=0)) / scale
                  for T in (38, 39, 40, 41, 42)}
        assert min(scores, key=lambda T: (scores[T], T)) in (39, 40, 41)

    def test_energy_conserved_over_period(self):
        cfg = WaveConfig()
        h, vel = simulate_wave_1d(cfg, return_velocity=True)
        energy = wave_energy(h.data.real, vel, cfg)
        drift = np.max(np.abs(energy - energy[0])) / energy[0]
        assert drift <= 1e-10

    def test_zero_profile_degenerates_at_build(self):
        cfg = WaveConfig(nx=20, nt=4, w0=GaussianBump(center=-50.0, width=1e-3))
        h = simulate_wave_1d(cfg)
        assert np.max(np.abs(h.data)) == 0.0
        with pytest.raises(DegenerateHistory):
            build_ohf(SnapshotHistory(h.data[:, :2].copy()))

    def test_gaussian_profile_runs(self):
        cfg = WaveConfig(nx=40, nt=10, dt=0.02, w0=GaussianBump(center=0.5, width=0.1))
        h = simulate_wave_1d(cfg)
        assert h.data.shape == (40, 11)

    def test_config_guards(self):
        with pytest.raises(ConfigInvalid):
            WaveConfig(nx=2)
        with pytest.raises(ConfigInvalid):
            WaveConfig(dt=-0.1)
        with pytest.raises(ConfigInvalid):
            WaveConfig(dt=0.5)  # under seven steps per fundamental period
        with pytest.raises(ConfigInvalid):
            WaveConfig(L=-1.0)
        with pytest.raises(ConfigInvalid):
            WaveConfig(nt=0)

    def test_determinism(self):
        a = simulate_wave_1d(WaveConfig(nx=30, nt=10))
        b = simulate_wave_1d(WaveConfig(nx=30, nt=10))
        assert a.data.tobytes() == b.data.tobytes()

    def test_sine_mode_beyond_float_range_rejected(self):
        for k in (10**400, 10**308, float("nan")):  # k itself, or k * pi, is not a finite float
            with pytest.raises(ConfigInvalid, match="mode number k"):
                SineMode(k)
        x = WaveConfig(L=1e3, nx=8).grid()
        with np.errstate(all="raise"):  # k pi x alone would overflow
            assert np.isfinite(SineMode(10**306).evaluate(x, 1e3)).all()

    def test_sine_mode_profile(self):
        x = np.array([0.25, 0.5, 0.75])
        np.testing.assert_allclose(
            SineMode(2).evaluate(x, 1.0), np.sin(2 * np.pi * x), atol=1e-15
        )


@st.composite
def wave_configs(draw):
    """Grids up to 64 points and 80 steps, L and c over six decades, every
    resolving time step, both profiles."""
    L, c = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    dt = draw(st.floats(0.0, 1.0, exclude_min=True)) * L / (np.pi * c)
    assume(0.0 < dt and np.pi * c * dt / L <= 1.0)
    if draw(st.booleans()):
        w0 = SineMode(draw(st.integers(1, 8)))
    else:
        w0 = GaussianBump(draw(st.floats(0.0, 1.0)) * L, draw(st.floats(0.02, 1.0)) * L)
    return WaveConfig(L=L, c=c, nx=draw(st.integers(3, 64)), nt=draw(st.integers(1, 80)),
                      dt=dt, w0=w0)


class TestWaveAgainstDenseStepper:
    @settings(max_examples=100, deadline=None)
    @given(wave_configs())
    def test_matches_dense_stepper(self, cfg):
        """The per-mode rotation against the dense 2nx x 2nx stepper. Velocity
        carries one frequency, so its scale is max|w0| times the largest mode
        frequency 2c/dx."""
        h, u = simulate_wave_1d(cfg, return_velocity=True)
        h_dense, u_dense = dense_wave_1d(cfg, return_velocity=True)
        scale = np.max(np.abs(h_dense.data[:, 0]))
        assert np.max(np.abs(h.data - h_dense.data)) <= 1e-10 * scale
        assert np.max(np.abs(u - u_dense)) <= 1e-10 * scale * 2.0 * cfg.c / cfg.dx
        energy = wave_energy(h.data.real, u, cfg)
        assert np.max(np.abs(energy - energy[0])) <= 1e-13 * energy[0]

    def test_large_grid_allocates_no_square_array(self):
        """One 8192 x 8192 float64 array alone would take 512 MiB."""
        cfg = WaveConfig(nx=8192, nt=64, dt=2.0 / 64, w0=GaussianBump(0.5, 0.05))
        tracemalloc.start()
        try:
            h = simulate_wave_1d(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.data.shape == (8192, 65)
        assert peak < 64 * 2**20
