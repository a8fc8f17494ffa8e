"""Deterministic test dynamics: periodic frames and a 1-D wave simulator.

Every generator is a pure function of its parameters and seed; the same
inputs produce bit-identical output. Randomness comes from
``numpy.random.default_rng`` (PCG64), whose stream is stable across
platforms and library versions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionTooSmall, InsufficientData, NumericalFailure
from .ohf import SnapshotHistory, pin_column_phases


def random_orthonormal_columns(n: int, m: int, seed) -> np.ndarray:
    """Seeded random orthonormal m-frame in C^n.

    Gram-Schmidt over a complex Gaussian draw, followed by the phase
    convention of the SVD factors (:func:`sclrom.ohf.pin_column_phases`).
    """
    if m > n:
        raise DimensionTooSmall(f"cannot fit {m} orthonormal columns in dimension {n}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    Q = np.zeros((n, m), dtype=np.complex128)
    for j in range(m):
        v = G[:, j]
        for _ in range(2):
            for k in range(j):
                v = v - Q[:, k] * np.vdot(Q[:, k], v)
        Q[:, j] = v / np.linalg.norm(v)
    pin_column_phases(Q)
    return Q


def periodic_history(n: int, period: int, seed: int, horizon: int | None = None) -> SnapshotHistory:
    """Exactly periodic snapshot trajectory rotating through a random frame.

    States are x_t = Q roll(w, t mod period) for a seeded orthonormal frame
    Q and weight vector w, so x_{t+period} is bit-identical to x_t. The
    weights are drawn in the Fourier domain with magnitudes in [0.5, 1.5],
    which bounds the condition number of one period of snapshots by 3 and
    keeps every seed safely nondegenerate.
    """
    if period < 1:
        raise InsufficientData(f"period must be positive, got {period}")
    if seed < 0:
        raise ConfigInvalid(f"seed must be nonnegative, got {seed}")
    if n < 2 * period:
        raise DimensionTooSmall(f"need n >= 2*period, got n={n}, period={period}")
    horizon = period if horizon is None else horizon
    if horizon < 1:
        raise InsufficientData(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    frame = random_orthonormal_columns(n, period, rng)
    magnitudes = 0.5 + rng.random(period)
    phases = np.exp(2j * np.pi * rng.random(period))
    weights = np.fft.ifft(magnitudes * phases)
    cols = [frame @ np.roll(weights, t % period) for t in range(horizon)]
    return SnapshotHistory(np.column_stack(cols))


@dataclass(eq=False)
class AlmostPeriodicPair:
    perturbed: SnapshotHistory
    clean: SnapshotHistory


def almost_periodic_history(
    n: int, period: int, eps_pert: float, horizon: int, seed: int
) -> AlmostPeriodicPair:
    """Exactly periodic trajectory plus per-column noise of exact norm.

    ``clean`` equals ``periodic_history(n, period, seed, horizon)``; the
    perturbed history adds an independent seeded random vector to every
    column, scaled so each perturbation has Euclidean norm ``eps_pert``.
    With ``eps_pert == 0`` the perturbed history is a bitwise copy of the
    clean one.
    """
    if horizon < period:
        raise InsufficientData(f"horizon {horizon} shorter than period {period}")
    if eps_pert < 0:
        raise ConfigInvalid("perturbation size must be nonnegative")
    clean = periodic_history(n, period, seed, horizon)
    if eps_pert == 0.0:
        return AlmostPeriodicPair(perturbed=SnapshotHistory(clean.data.copy()), clean=clean)
    rng = np.random.default_rng([seed, 1])
    E = rng.standard_normal((n, horizon)) + 1j * rng.standard_normal((n, horizon))
    E *= eps_pert / np.linalg.norm(E, axis=0)
    return AlmostPeriodicPair(perturbed=SnapshotHistory(clean.data + E), clean=clean)


@dataclass(frozen=True)
class SineMode:
    """Initial profile sin(k pi x / L)."""

    k: int = 1

    def evaluate(self, x: np.ndarray, L: float) -> np.ndarray:
        return np.sin(self.k * np.pi * x / L)


@dataclass(frozen=True)
class GaussianBump:
    """Initial profile exp(-((x - center) / width)^2)."""

    center: float
    width: float

    def evaluate(self, x: np.ndarray, L: float) -> np.ndarray:
        return np.exp(-(((x - self.center) / self.width) ** 2))


@dataclass
class WaveConfig:
    """Configuration of the 1-D wave simulator.

    The sanity bound requires the time step to resolve the fundamental
    mode, pi * c * dt / L <= 1 (roughly six steps per fundamental period
    or better); the implicit midpoint scheme is unconditionally stable but
    coarser steps make the output useless as test data.
    """

    L: float = 1.0
    c: float = 1.0
    nx: int = 100
    nt: int = 40
    dt: float = 0.05
    w0: SineMode | GaussianBump = SineMode(1)

    def __post_init__(self):
        if self.L <= 0 or self.c <= 0:
            raise ConfigInvalid("domain length and wave speed must be positive")
        if self.nx < 3:
            raise ConfigInvalid(f"need at least 3 interior grid points, got {self.nx}")
        if self.nt < 1:
            raise ConfigInvalid(f"need at least 1 time step, got {self.nt}")
        if self.dt <= 0:
            raise ConfigInvalid("time step must be positive")
        if np.pi * self.c * self.dt / self.L > 1.0:
            raise ConfigInvalid(
                f"dt={self.dt} does not resolve the fundamental mode "
                f"(pi*c*dt/L = {np.pi * self.c * self.dt / self.L:.3f} > 1)"
            )

    @property
    def dx(self) -> float:
        return self.L / (self.nx + 1)

    def grid(self) -> np.ndarray:
        return self.dx * np.arange(1, self.nx + 1)


def simulate_wave_1d(cfg: WaveConfig, return_velocity: bool = False):
    """Fixed-end 1-D wave run: second-order differences in space, implicit
    midpoint (Crank-Nicolson) in time, zero initial velocity.

    Returns a SnapshotHistory of nt+1 displacement snapshots (state
    dimension nx); with ``return_velocity`` also the matching velocity
    array, needed for discrete-energy checks.
    """
    nx, nt, dx, dt, c = cfg.nx, cfg.nt, cfg.dx, cfg.dt, cfg.c
    x = cfg.grid()

    D2 = (
        np.diag(-2.0 * np.ones(nx)) + np.diag(np.ones(nx - 1), 1) + np.diag(np.ones(nx - 1), -1)
    ) / dx**2
    A = np.zeros((2 * nx, 2 * nx))
    A[:nx, nx:] = np.eye(nx)
    A[nx:, :nx] = c**2 * D2
    eye = np.eye(2 * nx)
    try:  # a grid or speed beyond float range makes the system singular
        stepper = np.linalg.solve(eye - 0.5 * dt * A, eye + 0.5 * dt * A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"wave time stepper: {exc}") from exc

    y = np.concatenate([cfg.w0.evaluate(x, cfg.L), np.zeros(nx)])
    w_hist = np.zeros((nx, nt + 1))
    u_hist = np.zeros((nx, nt + 1))
    w_hist[:, 0] = y[:nx]
    u_hist[:, 0] = y[nx:]
    for k in range(1, nt + 1):
        y = stepper @ y
        w_hist[:, k] = y[:nx]
        u_hist[:, k] = y[nx:]

    history = SnapshotHistory(w_hist.astype(np.complex128))
    if return_velocity:
        return history, u_hist
    return history


def wave_energy(displacements: np.ndarray, velocities: np.ndarray, cfg: WaveConfig) -> np.ndarray:
    """Per-snapshot discrete energy sum(|u|^2) + c^2 sum(|D+ w|^2).

    The forward difference uses zero ghost values at both ends, matching
    the fixed boundary conditions; the implicit midpoint stepper conserves
    this quadratic form to rounding, so its drift measures solver quality.
    """
    w = np.asarray(displacements)
    u = np.asarray(velocities)
    nx = w.shape[0]
    padded = np.zeros((nx + 2, w.shape[1]), dtype=w.dtype)
    padded[1:-1, :] = w
    grad = np.diff(padded, axis=0) / cfg.dx
    return np.sum(np.abs(u) ** 2, axis=0) + cfg.c**2 * np.sum(np.abs(grad) ** 2, axis=0)
