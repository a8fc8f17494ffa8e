"""Deterministic test dynamics: periodic frames and a 1-D wave simulator.

Every generator is a pure function of its parameters and seed; the same
inputs produce bit-identical output. Randomness comes from
``numpy.random.default_rng`` (PCG64), whose stream is stable across
platforms and library versions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionTooSmall, InsufficientData, NumericalFailure
from .ohf import SnapshotHistory, pin_column_phases


def random_orthonormal_columns(n: int, m: int, seed) -> np.ndarray:
    """Seeded random orthonormal m-frame in C^n.

    The Q factor of a Householder QR of a complex Gaussian draw, followed
    by the phase convention of the SVD factors
    (:func:`sclrom.ohf.pin_column_phases`). The thin QR is unique up to
    one phase per column and the convention fixes that phase, so the frame
    equals the Gram-Schmidt orthonormalisation of the draw up to rounding.
    """
    if m > n:
        raise DimensionTooSmall(f"cannot fit {m} orthonormal columns in dimension {n}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    Q = np.linalg.qr(G)[0]
    pin_column_phases(Q)
    return Q


def periodic_history(n: int, period: int, seed: int, horizon: int | None = None) -> SnapshotHistory:
    """Exactly periodic snapshot trajectory rotating through a random frame.

    States are x_t = Q roll(w, t mod period) for a seeded orthonormal frame
    Q and weight vector w, so x_{t+period} is bit-identical to x_t: the
    period distinct states are computed once and indexed by t mod period. The
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
    one_period = np.column_stack([frame @ np.roll(weights, t) for t in range(period)])
    return SnapshotHistory(one_period[:, np.arange(horizon) % period])


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

    def __post_init__(self):
        try:
            finite = math.isfinite(self.k * math.pi)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise ConfigInvalid("sine mode number k must be finite, with k * pi within float range")

    def evaluate(self, x: np.ndarray, L: float) -> np.ndarray:
        return np.sin(self.k * np.pi * (x / L))  # x / L < 1 keeps the product finite


@dataclass(frozen=True)
class GaussianBump:
    """Initial profile exp(-((x - center) / width)^2)."""

    center: float
    width: float

    def __post_init__(self):
        if not 0.0 < self.width < np.inf:
            raise ConfigInvalid(f"Gaussian width must be positive and finite, got {self.width}")
        if not np.isfinite(self.center):
            raise ConfigInvalid(f"Gaussian center must be finite, got {self.center}")

    def evaluate(self, x: np.ndarray, L: float) -> np.ndarray:
        with np.errstate(over="ignore"):  # a far point squares to inf, and exp(-inf) = 0 exactly
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
        for name in ("L", "c", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # False for NaN too
                raise ConfigInvalid(f"{name} must be positive and finite, got {value}")
        if self.nx < 3:
            raise ConfigInvalid(f"need at least 3 interior grid points, got {self.nx}")
        if self.nt < 1:
            raise ConfigInvalid(f"need at least 1 time step, got {self.nt}")
        with np.errstate(all="ignore"):  # the stencil scales must be positive finite floats
            inv_dx2 = 1.0 / np.float64(self.dx) ** 2
            if not 0.0 < inv_dx2 < np.inf or not 0.0 < np.float64(self.c) ** 2 * inv_dx2 < np.inf:
                raise ConfigInvalid(f"1/dx^2 or c^2/dx^2 beyond float range (dx={self.dx:.3e})")
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


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I along the last axis, sum_j x_j sin(pi j k / (N+1)).

    The FFT of the odd extension [0, x, 0, -reversed(x)] of length 2(N+1) is
    -2i times the transform at k = 1..N. The DST-I is its own inverse up to
    the factor 2 / (N+1).
    """
    N = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (N + 1),))
    ext[..., 1 : N + 1] = x
    ext[..., N + 2 :] = -x[..., ::-1]
    return -0.5 * np.fft.rfft(ext, axis=-1)[..., 1 : N + 1].imag


def simulate_wave_1d(cfg: WaveConfig, return_velocity: bool = False):
    """Fixed-end 1-D wave run: second-order differences in space, implicit
    midpoint (Crank-Nicolson) in time, zero initial velocity.

    The fixed-end difference operator is diagonal in the sine basis, mode k
    having frequency omega_k = (2c/dx) sin(k pi / (2(nx+1))), so implicit
    midpoint is one 2x2 Cayley rotation per mode, by the angle
    theta_k = atan2(2 h omega_k, 1 - (h omega_k)^2) with h = dt/2. Step t is
    then w_k(t) = cos(t theta_k) w_k(0) and u_k(t) = -omega_k sin(t theta_k) w_k(0)
    in closed form. One DST-I takes the initial profile to modes and one more
    takes all nt+1 steps back, so a run costs O(nx nt log nx) time and
    O(nx nt) memory.

    Returns a SnapshotHistory of nt+1 displacement snapshots (state
    dimension nx); with ``return_velocity`` also the matching velocity
    array, needed for discrete-energy checks.
    """
    nx, nt = cfg.nx, cfg.nt
    omega = (2.0 * cfg.c / cfg.dx) * np.sin(np.arange(1, nx + 1) * (np.pi / (2 * (nx + 1))))
    h_omega = 0.5 * cfg.dt * omega
    theta = np.arctan2(2.0 * h_omega, 1.0 - h_omega**2)
    if not np.isfinite(theta).all():
        raise NumericalFailure("wave time stepper: non-finite mode angle")

    modes = _dst1(cfg.w0.evaluate(cfg.grid(), cfg.L)) * (2.0 / (nx + 1))
    angles = np.arange(nt + 1)[:, None] * theta  # (nt+1, nx): one step per row
    w_hist = _dst1(np.cos(angles) * modes)
    history = SnapshotHistory(np.array(w_hist.T, dtype=np.complex128, order="C"))
    if return_velocity:
        u_hist = _dst1(np.sin(angles) * (-omega * modes))
        return history, np.ascontiguousarray(u_hist.T)
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
