"""Deterministic test dynamics: periodic frames and a 1-D wave simulator.

Every generator is a pure function of its parameters and seed. The
contract is bitwise for a fixed numpy build, BLAS library and BLAS thread
count: with those fixed, the same inputs produce bit-identical output.
Randomness comes from ``numpy.random.default_rng`` (PCG64), but the
frames built from it go through a Householder QR and matrix products,
whose rounding depends on the BLAS and on its thread count; for example
a 2048 x 32 periodic history differs in its last bits between one and
two OpenBLAS threads. Nothing is promised across those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigInvalid, DimensionTooSmall, InsufficientData, NumericalFailure
from .ohf import SnapshotHistory, _check_entries, pin_column_phases


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


def _periodic_columns(n: int, period: int, seed: int, horizon: int | None = None):
    """(horizon, blocks): the step count of :func:`periodic_history` and a
    callable that yields its columns in the pinned blocks of
    :func:`sclrom.replay`, each a column-major gather of the period
    distinct states. The arguments are checked, and the period computed,
    here.
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
    _check_entries("n * period", n * period)
    _check_entries("n * horizon", n * horizon)
    rng = np.random.default_rng(seed)
    frame = random_orthonormal_columns(n, period, rng)
    magnitudes = 0.5 + rng.random(period)
    phases = np.exp(2j * np.pi * rng.random(period))
    weights = np.fft.ifft(magnitudes * phases)
    one_period = np.column_stack([frame @ np.roll(weights, t) for t in range(period)])
    return horizon, lambda: (one_period[:, np.arange(start, stop) % period]
                             for start, stop in model._block_bounds(horizon))


def periodic_history(n: int, period: int, seed: int, horizon: int | None = None) -> SnapshotHistory:
    """Exactly periodic snapshot trajectory rotating through a random frame.

    States are x_t = Q roll(w, t mod period) for a seeded orthonormal frame
    Q and weight vector w, so x_{t+period} is bit-identical to x_t: the
    period distinct states are computed once and indexed by t mod period. The
    weights are drawn in the Fourier domain with magnitudes in [0.5, 1.5],
    which bounds the condition number of one period of snapshots by 3 and
    keeps every seed safely nondegenerate. The history is column-major.
    """
    horizon, blocks = _periodic_columns(n, period, seed, horizon)
    return SnapshotHistory(model._joined(n, horizon, np.complex128, blocks))


@dataclass(eq=False)
class AlmostPeriodicPair:
    perturbed: SnapshotHistory
    clean: SnapshotHistory


def _perturbed_block(rng, clean: np.ndarray, eps_pert: float, noise: np.ndarray) -> np.ndarray:
    """The column block ``clean`` (n, k) plus its perturbations, made in
    ``noise``, a C-ordered (k, 2n) float buffer: the next k rows of the
    noise stream, scaled to norm ``eps_pert``; returned column-major."""
    rng.standard_normal(out=noise)
    # a row-wise dot of the float rows is each column's squared norm, with
    # no temporary of the block's size
    noise *= (eps_pert / np.sqrt(np.einsum("ij,ij->i", noise, noise)))[:, None]
    rows = noise.view(np.complex128)
    # the sum is made in place, row for row; a column-major clean block
    # is contiguous in that order too
    rows += clean.T
    return rows.T


def _almost_periodic_columns(n: int, period: int, eps_pert: float, horizon: int, seed: int):
    """(clean, perturbed): callables that yield the columns of the two
    histories of :func:`almost_periodic_history` in the pinned blocks of
    :func:`sclrom.replay`, each perturbed block made in a noise buffer of
    its own. Arguments are checked here, and the period computed once.
    """
    if horizon < period:
        raise InsufficientData(f"horizon {horizon} shorter than period {period}")
    if not 0.0 <= eps_pert < math.inf:
        raise ConfigInvalid(f"perturbation size must be nonnegative and finite, got {eps_pert}")
    _, clean = _periodic_columns(n, period, seed, horizon)
    if eps_pert == 0.0:
        return clean, clean

    def perturbed():
        rng = np.random.default_rng([seed, 1])
        # map holds no block between steps: each clean block is freed
        # once its perturbed block is made
        return map(lambda block: _perturbed_block(
            rng, block, eps_pert, np.empty((block.shape[1], 2 * n))), clean())

    return clean, perturbed


def almost_periodic_history(
    n: int, period: int, eps_pert: float, horizon: int, seed: int
) -> AlmostPeriodicPair:
    """Exactly periodic trajectory plus per-column noise of exact norm.

    ``clean`` equals ``periodic_history(n, period, seed, horizon)``; the
    perturbed history adds an independent seeded random vector to every
    column, scaled so each perturbation has Euclidean norm ``eps_pert``.
    With ``eps_pert == 0`` the perturbed history is a bitwise copy of the
    clean one.

    The noise is one stream of ``default_rng([seed, 1]).standard_normal``
    draws, (horizon, 2 * n) of them in row order: row t is column t's
    perturbation, its real and imaginary parts interleaved (re_0, im_0,
    re_1, im_1, ...). It is drawn in the rows of the pinned column blocks
    of :func:`sclrom.replay` (256 to 511 columns, or the whole horizon
    when shorter), straight into the buffer of the perturbed history, and
    each block's sum is made there in place; the perturbed history is that
    buffer's column-major transpose, so the peak holds the two histories.
    The command-line front end writes the blocks as they are made instead,
    in O(n (period + 512)) memory. Earlier versions drew two
    (n, horizon) blocks, so their almost-periodic histories (and files)
    differ from these; ``clean`` is unchanged.
    """
    blocks, _ = _almost_periodic_columns(n, period, eps_pert, horizon, seed)
    clean = SnapshotHistory(model._joined(n, horizon, np.complex128, blocks))
    if eps_pert == 0.0:
        return AlmostPeriodicPair(perturbed=SnapshotHistory(np.copy(clean.data)), clean=clean)
    noise = np.empty((horizon, 2 * n))
    rng = np.random.default_rng([seed, 1])
    for start, stop in model._block_bounds(horizon):
        _perturbed_block(rng, clean.data[:, start:stop], eps_pert, noise[start:stop])
    return AlmostPeriodicPair(perturbed=SnapshotHistory(noise.view(np.complex128).T),
                              clean=clean)


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
        # the counts first: the command line derives its default dt from nt
        if self.nx < 3:
            raise ConfigInvalid(f"need at least 3 interior grid points, got {self.nx}")
        if self.nt < 1:
            raise ConfigInvalid(f"need at least 1 time step, got {self.nt}")
        for name in ("L", "c", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # False for NaN too
                raise ConfigInvalid(f"{name} must be positive and finite, got {value}")
        _check_entries("nx * (nt + 1)", self.nx * (self.nt + 1))
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

    Returns a real (float64) SnapshotHistory of nt+1 displacement snapshots
    (state dimension nx), the transpose of the last DST's output with no
    copy; with ``return_velocity`` also the matching velocity
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
    history = SnapshotHistory(w_hist.T)
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
