"""Fit, evaluate, and verify the switched closed-loop reduced-order model.

The fitted model stores the orthonormal history factor plus one circulant
coefficient vector per step; step t's transition matrix is the lift of
that circulant through the frame, and predictions chain it between the
input and output projectors:

    x_t = K ( Vhat circ(c_{t mod T}) Vhat* ) (rho vhat_1) = R c_{t mod T}

with R the factorization's n x m replay operator, so a step costs O(n m).

Two coefficient modes exist: the closed-form monomial (kappa/rho) z^t,
which reproduces exactly periodic training data to rounding, and a
per-step least-squares solve through the retained SVD factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import monomial_element
from .errors import ConfigInvalid, DimensionMismatch, InsufficientData
from .ohf import OhfFactorization, SnapshotHistory, build_ohf

MODE_MONOMIAL = "monomial"
MODE_LEAST_SQUARES = "least_squares"


@dataclass
class FitOptions:
    """Fitting controls.

    mode : "monomial" or "least_squares".
    epsilon : target training residual; missing it is reported, not fatal.
    rank_tol : relative singular-value threshold for degeneracy.
    truncate_rank : reduce the frame to the numerical rank instead of
        raising on degenerate snapshots.
    period : number of leading snapshots used to build the frame; defaults
        to the full history (frame size = step count).
    """

    mode: str = MODE_MONOMIAL
    epsilon: float = 1e-10
    rank_tol: float = 1e-12
    truncate_rank: bool = False
    period: int | None = None

    def __post_init__(self):
        if self.mode not in (MODE_MONOMIAL, MODE_LEAST_SQUARES):
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if self.epsilon < 0:
            raise ConfigInvalid(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(eq=False)
class SclRomModel:
    """Fitted reduced model: frame + per-step circulant coefficients."""

    ohf: OhfFactorization
    coeffs: np.ndarray  # (m, T), column t holds the step-t element
    period: int
    epsilon_achieved: float
    n: int
    m: int


@dataclass
class FitReport:
    target_met: bool
    epsilon_achieved: float
    per_step: list[float] = field(default_factory=list)


@dataclass
class MimeticReport:
    max_residual: float
    per_step: list[tuple[int, float]]
    passed: bool
    m: int
    n: int
    eps: float


@dataclass
class PeriodReport:
    best_T: int
    scores: dict[int, float]
    within_tol: bool


def predict(model: SclRomModel, t: int) -> np.ndarray:
    """Model state at step t: K H_{t mod T} (rho vhat_1), evaluated as R c_{t mod T}.

    rho vhat_1 equals T v_1 by the factorization identities; the replay
    operator R folds the stored scalar rho together with K and the frame
    (see :func:`sclrom.ohf.replay_operator`). The loader rebuilds R from
    bit-identical inputs, so predictions stay bit-identical after a
    save/load round trip, where the training snapshots are no longer
    available. Every replay (fit residuals, verification, the CLI) calls
    this function one step at a time, so they all agree bitwise.
    """
    if t < 0:
        raise ValueError("step index must be nonnegative")
    return model.ohf.R @ model.coeffs[:, t % model.period]


def fit(history: SnapshotHistory, opts: FitOptions | None = None) -> tuple[SclRomModel, FitReport]:
    """Fit a reduced model to a snapshot history.

    Builds the orthonormal history factor from the leading ``opts.period``
    snapshots (all of them by default), then computes one circulant
    coefficient vector per step t = 0..T-1 targeting snapshot v_{t+1}:

    * monomial mode stores (kappa/rho) on the power t mod m — exact for
      periodic data;
    * least_squares mode solves min_c || rho (K Vhat) c - v_{t+1} ||_2
      through the retained SVD factors (each step's solve is independent
      of every other, so evaluation order cannot change the result).

    Returns the model and a report; a missed epsilon target is flagged in
    the report rather than raised.
    """
    if opts is None:
        opts = FitOptions()
    T = history.m
    m_sys = opts.period if opts.period is not None else T
    if m_sys < 1:
        raise InsufficientData(f"period must be positive, got {m_sys}")
    if m_sys > T:
        raise InsufficientData(f"period {m_sys} exceeds the {T} available snapshots")
    frame_source = history
    if m_sys < T:
        frame_source = SnapshotHistory(history.data[:, :m_sys].copy())
    ohf = build_ohf(frame_source, rank_tol=opts.rank_tol, truncate=opts.truncate_rank)
    m = ohf.m

    coeffs = np.zeros((m, T), dtype=np.complex128)
    if opts.mode == MODE_MONOMIAL:
        scale = ohf.kappa / ohf.rho
        for t in range(T):
            coeffs[:, t] = monomial_element(m, t, scale).coeffs
    else:
        # min_c ||rho * CH c - v_{t+1}|| with CH = V diag(s_j/s_1) W, solved
        # through the pseudo-inverse assembled from the stored SVD factors
        V, W, s = ohf.V, ohf.W, ohf.singular_values
        inv_scale = ohf.kappa / (ohf.rho * s)
        for t in range(T):
            target = history.data[:, t]
            coeffs[:, t] = W.conj().T @ (inv_scale * (V.conj().T @ target))

    model = SclRomModel(
        ohf=ohf, coeffs=coeffs, period=T, epsilon_achieved=0.0, n=history.n, m=m
    )
    per_step = [
        float(np.linalg.norm(predict(model, t) - history.data[:, t])) for t in range(T)
    ]
    model.epsilon_achieved = max(per_step) if per_step else 0.0
    report = FitReport(
        target_met=model.epsilon_achieved <= opts.epsilon,
        epsilon_achieved=model.epsilon_achieved,
        per_step=per_step,
    )
    return model, report


def verify_mimetic(model: SclRomModel, history: SnapshotHistory, eps: float) -> MimeticReport:
    """Replay the model against training snapshots and compare step by step.

    max_residual = max over 0 <= k < min(T, columns) of
    ||predict(model, k) - v_{k+1}||_2, the quantity printed by the
    verification log of the command-line front end.
    """
    if history.n != model.n:
        raise DimensionMismatch(
            f"model has state dimension {model.n} but history has {history.n}"
        )
    steps = min(model.period, history.m)
    per_step = [
        (k, float(np.linalg.norm(predict(model, k) - history.data[:, k])))
        for k in range(steps)
    ]
    max_residual = max((r for _, r in per_step), default=0.0)
    return MimeticReport(
        max_residual=max_residual,
        per_step=per_step,
        passed=max_residual <= eps,
        m=model.m,
        n=model.n,
        eps=eps,
    )


def detect_period(
    history: SnapshotHistory, candidates: list[int], tol: float = 1e-10
) -> PeriodReport:
    """Score candidate periods by the worst wrap-around column mismatch.

    score(T) = max_t ||v_{t+T} - v_t|| / max_t ||v_t|| over every t with
    both columns available; the best candidate minimizes the score, ties
    going to the smaller period.
    """
    if not candidates:
        raise InsufficientData("no candidate periods supplied")
    if any(c < 1 for c in candidates):
        raise InsufficientData("candidate periods must be positive")
    M = history.m
    needed = 2 * max(candidates)
    if M < needed:
        raise InsufficientData(f"need at least {needed} snapshots, got {M}")
    denom = float(np.max(np.linalg.norm(history.data, axis=0)))
    scores: dict[int, float] = {}
    for T in candidates:
        diffs = history.data[:, T:] - history.data[:, :-T]
        worst = float(np.max(np.linalg.norm(diffs, axis=0)))
        scores[T] = worst / denom if denom > 0.0 else 0.0
    best_T = min(candidates, key=lambda T: (scores[T], T))
    return PeriodReport(best_T=best_T, scores=scores, within_tol=scores[best_T] <= tol)
