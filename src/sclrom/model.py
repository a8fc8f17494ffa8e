"""Fit, evaluate, and verify the switched closed-loop reduced-order model.

The fitted model stores the orthonormal history factor plus one circulant
coefficient vector per step; step t's transition matrix is the lift of
that circulant through the frame, and predictions chain it between the
input and output projectors:

    x_t = K ( Vhat circ(c_{t mod T}) Vhat* ) (rho vhat_1) = R c_{t mod T}

with R the factorization's n x m replay operator, so one period of states
is the single rank-m product of R and the m x T coefficient matrix.

Two coefficient modes exist: the closed-form monomial (kappa/rho) z^t,
which reproduces exactly periodic training data to rounding, and a
least-squares solve through the retained SVD factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, InsufficientData
from .ohf import OhfFactorization, SnapshotHistory, _check_entries, build_ohf

MODE_MONOMIAL = "monomial"
MODE_LEAST_SQUARES = "least_squares"


@dataclass
class FitOptions:
    """Fitting controls.

    mode : "monomial" or "least_squares".
    epsilon : target training residual, nonnegative; missing it is reported,
        not fatal.
    rank_tol : relative singular-value threshold for degeneracy, in [0, 1).
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
        # written so that NaN fails too
        if not self.epsilon >= 0.0:
            raise ConfigInvalid(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 0.0 <= self.rank_tol < 1.0:
            raise ConfigInvalid(f"rank_tol must be in [0, 1), got {self.rank_tol}")


@dataclass(eq=False)
class SclRomModel:
    """Fitted reduced model: frame + per-step circulant coefficients."""

    ohf: OhfFactorization
    coeffs: np.ndarray  # (m, T), column t holds the step-t element
    epsilon_achieved: float

    @property
    def n(self) -> int:
        return self.ohf.n

    @property
    def m(self) -> int:
        return self.ohf.m

    @property
    def period(self) -> int:
        return self.coeffs.shape[1]


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


def replay(model: SclRomModel, t0: int, t1: int) -> np.ndarray:
    """Model states for steps t0 <= t < t1, one per column, shape (n, t1 - t0).

    Step t's state is R c_{t mod T}, so one period of states is the single
    GEMM ``coeffs.T @ R.T``, a (T, n) array with one state per contiguous
    row. Every replay computes that whole period and then slices its rows,
    or gathers rows t mod T when the window wraps past the period. A
    state's bits therefore come from one product of one fixed shape and do
    not depend on the window: ``replay``, :func:`predict`, fit residuals,
    verification and the command-line front end agree bitwise, and the
    loader rebuilds R from bit-identical inputs, so they also agree after
    a save/load round trip.
    """
    if t0 < 0 or t1 < t0:
        raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    _check_entries("n * (t1 - t0)", model.n * (t1 - t0))
    rows = model.coeffs.T @ model.ohf.R.T
    start = t0 % model.period
    if start + (t1 - t0) <= model.period:
        return rows[start : start + (t1 - t0)].T
    return rows[np.arange(t0, t1) % model.period].T


def predict(model: SclRomModel, t: int) -> np.ndarray:
    """Model state at step t: K H_{t mod T} (rho vhat_1), evaluated as R c_{t mod T}.

    rho vhat_1 equals T v_1 by the factorization identities; the replay
    operator R folds the stored scalar rho together with K and the frame
    (see :func:`sclrom.ohf.checked_factorization`). The state is an owned copy
    of one column of :func:`replay`, so it is bitwise equal to the same
    step of any replay window, before and after a save/load round trip.
    Each call computes a whole period; use :func:`replay` for many steps.
    A negative step raises ValueError.
    """
    return replay(model, t, t + 1)[:, 0].copy()


def _gap_norms(states: np.ndarray, data: np.ndarray) -> list[float]:
    """||states[:, t] - data[:, t]||_2 for every column t of data.

    ``states`` is a :func:`replay` of the same steps, whose transpose is a
    fresh C-ordered (steps, n) array; it is overwritten with the gaps, so
    a column-major ``data`` is subtracted in place row for row.
    ``np.linalg.norm`` of a complex row x is
    ``sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))``: one BLAS ``ddot``
    per part, on a stride-2 view. The batched ``matmul`` of each (1, n) row
    view by its (n, 1) transpose hands every row to that same ``ddot`` on
    the same view, so two calls replace one ``norm`` per step and each
    value stays bitwise equal to ``norm(predict(model, t) - data[:, t])``.
    Runs under ``np.errstate(over="ignore")``: an overflowing residual
    reads inf.
    """
    with np.errstate(over="ignore"):
        gaps = states.T
        np.subtract(gaps, data.T, out=gaps)
        re, im = gaps.real, gaps.imag
        squares = np.matmul(re[:, None, :], re[:, :, None])[:, 0, 0]
        squares += np.matmul(im[:, None, :], im[:, :, None])[:, 0, 0]
        return np.sqrt(squares).tolist()


def fit(history: SnapshotHistory, opts: FitOptions | None = None) -> tuple[SclRomModel, FitReport]:
    """Fit a reduced model to a snapshot history.

    Builds the orthonormal history factor from the leading ``opts.period``
    snapshots (all of them by default), then computes one circulant
    coefficient vector per step t = 0..T-1 targeting snapshot v_{t+1}:

    * monomial mode stores (kappa/rho) on the power t mod m — exact for
      periodic data;
    * least_squares mode solves min_c || rho (K Vhat) c - v_{t+1} ||_2
      for every step at once through the retained SVD factors, as the one
      product W* diag(kappa / (rho s)) (V* data).

    The per-step training residuals come from one :func:`replay` of the
    whole period.

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

    if opts.mode == MODE_MONOMIAL:
        coeffs = np.zeros((m, T), dtype=np.complex128)
        t = np.arange(T)
        coeffs[t % m, t] = ohf.kappa / ohf.rho
    else:
        # min_c ||rho * CH c - v_{t+1}|| with CH = V diag(s_j/s_1) W, solved
        # through the pseudo-inverse assembled from the stored SVD factors
        V, W, s = ohf.V, ohf.W, ohf.singular_values
        inv_scale = ohf.kappa / (ohf.rho * s)
        # BLAS rounds V* data differently for other operand layouts, so the
        # product takes the column-major one that binary files load in
        data = np.asfortranarray(history.data)
        coeffs = W.conj().T @ (inv_scale[:, None] * (V.conj().T @ data))

    model = SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=0.0)
    per_step = _gap_norms(replay(model, 0, history.m), history.data)
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
    verification log of the command-line front end. The states come from
    one :func:`replay` of the checked range, bitwise equal to ``predict``;
    an overflowing residual reads inf and fails. A negative or NaN eps
    raises ConfigInvalid.
    """
    if not eps >= 0.0:  # False for NaN too
        raise ConfigInvalid(f"eps must be nonnegative, got {eps}")
    if history.n != model.n:
        raise DimensionMismatch(
            f"model has state dimension {model.n} but history has {history.n}"
        )
    steps = min(model.period, history.m)
    per_step = list(enumerate(_gap_norms(replay(model, 0, steps), history.data[:, :steps])))
    max_residual = max((r for _, r in per_step), default=0.0)
    return MimeticReport(
        max_residual=max_residual,
        per_step=per_step,
        passed=max_residual <= eps,
        m=model.m,
        n=model.n,
        eps=eps,
    )
