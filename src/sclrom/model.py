"""Fit, evaluate, and verify the switched closed-loop reduced-order model.

The fitted model stores the orthonormal history factor plus one circulant
coefficient vector per phase of its period p; step t's transition matrix
is the lift of phase t mod p's circulant through the frame, and
predictions chain it between the input and output projectors:

    x_t = K ( Vhat circ(c_{t mod p}) Vhat* ) (rho vhat_1) = V B c_{t mod p}

with R = V B = (rho/kappa) V diag(s) W the replay operator, held as V and
the factorization's m x m matrix B, so one period of states is the rank-m
product of V, B and the m x p coefficient matrix.

Two coefficient modes exist: the closed-form monomial (kappa/rho) z^t,
which depends only on t mod m and so has period m, and reproduces exactly
periodic training data to rounding; and a least-squares solve through the
retained SVD factors, one coefficient vector per phase of the frame's
period.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, InsufficientData
from .ohf import OhfFactorization, SnapshotHistory, _check_entries, _checked_history, build_ohf

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
    period : the frame's period p, the number of leading snapshots used
        to build the frame; defaults to the full history. A least-squares
        model has one coefficient vector per phase t mod p.
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
    """Fitted reduced model: frame + one circulant coefficient vector per phase."""

    ohf: OhfFactorization
    coeffs: np.ndarray  # (m, period) column-major, column k holds phase k's element
    epsilon_achieved: float

    @property
    def n(self) -> int:
        return self.ohf.n

    @property
    def m(self) -> int:
        return self.ohf.m

    @property
    def period(self) -> int:
        """Step t replays phase t mod period: m for a monomial model, the
        frame's period for a least-squares one."""
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


# Steps are computed in column blocks of _BLOCK steps; the last block of a
# period absorbs the remainder, so every block is _BLOCK to 2 * _BLOCK - 1
# steps wide, and a period shorter than _BLOCK is one block. The width is a
# column count, not a byte budget: a state's bits come from the product of
# its block, and BLAS rounds products of some narrow widths (1, 7) unlike the
# whole-period product, while the products of blocks this wide equal it.
_BLOCK = 256


def _block_of(steps: int, t: int) -> tuple[int, int]:
    """(start, stop) of the pinned column block that holds step t of ``steps``."""
    last = max(1, steps // _BLOCK) - 1
    k = min(t // _BLOCK, last)
    return k * _BLOCK, steps if k == last else (k + 1) * _BLOCK


def _block_bounds(steps: int):
    """Iterator over (start, stop) of each pinned column block of ``steps``
    steps, in order; it holds no list, whatever the count."""
    stop = 0
    while stop < steps:
        start, stop = _block_of(steps, stop)
        yield start, stop


class _HeldColumns:
    """The columns of an array in memory, read in consecutive slices.

    The same reading interface as a binary snapshot file streamed by
    :mod:`sclrom.persistence`: ``read(count)`` returns the next ``count``
    columns as an (n, count) array, which a file reader may overwrite at
    its next read, ``drain()`` checks what was not read (nothing, for
    an array), and ``rewind()`` starts again from the first column, which
    only a reader whose ``rereadable`` is true can do.
    """

    rereadable = True

    def __init__(self, data: np.ndarray):
        self.data = data
        self.n, self.m = data.shape
        self._at = 0

    def read(self, count: int) -> np.ndarray:
        block = self.data[:, self._at : self._at + count]
        self._at += count
        return block

    def drain(self) -> None:
        pass

    def rewind(self) -> None:
        self._at = 0


def _columns(history):
    """Column reader of a SnapshotHistory, or ``history`` itself when it is
    already one (the columns of an open snapshot file)."""
    return _HeldColumns(history.data) if isinstance(history, SnapshotHistory) else history


def _step_blocks(steps: int, period: int):
    """Iterator over (start, stop) of the blocks in which ``steps`` steps of
    a model of period ``period`` are replayed, in order: the pinned blocks
    of the period, lap after lap, the last lap cut at ``steps``, so that
    each block's states are one block product; for a period shorter than
    one block, the pinned blocks of the steps themselves, each gathered
    from the period's one product."""
    if period < _BLOCK:
        return _block_bounds(steps)
    return ((lap + start, min(lap + stop, steps)) for lap in range(0, steps, period)
            for start, stop in _block_bounds(period) if lap + start < steps)


def _blocks(columns, bounds, head=None):
    """Iterator over (start, stop, snapshots) for each column block
    (start, stop) of ``bounds``, in order: the columns that lie in
    ``head``, the leading columns already read, from it (a block is cut at
    its end), then the rest read one block at a time."""
    held = 0 if head is None else head.shape[1]
    for start, stop in bounds:
        if start < held < stop:
            yield start, held, head[:, start:]
            start = held
        yield start, stop, head[:, start:stop] if stop <= held else columns.read(stop - start)


def _block_states(model: SclRomModel, start: int, stop: int) -> np.ndarray:
    """States of pinned block [start, stop) of the period: the C-ordered
    (stop - start, n) product ``(coeffs[:, start:stop].T @ B.T) @ V.T``."""
    ohf = model.ohf
    return (model.coeffs[:, start:stop].T @ ohf.B.T) @ ohf.V.T


def _replayed_columns(model: SclRomModel, t0: int, t1: int):
    """Iterator over the states of steps t0 <= t < t1, in consecutive runs.

    Each run is an (n, k) read-only column-major view of one pinned block's
    :func:`_block_states`, one state per column; a run ends at a block
    edge. A block is computed once for consecutive runs in it (a window
    wrapping a one-block period), and freed before the next block is made.
    The window is checked at the call, not at the first step.
    """
    if t0 < 0 or t1 < t0:
        raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    _check_entries("n * (t1 - t0)", model.n * (t1 - t0))
    p = model.period

    def runs():
        start = stop = 0
        states = None
        t = t0
        while t < t1:
            phase = t % p
            if not start <= phase < stop:
                states = None  # free the last block before the next is made
                start, stop = _block_of(p, phase)
                states = _block_states(model, start, stop)
                states.flags.writeable = False
            count = min(stop - phase, t1 - t)
            yield states[phase - start : phase - start + count].T
            t += count

    return runs()


def _joined(n: int, steps: int, blocks) -> np.ndarray:
    """The column-major (n, steps) array of the column blocks that the
    callable ``blocks`` yields; it is called before the array is made, so
    that it may check its window first."""
    chunks = blocks()
    rows = np.empty((steps, n), dtype=np.complex128)
    at = 0
    for block in chunks:
        rows[at : at + block.shape[1]] = block.T
        at += block.shape[1]
    return rows.T


def replay(model: SclRomModel, t0: int, t1: int) -> np.ndarray:
    """Model states for steps t0 <= t < t1, one per column, shape (n, t1 - t0).

    Step t's state is V B c_{t mod p} for the model's period p. The period
    is computed in pinned column blocks of 256 steps (the last block of a
    period takes the remainder, up to 511 steps; a shorter period is one
    block): block [a, b) is the product
    ``(coeffs[:, a:b].T @ B.T) @ V.T``, a (b - a, n) array with one state
    per contiguous row. A replay computes only the blocks that hold its
    steps, so a state's bits come from one product of one fixed shape and
    do not depend on the window: ``replay``, :func:`predict`, fit
    residuals, verification and the command-line front end agree bitwise,
    and the loader rebuilds B from bit-identical inputs, so they also agree
    after a save/load round trip. A window that lies in one block is
    returned as a writable column-major view of that block's fresh states,
    with no second copy; any other window is copied run by run into its
    own array, in the window plus one block of memory, and a window that
    wraps a period shorter than one block computes the period's one
    product once.
    """
    runs = _replayed_columns(model, t0, t1)  # checks the window
    p = model.period
    phase = t0 % p
    start, stop = _block_of(p, phase)
    if t0 < t1 and phase + (t1 - t0) <= stop:
        return _block_states(model, start, stop)[phase - start : phase - start + t1 - t0].T
    return _joined(model.n, t1 - t0, lambda: runs)


def predict(model: SclRomModel, t: int) -> np.ndarray:
    """Model state at step t: K H_{t mod p} (rho vhat_1), evaluated as V B c_{t mod p}.

    rho vhat_1 equals T v_1 by the factorization identities; the replay
    operator R = V B folds the derived scalar rho together with K and the
    frame (see :func:`sclrom.ohf.checked_factorization`). The state is an
    owned copy of one column of :func:`replay`, so it is bitwise equal to
    the same step of any replay window, before and after a save/load round
    trip. Each call computes the pinned block of 256 to 511 steps that
    holds t mod p (the whole period when it is shorter), in n times the
    block's width of memory; use :func:`replay` for many steps. A negative
    step raises ValueError.
    """
    return replay(model, t, t + 1)[:, 0].copy()


def _gap_norms(states: np.ndarray, data: np.ndarray) -> list[float]:
    """||states[:, t] - data[:, t]||_2 for every column t of data.

    ``states`` is the transpose of a fresh C-ordered (steps, n) array, such
    as the states of a block; it is overwritten with the gaps, so a
    column-major ``data`` is subtracted in place row for row.
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


def _residuals(model: SclRomModel, blocks) -> list[float]:
    """||predict(model, t) - x_t||_2 for every step t of ``blocks``, the
    (start, stop, snapshots) of the blocks of :func:`_step_blocks` (see
    :func:`_blocks`): the states of each block are one :func:`replay`
    window, fresh, overwritten with their gaps."""
    residuals: list[float] = []
    for start, stop, block in blocks:
        residuals += _gap_norms(replay(model, start, stop), block)
    return residuals


def _solve(ohf: OhfFactorization, data: np.ndarray) -> np.ndarray:
    """The least-squares coefficients min_c ||rho (K Vhat) c - x||_2 of every
    column x of ``data``: with K Vhat = V diag(s_j/s_1) W, the product
    W* diag(kappa / (rho s)) (V* data) of the stored SVD factors."""
    inv_scale = (ohf.kappa / (ohf.rho * ohf.singular_values))[:, None]
    return ohf.W.conj().T @ (inv_scale * (ohf.V.conj().T @ data))


def _class_means(blocks, n: int, p: int, steps: int) -> np.ndarray:
    """The column-major (n, p) means of the snapshots of ``blocks`` (see
    :func:`_blocks`) over each residue class t mod p of their ``steps``
    steps, which a least-squares fit of period p solves. Each class sum adds
    its columns in step order, one run of at most p consecutive steps at a
    time. At p = steps each class is one snapshot, its own mean, so
    :func:`fit` solves the snapshots themselves instead."""
    sums = np.zeros((p, n), dtype=np.complex128)
    for start, stop, block in blocks:
        rows = block.T
        t = start
        while t < stop:
            phase = t % p
            count = min(p - phase, stop - t)
            sums[phase : phase + count] += rows[t - start : t - start + count]
            t += count
    counts = steps // p + (np.arange(p) < steps % p)
    return (sums / counts[:, None]).T


def fit(history, opts: FitOptions | None = None) -> tuple[SclRomModel, FitReport]:
    """Fit a reduced model to a snapshot history of T steps.

    Builds the orthonormal history factor from the leading ``opts.period``
    snapshots p (all of them by default), then computes the coefficients
    of the model's period:

    * monomial mode stores the m distinct columns (kappa/rho) e_k, the
      powers z^k of the element (kappa/rho) z^t, which depends only on
      t mod m, so the model's period is m; exact for periodic data;
    * least_squares mode solves min_c || rho (K Vhat) c - x ||_2 through
      the retained SVD factors, as the product
      W* diag(kappa / (rho s)) (V* x), once, on the means of the
      snapshots over each residue class t mod p, which is the class mean
      of the per-step solutions, giving m x p coefficients. At p = T each
      class is one snapshot, so the snapshots themselves are solved.

    The training residuals are ||predict(model, t) - x_t||_2 over all T
    steps, wrapped at the period as :func:`replay` wraps it; they are the
    per-step residuals of :func:`verify_mimetic`, computed by the same
    routine. The snapshots are taken in the pinned column blocks of
    :func:`replay`: the blocks that hold the frame's columns first, in one
    read, then one block at a time, whose replayed states and training
    residuals are computed before the next block is read. Every product is
    bitwise equal to its whole-period form. A least-squares fit of a
    history that runs past the frame's blocks knows its coefficients only
    after the last snapshot, so it reads the history twice: once for the
    class means, then again for the training residuals; every other fit
    reads it once. ``history`` is a SnapshotHistory, or the columns of an
    open snapshot file, which the command-line front end streams this way
    in O(n (p + 512)) memory besides the m x p coefficients, which are
    column-major like V and W; columns that can be read only once (a
    binary file on a pipe) raise ConfigInvalid for a fit that would read
    them twice, before any is read.

    Returns the model and a report; a missed epsilon target is flagged in
    the report rather than raised.
    """
    if opts is None:
        opts = FitOptions()
    columns = _columns(history)
    T = columns.m
    p = opts.period if opts.period is not None else T
    if p < 1:
        raise InsufficientData(f"period must be positive, got {p}")
    if p > T:
        raise InsufficientData(f"period {p} exceeds the {T} available snapshots")
    # the frame's blocks: past them, the coefficients are known only after
    # the last column, so a least-squares fit reads the history twice
    held = _block_of(T, p - 1)[1]
    if opts.mode == MODE_LEAST_SQUARES and held < T and not columns.rereadable:
        raise ConfigInvalid(
            f"a least-squares fit with period {p} reads the {T} snapshots twice, as they "
            f"run past the frame's blocks ({held} columns), and this input can be read "
            "only once; write it to a file first"
        )
    # the frame is built first, from the blocks that hold its columns, read
    # in one read; the reader (or the history) has checked them finite
    head = columns.read(held)
    ohf = build_ohf(_checked_history(head[:, :p]), rank_tol=opts.rank_tol,
                    truncate=opts.truncate_rank)

    if opts.mode == MODE_MONOMIAL:
        coeffs = np.zeros((ohf.m, ohf.m), dtype=np.complex128, order="F")
        np.fill_diagonal(coeffs, ohf.kappa / ohf.rho)
    else:
        # at p = T each residue class is one snapshot, its own mean
        means = head if p == T else _class_means(
            _blocks(columns, _block_bounds(T), head), columns.n, p, T)
        coeffs = np.asfortranarray(_solve(ohf, means))
        if held < T:
            columns.rewind()
            head = None

    model = SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=0.0)
    blocks = _blocks(columns, _step_blocks(T, model.period), head)
    per_step = _residuals(model, blocks)
    model.epsilon_achieved = max(per_step)
    report = FitReport(
        target_met=model.epsilon_achieved <= opts.epsilon,
        epsilon_achieved=model.epsilon_achieved,
        per_step=per_step,
    )
    return model, report


def _check_eps(eps: float) -> None:
    """ConfigInvalid unless the verification tolerance eps is nonnegative."""
    if not eps >= 0.0:  # False for NaN too
        raise ConfigInvalid(f"eps must be nonnegative, got {eps}")


def verify_mimetic(model: SclRomModel, history, eps: float) -> MimeticReport:
    """Replay the model against a snapshot history and compare step by step.

    max_residual = max over every column k of the history of
    ||predict(model, k) - v_{k+1}||_2, the quantity printed by the
    verification log of the command-line front end; step k replays phase
    k mod p of the model's period p, as :func:`replay` does. The states
    come from the pinned blocks of the period, lap after lap, one block of
    states and snapshots at a time, bitwise equal to ``predict``; a period
    shorter than one block is computed once per pinned block of the history
    and copied into it, so a wrapped history costs per step what one as
    long as the period does. An overflowing residual reads inf and fails.
    ``history`` is a SnapshotHistory or the columns of an open snapshot
    file, as for :func:`fit`. A negative or NaN eps raises ConfigInvalid.
    """
    _check_eps(eps)
    columns = _columns(history)
    if columns.n != model.n:
        raise DimensionMismatch(
            f"model has state dimension {model.n} but history has {columns.n}"
        )
    residuals = _residuals(model, _blocks(columns, _step_blocks(columns.m, model.period)))
    max_residual = max(residuals, default=0.0)
    return MimeticReport(
        max_residual=max_residual,
        per_step=list(enumerate(residuals)),
        passed=max_residual <= eps,
    )
