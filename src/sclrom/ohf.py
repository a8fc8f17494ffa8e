"""Orthonormal history factor: turn raw snapshots into an orthonormal frame.

A snapshot history H = [v_1 .. v_m] in C^{n x m} with 2m <= n is split via
its thin SVD V diag(s) W into a span part V diag(s_j/s_1) W and a complement
part U diag(t_j) W with t_j = sqrt(1 - (s_j/s_1)^2), whose sum Vhat has
orthonormal columns. The factorization carries the scalars kappa = s_1 and
rho = v_1* v_1 / s_1 and the frames V and Vhat, which define the projectors
K = V V* and T = vhat_1 vhat_1* and the unitary circular shift factor U
advancing the Vhat columns cyclically, so that

    T v_1 = rho vhat_1,   U vhat_j = vhat_{j+1 mod m},   K kappa vhat_j = v_j.

Every one of these operators has rank m (U is the identity plus a rank-m
term), so they are held through the n x m frames and never formed as
n x n matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import CirculantElement
from .cyclic import VectorSystem, check_orthogonal_system, shift_factors
from .errors import (
    DegenerateHistory,
    DimensionMismatch,
    DimensionTooSmall,
    InvariantViolation,
    NonFiniteData,
    NotOrthogonal,
    NumericalFailure,
)

DEFAULT_RANK_TOL = 1e-12
_COMPLEMENT_DROP_TOL = 1e-8
# the CholeskyQR2 complement falls back to the Gram-Schmidt loop beyond these
_FAST_COMPLEMENT_MIN_PIVOT = 1e-6
_FAST_COMPLEMENT_MAX_LOSS = 1e-4
_ORTHOGONALITY_TOL = 1e-8


@dataclass(eq=False)
class SnapshotHistory:
    """State snapshots of a discrete-time system, one per column.

    Zero columns are accepted at construction (a simulator may legitimately
    produce them); operations that require nonzero snapshots reject them
    when reached. NaN and infinite entries are rejected at construction.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise DimensionMismatch(f"snapshot matrix must be 2-D, got ndim={data.ndim}")
        if data.shape[1] < 1:
            raise DimensionMismatch("snapshot history needs at least one column")
        finite = np.isfinite(data)
        if not finite.all():
            row, col = (int(i) for i in np.argwhere(~finite)[0])
            raise NonFiniteData(f"snapshot entry at (row {row}, column {col}) is non-finite")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class OhfFactorization:
    """Orthonormal history factor: frames, scalars, and the replay operator.

    ``R`` is the n x m replay operator of :func:`replay_operator`, derived
    from V, Vhat, and rho. ``singular_values`` is None on instances rebuilt
    from a model file (the file stores only V, Vhat, and coefficients).
    ``W`` is the retained right SVD factor used by least-squares fitting;
    it is not persisted.
    """

    Vhat: np.ndarray
    V: np.ndarray
    kappa: complex
    rho: complex
    R: np.ndarray
    singular_values: np.ndarray | None
    W: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.Vhat.shape[0]

    @property
    def m(self) -> int:
        return self.Vhat.shape[1]


@dataclass
class OhfReport:
    t_residual: float
    shift_residual: float
    k_residual: float
    unitary_residual: float
    passed: bool


def pin_column_phases(Q: np.ndarray, W: np.ndarray | None = None) -> None:
    """Make the largest-magnitude entry of each nonzero column of Q real and
    positive, in place; the matching row of W, if given, absorbs the phase.
    """
    for j in range(Q.shape[1]):
        idx = int(np.argmax(np.abs(Q[:, j])))
        pivot = Q[idx, j]
        mag = abs(pivot)
        if mag > 0.0:
            Q[:, j] *= pivot.conjugate() / mag
            if W is not None:
                W[j, :] *= pivot / mag


def thin_svd(history: SnapshotHistory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (V, S, W) with V diag(S) W = data (numpy's W, not conjugated);
    pinned phases make repeated runs produce identical factors.
    """
    try:
        V, S, W = np.linalg.svd(history.data, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    V = np.ascontiguousarray(V)
    W = np.ascontiguousarray(W)
    pin_column_phases(V, W)
    return V, S, W


def _gram_factor(G: np.ndarray) -> np.ndarray | None:
    """Upper-triangular R with R* R = G, the conjugate transpose of the
    Cholesky factor of G; None when G is not numerically positive definite.
    """
    try:
        return np.linalg.cholesky(G).conj().T
    except np.linalg.LinAlgError:
        return None


def _complement_loop(V: np.ndarray) -> np.ndarray:
    """Gram-Schmidt complement of range(V), one canonical vector at a time.

    Seeded with e_1, e_2, ... in order, it projects out range(V) and the
    previously accepted columns (twice, against cancellation) and skips
    candidates whose residual drops below 1e-8.
    """
    n, m = V.shape
    accepted: list[np.ndarray] = []
    for i in range(n):
        r = np.zeros(n, dtype=np.complex128)
        r[i] = 1.0
        for _ in range(2):  # second pass guards against cancellation
            r = r - V @ (V.conj().T @ r)
            for u in accepted:
                r = r - u * np.vdot(u, r)
        norm = np.linalg.norm(r)
        if norm > _COMPLEMENT_DROP_TOL:
            accepted.append(r / norm)
            if len(accepted) == m:
                break
    if len(accepted) < m:
        raise NumericalFailure(
            f"complement construction found only {len(accepted)} of {m} directions"
        )
    return np.column_stack(accepted)


def complement_basis(V: np.ndarray) -> np.ndarray:
    """m orthonormal columns spanning a subspace orthogonal to range(V).

    The result is the Gram-Schmidt orthonormalisation of e_1, e_2, ... in
    order against range(V), skipping candidates whose residual drops below
    1e-8, so it is a deterministic function of V.

    Fast path, in GEMMs and m x m work: e_1..e_m are projected against V as
    one block, B = (1 - V V*)[e_1..e_m], twice; then CholeskyQR2
    orthonormalises B. Pass 1 takes R_1 = chol(B* B)* and Q_1 = B R_1^-1.
    Q_1 is projected against V once more, because R_1^-1 amplifies the
    rounding-level range(V) components of B by up to cond(B) and pass 2
    cannot remove them. Pass 2 repeats the factorisation on Q_1. The QR
    with a positive diagonal is unique and the Cholesky pivots are the
    Gram-Schmidt residual norms, so this is the loop's result up to
    rounding whenever the loop skips nothing.

    CholeskyQR squares the condition number of B, so the fast path is only
    taken when it is accurate. The loop (:func:`_complement_loop`, same
    bits as ever) runs instead when the Cholesky factorisation of B* B
    fails, when a pivot is at most 1e-6 (near the 1e-8 skip rule), or when
    pass 1 lost orthogonality: ||Q_1* Q_1 - 1||_F > 1e-4, which a
    condition number of about 1e6 reaches.
    """
    n, m = V.shape
    if n < 2 * m:
        raise DimensionTooSmall(f"complement of an m={m} frame needs n >= {2 * m}, got n={n}")
    V_adj = V.conj().T
    B = np.eye(n, m, dtype=np.complex128) - V @ V_adj[:, :m]
    B -= V @ (V_adj @ B)
    R = _gram_factor(B.conj().T @ B)
    if R is None or not R.diagonal().real.min() > _FAST_COMPLEMENT_MIN_PIVOT:
        return _complement_loop(V)
    Q = B @ np.linalg.inv(R)
    Q -= V @ (V_adj @ Q)
    G = Q.conj().T @ Q
    if not np.linalg.norm(G - np.eye(m)) <= _FAST_COMPLEMENT_MAX_LOSS:
        return _complement_loop(V)
    return Q @ np.linalg.inv(_gram_factor(G))


def replay_operator(V: np.ndarray, Vhat: np.ndarray, rho: complex) -> np.ndarray:
    """R = V (V* Vhat) circ(g) with g = rho Vhat* vhat_1 (n x m).

    K H_t (rho vhat_1) = V (V* Vhat) circ(c_t) g = R c_t for the step-t
    transition H_t = Vhat circ(c_t) Vhat*, because circulants commute
    (circ(c) g = circ(g) c). Shared by the builder and the model loader so
    both produce bit-identical replay operators, and hence predictions,
    from bit-identical inputs.
    """
    g = rho * (Vhat.conj().T @ Vhat[:, 0])
    return V @ ((V.conj().T @ Vhat) @ CirculantElement(g).to_matrix())


def _unitarity_residual(G: np.ndarray, R: np.ndarray) -> float:
    """||U* U - 1||_F for the shift factor U = 1 + E F* of frame columns
    Vhat with Gram matrix G = Vhat* Vhat = R* R, in O(m^3).

    [E F] = Vhat B with B = [S - 1, D^-1], S the cyclic shift and
    D = diag(G), and U* U - 1 = Z M Z* with Z = [E F] and
    M = [[0, 1], [1, E* E]]. Vhat = Q R with orthonormal Q, so the norm is
    ||(R B) M (R B)*||_F with E* E = (R (S - 1))* (R (S - 1)). The
    cancellation happens inside an m x m product of O(1) entries.
    """
    m = G.shape[0]
    RE = np.roll(R, -1, axis=1) - R
    RB = np.hstack([RE, R / G.diagonal().real])
    M = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    M[:m, m:] = M[m:, :m] = np.eye(m)
    M[m:, m:] = RE.conj().T @ RE
    return float(np.linalg.norm(RB @ M @ RB.conj().T))


@np.errstate(over="ignore", invalid="ignore")  # callers reject inf and NaN residuals
def frame_residuals(
    V: np.ndarray, Vhat: np.ndarray, vhat_gram: np.ndarray | None = None
) -> dict[str, float]:
    """Frobenius residuals of the factorization invariants, from the frames.

    Each value equals its dense n x n counterpart up to rounding. One Gram
    matrix per frame, G = Vhat* Vhat (``vhat_gram``, if the caller already
    has it) and G_V = V* V, is the only O(n m^2) work; the rest is m x m,
    through the Cholesky factors R with R* R = G and R_V* R_V = G_V, which
    stand in for the R of a thin QR:

    - ||Vhat* Vhat - 1|| and ||V* V - 1||;
    - ||U* U - 1|| for the shift factor U of Vhat (:func:`_unitarity_residual`);
    - ||K^2 - K|| = ||R_V (V* V - 1) R_V*||;
    - ||T^2 - T|| = |(||vhat_1||^2 - 1)| ||vhat_1||^2.

    A Gram matrix that is not positive definite belongs to a frame with
    dependent columns, which no valid model file holds: InvariantViolation,
    naming the residual that needed the factor.
    """
    eye = np.eye(V.shape[1])
    G = Vhat.conj().T @ Vhat if vhat_gram is None else vhat_gram
    G_V = V.conj().T @ V
    R, R_V = _gram_factor(G), _gram_factor(G_V)
    for name, factor, frame in (("shift factor unitary", R, "Vhat"), ("K idempotent", R_V, "V")):
        if factor is None:
            raise InvariantViolation(f"{name}: Gram matrix of {frame} is not positive definite")
    V_gap = G_V - eye
    vhat1_sq = float(np.vdot(Vhat[:, 0], Vhat[:, 0]).real)
    return {
        "Vhat columns orthonormal": float(np.linalg.norm(G - eye)),
        "V columns orthonormal": float(np.linalg.norm(V_gap)),
        "shift factor unitary": _unitarity_residual(G, R),
        "K idempotent": float(np.linalg.norm(R_V @ V_gap @ R_V.conj().T)),
        "T idempotent": abs(vhat1_sq - 1.0) * vhat1_sq,
    }


def build_ohf(
    history: SnapshotHistory,
    rank_tol: float = DEFAULT_RANK_TOL,
    truncate: bool = False,
) -> OhfFactorization:
    """Construct the orthonormal history factor of a snapshot history.

    Parameters
    ----------
    history : SnapshotHistory
        n x m snapshots with 2m <= n.
    rank_tol : float
        Relative singular-value threshold; snapshots are degenerate when
        s_m <= rank_tol * s_1.
    truncate : bool
        When True, a rank-deficient history is reduced to its numerical
        rank r: the leading r singular directions become an r-column core
        history V_r diag(s_1..s_r) (trivial right factor) and the
        factorization is built for that core. Opt-in because it changes
        the cycle length of the shift factor.

    Raises
    ------
    DimensionTooSmall
        If n < 2m (or n < 2r after truncation).
    DegenerateHistory
        If the numerical rank is below m and ``truncate`` is not set, or
        the history is numerically zero.
    NotOrthogonal
        If the Vhat columns fail :func:`sclrom.cyclic.check_orthogonal_system`
        at 1e-8, the tolerance the model loader applies.
    """
    n, m = history.n, history.m
    if not truncate and n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")
    V, s, W = thin_svd(history)
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0.0 else 0
    if rank < m:
        if not truncate:
            raise DegenerateHistory(
                f"numerical rank {rank} below m={m} at rank_tol={rank_tol:.1e}", rank=rank
            )
        if rank == 0:
            raise DegenerateHistory("history is numerically zero", rank=0)
        V = np.ascontiguousarray(V[:, :rank])
        s = s[:rank]
        W = np.eye(rank, dtype=np.complex128)
        first_col = V[:, 0] * s[0]  # first column of the rank-r core history
        m = rank
    else:
        first_col = history.data[:, 0]
    if n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")

    ratios = s / s[0]
    t_vals = np.sqrt(np.maximum(0.0, 1.0 - ratios**2))
    U_cols = complement_basis(V)
    span_part = (V * ratios) @ W
    complement_part = (U_cols * t_vals) @ W
    Vhat = np.ascontiguousarray(span_part + complement_part)

    kappa = complex(s[0])
    rho = complex(np.vdot(first_col, first_col).real / s[0])
    # vhat_1* v_1 must reproduce v_1* v_1 / s_1, which fails if v_1* v_1 overflows
    direct = np.vdot(Vhat[:, 0], first_col)
    if not (np.isfinite(rho) and abs(direct - rho) <= 1e-10 * abs(rho)):
        raise NumericalFailure(
            f"first-column product {direct:.6e} does not reproduce rho = {rho:.6e}"
        )
    orth = check_orthogonal_system(VectorSystem(Vhat), _ORTHOGONALITY_TOL)
    if not orth.is_orthogonal:
        raise NotOrthogonal(
            f"Vhat max relative cross product {orth.max_cross:.3e} exceeds tol {_ORTHOGONALITY_TOL:.1e}"
        )

    return OhfFactorization(
        Vhat=Vhat,
        V=V,
        kappa=kappa,
        rho=rho,
        R=replay_operator(V, Vhat, rho),
        singular_values=s.copy(),
        W=W,
    )


def verify_ohf(ohf: OhfFactorization, history: SnapshotHistory, tol: float = 1e-10) -> OhfReport:
    """Residuals of the four factorization identities against the history.

    t_residual   = ||T v_1 - rho vhat_1||
    shift_residual = max_j ||U vhat_j - vhat_{j+1 mod m}||
    k_residual   = max_j ||K kappa vhat_j - v_j|| / ||v_j||
    unitary_residual = ||U* U - 1||_F

    Each residual is evaluated through the frames in O(n m^2), with no
    n x n matrix formed. Raises NotOrthogonal when the Vhat columns are
    linearly dependent, so that U* U - 1 has no Cholesky form.
    """
    if ohf.n != history.n or ohf.m != history.m:
        raise DimensionMismatch(
            f"factorization is (n={ohf.n}, m={ohf.m}) but history is (n={history.n}, m={history.m})"
        )
    Vhat, V = ohf.Vhat, ohf.V
    vhat1 = Vhat[:, 0]
    # T v_1 - rho vhat_1 = (vhat_1* v_1 - rho) vhat_1
    t_gap = np.vdot(vhat1, history.data[:, 0]) - ohf.rho
    t_residual = float(np.linalg.norm(t_gap * vhat1))
    # U Vhat - roll(Vhat) = Vhat + E F* Vhat - roll(Vhat) = E (F* Vhat - 1)
    E, F = shift_factors(Vhat)
    shift_gap = E @ (F.conj().T @ Vhat - np.eye(ohf.m))
    shift_residual = float(np.max(np.linalg.norm(shift_gap, axis=0)))
    recon = ohf.kappa * (V @ (V.conj().T @ Vhat))
    col_norms = np.linalg.norm(history.data, axis=0)
    k_residual = float(np.max(np.linalg.norm(recon - history.data, axis=0) / col_norms))
    G = Vhat.conj().T @ Vhat
    R = _gram_factor(G)
    if R is None:
        raise NotOrthogonal("Vhat columns are linearly dependent: Gram matrix not positive definite")
    unitary_residual = _unitarity_residual(G, R)
    passed = max(t_residual, shift_residual, k_residual, unitary_residual) <= tol
    return OhfReport(t_residual, shift_residual, k_residual, unitary_residual, passed)
