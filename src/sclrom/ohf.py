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

Fitting and the model loader both build the factorization through
:func:`checked_factorization`, which checks the frames and forms the
replay operator, so that fitting yields only models that load.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import circulant_matrix
from .cyclic import (
    _check_columns,
    _gram_and_norms,
    _gram_orthogonality,
    shift_factors,
)
from .errors import (
    ConfigInvalid,
    DegenerateHistory,
    DimensionMismatch,
    DimensionTooSmall,
    InvariantViolation,
    NonFiniteData,
    NotOrthogonal,
    NumericalFailure,
)

DEFAULT_RANK_TOL = 1e-12
_ORTHOGONALITY_TOL = 1e-8
# numpy refuses an array of more than intp-max bytes, 16 per complex128 entry
_MAX_ENTRIES = np.iinfo(np.intp).max // 16


def _check_entries(name: str, count: int) -> None:
    """ConfigInvalid naming ``name`` when an array of ``count`` complex128
    entries is beyond what numpy can allocate."""
    if count > _MAX_ENTRIES:
        raise ConfigInvalid(
            f"{name} is {count}, beyond the {_MAX_ENTRIES} complex entries of one array"
        )


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

    ``R`` is the n x m replay operator that :func:`checked_factorization`
    derives from V, Vhat, and rho. ``singular_values`` is None on instances
    rebuilt from a model file (the file stores only V, Vhat, and coefficients).
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


def thin_svd(
    history: SnapshotHistory, rank_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (V, S, W) with V diag(S) W = data (numpy's W, not conjugated);
    pinned phases make repeated runs produce identical factors.

    A history whose imaginary part is all zero (either sign) takes LAPACK's
    real SVD, in about 60% of the complex one's time; its factors are
    pinned while real (each column times +-1, exactly) and become complex
    in the one C-ordered copy made of each factor. With ``rank_tol``, only the r
    leading directions with s_j > rank_tol * s_1 are kept, and the copies
    hold those alone (r = 0 for a zero history).
    """
    data = history.data
    real = not data.imag.any()
    try:
        V, S, W = np.linalg.svd(data.real if real else data, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if rank_tol is not None:
        rank = int(np.count_nonzero(S > rank_tol * S[0])) if S[0] > 0.0 else 0
        V, S, W = V[:, :rank], S[:rank], W[:rank]
    pin_column_phases(V, W)
    return (np.ascontiguousarray(V, dtype=np.complex128), S,
            np.ascontiguousarray(W, dtype=np.complex128))


def _gram_factor(G: np.ndarray) -> np.ndarray | None:
    """Upper-triangular R with R* R = G, the conjugate transpose of the
    Cholesky factor of G; None when G is not numerically positive definite.
    """
    try:
        return np.linalg.cholesky(G).conj().T
    except np.linalg.LinAlgError:
        return None


def complement_basis(V: np.ndarray) -> np.ndarray:
    """m orthonormal columns orthogonal to range(V), supported on the first
    2m rows, a deterministic function of V.

    Q is the complete Householder QR factor of the 2m x m top block V[:2m];
    the result is Q[:, m:] zero-padded to n rows. Q* V[:2m] = [R; 0], so its
    columns are orthonormal and orthogonal to every column of V to rounding,
    whatever the conditioning of V.
    """
    n, m = V.shape
    if n < 2 * m:
        raise DimensionTooSmall(f"complement of an m={m} frame needs n >= {2 * m}, got n={n}")
    U = np.zeros((n, m), dtype=np.complex128)
    U[: 2 * m] = np.linalg.qr(V[: 2 * m], mode="complete")[0][:, m:]
    return U


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
    V: np.ndarray,
    Vhat: np.ndarray,
    vhat_gram: np.ndarray | None = None,
    v_gram: np.ndarray | None = None,
) -> dict[str, float]:
    """Frobenius residuals of the factorization invariants, from the frames.

    Each value equals its dense n x n counterpart up to rounding. One Gram
    matrix per frame, G = Vhat* Vhat and G_V = V* V (``vhat_gram`` and
    ``v_gram``, if the caller already has them), is the only O(n m^2)
    work; the rest is m x m, through the Cholesky factors R with R* R = G
    and R_V* R_V = G_V, which stand in for the R of a thin QR:

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
    G_V = V.conj().T @ V if v_gram is None else v_gram
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


def checked_factorization(
    V: np.ndarray, Vhat: np.ndarray, kappa: complex, rho: complex,
    singular_values: np.ndarray | None = None, W: np.ndarray | None = None,
) -> OhfFactorization:
    """The factorization of frames V, Vhat and scalars kappa, rho, once they
    pass every check of a valid model: the one gate of fitting and loading.

    Vhat must pass the checks of :class:`sclrom.cyclic.VectorSystem` and
    :func:`sclrom.cyclic.check_orthogonal_system` at 1e-8 (NotOrthogonal).
    Then the five :func:`frame_residuals`, and three residuals of
    M = V* Vhat that tie Vhat to V and rho (a fitted frame has
    M = diag(s/s_1) W with W unitary, and v_1 = kappa V M e_1), must each be
    at most 1e-8 max(1, m), written ``not <=`` so that NaN fails
    (InvariantViolation naming it): ``V* Vhat rows orthogonal`` =
    ||offdiag(M M*)||_F, ``V* Vhat row norms ordered`` =
    max(|d_1 - 1|, max_j (d_{j+1} - d_j)^+) for d = diag(M M*), and
    ``rho consistent`` = |rho - kappa ||M e_1||^2| / |rho|.

    R = V M circ(g) with g = rho Vhat* vhat_1 is the replay operator:
    K H_t (rho vhat_1) = V M circ(c_t) g = R c_t for the step-t transition
    H_t = Vhat circ(c_t) Vhat*, as circulants commute. Each frame is
    conjugated once, and each product is one BLAS call on fixed operands,
    so bit-identical frames give bit-identical R, and hence predictions.
    Runs under ``np.errstate(all="ignore")``: huge entries read inf or NaN,
    which the checks reject.
    """
    m = Vhat.shape[1]
    with np.errstate(all="ignore"):
        conj = Vhat.conj()
        g = rho * (conj.T @ Vhat[:, 0])
        vhat_gram, norms = _gram_and_norms(Vhat, conj)
        del conj
        _check_columns(Vhat.shape, norms)
        orth = _gram_orthogonality(vhat_gram, norms, _ORTHOGONALITY_TOL)
        if not orth.is_orthogonal:
            raise NotOrthogonal(
                f"Vhat max relative cross product {orth.max_cross:.3e} "
                f"exceeds tol {_ORTHOGONALITY_TOL:.1e}"
            )
        V_conj = V.conj()
        v_gram = V_conj.T @ V
        M = V_conj.T @ Vhat
        del V_conj
        residuals = frame_residuals(V, Vhat, vhat_gram, v_gram)
        MM = M @ M.conj().T
        d = MM.diagonal().real.copy()
        np.fill_diagonal(MM, 0.0)
        residuals["V* Vhat rows orthogonal"] = float(np.linalg.norm(MM))
        gaps = np.append(np.diff(d), (abs(d[0] - 1.0), 0.0))  # np.max keeps a NaN
        residuals["V* Vhat row norms ordered"] = float(np.max(gaps))
        rho_gap = abs(rho - kappa * np.vdot(M[:, 0], M[:, 0]).real)
        residuals["rho consistent"] = float(rho_gap / abs(rho))
        for name, residual in residuals.items():
            if not residual <= _ORTHOGONALITY_TOL * max(1.0, float(m)):
                raise InvariantViolation(f"{name}: residual {residual:.3e}")
        R = V @ (M @ circulant_matrix(g))
    return OhfFactorization(Vhat=Vhat, V=V, kappa=kappa, rho=rho, R=R,
                            singular_values=singular_values, W=W)


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
    InvariantViolation
        If a residual of :func:`checked_factorization` fails its gate, so
        that the model loader would refuse the frames.
    """
    n, m = history.n, history.m
    if not truncate and n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")
    V, s, W = thin_svd(history, rank_tol)
    rank = s.size
    if rank < m:
        if not truncate:
            raise DegenerateHistory(
                f"numerical rank {rank} below m={m} at rank_tol={rank_tol:.1e}", rank=rank
            )
        if rank == 0:
            raise DegenerateHistory("history is numerically zero", rank=0)
        W = np.eye(rank, dtype=np.complex128)
        first_col = V[:, 0] * s[0]  # first column of the rank-r core history
        m = rank
    else:
        # a contiguous copy: the strided and the contiguous dot product round
        # differently, and rho must not depend on the history's layout
        first_col = np.ascontiguousarray(history.data[:, 0])
    if n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")

    ratios = s / s[0]
    t_vals = np.sqrt(np.maximum(0.0, 1.0 - ratios**2))
    # the span part, with the complement part added on the 2m rows where
    # complement_basis is nonzero: a GEMM row's bits do not depend on the
    # row count, and the rows below would add only signed zeros
    Vhat = (V * ratios) @ W
    Vhat[: 2 * m] += (complement_basis(V)[: 2 * m] * t_vals) @ W

    kappa = complex(s[0])
    rho = complex(np.vdot(first_col, first_col).real / s[0])
    # vhat_1* v_1 must reproduce v_1* v_1 / s_1, which fails if v_1* v_1 overflows
    direct = np.vdot(Vhat[:, 0], first_col)
    if not (np.isfinite(rho) and abs(direct - rho) <= 1e-10 * abs(rho)):
        raise NumericalFailure(
            f"first-column product {direct:.6e} does not reproduce rho = {rho:.6e}"
        )
    return checked_factorization(V, Vhat, kappa, rho, s.copy(), W)


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
    # strided and contiguous products and sums round differently, so the
    # residuals take the column-major layout that binary files load in
    data = np.asfortranarray(history.data)
    vhat1 = Vhat[:, 0]
    # T v_1 - rho vhat_1 = (vhat_1* v_1 - rho) vhat_1
    t_gap = np.vdot(vhat1, data[:, 0]) - ohf.rho
    t_residual = float(np.linalg.norm(t_gap * vhat1))
    # U Vhat - roll(Vhat) = Vhat + E F* Vhat - roll(Vhat) = E (F* Vhat - 1)
    E, F = shift_factors(Vhat)
    shift_gap = E @ (F.conj().T @ Vhat - np.eye(ohf.m))
    shift_residual = float(np.max(np.linalg.norm(shift_gap, axis=0)))
    recon = ohf.kappa * (V @ (V.conj().T @ Vhat))
    col_norms = np.linalg.norm(data, axis=0)
    k_residual = float(np.max(np.linalg.norm(recon - data, axis=0) / col_norms))
    G = Vhat.conj().T @ Vhat
    R = _gram_factor(G)
    if R is None:
        raise NotOrthogonal("Vhat columns are linearly dependent: Gram matrix not positive definite")
    unitary_residual = _unitarity_residual(G, R)
    passed = max(t_residual, shift_residual, k_residual, unitary_residual) <= tol
    return OhfReport(t_residual, shift_residual, k_residual, unitary_residual, passed)
