"""Orthonormal history factor: turn raw snapshots into an orthonormal frame.

A snapshot history H = [v_1 .. v_m] in C^{n x m} with 2m <= n is split via
its thin SVD V diag(s) W into a span part V diag(s_j/s_1) W and a complement
part U diag(t_j) W with t_j = sqrt(1 - (s_j/s_1)^2), whose sum Vhat has
orthonormal columns. The factorization carries V, s, W and the scalar
rho = v_1* v_1 / s_1, which determine it: kappa = s_1 and the frame Vhat
are derived from them. V and Vhat define the projectors K = V V* and
T = vhat_1 vhat_1* and the unitary circular shift factor U advancing the
Vhat columns cyclically, so that

    T v_1 = rho vhat_1,   U vhat_j = vhat_{j+1 mod m},   K kappa vhat_j = v_j.

Every one of these operators has rank m (U is the identity plus a rank-m
term), so they are held through the n x m frames and never formed as
n x n matrices.

Since V* Vhat = diag(s/s_1) W and circ(e_1) is the identity, the replay
operator of every step is R = (rho/kappa) V diag(s) W: a model is V and
the one m x m matrix B = (rho/kappa) diag(s) W. Fitting and the model
loader both build the factorization through :func:`checked_factorization`,
an m x m gate on V* V, W W*, s and rho that forms B, so that fitting
yields only models that load, and a loaded model is the fitted one bit
for bit. Vhat is blended only on demand, for the checks of the
factorization identities.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclic import _check_columns, _gram_orthogonality, shift_factors
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

    ``data`` is a column-major complex128 array, the layout of the column
    matrix [v_1 .. v_m] and of binary files; any other array is copied into
    it once, so every product sees one layout, whatever the source. Zero
    columns are accepted at construction (a simulator may legitimately
    produce them); operations that require nonzero snapshots reject them
    when reached. NaN and infinite entries are rejected at construction,
    the first in column order named.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128, order="F")
        if data.ndim != 2:
            raise DimensionMismatch(f"snapshot matrix must be 2-D, got ndim={data.ndim}")
        if data.shape[1] < 1:
            raise DimensionMismatch("snapshot history needs at least one column")
        finite = np.isfinite(data)
        if not finite.all():
            col, row = (int(i) for i in np.argwhere(~finite.T)[0])
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
    """Orthonormal history factor: the thin SVD and rho that determine it,
    and the m x m replay core and gate residuals derived from them.

    ``V``, ``singular_values`` (s, positive and non-increasing) and ``W``
    are the thin SVD V diag(s) W of the frame's history (of its rank-r core
    after truncation, with W the identity), and ``rho`` = v_1* v_1 / s_1.
    ``B`` = (rho/kappa) diag(s) W, with which the replay operator is
    R = V B, and ``residuals``, the m x m residuals by name, are what
    :func:`checked_factorization` derives from them. kappa = s_1 and the
    frame ``Vhat`` are derived on demand, so no stored value can disagree
    with the spectrum; until Vhat is asked for, V is the one n x m array
    held.
    """

    V: np.ndarray
    singular_values: np.ndarray
    W: np.ndarray
    rho: complex
    B: np.ndarray
    residuals: dict[str, float]

    @property
    def kappa(self) -> complex:
        return complex(self.singular_values[0])

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[1]

    @cached_property
    def Vhat(self) -> np.ndarray:
        """The orthonormal frame, blended from V, s and W on first use and
        kept.

        The span part (V * s/s_1) @ W, with the complement part (U * t) @ W
        added on the 2m rows where :func:`complement_basis` U is nonzero,
        t_j = sqrt(1 - (s_j/s_1)^2). A GEMM row's bits do not depend on the
        row count, and the rows below would add only signed zeros. So
        bit-identical V, s and W give a bit-identical Vhat. Neither fitting
        nor loading reads it: the checks of :func:`verify_ohf` and
        :func:`sclrom.check_commuting_diagram` do.
        """
        V, s, W = self.V, self.singular_values, self.W
        m = V.shape[1]
        with np.errstate(all="ignore"):
            ratios = s / s[0]
            t_vals = np.sqrt(np.maximum(0.0, 1.0 - ratios**2))
            Vhat = (V * ratios) @ W
            Vhat[: 2 * m] += (complement_basis(V)[: 2 * m] * t_vals) @ W
        return Vhat


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


def _gate_residuals(
    v_gram: np.ndarray, s: np.ndarray, W: np.ndarray, rho: complex
) -> dict[str, float]:
    """The m x m residuals of :func:`checked_factorization`, by name, from
    the Gram matrix ``v_gram`` = V* V, s, W and rho:

    - ``V columns orthonormal`` = ||V* V - 1||_F;
    - ``W rows orthonormal`` = ||W W* - 1||_F;
    - ``s non-increasing`` = max_j ((s_{j+1}/s_1)^2 - (s_j/s_1)^2), or 0;
    - ``rho consistent`` = |rho - sum_j s_j^2 |W_j1|^2 / s_1| / |rho|, as
      v_1 = V diag(s) W e_1 gives v_1* v_1 = sum_j s_j^2 |W_j1|^2.

    np.max keeps a NaN, so a NaN input reads NaN.
    """
    eye = np.eye(W.shape[0])
    ratios = (s / s[0]) ** 2
    return {
        "V columns orthonormal": float(np.linalg.norm(v_gram - eye)),
        "W rows orthonormal": float(np.linalg.norm(W @ W.conj().T - eye)),
        "s non-increasing": float(np.max(np.append(np.diff(ratios), 0.0))),
        "rho consistent": float(abs(rho - np.dot(s**2, np.abs(W[:, 0]) ** 2) / s[0]) / abs(rho)),
    }


def checked_factorization(
    V: np.ndarray, s: np.ndarray, W: np.ndarray, rho: complex
) -> OhfFactorization:
    """The factorization of the thin SVD V diag(s) W of a frame's history
    and the scalar rho, once they pass every check of a valid model: the
    one gate of fitting and loading. Every check is m x m past the Gram
    matrix V* V.

    V needs n >= 2m rows, the room of the complement that the derived Vhat
    blends in (DimensionTooSmall), and s must be positive
    (InvariantViolation naming s). V must pass the checks of
    :class:`sclrom.cyclic.VectorSystem` and
    :func:`sclrom.cyclic.check_orthogonal_system` at 1e-8 (NotOrthogonal),
    read from its Gram matrix. Then each residual of
    :func:`_gate_residuals` must be at most 1e-8 max(1, m), written
    ``not <=`` so that NaN fails (InvariantViolation naming it). They are
    kept by name on the result as ``residuals``.

    With V orthonormal, W unitary and 0 < s_j <= s_1, the blend Vhat of
    :attr:`OhfFactorization.Vhat` is orthonormal, M = V* Vhat =
    diag(s/s_1) W and g = rho Vhat* vhat_1 = rho e_1, so the replay
    operator V M circ(g) of the step-t transition H_t = Vhat circ(c_t)
    Vhat* (K H_t (rho vhat_1) = V M circ(c_t) g, as circulants commute) is
    R = (rho/kappa) V diag(s) W = V B. Only the m x m B is formed; a block
    of states is (c^T B^T) V^T, see :func:`sclrom.model.replay`. B is one
    elementwise product of fixed operands, so bit-identical V, s, W and
    rho give bit-identical B, and hence predictions. Runs under
    ``np.errstate(all="ignore")``: huge entries read inf or NaN, which the
    checks reject.
    """
    n, m = V.shape
    if n < 2 * m:
        raise DimensionTooSmall(f"complement of an m={m} frame needs n >= {2 * m}, got n={n}")
    if not (s > 0.0).all():  # NaN fails too
        raise InvariantViolation("s: singular values must be positive")
    with np.errstate(all="ignore"):
        v_gram = V.conj().T @ V
        norms = np.sqrt(v_gram.diagonal().real)
        _check_columns(V.shape, norms)
        orth = _gram_orthogonality(v_gram, norms, _ORTHOGONALITY_TOL)
        if not orth.is_orthogonal:
            raise NotOrthogonal(
                f"V max relative cross product {orth.max_cross:.3e} "
                f"exceeds tol {_ORTHOGONALITY_TOL:.1e}"
            )
        residuals = _gate_residuals(v_gram, s, W, rho)
        for name, residual in residuals.items():
            if not residual <= _ORTHOGONALITY_TOL * max(1.0, float(m)):
                raise InvariantViolation(f"{name}: residual {residual:.3e}")
        B = (s * (rho / s[0]))[:, None] * W
    return OhfFactorization(V=V, singular_values=s, W=W, rho=rho, B=B, residuals=residuals)


def build_ohf(
    history: SnapshotHistory,
    rank_tol: float = DEFAULT_RANK_TOL,
    truncate: bool = False,
) -> OhfFactorization:
    """Construct the orthonormal history factor of a snapshot history.

    The thin SVD and rho pass the m x m gate of
    :func:`checked_factorization`, then one first-column check: vhat_1* v_1
    must reproduce rho, from the span part of vhat_1 alone, so neither the
    complement nor Vhat is formed.

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
        If the V columns fail :func:`sclrom.cyclic.check_orthogonal_system`
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
        first_col = history.data[:, 0]
    if n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")

    rho = complex(np.vdot(first_col, first_col).real / s[0])
    if not np.isfinite(rho):
        raise NumericalFailure(f"rho = v_1* v_1 / s_1 = {rho:.6e} is not finite")
    ohf = checked_factorization(V, s.copy(), W, rho)
    # vhat_1* v_1 must reproduce v_1* v_1 / s_1; the complement part of
    # vhat_1 is orthogonal to v_1 in range(V), so its span part V M e_1 serves
    direct = np.vdot(V @ (s / s[0] * W[:, 0]), first_col)
    if not abs(direct - rho) <= 1e-10 * abs(rho):
        raise NumericalFailure(
            f"first-column product {direct:.6e} does not reproduce rho = {rho:.6e}"
        )
    return ohf


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
    Vhat, V, data = ohf.Vhat, ohf.V, history.data
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
    try:  # R* R = G, for the thin QR factor of Vhat
        R = np.linalg.cholesky(G).conj().T
    except np.linalg.LinAlgError:
        raise NotOrthogonal(
            "Vhat columns are linearly dependent: Gram matrix not positive definite"
        ) from None
    unitary_residual = _unitarity_residual(G, R)
    passed = max(t_residual, shift_residual, k_residual, unitary_residual) <= tol
    return OhfReport(t_residual, shift_residual, k_residual, unitary_residual, passed)
