"""Orthonormal history factor: turn raw snapshots into an orthonormal frame.

A snapshot history H = [v_1 .. v_m] in C^{n x m} with 2m <= n is split via
its thin SVD V diag(s) W into a span part V diag(s_j/s_1) W and a complement
part U diag(t_j) W with t_j = sqrt(1 - (s_j/s_1)^2), whose sum Vhat has
orthonormal columns. The thin SVD V, s, W determines the factorization:
kappa = s_1, rho = vhat_1* v_1 = sum_j s_j^2 |W_j1|^2 / s_1 and the frame
Vhat are derived from it. V and Vhat define the projectors K = V V* and
T = vhat_1 vhat_1* and the unitary circular shift factor U advancing the
Vhat columns cyclically, so that

    T v_1 = rho vhat_1,   U vhat_j = vhat_{j+1 mod m},   K kappa vhat_j = v_j.

Every one of these operators has rank m (U is the identity plus a rank-m
term), so they are held through the n x m frames and never formed as
n x n matrices. U is the cyclic operator of the Vhat columns
(:class:`sclrom.cyclic.CyclicPair`), and compressing its powers through
the frame must give the powers of C_m, the generator of the circulants
Circ(m) that represent C[Z/m]: :func:`verify_ohf` checks the identities
above and :func:`check_commuting_diagram` that factoring, each m x m
past the Gram matrix Vhat* Vhat.

Since V* Vhat = diag(s/s_1) W and circ(e_1) is the identity, the replay
operator of every step is R = (rho/kappa) V diag(s) W: a model is V and
the one m x m matrix B = (rho/kappa) diag(s) W. Fitting and the model
loader both build the factorization through :func:`checked_factorization`,
an m x m gate on V* V, W W* and s that derives rho and forms B, so that
fitting yields only models that load, and a loaded model is the fitted
one bit for bit. Vhat is blended only on demand, for the checks of the
factorization identities.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclic import CyclicPair, _check_columns, _gram_orthogonality, cyclic_shift_matrix
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


def _check_finite(data: np.ndarray, first_column: int = 0) -> None:
    """NonFiniteData naming the first non-finite entry of the (n, k) ``data``
    in column order, its columns numbered from ``first_column``."""
    finite = np.isfinite(data.T)
    if not finite.all():
        column, row = (int(i) for i in np.argwhere(~finite)[0] + (first_column, 0))
        raise NonFiniteData(f"snapshot entry at (row {row}, column {column}) is non-finite")


@dataclass(eq=False)
class SnapshotHistory:
    """State snapshots of a discrete-time system, one per column.

    ``data`` is a column-major array, the layout of the column matrix
    [v_1 .. v_m] and of binary files: float64 for a real history, complex128
    otherwise, and every array made from it keeps that dtype. A real array
    is kept as float64, and a complex one whose imaginary parts are all
    +0.0 (the only float whose bits are all zero, so -0.0 stays complex)
    becomes float64; any other layout or dtype is copied once, so every
    product sees one layout, whatever the source. Zero columns are
    accepted at construction (a simulator may legitimately produce them);
    operations that require nonzero snapshots reject them when reached.
    NaN and infinite entries are rejected at construction, the first in
    column order named.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if np.iscomplexobj(data) and not np.asarray(data, np.complex128).imag.view(np.uint64).any():
            data = data.real
        data = np.asarray(data, dtype=np.complex128 if np.iscomplexobj(data) else np.float64,
                          order="F")
        if data.ndim != 2:
            raise DimensionMismatch(f"snapshot matrix must be 2-D, got ndim={data.ndim}")
        if data.shape[1] < 1:
            raise DimensionMismatch("snapshot history needs at least one column")
        _check_finite(data)
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


def _checked_history(data: np.ndarray) -> SnapshotHistory:
    """The history of column-major float64 or complex128 ``data`` whose
    every entry a reader has checked, made without scanning them again."""
    history = object.__new__(SnapshotHistory)
    history.data = data
    return history


@dataclass(eq=False)
class OhfFactorization:
    """Orthonormal history factor: the thin SVD that determines it, and
    the scalar rho, m x m replay core and gate residuals derived from it.

    ``V``, ``singular_values`` (s, positive and non-increasing) and ``W``
    are the thin SVD V diag(s) W of the frame's history (of its rank-r core
    after truncation, with W the identity). ``rho`` =
    sum_j s_j^2 |W_j1|^2 / s_1 (= v_1* v_1 / s_1), ``B`` =
    (rho/kappa) diag(s) W, with which the replay operator is R = V B, and
    ``residuals``, the m x m residuals by name, are what
    :func:`checked_factorization` derives from them; V, W and B are
    column-major, fitted or loaded. kappa = s_1 and the frame ``Vhat`` are
    derived on demand, so no stored value can disagree with the spectrum;
    until Vhat is asked for, V is the one n x m array held. V, W, B and
    Vhat are float64 for a real history and complex128 for a complex one
    (W and B are float64 after truncation, where W is the identity); rho
    and kappa are real numbers held in V's dtype, a Python float or
    complex.
    """

    V: np.ndarray
    singular_values: np.ndarray
    W: np.ndarray
    rho: float | complex
    B: np.ndarray
    residuals: dict[str, float]

    @property
    def kappa(self) -> float | complex:
        return self.V.dtype.type(self.singular_values[0]).item()

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
        :func:`check_commuting_diagram` do.
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


@dataclass
class DiagramReport:
    max_residual: float
    per_degree: list[tuple[int, float]]
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

    The factors take the history's dtype: a real (float64) history takes
    LAPACK's real SVD, in about 60% of the complex one's time, and its
    factors are pinned by a sign per column (each column times +-1,
    exactly). With ``rank_tol``, only the r leading directions with
    s_j > rank_tol * s_1 are kept, and the column-major copy made of each
    factor holds those alone (r = 0 for a zero history).
    """
    try:
        V, S, W = np.linalg.svd(history.data, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if rank_tol is not None:
        rank = int(np.count_nonzero(S > rank_tol * S[0])) if S[0] > 0.0 else 0
        V, S, W = V[:, :rank], S[:rank], W[:rank]
    pin_column_phases(V, W)
    return np.asfortranarray(V), S, np.asfortranarray(W)


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
    U = np.zeros((n, m), dtype=V.dtype)
    U[: 2 * m] = np.linalg.qr(V[: 2 * m], mode="complete")[0][:, m:]
    return U


def _gate_residuals(v_gram: np.ndarray, s: np.ndarray, W: np.ndarray) -> dict[str, float]:
    """The m x m residuals of :func:`checked_factorization`, by name, from
    the Gram matrix ``v_gram`` = V* V, s and W:

    - ``V columns orthonormal`` = ||V* V - 1||_F;
    - ``W rows orthonormal`` = ||W W* - 1||_F;
    - ``s non-increasing`` = max_j ((s_{j+1}/s_1)^2 - (s_j/s_1)^2), or 0.

    np.max keeps a NaN, so a NaN input reads NaN.
    """
    eye = np.eye(W.shape[0])
    ratios = (s / s[0]) ** 2
    return {
        "V columns orthonormal": float(np.linalg.norm(v_gram - eye)),
        "W rows orthonormal": float(np.linalg.norm(W @ W.conj().T - eye)),
        "s non-increasing": float(np.max(np.append(np.diff(ratios), 0.0))),
    }


def checked_factorization(V: np.ndarray, s: np.ndarray, W: np.ndarray) -> OhfFactorization:
    """The factorization of the thin SVD V diag(s) W of a frame's history,
    once it passes every check of a valid model: the one gate of fitting
    and loading. Every check is m x m past the Gram matrix V* V.

    V needs n >= 2m rows, the room of the complement that the derived Vhat
    blends in (DimensionTooSmall), and s must be positive
    (InvariantViolation naming s). V must pass the checks of
    :class:`sclrom.cyclic.VectorSystem` and
    :func:`sclrom.cyclic.check_orthogonal_system` at 1e-8 (NotOrthogonal),
    read from its Gram matrix. Then each residual of
    :func:`_gate_residuals` must be at most 1e-8 max(1, m), written
    ``not <=`` so that NaN fails (InvariantViolation naming it). They are
    kept by name on the result as ``residuals``.

    rho = vhat_1* v_1 is derived as sum_j s_j^2 |W_j1|^2 / s_1, since
    v_1 = V diag(s) W e_1 and the span part of vhat_1 is
    V diag(s/s_1) W e_1; a non-finite rho (an overflowing spectrum) raises
    NumericalFailure naming it. With V orthonormal, W unitary and
    0 < s_j <= s_1, the blend Vhat of :attr:`OhfFactorization.Vhat` is
    orthonormal, M = V* Vhat = diag(s/s_1) W and g = rho Vhat* vhat_1 =
    rho e_1, so the replay operator V M circ(g) of the step-t transition
    H_t = Vhat circ(c_t) Vhat* (K H_t (rho vhat_1) = V M circ(c_t) g, as
    circulants commute) is R = (rho/kappa) V diag(s) W = V B. Only the
    m x m B is formed; a block of states is (c^T B^T) V^T, see
    :func:`sclrom.model.replay`. rho and B are elementwise expressions of
    fixed operands, so bit-identical V, s and W give bit-identical rho and
    B, and hence predictions. Runs under ``np.errstate(all="ignore")``:
    huge entries read inf or NaN, which the checks reject.
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
        residuals = _gate_residuals(v_gram, s, W)
        for name, residual in residuals.items():
            if not residual <= _ORTHOGONALITY_TOL * max(1.0, float(m)):
                raise InvariantViolation(f"{name}: residual {residual:.3e}")
        rho = np.dot(s**2, np.abs(W[:, 0]) ** 2) / s[0]
        if not np.isfinite(rho):
            raise NumericalFailure(f"rho = sum_j s_j^2 |W_j1|^2 / s_1 = {rho:.6e} is not finite")
        B = (s * (rho / s[0]))[:, None] * W
    return OhfFactorization(V=V, singular_values=s, W=W, rho=V.dtype.type(rho).item(), B=B,
                            residuals=residuals)


def build_ohf(
    history: SnapshotHistory,
    rank_tol: float = DEFAULT_RANK_TOL,
    truncate: bool = False,
) -> OhfFactorization:
    """Construct the orthonormal history factor of a snapshot history.

    The thin SVD passes the m x m gate of :func:`checked_factorization`,
    which derives rho from it, then one first-column check compares the
    SVD with the data: vhat_1* v_1, with v_1 the first snapshot, must
    reproduce rho to 1e-10, from the span part of vhat_1 alone, so neither
    the complement nor Vhat is formed.

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
        W = np.eye(rank, order="F")
        first_col = V[:, 0] * s[0]  # first column of the rank-r core history
        m = rank
    else:
        first_col = history.data[:, 0]
    if n < 2 * m:
        raise DimensionTooSmall(f"need n >= 2m, got n={n}, m={m}")

    ohf = checked_factorization(V, s.copy(), W)
    # the complement part of vhat_1 is orthogonal to v_1 in range(V), so
    # its span part V M e_1 serves
    direct = np.vdot(V @ (s / s[0] * W[:, 0]), first_col)
    if not abs(direct - ohf.rho) <= 1e-10 * abs(ohf.rho):
        raise NumericalFailure(
            f"first-column product {direct:.6e} does not reproduce rho = {ohf.rho:.6e}"
        )
    return ohf


def verify_ohf(ohf: OhfFactorization, history: SnapshotHistory, tol: float = 1e-10) -> OhfReport:
    """Residuals of the four factorization identities against the history.

    t_residual   = ||T v_1 - rho vhat_1||
    shift_residual = max_j ||U vhat_j - vhat_{j+1 mod m}||
    k_residual   = max_j ||K kappa vhat_j - v_j|| / ||v_j||
    unitary_residual = ||U* U - 1||_F

    U = 1 + Vhat A Vhat* is the cyclic operator of the Vhat columns
    (:class:`sclrom.cyclic.CyclicPair`): with G = Vhat* Vhat = R* R and
    U Vhat = Vhat M, the gap U Vhat - Vhat S = Vhat (M - S) has the column
    norms of R (M - S). No n x n matrix is formed. Raises NotOrthogonal
    when the Vhat columns are linearly dependent (G has no Cholesky factor).
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
    pair = CyclicPair(Vhat, Vhat.conj().T @ Vhat)
    shift_gap = pair.R @ (pair.step - cyclic_shift_matrix(ohf.m))
    shift_residual = float(np.max(np.linalg.norm(shift_gap, axis=0)))
    recon = ohf.kappa * (V @ (V.conj().T @ Vhat))
    col_norms = np.linalg.norm(data, axis=0)
    k_residual = float(np.max(np.linalg.norm(recon - data, axis=0) / col_norms))
    unitary_residual = pair.unitarity_residual()
    passed = max(t_residual, shift_residual, k_residual, unitary_residual) <= tol
    return OhfReport(t_residual, shift_residual, k_residual, unitary_residual, passed)


def check_commuting_diagram(
    ohf: OhfFactorization,
    degrees: list[int],
    tol: float = 1e-10,
    seed: int = 0,
) -> DiagramReport:
    """Verify that compression carries powers of the shift factor onto C_m.

    Per degree d: Vhat* U^d Vhat against C_m^d, and Vhat* p(U) Vhat against
    p(C_m) for a seeded random polynomial p of degree d, all m x m past
    G = Vhat* Vhat: U Vhat = Vhat M, so Vhat* U^k Vhat = G M^k.
    """
    if min(degrees, default=0) < 0:
        raise DimensionMismatch(f"degrees must be nonnegative, got {degrees}")
    Vhat = ohf.Vhat
    pair = CyclicPair(Vhat, Vhat.conj().T @ Vhat)
    X, Cm = pair.gram, cyclic_shift_matrix(ohf.m)
    gaps = []  # gaps[k] = Vhat* U^k Vhat - C_m^k
    for k in range(max(degrees, default=-1) + 1):
        gaps.append(X - np.linalg.matrix_power(Cm, k))
        X = X @ pair.step
    rng = np.random.default_rng(seed)
    per_degree: list[tuple[int, float]] = []
    for d in degrees:
        a = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        # by linearity, Vhat* p(U) Vhat - p(C_m) = sum_k a_k gaps[k]
        r_poly = float(np.linalg.norm(np.tensordot(a, gaps[: d + 1], axes=1)))
        per_degree.append((d, max(float(np.linalg.norm(gaps[d])), r_poly)))
    max_residual = max((r for _, r in per_degree), default=0.0)
    return DiagramReport(max_residual=max_residual, per_degree=per_degree, passed=max_residual <= tol)
