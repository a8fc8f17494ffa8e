"""Cyclic step operator and span projector for orthogonal vector systems.

For an orthogonal system v_1..v_m in C^n the cyclic operator C advances
each v_j to v_{j+1} (wrapping v_m back to v_1) and fixes the orthogonal
complement of the span pointwise; P projects orthogonally onto the span.
Both are the identity plus rank-m terms, so a :class:`CyclicPair` is the
system's columns and their m x m Gram matrix, and every defining identity
(cycle relations, idempotence, commutation, the degree-m minimal
annihilating power, unitarity for orthonormal systems) is checked in
O(n m^2 + m^4) without an n x n matrix. C acts on the columns as the m x m
step M = 1 + A G (C cols = cols M); the shift factor of an orthonormal
history factor is the pair of its frame, checked in :mod:`sclrom.ohf`
against C_m = :func:`cyclic_shift_matrix`, the generator of the circulants
Circ(m).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptySystem, NotOrthogonal, ZeroVector

DEFAULT_TOL = 1e-10


@dataclass(eq=False)
class VectorSystem:
    """Ordered system of m nonzero complex vectors, stored as columns.

    Parameters
    ----------
    columns : ndarray
        (n, m) complex array, one system vector per column. Real input is
        promoted to complex128.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.ascontiguousarray(np.asarray(self.columns, dtype=np.complex128))
        if cols.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D column matrix, got ndim={cols.ndim}")
        _check_columns(cols.shape, np.linalg.norm(cols, axis=0))
        self.columns = cols


def _check_columns(shape: tuple[int, int], norms: np.ndarray) -> None:
    """The checks of :class:`VectorSystem` on an (n, m) column matrix whose
    column norms are ``norms``: at least one and at most n columns, none zero.
    """
    n, m = shape
    if m == 0:
        raise EmptySystem("vector system has no vectors")
    if m > n:
        raise DimensionMismatch(f"m={m} vectors cannot be independent in dimension n={n}")
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))


@dataclass(eq=False)
class CyclicPair:
    """Cyclic operator C = 1 + cols A cols* and span projector
    P = cols D^-1 cols* of an orthogonal system, held as its (n, m)
    ``columns`` cols and their Gram matrix ``gram`` G = cols* cols, with
    D = diag(G), S the cyclic permutation e_j -> e_{j+1} and
    A = (S - 1) D^-1. A dense C or P is formed only by a caller that asks
    for one.
    """

    columns: np.ndarray
    gram: np.ndarray

    @cached_property
    def A(self) -> np.ndarray:
        m = self.gram.shape[0]
        return (cyclic_shift_matrix(m) - np.eye(m)) / self.gram.diagonal().real

    @cached_property
    def step(self) -> np.ndarray:
        """M = 1 + A G, the matrix of C on the columns: C cols = cols M."""
        return np.eye(self.gram.shape[0]) + self.A @ self.gram

    @cached_property
    def R(self) -> np.ndarray:
        """The triangular R* R = G; NotOrthogonal if the columns are dependent."""
        try:
            return np.linalg.cholesky(self.gram).conj().T
        except np.linalg.LinAlgError:
            raise NotOrthogonal(
                "columns are linearly dependent: Gram matrix not positive definite"
            ) from None

    def norm(self, M: np.ndarray) -> float:
        """||cols M cols*||_F, which is ||R M R*||_F."""
        return float(np.linalg.norm(self.R @ M @ self.R.conj().T))

    def unitarity_residual(self) -> float:
        """||C* C - 1||_F, with C* C - 1 = cols (A + A* + A* G A) cols*."""
        A, Ah = self.A, self.A.conj().T
        return self.norm(A + Ah + Ah @ self.gram @ A)


@dataclass
class OrthReport:
    is_orthogonal: bool
    is_orthonormal: bool
    max_cross: float
    min_norm: float


@dataclass
class IdentityReport:
    """Residuals of the defining identities of a cyclic pair.

    ``unitarity_residual`` is None when the pair's columns are not
    orthonormal; ``min_power_gap`` is the smallest deviation of C^k from
    the identity over 1 <= k < m and must stay *above* tolerance for the
    annihilating power to have minimal degree m.
    """

    cycle_residual: float
    projection_residual: float
    commute_residual: float
    minpoly_residual: float
    unitarity_residual: float | None
    min_power_gap: float
    passed: bool


def cyclic_shift_matrix(m: int) -> np.ndarray:
    """The m x m cyclic permutation matrix mapping e_j to e_{j+1 mod m}."""
    if m < 1:
        raise DimensionMismatch(f"order must be positive, got {m}")
    return np.roll(np.eye(m, dtype=np.complex128), 1, axis=0)


def check_orthogonal_system(vs: VectorSystem, tol: float = DEFAULT_TOL) -> OrthReport:
    """Classify a vector system as orthogonal / orthonormal.

    The cross term is relative: max over j != k of |v_j* v_k| divided by
    ||v_j|| ||v_k||, so the verdict is scale invariant. Orthonormality
    additionally requires every norm within ``tol`` of 1.
    """
    cols = vs.columns
    return _gram_orthogonality(cols.conj().T @ cols, np.linalg.norm(cols, axis=0), tol)


def _gram_orthogonality(gram: np.ndarray, norms: np.ndarray, tol: float) -> OrthReport:
    """:func:`check_orthogonal_system` from the Gram matrix and column norms."""
    cross = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(cross, 0.0)
    max_cross = float(cross.max()) if len(norms) > 1 else 0.0
    min_norm = float(norms.min())
    is_orthogonal = max_cross <= tol
    is_orthonormal = is_orthogonal and bool(np.max(np.abs(norms - 1.0)) <= tol)
    return OrthReport(is_orthogonal, is_orthonormal, max_cross, min_norm)


def cyclic_operator(vs: VectorSystem, tol: float = DEFAULT_TOL) -> CyclicPair:
    """The cyclic advance operator C and projector P of the system.

    C maps v_j to v_{j+1} for j < m, maps v_m to v_1, and acts as the
    identity on the orthogonal complement of the span:

        C = v_1 v_m*/(v_m* v_m) + sum_j v_{j+1} v_j*/(v_j* v_j) + 1 - P

    Raises NotOrthogonal when the input is not an orthogonal system.
    """
    cols = vs.columns
    gram = cols.conj().T @ cols
    report = _gram_orthogonality(gram, np.linalg.norm(cols, axis=0), tol)
    if not report.is_orthogonal:
        raise NotOrthogonal(f"max relative cross product {report.max_cross:.3e} exceeds tol {tol:.3e}")
    return CyclicPair(columns=cols, gram=gram)


def verify_cyclic_identities(
    pair: CyclicPair, vs: VectorSystem, tol: float | None = None
) -> IdentityReport:
    """Check every defining identity of a cyclic pair against a system.

    Residuals (Frobenius norm for matrices, Euclidean for vectors): the
    cycle relations C v_j = v_{j+1 mod m}; P v_j = v_j and P^2 = P (P = P*
    as D is real); the commutator CP - PC; C^m - 1; and, when the pair's
    columns are orthonormal, C*C - 1. C and P meet the system in two n x m
    products; every other identity is an m x m M in cols M cols*. The
    powers C^k - 1 = cols A_k cols* are walked by repeated multiplication,
    A_{k+1} = A + (1 + A G) A_k, so the check uses no spectral code.

    When ``tol`` is None it defaults to 1e-10 * max(1, ||C||_F), with
    ||C||_F^2 = n + 2 Re tr(A G) + ||R A R*||_F^2.
    """
    cols, G, vcols = pair.columns, pair.gram, vs.columns
    if cols.shape != vcols.shape:
        raise DimensionMismatch(f"pair built for (n, m) = {cols.shape} but system has {vcols.shape}")
    n, m = cols.shape
    A, d_inv = pair.A, np.diag(1.0 / G.diagonal().real)
    AG = A @ G
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.sqrt(n + 2.0 * np.trace(AG).real + pair.norm(A) ** 2)))

    H = cols.conj().T @ vcols
    cycle_gap = cols @ (A @ H) + vcols - np.roll(vcols, -1, axis=1)
    cycle_residual = float(np.max(np.linalg.norm(cycle_gap, axis=0)))
    projection_residual = max(
        float(np.max(np.linalg.norm(cols @ (d_inv @ H) - vcols, axis=0))),
        pair.norm(d_inv @ G @ d_inv - d_inv),
    )
    commute_residual = pair.norm(AG @ d_inv - d_inv @ G @ A)

    # walk the powers C - 1, ..., C^m - 1 by repeated multiplication
    gaps, power = [], A
    for _ in range(m - 1):
        gaps.append(pair.norm(power))
        power = A + power + AG @ power
    minpoly_residual = pair.norm(power)
    min_power_gap = min(gaps) if gaps else float("inf")

    orth = _gram_orthogonality(G, np.sqrt(G.diagonal().real), tol)
    unitarity_residual = pair.unitarity_residual() if orth.is_orthonormal else None

    residuals = [cycle_residual, projection_residual, commute_residual, minpoly_residual]
    if unitarity_residual is not None:
        residuals.append(unitarity_residual)
    passed = all(r <= tol for r in residuals) and min_power_gap > tol
    return IdentityReport(
        cycle_residual=cycle_residual,
        projection_residual=projection_residual,
        commute_residual=commute_residual,
        minpoly_residual=minpoly_residual,
        unitarity_residual=unitarity_residual,
        min_power_gap=min_power_gap,
        passed=passed,
    )
