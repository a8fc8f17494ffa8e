"""Cyclic step operator and span projector for orthogonal vector systems.

For an orthogonal system v_1..v_m in C^n this module builds the operator
that advances each v_j to v_{j+1} (wrapping v_m back to v_1) while fixing
the orthogonal complement of span{v_1..v_m} pointwise, together with the
orthogonal projector onto that span, and verifies the defining identities
numerically: the cycle relations, idempotence, commutation, the degree-m
minimal annihilating power, and unitarity for orthonormal systems.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def m(self) -> int:
        return self.columns.shape[1]


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
    """Cyclic operator C and span projector P for one vector system."""

    C: np.ndarray
    P: np.ndarray
    m: int
    n: int


@dataclass
class OrthReport:
    is_orthogonal: bool
    is_orthonormal: bool
    max_cross: float
    min_norm: float


@dataclass
class IdentityReport:
    """Residuals of the defining identities of a cyclic pair.

    ``unitarity_residual`` is None when the system is not orthonormal;
    ``min_power_gap`` is the smallest deviation of C^k from the identity
    over 1 <= k < m and must stay *above* tolerance for the annihilating
    power to have minimal degree m.
    """

    cycle_residual: float
    projection_residual: float
    commute_residual: float
    minpoly_residual: float
    unitarity_residual: float | None
    min_power_gap: float
    passed: bool


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


def shift_factors(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = roll(cols, -1) - cols and F = cols diag(1/||v_j||^2): the cyclic
    operator of the columns is C = 1 + E F* and their span projector P = cols F*.
    """
    E = np.roll(cols, -1, axis=1) - cols
    F = cols / np.sum(np.abs(cols) ** 2, axis=0)
    return E, F


def cyclic_operator(vs: VectorSystem, tol: float = DEFAULT_TOL) -> CyclicPair:
    """Build the cyclic advance operator C and projector P of the system.

    C maps v_j to v_{j+1} for j < m, maps v_m to v_1, and acts as the
    identity on the orthogonal complement of the span:

        C = v_1 v_m*/(v_m* v_m) + sum_j v_{j+1} v_j*/(v_j* v_j) + 1 - P

    Raises NotOrthogonal when the input is not an orthogonal system.
    """
    report = check_orthogonal_system(vs, tol)
    if not report.is_orthogonal:
        raise NotOrthogonal(f"max relative cross product {report.max_cross:.3e} exceeds tol {tol:.3e}")
    E, F = shift_factors(vs.columns)
    C = np.eye(vs.n, dtype=np.complex128) + E @ F.conj().T
    return CyclicPair(C=C, P=vs.columns @ F.conj().T, m=vs.m, n=vs.n)


def verify_cyclic_identities(
    pair: CyclicPair, vs: VectorSystem, tol: float | None = None
) -> IdentityReport:
    """Check every defining identity of a cyclic pair against its system.

    Residuals (Frobenius norm for matrices, Euclidean for vectors):
    the cycle relations C v_j = v_{j+1 mod m}; P v_j = v_j together with
    P^2 = P = P*; the commutator CP - PC; C^m - 1; and, for orthonormal
    systems only, C*C - 1. Matrix powers are formed by repeated
    multiplication so the check stays independent of any spectral code.

    When ``tol`` is None it defaults to 1e-10 * max(1, ||C||_F).
    """
    C, P = pair.C, pair.P
    cols = vs.columns
    n, m = cols.shape
    if pair.n != n or pair.m != m:
        raise DimensionMismatch(
            f"pair built for (n={pair.n}, m={pair.m}) but system has (n={n}, m={m})"
        )
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.linalg.norm(C)))

    advanced = np.roll(cols, -1, axis=1)
    cycle_residual = float(np.max(np.linalg.norm(C @ cols - advanced, axis=0)))

    eye = np.eye(n, dtype=np.complex128)
    projection_residual = max(
        float(np.max(np.linalg.norm(P @ cols - cols, axis=0))),
        float(np.linalg.norm(P @ P - P)),
        float(np.linalg.norm(P - P.conj().T)),
    )
    commute_residual = float(np.linalg.norm(C @ P - P @ C))

    # walk the powers C, C^2, ..., C^m by repeated multiplication
    gaps = []
    power = C.copy()
    for _ in range(m - 1):
        gaps.append(float(np.linalg.norm(power - eye)))
        power = power @ C
    minpoly_residual = float(np.linalg.norm(power - eye))
    min_power_gap = min(gaps) if gaps else float("inf")

    orth = check_orthogonal_system(vs, tol)
    unitarity_residual = None
    if orth.is_orthonormal:
        unitarity_residual = float(np.linalg.norm(C.conj().T @ C - eye))

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
