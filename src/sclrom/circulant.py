"""Circulant matrices and the commuting-diagram check.

An element of the group algebra C[Z/m] is a coefficient vector c on the
powers of the m x m cyclic permutation matrix C_m; it is stored as a plain
array (one column of a fitted model's coefficients) and never becomes the
circulant matrix sum_j c_j C_m^j: a fitted frame's replay operator takes
the coefficients as they are (:func:`sclrom.ohf.checked_factorization`).
The compression X -> Vhat* X Vhat carries the shift factor of an
orthonormal history factor onto C_m, which is what
:func:`check_commuting_diagram` verifies degree by degree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import shift_factors
from .errors import DimensionMismatch
from .ohf import OhfFactorization


def cyclic_shift_matrix(m: int) -> np.ndarray:
    """The m x m cyclic permutation matrix mapping e_j to e_{j+1 mod m}."""
    if m < 1:
        raise DimensionMismatch(f"order must be positive, got {m}")
    return np.roll(np.eye(m, dtype=np.complex128), 1, axis=0)


@dataclass
class DiagramReport:
    max_residual: float
    per_degree: list[tuple[int, float]]
    passed: bool


def check_commuting_diagram(
    ohf: OhfFactorization,
    degrees: list[int],
    tol: float = 1e-10,
    seed: int = 0,
) -> DiagramReport:
    """Verify that compression carries powers of the shift factor onto C_m.

    Per degree d: Vhat* U^d Vhat against C_m^d, and Vhat* p(U) Vhat against
    p(C_m) for a seeded random polynomial p of degree d. U = 1 + E F*
    (:func:`sclrom.cyclic.shift_factors`) acts on the n x m frame: O(n m) memory.
    """
    if min(degrees, default=0) < 0:
        raise DimensionMismatch(f"degrees must be nonnegative, got {degrees}")
    E, F = shift_factors(ohf.Vhat)
    X, Cm = ohf.Vhat, cyclic_shift_matrix(ohf.m)
    gaps = []  # gaps[k] = Vhat* U^k Vhat - C_m^k
    for k in range(max(degrees, default=-1) + 1):
        gaps.append(ohf.Vhat.conj().T @ X - np.linalg.matrix_power(Cm, k))
        X = X + E @ (F.conj().T @ X)
    rng = np.random.default_rng(seed)
    per_degree: list[tuple[int, float]] = []
    for d in degrees:
        a = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        # by linearity, Vhat* p(U) Vhat - p(C_m) = sum_k a_k gaps[k]
        r_poly = float(np.linalg.norm(np.tensordot(a, gaps[: d + 1], axes=1)))
        per_degree.append((d, max(float(np.linalg.norm(gaps[d])), r_poly)))
    max_residual = max((r for _, r in per_degree), default=0.0)
    return DiagramReport(max_residual=max_residual, per_degree=per_degree, passed=max_residual <= tol)
