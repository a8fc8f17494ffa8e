"""Circulant matrices and the commuting-diagram check.

An element of the group algebra C[Z/m] is a coefficient vector c on the
powers of the m x m cyclic permutation matrix C_m; it is stored as a plain
array (one column of a fitted model's coefficients) and never becomes the
circulant matrix sum_j c_j C_m^j: a fitted frame's replay operator takes
the coefficients as they are (:func:`sclrom.ohf.checked_factorization`).
The shift factor U of an orthonormal history factor is a cyclic operator,
held as the frame Vhat and its m x m data (:mod:`sclrom.cyclic`): the
compression X -> Vhat* X Vhat takes U^k to G M^k, which
:func:`check_commuting_diagram` compares with C_m^k degree by degree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import CyclicPair, cyclic_shift_matrix
from .errors import DimensionMismatch
from .ohf import OhfFactorization


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
    p(C_m) for a seeded random polynomial p of degree d, all m x m past
    G = Vhat* Vhat: U Vhat = Vhat M with M = 1 + A G, so Vhat* U^k Vhat = G M^k.
    """
    if min(degrees, default=0) < 0:
        raise DimensionMismatch(f"degrees must be nonnegative, got {degrees}")
    G = ohf.Vhat.conj().T @ ohf.Vhat
    step = np.eye(ohf.m) + CyclicPair(ohf.Vhat, G).A @ G
    X, Cm = G, cyclic_shift_matrix(ohf.m)
    gaps = []  # gaps[k] = Vhat* U^k Vhat - C_m^k
    for k in range(max(degrees, default=-1) + 1):
        gaps.append(X - np.linalg.matrix_power(Cm, k))
        X = X @ step
    rng = np.random.default_rng(seed)
    per_degree: list[tuple[int, float]] = []
    for d in degrees:
        a = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        # by linearity, Vhat* p(U) Vhat - p(C_m) = sum_k a_k gaps[k]
        r_poly = float(np.linalg.norm(np.tensordot(a, gaps[: d + 1], axes=1)))
        per_degree.append((d, max(float(np.linalg.norm(gaps[d])), r_poly)))
    max_residual = max((r for _, r in per_degree), default=0.0)
    return DiagramReport(max_residual=max_residual, per_degree=per_degree, passed=max_residual <= tol)
