"""Circulant algebra and the compression maps onto it.

Elements of the commutative algebra of m x m circulant matrices are stored
as coefficient vectors on the powers of the cyclic permutation matrix;
multiplication is cyclic convolution of coefficients. The compression
X -> Vhat* X Vhat carries the shift factor of an orthonormal history
factor onto the cyclic permutation matrix, which is what
:func:`check_commuting_diagram` verifies degree by degree, and the lift
Y -> Vhat Y Vhat* goes back up.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cyclic import shift_factors
from .errors import DimensionMismatch

if TYPE_CHECKING:  # ohf builds its replay operator from CirculantElement
    from .ohf import OhfFactorization


def cyclic_shift_matrix(m: int) -> np.ndarray:
    """The m x m cyclic permutation matrix mapping e_j to e_{j+1 mod m}."""
    if m < 1:
        raise DimensionMismatch(f"order must be positive, got {m}")
    return np.roll(np.eye(m, dtype=np.complex128), 1, axis=0)


@dataclass(eq=False)
class CirculantElement:
    """Coefficient vector c of the circulant matrix sum_j c_j C_m^j."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.shape[0] < 1:
            raise DimensionMismatch("coefficients must be a nonempty 1-D vector")
        self.coeffs = c

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    def to_matrix(self) -> np.ndarray:
        # column k of sum_j c_j C^j is the coefficient vector shifted down k
        return np.column_stack([np.roll(self.coeffs, k) for k in range(self.m)])

    def __mul__(self, other: "CirculantElement") -> "CirculantElement":
        if not isinstance(other, CirculantElement):
            return NotImplemented
        if self.m != other.m:
            raise DimensionMismatch(f"orders differ: {self.m} vs {other.m}")
        m = self.m
        diff = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
        return CirculantElement(self.coeffs @ other.coeffs[diff])


def monomial_element(m: int, t: int, scale: complex) -> CirculantElement:
    """scale * C_m^t as a circulant element; the exponent reduces mod m."""
    if m < 1:
        raise DimensionMismatch(f"order must be positive, got {m}")
    if t < 0:
        raise DimensionMismatch(f"exponent must be nonnegative, got {t}")
    c = np.zeros(m, dtype=np.complex128)
    c[t % m] = scale
    return CirculantElement(c)


def compress(ohf: OhfFactorization, X: np.ndarray) -> np.ndarray:
    """Vhat* X Vhat: compress an n x n matrix onto the m x m frame block.

    Restricted to the algebra generated by the shift factor this is an
    algebra homomorphism onto the circulants; in particular the shift
    factor itself compresses to the cyclic permutation matrix.
    """
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (ohf.n, ohf.n):
        raise DimensionMismatch(f"expected {(ohf.n, ohf.n)}, got {X.shape}")
    return ohf.Vhat.conj().T @ X @ ohf.Vhat


def lift(ohf: OhfFactorization, Y: np.ndarray) -> np.ndarray:
    """Vhat Y Vhat*: lift an m x m matrix into the frame's range.

    The lift preserves products and its output commutes with the span
    projector Vhat Vhat*.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.shape != (ohf.m, ohf.m):
        raise DimensionMismatch(f"expected {(ohf.m, ohf.m)}, got {Y.shape}")
    return ohf.Vhat @ Y @ ohf.Vhat.conj().T


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
