"""Circulant algebra and the compression maps onto it.

Elements of the commutative algebra of m x m circulant matrices are stored
as coefficient vectors on the powers of the cyclic permutation matrix;
multiplication is cyclic convolution of coefficients. The compression
X -> Vhat* X Vhat carries the shift factor of an orthonormal history
factor onto the cyclic permutation matrix, the lift Y -> Vhat Y Vhat*
goes back up, and P X P (P = Vhat Vhat*) factors exactly through the two,
which is what :func:`check_commuting_diagram` verifies degree by degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cyclic import VectorSystem, cyclic_operator
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


def project_span(ohf: OhfFactorization, X: np.ndarray) -> np.ndarray:
    """P X P with P = Vhat Vhat*; equals lift(compress(X)) exactly."""
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (ohf.n, ohf.n):
        raise DimensionMismatch(f"expected {(ohf.n, ohf.n)}, got {X.shape}")
    P = ohf.Vhat @ ohf.Vhat.conj().T
    return P @ X @ P


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
    """Verify that compression and lift close the triangle on shift powers.

    For each degree d with X = U^d the check compares P X P against the
    lift of the compression of X, and the compression of X against C_m^d.
    A seeded random polynomial of the same degree is pushed through both
    routes as well, exercising linear combinations rather than bare powers.
    The shift factor is formed densely (:func:`sclrom.cyclic.cyclic_operator`),
    so the check costs O(n^2) memory and O(n^3) time per degree.
    """
    U = cyclic_operator(VectorSystem(ohf.Vhat)).C
    m, n = ohf.m, ohf.n
    Cm = cyclic_shift_matrix(m)
    rng = np.random.default_rng(seed)
    per_degree: list[tuple[int, float]] = []
    for d in degrees:
        Upow = np.linalg.matrix_power(U, d)
        Cpow = np.linalg.matrix_power(Cm, d)
        down = compress(ohf, Upow)
        r_triangle = float(np.linalg.norm(project_span(ohf, Upow) - lift(ohf, down)))
        r_generator = float(np.linalg.norm(down - Cpow))
        # random polynomial of degree d through both routes
        a = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        pU = np.zeros((n, n), dtype=np.complex128)
        pC = np.zeros((m, m), dtype=np.complex128)
        term_U = np.eye(n, dtype=np.complex128)
        term_C = np.eye(m, dtype=np.complex128)
        for k in range(d + 1):
            pU += a[k] * term_U
            pC += a[k] * term_C
            term_U = term_U @ U
            term_C = term_C @ Cm
        r_poly = float(np.linalg.norm(compress(ohf, pU) - pC))
        r_poly_triangle = float(
            np.linalg.norm(project_span(ohf, pU) - lift(ohf, compress(ohf, pU)))
        )
        per_degree.append((d, max(r_triangle, r_generator, r_poly, r_poly_triangle)))
    max_residual = max((r for _, r in per_degree), default=0.0)
    return DiagramReport(max_residual=max_residual, per_degree=per_degree, passed=max_residual <= tol)
