"""Tests for the cyclic operator / span projector construction."""
import numpy as np
import pytest
from dense_oracle import dense_identity_report, dense_pair

from sclrom import (
    DimensionMismatch,
    EmptySystem,
    NotOrthogonal,
    VectorSystem,
    ZeroVector,
    check_orthogonal_system,
    cyclic_operator,
    cyclic_shift_matrix,
    random_orthonormal_columns,
    verify_cyclic_identities,
)


def system(*vectors):
    return VectorSystem(np.column_stack(vectors))


def basis_system(indices, n):
    cols = np.zeros((n, len(indices)), dtype=complex)
    for j, i in enumerate(indices):
        cols[i, j] = 1.0
    return VectorSystem(cols)


class TestCheckOrthogonalSystem:
    def test_standard_basis_is_orthonormal(self):
        report = check_orthogonal_system(basis_system([0, 1, 2], 4), tol=1e-12)
        assert report.is_orthonormal
        assert report.max_cross == 0.0

    def test_scaled_basis_is_orthogonal_not_orthonormal(self):
        vs = system([1, 0, 0, 0], [0, 2, 0, 0])
        report = check_orthogonal_system(vs)
        assert report.is_orthogonal
        assert not report.is_orthonormal
        assert report.min_norm == 1.0

    def test_oblique_pair_cross_product(self):
        # oracle: |v1* v2| / (||v1|| ||v2||) evaluated directly
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected = abs(np.vdot(v1, v2)) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert expected == pytest.approx(0.7071067811865475)
        report = check_orthogonal_system(system(v1, v2))
        assert not report.is_orthogonal
        assert report.max_cross == pytest.approx(expected, rel=1e-14)

    def test_zero_vector_rejected_with_index(self):
        with pytest.raises(ZeroVector) as exc:
            system([1, 0, 0], [0, 0, 0])
        assert exc.value.index == 1

    def test_empty_system_rejected(self):
        with pytest.raises(EmptySystem):
            VectorSystem(np.zeros((3, 0)))

    def test_more_vectors_than_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            VectorSystem(np.ones((2, 3), dtype=complex))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatch, match="ndim=1"):
            VectorSystem(np.ones(3, dtype=complex))

    def test_single_vector_has_zero_cross(self):
        report = check_orthogonal_system(system([3.0, 4.0]))
        assert report.is_orthogonal
        assert report.max_cross == 0.0
        assert report.min_norm == pytest.approx(5.0)


class TestProjector:
    def test_coordinate_projection(self):
        _, P = dense_pair(cyclic_operator(basis_system([0, 1], 4)))
        np.testing.assert_allclose(P, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)

    def test_scaling_cancels(self):
        vs = system([1, 0, 0, 0], [0, 2, 0, 0])
        np.testing.assert_allclose(
            dense_pair(cyclic_operator(vs))[1], np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15
        )

    def test_rank_one_formula(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        _, P = dense_pair(cyclic_operator(system(v)))
        np.testing.assert_allclose(P, np.full((2, 2), 0.5), atol=1e-15)

    def test_non_orthogonal_rejected(self):
        vs = system([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(NotOrthogonal):
            cyclic_operator(vs)

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_identities(self, seed):
        cols = random_orthonormal_columns(10, 4, seed)
        _, P = dense_pair(cyclic_operator(VectorSystem(cols)))
        eye = np.eye(10)
        assert np.linalg.norm(P @ P - P) <= 1e-12
        assert np.linalg.norm(P - P.conj().T) <= 1e-12
        assert np.linalg.norm((eye - P) @ P) <= 1e-12
        assert np.linalg.norm(P @ (eye - P)) <= 1e-12


class TestCyclicOperator:
    def test_single_vector_gives_identity(self):
        C, _ = dense_pair(cyclic_operator(system([3.0, 0.0])))
        np.testing.assert_allclose(C, np.eye(2), atol=1e-15)

    def test_two_vector_closed_form(self):
        vs = system([1, 0, 0, 0], [0, 2, 0, 0])
        C, _ = dense_pair(cyclic_operator(vs))
        expected = np.array(
            [
                [0.0, 0.5, 0.0, 0.0],
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(C, expected, atol=1e-15)
        v1, v2 = vs.columns.T
        np.testing.assert_allclose(C @ v1, v2, atol=1e-15)
        np.testing.assert_allclose(C @ v2, v1, atol=1e-15)
        np.testing.assert_allclose(C @ C, np.eye(4), atol=1e-15)

    def test_standard_basis_reduces_to_permutation(self):
        C, _ = dense_pair(cyclic_operator(basis_system([0, 1, 2], 3)))
        np.testing.assert_allclose(C, cyclic_shift_matrix(3), atol=1e-15)


class TestVerifyCyclicIdentities:
    def test_standard_basis_exact(self):
        vs = basis_system([0, 1, 2], 3)
        report = verify_cyclic_identities(cyclic_operator(vs), vs, tol=1e-12)
        assert report.passed
        assert report.cycle_residual == 0.0
        assert report.minpoly_residual == 0.0
        assert report.unitarity_residual == 0.0
        assert report.min_power_gap > 1.0

    def test_scaled_system_skips_unitarity(self):
        vs = system([1, 0, 0, 0], [0, 2, 0, 0])
        report = verify_cyclic_identities(cyclic_operator(vs), vs, tol=1e-12)
        assert report.unitarity_residual is None
        assert report.minpoly_residual <= 1e-15
        assert report.passed

    def test_seeded_orthonormal_system(self):
        # oracle: brute-force powers through numpy's matrix_power
        cols = random_orthonormal_columns(12, 5, seed=0)
        vs = VectorSystem(cols)
        pair = cyclic_operator(vs)
        report = verify_cyclic_identities(pair, vs, tol=1e-10)
        assert report.passed
        C, _ = dense_pair(pair)
        eye = np.eye(12)
        assert np.linalg.norm(np.linalg.matrix_power(C, 5) - eye) <= 1e-12
        for k in range(1, 5):
            assert np.linalg.norm(np.linalg.matrix_power(C, k) - eye) > 0.1

    def test_dimension_mismatch_rejected(self):
        vs = basis_system([0, 1], 4)
        pair = cyclic_operator(vs)
        other = basis_system([0, 1, 2], 4)
        with pytest.raises(DimensionMismatch):
            verify_cyclic_identities(pair, other)

    def test_another_system_of_the_same_shape_fails(self):
        """C and P meet the vectors of the system they are verified against,
        not the pair's own columns."""
        pair = cyclic_operator(VectorSystem(random_orthonormal_columns(12, 4, seed=1)))
        other = VectorSystem(random_orthonormal_columns(12, 4, seed=2))
        report = verify_cyclic_identities(pair, other)
        dense = dense_identity_report(pair, other)
        assert not report.passed
        assert report.cycle_residual == pytest.approx(dense.cycle_residual, rel=1e-12)
        assert report.projection_residual == pytest.approx(dense.projection_residual, rel=1e-12)
        assert report.cycle_residual > 1.0 and report.projection_residual > 0.5

    def test_single_vector_gap_is_infinite(self):
        vs = system([1.0, 0.0])
        report = verify_cyclic_identities(cyclic_operator(vs), vs)
        assert report.min_power_gap == float("inf")
        assert report.passed

    @pytest.mark.parametrize("seed", range(8))
    def test_eigenvalues_are_roots_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 16))
        vs = VectorSystem(random_orthonormal_columns(n, m, rng))
        C, _ = dense_pair(cyclic_operator(vs))
        eigs = np.linalg.eigvals(C)
        assert np.max(np.abs(eigs**m - 1.0)) <= 1e-9

    def test_default_tolerance_scales_with_operator(self):
        vs = system([1e6, 0, 0, 0], [0, 1e6, 0, 0])
        report = verify_cyclic_identities(cyclic_operator(vs), vs)
        assert report.passed
