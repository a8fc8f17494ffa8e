"""Tests for circulant matrices, the monomial coefficients, and the compression /
lift maps."""
import numpy as np
import pytest
from dense_oracle import (
    circulant,
    circulant_matrix,
    compress,
    cyclic_convolution,
    dense_factors,
    lift,
    project_span,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrom import (
    DimensionMismatch,
    FitOptions,
    build_ohf,
    check_commuting_diagram,
    cyclic_shift_matrix,
    fit,
    periodic_history,
)


class TestCyclicShiftMatrix:
    def test_order_one(self):
        np.testing.assert_array_equal(cyclic_shift_matrix(1), [[1.0]])

    def test_order_zero_rejected(self):
        with pytest.raises(DimensionMismatch, match="order must be positive, got 0"):
            cyclic_shift_matrix(0)

    def test_order_two_is_swap(self):
        np.testing.assert_array_equal(cyclic_shift_matrix(2), [[0, 1], [1, 0]])

    def test_order_three_layout_and_cube(self):
        C = cyclic_shift_matrix(3)
        np.testing.assert_array_equal(C, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(C @ C @ C, np.eye(3))

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_mth_power_is_identity_exactly(self, m):
        C = cyclic_shift_matrix(m)
        np.testing.assert_array_equal(np.linalg.matrix_power(C, m), np.eye(m))


class TestCirculantElement:
    def test_identity_element(self):
        np.testing.assert_array_equal(circulant_matrix(np.eye(4)[0]), np.eye(4))

    def test_generator_element(self):
        np.testing.assert_array_equal(
            circulant_matrix(np.array([0.0, 1.0, 0.0])), cyclic_shift_matrix(3)
        )

    def test_first_column_is_coefficients(self):
        c = np.array([1.0, 2.0, 3.0, 4.0])
        M = circulant_matrix(c)
        np.testing.assert_array_equal(M[:, 0], [1, 2, 3, 4])
        np.testing.assert_array_equal(M, circulant(c))
        C4 = cyclic_shift_matrix(4)
        np.testing.assert_array_equal(M @ C4, C4 @ M)

    @pytest.mark.parametrize("m", [1, 2, 8, 16, 32, 66])
    def test_gather_equals_rolled_columns_bitwise(self, m):
        rng = np.random.default_rng(m)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rolled = np.column_stack([np.roll(c, k) for k in range(m)])
        assert circulant_matrix(c).tobytes() == rolled.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_convolution_matches_matrix_product(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        A, B = circulant_matrix(a), circulant_matrix(b)
        product = circulant_matrix(cyclic_convolution(a, b))
        np.testing.assert_allclose(product, A @ B, atol=1e-12)
        # commutativity of the algebra
        np.testing.assert_allclose(A @ B, B @ A, atol=1e-12)

    def test_order_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            cyclic_convolution(np.array([1.0]), np.array([1.0, 2.0]))


class TestMonomialElement:
    """The monomial fit stores (kappa/rho) z^t, which depends on t mod m only,
    as column t mod m of the m distinct columns of its coefficients, which
    are float64 since kappa/rho is real."""

    def test_degree_zero(self):
        model, _ = fit(periodic_history(16, 4, seed=2))
        scale = model.ohf.kappa / model.ohf.rho
        np.testing.assert_array_equal(model.coeffs[:, 0], [scale, 0, 0, 0])

    def test_exponent_reduces_mod_order(self):
        model, _ = fit(periodic_history(16, 4, seed=2, horizon=10), FitOptions(period=4))
        scale = model.ohf.kappa / model.ohf.rho
        assert model.period == 4
        np.testing.assert_array_equal(model.coeffs[:, 6 % model.period], [0, 0, scale, 0])

    def test_scalar_division_scale(self):
        model, _ = fit(periodic_history(24, 3, seed=5, horizon=7), FitOptions(period=3))
        kappa, rho = model.ohf.kappa, model.ohf.rho
        assert np.count_nonzero(model.coeffs) == 3  # one per phase, not per step
        assert set(model.coeffs[model.coeffs != 0].tolist()) == {kappa / rho}

    @pytest.mark.parametrize("m, T", [(8, 8), (16, 16), (32, 32), (66, 66), (5, 23)])
    def test_coefficients_equal_a_per_step_loop_bitwise(self, m, T):
        history = periodic_history(2 * m + 3, m, seed=m, horizon=T)
        model, _ = fit(history, FitOptions(period=m))
        expected = np.zeros((m, m))
        for t in range(T):
            column = np.zeros(m)
            column[t % m] = (model.ohf.kappa / model.ohf.rho).real
            expected[:, t % m] = column
        assert model.coeffs.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def seeded_ohf():
    return build_ohf(periodic_history(12, 4, seed=9))


class TestCompressionMaps:
    def test_compress_identity(self, seeded_ohf):
        np.testing.assert_allclose(
            compress(seeded_ohf, np.eye(12)), np.eye(4), atol=1e-12
        )

    def test_compress_shift_factor_gives_generator(self, seeded_ohf):
        U = dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2]
        np.testing.assert_allclose(compress(seeded_ohf, U), cyclic_shift_matrix(4), atol=1e-12)

    def test_compress_squared_shift(self, seeded_ohf):
        # oracle: brute-force power, then compress
        U = dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2]
        U2 = U @ U
        C2 = cyclic_shift_matrix(4) @ cyclic_shift_matrix(4)
        np.testing.assert_allclose(compress(seeded_ohf, U2), C2, atol=1e-12)

    def test_lift_identity_gives_span_projector(self, seeded_ohf):
        P = seeded_ohf.Vhat @ seeded_ohf.Vhat.conj().T
        np.testing.assert_allclose(lift(seeded_ohf, np.eye(4)), P, atol=1e-13)

    def test_lift_generator_matches_projected_shift(self, seeded_ohf):
        lhs = lift(seeded_ohf, cyclic_shift_matrix(4))
        rhs = project_span(seeded_ohf, dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_lift_preserves_products(self, seeded_ohf):
        rng = np.random.default_rng(17)
        for _ in range(3):
            Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            np.testing.assert_allclose(
                lift(seeded_ohf, Y @ Z),
                lift(seeded_ohf, Y) @ lift(seeded_ohf, Z),
                atol=1e-12,
            )

    def test_lift_range_commutes_with_projector(self, seeded_ohf):
        rng = np.random.default_rng(23)
        P = seeded_ohf.Vhat @ seeded_ohf.Vhat.conj().T
        Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lifted = lift(seeded_ohf, Y)
        np.testing.assert_allclose(lifted @ P, P @ lifted, atol=1e-12)

    def test_projection_factors_through_compress_and_lift(self, seeded_ohf):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        direct = project_span(seeded_ohf, X)
        composed = lift(seeded_ohf, compress(seeded_ohf, X))
        assert np.linalg.norm(direct - composed) <= 1e-12 * np.linalg.norm(X)

    def test_projected_shift_commutation(self, seeded_ohf):
        # P U P equals U P because the shift commutes with the projector
        P = seeded_ohf.Vhat @ seeded_ohf.Vhat.conj().T
        U = dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2]
        lhs = project_span(seeded_ohf, U)
        np.testing.assert_allclose(lhs, U @ P, atol=1e-12)

    def test_matrix_units_compress_to_matrix_units(self, seeded_ohf):
        Vhat = seeded_ohf.Vhat
        for i in range(4):
            for k in range(4):
                X = np.outer(Vhat[:, i], Vhat[:, k].conj())
                expected = np.zeros((4, 4))
                expected[i, k] = 1.0
                np.testing.assert_allclose(compress(seeded_ohf, X), expected, atol=1e-13)

    def test_dimension_mismatch(self, seeded_ohf):
        with pytest.raises(DimensionMismatch):
            compress(seeded_ohf, np.eye(5))
        with pytest.raises(DimensionMismatch):
            lift(seeded_ohf, np.eye(5))


class TestCommutingDiagram:
    def test_degree_zero(self, seeded_ohf):
        report = check_commuting_diagram(seeded_ohf, [0], tol=1e-10)
        assert report.passed

    def test_degree_m_wraps_to_identity(self, seeded_ohf):
        report = check_commuting_diagram(seeded_ohf, [4], tol=1e-10)
        assert report.passed
        Um = np.linalg.matrix_power(dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2], 4)
        np.testing.assert_allclose(compress(seeded_ohf, Um), np.eye(4), atol=1e-12)

    def test_negative_degree_rejected(self, seeded_ohf):
        with pytest.raises(DimensionMismatch):
            check_commuting_diagram(seeded_ohf, [0, -1])

    def test_degree_range(self):
        ohf = build_ohf(periodic_history(16, 5, seed=13))
        report = check_commuting_diagram(ohf, list(range(10)), tol=1e-10)
        assert report.passed
        assert len(report.per_degree) == 10

    def test_power_compression_multiplicativity(self, seeded_ohf):
        U = dense_factors(seeded_ohf.V, seeded_ohf.Vhat)[2]
        for j in range(4):
            for k in range(4):
                lhs = compress(seeded_ohf, np.linalg.matrix_power(U, j + k))
                rhs = compress(seeded_ohf, np.linalg.matrix_power(U, j)) @ compress(
                    seeded_ohf, np.linalg.matrix_power(U, k)
                )
                assert np.linalg.norm(lhs - rhs) <= 1e-12
