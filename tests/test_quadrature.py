"""Quadrature tables: node sets, integration matrices, time transfers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pintlab.quadrature import (build_q, correction_interpolation,
                                time_restriction, uniform_nodes,
                                uniform_table)

EPS = np.finfo(float).eps


class TestUniformNodes:
    def test_m1_endpoints(self):
        assert uniform_nodes(1).as_array().tolist() == [0.0, 1.0]

    def test_m2(self):
        assert uniform_nodes(2).as_array().tolist() == [0.0, 0.5, 1.0]

    def test_m4(self):
        assert uniform_nodes(4).as_array().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            uniform_nodes(0)

    @given(st.integers(min_value=1, max_value=12))
    def test_strictly_increasing_unit_interval(self, m):
        t = uniform_nodes(m).as_array()
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)


class TestBuildQ:
    def test_m1_backward_euler(self):
        table = uniform_table(1)
        assert np.array_equal(table.q, [[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(table.q_sub, [[0.0, 0.0], [0.0, 1.0]])

    def test_m2_derived_values(self):
        table = uniform_table(2)
        expected_q = np.array([[0.0, 0.0, 0.0],
                               [0.0, 0.75, -0.25],
                               [0.0, 1.0, 0.0]])
        expected_qi = np.array([[0.0, 0.0, 0.0],
                                [0.0, 0.5, 0.0],
                                [0.0, 0.5, 0.5]])
        np.testing.assert_allclose(table.q, expected_q, atol=10 * EPS)
        np.testing.assert_allclose(table.q_sub, expected_qi, atol=10 * EPS)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_first_row_and_column_zero(self, m):
        table = uniform_table(m)
        assert np.all(table.q[0] == 0.0)
        assert np.all(table.q[:, 0] == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_constant_integrates_to_nodes(self, m):
        table = uniform_table(m)
        np.testing.assert_allclose(table.q @ np.ones(m + 1),
                                   table.nodes.as_array(), atol=100 * EPS * m**2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_polynomial_exactness(self, m):
        """Row m integrates monomials t^j, j <= M-1, exactly."""
        table = uniform_table(m)
        t = table.nodes.as_array()
        for j in range(m):
            approx = table.q @ t**j
            exact = t**(j + 1) / (j + 1)
            np.testing.assert_allclose(approx, exact, atol=100 * EPS * m**2)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_qi_gamma_pattern(self, m):
        table = uniform_table(m)
        gamma = np.diff(table.nodes.as_array())
        for row in range(m + 1):
            for col in range(m + 1):
                want = gamma[col - 1] if 1 <= col <= row else 0.0
                assert table.q_sub[row, col] == pytest.approx(want, abs=10 * EPS)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_qi_row_sums_are_nodes(self, m):
        table = uniform_table(m)
        np.testing.assert_allclose(table.q_sub.sum(axis=1), table.nodes.as_array(),
                                   atol=100 * EPS)


class TestTimeRestriction:
    def test_three_to_two(self):
        r = time_restriction(uniform_nodes(2), uniform_nodes(1))
        assert np.array_equal(r, [[1, 0, 0], [0, 0, 1]])

    def test_five_to_three(self):
        r = time_restriction(uniform_nodes(4), uniform_nodes(2))
        expected = np.zeros((3, 5))
        expected[0, 0] = expected[1, 2] = expected[2, 4] = 1.0
        assert np.array_equal(r, expected)

    def test_identity_when_equal(self):
        r = time_restriction(uniform_nodes(3), uniform_nodes(3))
        assert np.array_equal(r, np.eye(4))

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError):
            time_restriction(uniform_nodes(3), uniform_nodes(2))

    def test_cached_and_read_only(self):
        r = time_restriction(uniform_nodes(4), uniform_nodes(2))
        assert time_restriction(uniform_nodes(4), uniform_nodes(2)) is r
        with pytest.raises(ValueError):
            r[0, 0] = 2.0


class TestCorrectionInterpolation:
    def test_cached_and_read_only(self):
        p = correction_interpolation(uniform_nodes(2), uniform_nodes(4))
        assert correction_interpolation(uniform_nodes(2), uniform_nodes(4)) is p
        with pytest.raises(ValueError):
            p[1, 1] = 2.0

    def test_shape_and_t0_selection(self):
        p = correction_interpolation(uniform_nodes(1), uniform_nodes(2))
        assert p.shape == (3, 2)
        np.testing.assert_allclose(p[0], [1.0, 0.0])

    def test_quadrature_node_rows_select(self):
        """Rows at shared quadrature nodes are selection rows."""
        p = correction_interpolation(uniform_nodes(2), uniform_nodes(4))
        np.testing.assert_allclose(p[2], [0.0, 1.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(p[4], [0.0, 0.0, 1.0], atol=1e-13)

    def test_quadrature_polynomial_reproduction(self):
        """Exact on polynomials of degree < M_c across quadrature nodes."""
        coarse, fine = uniform_nodes(2), uniform_nodes(4)
        p = correction_interpolation(coarse, fine)
        for deg in range(2):
            vals_c = coarse.as_array()[1:] ** deg
            vals_f = fine.as_array()[1:] ** deg
            np.testing.assert_allclose((p @ np.concatenate([[0], vals_c]))[1:],
                                       vals_f, atol=1e-13)
