"""Quadrature tables: integration matrices and time transfers on the
uniform nodes t_i = i/M."""

import numpy as np
import pytest

from pintlab.quadrature import (correction_interpolation, node_dot,
                                time_restriction, uniform_table)

EPS = np.finfo(float).eps


def nodes(m):
    """The uniform nodes i/M as floats, each rounded once."""
    return np.arange(m + 1) / m


class TestUniformNodes:
    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            uniform_table(0)

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
                                   nodes(m),
                                   atol=100 * EPS * m**2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_polynomial_exactness(self, m):
        """Row m integrates monomials t^j, j <= M-1, exactly."""
        table = uniform_table(m)
        t = nodes(m)
        for j in range(m):
            approx = table.q @ t**j
            exact = t**(j + 1) / (j + 1)
            np.testing.assert_allclose(approx, exact, atol=100 * EPS * m**2)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_qi_gamma_pattern(self, m):
        table = uniform_table(m)
        gamma = np.diff(nodes(m))
        for row in range(m + 1):
            for col in range(m + 1):
                want = gamma[col - 1] if 1 <= col <= row else 0.0
                assert table.q_sub[row, col] == pytest.approx(want, abs=10 * EPS)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_qi_row_sums_are_nodes(self, m):
        table = uniform_table(m)
        np.testing.assert_allclose(table.q_sub.sum(axis=1),
                                   nodes(m),
                                   atol=100 * EPS)


class TestTimeRestriction:
    def test_three_to_two(self):
        assert time_restriction(2, 1) == slice(None, None, 2)
        assert list(range(3))[time_restriction(2, 1)] == [0, 2]

    def test_five_to_three(self):
        assert list(range(5))[time_restriction(4, 2)] == [0, 2, 4]

    def test_identity_when_equal(self):
        assert list(range(4))[time_restriction(3, 3)] == [0, 1, 2, 3]

    def test_non_nested_rejected(self):
        for fine, coarse in [(3, 2), (2, 4), (4, 3), (2, 0)]:
            with pytest.raises(ValueError):
                time_restriction(fine, coarse)

    @pytest.mark.parametrize("fine,coarse", [(2, 1), (4, 2), (6, 3), (8, 1)])
    def test_selects_the_coincident_nodes(self, fine, coarse):
        picked = nodes(fine)[time_restriction(fine, coarse)]
        assert picked.tolist() == nodes(coarse).tolist()

    def test_selection_is_a_view(self):
        # so a caller that keeps the restricted values must copy them
        y = np.zeros((5, 2, 3))
        assert np.shares_memory(y[time_restriction(4, 2)], y)


class TestCorrectionInterpolation:
    def test_cached_and_read_only(self):
        p = correction_interpolation(2, 4)
        assert correction_interpolation(2, 4) is p
        with pytest.raises(ValueError):
            p[1, 1] = 2.0

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError):
            correction_interpolation(2, 3)

    def test_shape_and_t0_selection(self):
        p = correction_interpolation(1, 2)
        assert p.shape == (3, 2)
        np.testing.assert_allclose(p[0], [1.0, 0.0])

    def test_quadrature_node_rows_select(self):
        """Rows at shared quadrature nodes are selection rows."""
        p = correction_interpolation(2, 4)
        np.testing.assert_allclose(p[2], [0.0, 1.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(p[4], [0.0, 0.0, 1.0], atol=1e-13)

    def test_quadrature_polynomial_reproduction(self):
        """Exact on polynomials of degree < M_c across quadrature nodes."""
        p = correction_interpolation(2, 4)
        for deg in range(2):
            vals_c = nodes(2)[1:] ** deg
            vals_f = nodes(4)[1:] ** deg
            np.testing.assert_allclose((p @ np.concatenate([[0], vals_c]))[1:],
                                       vals_f, atol=1e-13)


class TestTableCaches:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_cached_weights_and_gammas(self, m):
        table = uniform_table(m)
        q = table.q[:, 1:]
        np.testing.assert_array_equal(table.weights, q)
        np.testing.assert_array_equal(table.step_weights, q[1:] - q[:-1])
        assert table.m == m and table.gamma == 1 / m

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_every_array_is_read_only(self, m):
        # shared by every sweep; before Q was read-only, writing it changed
        # the weights view but not the cached step weights
        table = uniform_table(m)
        for array in (table.q, table.q_sub, table.weights,
                      table.step_weights):
            with pytest.raises(ValueError):
                array[m, m] = 5.0
        assert table.q[m, m] == table.weights[m, m - 1]


STATE_SHAPES = [(1,), (31,), (15, 15), (7, 7, 7)]


def assert_same_bits(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes()


class TestNodeDot:
    """node_dot against np.tensordot(mat, values, axes=(1, 0)), the product
    it replaced in the sweep, the residual and the level transfers:
    equal bit for bit."""

    @pytest.mark.parametrize("shape", STATE_SHAPES)
    @pytest.mark.parametrize("m", range(1, 9))
    def test_integration_weights(self, m, shape):
        table = uniform_table(m)
        rng = np.random.default_rng(m)
        f = rng.standard_normal((m,) + shape)
        for mat in (table.weights, table.step_weights):
            out = node_dot(mat, f)
            assert out.shape == (mat.shape[0],) + shape
            assert_same_bits(out, np.tensordot(mat, f, axes=(1, 0)))

    @pytest.mark.parametrize("shape", STATE_SHAPES)
    @pytest.mark.parametrize("m", range(1, 9))
    def test_correction_interpolation(self, m, shape):
        p_t = correction_interpolation(m, 2 * m)
        delta = np.random.default_rng(m).standard_normal((m + 1,) + shape)
        assert_same_bits(node_dot(p_t, delta),
                         np.tensordot(p_t, delta, axes=(1, 0)))
