"""Tests for the sweep error-propagation analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab.analysis import (
    LAM_DT_GRID,
    DampingScan,
    damping_factor,
    damping_scan,
    iteration_matrix,
)
from pintlab.heat import scalar_operator
from pintlab.multigrid import Direct, MgConfig
from pintlab.quadrature import uniform_table
from pintlab.sdc import NodeStates, collocation_solve, sdc_sweep


class TestIterationMatrix:
    def test_zero_at_z_zero(self):
        g = iteration_matrix(uniform_table(3), 0.0)
        np.testing.assert_array_equal(g, 0.0)

    def test_node0_row_and_column_vanish(self):
        g = iteration_matrix(uniform_table(4), -2.5)
        np.testing.assert_array_equal(g[0], 0.0)
        np.testing.assert_array_equal(g[:, 0], 0.0)

    def test_m1_sweep_is_exact(self):
        # with a single node the sweep solves the collocation system outright
        g = iteration_matrix(uniform_table(1), -7.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_predicts_one_sweep_error_propagation(self):
        table = uniform_table(3)
        lam, dt = -3.0, 0.7
        op = scalar_operator(lam)
        y0 = np.array([1.0])
        exact = collocation_solve(op, table, y0, dt)
        states = NodeStates.spread(op, table, y0[None])
        e0 = (states.y - exact.y)[:, 0, 0]
        sdc_sweep(states, dt, op, MgConfig(), Direct())
        e1 = (states.y - exact.y)[:, 0, 0]
        predicted = iteration_matrix(table, lam * dt) @ e0
        np.testing.assert_allclose(e1, predicted, atol=10 * np.finfo(float).eps)

    def test_m2_stiff_limit_block(self):
        # active block of -Q_I^{-1}(Q - Q_I), frozen from the exact algebra
        g = iteration_matrix(uniform_table(2), -1e12)[1:, 1:]
        np.testing.assert_allclose(
            g, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-10)


class TestDampingFactor:
    def test_zero_at_origin(self):
        assert damping_factor(uniform_table(3), 0.0) == 0.0

    def test_m1_identically_zero(self):
        for z in (-0.1, -10.0, -1e5):
            assert damping_factor(uniform_table(1), z) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_contraction_everywhere_on_scan(self, m):
        scan = damping_scan(uniform_table(m))
        assert np.all(scan.rho < 1.0)

    def test_m2_stiff_limit_value(self):
        # the M=2 stiff-limit block is nilpotent, so rho decays with |z|
        assert damping_factor(uniform_table(2), -1e6) < 1e-3

    @given(st.floats(-50.0, -1e-3), st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_continuity_in_z(self, z, m):
        table = uniform_table(m)
        a = damping_factor(table, z)
        b = damping_factor(table, z * (1.0 + 1e-6))
        assert abs(a - b) < 0.1


class TestDampingScan:
    def test_default_grid_shape_and_sign(self):
        grid = damping_scan(uniform_table(2)).lam_dt
        assert grid is LAM_DT_GRID and not grid.flags.writeable
        assert grid.shape == (200,)
        assert np.all(grid < 0)
        assert grid.min() == -1e6 and grid.max() == -1e-3

    def test_scan_sorted_descending(self):
        scan = damping_scan(uniform_table(2))
        assert np.all(np.diff(scan.lam_dt) < 0)
        assert isinstance(scan, DampingScan)

    def test_scan_values_match_pointwise(self):
        table = uniform_table(3)
        scan = damping_scan(table)
        for z, r in zip(scan.lam_dt, scan.rho):
            assert r == damping_factor(table, z)

    def test_small_z_rho_scales_linearly(self):
        # rho ~ |z| * rho'(0) near the origin
        table = uniform_table(3)
        r1 = damping_factor(table, -1e-3)
        r2 = damping_factor(table, -2e-3)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-2)
