"""Tests for the level hierarchy, FAS corrections, and MLSDC iterations."""

import numpy as np
import pytest

from pintlab.heat import Grid, HeatOperator, initial_condition
from pintlab.hierarchy import (
    Level,
    TimeStep,
    check_hierarchy,
    coarse_correction,
    compute_fas,
    mlsdc_iteration,
    restrict_state,
)
from pintlab.multigrid import Direct, FixedCycles, MgConfig
from pintlab.pfasst import pfasst_run
from pintlab.quadrature import uniform_table
from pintlab.sdc import collocation_solve, residual, run_sdc
from pintlab.transfers import full_weighting


def make_level(n, m, order=2, dim=1, policy=None, **kw):
    return Level(HeatOperator(Grid(dim, n), 1.0, order), uniform_table(m),
                 MgConfig(smoother="gauss-seidel"), policy or Direct(), **kw)


class TestLevelValidation:
    def test_bad_interp_order(self):
        with pytest.raises(ValueError):
            make_level(8, 2, space_interp_order=3)

    def test_bad_restrict(self):
        with pytest.raises(ValueError):
            make_level(8, 2, space_restrict="average")

    def test_accepts_hierarchy(self):
        check_hierarchy([make_level(16, 2), make_level(8, 1)])

    def test_rejects_wrong_coarsening_factor(self):
        with pytest.raises(ValueError):
            check_hierarchy([make_level(16, 2), make_level(4, 1)])

    def test_rejects_more_coarse_nodes(self):
        with pytest.raises(ValueError):
            check_hierarchy([make_level(16, 1), make_level(8, 2)])

    def test_rejects_higher_coarse_stencil(self):
        with pytest.raises(ValueError):
            check_hierarchy([make_level(16, 2, order=2),
                             make_level(8, 2, order=4)])

    def test_rejects_non_nested_nodes(self):
        with pytest.raises(ValueError):
            check_hierarchy([make_level(16, 4), make_level(8, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_hierarchy([])

    def test_same_grid_levels_allowed(self):
        check_hierarchy([make_level(16, 2), make_level(16, 1)])


class TestRestriction:
    def test_restrict_state_selects_nodes_and_coarsens(self):
        fine, coarse = make_level(16, 2), make_level(8, 1)
        u0 = initial_condition(fine.grid, 1)
        ts = TimeStep.spread([fine, coarse], u0[None])
        restricted = restrict_state(ts.states[0], fine, coarse)
        assert restricted.y.shape == (2, 1, 7)
        assert restricted.f.shape == (1, 1, 7)  # the one quadrature node
        np.testing.assert_allclose(restricted.y[0, 0], full_weighting(u0, 1))

    def test_injection_policy_respected(self):
        fine = make_level(16, 2, space_restrict="inject")
        coarse = make_level(8, 1)
        u0 = initial_condition(fine.grid, 1)
        ts = TimeStep.spread([fine, coarse], u0[None])
        restricted = restrict_state(ts.states[0], fine, coarse)
        np.testing.assert_allclose(restricted.y[0, 0], u0[1::2])


class TestFas:
    def test_tau_corrected_coarse_matches_restricted_fine(self):
        # solve the collocation problem exactly on the fine level; the
        # tau-corrected coarse collocation solution must then agree with
        # the restricted fine solution at coincident nodes
        fine, coarse = make_level(8, 2), make_level(4, 1)
        u0 = initial_condition(fine.grid, 1)
        dt = 0.05
        fine_states = collocation_solve(fine.operator, fine.table, u0, dt)
        restricted = restrict_state(fine_states, fine, coarse)
        tau = compute_fas(fine_states, restricted, fine, coarse, dt)

        # dense tau-corrected coarse collocation solve
        from pintlab.multigrid import operator_matrix

        a = operator_matrix(coarse.operator).toarray()
        m1 = coarse.table.m + 1
        dof = coarse.grid.dof
        system = np.eye(m1 * dof) - dt * np.kron(coarse.table.q, a)
        y0c = restricted.y[0, 0]
        rhs = np.tile(y0c, m1) + tau.ravel()
        sol = np.linalg.solve(system, rhs).reshape(m1, dof)
        assert np.max(np.abs(sol - restricted.y[:, 0])) < 1e-10

    def test_zero_tau_on_identical_levels(self):
        # same grid, same nodes, same operator: FAS correction vanishes
        fine, coarse = make_level(8, 2), make_level(8, 2)
        u0 = initial_condition(fine.grid, 1)
        states = collocation_solve(fine.operator, fine.table, u0, 0.1)
        restricted = restrict_state(states, fine, coarse)
        tau = compute_fas(states, restricted, fine, coarse, 0.1)
        assert np.max(np.abs(tau)) < 1e-12

    def test_coarse_correction_zero_delta_is_noop(self):
        fine, coarse = make_level(16, 2), make_level(8, 1)
        u0 = initial_condition(fine.grid, 1)
        ts = TimeStep.spread([fine, coarse], u0[None])
        restricted = restrict_state(ts.states[0], fine, coarse)
        before = ts.states[0].y.copy()
        coarse_correction(ts.states[0], restricted.y, restricted, fine,
                          coarse)
        np.testing.assert_allclose(ts.states[0].y, before, atol=1e-14)


class TestMlsdcIteration:
    def test_single_level_equals_plain_sweep(self):
        lvl = make_level(16, 2)
        u0 = initial_condition(lvl.grid, 1)
        ts = TimeStep.spread([lvl], u0[None])
        from pintlab.sdc import NodeStates, sdc_sweep

        ref = NodeStates.spread(lvl.operator, lvl.table, u0[None])
        sdc_sweep(ref, 0.02, lvl.operator, lvl.mg_cfg, lvl.policy)
        mlsdc_iteration(ts, 0.02)
        np.testing.assert_array_equal(ts.states[0].y, ref.y)

    def test_residual_decreases(self):
        levels = [make_level(32, 2), make_level(16, 1)]
        u0 = initial_condition(levels[0].grid, 1)
        ts = TimeStep.spread(levels, u0[None])
        dt = 0.02
        prev = residual(ts.states[0], dt)
        for _ in range(4):
            mlsdc_iteration(ts, dt)
            res = residual(ts.states[0], dt)
            assert res < prev
            prev = res

    def test_converges_to_fine_collocation(self):
        levels = [make_level(16, 2), make_level(8, 1)]
        u0 = initial_condition(levels[0].grid, 1)
        dt = 0.02
        exact = collocation_solve(levels[0].operator, levels[0].table, u0, dt)
        ts = TimeStep.spread(levels, u0[None])
        for _ in range(25):
            mlsdc_iteration(ts, dt)
        assert np.max(np.abs(ts.states[0].y - exact.y)) < 1e-11


class TestRunMlsdc:
    def test_matches_single_level_sdc_solution(self):
        # both drive the same fine collocation problem to tolerance
        fine = make_level(32, 2)
        coarse = make_level(16, 1)
        u0 = initial_condition(fine.grid, 1)
        ml = pfasst_run([fine, coarse], u0, 0.2, p=1, blocks=4, tol=1e-12,
                        max_iter=30)
        sl = run_sdc(fine.operator, fine.table, u0, 0.2, 4, 1e-12, 30,
                     fine.mg_cfg, fine.policy)
        assert np.max(np.abs(ml.u - sl.u)) < 1e-10

    def test_inexact_variant_counts_vcycles(self):
        levels = [make_level(32, 2, policy=FixedCycles(2)),
                  make_level(16, 1, policy=FixedCycles(2))]
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.1, p=1, blocks=2, tol=1e-10,
                            max_iter=30)
        assert result.vcycles > 0
        assert not result.exhausted_steps

    def test_exhaustion_recorded(self):
        levels = [make_level(16, 2), make_level(8, 1)]
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.1, p=1, blocks=1, tol=1e-300,
                            max_iter=2)
        assert result.exhausted_steps == [0]
