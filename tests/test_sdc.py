"""Tests for SDC sweeps, the collocation oracle, and serial runs."""

import numpy as np
import pytest

from pintlab.analysis import damping_factor
from pintlab.heat import Grid, HeatOperator, initial_condition, scalar_operator
from pintlab.multigrid import Direct, FixedCycles, MgConfig, ToTolerance
from pintlab.quadrature import uniform_table
from pintlab.sdc import (
    NodeStates,
    SubStepError,
    collocation_solve,
    residual,
    run_sdc,
    sdc_sweep,
)


class TestNodeStates:
    def test_spread_replicates_initial_value(self):
        op = scalar_operator(-2.0)
        states = NodeStates.spread(op, uniform_table(3), np.array([[1.5]]))
        assert states.y.shape == (4, 1, 1) and states.f.shape == (3, 1, 1)
        np.testing.assert_array_equal(states.y, 1.5)
        np.testing.assert_array_equal(states.f, -3.0)

    def test_refresh_recomputes_f(self):
        op = scalar_operator(-3.0)
        states = NodeStates.spread(op, uniform_table(2), np.array([[1.0]]))
        states.y[:] = 2.0
        states.refresh(op)
        np.testing.assert_array_equal(states.f, -6.0)

    def test_f_kept_at_quadrature_nodes_only(self):
        # column 0 of Q is zero, so f[m] is A y[m + 1] for the M nodes
        # that carry weight, whoever builds or updates the states
        op = HeatOperator(Grid(1, 16), 1.0, 2)
        u0 = initial_condition(op.grid, 1)
        table = uniform_table(3)
        spread = NodeStates.spread(op, table, u0[None])
        exact = collocation_solve(op, table, u0, 0.05)
        swept = NodeStates.spread(op, table, u0[None])
        sdc_sweep(swept, 0.05, op, MgConfig(), Direct())
        for states in (spread, exact, swept):  # exact is built by refresh
            assert states.f.shape == (3, 1, 15)
            np.testing.assert_array_equal(
                states.f, [op.apply(y) for y in states.y[1:]])


class TestCollocationOracle:
    def test_m1_is_backward_euler(self):
        # single uniform node at the right endpoint: y1 = y0 / (1 - dt*lam)
        op = scalar_operator(-1.0)
        states = collocation_solve(op, uniform_table(1), np.array([1.0]), 1.0)
        assert states.y[1, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_exponential_for_small_dt(self):
        op = scalar_operator(-2.0)
        table = uniform_table(4)
        states = collocation_solve(op, table, np.array([1.0]), 0.1)
        exact = np.exp(-2.0 * 0.1 * (np.arange(5) / 4))
        np.testing.assert_allclose(states.y[:, 0, 0], exact, atol=1e-9)

    def test_residual_of_collocation_solution_vanishes(self):
        g = Grid(1, 8)
        op = HeatOperator(g, 1.0, 2)
        u0 = initial_condition(g, 1)
        states = collocation_solve(op, uniform_table(3), u0, 0.05)
        assert residual(states, 0.05) < 1e-10

    def test_size_limit(self):
        op = HeatOperator(Grid(3, 32), 1.0, 2)
        with pytest.raises(ValueError):
            collocation_solve(op, uniform_table(4),
                              np.zeros(op.grid.shape), 0.1)


class TestSweep:
    def test_collocation_solution_is_fixed_point(self):
        op = scalar_operator(-3.0)
        table = uniform_table(3)
        y0 = np.array([1.0])
        states = collocation_solve(op, table, y0, 0.5)
        before = states.y.copy()
        sdc_sweep(states, 0.5, op, MgConfig(), Direct())
        np.testing.assert_allclose(states.y, before, atol=1e-12)

    def test_zero_dt_is_identity(self):
        op = scalar_operator(-5.0)
        y0 = np.array([[2.0]])  # one rank
        states = NodeStates.spread(op, uniform_table(2), y0)
        sdc_sweep(states, 0.0, op, MgConfig(), Direct())
        np.testing.assert_array_equal(states.y, 2.0)
        assert residual(states, 0.0) == 0.0

    def test_contraction_matches_damping_factor(self):
        # after a few warm-up sweeps the geometric-mean error reduction per
        # sweep approaches the spectral radius of the iteration matrix
        table = uniform_table(3)
        lam, dt = -4.0, 1.0
        op = scalar_operator(lam)
        y0 = np.array([1.0])
        exact = collocation_solve(op, table, y0, dt)
        states = NodeStates.spread(op, table, y0[None])
        errs = []
        for _ in range(12):
            sdc_sweep(states, dt, op, MgConfig(), Direct())
            errs.append(np.max(np.abs(states.y - exact.y)))
        rate = (errs[-1] / errs[2]) ** (1.0 / (len(errs) - 3))
        rho = damping_factor(table, lam * dt)
        # the per-sweep ratio oscillates (complex spectrum), so only the
        # geometric mean is expected to track the spectral radius
        assert rate == pytest.approx(rho, rel=0.10)

    def test_sweep_applies_operator_once_per_substep(self, monkeypatch):
        op = HeatOperator(Grid(1, 16), 1.0, 2)
        states = NodeStates.spread(op, uniform_table(3),
                                   initial_condition(op.grid, 1)[None])
        calls = []
        apply = HeatOperator.apply
        monkeypatch.setattr(HeatOperator, "apply",
                            lambda self, u: calls.append(1) or apply(self, u))
        sdc_sweep(states, 0.01, op, MgConfig(), Direct())
        assert len(calls) == 3

    def test_sweep_reports_vcycles(self):
        g = Grid(1, 16)
        op = HeatOperator(g, 1.0, 2)
        u0 = initial_condition(g, 1)
        states = NodeStates.spread(op, uniform_table(2), u0[None])
        used = sdc_sweep(states, 0.01, op, MgConfig(), FixedCycles(2))
        assert used.tolist() == [2 * 2]  # two sub-steps, two cycles each

    def test_substep_error_annotated(self):
        g = Grid(1, 16)
        op = HeatOperator(g, 1.0, 2)
        u0 = initial_condition(g, 1)
        states = NodeStates.spread(op, uniform_table(2), u0[None])
        # stall factor near one keeps the healthy V-cycle from being
        # classified as stalled, so the cycle cap is what trips
        policy = ToTolerance(1e-15, stall=1.0 - 1e-12, max_cycles=1)
        with pytest.raises(SubStepError) as exc:
            sdc_sweep(states, 0.01, op, MgConfig(), policy)
        assert exc.value.substep >= 1


class TestResidual:
    def test_zero_for_exact_scalar(self):
        op = scalar_operator(-1.0)
        table = uniform_table(2)
        y0 = np.array([1.0])
        states = collocation_solve(op, table, y0, 0.3)
        assert residual(states, 0.3) < 1e-14

    def test_monotone_under_sweeps(self):
        g = Grid(1, 32)
        op = HeatOperator(g, 1.0, 2)
        u0 = initial_condition(g, 1)
        states = NodeStates.spread(op, uniform_table(3), u0[None])
        prev = residual(states, 0.02)
        for _ in range(5):
            sdc_sweep(states, 0.02, op, MgConfig(), Direct())
            res = residual(states, 0.02)
            assert res <= prev
            prev = res


class TestRunSdc:
    def test_single_backward_euler_step(self):
        op = scalar_operator(-1.0)
        result = run_sdc(op, uniform_table(1), np.array([1.0]), 1.0, 1,
                         1e-14, 10, MgConfig(), Direct())
        assert result.u[0] == pytest.approx(0.5, abs=1e-12)
        assert result.iterations == [1]

    def test_int_initial_value_runs_in_float64(self):
        # an integer initial value once truncated every iterate to int64
        runs = [run_sdc(scalar_operator(-1.0), uniform_table(2), u0, 1.0, 4,
                        1e-10, 20, MgConfig(), Direct())
                for u0 in (np.array([1]), np.array([1.0]))]
        assert runs[0].u.dtype == np.float64
        np.testing.assert_array_equal(runs[0].u, runs[1].u)
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].exhausted_steps == runs[1].exhausted_steps == []

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            run_sdc(scalar_operator(-1.0), uniform_table(1),
                    np.array([1.0]), 1.0, 0, 1e-9, 5, MgConfig(), Direct())

    def test_exhaustion_recorded(self):
        op = scalar_operator(-50.0)
        result = run_sdc(op, uniform_table(2), np.array([1.0]), 1.0, 2,
                         1e-300, 3, MgConfig(), Direct())
        assert result.exhausted_steps == [0, 1]
        assert result.iterations == [3, 3]

    @pytest.mark.parametrize("m,min_slope", [(1, 0.85), (2, 1.8), (4, 3.8)])
    def test_temporal_order(self, m, min_slope):
        # converged SDC equals collocation, whose order matches the node
        # count; the scalar decay problem keeps the asymptotics clean
        op = scalar_operator(-1.0)
        u0 = np.array([1.0])
        errs = []
        for n_steps in (4, 8, 16, 32):
            result = run_sdc(op, uniform_table(m), u0, 1.0, n_steps,
                             1e-14, 80, MgConfig(), Direct())
            errs.append(abs(result.u[0] - np.exp(-1.0)))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert slopes[-1] > min_slope

    def test_repeat_runs_are_bitwise_equal(self, cold_caches):
        # the first run builds the cached operators and factors, the
        # second reuses them
        op = HeatOperator(Grid(2, 16), 1.0, 4)
        u0 = initial_condition(op.grid, 1)
        runs = [run_sdc(op, uniform_table(2), u0, 0.02, 2, 1e-10, 20,
                        MgConfig(smoother="gauss-seidel"), ToTolerance(1e-10))
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0].u, runs[1].u)
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].vcycles == runs[1].vcycles > 0

    def test_inexact_and_exact_agree_when_converged(self):
        g = Grid(1, 32)
        op = HeatOperator(g, 1.0, 2)
        u0 = initial_condition(g, 1)
        table = uniform_table(2)
        exact = run_sdc(op, table, u0, 0.5, 4, 1e-12, 50,
                        MgConfig(), Direct())
        inexact = run_sdc(op, table, u0, 0.5, 4, 1e-12, 50,
                          MgConfig(smoother="gauss-seidel"), FixedCycles(2))
        assert np.max(np.abs(exact.u - inexact.u)) < 1e-10
        assert inexact.vcycles > 0 and exact.vcycles == 0
