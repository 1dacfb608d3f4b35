"""Tests for the pipelined time-parallel engine."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from pintlab.cli import PRESETS, build_levels
from pintlab.config import parse_config
from pintlab.heat import Grid, HeatOperator, initial_condition
from pintlab.hierarchy import Level, run_mlsdc
from pintlab.multigrid import Direct, FixedCycles, MgConfig, ToTolerance
from pintlab.pfasst import (
    PfasstResult,
    pfasst_run,
    write_trace_csv,
)
from pintlab.quadrature import uniform_table
from pintlab.sdc import SubStepError


def make_levels(n=32, policy=None, dim=1):
    policy = policy or FixedCycles(2)
    cfg = MgConfig(smoother="gauss-seidel")
    return [
        Level(HeatOperator(Grid(dim, n), 1.0, 2), uniform_table(2), cfg,
              policy, space_interp_order=4),
        Level(HeatOperator(Grid(dim, n // 2), 1.0, 2), uniform_table(1), cfg,
              policy, space_interp_order=4),
    ]


class TestEquivalences:
    def test_single_rank_equals_serial_mlsdc(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        serial = run_mlsdc(levels, u0, 0.25, 1, 1e-10, 12)
        parallel = pfasst_run(levels, u0, 0.25, p=1, tol=1e-10, max_iter=12)
        np.testing.assert_array_equal(parallel.u, serial.u)

    def test_serial_and_threaded_executors_bitwise_identical(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        a = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10, max_iter=12,
                       executor="serial")
        b = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10, max_iter=12,
                       executor="threaded")
        np.testing.assert_array_equal(a.u, b.u)
        assert a.rank_iterations == b.rank_iterations
        assert a.rank_vcycles == b.rank_vcycles
        assert [(r.rank, r.iteration, r.residual) for r in a.trace] == \
               [(r.rank, r.iteration, r.residual) for r in b.trace]

    def test_exactness_in_p_iterations(self):
        # after p iterations the parallel solution agrees with the serial
        # multi-level time stepper on the same window
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        p = 4
        serial = run_mlsdc(levels, u0, 0.25, p, 1e-13, 40)
        parallel = pfasst_run(levels, u0, 0.25, p=p, tol=1e-13, max_iter=40)
        assert np.max(np.abs(parallel.u - serial.u)) < 1e-10

    def test_multi_block_continues_in_time(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        two_blocks = pfasst_run(levels, u0, 0.5, p=2, blocks=2,
                                tol=1e-11, max_iter=20)
        serial = run_mlsdc(levels, u0, 0.5, 4, 1e-11, 20)
        assert np.max(np.abs(two_blocks.u - serial.u)) < 1e-9
        assert len(two_blocks.rank_iterations) == 2


class TestConvergenceBookkeeping:
    def test_converged_flags_are_monotone_prefix(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=4, tol=1e-9, max_iter=20)
        flags = result.converged[0]
        assert flags == sorted(flags, reverse=True) and flags[-1]

    def test_rank_iterations_nondecreasing(self):
        # a rank can only converge after its predecessor has
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10, max_iter=25)
        iters = result.rank_iterations[0]
        assert all(a <= b for a, b in zip(iters, iters[1:]))

    def test_unreachable_tolerance_reports_not_converged(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=2, tol=1e-300, max_iter=3)
        assert not result.converged[0][-1]
        assert result.rank_iterations[0] == [3, 3]

    def test_total_vcycles_accumulates(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=2, tol=1e-9, max_iter=15)
        assert result.total_vcycles == sum(result.rank_vcycles[0])
        assert result.total_vcycles > 0

    def test_record_final_values(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=2, tol=1e-10, max_iter=15,
                            record_final_values=True)
        vals = result.final_values[0]
        assert len(vals) == result.rank_iterations[0][-1]
        np.testing.assert_array_equal(vals[-1], result.u)


class TestTrace:
    def test_trace_ordering_and_fields(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=3, tol=1e-10, max_iter=15)
        keys = [(r.iteration, r.rank) for r in result.trace]
        assert keys == sorted(keys)
        assert all(r.block == 0 and r.level == 0 for r in result.trace)

    def test_write_trace_csv(self, tmp_path):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=2, tol=1e-10, max_iter=15)
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,rank,iter,level,residual,vcycles"
        assert len(lines) == len(result.trace) + 1


class TestValidation:
    def test_rejects_unknown_executor(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError):
            pfasst_run(levels, u0, 0.25, p=2, executor="mpi")

    def test_rejects_nonpositive_counts(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError):
            pfasst_run(levels, u0, 0.25, p=0)
        with pytest.raises(ValueError):
            pfasst_run(levels, u0, 0.25, p=2, blocks=0)


class TestCachedSetup:
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_repeat_runs_are_bitwise_equal(self, executor, cold_caches):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        a, b = (pfasst_run(levels, u0, 0.25, p=4, tol=1e-10, max_iter=12,
                           executor=executor) for _ in range(2))
        np.testing.assert_array_equal(a.u, b.u)
        assert a.rank_iterations == b.rank_iterations
        assert a.rank_vcycles == b.rank_vcycles

    def test_threaded_cold_start_matches_serial(self, cold_caches):
        # four rank threads race to build the shared operators and
        # factors; a short switch interval makes them interleave often
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10,
                                  max_iter=12, executor="threaded")
        finally:
            sys.setswitchinterval(interval)
        serial = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10, max_iter=12)
        np.testing.assert_array_equal(threaded.u, serial.u)
        assert threaded.rank_iterations == serial.rank_iterations
        assert threaded.rank_vcycles == serial.rank_vcycles


class TestFailures:
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_substep_failure_raises_promptly(self, executor):
        # weak-scaling levels where one V-cycle cannot reach 1e-15: rank 0
        # fails in its predictor while rank 1 waits for its message
        cfg = parse_config(None, {"n_x": "32", "n_t": "2", "p": "2"},
                           experiment="weak-scaling", **PRESETS["weak-scaling"])
        levels = [replace(lvl, policy=ToTolerance(tol=1e-15, max_cycles=1))
                  for lvl in build_levels(cfg)]
        u0 = initial_condition(levels[0].grid, 1)
        outcome = []

        def run():
            try:
                pfasst_run(levels, u0, cfg.t_end, p=2, executor=executor)
            except SubStepError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "pfasst_run did not return"
        assert len(outcome) == 1
