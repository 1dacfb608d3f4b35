"""Tests for the pipelined time-parallel engine."""

import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pintlab.cli import PRESETS, build_levels
from pintlab.config import parse_config
from pintlab.heat import Grid, HeatOperator, initial_condition, scalar_operator
from pintlab.hierarchy import (Level, TimeStep, interpolate_up,
                               mlsdc_iteration, run_mlsdc)
from pintlab.multigrid import Direct, FixedCycles, MgConfig, ToTolerance
from pintlab.pfasst import (
    PfasstResult,
    pfasst_run,
    write_trace_csv,
)
from pintlab.quadrature import uniform_table
from pintlab.sdc import SubStepError, residual, run_sdc, sdc_sweep


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


def reference_mlsdc(levels, u0, t_end, n_steps, tol, max_iter):
    """The serial MLSDC loop that the engine replaced, kept as a reference.

    Each step spreads its initial value; with more than one level it burns
    in with one coarsest-level sweep and interpolates that up, keeping the
    exact fine initial value.  It then iterates until the fine residual
    reaches tol or max_iter iterations are spent.
    """
    dt = t_end / n_steps
    u = u0
    out = SimpleNamespace(iterations=[], residuals=[], vcycles=0,
                          exhausted_steps=[])
    for step in range(n_steps):
        ts = TimeStep.spread(levels, u)
        if len(levels) > 1:
            spread_copies = [s.copy() for s in ts.states]
            lc = len(levels) - 1
            out.vcycles += sdc_sweep(ts.states[lc], ts.y0[lc], dt,
                                     levels[lc].operator, levels[lc].mg_cfg,
                                     levels[lc].policy)
            interpolate_up(ts, spread_copies, exact_y0=u)
        history = []
        for _ in range(max_iter):
            out.vcycles += mlsdc_iteration(ts, dt)
            history.append(residual(ts.states[0], ts.y0[0], dt))
            if history[-1] <= tol:
                break
        else:
            out.exhausted_steps.append(step)
        out.iterations.append(len(history))
        out.residuals.append(history)
        u = ts.states[0].y[-1].copy()
    out.u = u
    return out


def one_level(op, m, policy=None):
    return [Level(op, uniform_table(m), MgConfig(smoother="gauss-seidel"),
                  policy or Direct())]


def weak_scaling_levels():
    cfg = parse_config(None, {"n_x": "32", "n_t": "32", "p": "32"},
                       experiment="weak-scaling", **PRESETS["weak-scaling"])
    return build_levels(cfg)


# id -> (levels, initial value, t_end, n_steps, tol, max_iter)
ENGINE_CASES = {
    "scalar": lambda: (one_level(scalar_operator(-50.0), 2),
                       np.array([1.0]), 1.0, 2, 1e-10, 30),
    "backward-euler": lambda: (one_level(scalar_operator(-1.0), 1),
                               np.array([1.0]), 1.0, 1, 1e-14, 10),
    "3d-gauss-seidel-tol": lambda: (
        one_level(HeatOperator(Grid(3, 8), 1.0, 2), 2, ToTolerance(1e-10)),
        initial_condition(Grid(3, 8), 1), 0.01, 2, 1e-9, 20),
    "two-level": lambda: (make_levels(), initial_condition(Grid(1, 32), 1),
                          0.25, 3, 1e-10, 12),
    "three-level": lambda: (weak_scaling_levels(),
                            initial_condition(Grid(1, 32), 1),
                            1.0, 4, 1e-10, 20),
    "one-level-exhausted": lambda: (one_level(scalar_operator(-50.0), 2),
                                    np.array([1.0]), 1.0, 2, 1e-300, 3),
    "two-level-exhausted": lambda: (make_levels(policy=ToTolerance(1e-12)),
                                    initial_condition(Grid(1, 32), 1),
                                    0.25, 2, 1e-300, 4),
}


class TestOneEngine:
    """run_sdc, run_mlsdc and pfasst_run on one rank step exactly like
    the serial MLSDC loop."""

    @staticmethod
    def assert_matches(res, ref):
        np.testing.assert_array_equal(res.u, ref.u)
        assert res.iterations == ref.iterations
        assert res.vcycles == ref.vcycles
        assert res.exhausted_steps == ref.exhausted_steps
        histories = [[r.residual for r in res.trace if r.block == step]
                     for step in range(len(ref.iterations))]
        assert histories == ref.residuals

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_drivers_match_serial_reference(self, case):
        levels, u0, t_end, n_steps, tol, max_iter = ENGINE_CASES[case]()
        ref = reference_mlsdc(levels, u0, t_end, n_steps, tol, max_iter)
        if len(levels) == 1:
            lvl = levels[0]
            driver = run_sdc(lvl.operator, lvl.table, u0, t_end, n_steps,
                             tol, max_iter, lvl.mg_cfg, lvl.policy)
        else:
            driver = run_mlsdc(levels, u0, t_end, n_steps, tol, max_iter)
        engine = pfasst_run(levels, u0, t_end, p=1, blocks=n_steps, tol=tol,
                            max_iter=max_iter)
        self.assert_matches(driver, ref)
        self.assert_matches(engine, ref)
        assert isinstance(driver, PfasstResult)

    def test_cases_cover_one_sweep_and_exhaustion(self):
        def reference(case):
            return reference_mlsdc(*ENGINE_CASES[case]())

        assert reference("backward-euler").iterations == [1]
        assert reference("one-level-exhausted").exhausted_steps == [0, 1]
        assert reference("two-level-exhausted").exhausted_steps == [0, 1]
        assert reference("three-level").vcycles > 0


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

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_rejects_several_ranks_on_one_level(self, executor):
        # on one level a rank would never receive its predecessor's value
        # and would return a wrong answer
        levels = make_levels()[:1]
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError, match="two levels"):
            pfasst_run(levels, u0, 0.25, p=2, tol=1e-9, executor=executor)


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
