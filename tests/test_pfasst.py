"""Tests for the pipelined time-parallel engine."""

import os
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pintlab import multigrid, pfasst
from pintlab.cli import PRESETS, build_levels
from pintlab.config import parse_config
from pintlab.heat import Grid, HeatOperator, initial_condition, scalar_operator
from pintlab.hierarchy import Level, TimeStep, interpolate_up, mlsdc_iteration
from pintlab.multigrid import (Direct, FixedCycles, MgConfig,
                               ShiftedOperator, ToTolerance)
from pintlab.pfasst import PfasstResult, _BlockEngine, _run_block, pfasst_run
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


def preset_case(experiment, **overrides):
    cfg = parse_config(None, {k: str(v) for k, v in overrides.items()},
                       experiment=experiment, **PRESETS[experiment])
    levels = build_levels(cfg)
    kwargs = dict(p=cfg.p, blocks=cfg.n_t // cfg.p, tol=cfg.tol,
                  max_iter=cfg.max_iter, record_final_values=True)
    return levels, initial_condition(levels[0].grid, cfg.k), cfg.t_end, kwargs


# id -> (levels, initial value, t_end, pfasst_run keywords,
#        rank_iterations of every block)
#
# The serial/threaded bitwise gate over these cases catches a part that
# reads what another part of its step writes, but not a race inside one
# solve: two ranks on grids this small overlap in a solve too rarely.
# Deliberately broken SuperLU solves that shared one output array passed
# every strong-3d case here.  Such races are guarded by
# tests/test_multigrid.py::test_shared_factor_solves_from_threads, which
# solves on one shared factor from eight threads at once.
PIPELINE_CASES = {
    "two-level": lambda: (
        make_levels(), initial_condition(Grid(1, 32), 1), 0.25,
        dict(p=4, tol=1e-10, max_iter=12, record_final_values=True),
        [[10, 11, 11, 11]]),
    # ranks freeze at different iterations in both blocks
    "weak-scaling-staggered": lambda: (
        *preset_case("weak-scaling", n_x=64, n_t=8, p=4, tol=1e-12),
        [[7, 8, 9, 10], [6, 7, 8, 8]]),
    # no rank converges: every rank runs max_iter iterations
    "weak-scaling-max-iter": lambda: (
        *preset_case("weak-scaling", n_x=32, n_t=16, p=8, max_iter=3),
        [[3] * 8, [3] * 8]),
    # the only case on the red-black JOR smoother
    "strong-3d-jor-rb": lambda: (
        *preset_case("strong-3d", n_x=16, n_t=2, p=2),
        [[15, 17]]),
    # the threads share each level's SuperLU Gauss-Seidel triangle and
    # the coarsest grid's LU, and solve on them with no lock
    "strong-3d-gauss-seidel": lambda: (
        *preset_case("strong-3d", n_x=8, n_t=2, p=2, smoother="gauss-seidel"),
        [[15, 16]]),
    # direct solves on shared LU factors: one grid at a time on the fine
    # level, all grids in one call on the coarsest
    "strong-3d-direct": lambda: (
        *preset_case("strong-3d", n_x=8, n_t=2, p=2, variant="PFASST",
                     policy="direct"),
        [[15, 17]]),
}


def phase_major_serial(engine, block):
    """The engine's steps one rank at a time, in the phase-major serial
    schedule, kept as a reference: predictor phase j runs on ranks
    j..p-1 (rank r's phase j is wavefront r + j), and then each round
    runs iteration k of every rank still running, in rank order (rank r's
    iteration k is round r + k)."""
    p = engine.p
    if len(engine.levels) > 1:
        for phase in range(p):
            for r in range(phase, p):
                engine.predictor_phase(r, r + 1, r + phase)
        for r in range(p):
            engine.predictor_finalize(r, r + 1)
    running = list(range(p))
    for k in range(1, engine.max_iter + 1):
        for r in running:
            engine.rank_iteration(r, r + 1, r + k, block)
        running = [r for r in running if not engine.converged[r]]


def assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.u, b.u)
    assert a.rank_iterations == b.rank_iterations
    assert a.rank_vcycles == b.rank_vcycles
    assert a.converged == b.converged
    assert a.trace == b.trace
    assert len(a.final_values) == len(b.final_values)
    for block_a, block_b in zip(a.final_values, b.final_values):
        assert len(block_a) == len(block_b)
        for u_a, u_b in zip(block_a, block_b):
            np.testing.assert_array_equal(u_a, u_b)


class TestEquivalences:
    def test_single_rank_equals_serial_mlsdc(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        serial = reference_mlsdc(levels, u0, 0.25, 1, 1e-10, 12)
        parallel = pfasst_run(levels, u0, 0.25, p=1, tol=1e-10, max_iter=12)
        np.testing.assert_array_equal(parallel.u, serial.u)

    @pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
    def test_serial_and_threaded_executors_bitwise_identical(self, case,
                                                             deadline,
                                                             monkeypatch):
        # on any core count; with p=8 on 3 cores the threaded executor
        # cuts each step at ranks 2 and 5.  A short switch interval makes
        # the parts of a step interleave often, so that a part reading a
        # value another part writes in the same step changes the bits
        levels, u0, t_end, kwargs, rank_iterations = PIPELINE_CASES[case]()
        a = pfasst_run(levels, u0, t_end, executor="serial", **kwargs)
        assert a.rank_iterations == rank_iterations
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 3):
                monkeypatch.setattr(os, "cpu_count", lambda: cores)
                b = deadline(pfasst_run, levels, u0, t_end,
                             executor="threaded", **kwargs)
                assert_bitwise_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
    def test_bits_do_not_depend_on_how_a_step_is_cut(self, case, deadline,
                                                     monkeypatch):
        # every step cut into seeded random contiguous parts, from one
        # part to one per rank, on a pool of one thread that interleaves
        # often with the calling thread
        levels, u0, t_end, kwargs, _ = PIPELINE_CASES[case]()
        a = pfasst_run(levels, u0, t_end, executor="serial", **kwargs)
        rng = random.Random(case)

        def random_parts(first, stop, p, workers):
            inner = rng.sample(range(first + 1, stop),
                               rng.randint(0, stop - first - 1))
            cuts = [first, *sorted(inner), stop]
            return list(zip(cuts, cuts[1:]))

        monkeypatch.setattr(pfasst, "_parts", random_parts)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = deadline(pfasst_run, levels, u0, t_end, executor="threaded",
                         **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert_bitwise_equal(a, b)

    @pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
    def test_round_robin_equals_phase_major_schedule(self, case,
                                                     monkeypatch):
        # every rank reads the same values of its predecessor under the
        # batched schedule and the rank-by-rank one, and the batched
        # layers give each rank its own bits, so both give the same bits
        # (and so does the threaded executor, which equals the serial one
        # above)
        levels, u0, t_end, kwargs, rank_iterations = PIPELINE_CASES[case]()
        a = pfasst_run(levels, u0, t_end, executor="serial", **kwargs)
        monkeypatch.setattr(pfasst, "_run_block", phase_major_serial)
        b = pfasst_run(levels, u0, t_end, executor="serial", **kwargs)
        assert b.rank_iterations == rank_iterations
        assert_bitwise_equal(a, b)

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    @pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
    def test_each_rank_runs_each_step_once(self, case, executor, deadline,
                                           monkeypatch):
        # the predictor burns in phases 0..r of each rank r once per block,
        # and the iteration batches cover each rank once per iteration it
        # runs, never after it has frozen
        phases, iterations = Counter(), Counter()
        phase, iteration = (_BlockEngine.predictor_phase,
                            _BlockEngine.rank_iteration)

        def counting_phase(engine, first, stop, wave):
            phases.update((rank, wave - rank) for rank in range(first, stop))
            phase(engine, first, stop, wave)

        def counting_iteration(engine, first, stop, j, block):
            assert not any(engine.converged[first:stop])
            iterations.update((block, rank) for rank in range(first, stop))
            iteration(engine, first, stop, j, block)

        monkeypatch.setattr(_BlockEngine, "predictor_phase", counting_phase)
        monkeypatch.setattr(_BlockEngine, "rank_iteration",
                            counting_iteration)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        levels, u0, t_end, kwargs, _ = PIPELINE_CASES[case]()
        res = deadline(pfasst_run, levels, u0, t_end, executor=executor,
                       **kwargs)
        p, blocks = kwargs["p"], len(res.rank_iterations)
        assert phases == {(rank, k): blocks
                          for rank in range(p) for k in range(rank + 1)}
        assert iterations == {(block, rank): k
                              for block, ks in enumerate(res.rank_iterations)
                              for rank, k in enumerate(ks)}

    def test_exactness_in_p_iterations(self):
        # after p iterations the parallel solution agrees with the serial
        # multi-level time stepper on the same window
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        p = 4
        serial = pfasst_run(levels, u0, 0.25, p=1, blocks=p, tol=1e-13,
                            max_iter=40)
        parallel = pfasst_run(levels, u0, 0.25, p=p, tol=1e-13, max_iter=40)
        assert np.max(np.abs(parallel.u - serial.u)) < 1e-10

    def test_multi_block_continues_in_time(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        two_blocks = pfasst_run(levels, u0, 0.5, p=2, blocks=2,
                                tol=1e-11, max_iter=20)
        serial = pfasst_run(levels, u0, 0.5, p=1, blocks=4, tol=1e-11,
                            max_iter=20)
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
        ts = TimeStep.spread(levels, u[None])  # one rank
        if len(levels) > 1:
            lc = len(levels) - 1
            out.vcycles += int(sdc_sweep(ts.states[lc], dt,
                                         levels[lc].operator,
                                         levels[lc].mg_cfg,
                                         levels[lc].policy)[0])
            interpolate_up(ts)
        history = []
        for _ in range(max_iter):
            out.vcycles += int(mlsdc_iteration(ts, dt)[0])
            history.append(float(residual(ts.states[0], dt)[0]))
            if history[-1] <= tol:
                break
        else:
            out.exhausted_steps.append(step)
        out.iterations.append(len(history))
        out.residuals.append(history)
        u = ts.states[0].y[-1, 0].copy()
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
    """run_sdc and pfasst_run on one rank step exactly like the serial
    MLSDC loop."""

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
        engine = pfasst_run(levels, u0, t_end, p=1, blocks=n_steps, tol=tol,
                            max_iter=max_iter)
        self.assert_matches(engine, ref)
        if len(levels) == 1:
            lvl = levels[0]
            driver = run_sdc(lvl.operator, lvl.table, u0, t_end, n_steps,
                             tol, max_iter, lvl.mg_cfg, lvl.policy)
            self.assert_matches(driver, ref)
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


class TestOperatorApplies:
    def test_weak_scaling_apply_count(self, monkeypatch):
        # the ipfasst-1d benchmark configuration; node 0 carries no
        # quadrature weight, so no apply at node 0 belongs in this count.
        # Each call applies an operator to a stack of grids: count the
        # grids (rows), and the calls beside them.  The heat operator
        # refreshes f-caches, one call for all nodes, not one per node;
        # the shifted operators' residuals serve the smoothers and V-cycles
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=32, p=32)
        rows = {"apply": [], "residual": []}
        apply = HeatOperator.apply
        residual_of = ShiftedOperator.residual

        def counting_apply(self, u):
            rows["apply"].append(u.size // self.grid.dof)
            return apply(self, u)

        def counting_residual(self, u, b):
            rows["residual"].append(u.size // self.grid.dof)
            return residual_of(self, u, b)

        monkeypatch.setattr(HeatOperator, "apply", counting_apply)
        monkeypatch.setattr(ShiftedOperator, "residual", counting_residual)
        res = pfasst_run(levels, u0, t_end, **kwargs)
        assert res.iterations[-1] == 9
        assert sum(map(sum, rows.values())) == 37_781
        assert {k: len(v) for k, v in rows.items()} == {"apply": 428,
                                                        "residual": 5_030}


class TestPredictor:
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    @pytest.mark.parametrize("levels", [make_levels, weak_scaling_levels],
                             ids=["two-level", "three-level"])
    def test_rank_zero_keeps_its_initial_value(self, levels, executor,
                                               deadline, monkeypatch):
        # burn-in never writes rank 0's coarsest node 0, so the node-0
        # correction that interpolates the predictor up is exactly zero
        levels = levels()
        u0 = initial_condition(levels[0].grid, 1)
        u0[::3] = -0.0
        seen = []
        finalize = _BlockEngine.predictor_finalize

        def recording_finalize(engine, first, stop):
            finalize(engine, first, stop)
            if first == 0:
                seen.append(engine.states[0].y[0, 0].copy())

        monkeypatch.setattr(_BlockEngine, "predictor_finalize",
                            recording_finalize)
        deadline(pfasst_run, levels, u0, 0.25, p=4, tol=1e-10, max_iter=2,
                 executor=executor)
        assert len(seen) == 1
        # equal values are equal bits, except that adding the +0.0
        # correction turns a -0.0 into +0.0, as every later correction does
        np.testing.assert_array_equal(seen[0], u0)


class TestTrace:
    def test_trace_ordering_and_fields(self):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        result = pfasst_run(levels, u0, 0.25, p=3, tol=1e-10, max_iter=15)
        keys = [(r.iteration, r.rank) for r in result.trace]
        assert keys == sorted(keys)
        assert all(r.block == 0 and r.level == 0 for r in result.trace)


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
    def test_rejects_several_ranks_on_one_level(self, executor, deadline):
        # on one level a rank would never receive its predecessor's value
        # and would return a wrong answer
        levels = make_levels()[:1]
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError, match="two levels"):
            deadline(pfasst_run, levels, u0, 0.25, p=2, tol=1e-9,
                     executor=executor)

    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_rejects_fewer_than_one_iteration(self, executor, max_iter,
                                              deadline):
        # such a run used to return the predictor's state, with every
        # rank unconverged, zero iterations and an empty trace
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32, p=4)
        kwargs["max_iter"] = max_iter
        with pytest.raises(ValueError, match="iteration"):
            deadline(pfasst_run, levels, u0, t_end, executor=executor,
                     **kwargs)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_rejects_non_finite_end_time(self, executor, t_end, deadline):
        # the step's shifts are not finite; this used to end in SuperLU's
        # "Factor is exactly singular"
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError, match="finite and non-negative"), \
                np.errstate(invalid="ignore"):
            deadline(pfasst_run, levels, u0, t_end, p=2, max_iter=2,
                     executor=executor)

    @pytest.mark.parametrize("bad", ["nan", "inf", "stacked"])
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_rejects_bad_initial_value(self, executor, bad, deadline,
                                       monkeypatch):
        # a NaN entry ran every rank to max_iter and returned a NaN state
        # flagged unconverged; a (2, 31) value failed deep inside with
        # "non-broadcastable output operand"
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        if bad == "stacked":
            u0 = np.stack([u0, u0])
        else:
            u0[3] = float(bad)

        def no_block(engine, block):
            raise AssertionError("a worker started")

        monkeypatch.setattr(pfasst, "_run_block", no_block)
        with pytest.raises(ValueError, match="initial value"):
            deadline(pfasst_run, levels, u0, 0.25, p=2, max_iter=3,
                     executor=executor)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN tolerance ran every rank to max_iter and reported it
        # unconverged, with no error
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(ValueError, match="tolerance"):
            pfasst_run(levels, u0, 0.25, p=2, tol=tol, max_iter=2)
        with pytest.raises(ValueError, match="tolerance"):
            run_sdc(scalar_operator(-1.0), uniform_table(2), np.array([1.0]),
                    1.0, 2, tol, 3, MgConfig(), Direct())

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_run_sdc_rejects_fewer_than_one_iteration(self, max_iter):
        op = scalar_operator(-1.0)
        with pytest.raises(ValueError, match="iteration"):
            run_sdc(op, uniform_table(2), np.array([1.0]), 1.0, 2, 1e-10,
                    max_iter, MgConfig(), Direct())


class TestSharedSpread:
    """Every rank of a block starts from a copy of one spread, held in one
    rank-axis array per level and field.  Burn-in leaves the finer levels'
    spread as it is, so the predictor's interpolation up reads it there."""

    @staticmethod
    def arrays(states):
        return [a for s in states for a in (s.y, s.f)]

    def assert_private(self, engine):
        own = self.arrays(engine.states)
        assert all(a.shape[1] == engine.p for a in own)
        for i, a in enumerate(own):
            others = own[:i] + own[i + 1:]
            assert not any(np.shares_memory(a, b) for b in others)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "threaded"])
    def test_spread_is_read_only_and_never_shared(self, workers, deadline,
                                                  monkeypatch):
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=4, p=4)
        fresh = TimeStep.spread(levels, u0[None]).states[:-1]
        finalize = _BlockEngine.predictor_finalize
        checked = []

        def checking_finalize(engine, first, stop):
            # after burn-in, before the interpolation up
            for a, b in zip(self.arrays(engine.states[:-1]),
                            self.arrays(fresh)):
                np.testing.assert_array_equal(a, np.broadcast_to(b, a.shape))
            checked.append((first, stop))
            finalize(engine, first, stop)

        monkeypatch.setattr(_BlockEngine, "predictor_finalize",
                            checking_finalize)
        with ThreadPoolExecutor(1) as pool:
            engine = _BlockEngine(levels, t_end / 4, kwargs["tol"],
                                  kwargs["max_iter"], u0, 4, workers,
                                  pool if workers > 1 else None)
            self.assert_private(engine)
            deadline(_run_block, engine, 0)
        assert checked == [(0, 4)]
        assert [engine.iterations] == pfasst_run(
            levels, u0, t_end, **kwargs).rank_iterations
        self.assert_private(engine)


class TestCachedSetup:
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_repeat_runs_are_bitwise_equal(self, executor, cold_caches,
                                           deadline):
        levels = make_levels()
        u0 = initial_condition(levels[0].grid, 1)
        a, b = (deadline(pfasst_run, levels, u0, 0.25, p=4, tol=1e-10,
                         max_iter=12, executor=executor) for _ in range(2))
        np.testing.assert_array_equal(a.u, b.u)
        assert a.rank_iterations == b.rank_iterations
        assert a.rank_vcycles == b.rank_vcycles

    def test_threaded_cold_start_matches_serial(self, cold_caches, deadline,
                                                monkeypatch):
        # four workers, one per rank whatever the core count, race to
        # build the shared operators and factors: in 1D the bands, in 3D
        # the SuperLU Gauss-Seidel triangles and the coarsest grid's LU,
        # which no 1D run has built; a short switch interval makes them
        # interleave often
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for dim, n in [(1, 32), (3, 16)]:
            levels = make_levels(n, dim=dim)
            u0 = initial_condition(levels[0].grid, 1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = deadline(pfasst_run, levels, u0, 0.25, p=4,
                                    tol=1e-10, max_iter=12,
                                    executor="threaded")
            finally:
                sys.setswitchinterval(interval)
            serial = pfasst_run(levels, u0, 0.25, p=4, tol=1e-10,
                                max_iter=12)
            np.testing.assert_array_equal(threaded.u, serial.u)
            assert threaded.rank_iterations == serial.rank_iterations
            assert threaded.rank_vcycles == serial.rank_vcycles


class TestWorkers:
    """The threaded executor cuts each step into parts at the bounds
    p*w // W of W = min(p, cores) groups; the calling thread computes the
    first part and a pool of W - 1 threads the others."""

    @pytest.mark.parametrize("p, cores", [(8, 3), (2, 3), (4, 1)])
    def test_each_step_is_cut_at_the_group_bounds(self, p, cores, deadline,
                                                  monkeypatch):
        # every part of a step asks for its ranks' views once, in the
        # thread that computes it
        steps = []
        ranks = _BlockEngine.ranks

        def recording(step):
            def recorded(engine, first, stop, *args):
                steps.append(((first, stop), []))
                step(engine, first, stop, *args)
            return recorded

        def recording_ranks(engine, first, stop):
            steps[-1][1].append((first, stop, threading.get_ident()))
            return ranks(engine, first, stop)

        for name in ("predictor_phase", "predictor_finalize",
                     "rank_iteration"):
            monkeypatch.setattr(_BlockEngine, name,
                                recording(getattr(_BlockEngine, name)))
        monkeypatch.setattr(_BlockEngine, "ranks", recording_ranks)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=p, p=p, max_iter=3)

        def run():
            pfasst_run(levels, u0, t_end, executor="threaded", **kwargs)
            return threading.get_ident()

        caller = deadline(run)
        workers = min(p, cores)
        bounds = [p * w // workers for w in range(1, workers)]
        assert steps
        assert any(len(parts) > 1 for _, parts in steps) == (workers > 1)
        for (first, stop), parts in steps:
            cuts = [first, *(c for c in bounds if first < c < stop), stop]
            assert sorted(part[:2] for part in parts) \
                == list(zip(cuts, cuts[1:]))
            threads = {part[:2]: part[2] for part in parts}
            assert threads.pop((first, cuts[1])) == caller
            assert caller not in threads.values()

    def test_failing_rank_stops_every_worker(self, deadline, monkeypatch):
        # p=8 on 3 workers: round 3 runs ranks 0..2 in the parts [0, 2),
        # computed by the calling thread, and [2, 3), computed by the
        # pool, where rank 2 fails in its first iteration.  The run raises
        # that error, and no rank records round 3 or a later one.
        rounds, engines = [], []
        ranks, iteration = _BlockEngine.ranks, _BlockEngine.rank_iteration

        def recording_iteration(engine, first, stop, j, block):
            rounds.append(j)
            engines.append(engine)
            iteration(engine, first, stop, j, block)

        def failing_ranks(engine, first, stop):
            if rounds[-1:] == [3] and first <= 2 < stop:
                raise RuntimeError(f"rank 2 failed in {first}..{stop - 1}")
            return ranks(engine, first, stop)

        monkeypatch.setattr(_BlockEngine, "rank_iteration",
                            recording_iteration)
        monkeypatch.setattr(_BlockEngine, "ranks", failing_ranks)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=8, p=8, tol=1e-300,
                                                max_iter=5)
        with pytest.raises(RuntimeError, match=r"rank 2 failed in 2\.\.2"):
            deadline(pfasst_run, levels, u0, t_end, executor="threaded",
                     **kwargs)
        assert rounds == [1, 2, 3]
        assert engines[-1].iterations == [2, 1] + [0] * 6
        assert max(row.rank + row.iteration
                   for row in engines[-1].trace) == 2

    def test_failing_part_returns_after_the_other_parts(self, deadline,
                                                        monkeypatch):
        # the calling thread's part of round 3 (ranks 0 and 1) fails at
        # once, while the pool's part (rank 2) is still running: the error
        # leaves the step only after that part has returned
        rounds, finished, finished_at_error = [], [], []
        ranks, iteration = _BlockEngine.ranks, _BlockEngine.rank_iteration

        def recording_iteration(engine, first, stop, j, block):
            rounds.append(j)
            try:
                iteration(engine, first, stop, j, block)
            except RuntimeError:
                finished_at_error.extend(finished)
                raise

        def failing_ranks(engine, first, stop):
            if rounds[-1:] == [3]:
                if first == 0:
                    raise RuntimeError("the caller's part failed")
                time.sleep(0.05)
            return ranks(engine, first, stop)

        def recording_residual(states, dt):
            out = residual(states, dt)
            finished.append(rounds[-1])
            return out

        monkeypatch.setattr(_BlockEngine, "rank_iteration",
                            recording_iteration)
        monkeypatch.setattr(_BlockEngine, "ranks", failing_ranks)
        monkeypatch.setattr(pfasst, "residual", recording_residual)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=8, p=8, tol=1e-300,
                                                max_iter=5)
        with pytest.raises(RuntimeError, match="caller's part failed"):
            deadline(pfasst_run, levels, u0, t_end, executor="threaded",
                     **kwargs)
        assert rounds == [1, 2, 3]
        assert finished_at_error.count(3) == 1

    def test_serial_executor_starts_no_thread(self, monkeypatch):
        # counted inside every part of every step
        counts = []
        ranks = _BlockEngine.ranks

        def counting_ranks(engine, first, stop):
            counts.append(threading.active_count())
            return ranks(engine, first, stop)

        monkeypatch.setattr(_BlockEngine, "ranks", counting_ranks)
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=8, p=8, max_iter=3)
        before = threading.active_count()
        pfasst_run(levels, u0, t_end, executor="serial", **kwargs)
        assert counts and set(counts) == {before}

    def test_no_worker_outlives_the_run(self, deadline, monkeypatch):
        # 6 ranks on 3 workers, run once cleanly and once failing
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        levels, u0, t_end, kwargs = preset_case("weak-scaling", n_x=32,
                                                n_t=6, p=6, max_iter=3)
        before = threading.active_count()
        deadline(pfasst_run, levels, u0, t_end, executor="threaded",
                 **kwargs)
        assert threading.active_count() == before
        # one V-cycle cannot reach 1e-15, so rank 0 fails in its predictor
        monkeypatch.setattr(multigrid, "MAX_CYCLES", 1)
        failing = [replace(lvl, policy=ToTolerance(tol=1e-15))
                   for lvl in levels]
        with pytest.raises(SubStepError):
            deadline(pfasst_run, failing, u0, t_end, executor="threaded",
                     **kwargs)
        assert threading.active_count() == before


class TestFailures:
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_substep_failure_raises_promptly(self, executor, deadline,
                                             monkeypatch):
        # weak-scaling levels where one V-cycle cannot reach 1e-15: rank 0
        # fails in the predictor's first wavefront, and no later step runs
        cfg = parse_config(None, {"n_x": "32", "n_t": "2", "p": "2"},
                           experiment="weak-scaling", **PRESETS["weak-scaling"])
        monkeypatch.setattr(multigrid, "MAX_CYCLES", 1)
        levels = [replace(lvl, policy=ToTolerance(tol=1e-15))
                  for lvl in build_levels(cfg)]
        u0 = initial_condition(levels[0].grid, 1)
        with pytest.raises(SubStepError):
            deadline(pfasst_run, levels, u0, cfg.t_end, p=2,
                     executor=executor, timeout=10)
