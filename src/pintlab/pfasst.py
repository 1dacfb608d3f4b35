"""Pipelined MLSDC across a block of time steps (PFASST / IPFASST).

This is pintlab's one time-stepping engine: serial MLSDC is PFASST on one
rank with one block per step, and SDC is MLSDC on one level.

Each time step of a block is owned by one rank.  A rank's iteration k
starts from its predecessor's iteration k: the fine and coarsest
final-node values, read straight from the predecessor's slice of the
block's arrays.  A rank freezes once it and its predecessor have
converged; it then stops, and its successor keeps reading the last
values it wrote.

A block holds each level's node states for all its ranks in one
node-first array, (node, rank, *grid), and ranks that do the same work
at the same time run as one batched call on a contiguous slice of it;
every layer below gives each rank the bits it gets alone.  The ranks
are split into `workers` contiguous groups, one thread each (the calling
thread runs the first), and each group runs `_run_group`:

- the predictor as wavefronts: phase j of rank r needs its
  predecessor's phase j and its own phase j - 1, so wavefront w burns in
  phase w - r of every rank r of the group in one call;
- the predictor's interpolation to the fine levels, once for the group;
- the iteration rounds: in round j every running rank r runs its
  iteration j - r from its predecessor's values of round j - 1, so the
  running ranks, a contiguous range, iterate in one call.

The groups run every wavefront and every round in lockstep on one
barrier: each reads its predecessors' values, waits until every group has
read, writes, and waits until every group has written.  The serial
executor is one group; the threaded executor has min(p, cores).  Every
rank reads the same values however the ranks are grouped, so both
produce bitwise-identical iterates.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import (Level, TimeStep, burn_in, check_hierarchy,
                        interpolate_up, mlsdc_iteration)
from .sdc import NodeStates, residual

EXECUTORS = ("serial", "threaded")


@dataclass
class TraceRow:
    block: int
    rank: int
    iteration: int
    level: int
    residual: float
    vcycles: int


@dataclass
class PfasstResult:
    """Result of every variant; per-step lists run over blocks, then ranks."""

    u: np.ndarray
    rank_iterations: list[list[int]] = field(default_factory=list)  # per block
    rank_vcycles: list[list[int]] = field(default_factory=list)
    converged: list[list[bool]] = field(default_factory=list)
    trace: list[TraceRow] = field(default_factory=list)
    final_values: list[list[np.ndarray]] = field(default_factory=list)
    """Last rank's fine final-node value after each iteration, per block."""

    @property
    def total_vcycles(self) -> int:
        return sum(sum(b) for b in self.rank_vcycles)

    @property
    def vcycles(self) -> int:
        return self.total_vcycles

    @property
    def iterations(self) -> list[int]:
        """Iterations of each time step."""
        return [k for block in self.rank_iterations for k in block]

    @property
    def exhausted_steps(self) -> list[int]:
        """Indices of the time steps that did not reach the tolerance."""
        flags = [ok for block in self.converged for ok in block]
        return [step for step, ok in enumerate(flags) if not ok]


class _BlockEngine:
    """Shared state and batched procedures for one block of steps.

    Each procedure runs a contiguous range of ranks, first..stop-1, as one
    batch: a view of the block's rank-axis arrays.  A procedure that reads
    its predecessors' arrays does so first, then waits on `barrier` until
    every group has read, and only then writes; with no ranks it only
    waits."""

    def __init__(self, levels, dt, tol, max_iter, u0, p, workers,
                 record_final_values=False):
        self.levels = levels
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        self.p = p
        # one party per group; the groups run each step in lockstep
        self.barrier = threading.Barrier(workers)
        # every rank starts from the same spread
        spread = TimeStep.spread(levels, u0[None]).states
        # each level's node states of all ranks, (node, rank, *grid)
        self.states = [NodeStates(s.table, s.y.repeat(p, axis=1),
                                  s.f.repeat(p, axis=1)) for s in spread]
        # the coarser levels' spread, read-only: what interpolate_up reads
        self.spread = spread[1:]
        for states in self.spread:
            states.y.flags.writeable = states.f.flags.writeable = False
        self.vcycles = np.zeros(p, int)
        self.iterations = [0] * p
        self.converged = [False] * p
        self.trace: list[TraceRow] = []
        self.record_final_values = record_final_values
        self.final_values: list[np.ndarray] = []
        self._lock = threading.Lock()

    def ranks(self, first: int, stop: int) -> TimeStep:
        """The steps of ranks first..stop-1, as views of the block's
        arrays."""
        return TimeStep(self.levels, [
            NodeStates(s.table, s.y[:, first:stop], s.f[:, first:stop])
            for s in self.states])

    # ------------------------------------------------------------------
    # predictor
    def predictor_phase(self, first: int, stop: int, wave: int) -> None:
        """Wavefront `wave` of the predictor: each rank r burns in its
        phase wave - r, from its predecessor's phase of the wavefront
        before."""
        coarsest = self.states[-1].y
        # at phase wave - r == r the predecessor's predictor has ended, and
        # the value read at phase r - 1 is still the coarsest node 0
        low = max(first, wave // 2 + 1)
        coarsest[0, low:stop] = coarsest[-1, low - 1:stop - 1]
        self.barrier.wait()
        if first < stop:
            self.vcycles[first:stop] += burn_in(self.ranks(first, stop),
                                                self.dt)

    def predictor_finalize(self, first: int, stop: int) -> None:
        interpolate_up(self.ranks(first, stop), self.spread)

    # ------------------------------------------------------------------
    # main iteration
    def rank_iteration(self, first: int, stop: int, j: int,
                       block: int) -> None:
        """Round j of the PFASST iteration: each rank r runs its iteration
        j - r from its predecessor's values of round j - 1.  A frozen
        predecessor no longer writes, so its last values stay."""
        fine, coarsest = self.states[0].y, self.states[-1].y
        low = max(first, 1)  # rank 0 has no predecessor
        fine[0, low:stop] = fine[-1, low - 1:stop - 1]
        coarse_y0 = coarsest[-1, low - 1:stop - 1].copy()
        pred_frozen = [rank == 0 or self.converged[rank - 1]
                       for rank in range(first, stop)]
        self.barrier.wait()
        if first >= stop:
            return
        ts = self.ranks(first, stop)
        cycles = mlsdc_iteration(ts, self.dt, coarse_y0)
        res = residual(ts.states[0], self.dt)
        self.vcycles[first:stop] += cycles
        with self._lock:
            for i, rank in enumerate(range(first, stop)):
                self.iterations[rank] = j - rank
                self.converged[rank] = bool(res[i] <= self.tol
                                            and pred_frozen[i])
                self.trace.append(TraceRow(block, rank, j - rank, 0,
                                           float(res[i]), int(cycles[i])))
            if self.record_final_values and stop == self.p:
                self.final_values.append(fine[-1, -1].copy())


def _run_group(engine: _BlockEngine, block: int, first: int,
               stop: int) -> None:
    """Ranks first..stop-1 of a block, in lockstep with the other groups:
    the predictor's wavefronts, then the iteration rounds, each one
    batched call that is empty when no rank of the group takes part, and
    a wait on the barrier at the end of each.  Returns once every rank
    has frozen or run max_iter iterations."""
    p, wait = engine.p, engine.barrier.wait
    if len(engine.levels) > 1:  # one level (SDC): nothing to burn in on
        # rank r runs phases 0..r, and phase j in wavefront r + j
        for wave in range(2 * p - 1):
            engine.predictor_phase(max(first, (wave + 1) // 2),
                                   min(stop, wave + 1), wave)
            wait()
        engine.predictor_finalize(first, stop)
    for j in itertools.count(1):
        # ranks below j - max_iter have run max_iter iterations, the
        # converged ranks are frozen (a prefix, as a rank converges only
        # once its predecessor has), and rank r starts iterating in
        # round r + 1.  Every group reads the same flags here.
        low = max(j - engine.max_iter, sum(engine.converged))
        if low >= p:
            return
        engine.rank_iteration(max(first, low), min(stop, j), j, block)
        wait()


def _run_block(engine: _BlockEngine, block: int) -> None:
    """Runs the block on one thread per party of the engine's barrier,
    each running `_run_group` on a contiguous group of ranks; the calling
    thread runs the first group.  A group that raises breaks the barrier,
    so every other group stops at its next wait, and the first such
    exception is raised here after the join."""
    failures: list[BaseException] = []

    def run(first: int, stop: int) -> None:
        try:
            _run_group(engine, block, first, stop)
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            engine.barrier.abort()

    workers = engine.barrier.parties
    bounds = [engine.p * w // workers for w in range(workers + 1)]
    # each group runs in a copy of the caller's context, so that NumPy's
    # error state (np.errstate) holds in its thread too
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, first, stop))
               for first, stop in zip(bounds[1:-1], bounds[2:])]
    for t in threads:
        t.start()
    run(bounds[0], bounds[1])
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def pfasst_run(levels: list[Level], u0: np.ndarray, t_end: float, p: int,
               blocks: int = 1, tol: float = 1e-9, max_iter: int = 20,
               executor: str = "serial",
               record_final_values: bool = False) -> PfasstResult:
    """Run PFASST/IPFASST over `blocks` consecutive windows of `p` steps.

    With p=1 this is serial MLSDC (one block per step), and with one level
    also serial SDC.
    """
    check_hierarchy(levels)
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != levels[0].grid.shape or not np.isfinite(u0).all():
        raise ValueError("initial value must be finite, of shape "
                         f"{levels[0].grid.shape}, got shape {u0.shape}")
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError("tolerance must be finite and non-negative")
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}")
    if p < 1 or blocks < 1 or max_iter < 1:
        raise ValueError("need at least one rank, block and iteration")
    if len(levels) == 1 and p > 1:
        # on one level a rank never reads its predecessor's values
        raise ValueError("pipelining over ranks needs at least two levels")
    workers = 1 if executor == "serial" else min(p, os.cpu_count() or 1)
    dt = t_end / (p * blocks)
    result = PfasstResult(u=u0)
    for block in range(blocks):
        engine = _BlockEngine(levels, dt, tol, max_iter, result.u, p,
                              workers, record_final_values)
        _run_block(engine, block)
        result.u = engine.states[0].y[-1, -1].copy()
        result.rank_iterations.append(list(engine.iterations))
        result.rank_vcycles.append(engine.vcycles.tolist())
        result.converged.append(list(engine.converged))
        # threaded workers append trace rows in wall-clock order; normalize
        result.trace.extend(sorted(
            engine.trace, key=lambda r: (r.iteration, r.rank, r.level)))
        result.final_values.append(list(engine.final_values))
        del engine  # not alive while the next block's engine is built
    return result
