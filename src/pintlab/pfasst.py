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
every layer below gives each rank the bits it gets alone.  One loop in
the calling thread, `_run_block`, runs a block's schedule step by step:

- the predictor as wavefronts: phase j of rank r needs its
  predecessor's phase j and its own phase j - 1, so wavefront w burns in
  phase w - r of every rank r in one step;
- the predictor's interpolation to the fine levels, in one step;
- the iteration rounds: in round j every running rank r runs its
  iteration j - r from its predecessor's values of round j - 1, so the
  running ranks, a contiguous range, iterate in one step.

A step first reads every rank's predecessor values, then computes its
ranks in parts cut at the bounds p*w // W of W = min(p, cores) groups
(W = 1 for the serial executor), the calling thread the first part and a
pool of W - 1 threads the others, and records the results once every
part has returned.  Every rank reads the same values however the step is
cut, so both executors produce bitwise-identical iterates.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import itertools
import os
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


def _parts(first: int, stop: int, p: int,
           workers: int) -> list[tuple[int, int]]:
    """Ranks first..stop-1 cut into contiguous parts at the group bounds
    p*w // workers, which rise strictly as workers <= p; no part is
    empty."""
    bounds = (p * w // workers for w in range(1, workers))
    cuts = [first, *(c for c in bounds if first < c < stop), stop]
    return list(zip(cuts, cuts[1:]))


class _BlockEngine:
    """Shared state and batched procedures for one block of steps.

    Each procedure runs one step on a contiguous range of ranks,
    first..stop-1: it reads their predecessors' values, computes the
    parts that `_parts` cuts the range into (the calling thread the first,
    the `pool` of workers - 1 threads the others), and records the
    results."""

    def __init__(self, levels, dt, tol, max_iter, u0, p, workers, pool,
                 record_final_values=False):
        self.levels = levels
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        self.p = p
        self.workers = workers
        self.pool = pool
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

    def ranks(self, first: int, stop: int) -> TimeStep:
        """The steps of ranks first..stop-1, as views of the block's
        arrays."""
        return TimeStep(self.levels, [
            NodeStates(s.table, s.y[:, first:stop], s.f[:, first:stop])
            for s in self.states])

    def _in_parts(self, compute, first: int, stop: int) -> list:
        """compute(a, b) on each part a..b-1 of ranks first..stop-1, the
        pool's in copies of the caller's context (so that np.errstate
        holds there too).  Once every part has returned: their results in
        rank order, or the first failing part's error."""
        (a, b), *rest = _parts(first, stop, self.p, self.workers)
        if not rest:
            return [compute(a, b)]
        futures = [self.pool.submit(contextvars.copy_context().run,
                                    compute, *part) for part in rest]
        try:
            head = compute(a, b)
        finally:
            concurrent.futures.wait(futures)
        return [head, *(f.result() for f in futures)]

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
        cycles = self._in_parts(
            lambda a, b: burn_in(self.ranks(a, b), self.dt), first, stop)
        self.vcycles[first:stop] += np.concatenate(cycles)

    def predictor_finalize(self, first: int, stop: int) -> None:
        self._in_parts(
            lambda a, b: interpolate_up(self.ranks(a, b), self.spread),
            first, stop)

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
        # a copy: the predecessor, in the same step, overwrites its own
        coarse_y0 = coarsest[-1, low - 1:stop - 1].copy()
        pred_frozen = [rank == 0 or self.converged[rank - 1]
                       for rank in range(first, stop)]

        def compute(a, b):
            ts = self.ranks(a, b)
            cycles = mlsdc_iteration(ts, self.dt,
                                     coarse_y0[max(a, 1) - low:b - low])
            return cycles, residual(ts.states[0], self.dt)

        cycles, res = (np.concatenate(x)
                       for x in zip(*self._in_parts(compute, first, stop)))
        self.vcycles[first:stop] += cycles
        for i, rank in enumerate(range(first, stop)):
            self.iterations[rank] = j - rank
            self.converged[rank] = bool(res[i] <= self.tol
                                        and pred_frozen[i])
            self.trace.append(TraceRow(block, rank, j - rank, 0,
                                       float(res[i]), int(cycles[i])))
        if self.record_final_values and stop == self.p:
            self.final_values.append(fine[-1, -1].copy())


def _run_block(engine: _BlockEngine, block: int) -> None:
    """The block's schedule in the calling thread, each step one call on
    every rank taking part: the predictor's wavefronts, its interpolation
    to the fine levels, then the iteration rounds until every rank has
    frozen or run max_iter iterations.  A step that raises ends the
    block."""
    p = engine.p
    if len(engine.levels) > 1:  # one level (SDC): nothing to burn in on
        # rank r runs phases 0..r, and phase j in wavefront r + j
        for wave in range(2 * p - 1):
            engine.predictor_phase((wave + 1) // 2, min(p, wave + 1), wave)
        engine.predictor_finalize(0, p)
    for j in itertools.count(1):
        # ranks below j - max_iter have run max_iter iterations, the
        # converged ranks are frozen (a prefix, as a rank converges only
        # once its predecessor has), and rank r starts iterating in
        # round r + 1
        low = max(j - engine.max_iter, sum(engine.converged))
        if low >= p:
            return
        engine.rank_iteration(low, min(p, j), j, block)


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
    # the pool's threads live for the whole run; one worker starts none
    with (concurrent.futures.ThreadPoolExecutor(workers - 1) if workers > 1
          else contextlib.nullcontext()) as pool:
        for block in range(blocks):
            engine = _BlockEngine(levels, dt, tol, max_iter, result.u, p,
                                  workers, pool, record_final_values)
            _run_block(engine, block)
            result.u = engine.states[0].y[-1, -1].copy()
            result.rank_iterations.append(list(engine.iterations))
            result.rank_vcycles.append(engine.vcycles.tolist())
            result.converged.append(list(engine.converged))
            # rows come round by round; the result lists them by iteration
            result.trace.extend(sorted(
                engine.trace, key=lambda r: (r.iteration, r.rank, r.level)))
            result.final_values.append(list(engine.final_values))
            del engine  # not alive while the next block's engine is built
    return result
