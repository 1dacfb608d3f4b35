"""Pipelined MLSDC across a block of time steps (PFASST / IPFASST).

This is pintlab's one time-stepping engine: serial MLSDC is PFASST on one
rank with one block per step, and SDC is MLSDC on one level.

Each time step of a block is owned by one rank.  A rank's iteration
receives one message from its predecessor, runs one MLSDC pass, and sends
one to its successor: its fine and coarsest final-node values and its
converged flag.  A rank freezes once it and its predecessor have
converged; it then stops, and its successor keeps the last values.

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
  iteration j - r from messages of round j - 1, so the running ranks,
  a contiguous range, iterate in one call.

The serial executor is one group; the threaded executor has min(p,
cores).  Every rank sends and receives the same messages through the
same FIFO channel from each rank to its successor, however the ranks are
grouped, so both produce bitwise-identical iterates.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import queue
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


class _Aborted(Exception):
    """Raised in a worker when another worker has failed."""


_ABORT = object()  # tag of the message that wakes a blocked receiver


class _Channel:
    """FIFO channel from one rank to its successor.

    Each message is received once, in send order, under exactly the tag it
    was sent with; any other tag raises.  A blocking channel (several
    workers) waits for the next message.  A non-blocking one (one worker)
    raises at once when none was sent, since no other rank can send it
    while the receiver runs.
    """

    def __init__(self, blocking: bool):
        self._q: queue.SimpleQueue = queue.SimpleQueue()
        self._blocking = blocking

    def send(self, tag, payload) -> None:
        self._q.put((tag, payload))

    def recv(self, tag):
        try:
            got_tag, payload = self._q.get(block=self._blocking)
        except queue.Empty:
            raise RuntimeError(f"receive of {tag} before its send") from None
        if got_tag is _ABORT:
            raise _Aborted
        if got_tag != tag:
            raise RuntimeError(f"expected message {tag}, got {got_tag}")
        return payload


class _Exchange(list):
    """The channels of one block; channel r runs from rank r to r + 1."""

    def __init__(self, n_ranks: int, blocking: bool):
        super().__init__(_Channel(blocking) for _ in range(n_ranks - 1))
        self.aborted = threading.Event()

    def abort(self) -> None:
        """Stop every rank: receivers, blocked or not yet, raise _Aborted
        once the messages sent before the abort are used up."""
        self.aborted.set()
        for channel in self:
            channel.send(_ABORT, None)


class _BlockEngine:
    """Shared state and batched procedures for one block of steps.

    Each procedure runs a contiguous range of ranks, first..stop-1, as one
    batch: a view of the block's rank-axis arrays."""

    def __init__(self, levels, dt, tol, max_iter, exchange, u0, p,
                 record_final_values=False):
        self.levels = levels
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        self.exchange = exchange
        self.p = p
        # every rank starts from the same spread, which stays read-only
        self.spread = TimeStep.spread(levels, u0[None]).states
        for states in self.spread:
            states.y.flags.writeable = states.f.flags.writeable = False
        # each level's node states of all ranks, (node, rank, *grid)
        self.states = [NodeStates(s.table, s.y.repeat(p, axis=1),
                                  s.f.repeat(p, axis=1)) for s in self.spread]
        self.vcycles = np.zeros(p, int)
        self.iterations = [0] * p
        self.converged = [False] * p
        # per rank: the last (fine, coarsest) values received, and the
        # iteration at which its predecessor froze (rank 0 has none)
        self.inbox: list[tuple | None] = [None] * p
        self.pred_frozen_at = [0] + [max_iter + 1] * (p - 1)
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

    def send(self, rank: int, tag, payload) -> None:
        if rank + 1 < self.p:  # the last rank has no successor
            self.exchange[rank].send(tag, payload)

    def receive(self, rank: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The predecessor's fine and coarsest values of iteration k.  A
        rank that froze at iteration j sends nothing after j, so its
        successor keeps the last values for the iterations after j."""
        if k <= self.pred_frozen_at[rank]:
            fine, coarse, converged = self.exchange[rank - 1].recv(("it", k))
            self.inbox[rank] = fine, coarse
            if converged:
                self.pred_frozen_at[rank] = k
        return self.inbox[rank]

    # ------------------------------------------------------------------
    # predictor
    def predictor_phase(self, first: int, stop: int, wave: int) -> None:
        """Wavefront `wave` of the predictor: each rank r burns in its
        phase wave - r, from its predecessor's phase of the wavefront
        before."""
        ts = self.ranks(first, stop)
        coarsest = ts.states[-1].y
        for rank in range(first, stop):
            phase = wave - rank
            if phase < rank:
                # at phase == rank the predecessor's predictor has ended,
                # and the value received at phase rank - 1 is still the
                # coarsest node 0
                coarsest[0, rank - first] = self.exchange[rank - 1].recv(
                    ("pred", phase))
        self.vcycles[first:stop] += burn_in(ts, self.dt)
        for rank in range(first, stop):
            self.send(rank, ("pred", wave - rank),
                      coarsest[-1, rank - first].copy())

    def predictor_finalize(self, first: int, stop: int) -> None:
        interpolate_up(self.ranks(first, stop), self.spread)

    # ------------------------------------------------------------------
    # main iteration
    def rank_iteration(self, first: int, stop: int, j: int,
                       block: int) -> int:
        """Round j of the PFASST iteration: each rank r runs its iteration
        j - r.  Returns how many of the first ranks froze; no other rank
        can, as a rank converges only once its predecessor has frozen."""
        ts = self.ranks(first, stop)
        fine, coarsest = ts.states[0].y, ts.states[-1].y
        coarse_y0 = []
        for rank in range(max(first, 1), stop):
            fine[0, rank - first], coarse = self.receive(rank, j - rank)
            coarse_y0.append(coarse)
        cycles = mlsdc_iteration(ts, self.dt,
                                 np.array(coarse_y0) if coarse_y0 else None)
        res = residual(ts.states[0], self.dt)
        converged = [bool(res[i] <= self.tol
                          and self.pred_frozen_at[rank] <= j - rank)
                     for i, rank in enumerate(range(first, stop))]
        for i, rank in enumerate(range(first, stop)):
            self.send(rank, ("it", j - rank),
                      (fine[-1, i].copy(), coarsest[-1, i].copy(),
                       converged[i]))
        self.vcycles[first:stop] += cycles
        with self._lock:
            for i, rank in enumerate(range(first, stop)):
                self.iterations[rank] = j - rank
                self.converged[rank] = converged[i]
                self.trace.append(TraceRow(block, rank, j - rank, 0,
                                           float(res[i]), int(cycles[i])))
            if self.record_final_values and stop == self.p:
                self.final_values.append(fine[-1, -1].copy())
        frozen = 0
        while frozen < len(converged) and converged[frozen]:
            frozen += 1
        return frozen


def _run_group(engine: _BlockEngine, block: int, first: int,
               stop: int) -> None:
    """Ranks first..stop-1 of a block: the predictor's wavefronts, then
    the iteration rounds, each one batched call.  Returns once every rank
    has frozen or run max_iter iterations, or another group has failed."""
    aborted = engine.exchange.aborted
    if len(engine.levels) > 1:  # one level (SDC): nothing to burn in on
        # rank r runs phases 0..r, and phase j in wavefront r + j
        for wave in range(first, 2 * stop - 1):
            if aborted.is_set():
                return
            engine.predictor_phase(max(first, (wave + 1) // 2),
                                   min(stop, wave + 1), wave)
        engine.predictor_finalize(first, stop)
    low = first  # the lowest rank still running
    for j in itertools.count(first + 1):
        # ranks below j - max_iter have run max_iter iterations, and rank
        # r starts iterating in round r + 1
        low = max(low, j - engine.max_iter)
        if low >= stop or aborted.is_set():
            return
        low += engine.rank_iteration(low, min(stop, j), j, block)


def _run_block(engine: _BlockEngine, block: int, workers: int) -> None:
    """Runs the block on `workers` threads, each running `_run_group` on a
    contiguous group of ranks; the calling thread runs the first group.
    A group reads only messages its predecessor group sends, so none
    waits for a later one.  A group that raises stops the others, and the
    first such exception is raised here after the join."""
    exchange = engine.exchange
    failures: list[BaseException] = []

    def run(first: int, stop: int) -> None:
        try:
            _run_group(engine, block, first, stop)
        except _Aborted:
            pass
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            exchange.abort()

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
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError("tolerance must be finite and non-negative")
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}")
    if p < 1 or blocks < 1 or max_iter < 1:
        raise ValueError("need at least one rank, block and iteration")
    if len(levels) == 1 and p > 1:
        # on one level a rank never receives its predecessor's values
        raise ValueError("pipelining over ranks needs at least two levels")
    workers = 1 if executor == "serial" else min(p, os.cpu_count() or 1)
    dt = t_end / (p * blocks)
    result = PfasstResult(u=u0)
    for block in range(blocks):
        exchange = _Exchange(p, blocking=workers > 1)
        engine = _BlockEngine(levels, dt, tol, max_iter, exchange, result.u,
                              p, record_final_values=record_final_values)
        _run_block(engine, block, workers)
        result.u = engine.states[0].y[-1, -1].copy()
        result.rank_iterations.append(list(engine.iterations))
        result.rank_vcycles.append(engine.vcycles.tolist())
        result.converged.append(list(engine.converged))
        # threaded workers append trace rows in wall-clock order; normalize
        result.trace.extend(sorted(
            engine.trace, key=lambda r: (r.iteration, r.rank, r.level)))
        result.final_values.append(list(engine.final_values))
    return result
