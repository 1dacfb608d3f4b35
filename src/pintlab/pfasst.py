"""Pipelined MLSDC across a block of time steps (PFASST / IPFASST).

This is pintlab's one time-stepping engine: serial MLSDC is PFASST on one
rank with one block per step, and SDC is MLSDC on one level.

Each time step of a block is owned by one rank.  A rank's iteration
receives one message from its predecessor, runs one MLSDC pass, and sends
one to its successor: its fine and coarsest final-node values and its
converged flag.  A rank freezes once it and its predecessor have
converged; it then stops, and its successor keeps the last values.

Each rank's part of a block is written once, as the generator
`_rank_steps`.  The serial executor steps the ranks' generators in one
round robin, which fixes the normative message schedule; the threaded
executor runs each generator in its own thread.  Both exchange messages
through the same FIFO channel from each rank to its successor, so they
produce bitwise-identical iterates.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import (Level, TimeStep, burn_in, check_hierarchy,
                        interpolate_up, mlsdc_iteration)
from .sdc import residual


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
    """Raised in a rank thread when another rank's thread has failed."""


_ABORT = object()  # tag of the message that wakes a blocked receiver


class _Channel:
    """FIFO channel from one rank to its successor.

    Each message is received once, in send order, under exactly the tag it
    was sent with; any other tag raises.  A blocking channel (threaded
    executor) waits for the next message.  A non-blocking one (serial
    executor) raises at once when none was sent, since no other rank can
    send it while the receiver runs.
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
    """Shared state and per-rank procedures for one block of steps."""

    def __init__(self, levels, dt, tol, max_iter, exchange, u0, p,
                 record_final_values=False):
        self.levels = levels
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        self.exchange = exchange
        self.p = p
        # every rank starts from the same spread, which stays read-only
        self.spread = TimeStep.spread(levels, u0).states
        for states in self.spread:
            states.y.flags.writeable = states.f.flags.writeable = False
        self.steps = [TimeStep(levels, [s.copy() for s in self.spread],
                               [None] * len(levels)) for _ in range(p)]
        self.vcycles = [0] * p
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
    def predictor_phase(self, rank: int, phase: int) -> None:
        ts = self.steps[rank]
        coarsest = len(self.levels) - 1
        if coarsest == 0:
            return  # one level (SDC): nothing coarser to burn in on
        if phase < rank:
            # at phase == rank the predecessor's predictor has ended, and
            # the value received at phase rank - 1 is still the coarsest
            # node 0
            ts.states[coarsest].y[0] = self.exchange[rank - 1].recv(
                ("pred", phase))
        self.vcycles[rank] += burn_in(ts, self.dt)
        self.send(rank, ("pred", phase), ts.states[coarsest].y[-1].copy())

    def predictor_finalize(self, rank: int) -> None:
        if len(self.levels) == 1:
            return  # nothing was burnt in
        interpolate_up(self.steps[rank], self.spread)

    # ------------------------------------------------------------------
    # main iteration
    def rank_iteration(self, rank: int, k: int, block: int) -> bool:
        """One PFASST iteration of one rank; returns the converged flag."""
        ts = self.steps[rank]
        coarse_y0 = None
        if rank > 0:
            ts.states[0].y[0], coarse_y0 = self.receive(rank, k)
        cycles = mlsdc_iteration(ts, self.dt, coarse_y0)
        res = residual(ts.states[0], self.dt)
        converged = res <= self.tol and self.pred_frozen_at[rank] <= k
        fine = ts.states[0].y[-1].copy()
        self.send(rank, ("it", k),
                  (fine, ts.states[-1].y[-1].copy(), converged))
        with self._lock:
            self.vcycles[rank] += cycles
            self.iterations[rank] = k
            self.converged[rank] = converged
            self.trace.append(TraceRow(block, rank, k, 0, res, cycles))
            if self.record_final_values and rank == self.p - 1:
                self.final_values.append(fine)
        return converged


def _rank_steps(engine: _BlockEngine, rank: int, block: int):
    """One rank's part of a block: predictor phases 0..rank, then its
    iterations.  Yields after each phase and each iteration; returns once
    the rank freezes or has run max_iter iterations."""
    for phase in range(rank + 1):
        engine.predictor_phase(rank, phase)
        yield
    engine.predictor_finalize(rank)
    for k in range(1, engine.max_iter + 1):
        if engine.rank_iteration(rank, k, block):
            return
        yield


def _run_block_serial(engine: _BlockEngine, block: int) -> None:
    """Steps the rank programs round robin, in rank order, until each has
    returned; this order is the normative message schedule.  In round j a
    rank r runs predictor phase j if j <= r, and its iteration j - r
    after that, so its predecessor has sent every message it reads: in the
    same round (phase j) or in the round before (iteration j - r)."""
    ranks = [_rank_steps(engine, r, block) for r in range(engine.p)]
    done = object()
    while ranks:
        ranks = [steps for steps in ranks if next(steps, done) is not done]


def _run_block_threaded(engine: _BlockEngine, block: int) -> None:
    """Runs each rank's program in its own thread.  A rank that raises
    stops the others, and the first such exception is raised here after
    the join."""
    exchange = engine.exchange
    failures: list[BaseException] = []

    def worker(rank: int):
        try:
            for _ in _rank_steps(engine, rank, block):
                if exchange.aborted.is_set():
                    return
        except _Aborted:
            pass
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            exchange.abort()

    # each rank runs in a copy of the caller's context, so that NumPy's
    # error state (np.errstate) holds in the rank threads too
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(worker, r)) for r in range(engine.p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


_EXECUTORS = {"serial": _run_block_serial, "threaded": _run_block_threaded}


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
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}")
    if p < 1 or blocks < 1 or max_iter < 1:
        raise ValueError("need at least one rank, block and iteration")
    if len(levels) == 1 and p > 1:
        # on one level a rank never receives its predecessor's values
        raise ValueError("pipelining over ranks needs at least two levels")
    dt = t_end / (p * blocks)
    result = PfasstResult(u=u0)
    for block in range(blocks):
        exchange = _Exchange(p, blocking=executor == "threaded")
        engine = _BlockEngine(levels, dt, tol, max_iter, exchange, result.u,
                              p, record_final_values=record_final_values)
        _EXECUTORS[executor](engine, block)
        result.u = engine.steps[-1].states[0].y[-1].copy()
        result.rank_iterations.append(list(engine.iterations))
        result.rank_vcycles.append(list(engine.vcycles))
        result.converged.append(list(engine.converged))
        # threaded workers append trace rows in wall-clock order; normalize
        result.trace.extend(sorted(
            engine.trace, key=lambda r: (r.iteration, r.rank, r.level)))
        result.final_values.append(list(engine.final_values))
    return result
