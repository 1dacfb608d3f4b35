"""Pipelined MLSDC across a block of time steps (PFASST / IPFASST).

Each time step of a block is owned by one rank.  A rank's iteration
receives the freshest initial values from its predecessor (blocking on the
coarsest level), runs one MLSDC pass, and forwards its final-node values
per level.  The serial executor defines the normative message schedule;
the threaded executor replays exactly that schedule through FIFO channels
and produces bitwise-identical iterates.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import (Hooks, Level, TimeStep, burn_in, check_hierarchy,
                        coarse_correction, interpolate_up, mlsdc_iteration)
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


class _SerialExchange:
    """Message board for the round-robin executor; tags stay readable."""

    def __init__(self):
        self._board: dict[tuple, object] = {}

    def send(self, sender: int, level: int, tag, payload) -> None:
        self._board[(sender, level, tag)] = payload

    def recv(self, sender: int, level: int, tag):
        return self._board[(sender, level, tag)]


class _Aborted(Exception):
    """Raised in a rank thread when another rank's thread has failed."""


_ABORT = object()  # tag of the message that wakes a blocked receiver


class _Channel:
    """FIFO single-producer/single-consumer channel with tag memory.

    Tags arrive in the producer's send order; the consumer may re-read the
    most recently delivered tag (the predictor schedule needs this).
    """

    def __init__(self):
        self._q: queue.Queue = queue.Queue()
        self._last = None

    def send(self, tag, payload) -> None:
        self._q.put((tag, payload))

    def recv(self, tag):
        if self._last is not None and self._last[0] == tag:
            return self._last[1]
        while True:
            got_tag, payload = self._q.get()
            if got_tag is _ABORT:
                raise _Aborted
            self._last = (got_tag, payload)
            if got_tag == tag:
                return payload


class _ThreadedExchange:
    def __init__(self, n_ranks: int, n_levels: int):
        self._channels = {(r, l): _Channel()
                          for r in range(n_ranks) for l in range(n_levels)}
        self.aborted = threading.Event()

    def send(self, sender: int, level: int, tag, payload) -> None:
        self._channels[(sender, level)].send(tag, payload)

    def recv(self, sender: int, level: int, tag):
        return self._channels[(sender, level)].recv(tag)

    def abort(self) -> None:
        """Stop every rank: receivers, blocked or not yet, raise _Aborted
        once the messages sent before the abort are used up."""
        self.aborted.set()
        for channel in self._channels.values():
            channel.send(_ABORT, None)


class _RankHooks(Hooks):
    """Wires the coarse-level blocking receive and per-level sends into
    the MLSDC pass of one rank."""

    def __init__(self, engine: "_BlockEngine", rank: int, k: int):
        self.engine = engine
        self.rank = rank
        self.k = k

    def pre_coarse_sweep(self, ts: TimeStep) -> None:
        if self.rank > 0:
            coarsest = len(ts.levels) - 1
            payload = self.engine.exchange.recv(
                self.rank - 1, coarsest, ("it", self.k))
            ts.y0[coarsest] = payload

    def post_sweep(self, level_idx: int, ts: TimeStep) -> None:
        if level_idx == 0:
            return  # the fine send carries the convergence flag, sent later
        self.engine.send(self.rank, level_idx,
                         ("it", self.k), ts.states[level_idx].y[-1])


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
        self.steps = [TimeStep.spread(levels, u0) for _ in range(p)]
        self.spread_copies = [[s.copy() for s in ts.states]
                              for ts in self.steps]
        self.vcycles = [0] * p
        self.iterations = [0] * p
        self.converged = [False] * p
        self.frozen_payload: list[dict] = [dict() for _ in range(p)]
        self.trace: list[TraceRow] = []
        self.record_final_values = record_final_values
        self.final_values: list[np.ndarray] = []
        self._lock = threading.Lock()

    def send(self, rank: int, level: int, tag, payload) -> None:
        snapshot = payload.copy()
        self.frozen_payload[rank][level] = snapshot
        if rank + 1 < self.p:
            self.exchange.send(rank, level, tag, snapshot)

    def send_fine(self, rank: int, tag, payload, converged: bool) -> None:
        snapshot = payload.copy()
        self.frozen_payload[rank][0] = snapshot
        if rank + 1 < self.p:
            self.exchange.send(rank, 0, tag, (snapshot, converged))

    def resend(self, rank: int, k: int) -> None:
        """A frozen rank replays its last values under the current tag."""
        if rank + 1 >= self.p:
            return
        for level, payload in self.frozen_payload[rank].items():
            msg = (payload, True) if level == 0 else payload
            self.exchange.send(rank, level, ("it", k), msg)

    # ------------------------------------------------------------------
    # predictor
    def predictor_phase(self, rank: int, phase: int) -> None:
        ts = self.steps[rank]
        coarsest = len(self.levels) - 1
        if rank > 0:
            tag = ("pred", min(phase, rank - 1))
            payload = self.exchange.recv(rank - 1, coarsest, tag)
            ts.y0[coarsest] = payload
        self.vcycles[rank] += burn_in(ts, self.dt, 1)
        if rank + 1 < self.p:
            self.exchange.send(rank, coarsest, ("pred", phase),
                               ts.states[coarsest].y[-1].copy())

    def predictor_finalize(self, rank: int) -> None:
        ts = self.steps[rank]
        exact = ts.y0[0] if rank == 0 else None
        interpolate_up(ts, self.spread_copies[rank], exact_y0=exact)

    # ------------------------------------------------------------------
    # main iteration
    def rank_iteration(self, rank: int, k: int, block: int) -> bool:
        """One PFASST iteration of one rank; returns the converged flag."""
        ts = self.steps[rank]
        pred_converged = rank == 0
        if rank > 0:
            for level in range(len(self.levels) - 1):
                msg = self.exchange.recv(rank - 1, level, ("it", k))
                if level == 0:
                    payload, pred_converged = msg
                else:
                    payload = msg
                ts.y0[level] = payload
                ts.states[level].y[0] = payload
                ts.states[level].f[0] = self.levels[level].operator.apply(payload)
        cycles = mlsdc_iteration(ts, self.dt, hooks=_RankHooks(self, rank, k))
        res = ts.fine_residual(self.dt)
        converged = res <= self.tol and pred_converged
        self.send_fine(rank, ("it", k), ts.states[0].y[-1], converged)
        with self._lock:
            self.vcycles[rank] += cycles
            self.iterations[rank] = k
            self.converged[rank] = converged
            self.trace.append(TraceRow(block, rank, k, 0, res, cycles))
            if self.record_final_values and rank == self.p - 1:
                self.final_values.append(ts.states[0].y[-1].copy())
        return converged


def _run_block_serial(engine: _BlockEngine, block: int) -> None:
    p = engine.p
    for phase in range(p):
        for rank in range(phase, p):
            engine.predictor_phase(rank, phase)
    for rank in range(p):
        engine.predictor_finalize(rank)
    frozen = [False] * p
    for k in range(1, engine.max_iter + 1):
        for rank in range(p):
            if frozen[rank]:
                engine.resend(rank, k)
            else:
                frozen[rank] = engine.rank_iteration(rank, k, block)
        if frozen[-1]:
            break


def _run_block_threaded(engine: _BlockEngine, block: int) -> None:
    """Runs each rank in its own thread.  A rank that raises stops the
    others, and the first such exception is raised here after the join."""
    p = engine.p
    exchange = engine.exchange
    failures: list[BaseException] = []

    def run_rank(rank: int):
        for phase in range(0, rank + 1):
            engine.predictor_phase(rank, phase)
        engine.predictor_finalize(rank)
        frozen = False
        for k in range(1, engine.max_iter + 1):
            if exchange.aborted.is_set():
                return
            if frozen:
                engine.resend(rank, k)
            else:
                frozen = engine.rank_iteration(rank, k, block)
            # successors past the last rank never exist; a frozen chain
            # ends the block once the final rank freezes
            if rank == p - 1 and frozen:
                break

    def worker(rank: int):
        try:
            run_rank(rank)
        except _Aborted:
            pass
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)
            exchange.abort()

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def pfasst_run(levels: list[Level], u0: np.ndarray, t_end: float, p: int,
               blocks: int = 1, tol: float = 1e-9, max_iter: int = 20,
               executor: str = "serial",
               record_final_values: bool = False) -> PfasstResult:
    """Run PFASST/IPFASST over `blocks` consecutive windows of `p` steps."""
    check_hierarchy(levels)
    if executor not in ("serial", "threaded"):
        raise ValueError(f"unknown executor {executor!r}")
    if p < 1 or blocks < 1:
        raise ValueError("need at least one rank and one block")
    dt = t_end / (p * blocks)
    result = PfasstResult(u=u0)
    u = u0
    for block in range(blocks):
        exchange = (_SerialExchange() if executor == "serial"
                    else _ThreadedExchange(p, len(levels)))
        engine = _BlockEngine(levels, dt, tol, max_iter, exchange, u, p,
                              record_final_values=record_final_values)
        if executor == "serial":
            _run_block_serial(engine, block)
        else:
            _run_block_threaded(engine, block)
        u = engine.steps[-1].states[0].y[-1].copy()
        result.rank_iterations.append(list(engine.iterations))
        result.rank_vcycles.append(list(engine.vcycles))
        result.converged.append(list(engine.converged))
        # threaded workers append trace rows in wall-clock order; normalize
        result.trace.extend(sorted(
            engine.trace, key=lambda r: (r.iteration, r.rank, r.level)))
        result.final_values.append(list(engine.final_values))
    result.u = u
    return result


def predictor_sweep_counts(p: int) -> list[int]:
    """Coarse burn-in sweeps per rank under the pipelined schedule."""
    return [n + 1 for n in range(p)]


def write_trace_csv(rows: list[TraceRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("block,rank,iter,level,residual,vcycles\n")
        for r in rows:
            fh.write(f"{r.block},{r.rank},{r.iteration},{r.level},"
                     f"{r.residual:.16e},{r.vcycles}\n")
