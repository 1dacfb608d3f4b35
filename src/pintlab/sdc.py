"""Single-level spectral deferred corrections with exact or inexact solves.

Node states bundle the solution values Y at all nodes of the time steps
of a batch of ranks (node 0 holds each step's initial value) together
with a cache of operator applications F = A*Y at the quadrature nodes
1..M only: column 0 of Q is zero, so no integral reads A*Y at node 0.
The arrays are node-first, (node, rank, *grid), so one node's values of
all ranks form one stack of grids, which every operator and solve takes
in one call.  The nodes are uniform, M per level (t_i = i/M), so every
sub-step spans the same fraction 1/M of the step.  The sweep solves one
backward-Euler-type system per sub-step, all with one shifted operator;
how those systems are solved (direct, fixed V-cycle budget, or to
tolerance) is a policy decision of the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import multigrid
from .multigrid import MgConfig, MultigridError, SolvePolicy
from .quadrature import QuadratureTable, node_dot

if TYPE_CHECKING:
    from .pfasst import PfasstResult

COLLOCATION_DOF_LIMIT = 50_000


class NodeStates:
    """Solution values y at all M+1 nodes, and cached right-hand sides f at
    the M quadrature nodes: f[m] = A y[m + 1].  Node 0 carries no
    quadrature weight, so its right-hand side is never kept.  y has shape
    (M + 1, ranks, *grid), f (M, ranks, *grid)."""

    __slots__ = ("table", "y", "f")

    def __init__(self, table: QuadratureTable, y: np.ndarray, f: np.ndarray):
        self.table = table
        self.y = y
        self.f = f

    @classmethod
    def spread(cls, op, table: QuadratureTable, y0: np.ndarray) -> "NodeStates":
        """All nodes initialized with the initial values y0, one grid
        per rank."""
        y = np.repeat(y0[None], table.m + 1, axis=0)
        f = np.repeat(op.apply(y0)[None], table.m, axis=0)
        return cls(table, y, f)

    def refresh(self, op) -> None:
        """f recomputed from y, in place, in one apply over all nodes."""
        self.f[...] = op.apply(self.y[1:])


def collocation_solve(op, table: QuadratureTable, y0: np.ndarray,
                      dt: float) -> NodeStates:
    """Dense solve of the collocation system from one grid value y0; the
    ground-truth oracle.  Returns the states of one rank."""
    dof = y0.size
    if (table.m + 1) * dof > COLLOCATION_DOF_LIMIT:
        raise ValueError(
            f"collocation system too large: {(table.m + 1) * dof} unknowns")
    a = multigrid.operator_matrix(op).toarray()
    system = np.eye((table.m + 1) * dof) - dt * np.kron(table.q, a)
    rhs = np.tile(y0.ravel(), table.m + 1)
    sol = np.linalg.solve(system, rhs)
    y = sol.reshape((table.m + 1, 1) + y0.shape)
    states = NodeStates(table, y, np.empty_like(y[1:]))
    states.refresh(op)
    return states


class SubStepError(RuntimeError):
    """Multigrid failure inside a sweep, annotated with the sub-step."""

    def __init__(self, substep: int, cause: MultigridError):
        super().__init__(f"sub-step {substep}: {cause}")
        self.substep = substep
        self.cause = cause


def sdc_sweep(states: NodeStates, dt: float, op, mg_cfg: MgConfig,
              policy: SolvePolicy,
              tau: np.ndarray | None = None) -> np.ndarray:
    """One sweep through the sub-steps from node 0's value, in place, for
    every rank of the states.  Returns the V-cycles each rank used.

    Each implicit system is warm-started with the previous iterate of the
    node being updated.
    """
    # node-to-node integrals of the previous iterate, computed up front
    # (scaled in place: these node-first arrays of all ranks are a sweep's
    # largest temporaries)
    s = node_dot(states.table.step_weights, states.f)
    s *= dt
    cycles = np.zeros(states.y.shape[1], int)
    # uniform nodes: every sub-step has the same fraction, so one shift
    dtm = states.table.gamma * dt
    shifted = multigrid.shifted_operator(op, dtm)
    for m in range(states.table.m):
        rhs = states.y[m] - dtm * states.f[m] + s[m]
        if tau is not None:
            rhs = rhs + (tau[m + 1] - tau[m])
        try:
            result = multigrid.solve(shifted, states.y[m + 1], rhs, mg_cfg,
                                     policy)
        except MultigridError as exc:
            raise SubStepError(m + 1, exc) from exc
        states.y[m + 1] = result.u
        states.f[m] = op.apply(result.u)
        cycles += result.cycles
    return cycles


def residual(states: NodeStates, dt: float) -> np.ndarray:
    """Per rank, the max over nodes of the max-norm of the collocation
    residual."""
    # y[0] + dt * (Q F) - y, in place in one temporary
    r = node_dot(states.table.weights, states.f)
    r *= dt
    r += states.y[0]
    r -= states.y
    np.abs(r, out=r)
    return np.max(r.reshape(r.shape[:2] + (-1,)), axis=(0, 2))


def run_sdc(op, table: QuadratureTable, u0: np.ndarray, t_end: float,
            n_steps: int, tol: float, max_iter: int, mg_cfg: MgConfig,
            policy: SolvePolicy) -> PfasstResult:
    """Serial SDC (or ISDC, depending on the policy) over n_steps steps:
    MLSDC on one level, run as PFASST on one rank.

    Each step sweeps until the residual drops below tol or max_iter is
    reached; exhaustion is recorded and the run continues.
    """
    # hierarchy and pfasst import this module
    from .hierarchy import Level
    from .pfasst import pfasst_run

    return pfasst_run([Level(op, table, mg_cfg, policy)], u0, t_end, p=1,
                      blocks=n_steps, tol=tol, max_iter=max_iter)
