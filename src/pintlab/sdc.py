"""Single-level spectral deferred corrections with exact or inexact solves.

Node states bundle the solution values Y at all quadrature nodes of one
time step together with a cache of operator applications F = A*Y.  The
sweep solves one backward-Euler-type system per sub-step; how those
systems are solved (direct, fixed V-cycle budget, or to tolerance) is a
policy decision of the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import multigrid
from .heat import DiagonalOperator, HeatOperator
from .multigrid import MgConfig, MultigridError, SolvePolicy
from .quadrature import QuadratureTable

if TYPE_CHECKING:
    from .pfasst import PfasstResult

COLLOCATION_DOF_LIMIT = 50_000


class NodeStates:
    """Solution values y and cached right-hand sides f at all nodes."""

    __slots__ = ("table", "y", "f")

    def __init__(self, table: QuadratureTable, y: np.ndarray, f: np.ndarray):
        self.table = table
        self.y = y
        self.f = f

    @classmethod
    def spread(cls, op, table: QuadratureTable, y0: np.ndarray) -> "NodeStates":
        """All nodes initialized with the initial value."""
        y = np.repeat(y0[None], table.m + 1, axis=0)
        f0 = op.apply(y0)
        f = np.repeat(f0[None], table.m + 1, axis=0)
        return cls(table, y, f)

    def copy(self) -> "NodeStates":
        return NodeStates(self.table, self.y.copy(), self.f.copy())

    def refresh(self, op) -> None:
        for m in range(self.table.m + 1):
            self.f[m] = op.apply(self.y[m])


def _dense_operator(op) -> np.ndarray:
    if isinstance(op, DiagonalOperator):
        return np.diag(op.diag)
    if isinstance(op, HeatOperator):
        return multigrid.operator_matrix(op).toarray()
    raise TypeError(f"no dense form for operator {op!r}")


def collocation_solve(op, table: QuadratureTable, y0: np.ndarray,
                      dt: float) -> NodeStates:
    """Dense solve of the collocation system; the ground-truth oracle."""
    dof = y0.size
    if (table.m + 1) * dof > COLLOCATION_DOF_LIMIT:
        raise ValueError(
            f"collocation system too large: {(table.m + 1) * dof} unknowns")
    a = _dense_operator(op)
    system = np.eye((table.m + 1) * dof) - dt * np.kron(table.q, a)
    rhs = np.tile(y0.ravel(), table.m + 1)
    sol = np.linalg.solve(system, rhs)
    y = sol.reshape((table.m + 1,) + y0.shape)
    states = NodeStates(table, y, np.empty_like(y))
    states.refresh(op)
    return states


class SubStepError(RuntimeError):
    """Multigrid failure inside a sweep, annotated with the sub-step."""

    def __init__(self, substep: int, cause: MultigridError):
        super().__init__(f"sub-step {substep}: {cause}")
        self.substep = substep
        self.cause = cause


def sdc_sweep(states: NodeStates, y0: np.ndarray, dt: float, op,
              mg_cfg: MgConfig, policy: SolvePolicy,
              tau: np.ndarray | None = None) -> int:
    """One sweep through the sub-steps, in place.  Returns V-cycles used.

    Each implicit system is warm-started with the previous iterate of the
    node being updated.
    """
    table = states.table
    q = table.q
    # node-to-node integrals of the previous iterate, computed up front
    s = dt * np.tensordot(q[1:] - q[:-1], states.f, axes=(1, 0))
    states.y[0] = y0
    states.f[0] = op.apply(y0)
    gammas = table.nodes.gammas
    cycles = 0
    for m in range(table.m):
        dtm = float(gammas[m]) * dt
        rhs = states.y[m] - dtm * states.f[m + 1] + s[m]
        if tau is not None:
            rhs = rhs + (tau[m + 1] - tau[m])
        shifted = multigrid.shifted_operator(op, dtm)
        try:
            result = multigrid.solve(shifted, states.y[m + 1].copy(), rhs,
                                     mg_cfg, policy)
        except MultigridError as exc:
            raise SubStepError(m + 1, exc) from exc
        states.y[m + 1] = result.u
        states.f[m + 1] = op.apply(result.u)
        cycles += result.cycles
    return cycles


def residual(states: NodeStates, y0: np.ndarray, dt: float,
             tau: np.ndarray | None = None) -> float:
    """Max over nodes of the max-norm of the collocation residual."""
    r = y0[None] + dt * np.tensordot(states.table.q, states.f, axes=(1, 0)) \
        - states.y
    if tau is not None:
        r = r + tau
    return float(np.max(np.abs(r)))


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

    if n_steps < 1:
        raise ValueError("need at least one time step")
    return pfasst_run([Level(op, table, mg_cfg, policy)], u0, t_end, p=1,
                      blocks=n_steps, tol=tol, max_iter=max_iter)
