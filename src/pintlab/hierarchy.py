"""Multi-level SDC: level hierarchy, FAS corrections, and the V-shaped
iteration over levels.

Level transfers use pointwise node selection in time and, in space,
either full-weighting (the default, which filters the high-wavenumber
content that the fine operator would otherwise amplify into the FAS
correction) or pointwise injection, on the way down; the way up combines
Lagrange time interpolation with linear or cubic spatial interpolation.
FAS corrections accumulate through the hierarchy so that every coarse
equation stays consistent with the finest level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .heat import HeatOperator
from .multigrid import MgConfig, SolvePolicy
from .quadrature import (TRANSFER_CACHE_SIZE, NodeSet, QuadratureTable,
                         correction_interpolation, time_restriction)
from .sdc import NodeStates, residual, sdc_sweep
from .transfers import full_weighting, inject, interp_cubic, interp_linear

if TYPE_CHECKING:
    from .pfasst import PfasstResult


@dataclass(frozen=True)
class Level:
    operator: HeatOperator
    table: QuadratureTable
    mg_cfg: MgConfig
    policy: SolvePolicy
    space_interp_order: int = 2
    space_restrict: str = "full-weighting"

    def __post_init__(self):
        if self.space_interp_order not in (2, 4):
            raise ValueError("space_interp_order must be 2 or 4")
        if self.space_restrict not in ("full-weighting", "inject"):
            raise ValueError(
                "space_restrict must be 'full-weighting' or 'inject'")

    @property
    def grid(self):
        return self.operator.grid


def check_hierarchy(levels: list[Level]) -> None:
    """Validate fine-to-coarse ordering constraints between adjacent levels."""
    if not levels:
        raise ValueError("need at least one level")
    for fine, coarse in zip(levels, levels[1:]):
        if coarse.grid.n not in (fine.grid.n, fine.grid.n // 2):
            raise ValueError(
                f"coarse grid n={coarse.grid.n} must equal fine n or half of "
                f"fine n={fine.grid.n}")
        if coarse.grid.dim != fine.grid.dim or coarse.grid.length != fine.grid.length:
            raise ValueError("levels must share dimension and domain size")
        if coarse.table.m > fine.table.m:
            raise ValueError("coarse level may not have more nodes than fine")
        if coarse.operator.order > fine.operator.order:
            raise ValueError("coarse stencil order may not exceed fine")
        time_restriction(fine.table.nodes, coarse.table.nodes)  # nesting


def restrict_space(u: np.ndarray, fine: Level, coarse: Level) -> np.ndarray:
    if coarse.grid.n == fine.grid.n:
        return u.copy()
    if fine.space_restrict == "inject":
        return inject(u)
    return full_weighting(u)


def _space_interp(u: np.ndarray, fine: Level, coarse: Level) -> np.ndarray:
    if coarse.grid.n == fine.grid.n:
        return u
    if fine.space_interp_order == 2:
        return interp_linear(u)
    return interp_cubic(u)


@lru_cache(maxsize=TRANSFER_CACHE_SIZE)
def _time_indices(fine: NodeSet, coarse: NodeSet) -> tuple[int, ...]:
    """Index of the fine node at each coarse node."""
    r = time_restriction(fine, coarse)
    return tuple(int(np.argmax(row)) for row in r)


def restrict_state(fine_states: NodeStates, fine: Level,
                   coarse: Level) -> NodeStates:
    """Node selection in time, spatial restriction per the fine level's
    policy; the coarse f-cache is recomputed."""
    idx = _time_indices(fine.table.nodes, coarse.table.nodes)
    y = np.stack([restrict_space(fine_states.y[i], fine, coarse) for i in idx])
    states = NodeStates(coarse.table, y, np.empty_like(y))
    states.refresh(coarse.operator)
    return states


def compute_fas(fine_states: NodeStates, coarse_states: NodeStates,
                fine: Level, coarse: Level, dt: float,
                fine_tau: np.ndarray | None = None) -> np.ndarray:
    """FAS correction: restricted fine node integrals minus coarse node
    integrals of the restricted state, plus any correction already present
    on the fine level."""
    fine_int = dt * np.tensordot(fine.table.q, fine_states.f, axes=(1, 0))
    if fine_tau is not None:
        fine_int = fine_int + fine_tau
    idx = _time_indices(fine.table.nodes, coarse.table.nodes)
    restricted_int = np.stack(
        [restrict_space(fine_int[i], fine, coarse) for i in idx])
    coarse_int = dt * np.tensordot(coarse.table.q, coarse_states.f, axes=(1, 0))
    return restricted_int - coarse_int


def coarse_correction(fine_states: NodeStates, old_restricted: NodeStates,
                      new_coarse: NodeStates, fine: Level,
                      coarse: Level) -> None:
    """Interpolate the coarse update onto the fine nodes, in place."""
    delta = new_coarse.y - old_restricted.y
    p_t = correction_interpolation(coarse.table.nodes, fine.table.nodes)
    delta_t = np.tensordot(p_t, delta, axes=(1, 0))
    for m in range(fine.table.m + 1):
        fine_states.y[m] = fine_states.y[m] + _space_interp(
            delta_t[m], fine, coarse)
    fine_states.refresh(fine.operator)


@dataclass
class TimeStep:
    """Mutable working state of one time step across the level hierarchy."""

    levels: list[Level]
    states: list[NodeStates]
    y0: list[np.ndarray]
    tau: list[np.ndarray | None]  # FAS corrections; None until set

    @classmethod
    def spread(cls, levels: list[Level], u0: np.ndarray) -> "TimeStep":
        """All nodes of all levels initialized with the initial value."""
        states, y0s = [], []
        u = u0
        prev = None
        for lvl in levels:
            if prev is not None:
                u = restrict_space(u, prev, lvl)
            states.append(NodeStates.spread(lvl.operator, lvl.table, u))
            y0s.append(u.copy())
            prev = lvl
        return cls(levels=levels, states=states, y0=y0s,
                   tau=[None] * len(levels))

    def fine_residual(self, dt: float) -> float:
        return residual(self.states[0], self.y0[0], dt)


class Hooks:
    """Extension points used by the time-parallel engine; no-ops here."""

    def pre_coarse_sweep(self, ts: TimeStep) -> None:
        pass

    def post_sweep(self, level_idx: int, ts: TimeStep) -> None:
        pass


def mlsdc_iteration(ts: TimeStep, dt: float, hooks: Hooks | None = None) -> int:
    """One V-shaped pass over the hierarchy.  Returns V-cycles consumed.

    A single-level hierarchy degenerates to one plain sweep.
    """
    hooks = hooks or Hooks()
    levels, states = ts.levels, ts.states
    n_lvl = len(levels)
    old_restricted: list[NodeStates | None] = [None] * n_lvl
    for l in range(n_lvl - 1):
        restricted = restrict_state(states[l], levels[l], levels[l + 1])
        ts.tau[l + 1] = compute_fas(states[l], restricted, levels[l],
                                    levels[l + 1], dt, fine_tau=ts.tau[l])
        old_restricted[l + 1] = restricted.copy()
        states[l + 1] = restricted
        ts.y0[l + 1] = restricted.y[0].copy()

    hooks.pre_coarse_sweep(ts)  # may replace the coarsest initial value
    lc = n_lvl - 1
    cycles = sdc_sweep(states[lc], ts.y0[lc], dt, levels[lc].operator,
                       levels[lc].mg_cfg, levels[lc].policy, tau=ts.tau[lc])
    hooks.post_sweep(lc, ts)

    for l in range(n_lvl - 2, -1, -1):
        coarse_correction(states[l], old_restricted[l + 1], states[l + 1],
                          levels[l], levels[l + 1])
        ts.y0[l] = states[l].y[0].copy()
        cycles += sdc_sweep(states[l], ts.y0[l], dt, levels[l].operator,
                            levels[l].mg_cfg, levels[l].policy, tau=ts.tau[l])
        hooks.post_sweep(l, ts)
    return cycles


def burn_in(ts: TimeStep, dt: float) -> int:
    """One coarsest-level sweep, used to seed a freshly spread step."""
    lc = len(ts.levels) - 1
    lvl = ts.levels[lc]
    return sdc_sweep(ts.states[lc], ts.y0[lc], dt, lvl.operator, lvl.mg_cfg,
                     lvl.policy, tau=ts.tau[lc])


def interpolate_up(ts: TimeStep, spread_copies: list[NodeStates],
                   exact_y0: np.ndarray | None = None) -> None:
    """Propagate the burn-in coarse state to the finer levels.

    `spread_copies[l]` is the pre-burn-in state of level l (the restriction
    of the spread fine state).  When `exact_y0` is given, the fine initial
    value is pinned to it afterwards (rank 0 / serial semantics).
    """
    levels, states = ts.levels, ts.states
    for l in range(len(levels) - 2, -1, -1):
        coarse_correction(states[l], spread_copies[l + 1], states[l + 1],
                          levels[l], levels[l + 1])
        ts.y0[l] = states[l].y[0].copy()
    if exact_y0 is not None:
        ts.y0[0] = exact_y0.copy()
        ts.states[0].y[0] = exact_y0
        ts.states[0].f[0] = levels[0].operator.apply(exact_y0)


def run_mlsdc(levels: list[Level], u0: np.ndarray, t_end: float, n_steps: int,
              tol: float, max_iter: int) -> PfasstResult:
    """Serial MLSDC/IMLSDC time stepping with per-step convergence control:
    PFASST on one rank, one block per step."""
    from .pfasst import pfasst_run  # pfasst imports this module

    return pfasst_run(levels, u0, t_end, p=1, blocks=n_steps, tol=tol,
                      max_iter=max_iter)
