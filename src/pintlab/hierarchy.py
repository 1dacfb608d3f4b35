"""Multi-level SDC: level hierarchy, FAS corrections, and the V-shaped
iteration over levels.

The nodes are uniform, M per level, and a coarse level's nodes nest in
the fine level's, so time restriction is a stride over the node axis.
Level transfers use this pointwise node selection in time and, in space,
either full-weighting (the default, which filters the high-wavenumber
content that the fine operator would otherwise amplify into the FAS
correction) or pointwise injection, on the way down; the way up combines
Lagrange time interpolation with linear or cubic spatial interpolation.
FAS corrections accumulate through the hierarchy so that every coarse
equation stays consistent with the finest level.

A time step here is a batch of ranks' steps: node states are node-first
(node, rank, *grid) arrays, and every function acts on all nodes and
ranks of the batch at once, with one spatial transfer per level pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heat import HeatOperator
from .multigrid import MgConfig, SolvePolicy
from .quadrature import (QuadratureTable, correction_interpolation,
                         node_dot, time_restriction)
from .sdc import NodeStates, sdc_sweep
from .transfers import full_weighting, inject, interp_cubic, interp_linear


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
        time_restriction(fine.table.m, coarse.table.m)  # nesting


def restrict_space(u: np.ndarray, fine: Level, coarse: Level) -> np.ndarray:
    """A new array, sharing no memory with `u`."""
    if coarse.grid.n == fine.grid.n:
        return u.copy()
    if fine.space_restrict == "inject":
        return inject(u, fine.grid.dim).copy()
    return full_weighting(u, fine.grid.dim)


def _space_interp(u: np.ndarray, fine: Level, coarse: Level) -> np.ndarray:
    if coarse.grid.n == fine.grid.n:
        return u
    if fine.space_interp_order == 2:
        return interp_linear(u, fine.grid.dim)
    return interp_cubic(u, fine.grid.dim)


def restrict_state(fine_states: NodeStates, fine: Level,
                   coarse: Level) -> NodeStates:
    """Node selection in time, spatial restriction per the fine level's
    policy; the coarse f-cache is recomputed."""
    y = restrict_space(
        fine_states.y[time_restriction(fine.table.m, coarse.table.m)],
        fine, coarse)
    states = NodeStates(coarse.table, y, np.empty_like(y[1:]))
    states.refresh(coarse.operator)
    return states


def compute_fas(fine_states: NodeStates, coarse_states: NodeStates,
                fine: Level, coarse: Level, dt: float,
                fine_tau: np.ndarray | None = None) -> np.ndarray:
    """FAS correction: restricted fine node integrals minus coarse node
    integrals of the restricted state, plus any correction already present
    on the fine level."""
    fine_int = node_dot(fine.table.weights, fine_states.f)
    fine_int *= dt
    if fine_tau is not None:
        fine_int += fine_tau
    restricted_int = restrict_space(
        fine_int[time_restriction(fine.table.m, coarse.table.m)], fine,
        coarse)
    coarse_int = dt * node_dot(coarse.table.weights, coarse_states.f)
    return restricted_int - coarse_int


def coarse_correction(fine_states: NodeStates, old_coarse_y: np.ndarray,
                      new_coarse: NodeStates, fine: Level,
                      coarse: Level) -> None:
    """Interpolate the coarse update from the node values old_coarse_y onto
    the fine nodes, in place."""
    p_t = correction_interpolation(coarse.table.m, fine.table.m)
    fine_states.y += _space_interp(
        node_dot(p_t, new_coarse.y - old_coarse_y), fine, coarse)
    fine_states.refresh(fine.operator)


@dataclass
class TimeStep:
    """Working state of a batch of ranks' time steps, one NodeStates per
    level; level l starts from states[l].y[0]."""

    levels: list[Level]
    states: list[NodeStates]

    @classmethod
    def spread(cls, levels: list[Level], u0: np.ndarray) -> "TimeStep":
        """All nodes of all levels initialized with the initial values u0,
        one fine grid per rank."""
        states = []
        u = u0
        prev = None
        for lvl in levels:
            if prev is not None:
                u = restrict_space(u, prev, lvl)
            states.append(NodeStates.spread(lvl.operator, lvl.table, u))
            prev = lvl
        return cls(levels=levels, states=states)

    def sweep(self, l: int, dt: float,
              tau: np.ndarray | None = None) -> np.ndarray:
        """One sweep of level l from its node-0 values, with the FAS
        correction tau; returns each rank's V-cycles."""
        lvl, states = self.levels[l], self.states[l]
        return sdc_sweep(states, dt, lvl.operator, lvl.mg_cfg, lvl.policy,
                         tau=tau)


def mlsdc_iteration(ts: TimeStep, dt: float,
                    coarse_y0: np.ndarray | None = None) -> np.ndarray:
    """One V-shaped pass over the hierarchy, in place.  Returns the
    V-cycles of each rank.

    `coarse_y0`, when given, replaces the coarsest initial values of the
    last len(coarse_y0) ranks after the down pass: those that have a
    predecessor.  A single-level hierarchy degenerates to one
    plain sweep.
    """
    levels, states = ts.levels, ts.states
    lc = len(levels) - 1
    # FAS corrections, computed afresh on the way down
    tau: list[np.ndarray | None] = [None] * len(levels)
    old_coarse_y: list[np.ndarray | None] = [None] * len(levels)
    for l in range(lc):
        restricted = restrict_state(states[l], levels[l], levels[l + 1])
        tau[l + 1] = compute_fas(states[l], restricted, levels[l],
                                 levels[l + 1], dt, fine_tau=tau[l])
        old_coarse_y[l + 1] = restricted.y
        states[l + 1].y[...] = restricted.y
        states[l + 1].f[...] = restricted.f

    if coarse_y0 is not None:
        y0 = states[lc].y[0]
        y0[len(y0) - len(coarse_y0):] = coarse_y0
    cycles = ts.sweep(lc, dt, tau[lc])
    for l in range(lc - 1, -1, -1):
        coarse_correction(states[l], old_coarse_y[l + 1], states[l + 1],
                          levels[l], levels[l + 1])
        cycles += ts.sweep(l, dt, tau[l])
    return cycles


def burn_in(ts: TimeStep, dt: float) -> np.ndarray:
    """One coarsest-level sweep, used to seed freshly spread steps;
    returns each rank's V-cycles."""
    return ts.sweep(len(ts.levels) - 1, dt)


def interpolate_up(ts: TimeStep, spread: list[NodeStates]) -> None:
    """Propagate the burn-in coarse state to the finer levels.

    `spread[l]`, only read, is the pre-burn-in state of level l + 1
    (restricted from the spread fine state), for one rank or for each;
    the fine level's is not needed.
    """
    levels, states = ts.levels, ts.states
    for l in range(len(levels) - 2, -1, -1):
        coarse_correction(states[l], spread[l].y, states[l + 1],
                          levels[l], levels[l + 1])
