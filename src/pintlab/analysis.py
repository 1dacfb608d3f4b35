"""Error-propagation analysis of the sweep on the scalar model problem.

One sweep maps the error e = Y - Y_collocation through
(I - z*Q_I)^{-1} z (Q - Q_I) with z the product of the eigenvalue and the
step size; its spectral radius is the per-sweep damping factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureTable


def iteration_matrix(table: QuadratureTable, lam_dt: float) -> np.ndarray:
    """(I - z Q_I)^{-1} z (Q - Q_I); rows/cols at node 0 are zero."""
    m1 = table.m + 1
    lhs = np.eye(m1) - lam_dt * table.q_sub
    return np.linalg.solve(lhs, lam_dt * (table.q - table.q_sub))


def damping_factor(table: QuadratureTable, lam_dt: float) -> float:
    """Spectral radius of the active sub-block (node 0 is structurally
    exact and would only contribute a spurious zero eigenvalue)."""
    g = iteration_matrix(table, lam_dt)[1:, 1:]
    return float(np.max(np.abs(np.linalg.eigvals(g))))


@dataclass(frozen=True)
class DampingScan:
    lam_dt: np.ndarray  # LAM_DT_GRID
    rho: np.ndarray


# The points of every scan: |z| logarithmic from 1e-3 to 1e6 on the
# negative real axis, strictly decreasing.
LAM_DT_GRID = -np.logspace(-3.0, 6.0, 200)
LAM_DT_GRID.setflags(write=False)


def damping_scan(table: QuadratureTable) -> DampingScan:
    rho = np.array([damping_factor(table, z) for z in LAM_DT_GRID])
    return DampingScan(lam_dt=LAM_DT_GRID, rho=rho)
