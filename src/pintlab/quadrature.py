"""Quadrature tables and time-direction transfers on uniform nodes.

Every temporal method in this package runs on the uniform nodes
t_i = i/M, i = 0..M, of each time step: uniform nodes, M per level, so a
level's nodes are the one integer M.  The quadrature weights are
supported on the right M nodes only (the left endpoint carries zero
weight).  Weights are computed once per level by exact integration of the
Lagrange basis in rational arithmetic and rounded once, so polynomial
exactness holds to machine precision.  A coarse level's nodes nest in a
finer level's when M_c divides M_f, and time restriction is then a
stride: every (M_f / M_c)-th fine node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np


def node_dot(mat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`mat` applied along the node axis (axis 0) of `values`.

    The same product, bit for bit, as np.tensordot(mat, values, axes=(1, 0)),
    which flattens `values` to this 2D view and calls np.dot, but without
    tensordot's per-call axis bookkeeping.  On node-first (node, rank,
    *grid) arrays it is one product for all ranks, and each rank's columns
    get the bits of that rank's own product.
    """
    return np.dot(mat, values.reshape(values.shape[0], -1)).reshape(
        mat.shape[:1] + values.shape[1:])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_integral(coeffs: list[Fraction], upper: Fraction) -> Fraction:
    """Integral of sum_j c_j t^j over [0, upper]."""
    total = Fraction(0)
    power = upper
    for j, c in enumerate(coeffs):
        total += c * power / (j + 1)
        power *= upper
    return total


def _lagrange_basis(points: list[Fraction]) -> list[list[Fraction]]:
    """Coefficient lists of the Lagrange cardinal polynomials on `points`."""
    basis = []
    for i, xi in enumerate(points):
        poly = [Fraction(1)]
        for j, xj in enumerate(points):
            if j == i:
                continue
            poly = _poly_mul(poly, [-xj / (xi - xj), Fraction(1) / (xi - xj)])
        basis.append(poly)
    return basis


@dataclass(frozen=True)
class QuadratureTable:
    """Integration matrix Q and backward-Euler sub-stepping matrix Q_I on
    the uniform nodes t_i = i/M, both read-only.

    Row m of Q holds weights q_{m,i} approximating the integral over
    [t_0, t_m]; row 0 and column 0 are identically zero.  Q_I holds the
    gamma pattern: entry (m, i) = gamma = 1/M for 1 <= i <= m.
    """

    m: int
    q: np.ndarray
    q_sub: np.ndarray

    @property
    def gamma(self) -> float:
        """The sub-step fraction t_m - t_{m-1} = 1/M, the same for every
        sub-step."""
        return 1 / self.m

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only view of Q without its zero column 0: the weights on
        the quadrature nodes."""
        return self.q[:, 1:]

    @cached_property
    def step_weights(self) -> np.ndarray:
        """Read-only; row m holds the weights of the integral over
        [t_m, t_{m+1}]."""
        w = self.weights[1:] - self.weights[:-1]
        w.setflags(write=False)
        return w


def _nodes(m: int) -> list[Fraction]:
    return [Fraction(i, m) for i in range(m + 1)]


def uniform_table(m: int) -> QuadratureTable:
    """Q and Q_I on M = m sub-steps, by integrating the Lagrange basis on
    the right M nodes in exact rational arithmetic."""
    if m < 1:
        raise ValueError(f"need at least one sub-step, got M={m}")
    nodes = _nodes(m)
    basis = _lagrange_basis(nodes[1:])
    q = np.zeros((m + 1, m + 1))
    for row in range(1, m + 1):
        for i in range(1, m + 1):
            q[row, i] = float(_poly_integral(basis[i - 1], nodes[row]))
    q_sub = np.tril(np.full((m + 1, m + 1), 1 / m))
    q_sub[0] = q_sub[:, 0] = 0.0
    for mat in (q, q_sub):
        mat.setflags(write=False)
    return QuadratureTable(m=m, q=q, q_sub=q_sub)


def time_restriction(m_fine: int, m_coarse: int) -> slice:
    """Pointwise selection in time: the stride that picks the fine node at
    each coarse node.  Raises ValueError if the node sets do not nest."""
    if m_coarse < 1 or m_fine % m_coarse:
        raise ValueError(f"coarse nodes (M={m_coarse}) do not nest in "
                         f"fine nodes (M={m_fine})")
    return slice(None, None, m_fine // m_coarse)


# one entry per pair of adjacent levels; returned read-only, since every
# caller shares the same matrix
@lru_cache(maxsize=64)
def correction_interpolation(m_coarse: int, m_fine: int) -> np.ndarray:
    """Interpolation matrix for node-value *corrections*.

    The interpolant for rows at quadrature nodes is built on the coarse
    quadrature nodes only, not on all coarse nodes; the left endpoint
    maps by selection.  Corrections of stiff components vanish at the
    quadrature nodes but not at t_0, and dragging the t_0 value into the
    interpolant re-excites exactly the components the sweeps have already
    damped.  Keeping the stencil on the quadrature nodes makes the
    correction asymptotically harmless for stiff modes.
    """
    time_restriction(m_fine, m_coarse)  # nesting
    basis = _lagrange_basis(_nodes(m_coarse)[1:])
    p = np.zeros((m_fine + 1, m_coarse + 1))
    p[0, 0] = 1.0
    for row, tf in enumerate(_nodes(m_fine)[1:], start=1):
        for col, poly in enumerate(basis):
            acc = Fraction(0)
            power = Fraction(1)
            for c in poly:
                acc += c * power
                power *= tf
            p[row, col + 1] = float(acc)
    p.setflags(write=False)
    return p
