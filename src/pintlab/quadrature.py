"""Quadrature node sets, integration matrices, and time-direction transfers.

All temporal methods in this package are built on uniform nodes
0 = t_0 < t_1 < ... < t_M = 1 with the quadrature weights supported on the
right M nodes only (the left endpoint carries zero weight).  Weights are
computed by exact integration of the Lagrange basis in rational arithmetic
and rounded once, so polynomial exactness holds to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class NodeSet:
    """M+1 strictly increasing nodes on [0, 1] including both endpoints."""

    nodes: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a node set needs at least one sub-step (M >= 1)")
        if self.nodes[0] != 0 or self.nodes[-1] != 1:
            raise ValueError("nodes must start at 0 and end at 1")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")

    @property
    def m(self) -> int:
        """Number of sub-steps."""
        return len(self.nodes) - 1

    @property
    def gammas(self) -> tuple[Fraction, ...]:
        """Sub-step fractions of the full step, gamma_m = t_m - t_{m-1}."""
        return tuple(b - a for a, b in zip(self.nodes, self.nodes[1:]))

    @cached_property
    def _hash(self) -> int:
        return hash(self.nodes)

    def __hash__(self) -> int:
        # the time-transfer caches hash their node sets on every lookup;
        # hashing the Fractions each time dominated that lookup
        return self._hash


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


def uniform_nodes(m: int) -> NodeSet:
    """Equispaced nodes t_i = i/m, i = 0..m."""
    if m < 1:
        raise ValueError(f"need at least one sub-step, got M={m}")
    return NodeSet(tuple(Fraction(i, m) for i in range(m + 1)))


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
    """Integration matrix Q and backward-Euler sub-stepping matrix Q_I.

    Row m of Q holds weights q_{m,i} approximating the integral over
    [t_0, t_m]; row 0 and column 0 are identically zero.  Q_I holds the
    gamma pattern: entry (m, i) = gamma_i for 1 <= i <= m.
    """

    nodes: NodeSet
    q: np.ndarray
    q_sub: np.ndarray

    @property
    def m(self) -> int:
        return self.nodes.m

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only view of Q without its zero column 0: the weights on
        the quadrature nodes."""
        w = self.q[:, 1:]
        w.setflags(write=False)
        return w

    @cached_property
    def step_weights(self) -> np.ndarray:
        """Read-only; row m holds the weights of the integral over
        [t_m, t_{m+1}]."""
        w = self.weights[1:] - self.weights[:-1]
        w.setflags(write=False)
        return w

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """The sub-step fractions gamma_1..gamma_M as floats."""
        return tuple(float(g) for g in self.nodes.gammas)


def build_q(nodes: NodeSet) -> QuadratureTable:
    """Build Q by integrating the Lagrange basis on the right M nodes."""
    m = nodes.m
    basis = _lagrange_basis(list(nodes.nodes[1:]))
    q = np.zeros((m + 1, m + 1))
    for row in range(1, m + 1):
        for i in range(1, m + 1):
            q[row, i] = float(_poly_integral(basis[i - 1], nodes.nodes[row]))
    q_sub = np.zeros((m + 1, m + 1))
    gammas = nodes.gammas
    for row in range(1, m + 1):
        for i in range(1, row + 1):
            q_sub[row, i] = float(gammas[i - 1])
    return QuadratureTable(nodes=nodes, q=q, q_sub=q_sub)


def uniform_table(m: int) -> QuadratureTable:
    """Shorthand for build_q(uniform_nodes(m))."""
    return build_q(uniform_nodes(m))


# Time transfers are cached per pair of node sets (a hierarchy has one
# pair per adjacent levels) and returned read-only, since every caller
# shares the same object.
TRANSFER_CACHE_SIZE = 64


@lru_cache(maxsize=TRANSFER_CACHE_SIZE)
def time_restriction(fine: NodeSet, coarse: NodeSet) -> tuple[int, ...]:
    """Pointwise selection in time: the index of the fine node at each
    coarse node.  Raises ValueError if the node sets are not nested."""
    indices = []
    for tc in coarse.nodes:
        try:
            indices.append(fine.nodes.index(tc))
        except ValueError:
            raise ValueError(
                f"coarse node {tc} has no matching fine node; node sets are "
                "not nested"
            ) from None
    return tuple(indices)


@lru_cache(maxsize=TRANSFER_CACHE_SIZE)
def correction_interpolation(coarse: NodeSet, fine: NodeSet) -> np.ndarray:
    """Interpolation matrix for node-value *corrections*.

    The interpolant for rows at quadrature nodes is built on the coarse
    quadrature nodes only, not on all coarse nodes; the left endpoint
    maps by selection.  Corrections of stiff components vanish at the
    quadrature nodes but not at t_0, and dragging the t_0 value into the
    interpolant re-excites exactly the components the sweeps have already
    damped.  Keeping the stencil on the quadrature nodes makes the
    correction asymptotically harmless for stiff modes.
    """
    time_restriction(fine, coarse)  # nesting
    basis = _lagrange_basis(list(coarse.nodes[1:]))
    p = np.zeros((fine.m + 1, coarse.m + 1))
    p[0, 0] = 1.0
    for row, tf in enumerate(fine.nodes):
        if row == 0:
            continue
        for col, poly in enumerate(basis):
            acc = Fraction(0)
            power = Fraction(1)
            for c in poly:
                acc += c * power
                power *= tf
            p[row, col + 1] = float(acc)
    p.setflags(write=False)
    return p
