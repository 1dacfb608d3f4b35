"""Closed-form references for the benchmark's correctness checks.

Nothing here imports pintlab.  Each reference is derived on its own, so a
fault in the program cannot also move the value it is checked against:

- the eigenvalue of the 1D order-2 Dirichlet Laplacian for a sine mode,
  in its sin^2 form (pintlab writes it with a cosine);
- the collocation matrix Q on uniform nodes, from NumPy polynomial
  integration (pintlab integrates in exact rational arithmetic);
- the collocation stability function R(z) = e_M^T (I - zQ)^-1 1;
- the analytic solution of the heat equation from a sine mode.

A sine mode is an eigenvector of the order-2 Laplacian in 1D to 3D, so one
converged collocation step multiplies it by R(nu * lambda * dt).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P


def discrete_eigenvalue(n: int, length: float, k: int) -> float:
    """Eigenvalue of the 1D order-2 Laplacian on n cells for mode k."""
    dx = length / n
    return -4.0 / dx**2 * np.sin(k * np.pi * dx / (2.0 * length)) ** 2


def sine_mode(dim: int, n: int, length: float, k: int) -> np.ndarray:
    """prod_axes sin(k pi x / L) at the n - 1 interior points per axis."""
    s = np.sin(k * np.pi * (length * np.arange(1, n) / n) / length)
    out = s
    for _ in range(dim - 1):
        out = np.multiply.outer(out, s)
    return out


def analytic_solution(dim: int, n: int, length: float, k: int, nu: float,
                      t: float) -> np.ndarray:
    """Exact PDE solution at time t from the sine mode k, on the grid."""
    rate = dim * nu * (k * np.pi / length) ** 2
    return np.exp(-rate * t) * sine_mode(dim, n, length, k)


def collocation_matrix(m: int) -> np.ndarray:
    """(m+1) x (m+1) integration matrix on the nodes t_i = i/m.

    Entry (r, i) is the integral over [0, t_r] of the Lagrange polynomial
    that is 1 at t_i and 0 at the other nodes of t_1..t_m; row 0 and
    column 0 are zero (the left end point carries no weight).
    """
    t = np.arange(m + 1) / m
    right = t[1:]
    q = np.zeros((m + 1, m + 1))
    for i, ti in enumerate(right):
        others = np.delete(right, i)
        basis = P.polyfromroots(others) / np.prod(ti - others)
        q[:, i + 1] = P.polyval(t, P.polyint(basis))
    return q


def stability(z: complex, m: int) -> complex:
    """R(z) = e_M^T (I - zQ)^-1 1: one collocation step of y' = lambda y."""
    q = collocation_matrix(m)
    return np.linalg.solve(np.eye(m + 1) - z * q, np.ones(m + 1))[-1]


def collocation_solution(dim: int, n: int, length: float, k: int, nu: float,
                         m: int, t_end: float, steps: int) -> np.ndarray:
    """Fully converged collocation steps from the sine mode k with the
    order-2 stencil: R(nu * lambda * dt)^steps times the mode."""
    lam = dim * discrete_eigenvalue(n, length, k)
    r = stability(nu * lam * (t_end / steps), m)
    return r**steps * sine_mode(dim, n, length, k)
