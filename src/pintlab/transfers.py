"""Spatial grid transfers for factor-2 coarsening on Dirichlet grids.

Interior-only arrays: fine index i = 1..nf-1 sits at array position i-1,
coarse index j corresponds to fine index 2j.  Injection is a slice; every
other transfer is a cached, read-only 1D matrix per grid size, applied
along each axis by `heat.along_axis`, as the heat operator applies its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .heat import along_axis


@lru_cache(maxsize=64)  # one entry per grid size and order
def _interp_matrix(nf: int, order: int) -> np.ndarray:
    """(nf-1) x (nf/2-1) Lagrange interpolation matrix for factor-2
    refinement, on a window of `order` coarse samples (2: linear, 4: cubic).

    Sample points include the zero-valued boundary nodes, so near-boundary
    stencils keep their order through genuine function values.
    """
    nc = nf // 2
    mat = np.zeros((nf - 1, nc - 1))
    for i in range(1, nf):
        s = i / 2.0  # position in coarse index units
        if i % 2 == 0:
            mat[i - 1, i // 2 - 1] = 1.0
            continue
        if nc + 1 < order:  # too few coarse samples for the window
            pts = np.arange(0, nc + 1)
        else:
            j0 = min(max(int(np.floor(s)) + 1 - order // 2, 0), nc + 1 - order)
            pts = np.arange(j0, j0 + order)
        for a, ja in enumerate(pts):
            w = 1.0
            for b, jb in enumerate(pts):
                if b != a:
                    w *= (s - jb) / (ja - jb)
            if 1 <= ja <= nc - 1:  # boundary samples are zero
                mat[i - 1, ja - 1] += w
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=64)  # one entry per grid size
def _full_weighting_matrix(nf: int) -> np.ndarray:
    """Half the transposed linear interpolation: rows (1, 2, 1)/4."""
    mat = np.ascontiguousarray(0.5 * _interp_matrix(nf, 2).T)
    mat.setflags(write=False)
    return mat


def inject(u: np.ndarray) -> np.ndarray:
    """Pointwise restriction: coarse point takes the coincident fine value."""
    return u[(slice(1, None, 2),) * u.ndim]


def full_weighting(u: np.ndarray) -> np.ndarray:
    """Full-weighting restriction, (1, 2, 1)/4 per dimension."""
    for axis in range(u.ndim):
        u = along_axis(_full_weighting_matrix(u.shape[axis] + 1), u, axis)
    return u


def _interp(u: np.ndarray, order: int) -> np.ndarray:
    for axis in range(u.ndim):
        u = along_axis(_interp_matrix(2 * (u.shape[axis] + 1), order), u, axis)
    return u


def interp_linear(u: np.ndarray) -> np.ndarray:
    """Linear interpolation to the factor-2 finer grid (zero boundaries)."""
    return _interp(u, 2)


def interp_cubic(u: np.ndarray) -> np.ndarray:
    """Cubic (4th-order) interpolation to the factor-2 finer grid."""
    return _interp(u, 4)
