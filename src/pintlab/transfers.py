"""Spatial grid transfers for factor-2 coarsening on Dirichlet grids.

Interior-only arrays: fine index i = 1..nf-1 sits at array position i-1,
coarse index j corresponds to fine index 2j.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _apply_axis(u: np.ndarray, axis: int, op1d) -> np.ndarray:
    moved = np.moveaxis(u, axis, 0)
    return np.moveaxis(op1d(moved), 0, axis)


def inject(u: np.ndarray) -> np.ndarray:
    """Pointwise restriction: coarse point takes the coincident fine value."""
    out = u
    for axis in range(u.ndim):
        out = _apply_axis(out, axis, lambda v: v[1::2])
    return out


def full_weighting(u: np.ndarray) -> np.ndarray:
    """Full-weighting restriction, (1, 2, 1)/4 per dimension."""
    def fw(v):
        return 0.25 * (v[0:-2:2] + 2.0 * v[1:-1:2] + v[2::2])
    out = u
    for axis in range(u.ndim):
        out = _apply_axis(out, axis, fw)
    return out


def interp_linear(u: np.ndarray) -> np.ndarray:
    """Linear interpolation to the factor-2 finer grid (zero boundaries)."""
    def lin(v):
        nc = v.shape[0] + 1
        out = np.zeros((2 * nc - 1,) + v.shape[1:])
        out[1::2] = v
        out[2:-1:2] = 0.5 * (v[:-1] + v[1:])
        out[0] = 0.5 * v[0]
        out[-1] = 0.5 * v[-1]
        return out
    out = u
    for axis in range(u.ndim):
        out = _apply_axis(out, axis, lin)
    return out


@lru_cache(maxsize=64)  # one entry per grid size
def _cubic_matrix(nf: int) -> np.ndarray:
    """(nf-1) x (nf/2-1) cubic interpolation matrix for factor-2 refinement.

    Sample points include the zero-valued boundary nodes, so near-boundary
    stencils stay cubic through genuine function values.
    """
    nc = nf // 2
    mat = np.zeros((nf - 1, nc - 1))
    for i in range(1, nf):
        s = i / 2.0  # position in coarse index units
        if i % 2 == 0:
            mat[i - 1, i // 2 - 1] = 1.0
            continue
        if nc < 3:  # too few coarse intervals for a cubic window
            pts = np.arange(0, nc + 1)
        else:
            j0 = min(max(int(np.floor(s)) - 1, 0), nc - 3)
            pts = np.arange(j0, j0 + 4)
        for a, ja in enumerate(pts):
            w = 1.0
            for b, jb in enumerate(pts):
                if b != a:
                    w *= (s - jb) / (ja - jb)
            if 1 <= ja <= nc - 1:  # boundary samples are zero
                mat[i - 1, ja - 1] += w
    return mat


def interp_cubic(u: np.ndarray) -> np.ndarray:
    """Cubic (4th-order) interpolation to the factor-2 finer grid."""
    out = u
    for axis in range(u.ndim):
        nf = 2 * (out.shape[axis] + 1)
        mat = _cubic_matrix(nf)
        out = _apply_axis(out, axis, lambda v, m=mat: np.tensordot(m, v, axes=(1, 0)))
    return out


def interp_space(u: np.ndarray, order: int) -> np.ndarray:
    if order == 2:
        return interp_linear(u)
    if order == 4:
        return interp_cubic(u)
    raise ValueError(f"spatial interpolation order must be 2 or 4, got {order}")
