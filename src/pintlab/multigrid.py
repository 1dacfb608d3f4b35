"""Geometric multigrid for the backward-Euler systems (I - sigma*nu*Lap) u = b.

Coarse-level operators are rediscretizations of the fine operator (same
diffusivity, same shift, same stencil order).  The coarsest level is solved
directly.  Smoother sweep order is fixed, so solves are bit-reproducible.

Every smoother, the V-cycle's restricted residual and the tolerance check
read one product, `ShiftedOperator.residual`: b - (I - sigma*A) u as the
Kronecker sum of two read-only 1D factors, sigma*D - I along x and
sigma*D along y and z, accumulated in place, plus b.  A Jacobi or
red-black JOR half-sweep multiplies that residual by a cached read-only
weight and adds u: omega/diag for Jacobi, and for JOR a red and a black
weight that are omega/diag on their colour and exactly zero off it, so no
gather, scatter, mask or division runs per sweep.

Setup and solve are split.  Each grid's sparse matrix is cached, and the
cached `ShiftedOperator` of each grid and shift owns what is fixed per
shift: its coarse-grid operator, its residual factors, its smoother
weights per (smoother, omega), its SuperLU direct factor (for `Direct`
and the coarsest V-cycle grid) and its Gauss-Seidel triangle.  On a 1D
grid the triangle is a read-only band of order/2 + 1 diagonals, and a
sweep is one LAPACK banded solve (dtbtrs); in 2D and 3D, where the band
would be (n-1)^(dim-1) wide, it is a SuperLU factor that stores only the
triangle's nonzeros.  All are built on first use, so a V-cycle only
applies operators and runs prefactored solves.  The threads of the
threaded time-parallel executor share these factors and solve on them
with no lock: dtbtrs and SuperLU only read a factor, and the thread tests
check that every such solve gets the bits of the serial one.

Every array may stack grids on leading axes (the ranks of a PFASST
block), and each stacked grid gets the bits that it gets alone.  A 1D
sweep is one dtbtrs call for all grids, which runs one dtbsv per grid; a
2D or 3D sweep is one SuperLU solve with a right-hand side per grid, and
so is a coarsest-grid solve, but a larger direct factor solves one grid
at a time (see `ShiftedOperator.solve_direct`).  A tolerance solve runs
each V-cycle on the grids still iterating, gathered by index, and stops
each grid at its own count: converged at its target, or stalled once a
V-cycle keeps more than STALL_FACTOR of its residual; a grid that does
neither within MAX_CYCLES V-cycles raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
# loaded by scipy.sparse.linalg already, so this imports no further module
from scipy.linalg.lapack import dtbtrs

from .heat import (Grid, HeatOperator, kronecker_sum, laplacian_1d,
                   with_transpose)
from .transfers import full_weighting, interp_linear

SMOOTHERS = ("jacobi", "gauss-seidel", "jor-rb")


@dataclass(frozen=True)
class MgConfig:
    smoother: str = "jacobi"  # one of SMOOTHERS
    omega: float = 2.0 / 3.0
    pre_sweeps: int = 2
    post_sweeps: int = 2

    def __post_init__(self):
        if self.smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if not 0.0 < self.omega < np.inf:  # NaN fails every comparison
            raise ValueError("relaxation weight must be positive and finite")
        if self.pre_sweeps < 0 or self.post_sweeps < 0:
            raise ValueError("sweep counts must be non-negative")


@dataclass(frozen=True)
class FixedCycles:
    cycles: int

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("need at least one V-cycle")


@dataclass(frozen=True)
class ToTolerance:
    tol: float

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:  # NaN fails every comparison
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class Direct:
    """Exact solve via a cached sparse factorization."""


SolvePolicy = Union[FixedCycles, ToTolerance, Direct]

# Bounds of the module-level caches.  A solve uses one entry per grid of
# its V-cycle chains, and one per (grid, shift) pair: a few dozen in the
# benchmark workloads and the acceptance studies.  The bounds leave room
# for many step sizes in one process, while a sweep over ever new shifts
# cannot grow memory without limit.
GRID_CACHE_SIZE = 64
SHIFT_CACHE_SIZE = 256

COARSEST_N = 4  # V-cycles solve grids this coarse directly

# A V-cycle that keeps more than this share of a grid's residual has
# stalled at its roundoff floor: a working one cuts it tenfold or more.
STALL_FACTOR = 0.75
# Tolerance solves raise at this many V-cycles: a grid that has cut its
# residual by 0.75**100 < 1e-12 and still neither converged nor stalled
# contracts too slowly to be worth more cycles.
MAX_CYCLES = 100


class MultigridError(RuntimeError):
    """Tolerance solve hit the cycle cap without converging or stalling,
    or its residual is not finite, or I - sigma*A itself is not."""

    def __init__(self, message, residual, cycles):
        super().__init__(message)
        self.residual = residual
        self.cycles = cycles


@lru_cache(maxsize=GRID_CACHE_SIZE)
def operator_matrix(op: HeatOperator) -> scipy.sparse.csr_matrix:
    """Sparse matrix of the heat operator in C-order (x fastest)."""
    g = op.grid
    d1 = scipy.sparse.csr_matrix(laplacian_1d(g.n, g.length, op.order))
    eye = scipy.sparse.identity(g.n - 1, format="csr")
    total = None
    for axis in range(g.dim):
        factors = [d1 if ax == axis else eye for ax in range(g.dim)]
        term = factors[0]
        for f in factors[1:]:
            term = scipy.sparse.kron(term, f, format="csr")
        total = term if total is None else total + term
    return (op.nu * total).tocsr()


class ShiftedOperator:
    """I - sigma * A for a heat right-hand-side operator A.

    `shifted_operator` keeps one per (operator, sigma); each holds its
    coarse-grid operator, its residual factors, its smoother weights and
    its factors once a solve has asked for them.
    """

    def __init__(self, base, sigma: float):
        if not 0.0 <= sigma < np.inf:  # NaN fails every comparison
            raise ValueError("shift must be finite and non-negative")
        self.base = base
        self.sigma = sigma
        self._coarse = None
        self._weights = {}
        self.coarsest = base.grid.n <= COARSEST_N  # V-cycles solve directly
        # an overflowed operator would fail in SuperLU or yield NaN states
        if not np.isfinite(self._factors[0][0]).all():
            raise MultigridError(f"I - sigma*A is not finite (sigma = "
                                 f"{sigma:.6g}, nu = {base.nu:.6g})", np.inf, 0)

    @property
    def grid(self) -> Grid:
        return self.base.grid

    @cached_property
    def _factors(self):
        """The read-only 1D factors of the residual, with their transposes:
        sigma * D - I, applied along x, and sigma * D along y and z."""
        d = self.sigma * self.base.factor[0]
        return with_transpose(d - np.eye(len(d))), with_transpose(d)

    def residual(self, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        """b - (I - sigma*A) u on each grid stacked in `u` and `b`: the
        Kronecker sum of the residual factors, one product per axis
        accumulated in place, plus b."""
        r = kronecker_sum(*self._factors, u, self.grid.shape)
        r += b
        return r

    def smoother_weights(self, smoother: str,
                         omega: float) -> tuple[np.ndarray, ...]:
        """Read-only weights of a Jacobi or red-black JOR sweep, one per
        half-sweep: (omega / diag,) for jacobi; for jor-rb the red and the
        black weight, each omega / diag on its colour and zero off it.
        Red points have an even grid coordinate sum (grid indices start
        at 1).  Built on first use of each (smoother, omega)."""
        key = (smoother, omega)
        if key not in self._weights:
            w = omega / (1.0 - self.sigma * self.base.diagonal())
            shape = self.grid.shape
            red = (np.indices(shape).sum(axis=0) + len(shape)) % 2 == 0
            weights = ((w,) if smoother == "jacobi" else
                       (np.where(red, w, 0.0), np.where(red, 0.0, w)))
            for a in weights:
                a.setflags(write=False)
            self._weights[key] = weights
        return self._weights[key]

    def coarsen(self) -> "ShiftedOperator":
        """The same shift on the factor-2 coarser grid."""
        if self._coarse is None:
            base = self.base
            self._coarse = shifted_operator(
                HeatOperator(self.grid.coarsen(), base.nu, base.order),
                self.sigma)
        return self._coarse

    def _matrix(self) -> scipy.sparse.csr_matrix:
        a = operator_matrix(self.base)
        return scipy.sparse.identity(a.shape[0], format="csr") - self.sigma * a

    @cached_property
    def lu(self):
        """SuperLU factor of I - sigma*A: direct and coarsest-grid solves."""
        return scipy.sparse.linalg.splu(self._matrix().tocsc())

    @cached_property
    def gauss_seidel_factor(self):
        """SuperLU factor of the lower triangle of I - sigma*A.

        In natural order and without pivoting the factor of a
        lower-triangular matrix is its unit lower triangle times its
        diagonal, so a solve is one forward substitution over the
        triangle's nonzeros.
        """
        lower = scipy.sparse.tril(self._matrix(), format="csc")
        lu = scipy.sparse.linalg.splu(lower, permc_spec="NATURAL",
                                      diag_pivot_thresh=0.0)
        identity = np.arange(lower.shape[0])
        if not (np.array_equal(lu.perm_r, identity)
                and np.array_equal(lu.perm_c, identity)):
            raise RuntimeError("SuperLU reordered the Gauss-Seidel triangle; "
                               "its solve would not be a forward substitution")
        return lu

    @cached_property
    def gauss_seidel_band(self) -> np.ndarray:
        """Read-only lower triangle of I - sigma*A in the banded layout
        that dtbtrs reads in place: band[i, j] = (I - sigma*A)[j + i, j],
        in Fortran order.

        Its rows are the triangle's diagonals: order/2 + 1 on a 1D grid,
        but (n-1)^(dim-1) * order/2 + 1 in 2D and 3D, so only 1D sweeps
        use it.
        """
        mat = self._matrix()
        lower = scipy.sparse.tril(mat, format="coo")
        band = np.zeros((np.max(lower.row - lower.col) + 1, mat.shape[0]),
                        order="F")
        for i in range(band.shape[0]):
            diagonal = mat.diagonal(-i)
            band[i, :diagonal.size] = diagonal
        band.setflags(write=False)
        return band

    def solve_direct(self, b: np.ndarray) -> np.ndarray:
        """The exact solve of each grid stacked in `b`.

        With several right-hand sides SuperLU runs BLAS-3 kernels on its
        wide supernodes, and those round differently from single solves
        (seen on 3D factors from n = 8 up).  The small factors of the
        coarsest V-cycle grids agree bit for bit (tests/test_batch.py),
        so they take all grids in one call; larger factors solve one grid
        at a time.
        """
        lu = self.lu
        rows = b.reshape(-1, self.grid.dof)
        if self.coarsest:
            x = lu.solve(rows.T).T
        else:
            x = np.array([lu.solve(row) for row in rows])
        return x.reshape(b.shape)


@lru_cache(maxsize=SHIFT_CACHE_SIZE)
def shifted_operator(base, sigma: float) -> ShiftedOperator:
    """The cached I - sigma * base, one per (operator, sigma)."""
    return ShiftedOperator(base, sigma)


def smooth(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
           cfg: MgConfig, count: int) -> np.ndarray:
    if u.shape != b.shape:
        raise ValueError("shape mismatch between iterate and right-hand side")
    if cfg.smoother == "gauss-seidel" and op.grid.dim == 1:
        band = op.gauss_seidel_band
        for _ in range(count):
            # one column per grid, F-ordered; solved in place
            r = op.residual(u, b).reshape(-1, band.shape[1]).T
            du = dtbtrs(band, r, uplo="L", overwrite_b=True)[0]
            u = u + du.T.reshape(u.shape)
    elif cfg.smoother == "gauss-seidel":
        lower, rows = op.gauss_seidel_factor, (-1, op.grid.dof)
        for _ in range(count):
            r = op.residual(u, b).reshape(rows)
            du = lower.solve(r.T)
            u = u + du.T.reshape(u.shape)
    else:  # jacobi, or jor-rb as a red and then a black half-sweep
        weights = op.smoother_weights(cfg.smoother, cfg.omega)
        for _ in range(count):
            for w in weights:
                r = op.residual(u, b)
                r *= w
                r += u
                u = r
    return u


def v_cycle(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
            cfg: MgConfig) -> np.ndarray:
    if op.coarsest:
        return op.solve_direct(b)
    dim = op.grid.dim
    u = smooth(op, u, b, cfg, cfg.pre_sweeps)
    rc = full_weighting(op.residual(u, b), dim)
    ec = v_cycle(op.coarsen(), np.zeros(rc.shape), rc, cfg)
    u = u + interp_linear(ec, dim)
    return smooth(op, u, b, cfg, cfg.post_sweeps)


@dataclass
class SolveResult:
    """The solution and, per stacked grid, its V-cycles and status
    (direct | fixed | converged | stalled): arrays of the stacking shape,
    0-d for one grid alone."""

    u: np.ndarray
    cycles: np.ndarray
    status: np.ndarray


def _norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norm of each row, with the bits of np.linalg.norm(row): one
    BLAS dot product per row, as norm takes for one vector."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _finite_residuals(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
                      cycles: int) -> np.ndarray:
    """Residual norm of each row of grids; a NaN would compare as
    converged, so it raises."""
    res = _norms(op.residual(u, b).reshape(len(b), op.grid.dof))
    bad = ~np.isfinite(res)
    if bad.any():
        raise MultigridError(
            f"non-finite residual after {cycles} V-cycles", res[bad][0],
            cycles)
    return res


def solve(op: ShiftedOperator, u0: np.ndarray, b: np.ndarray,
          cfg: MgConfig, policy: SolvePolicy) -> SolveResult:
    stacking = b.shape[:b.ndim - op.grid.dim]
    if isinstance(policy, Direct):
        return SolveResult(op.solve_direct(b), np.zeros(stacking, int),
                           np.full(stacking, "direct", dtype=object))
    if isinstance(policy, FixedCycles):
        u = u0
        for _ in range(policy.cycles):
            u = v_cycle(op, u, b, cfg)
        return SolveResult(u, np.full(stacking, policy.cycles),
                           np.full(stacking, "fixed", dtype=object))
    # ToTolerance: each grid to its own relative residual.  V-cycles run
    # on `run`, the indices of the grids still iterating.  A zero
    # right-hand side has the zero solution, whose residual is exactly 0.
    rows = b.reshape((-1,) + op.grid.shape)
    u = np.array(u0, dtype=float).reshape(rows.shape)
    cycles = np.zeros(len(rows), int)
    status = np.full(len(rows), "converged", dtype=object)
    bnorm = _norms(rows.reshape(len(rows), op.grid.dof))
    u[bnorm == 0.0] = 0.0
    res = _finite_residuals(op, u, rows, 0)
    target = policy.tol * bnorm
    run = np.flatnonzero(res > target)
    count = 0
    while run.size:
        if count >= MAX_CYCLES:
            raise MultigridError(
                f"no convergence after {count} V-cycles "
                f"(relative residual {res[run[0]] / bnorm[run[0]]:.3e})",
                res[run[0]], count)
        u[run] = v_cycle(op, u[run], rows[run], cfg)
        count += 1
        cycles[run] = count
        new = _finite_residuals(op, u[run], rows[run], count)
        above = new > target[run]
        stalled = above & (new >= STALL_FACTOR * res[run])
        status[run[stalled]] = "stalled"
        res[run] = new
        run = run[above & ~stalled]
    return SolveResult(u.reshape(b.shape), cycles.reshape(stacking),
                       status.reshape(stacking))
