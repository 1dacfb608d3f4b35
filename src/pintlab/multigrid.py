"""Geometric multigrid for the backward-Euler systems (I - sigma*nu*Lap) u = b.

Coarse-level operators are rediscretizations of the fine operator (same
diffusivity, same shift, same stencil order).  The coarsest level is solved
directly.  Smoother sweep order is fixed, so solves are bit-reproducible.
Red-black JOR updates the whole array under a cached, read-only colour mask
(`np.where`), with no gather or scatter.

Setup and solve are split.  Each grid's sparse matrix is cached, and the
cached `ShiftedOperator` of each grid and shift owns what is fixed per
shift: its coarse-grid operator, its SuperLU direct factor (for `Direct`
and the coarsest V-cycle grid) and its Gauss-Seidel triangle.  On a 1D
grid the triangle is a read-only band of order/2 + 1 diagonals, and a
sweep is one BLAS banded solve (dtbsv); in 2D and 3D, where the band
would be (n-1)^(dim-1) wide, it is a SuperLU factor that stores only the
triangle's nonzeros.  All are built on first use, so a V-cycle only
applies operators and runs prefactored solves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
# loaded by scipy.sparse.linalg already, so this imports no further module
from scipy.linalg.blas import dtbsv

from .heat import Grid, HeatOperator, laplacian_1d
from .transfers import full_weighting, interp_linear


@dataclass(frozen=True)
class MgConfig:
    smoother: str = "jacobi"  # jacobi | gauss-seidel | jor-rb
    omega: float = 2.0 / 3.0
    pre_sweeps: int = 2
    post_sweeps: int = 2

    def __post_init__(self):
        if self.smoother not in ("jacobi", "gauss-seidel", "jor-rb"):
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
    tol: float = 1e-12
    stall: float = 0.75
    max_cycles: int = 100

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:  # NaN fails every comparison
            raise ValueError("tolerance must be positive and finite")
        if not 0.0 < self.stall < 1.0:
            raise ValueError("stall factor must be in (0, 1)")


@dataclass(frozen=True)
class Direct:
    """Exact solve via a cached sparse factorization."""


SolvePolicy = Union[FixedCycles, ToTolerance, Direct]

# SuperLU's triangular solves are not safe to call concurrently in this
# stack; serialize them.  Each runs on a cached factor in time proportional
# to its nonzeros (a 2D or 3D Gauss-Seidel sweep's forward substitution, a
# tiny coarsest-level system, or a direct solve), so contention under the
# threaded time-parallel executor stays small.  The 1D Gauss-Seidel sweep
# takes no lock: dtbsv only reads the shared band and solves in its own
# copy of the right-hand side.
_FACTOR_SOLVE_LOCK = threading.Lock()

# Bounds of the module-level caches.  A solve uses one entry per grid of
# its V-cycle chains, and one per (grid, shift) pair: a few dozen in the
# benchmark workloads and the acceptance studies.  The bounds leave room
# for many step sizes in one process, while a sweep over ever new shifts
# cannot grow memory without limit.
GRID_CACHE_SIZE = 64
SHIFT_CACHE_SIZE = 256

COARSEST_N = 4  # V-cycles solve grids this coarse directly


class MultigridError(RuntimeError):
    """Tolerance solve hit the cycle cap without converging or stalling,
    or its residual is not finite."""

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


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _colour_masks(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (red, black) masks: red points have an even grid
    coordinate sum (grid indices start at 1)."""
    total = np.zeros(shape, dtype=int)
    for axis, npts in enumerate(shape):
        s = [1] * len(shape)
        s[axis] = npts
        total = total + np.arange(1, npts + 1).reshape(s)
    red = total % 2 == 0
    black = ~red
    red.setflags(write=False)
    black.setflags(write=False)
    return red, black


class ShiftedOperator:
    """I - sigma * A for a heat right-hand-side operator A.

    `shifted_operator` keeps one per (operator, sigma); each holds its
    coarse-grid operator and its factors once a solve has asked for them.
    """

    def __init__(self, base, sigma: float):
        if not 0.0 <= sigma < np.inf:  # NaN fails every comparison
            raise ValueError("shift must be finite and non-negative")
        self.base = base
        self.sigma = sigma
        self._diag = 1.0 - sigma * base.diagonal()
        self._diag.setflags(write=False)
        self._coarse = None
        self.coarsest = base.grid.n <= COARSEST_N  # V-cycles solve directly

    @property
    def grid(self) -> Grid:
        return self.base.grid

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u - self.sigma * self.base.apply(u)

    def diagonal(self) -> np.ndarray:
        return self._diag

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
        that dtbsv reads in place: band[i, j] = (I - sigma*A)[j + i, j],
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
        lu = self.lu
        with _FACTOR_SOLVE_LOCK:
            return lu.solve(b.ravel()).reshape(b.shape)


@lru_cache(maxsize=SHIFT_CACHE_SIZE)
def shifted_operator(base, sigma: float) -> ShiftedOperator:
    """The cached I - sigma * base, one per (operator, sigma)."""
    return ShiftedOperator(base, sigma)


def smooth(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
           cfg: MgConfig, count: int) -> np.ndarray:
    if u.shape != b.shape:
        raise ValueError("shape mismatch between iterate and right-hand side")
    diag = op.diagonal()
    if cfg.smoother == "jacobi":
        for _ in range(count):
            u = u + cfg.omega * (b - op.apply(u)) / diag
    elif cfg.smoother == "gauss-seidel" and u.ndim == 1:
        band = op.gauss_seidel_band
        k = band.shape[0] - 1
        for _ in range(count):
            u = u + dtbsv(k, band, b - op.apply(u), lower=1)
    elif cfg.smoother == "gauss-seidel":
        lower = op.gauss_seidel_factor
        for _ in range(count):
            r = b - op.apply(u)
            with _FACTOR_SOLVE_LOCK:
                du = lower.solve(r.ravel())
            u = u + du.reshape(u.shape)
    else:  # jor-rb
        red, black = _colour_masks(u.shape)
        for _ in range(count):
            u = u + np.where(red, cfg.omega * (b - op.apply(u)) / diag, 0.0)
            u = u + np.where(black, cfg.omega * (b - op.apply(u)) / diag, 0.0)
    return u


def v_cycle(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
            cfg: MgConfig) -> np.ndarray:
    if op.coarsest:
        return op.solve_direct(b)
    u = smooth(op, u, b, cfg, cfg.pre_sweeps)
    rc = full_weighting(b - op.apply(u))
    ec = v_cycle(op.coarsen(), np.zeros(rc.shape), rc, cfg)
    u = u + interp_linear(ec)
    return smooth(op, u, b, cfg, cfg.post_sweeps)


@dataclass
class SolveResult:
    u: np.ndarray
    cycles: int
    status: str  # direct | fixed | converged | stalled


def _finite_residual(op: ShiftedOperator, u: np.ndarray, b: np.ndarray,
                     cycles: int) -> float:
    """Residual norm; a NaN would compare as converged, so it raises."""
    res = np.linalg.norm((b - op.apply(u)).ravel())
    if not np.isfinite(res):
        raise MultigridError(
            f"non-finite residual after {cycles} V-cycles", res, cycles)
    return res


def solve(op: ShiftedOperator, u0: np.ndarray, b: np.ndarray,
          cfg: MgConfig, policy: SolvePolicy) -> SolveResult:
    if isinstance(policy, Direct):
        return SolveResult(op.solve_direct(b), 0, "direct")
    if isinstance(policy, FixedCycles):
        u = u0
        for _ in range(policy.cycles):
            u = v_cycle(op, u, b, cfg)
        return SolveResult(u, policy.cycles, "fixed")
    # ToTolerance: relative residual, with stall detection
    bnorm = np.linalg.norm(b.ravel())
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, "converged")
    u = u0
    res = _finite_residual(op, u, b, 0)
    cycles = 0
    while res > policy.tol * bnorm:
        if cycles >= policy.max_cycles:
            raise MultigridError(
                f"no convergence after {cycles} V-cycles "
                f"(relative residual {res / bnorm:.3e})", res, cycles)
        u = v_cycle(op, u, b, cfg)
        cycles += 1
        new_res = _finite_residual(op, u, b, cycles)
        if new_res > policy.tol * bnorm and new_res >= policy.stall * res:
            return SolveResult(u, cycles, "stalled")
        res = new_res
    return SolveResult(u, cycles, "converged")
