"""Structured Dirichlet grids and finite-difference heat operators.

Grids store interior unknowns only (homogeneous Dirichlet boundaries are
eliminated), laid out as dense arrays with one axis per dimension and the
x axis last, so C-order raveling gives the lexicographic ordering with x
fastest.  Leading axes, where an array has them, stack independent grids
(the ranks of a PFASST block): every operator here and in the transfer
and multigrid modules acts on the trailing grid axes.

The heat operator is the Kronecker sum of one dense 1D matrix
D = nu * laplacian_1d, cached read-only per grid with a C-contiguous copy
of its transpose: its apply multiplies D along each axis with
`along_axis`, as the grid transfers and the shifted operators' residuals
apply their 1D matrices, and products along x read the transpose.  That
costs n - 1 multiply-adds per point and axis, against 3 or 5 for a
padded stencil, but runs as one BLAS product per axis.  On
one core of a 2-core Xeon VM with OpenBLAS it beats the stencil at every
size the presets, tests and benchmark apply it on (1D up to n = 128, 2D
and 3D up to n = 64; 3D n = 32, order 4: 250 against 1,650
microseconds).  It loses on 1D grids from about n = 512 (76 against 38
microseconds; 420 against 40 at n = 1024), which nothing here runs.  The
multigrid module builds its sparse matrices from the same 1D matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Structured grid with `n` cells per dimension on [0, length]^dim."""

    dim: int
    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if not 0.0 < self.length < np.inf:  # NaN fails every comparison
            raise ValueError(f"length must be finite and positive, "
                             f"got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n - 1,) * self.dim

    @property
    def dof(self) -> int:
        return (self.n - 1) ** self.dim

    def interior_coords(self) -> np.ndarray:
        """Interior point coordinates along one axis."""
        return self.dx * np.arange(1, self.n)

    def coarsen(self) -> "Grid":
        if self.n < 4:
            raise ValueError(f"grid with n={self.n} cannot be coarsened")
        return Grid(self.dim, self.n // 2, self.length)


def initial_condition(grid: Grid, k: int) -> np.ndarray:
    """Product of sine modes sin(k pi x / L) sampled at interior points."""
    axes = [np.sin(k * np.pi * grid.interior_coords() / grid.length)
            for _ in range(grid.dim)]
    u = axes[0]
    for a in axes[1:]:
        u = np.multiply.outer(u, a)
    return u


def discrete_symbol(grid: Grid, k: int) -> float:
    """Eigenvalue d(k) of the 1D order-2 Laplacian for sine mode k."""
    if grid.dim != 1:
        raise ValueError("discrete symbol is defined for 1D grids only")
    if not 1 <= k <= grid.n - 1:
        raise ValueError(f"mode number k must be in [1, {grid.n - 1}], got {k}")
    dx = grid.dx
    return (-2.0 + 2.0 * np.cos(k * np.pi * dx / grid.length)) / dx**2


def exact_pde(grid: Grid, k: int, nu: float, t: float) -> np.ndarray:
    """Analytic PDE solution sampled on the grid at time t."""
    rate = grid.dim * nu * (k * np.pi / grid.length) ** 2
    return np.exp(-rate * t) * initial_condition(grid, k)


def exact_ode(grid: Grid, k: int, nu: float, t: float) -> np.ndarray:
    """Exact solution of the semi-discrete system (1D, order-2 stencil).

    The decay rate is nu*d(k) with d(k) < 0; see ``discrete_symbol``.
    """
    return np.exp(nu * discrete_symbol(grid, k) * t) * initial_condition(grid, k)


# One entry per (grid size, length, diffusivity, order): a handful per
# run, one per grid of the level hierarchy and its V-cycle chains.
FACTOR_CACHE_SIZE = 64


def laplacian_1d(n: int, length: float, order: int) -> np.ndarray:
    """Dense 1D Dirichlet Laplacian on the n - 1 interior points.

    Order 4 uses the order-2 row at the first point inside each boundary.
    Every operator of this package is built from this one matrix.
    """
    dx2 = (length / n) ** 2
    npts = n - 1
    if order == 2:
        stencil = ((-1, 1.0 / dx2), (0, -2.0 / dx2), (1, 1.0 / dx2))
    else:
        stencil = tuple((off, w / (12.0 * dx2)) for off, w in
                        ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0),
                         (2, -1.0)))
    mat = np.zeros((npts, npts))
    rows = np.arange(npts)
    for off, w in stencil:
        inside = (rows + off >= 0) & (rows + off < npts)
        mat[rows[inside], rows[inside] + off] = w
    if order == 4:
        mat[[0, -1]] = laplacian_1d(n, length, 2)[[0, -1]]
    return mat


def with_transpose(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 1D factor that `along_axis` takes: `mat` and a C-contiguous
    copy of its transpose, both read-only."""
    mat_t = np.ascontiguousarray(mat.T)
    mat.setflags(write=False)
    mat_t.setflags(write=False)
    return mat, mat_t


def along_axis(factor: tuple[np.ndarray, np.ndarray], u: np.ndarray,
               axis: int, dim: int) -> np.ndarray:
    """The 1D matrix of `factor` (see `with_transpose`) applied along grid
    axis `axis` (the x axis is dim - 1) of `u`, whose trailing `dim` axes
    are the grid and whose leading axes, if any, stack independent grids.
    No axis moves.

    Every BLAS call sees one grid's operands, the shapes an unstacked `u`
    gives: a 1D grid row is one vector-matrix product, and a 2D or 3D
    grid one matrix product per (y, x) plane or, along z, per grid.  So a grid's
    result does not depend on what is stacked with it, bit for bit.

    Products along x read the C-contiguous transpose.  In 2D and 3D that
    gives the bits of the F-ordered view `mat.T`, in less time: on one
    core of a 2-core Xeon VM with OpenBLAS, 35 to 44 against 75 to 82
    microseconds for one 3D n = 32 grid, and 70 to 75 against 145 to 190
    for two.  In 1D it rounds differently from the view, and 32 stacked
    n = 32 rows take 10 against 14 microseconds.
    """
    mat, mat_t = factor
    if dim == 1:
        return np.matmul(u[..., None, :], mat_t)[..., 0, :]
    if axis == dim - 1:
        return u @ mat_t
    if axis == dim - 2:
        return np.matmul(mat, u)  # broadcast over the leading axes
    *lead, nz, ny, nx = u.shape  # the z axis of a 3D grid
    return np.matmul(mat, u.reshape(*lead, nz, ny * nx)).reshape(
        *lead, len(mat), ny, nx)


def kronecker_sum(along_x: tuple[np.ndarray, np.ndarray],
                  along_yz: tuple[np.ndarray, np.ndarray], u: np.ndarray,
                  shape: tuple[int, ...]) -> np.ndarray:
    """The factor `along_x` applied along x plus `along_yz` along y and z,
    on each grid of `u` (trailing axes of `shape`; leading axes stack
    grids): a new array, summed in place in the order x, y, z."""
    dim = len(shape)
    if u.shape[-dim:] != shape:
        raise ValueError(f"expected trailing shape {shape}, got {u.shape}")
    out = along_axis(along_x, u, dim - 1, dim)
    for axis in range(dim - 2, -1, -1):
        out += along_axis(along_yz, u, axis, dim)
    return out


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _axis_factor(n: int, length: float, nu: float,
                 order: int) -> tuple[np.ndarray, np.ndarray]:
    """nu * laplacian_1d with its transpose, the factor applied along
    every axis."""
    return with_transpose(nu * laplacian_1d(n, length, order))


@dataclass(frozen=True)
class HeatOperator:
    """nu times the discrete Laplacian, order-2 or order-4 stencils.

    The order-4 operator falls back to the order-2 stencil at interior
    points adjacent to a boundary, keeping the matrix banded and definite.
    """

    grid: Grid
    nu: float = 1.0
    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"stencil order must be 2 or 4, got {self.order}")
        if not np.isfinite(self.nu):
            raise ValueError(f"diffusivity must be finite, got {self.nu}")

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared read-only D and its transpose, looked up once per
        operator."""
        g = self.grid
        return _axis_factor(g.n, g.length, self.nu, self.order)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The Kronecker sum of D = nu * laplacian_1d, summed x, y, z, on
        each grid of `u` (its trailing axes; leading axes stack grids)."""
        return kronecker_sum(self.factor, self.factor, u, self.grid.shape)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator as a full interior array."""
        d1 = np.diag(self.factor[0])
        total = np.zeros(self.grid.shape)
        for axis in range(self.grid.dim):
            shape = [1] * self.grid.dim
            shape[axis] = d1.size
            total = total + d1.reshape(shape)
        return total


def scalar_operator(lam: float) -> HeatOperator:
    """The scalar model problem y' = lam * y as a one-point heat operator.

    The order-2 Laplacian on the one interior point of Grid(1, 2) is -8
    exactly, and dividing by 8 is exact, so apply, diagonal and the
    operator matrix give exactly lam.
    """
    return HeatOperator(Grid(1, 2), -lam / 8)
