"""Tests for the shifted-operator V-cycle and solve policies."""

import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import heat, hierarchy, multigrid, quadrature, transfers
from pintlab.heat import Grid, HeatOperator, scalar_operator
from pintlab.multigrid import (
    Direct,
    FixedCycles,
    MgConfig,
    MultigridError,
    ShiftedOperator,
    ToTolerance,
    operator_matrix,
    shifted_operator,
    smooth,
    solve,
    v_cycle,
)
from pintlab.transfers import full_weighting, interp_linear

EPS = np.finfo(float).eps


def shifted(dim=1, n=64, sigma=1e-3, nu=1.0, order=2):
    return ShiftedOperator(HeatOperator(Grid(dim, n), nu, order), sigma)


def shifted_apply(op, u):
    """(I - sigma*A) u from the heat operator's apply: the reference for
    building right-hand sides."""
    return u - op.sigma * op.base.apply(u)


def check_gauss_seidel_sweep(dim, n, order, sigma):
    """One sweep from u must equal u + L^{-1} (b - A u), with L = tril(A)
    solved densely."""
    op = shifted(dim, n, sigma=sigma, order=order)
    a = np.eye(op.grid.dof) - sigma * operator_matrix(op.base).toarray()
    rng = np.random.default_rng(4)
    u = rng.standard_normal(op.grid.dof)
    b = rng.standard_normal(op.grid.dof)
    expected = u + np.linalg.solve(np.tril(a), b - a @ u)
    out = smooth(op, u.reshape(op.grid.shape), b.reshape(op.grid.shape),
                 MgConfig(smoother="gauss-seidel"), 1)
    np.testing.assert_allclose(out.ravel(), expected, atol=1e-11)


def boolean_jor_rb(op, u, b, omega, count):
    """Red-black JOR as boolean gathers and scatters: the reference for the
    whole-array update of `smooth`, with its residual and its weights
    omega / diag."""
    # red points have an even coordinate sum, counting from 1 on each axis
    red = (np.indices(u.shape).sum(axis=0) + u.ndim) % 2 == 0
    black = ~red
    w = omega / (1.0 - op.sigma * op.base.diagonal())
    u = u.copy()
    for _ in range(count):
        r = op.residual(u, b)
        u[red] += r[red] * w[red]
        r = op.residual(u, b)
        u[black] += r[black] * w[black]
    return u


def old_operator_matrix(dim, n, length, nu, order):
    """The operator matrix as built before the 1D matrix moved to the heat
    module: a lil_matrix filled row by row, then Kronecker products."""
    dx2 = (length / n) ** 2
    npts = n - 1
    if order == 2:
        d1 = (scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1],
                                 shape=(npts, npts)) / dx2).tocsr()
    else:
        mat = scipy.sparse.lil_matrix((npts, npts))
        for i in range(npts):
            if i == 0 or i == npts - 1:
                mat[i, i] = -2.0 / dx2
                if i - 1 >= 0:
                    mat[i, i - 1] = 1.0 / dx2
                if i + 1 < npts:
                    mat[i, i + 1] = 1.0 / dx2
            else:
                for off, w in ((-2, -1.0), (-1, 16.0), (0, -30.0),
                               (1, 16.0), (2, -1.0)):
                    j = i + off
                    if 0 <= j < npts:
                        mat[i, j] = w / (12.0 * dx2)
        d1 = mat.tocsr()
    eye = scipy.sparse.identity(npts, format="csr")
    total = None
    for axis in range(dim):
        factors = [d1 if ax == axis else eye for ax in range(dim)]
        term = factors[0]
        for f in factors[1:]:
            term = scipy.sparse.kron(term, f, format="csr")
        total = term if total is None else total + term
    return (nu * total).tocsr()


# The grid transfers as they were before they became cached 1D matrices:
# slice formulas (and the cubic matrix) moved onto each axis in turn.

def ref_along_axes(u, op1d):
    """op1d, acting on axis 0, applied along every axis in turn."""
    for axis in range(u.ndim):
        u = np.moveaxis(op1d(np.moveaxis(u, axis, 0)), 0, axis)
    return u


def ref_inject(u):
    return ref_along_axes(u, lambda v: v[1::2])


def ref_full_weighting(u):
    return ref_along_axes(
        u, lambda v: 0.25 * (v[0:-2:2] + 2.0 * v[1:-1:2] + v[2::2]))


def ref_interp_linear(u):
    def lin(v):
        nc = v.shape[0] + 1
        out = np.zeros((2 * nc - 1,) + v.shape[1:])
        out[1::2] = v
        out[2:-1:2] = 0.5 * (v[:-1] + v[1:])
        out[0] = 0.5 * v[0]
        out[-1] = 0.5 * v[-1]
        return out
    return ref_along_axes(u, lin)


def ref_cubic_matrix(nf):
    """The cubic matrix as built before one builder took the order."""
    nc = nf // 2
    mat = np.zeros((nf - 1, nc - 1))
    for i in range(1, nf):
        s = i / 2.0
        if i % 2 == 0:
            mat[i - 1, i // 2 - 1] = 1.0
            continue
        if nc < 3:
            pts = np.arange(0, nc + 1)
        else:
            j0 = min(max(int(np.floor(s)) - 1, 0), nc - 3)
            pts = np.arange(j0, j0 + 4)
        for a, ja in enumerate(pts):
            w = 1.0
            for b, jb in enumerate(pts):
                if b != a:
                    w *= (s - jb) / (ja - jb)
            if 1 <= ja <= nc - 1:
                mat[i - 1, ja - 1] += w
    return mat


def ref_interp_cubic(u, absolute=False):
    def cubic(v):
        mat = ref_cubic_matrix(2 * (v.shape[0] + 1))
        mat = np.abs(mat) if absolute else mat
        return np.tensordot(mat, v, axes=(1, 0))
    return ref_along_axes(u, cubic)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 4), (1, 64), (2, 8), (2, 32),
                                   (3, 4), (3, 16)])
def test_operator_matrix_unchanged(dim, n, order):
    op = HeatOperator(Grid(dim, n, length=2.0), nu=1.0 / 3.0, order=order)
    new = operator_matrix(op)
    old = old_operator_matrix(dim, n, 2.0, 1.0 / 3.0, order)
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)
    np.testing.assert_array_equal(new.data.view(np.int64),
                                  old.data.view(np.int64))


class TestShiftedOperator:
    def test_matches_matrix(self):
        op = shifted(2, 16, sigma=0.01, order=4)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(op.grid.shape)
        a = operator_matrix(op.base)
        expected = u.ravel() - 0.01 * (a @ u.ravel())
        np.testing.assert_allclose(-op.residual(u, np.zeros_like(u)).ravel(),
                                   expected, atol=1e-10)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            shifted(sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_shift(self, sigma):
        # a NaN or infinite shift used to reach SuperLU, which reported a
        # singular factor
        with pytest.raises(ValueError, match="finite and non-negative"):
            shifted(sigma=sigma)

    def test_direct_solve_residual(self):
        op = shifted(3, 8, sigma=0.05)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.grid.shape)
        u = op.solve_direct(b)
        assert np.max(np.abs(op.residual(u, b))) < 1e-10

    def test_diagonal_base_direct(self):
        op = ShiftedOperator(scalar_operator(-4.0), 0.5)
        np.testing.assert_allclose(op.solve_direct(np.array([6.0])), [2.0])

    def test_one_cached_operator_chain_per_shift(self):
        base = HeatOperator(Grid(2, 16), 0.5, 4)
        op = shifted_operator(base, 0.01)
        assert shifted_operator(HeatOperator(Grid(2, 16), 0.5, 4), 0.01) is op
        coarse = op.coarsen()
        assert coarse is op.coarsen()
        assert coarse is shifted_operator(HeatOperator(Grid(2, 8), 0.5, 4), 0.01)
        assert coarse.sigma == 0.01 and coarse.grid.n == 8
        for w in op.smoother_weights("jacobi", 2.0 / 3.0):
            with pytest.raises(ValueError):
                w[0, 0] = 0.0  # shared by every caller


class TestResidual:
    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.05, 2.0])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_matches_shifted_matrix(self, dim, n, order, sigma):
        """b - (I - sigma*M) u with M the sparse operator matrix, within
        1e-13 of the scale |b| + |I - sigma*M| |u| that bounds the
        rounding of both sides."""
        op = shifted(dim, n, sigma=sigma, nu=0.7, order=order)
        rng = np.random.default_rng(dim * n + order)
        u = rng.standard_normal(op.grid.shape)
        b = rng.standard_normal(op.grid.shape)
        a = (scipy.sparse.identity(op.grid.dof)
             - sigma * operator_matrix(op.base)).tocsr()
        expected = b.ravel() - a @ u.ravel()
        scale = np.max(np.abs(b.ravel()) + abs(a) @ np.abs(u.ravel()))
        np.testing.assert_allclose(op.residual(u, b).ravel(), expected,
                                   rtol=0, atol=1e-13 * scale)

    def test_leaves_inputs_unchanged(self):
        op = shifted(3, 8, sigma=0.02, order=4)
        rng = np.random.default_rng(3)
        u, b = rng.standard_normal((2,) + op.grid.shape)
        before = u.copy(), b.copy()
        r = op.residual(u, b)
        assert not (np.shares_memory(r, u) or np.shares_memory(r, b))
        np.testing.assert_array_equal(u, before[0])
        np.testing.assert_array_equal(b, before[1])

    def test_shape_check(self):
        op = shifted(2, 8)
        with pytest.raises(ValueError):
            op.residual(np.zeros(7), np.zeros(7))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_factors_cached_read_only_with_contiguous_transposes(self, dim):
        op = shifted(dim, 8, sigma=0.03, order=4)
        along_x, along_yz = op._factors
        assert op._factors[0] is along_x
        d = op.base.factor[0]
        np.testing.assert_array_equal(along_x[0], 0.03 * d - np.eye(7))
        np.testing.assert_array_equal(along_yz[0], 0.03 * d)
        for mat, mat_t in (along_x, along_yz):
            np.testing.assert_array_equal(mat_t, mat.T)
            assert mat_t.flags.c_contiguous
            for a in (mat, mat_t):
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0  # shared by every sweep and thread


class TestSmootherWeights:
    @pytest.mark.parametrize("omega", [1.0, 2.0 / 3.0])
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
    def test_colour_weights_vanish_off_their_colour(self, dim, n, omega):
        op = shifted(dim, n, sigma=0.02, order=4)
        (w,) = op.smoother_weights("jacobi", omega)
        np.testing.assert_array_equal(
            w, omega / (1.0 - 0.02 * op.base.diagonal()))
        red, black = op.smoother_weights("jor-rb", omega)
        coords = np.meshgrid(*[np.arange(1, op.grid.n)] * dim,
                             indexing="ij")
        red_mask = sum(coords) % 2 == 0
        black_mask = ~red_mask
        for weight, mask in ((red, red_mask), (black, black_mask)):
            np.testing.assert_array_equal(weight[mask], w[mask])
            assert np.all(weight[~mask] == 0.0)
            assert not np.signbit(weight[~mask]).any()

    def test_cached_per_smoother_and_omega_and_read_only(self):
        op = shifted(2, 16, sigma=0.01)
        weights = op.smoother_weights("jor-rb", 1.0)
        assert op.smoother_weights("jor-rb", 1.0) is weights
        assert op.smoother_weights("jor-rb", 0.5) is not weights
        for w in weights + op.smoother_weights("jacobi", 1.0):
            with pytest.raises(ValueError):
                w[0, 0] = 1.0  # shared by every sweep and thread

    @pytest.mark.parametrize("smoother,built", [
        ("jacobi", {("jacobi", 0.8)}), ("jor-rb", {("jor-rb", 0.8)}),
        ("gauss-seidel", set())])
    def test_a_sweep_builds_only_its_own_weights(self, smoother, built):
        op = shifted(2, 16, sigma=0.01)
        smooth(op, np.zeros(op.grid.shape), np.ones(op.grid.shape),
               MgConfig(smoother=smoother, omega=0.8), 1)
        assert set(op._weights) == built


class TestSmoothers:
    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    def test_exact_solution_is_fixed_point(self, smoother):
        op = shifted(1, 32, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(op.grid.shape)
        b = shifted_apply(op, u)
        out = smooth(op, u.copy(), b, cfg, 3)
        np.testing.assert_allclose(out, u, atol=1e-12)

    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_error_contracts(self, smoother, dim):
        op = shifted(dim, 16, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(3)
        exact = rng.standard_normal(op.grid.shape)
        b = shifted_apply(op, exact)
        u = smooth(op, np.zeros_like(b), b, cfg, 4)
        assert np.linalg.norm(u - exact) < np.linalg.norm(exact)

    def test_gauss_seidel_is_exact_lower_solve(self):
        check_gauss_seidel_sweep(1, 16, 2, 0.02)

    @pytest.mark.parametrize("sigma", [1e-3, 0.02, 0.5])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_gauss_seidel_is_exact_lower_solve_nd(self, dim, n, order, sigma):
        check_gauss_seidel_sweep(dim, n, order, sigma)

    @pytest.mark.parametrize("dim,n,order", [(1, 32, 2), (2, 16, 4), (3, 8, 4)])
    def test_gauss_seidel_factor_keeps_natural_order(self, dim, n, order):
        op = shifted(dim, n, sigma=0.05, order=order)
        lu = op.gauss_seidel_factor
        identity = np.arange(op.grid.dof)
        np.testing.assert_array_equal(lu.perm_r, identity)
        np.testing.assert_array_equal(lu.perm_c, identity)

    def test_gauss_seidel_factor_stores_the_triangle_only(self):
        # 3D order 4 has at most 7 nonzeros per row in the lower triangle;
        # banded storage held bandwidth x N = 962 x 29,791 values here
        op = shifted(3, 32, sigma=1e-3, order=4)
        lu = op.gauss_seidel_factor
        assert lu.L.nnz + lu.U.nnz <= 14 * op.grid.dof

    @pytest.mark.parametrize("sigma", [1e-6, 1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 1024])
    @pytest.mark.parametrize("order", [2, 4])
    def test_1d_banded_sweep_matches_dense_lower_solve(self, order, n, sigma):
        """A 1D sweep (one banded BLAS solve) against the dense
        u + solve(tril(a), b - a u), within 4 N eps max(|u|, |du|) in the
        max norm, N = n - 1 unknowns.

        The bound is fixed from the rounding analysis, not fitted: both
        sides form the residual to a few ulps and solve a triangle by
        substitution, whose error grows at most linearly in N; the
        triangle of I - sigma*A is diagonally dominant (by a factor of 2
        at order 2, 30/17 at order 4), so no condition number enters.
        """
        op = shifted(1, n, sigma=sigma, order=order)
        a = np.eye(op.grid.dof) - sigma * operator_matrix(op.base).toarray()
        rng = np.random.default_rng(n)
        u = rng.standard_normal(op.grid.dof)
        b = rng.standard_normal(op.grid.dof)
        du = np.linalg.solve(np.tril(a), b - a @ u)
        out = smooth(op, u, b, MgConfig(smoother="gauss-seidel"), 1)
        scale = max(np.max(np.abs(u)), np.max(np.abs(du)))
        assert np.max(np.abs(out - (u + du))) <= (
            4 * op.grid.dof * EPS * scale)

    @pytest.mark.parametrize("order", [2, 4])
    def test_gauss_seidel_band_cached_and_read_only(self, order):
        op = shifted(1, 32, sigma=0.05, order=order)
        band = op.gauss_seidel_band
        assert band is op.gauss_seidel_band
        assert band.shape == (order // 2 + 1, 31)
        assert band.flags.f_contiguous  # dtbsv reads it without a copy
        a = np.eye(31) - 0.05 * operator_matrix(op.base).toarray()
        for i in range(band.shape[0]):
            np.testing.assert_array_equal(band[i, :31 - i], np.diag(a, -i))
        with pytest.raises(ValueError):
            band[0, 0] = 0.0  # shared by every sweep and thread

    def test_shared_1d_operator_sweeps_from_threads(self):
        """Eight threads sweep on one shared 1D operator, which the 1D
        path does without a lock; each sweep must equal the serial one
        bit for bit.  The threads race on the band's first build too."""
        op = ShiftedOperator(HeatOperator(Grid(1, 64), order=4), 0.01)
        serial_op = ShiftedOperator(HeatOperator(Grid(1, 64), order=4), 0.01)
        cfg = MgConfig(smoother="gauss-seidel")
        rng = np.random.default_rng(21)
        cases = [(rng.standard_normal(63), rng.standard_normal(63))
                 for _ in range(8)]
        expected = [smooth(serial_op, u, b, cfg, 2).tobytes()
                    for u, b in cases]
        sweeps = [0] * len(cases)
        mismatches = []
        stop = time.monotonic() + 1.0

        def work(i):
            u, b = cases[i]
            while sweeps[i] == 0 or time.monotonic() < stop:
                if smooth(op, u, b, cfg, 2).tobytes() != expected[i]:
                    mismatches.append(i)
                sweeps[i] += 1

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        assert min(sweeps) > 0

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("omega", [1.0, 2.0 / 3.0])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
    def test_jor_rb_matches_boolean_sweep(self, dim, n, order, omega, count):
        op = shifted(dim, n, sigma=0.02, order=order)
        rng = np.random.default_rng(17)
        u = rng.standard_normal(op.grid.shape)
        b = rng.standard_normal(op.grid.shape)
        out = smooth(op, u, b, MgConfig(smoother="jor-rb", omega=omega), count)
        np.testing.assert_array_equal(out,
                                      boolean_jor_rb(op, u, b, omega, count))

    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    def test_leaves_input_unchanged(self, smoother):
        op = shifted(2, 16, sigma=0.01)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(op.grid.shape)
        before = u.copy()
        smooth(op, u, rng.standard_normal(u.shape), MgConfig(smoother), 2)
        np.testing.assert_array_equal(u, before)

    @pytest.mark.parametrize("count", [1, 3])
    def test_jor_rb_applies_twice_per_sweep(self, count, monkeypatch):
        calls = []
        residual = ShiftedOperator.residual
        monkeypatch.setattr(
            ShiftedOperator, "residual",
            lambda self, u, b: calls.append(1) or residual(self, u, b))
        op = shifted(3, 8, sigma=0.01, order=4)
        smooth(op, np.zeros(op.grid.shape), np.ones(op.grid.shape),
               MgConfig(smoother="jor-rb"), count)
        assert len(calls) == 2 * count

    def test_zero_sweeps_is_identity(self):
        op = shifted()
        u = np.arange(op.grid.dof, dtype=float)
        out = smooth(op, u, np.zeros_like(u), MgConfig(), 0)
        np.testing.assert_array_equal(out, u)

    def test_shape_mismatch_raises(self):
        op = shifted(1, 8)
        with pytest.raises(ValueError):
            smooth(op, np.zeros(7), np.zeros(6), MgConfig(), 1)


class TestVCycle:
    def test_zero_rhs_zero_guess_stays_zero(self):
        op = shifted(1, 32, sigma=0.1)
        u = v_cycle(op, np.zeros(op.grid.shape), np.zeros(op.grid.shape), MgConfig())
        np.testing.assert_array_equal(u, 0.0)

    @given(st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_linearity_in_inputs(self, seed):
        op = shifted(1, 32, sigma=0.05)
        cfg = MgConfig(smoother="gauss-seidel")
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal(op.grid.shape)
        b2 = rng.standard_normal(op.grid.shape)
        lhs = v_cycle(op, np.zeros(op.grid.shape), 2.0 * b1 - b2, cfg)
        rhs = (2.0 * v_cycle(op, np.zeros(op.grid.shape), b1, cfg)
               - v_cycle(op, np.zeros(op.grid.shape), b2, cfg))
        assert np.max(np.abs(lhs - rhs)) <= 100 * EPS * max(
            1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_error_contraction_below_one(self, smoother, dim, n):
        op = shifted(dim, n, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(5)
        exact = rng.standard_normal(op.grid.shape)
        b = shifted_apply(op, exact)
        u = v_cycle(op, np.zeros_like(b), b, cfg)
        assert np.linalg.norm(u - exact) < 0.5 * np.linalg.norm(exact)

    def test_gs_stiff_contraction(self):
        # strongly shifted 1D system: one 2+2 Gauss-Seidel V-cycle should
        # reduce the error by at least a factor of five
        sigma = 1e4 * Grid(1, 64).dx ** 2
        op = shifted(1, 64, sigma=sigma)
        cfg = MgConfig(smoother="gauss-seidel")
        rng = np.random.default_rng(6)
        exact = rng.standard_normal(op.grid.shape)
        b = shifted_apply(op, exact)
        u = v_cycle(op, np.zeros_like(b), b, cfg)
        assert np.linalg.norm(u - exact) <= 0.2 * np.linalg.norm(exact)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coarsest_grid_solved_directly(self, dim, order):
        op = shifted(dim, 4, sigma=0.3, order=order)
        b = np.random.default_rng(13).standard_normal(op.grid.shape)
        u = v_cycle(op, np.zeros(op.grid.shape), b, MgConfig())
        assert np.max(np.abs(op.residual(u, b))) < 1e-12


def arrays_in(obj):
    """The arrays of nested tuples of arrays."""
    if isinstance(obj, np.ndarray):
        return [obj]
    return [a for item in obj for a in arrays_in(item)]


class TestFactorOwnership:
    """Each shifted operator builds its SuperLU factors once, on first use."""

    @pytest.fixture
    def splu_calls(self, monkeypatch, cold_caches):
        calls = []
        splu = scipy.sparse.linalg.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        return calls

    @staticmethod
    def run_solves(op):
        b = np.ones(op.grid.shape)
        solve(op, np.zeros_like(b), b, MgConfig(), Direct())
        solve(op, np.zeros_like(b), b, MgConfig(smoother="gauss-seidel"),
              FixedCycles(2))

    def test_each_factor_built_once_per_operator(self, splu_calls):
        op = shifted_operator(HeatOperator(Grid(2, 16)), 0.01)
        self.run_solves(op)
        # the direct factor on n=16, Gauss-Seidel on n=16 and n=8, and the
        # direct factor of the coarsest grid n=4
        assert len(splu_calls) == 4
        self.run_solves(op)
        assert len(splu_calls) == 4
        assert op.lu is op.lu
        assert op.gauss_seidel_factor is op.gauss_seidel_factor

    def test_cache_clear_drops_weights_and_transposes(self, cold_caches):
        # a fresh operator after cache_clear builds its own residual
        # factors, smoother weights, heat factor and transfer matrices
        def build():
            op = shifted_operator(HeatOperator(Grid(2, 16)), 0.01)
            v_cycle(op, np.zeros(op.grid.shape), np.ones(op.grid.shape),
                    MgConfig(smoother="jor-rb"))
            return (op, op._factors, op.smoother_weights("jor-rb", 2.0 / 3.0),
                    op.base.factor, transfers._interp_matrix(16, 2),
                    transfers._full_weighting_matrix(16))

        first = build()
        assert all(a is b for a, b in zip(build(), first))
        for module in (heat, multigrid, transfers):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        fresh = build()
        assert fresh[0] is not first[0]
        held = {id(a) for a in arrays_in(first[1:])}
        assert len(held) == 12
        assert not any(id(a) in held for a in arrays_in(fresh[1:]))

    def test_cache_clear_rebuilds_the_factors(self, splu_calls):
        op = shifted_operator(HeatOperator(Grid(2, 16)), 0.01)
        self.run_solves(op)
        shifted_operator.cache_clear()
        fresh = shifted_operator(HeatOperator(Grid(2, 16)), 0.01)
        assert fresh is not op
        self.run_solves(fresh)
        assert len(splu_calls) == 8

    def test_1d_gauss_seidel_builds_only_the_coarsest_direct_factor(
            self, splu_calls):
        op = shifted_operator(HeatOperator(Grid(1, 32), order=4), 0.01)
        b = np.ones(op.grid.shape)
        solve(op, np.zeros_like(b), b, MgConfig(smoother="gauss-seidel"),
              FixedCycles(2))
        assert splu_calls == [(3, 3)]  # the coarsest grid, n=4

    def test_2d_sweep_builds_its_triangle(self, splu_calls):
        op = shifted_operator(HeatOperator(Grid(2, 8)), 0.01)
        smooth(op, np.zeros(op.grid.shape), np.ones(op.grid.shape),
               MgConfig(smoother="gauss-seidel"), 1)
        assert splu_calls == [(49, 49)]

    def test_direct_and_coarsest_grid_share_one_factor(self, splu_calls):
        op = shifted_operator(HeatOperator(Grid(1, 4)), 0.3)
        b = np.array([1.0, -2.0, 0.5])
        direct = solve(op, np.zeros(3), b, MgConfig(), Direct()).u
        cycled = v_cycle(op, np.zeros(3), b, MgConfig())
        assert len(splu_calls) == 1
        np.testing.assert_array_equal(cycled, direct)


TRANSFER_SIZES = [(dim, n) for dim in (1, 2, 3)
                  for n in (4, 8, 16, 32, 64, 128)]


def assert_within_ulps(new, ref, scale, ulps):
    """|new - ref| is at most `ulps` units in the last place of `scale`."""
    assert np.all(np.abs(new - ref) <= ulps * np.spacing(scale))


class TestTransfersMatchSliceFormulas:
    """The 1D matrices against the slice formulas they replaced.

    Injection and linear interpolation are bitwise equal.  Full weighting
    and cubic interpolation sum k = 3 and 4 terms per point and axis in
    the order the BLAS product chooses, so each axis may move a result by
    up to 2(k - 1) units in the last place of its absolute-weighted scale
    S (the transfer with |weights| applied to |u|).
    """

    @pytest.mark.parametrize("dim,n", TRANSFER_SIZES)
    def test_restrictions(self, dim, n):
        u = np.random.default_rng(n + dim).standard_normal((n - 1,) * dim)
        np.testing.assert_array_equal(transfers.inject(u, dim), ref_inject(u))
        assert_within_ulps(transfers.full_weighting(u, dim),
                           ref_full_weighting(u),
                           ref_full_weighting(np.abs(u)), 4 * dim)

    @pytest.mark.parametrize("dim,n", TRANSFER_SIZES)
    def test_interpolations(self, dim, n):
        u = np.random.default_rng(n + dim).standard_normal((n // 2 - 1,) * dim)
        np.testing.assert_array_equal(transfers.interp_linear(u, dim),
                                      ref_interp_linear(u))
        assert_within_ulps(transfers.interp_cubic(u, dim), ref_interp_cubic(u),
                           ref_interp_cubic(np.abs(u), absolute=True), 6 * dim)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
    def test_matrices(self, n):
        linear = transfers._interp_matrix(n, 2)
        restrict = transfers._full_weighting_matrix(n)
        cubic = transfers._interp_matrix(n, 4)
        np.testing.assert_array_equal(linear[0], 2.0 * restrict[0].T)
        np.testing.assert_array_equal(cubic[0], ref_cubic_matrix(n))
        for mat, mat_t in (linear, restrict, cubic):
            np.testing.assert_array_equal(mat_t, mat.T)
            assert mat_t.flags.c_contiguous
            assert not (mat.flags.writeable or mat_t.flags.writeable)


class TestTransfersRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_restrict_interp_preserves_smooth_data(self, dim):
        g = Grid(dim, 16)
        u = np.ones(g.shape)
        round_trip = interp_linear(full_weighting(u, dim), dim)
        # interior of the round trip reproduces constants exactly
        inner = (slice(2, -2),) * dim
        np.testing.assert_allclose(round_trip[inner], 1.0, atol=1e-12)


class TestSolvePolicies:
    def test_direct_policy(self):
        op = shifted(1, 32, sigma=0.05)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b, MgConfig(), Direct())
        assert res.status == "direct" and res.cycles == 0
        assert np.max(np.abs(op.residual(res.u, b))) < 1e-10

    def test_fixed_cycles_reports_count(self):
        op = shifted(1, 32, sigma=0.05)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b, MgConfig(), FixedCycles(2))
        assert res.cycles == 2 and res.status == "fixed"
        one = v_cycle(op, np.zeros_like(b), b, MgConfig())
        two = v_cycle(op, one, b, MgConfig())
        np.testing.assert_array_equal(res.u, two)

    def test_tolerance_zero_rhs_needs_no_cycles(self):
        op = shifted(1, 32)
        res = solve(op, np.zeros(op.grid.shape), np.zeros(op.grid.shape), MgConfig(),
                    ToTolerance(1e-12))
        assert res.cycles == 0 and res.status == "converged"

    def test_tolerance_converges(self):
        op = shifted(1, 64, sigma=0.01)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b,
                    MgConfig(smoother="gauss-seidel"), ToTolerance(1e-10))
        assert res.status == "converged"
        rel = np.linalg.norm(op.residual(res.u, b)) / np.linalg.norm(b)
        assert rel <= 1e-10

    def test_tolerance_stall_detection(self):
        # zero smoothing sweeps make the V-cycle stagnate on oscillatory data
        op = shifted(1, 32, sigma=0.05)
        cfg = MgConfig(pre_sweeps=0, post_sweeps=0)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b, cfg, ToTolerance(1e-14))
        assert res.status == "stalled"

    @pytest.mark.parametrize("where", ["initial", "rhs"])
    def test_non_finite_residual_raises(self, where):
        # NaN > tol * |b| is False, so an unchecked NaN residual would
        # report the solve as converged
        op = shifted(1, 32, sigma=0.05)
        b = np.random.default_rng(12).standard_normal(op.grid.shape)
        u0 = np.zeros_like(b)
        if where == "initial":
            u0[3] = np.nan
        else:
            b[3] = np.inf
        with pytest.raises(MultigridError, match="non-finite"):
            solve(op, u0, b, MgConfig(), ToTolerance(1e-10))

    def test_cycle_cap_raises(self):
        # a healthy V-cycle contracts by roughly 0.1 per cycle, which cannot
        # cover fourteen decades in three cycles
        op = shifted(1, 32, sigma=0.05)
        rng = np.random.default_rng(11)
        b = rng.standard_normal(op.grid.shape)
        with pytest.raises(MultigridError):
            solve(op, np.zeros_like(b), b, MgConfig(),
                  ToTolerance(1e-14, stall=1.0 - 1e-12, max_cycles=3))


class TestConfigValidation:
    def test_bad_smoother(self):
        with pytest.raises(ValueError):
            MgConfig(smoother="sor")

    def test_bad_sweeps(self):
        with pytest.raises(ValueError):
            MgConfig(pre_sweeps=-1)

    @pytest.mark.parametrize("omega", [float("nan"), 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    def test_bad_omega(self, smoother, omega):
        # a NaN weight used to return a NaN state with status "fixed"
        with pytest.raises(ValueError):
            MgConfig(smoother, omega)

    def test_bad_policy_values(self):
        with pytest.raises(ValueError):
            FixedCycles(0)
        with pytest.raises(ValueError):
            ToTolerance(tol=0.0)
        with pytest.raises(ValueError):
            ToTolerance(tol=float("nan"))  # would return every warm start
        with pytest.raises(ValueError):
            ToTolerance(tol=float("inf"))
        with pytest.raises(ValueError):
            ToTolerance(stall=1.5)

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_tolerance_needs_a_cycle(self, max_cycles):
        # with no V-cycle allowed, every solve that starts above the
        # tolerance used to raise MultigridError
        with pytest.raises(ValueError, match="V-cycle"):
            ToTolerance(max_cycles=max_cycles)


def _lru_caches():
    for module in (multigrid, transfers, quadrature, hierarchy):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                yield f"{module.__name__}.{name}", value


class TestCacheBounds:
    def test_every_cache_is_bounded(self):
        unbounded = [name for name, cache in _lru_caches()
                     if cache.cache_info().maxsize is None]
        assert not unbounded

    def test_many_shifts_stay_within_bounds(self):
        cfg = MgConfig(smoother="gauss-seidel")
        b = np.ones(7)
        for i in range(multigrid.SHIFT_CACHE_SIZE + 40):
            sigma = 1e-3 * (1.0 + i)
            op = shifted_operator(HeatOperator(Grid(1, 8)), sigma)
            solve(op, np.zeros_like(b), b, cfg, FixedCycles(1))
            solve(op, np.zeros_like(b), b, cfg, Direct())
        for name, cache in _lru_caches():
            info = cache.cache_info()
            assert info.currsize <= info.maxsize, name
        assert multigrid.shifted_operator.cache_info().currsize == \
            multigrid.SHIFT_CACHE_SIZE
