"""Tests for the shifted-operator V-cycle and solve policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import hierarchy, multigrid, quadrature, transfers
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


class TestShiftedOperator:
    def test_matches_matrix(self):
        op = shifted(2, 16, sigma=0.01, order=4)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(op.grid.shape)
        a = operator_matrix(op.base)
        expected = u.ravel() - 0.01 * (a @ u.ravel())
        np.testing.assert_allclose(op.apply(u).ravel(), expected, atol=1e-10)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            shifted(sigma=-1.0)

    def test_direct_solve_residual(self):
        op = shifted(3, 8, sigma=0.05)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.grid.shape)
        u = op.solve_direct(b)
        assert np.max(np.abs(b - op.apply(u))) < 1e-10

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
        with pytest.raises(ValueError):
            op.diagonal()[0] = 0.0  # shared by every caller


class TestSmoothers:
    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    def test_exact_solution_is_fixed_point(self, smoother):
        op = shifted(1, 32, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(op.grid.shape)
        b = op.apply(u)
        out = smooth(op, u.copy(), b, cfg, 3)
        np.testing.assert_allclose(out, u, atol=1e-12)

    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_error_contracts(self, smoother, dim):
        op = shifted(dim, 16, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(3)
        exact = rng.standard_normal(op.grid.shape)
        b = op.apply(exact)
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
        lu = multigrid._gauss_seidel_factor(*op._key())
        identity = np.arange(op.grid.dof)
        np.testing.assert_array_equal(lu.perm_r, identity)
        np.testing.assert_array_equal(lu.perm_c, identity)

    def test_gauss_seidel_factor_stores_the_triangle_only(self):
        # 3D order 4 has at most 7 nonzeros per row in the lower triangle;
        # banded storage held bandwidth x N = 962 x 29,791 values here
        op = shifted(3, 32, sigma=1e-3, order=4)
        lu = multigrid._gauss_seidel_factor(*op._key())
        assert lu.L.nnz + lu.U.nnz <= 14 * op.grid.dof

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
        u = v_cycle(op, op.grid.zeros(), op.grid.zeros(), MgConfig())
        np.testing.assert_array_equal(u, 0.0)

    @given(st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_linearity_in_inputs(self, seed):
        op = shifted(1, 32, sigma=0.05)
        cfg = MgConfig(smoother="gauss-seidel")
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal(op.grid.shape)
        b2 = rng.standard_normal(op.grid.shape)
        lhs = v_cycle(op, op.grid.zeros(), 2.0 * b1 - b2, cfg)
        rhs = (2.0 * v_cycle(op, op.grid.zeros(), b1, cfg)
               - v_cycle(op, op.grid.zeros(), b2, cfg))
        assert np.max(np.abs(lhs - rhs)) <= 100 * EPS * max(
            1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("smoother", ["jacobi", "gauss-seidel", "jor-rb"])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_error_contraction_below_one(self, smoother, dim, n):
        op = shifted(dim, n, sigma=0.01)
        cfg = MgConfig(smoother=smoother)
        rng = np.random.default_rng(5)
        exact = rng.standard_normal(op.grid.shape)
        b = op.apply(exact)
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
        b = op.apply(exact)
        u = v_cycle(op, np.zeros_like(b), b, cfg)
        assert np.linalg.norm(u - exact) <= 0.2 * np.linalg.norm(exact)

    def test_coarsest_grid_solved_directly(self):
        op = shifted(1, 4, sigma=0.3)
        b = np.array([1.0, -2.0, 0.5])
        u = v_cycle(op, np.zeros(3), b, MgConfig())
        assert np.max(np.abs(b - op.apply(u))) < 1e-12


class TestTransfersRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_restrict_interp_preserves_smooth_data(self, dim):
        g = Grid(dim, 16)
        u = np.ones(g.shape)
        round_trip = interp_linear(full_weighting(u))
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
        assert np.max(np.abs(b - op.apply(res.u))) < 1e-10

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
        res = solve(op, op.grid.zeros(), op.grid.zeros(), MgConfig(),
                    ToTolerance(1e-12))
        assert res.cycles == 0 and res.status == "converged"

    def test_tolerance_converges(self):
        op = shifted(1, 64, sigma=0.01)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b,
                    MgConfig(smoother="gauss-seidel"), ToTolerance(1e-10))
        assert res.status == "converged"
        rel = np.linalg.norm(b - op.apply(res.u)) / np.linalg.norm(b)
        assert rel <= 1e-10

    def test_tolerance_stall_detection(self):
        # zero smoothing sweeps make the V-cycle stagnate on oscillatory data
        op = shifted(1, 32, sigma=0.05)
        cfg = MgConfig(pre_sweeps=0, post_sweeps=0)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(op.grid.shape)
        res = solve(op, np.zeros_like(b), b, cfg, ToTolerance(1e-14))
        assert res.status == "stalled"

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

    def test_bad_policy_values(self):
        with pytest.raises(ValueError):
            FixedCycles(0)
        with pytest.raises(ValueError):
            ToTolerance(tol=0.0)
        with pytest.raises(ValueError):
            ToTolerance(stall=1.5)


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
