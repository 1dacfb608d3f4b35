"""Tests for grids, finite-difference operators, and analytic solutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import heat
from pintlab.heat import (
    Grid,
    HeatOperator,
    discrete_symbol,
    exact_ode,
    exact_pde,
    initial_condition,
    scalar_operator,
)
from pintlab.multigrid import (Direct, MgConfig, operator_matrix,
                               shifted_operator, solve)

EPS = np.finfo(float).eps


def _axis_slices(dim: int, axis: int, s: slice) -> tuple:
    idx = [slice(None)] * dim
    idx[axis] = s
    return tuple(idx)


def stencil_apply(op: HeatOperator, u: np.ndarray) -> np.ndarray:
    """The operator as a padded finite-difference stencil: the reference
    for the Kronecker-sum apply."""
    dx2 = op.grid.dx ** 2
    dim = op.grid.dim
    out = np.zeros_like(u)
    for axis in range(dim):
        p = [(0, 0)] * dim
        if op.order == 2:
            p[axis] = (1, 1)
            up = np.pad(u, p)
            out += (up[_axis_slices(dim, axis, slice(0, -2))]
                    - 2.0 * u
                    + up[_axis_slices(dim, axis, slice(2, None))]) / dx2
        else:
            p[axis] = (2, 2)
            up = np.pad(u, p)
            d4 = (-up[_axis_slices(dim, axis, slice(0, -4))]
                  + 16.0 * up[_axis_slices(dim, axis, slice(1, -3))]
                  - 30.0 * u
                  + 16.0 * up[_axis_slices(dim, axis, slice(3, -1))]
                  - up[_axis_slices(dim, axis, slice(4, None))]) / (12.0 * dx2)
            # order-2 closure at the first point inside each boundary
            d2 = (up[_axis_slices(dim, axis, slice(1, -3))]
                  - 2.0 * u
                  + up[_axis_slices(dim, axis, slice(3, -1))]) / dx2
            edge = _axis_slices(dim, axis, slice(0, 1))
            d4[edge] = d2[edge]
            edge = _axis_slices(dim, axis, slice(-1, None))
            d4[edge] = d2[edge]
            out += d4
    return op.nu * out


def dense_matrix(op: HeatOperator) -> np.ndarray:
    cols = [op.apply(e.reshape(op.grid.shape)).ravel()
            for e in np.eye(op.grid.dof)]
    return np.array(cols).T


class TestGrid:
    def test_spacing_and_shape(self):
        g = Grid(2, 8, length=2.0)
        assert g.dx == 0.25
        assert g.shape == (7, 7)
        assert g.dof == 49

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 100])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            Grid(1, bad)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Grid(4, 8)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(ValueError, match="length"):
            Grid(1, 16, bad)

    def test_coarsen_halves(self):
        assert Grid(3, 16).coarsen() == Grid(3, 8)
        with pytest.raises(ValueError):
            Grid(1, 2).coarsen()

    def test_interior_coords_exclude_boundary(self):
        x = Grid(1, 4).interior_coords()
        np.testing.assert_allclose(x, [0.25, 0.5, 0.75])


class TestStencils:
    def test_order2_row_entries(self):
        # apply to a basis vector: column of the matrix is [1, -2, 1]/dx^2
        g = Grid(1, 4)
        op = HeatOperator(g, nu=2.0, order=2)
        e1 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(op.apply(e1), 2.0 * 16.0 * np.array([1.0, -2.0, 1.0]))

    def test_order2_boundary_row(self):
        g = Grid(1, 4)
        op = HeatOperator(g, nu=1.0, order=2)
        e0 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(op.apply(e0), 16.0 * np.array([-2.0, 1.0, 0.0]))

    def test_order4_interior_row(self):
        g = Grid(1, 8)
        op = HeatOperator(g, nu=1.0, order=4)
        e3 = np.zeros(7)
        e3[3] = 1.0
        col = op.apply(e3)
        dx2 = (1 / 8) ** 2
        np.testing.assert_allclose(col[1:6],
                                   np.array([-1, 16, -30, 16, -1]) / (12 * dx2))

    def test_sine_is_eigenvector_order2(self):
        g = Grid(1, 32)
        op = HeatOperator(g, nu=1.5, order=2)
        u = initial_condition(g, 3)
        lam = 1.5 * discrete_symbol(g, 3)
        np.testing.assert_allclose(op.apply(u), lam * u, atol=1e-12)

    def test_3d_separable_eigenvalue(self):
        g = Grid(3, 8)
        op = HeatOperator(g, nu=1.0, order=2)
        u = initial_condition(g, 1)
        lam = 3.0 * discrete_symbol(Grid(1, 8), 1)
        np.testing.assert_allclose(op.apply(u), lam * u, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_order2_symmetric_negative_definite(self, dim):
        a = dense_matrix(HeatOperator(Grid(dim, 8), nu=1.0, order=2))
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        assert np.max(np.linalg.eigvalsh(a)) < 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_order4_spectrum_in_left_half_plane(self, dim):
        # the boundary closure breaks symmetry; stability still requires
        # every eigenvalue to have a negative real part
        a = dense_matrix(HeatOperator(Grid(dim, 8), nu=1.0, order=4))
        assert np.max(np.linalg.eigvals(a).real) < 0

    def test_truncation_order2(self):
        errs = []
        for n in (16, 32, 64):
            g = Grid(1, n)
            u = np.sin(np.pi * g.interior_coords())
            errs.append(np.max(np.abs(HeatOperator(g, 1.0, 2).apply(u)
                                      + np.pi**2 * u)))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(slopes > 1.9)

    def test_truncation_order4_interior(self):
        # away from the order-2 boundary closure the slope is 4
        errs = []
        for n in (16, 32, 64):
            g = Grid(1, n)
            u = np.sin(np.pi * g.interior_coords())
            resid = HeatOperator(g, 1.0, 4).apply(u) + np.pi**2 * u
            errs.append(np.max(np.abs(resid[1:-1])))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(slopes > 3.7)

    def test_order4_beats_order2(self):
        g = Grid(1, 64)
        u = np.sin(np.pi * g.interior_coords())
        e2 = np.max(np.abs(HeatOperator(g, 1.0, 2).apply(u) + np.pi**2 * u))
        e4 = np.max(np.abs(HeatOperator(g, 1.0, 4).apply(u) + np.pi**2 * u))
        assert e4 < e2 / 5

    def test_diagonal_matches_matrix(self):
        for dim, order in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]:
            op = HeatOperator(Grid(dim, 8), nu=0.7, order=order)
            np.testing.assert_allclose(op.diagonal().ravel(),
                                       np.diag(dense_matrix(op)))

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_apply_matches_stencil(self, dim, order, n):
        op = HeatOperator(Grid(dim, n, length=2.0), nu=1.0 / 3.0, order=order)
        u = np.random.default_rng(n + dim).standard_normal(op.grid.shape)
        expected = stencil_apply(op, u)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(op.apply(u), expected, rtol=0,
                                   atol=1e-13 * scale)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_apply_leaves_input_unchanged(self, dim):
        op = HeatOperator(Grid(dim, 8), nu=0.5, order=4)
        u = np.random.default_rng(dim).standard_normal(op.grid.shape)
        before = u.copy()
        op.apply(u)
        np.testing.assert_array_equal(u, before)

    def test_factor_cache_bounded_and_read_only(self, cold_caches):
        ops = [HeatOperator(Grid(1, 8), nu=1.0 + k, order=2)
               for k in range(heat.FACTOR_CACHE_SIZE + 8)]
        for op in ops:
            op.apply(np.ones(op.grid.shape))
        info = heat._axis_factor.cache_info()
        assert info.maxsize == heat.FACTOR_CACHE_SIZE
        assert info.currsize == heat.FACTOR_CACHE_SIZE
        factor = ops[-1].factor
        assert factor is ops[-1].factor
        d, d_t = factor
        assert d.shape == (7, 7)
        np.testing.assert_array_equal(d_t, d.T)
        assert d_t.flags.c_contiguous
        for mat in factor:
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_shape_check(self):
        op = HeatOperator(Grid(2, 8))
        with pytest.raises(ValueError):
            op.apply(np.zeros(7))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            HeatOperator(Grid(1, 8), order=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_diffusivity(self, bad):
        with pytest.raises(ValueError, match="diffusivity"):
            HeatOperator(Grid(1, 8), bad)

    @given(st.integers(1, 3), st.sampled_from([2, 4]),
           st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, dim, order, nu, seed):
        op = HeatOperator(Grid(dim, 8), nu=nu, order=order)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(op.grid.shape)
        v = rng.standard_normal(op.grid.shape)
        lhs = op.apply(2.0 * u - 3.0 * v)
        rhs = 2.0 * op.apply(u) - 3.0 * op.apply(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7 / op.grid.dx**2 * EPS * 100)


class TestAlongAxis:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_x_axis_transpose_gives_the_bits_of_the_view(self, dim, n, lead):
        # the C-contiguous transpose against the F-ordered view mat.T,
        # on a matrix that is not symmetric
        rng = np.random.default_rng(dim * n)
        mat = rng.standard_normal((n - 1, n - 1))
        u = rng.standard_normal(lead + (n - 1,) * dim)
        out = heat.along_axis(heat.with_transpose(mat), u, dim - 1, dim)
        assert out.tobytes() == (u @ mat.T).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_axis_matches_a_dense_product(self, dim):
        rng = np.random.default_rng(dim)
        mat = rng.standard_normal((7, 7))
        u = rng.standard_normal((2,) + (7,) * dim)
        factor = heat.with_transpose(mat)
        for axis in range(dim):
            ref = np.moveaxis(np.tensordot(mat, u, axes=(1, axis + 1)), 0,
                              axis + 1)
            np.testing.assert_allclose(
                heat.along_axis(factor, u, axis, dim), ref, rtol=1e-13,
                atol=1e-13)


class TestSymbolsAndSolutions:
    def test_discrete_symbol_value(self):
        # frozen from -(2 - 2 cos(pi/128)) * 128^2
        assert discrete_symbol(Grid(1, 128), 1) == pytest.approx(
            -9.869108962779137, abs=1e-12)

    def test_symbol_approaches_continuum(self):
        d = discrete_symbol(Grid(1, 1024), 1)
        assert abs(d + np.pi**2) < 1e-4

    def test_symbol_requires_1d(self):
        with pytest.raises(ValueError):
            discrete_symbol(Grid(2, 8), 1)
        with pytest.raises(ValueError):
            discrete_symbol(Grid(1, 8), 8)

    def test_exact_pde_amplitude(self):
        g = Grid(1, 128)
        u = exact_pde(g, 1, 1.0, 1.0)
        assert np.max(u) == pytest.approx(5.172318620381234e-05, rel=1e-10)

    def test_exact_pde_initial(self):
        g = Grid(2, 16)
        np.testing.assert_allclose(exact_pde(g, 2, 0.5, 0.0),
                                   initial_condition(g, 2))

    def test_exact_ode_matches_matrix_exponential(self):
        from scipy.linalg import expm

        g = Grid(1, 8)
        op = HeatOperator(g, 1.0, 2)
        u = expm(0.05 * dense_matrix(op)) @ initial_condition(g, 1)
        np.testing.assert_allclose(exact_ode(g, 1, 1.0, 0.05), u, atol=1e-12)

    def test_ode_pde_amplitude_ratio(self):
        # semi-discrete decay is slightly slower: exp(pi^2 + d(1)) at t = 1
        g = Grid(1, 128)
        ratio = np.max(exact_ode(g, 1, 1.0, 1.0)) / np.max(exact_pde(g, 1, 1.0, 1.0))
        assert ratio == pytest.approx(1.0004955610600514, rel=1e-10)

    @given(st.integers(1, 3), st.floats(0.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_pde_decay_monotone(self, k, t):
        g = Grid(1, 16)
        u = exact_pde(g, k, 1.0, t)
        assert np.max(np.abs(u)) <= np.max(np.abs(initial_condition(g, k))) + EPS


SCALAR_LAMBDAS = [-1e6, -50.0, -2.0, -1e-3, 0.5]


class TestScalarOperator:
    """The scalar model problem is the one-point heat operator."""

    def test_scalar_model(self):
        op = scalar_operator(-2.0)
        np.testing.assert_allclose(op.apply(np.array([3.0])), [-6.0])
        np.testing.assert_allclose(op.diagonal(), [-2.0])
        assert op.grid.shape == (1,)

    @pytest.mark.parametrize("lam", [0.0, -0.0, 5e-324, -1.7e308, 1.7e308])
    def test_builds_for_every_finite_lambda(self, lam):
        assert np.isfinite(scalar_operator(lam).diagonal()).all()

    @pytest.mark.parametrize("lam", SCALAR_LAMBDAS)
    def test_apply_diagonal_and_matrix_are_exactly_lambda(self, lam):
        op = scalar_operator(lam)
        for y in (3.0, -0.7, 1e-300):
            assert op.apply(np.array([y])).tolist() == [lam * y]
        assert op.diagonal().tolist() == [lam]
        assert operator_matrix(op).toarray().tolist() == [[lam]]

    @pytest.mark.parametrize("lam", SCALAR_LAMBDAS)
    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.25, 1.5])
    def test_direct_shifted_solve_within_one_ulp(self, lam, sigma):
        b = np.array([0.3])
        shifted = shifted_operator(scalar_operator(lam), sigma)
        u = solve(shifted, b.copy(), b, MgConfig(), Direct()).u
        exact = b[0] / (1.0 - sigma * lam)
        assert abs(u[0] - exact) <= np.spacing(abs(exact))
