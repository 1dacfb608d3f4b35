"""The batch rule: every layer takes grids stacked on leading axes, and each
stacked grid gets the bits it gets alone.

A PFASST block runs the ranks that do the same work at the same time as
one stack, so a rank's result must not depend on which ranks share its
call.  Each test here compares B stacked rows with the B row-by-row calls,
bit for bit.
"""

import functools

import numpy as np
import pytest

from pintlab import hierarchy, multigrid, transfers
from pintlab.heat import Grid, HeatOperator, initial_condition
from pintlab.hierarchy import Level, TimeStep, mlsdc_iteration
from pintlab.multigrid import (COARSEST_N, SMOOTHERS, Direct, FixedCycles,
                               MgConfig, ToTolerance, shifted_operator,
                               smooth, solve)
from pintlab.quadrature import node_dot, uniform_table
from pintlab.sdc import NodeStates, residual, sdc_sweep

BATCHES = (1, 2, 5)
GRIDS = ((1, 32), (2, 16), (3, 8))  # (dim, n)


def stack(rng, b, shape):
    return rng.standard_normal((b,) + shape)


# one more stack for the spatial layers: (node, rank, *grid) as the
# hierarchy passes it, every other node (the stride of time restriction)
# of a rank slice of a block
STACKS = BATCHES + ("nodes",)


def grids(seed, batch, shape):
    """`batch` grids of `shape` stacked on one axis, or for "nodes" a
    strided (node, rank) view of 3 x 2 grids."""
    if batch == "nodes":
        block = np.random.default_rng(seed).standard_normal((5, 4) + shape)
        return block[::2, 1:3]
    return stack(np.random.default_rng(seed + batch), batch, shape)


def assert_each_grid_alone(layer, u, dim):
    """layer(u) holds, for each grid of u, the bits of layer on that grid
    alone."""
    out = layer(u)
    lead = u.shape[:-dim]
    assert out.shape[:-dim] == lead
    for i in np.ndindex(lead):
        assert out[i].tobytes() == layer(
            np.ascontiguousarray(u[i])).tobytes()


def assert_rows_equal(stacked, rows):
    assert stacked.shape == (len(rows),) + rows[0].shape
    for got, want in zip(stacked, rows):
        assert got.tobytes() == want.tobytes()


class TestSpatialLayers:
    @pytest.mark.parametrize("batch", STACKS)
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_heat_apply(self, dim, n, order, batch):
        op = HeatOperator(Grid(dim, n), 0.7, order)
        u = grids(dim * n, batch, op.grid.shape)
        assert_each_grid_alone(op.apply, u, dim)

    def test_heat_apply_on_node_and_rank_axes(self):
        op = HeatOperator(Grid(3, 8), 1.0, 4)
        u = np.random.default_rng(0).standard_normal((3, 2) + op.grid.shape)
        out = op.apply(u)
        for m in range(3):
            assert_rows_equal(out[m], [op.apply(row) for row in u[m]])

    @pytest.mark.parametrize("batch", STACKS)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_restrictions(self, dim, n, batch):
        u = grids(n, batch, (n - 1,) * dim)
        for restrict in (transfers.inject, transfers.full_weighting):
            assert_each_grid_alone(functools.partial(restrict, dim=dim), u,
                                   dim)

    @pytest.mark.parametrize("batch", STACKS)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_interpolations(self, dim, n, batch):
        u = grids(n, batch, (n // 2 - 1,) * dim)
        for interp in (transfers.interp_linear, transfers.interp_cubic):
            assert_each_grid_alone(functools.partial(interp, dim=dim), u,
                                   dim)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_node_dot(self, dim, n, batch):
        rng = np.random.default_rng(batch)
        mat = rng.standard_normal((4, 3))
        # a rank slice of a node-first block array, as the engine passes it
        block = rng.standard_normal((3, batch + 2) + (n - 1,) * dim)
        values = block[:, 1:batch + 1]
        out = node_dot(mat, values)
        for r in range(batch):
            assert out[:, r].tobytes() == node_dot(
                mat, np.ascontiguousarray(values[:, r])).tobytes()


def shifted(dim, n, order=2, sigma=0.05):
    return shifted_operator(HeatOperator(Grid(dim, n), 1.0, order), sigma)


def assert_each_pair_alone(layer, u, b, dim):
    """layer(u, b) holds, for each grid pair of u and b, the bits of layer
    on that pair alone."""
    out = layer(u, b)
    lead = u.shape[:-dim]
    assert out.shape == u.shape
    for i in np.ndindex(lead):
        assert out[i].tobytes() == layer(np.ascontiguousarray(u[i]),
                                         np.ascontiguousarray(b[i])).tobytes()


class TestResidualAndSmoothers:
    @pytest.mark.parametrize("batch", STACKS)
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_residual(self, dim, n, order, batch):
        op = shifted(dim, n, order)
        u = grids(dim * n, batch, op.grid.shape)
        b = grids(dim * n + 1, batch, op.grid.shape)
        assert_each_pair_alone(op.residual, u, b, dim)

    @pytest.mark.parametrize("batch", STACKS)
    @pytest.mark.parametrize("smoother", SMOOTHERS)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_smoother(self, dim, n, smoother, batch):
        op = shifted(dim, n, order=4)
        u = grids(dim * n, batch, op.grid.shape)
        b = grids(dim * n + 1, batch, op.grid.shape)
        cfg = MgConfig(smoother=smoother)
        assert_each_pair_alone(lambda u, b: smooth(op, u, b, cfg, 2), u, b,
                               dim)


def assert_solves_equal(op, u0, b, cfg, policy):
    stacked = solve(op, u0, b, cfg, policy)
    rows = [solve(op, u0[i], b[i], cfg, policy) for i in range(len(b))]
    assert_rows_equal(stacked.u, [r.u for r in rows])
    assert stacked.cycles.tolist() == [int(r.cycles) for r in rows]
    assert stacked.status.tolist() == [str(r.status) for r in rows]
    return rows


class TestMultigridSolve:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("policy", [FixedCycles(2), ToTolerance(1e-10),
                                        Direct()],
                             ids=["fixed", "tolerance", "direct"])
    @pytest.mark.parametrize("smoother", SMOOTHERS)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_stacked_rows_equal_row_by_row(self, dim, n, smoother, policy,
                                           batch):
        op = shifted(dim, n)
        rng = np.random.default_rng(dim + batch)
        b = stack(rng, batch, op.grid.shape)
        u0 = 0.1 * stack(rng, batch, op.grid.shape)
        assert_solves_equal(op, u0, b, MgConfig(smoother=smoother), policy)

    @pytest.mark.parametrize("smoother", SMOOTHERS)
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_tolerance_rows_stop_on_their_own(self, dim, n, smoother,
                                              monkeypatch):
        # each row runs to its own stop: a smooth right-hand side stalls
        # at its roundoff floor above the tolerance, a zero one stops at
        # once, and the others, one warm-started at the solution, stop
        # after different cycle counts
        op = shifted(dim, n)
        g = op.grid
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(g.shape)
        exact = op.solve_direct(noise)
        rows = [(np.zeros(g.shape), noise),
                (np.zeros(g.shape), initial_condition(g, 1)),
                (np.zeros(g.shape), np.zeros(g.shape)),
                (exact, noise),
                (exact + 1e-6 * rng.standard_normal(g.shape), noise),
                (np.zeros(g.shape), initial_condition(g, n // 2))]
        u0, b = (np.stack(a) for a in zip(*rows))
        monkeypatch.setattr(multigrid, "MAX_CYCLES", 200)
        ref = assert_solves_equal(op, u0, b,
                                  MgConfig(smoother, pre_sweeps=1,
                                           post_sweeps=1),
                                  ToTolerance(2.5e-16))
        statuses = [str(r.status) for r in ref]
        cycles = [int(r.cycles) for r in ref]
        assert statuses[1] == "stalled" and statuses[5] == "converged"
        assert cycles[2] == 0 and cycles[3] < cycles[4] < cycles[0]
        assert len({cycles[0], cycles[1], cycles[4], cycles[5]}) > 1

    @pytest.mark.parametrize("batch", [2, 9])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_gauss_seidel_triangle_takes_all_rows_at_once(self, dim, n,
                                                          batch):
        # the one SuperLU solve over all rows of a 2D or 3D Gauss-Seidel
        # sweep must match single solves
        lower = shifted(dim, n, order=4).gauss_seidel_factor
        b = np.random.default_rng(batch).standard_normal((batch, (n - 1)
                                                          ** dim))
        assert_rows_equal(lower.solve(b.T).T, [lower.solve(row) for row in b])

    @pytest.mark.parametrize("batch", [2, 5, 16, 64])
    @pytest.mark.parametrize("sigma", [1e-4, 0.05, 5.0])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coarsest_factor_takes_all_rows_at_once(self, dim, order, sigma,
                                                    batch):
        # the one SuperLU solve over all rows that V-cycles make on their
        # coarsest grid must match single solves
        op = shifted(dim, COARSEST_N, order, sigma)
        assert op.coarsest
        b = stack(np.random.default_rng(batch), batch, op.grid.shape)
        assert_rows_equal(op.solve_direct(b),
                          [op.lu.solve(row.ravel()).reshape(row.shape)
                           for row in b])


def two_levels(dim, n, policy):
    cfg = MgConfig(smoother="gauss-seidel")
    return [Level(HeatOperator(Grid(dim, n), 1.0, 2), uniform_table(2), cfg,
                  policy, space_interp_order=4),
            Level(HeatOperator(Grid(dim, n // 2), 1.0, 2), uniform_table(1),
                  cfg, policy)]


class TestNodeLayers:
    @pytest.mark.parametrize("policy", [FixedCycles(1), ToTolerance(1e-9)],
                             ids=["fixed", "tolerance"])
    @pytest.mark.parametrize("dim,n", [(1, 32), (3, 8)])
    def test_ranks_equal_rank_by_rank(self, dim, n, policy):
        # a sweep, a residual and an MLSDC iteration of stacked ranks equal
        # those of each rank alone
        levels = two_levels(dim, n, policy)
        g = levels[0].grid
        u0 = np.stack([initial_condition(g, k) for k in (1, 2, 3)])
        batch = TimeStep.spread(levels, u0)
        alone = [TimeStep.spread(levels, u0[r:r + 1]) for r in range(3)]
        lvl = levels[1]
        cycles = sdc_sweep(batch.states[1], 0.05, lvl.operator, lvl.mg_cfg,
                           lvl.policy)
        assert cycles.tolist() == [
            int(sdc_sweep(ts.states[1], 0.05, lvl.operator, lvl.mg_cfg,
                          lvl.policy)[0]) for ts in alone]
        coarse_y0 = batch.states[1].y[-1, :2].copy()
        cycles = mlsdc_iteration(batch, 0.05, coarse_y0)
        assert cycles.tolist() == [
            int(mlsdc_iteration(ts, 0.05, y0)[0])
            for ts, y0 in zip(alone, [None, coarse_y0[:1], coarse_y0[1:]])]
        assert residual(batch.states[0], 0.05).tolist() == [
            float(residual(ts.states[0], 0.05)[0]) for ts in alone]
        for l in range(2):
            for field in ("y", "f"):
                stacked = getattr(batch.states[l], field)
                for r, ts in enumerate(alone):
                    assert stacked[:, r].tobytes() == getattr(
                        ts.states[l], field)[:, 0].tobytes()

    @pytest.mark.parametrize("restrict", ["full-weighting", "inject"])
    def test_one_transfer_per_level_pair(self, restrict, monkeypatch):
        # one MLSDC iteration moves all nodes of all ranks at once: per
        # pair of levels, one restriction of the states, one of the node
        # integrals, and one interpolation of the correction
        cfg = MgConfig(smoother="gauss-seidel")
        levels = [Level(HeatOperator(Grid(1, n), 1.0, 2), uniform_table(m),
                        cfg, FixedCycles(1), space_interp_order=order,
                        space_restrict=restrict)
                  for n, m, order in ((32, 4, 4), (16, 2, 2), (8, 1, 2))]
        calls = []
        for name in ("inject", "full_weighting", "interp_linear",
                     "interp_cubic"):
            def counted(u, dim, _name=name, _f=getattr(hierarchy, name)):
                calls.append((_name, u.shape[:2]))
                return _f(u, dim)
            monkeypatch.setattr(hierarchy, name, counted)
        u0 = np.stack([initial_condition(levels[0].grid, k) for k in (1, 2)])
        ts = TimeStep.spread(levels, u0)
        calls.clear()
        mlsdc_iteration(ts, 0.05)
        down = restrict.replace("-", "_")
        assert calls == [(down, (3, 2)), (down, (3, 2)),
                         (down, (2, 2)), (down, (2, 2)),
                         ("interp_linear", (3, 2)),
                         ("interp_cubic", (5, 2))]

    def test_spread_repeats_each_rank(self):
        op = HeatOperator(Grid(1, 8), 1.0, 2)
        y0 = np.stack([initial_condition(op.grid, k) for k in (1, 2)])
        states = NodeStates.spread(op, uniform_table(2), y0)
        assert states.y.shape == (3, 2, 7) and states.f.shape == (2, 2, 7)
        np.testing.assert_array_equal(states.f[1], op.apply(y0))
