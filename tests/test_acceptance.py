"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
verdict line (visible with `pytest -s` or in captured output).  The
checks exercise the package through its public API exactly as the CLI
drivers do, at desk scale, with explicit tolerances and runtime budgets.
"""

import time

import numpy as np
import pytest

from pintlab.analysis import damping_factor, damping_scan
from pintlab.cli import PRESETS, build_levels
from pintlab.config import parse_config
from pintlab.heat import (Grid, HeatOperator, exact_ode, exact_pde,
                          initial_condition, scalar_operator)
from pintlab.hierarchy import Level, compute_fas, restrict_state
from pintlab.multigrid import Direct, FixedCycles, MgConfig, operator_matrix
from pintlab.pfasst import pfasst_run
from pintlab.quadrature import uniform_table
from pintlab.sdc import NodeStates, collocation_solve, run_sdc, sdc_sweep

# Every test here is one of the nine criteria; `pytest -m "not slow"`
# leaves them out for a quick loop.
pytestmark = pytest.mark.slow


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def preset_config(experiment: str, **overrides):
    raw = {k: str(v) for k, v in overrides.items()}
    return parse_config(None, raw, experiment=experiment,
                        **PRESETS[experiment])


def last_rank_errors(cfg):
    """Per-iteration final-node errors and residuals of the last rank."""
    levels = build_levels(cfg)
    grid = levels[0].operator.grid
    u0 = initial_condition(grid, cfg.k)
    res = pfasst_run(levels, u0, cfg.t_end, cfg.p, blocks=cfg.n_t // cfg.p,
                     tol=cfg.tol, max_iter=cfg.max_iter,
                     executor=cfg.executor, record_final_values=True)
    exact = exact_pde(grid, cfg.k, cfg.nu, cfg.t_end)
    errs = [float(np.max(np.abs(u - exact))) for u in res.final_values[-1]]
    resid = [r.residual for r in res.trace
             if r.rank == cfg.p - 1 and r.level == 0
             and r.block == cfg.n_t // cfg.p - 1]
    return np.array(errs), np.array(resid), res


def test_criterion_1_quadrature_exactness():
    start = time.monotonic()
    eps = np.finfo(float).eps
    worst = 0.0
    for m in (1, 2, 4, 8):
        table = uniform_table(m)
        x = np.array(table.nodes.nodes, dtype=float)
        for degree in range(m):
            err = np.max(np.abs(table.q @ x**degree
                                - x**(degree + 1) / (degree + 1)))
            worst = max(worst, err / (100 * eps * m * m))
    table2 = uniform_table(2)
    row_ok = (np.allclose(table2.q[1], [0.0, 0.75, -0.25], atol=1e-15)
              and np.allclose(table2.q[2], [0.0, 1.0, 0.0], atol=1e-15))
    elapsed = time.monotonic() - start
    ok = worst <= 1.0 and row_ok and elapsed < 1.0
    verdict(1, ok, f"worst scaled exactness error {worst:.3f} of bound, "
            f"m=2 rows {'match' if row_ok else 'differ'}, {elapsed:.2f}s")
    assert worst <= 1.0
    assert row_ok
    assert elapsed < 1.0


def test_criterion_2_damping_limits():
    start = time.monotonic()
    scan1 = damping_scan(uniform_table(1))
    m1_max = float(np.max(scan1.rho))
    rho = {(m, z): damping_factor(uniform_table(m), z)
           for m in (2, 4) for z in (-1e-3, -1e6)}
    jumps = []
    for m in (2, 3, 4):
        scan = damping_scan(uniform_table(m))
        jumps.append(float(np.max(np.abs(np.diff(scan.rho)))))
    elapsed = time.monotonic() - start
    ok = (m1_max == 0.0 and max(jumps) < 0.05
          and all(r <= 1e-3 for r in rho.values()) and elapsed < 1.0)
    verdict(2, ok, "rho(m=2,-1e-3)=%.1e rho(m=2,-1e6)=%.1e "
            "rho(m=4,-1e-3)=%.1e rho(m=4,-1e6)=%.1e m=1 max=%.1e, %.2fs"
            % (rho[(2, -1e-3)], rho[(2, -1e6)], rho[(4, -1e-3)],
               rho[(4, -1e6)], m1_max, elapsed))
    assert m1_max == 0.0
    assert max(jumps) < 0.05
    assert elapsed < 1.0
    assert rho[(2, -1e-3)] <= 1e-3
    assert rho[(2, -1e6)] <= 1e-3
    assert rho[(4, -1e-3)] <= 1e-3
    assert rho[(4, -1e6)] <= 1e-3


def test_criterion_3_sweep_contraction_matches_damping():
    start = time.monotonic()
    table = uniform_table(2)
    worst = 0.0
    details = []
    for z in (-0.1, -1.0, -10.0):
        op = scalar_operator(z)
        y0 = np.array([1.0])
        exact = collocation_solve(op, table, y0, 1.0)
        states = NodeStates.spread(op, table, y0[None])  # one rank
        errs = []
        for _ in range(30):
            sdc_sweep(states, 1.0, op, MgConfig(), Direct())
            errs.append(float(np.max(np.abs(states.y - exact.y))))
            if errs[-1] < 1e-12:  # stay above the roundoff floor
                break
        # geometric-mean contraction after 3 warm-up sweeps
        k0, k1 = 3, len(errs) - 1
        measured = (errs[k1] / errs[k0]) ** (1.0 / (k1 - k0))
        rho = damping_factor(table, z)
        rel = abs(measured - rho) / rho
        worst = max(worst, rel)
        details.append(f"z={z:g}: {rel:.1%}")
    elapsed = time.monotonic() - start
    ok = worst <= 0.05 and elapsed < 1.0
    verdict(3, ok, "contraction vs damping factor rel diffs "
            + ", ".join(details) + f", {elapsed:.2f}s")
    assert worst <= 0.05
    assert elapsed < 1.0


def test_criterion_4_order_study():
    start = time.monotonic()
    grid = Grid(1, 128, 1.0)
    op = HeatOperator(grid, 1.0, 2)
    u0 = initial_condition(grid, 1)
    mg = MgConfig()
    exact = exact_ode(grid, 1, 1.0, 1.0)
    slopes = {}
    for order in (1, 2, 4):
        errs = []
        for n_t in (4, 8, 16, 32, 64, 128, 256):
            res = run_sdc(op, uniform_table(order), u0, 1.0, n_t,
                          1e-13, 60, mg, Direct())
            errs.append(float(np.max(np.abs(res.u - exact))))
        errs = np.array(errs)
        # best observed pairwise slope above the resolution floor
        pair = np.log2(errs[:-1] / errs[1:])
        usable = pair[errs[1:] > 1e-11]
        slopes[order] = float(np.max(usable))
    res8 = run_sdc(op, uniform_table(8), u0, 1.0, 2, 1e-13, 80, mg, Direct())
    res2 = run_sdc(op, uniform_table(2), u0, 1.0, 128, 1e-13, 80, mg,
                   Direct())
    pde = exact_pde(grid, 1, 1.0, 1.0)
    err8 = float(np.max(np.abs(res8.u - pde)))
    err2 = float(np.max(np.abs(res2.u - pde)))
    elapsed = time.monotonic() - start
    slopes_ok = all(slopes[o] >= o - 0.3 for o in (1, 2, 4))
    headline_ok = err8 < err2
    ok = slopes_ok and headline_ok and elapsed < 120
    verdict(4, ok, "slopes %s, order-8 n_t=2 err %.2e vs order-2 n_t=128 "
            "err %.2e, %.1fs" % ({o: round(s, 2) for o, s in slopes.items()},
                                 err8, err2, elapsed))
    for order in (1, 2, 4):
        assert slopes[order] >= order - 0.3
    assert err8 < err2
    assert elapsed < 120


def test_criterion_5_vcycle_study():
    start = time.monotonic()
    # tighter tolerance than the driver default so both budgets converge
    # to the same discretization floor before the final-error comparison
    runs = {v: last_rank_errors(preset_config(
        "vcycle-study", policy=f"fixed:{v}", tol=1e-10))
        for v in (2, 3, 10)}
    err2, err10 = runs[2][0][-1], runs[10][0][-1]
    err_rel = abs(err2 - err10) / err10
    r3, r10 = runs[3][1], runs[10][1]
    n = min(len(r3), len(r10))
    resid_rel = float(np.max(np.abs(r3[:n] - r10[:n]) / r10[:n]))
    elapsed = time.monotonic() - start
    ok = err_rel <= 0.05 and resid_rel <= 0.10 and elapsed < 300
    verdict(5, ok, f"final-error gap v=2 vs v=10: {err_rel:.2%}, "
            f"residual-curve gap v=3 vs v=10: {resid_rel:.2%}, "
            f"{elapsed:.0f}s")
    assert err_rel <= 0.05
    assert resid_rel <= 0.10
    assert elapsed < 300


def test_criterion_6_weak_scaling_floor():
    start = time.monotonic()
    floors = {}
    for n in (32, 64, 128):
        errs, _, _ = last_rank_errors(
            preset_config("weak-scaling", n_x=n, n_t=n, p=n))
        # floor reached: first iteration within a factor 2 of the final
        floors[n] = int(np.argmax(errs <= 2 * errs[-1])) + 1
    elapsed = time.monotonic() - start
    ok = (abs(floors[32] - 5) <= 1 and abs(floors[64] - 3) <= 1
          and abs(floors[128] - 3) <= 1 and elapsed < 300)
    verdict(6, ok, f"error floor reached at iteration {floors[32]} (n=32), "
            f"{floors[64]} (n=64), {floors[128]} (n=128), {elapsed:.0f}s")
    assert abs(floors[32] - 5) <= 1
    assert abs(floors[64] - 3) <= 1
    assert abs(floors[128] - 3) <= 1
    assert elapsed < 300


def test_criterion_7_structural_equivalences():
    start = time.monotonic()
    cfg = preset_config("weak-scaling", n_x=32, n_t=32, p=32)
    levels = build_levels(cfg)
    u0 = initial_condition(levels[0].operator.grid, 1)

    # one rank, several blocks, is bitwise identical to serial MLSDC run
    # one time step at a time
    one_rank = pfasst_run(levels, u0, cfg.t_end, p=1, blocks=4,
                          tol=1e-10, max_iter=20)
    serial_ml = u0
    for _ in range(4):
        serial_ml = pfasst_run(levels, serial_ml, cfg.t_end / 4, p=1,
                               tol=1e-10, max_iter=20).u
    p1_bitwise = np.array_equal(one_rank.u, serial_ml)

    # serial and threaded executors agree bitwise on the full case
    a = pfasst_run(levels, u0, cfg.t_end, cfg.p, tol=cfg.tol,
                   max_iter=cfg.max_iter, executor="serial")
    b = pfasst_run(levels, u0, cfg.t_end, cfg.p, tol=cfg.tol,
                   max_iter=cfg.max_iter, executor="threaded")
    exec_bitwise = (np.array_equal(a.u, b.u)
                    and a.rank_iterations == b.rank_iterations)

    # after p iterations the pipeline reproduces the serial stepper
    pipeline = pfasst_run(levels, u0, cfg.t_end, p=4, tol=1e-13, max_iter=40)
    stepper = pfasst_run(levels, u0, cfg.t_end, p=1, blocks=4, tol=1e-13,
                         max_iter=40)
    exactness = float(np.max(np.abs(pipeline.u - stepper.u)))

    elapsed = time.monotonic() - start
    ok = p1_bitwise and exec_bitwise and exactness < 1e-10 and elapsed < 60
    verdict(7, ok, f"p=1 bitwise: {p1_bitwise}, serial==threaded: "
            f"{exec_bitwise}, exactness-in-p gap {exactness:.1e}, "
            f"{elapsed:.1f}s")
    assert p1_bitwise
    assert exec_bitwise
    assert exactness < 1e-10
    assert elapsed < 60


def test_criterion_8_fas_oracle():
    start = time.monotonic()
    mg = MgConfig(smoother="gauss-seidel")
    fine = Level(HeatOperator(Grid(1, 8), 1.0, 2), uniform_table(2), mg,
                 Direct())
    coarse = Level(HeatOperator(Grid(1, 4), 1.0, 2), uniform_table(1), mg,
                   Direct())
    u0 = initial_condition(fine.grid, 1)
    dt = 0.05
    fine_states = collocation_solve(fine.operator, fine.table, u0, dt)
    restricted = restrict_state(fine_states, fine, coarse)
    tau = compute_fas(fine_states, restricted, fine, coarse, dt)

    a = operator_matrix(coarse.operator).toarray()
    m1 = coarse.table.m + 1
    dof = coarse.grid.dof
    system = np.eye(m1 * dof) - dt * np.kron(coarse.table.q, a)
    rhs = np.tile(restricted.y[0, 0], m1) + tau.ravel()
    sol = np.linalg.solve(system, rhs).reshape(m1, dof)
    gap = float(np.max(np.abs(sol - restricted.y[:, 0])))
    elapsed = time.monotonic() - start
    ok = gap < 1e-10 and elapsed < 1.0
    verdict(8, ok, f"tau-corrected coarse vs restricted fine collocation "
            f"gap {gap:.1e}, {elapsed:.2f}s")
    assert gap < 1e-10
    assert elapsed < 1.0


def test_criterion_9_strong_3d():
    start = time.monotonic()
    cfg = preset_config("strong-3d", executor="threaded")
    levels = build_levels(cfg)
    grid = levels[0].operator.grid
    u0 = initial_condition(grid, cfg.k)
    res = pfasst_run(levels, u0, cfg.t_end, cfg.p, blocks=cfg.n_t // cfg.p,
                     tol=cfg.tol, max_iter=cfg.max_iter,
                     executor=cfg.executor)
    err = float(np.max(np.abs(res.u - exact_pde(grid, cfg.k, cfg.nu,
                                                cfg.t_end))))
    last_rank_iters = res.rank_iterations[-1][-1]
    max_rank_vcycles = max(max(block) for block in res.rank_vcycles)

    # serial inexact-SDC reference on the identical fine problem
    isdc = run_sdc(levels[0].operator, levels[0].table, u0, cfg.t_end,
                   cfg.n_t, cfg.tol, cfg.max_iter, levels[0].mg_cfg,
                   FixedCycles(2))
    elapsed = time.monotonic() - start
    iters_ok = 3 <= last_rank_iters <= 7
    ok = (err <= 5e-7 and iters_ok and max_rank_vcycles <= isdc.vcycles
          and elapsed < 600)
    verdict(9, ok, f"error {err:.2e} (<= 5e-7), last-rank iterations "
            f"{last_rank_iters} (target [3, 7]), max per-rank v-cycles "
            f"{max_rank_vcycles} vs serial total {isdc.vcycles}, "
            f"{elapsed:.0f}s")
    assert err <= 5e-7
    assert max_rank_vcycles <= isdc.vcycles
    assert elapsed < 600
    assert 3 <= last_rank_iters <= 7
