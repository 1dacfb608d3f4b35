"""Experiment drivers and the command-line entry point.

Each subcommand reproduces one study on the heat equation: the scalar
damping scan, the serial SDC order study, the V-cycles-per-solve
comparison, weak scaling of IPFASST, the desk-scale 3D strong-scaling
configuration, and a free-form single run.  Results go to CSV with the
fully resolved configuration appended as `#` comment lines, so any output
file can be reproduced from its own footer.

Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence (the CSV is still written) or failure (a multigrid solve
that did not converge or whose residual is not finite; no CSV), 4 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from .analysis import damping_scan
from .config import (ConfigError, ExperimentConfig, parse_config,
                     resolved_lines, validate)
from .heat import Grid, HeatOperator, exact_ode, exact_pde, initial_condition
from .hierarchy import Level
from .multigrid import Direct, MgConfig, MultigridError
from .pfasst import pfasst_run
from .quadrature import uniform_table
from .sdc import SubStepError, run_sdc

OK = "ok"
NO_CONVERGENCE = "max-iter"


def _mg_config(cfg: ExperimentConfig) -> MgConfig:
    return MgConfig(smoother=cfg.smoother, omega=cfg.omega,
                    pre_sweeps=cfg.pre_sweeps, post_sweeps=cfg.post_sweeps)


def build_levels(cfg: ExperimentConfig) -> list[Level]:
    """Level hierarchy with factor-2 spatial coarsening where possible."""
    mg = _mg_config(cfg)
    policy = cfg.solve_policy()
    grid = Grid(cfg.dim, cfg.n_x, cfg.length)
    levels = []
    for i in range(cfg.levels):
        op = HeatOperator(grid, cfg.nu, cfg.orders[i])
        levels.append(Level(op, uniform_table(cfg.nodes[i] - 1), mg, policy,
                            space_interp_order=cfg.interp_order,
                            space_restrict=cfg.restrict))
        if i + 1 < cfg.levels and grid.n >= 4:
            grid = grid.coarsen()
    return levels


def _errors(cfg: ExperimentConfig, u: np.ndarray,
            t: float) -> tuple[str, float]:
    """(ode_error or '', pde_error) at time t in the max norm."""
    grid = Grid(cfg.dim, cfg.n_x, cfg.length)
    pde = float(np.max(np.abs(u - exact_pde(grid, cfg.k, cfg.nu, t))))
    if cfg.dim == 1 and cfg.orders[0] == 2:
        ode = float(np.max(np.abs(u - exact_ode(grid, cfg.k, cfg.nu, t))))
        return repr(ode), pde
    return "", pde


# ----------------------------------------------------------------------
# experiment drivers: each returns (header, rows, converged)

def run_damping(cfg: ExperimentConfig):
    rows = []
    for order in (2, 4):
        scan = damping_scan(uniform_table(order))
        rows.extend((order, repr(float(z)), repr(float(r)), OK)
                    for z, r in zip(scan.lam_dt, scan.rho))
    return ["order", "lam_dt", "rho", "status"], rows, True


def run_order_study(cfg: ExperimentConfig):
    grid = Grid(1, cfg.n_x, cfg.length)
    op = HeatOperator(grid, cfg.nu, 2)
    u0 = initial_condition(grid, cfg.k)
    mg = _mg_config(cfg)
    rows, all_ok = [], True
    for order in (1, 2, 4, 8):
        table = uniform_table(order)
        for p in range(1, 13):
            n_t = 2 ** p
            res = run_sdc(op, table, u0, cfg.t_end, n_t, cfg.tol,
                          cfg.max_iter, mg, Direct())
            ok = not res.exhausted_steps
            all_ok = all_ok and ok
            ode, pde = _errors(cfg, res.u, cfg.t_end)
            rows.append((order, n_t, ode, repr(pde),
                         repr(res.trace[-1].residual),
                         OK if ok else NO_CONVERGENCE))
    header = ["order", "n_t", "ode_error", "pde_error", "residual", "status"]
    return header, rows, all_ok


def _run(cfg: ExperimentConfig, p: int, record_final_values: bool = False):
    """Run the configured levels on the time-stepping engine with p ranks
    per block; SDC and MLSDC variants run on one rank."""
    levels = build_levels(cfg)
    u0 = initial_condition(levels[0].grid, cfg.k)
    return pfasst_run(levels, u0, cfg.t_end, p, blocks=cfg.n_t // p,
                      tol=cfg.tol, max_iter=cfg.max_iter,
                      executor=cfg.executor,
                      record_final_values=record_final_values)


def _per_iteration_rows(cases):
    """Run each (row prefix, config) IPFASST case; one row per iteration of
    the last rank, errors taken from its final-node value."""
    rows, all_ok = [], True
    for prefix, cfg in cases:
        res = _run(cfg, cfg.p, record_final_values=True)
        residuals = [r.residual for r in res.trace
                     if r.rank == cfg.p - 1 and r.level == 0
                     and r.block == cfg.n_t // cfg.p - 1]
        converged = all(res.converged[-1])
        all_ok = all_ok and converged
        final = zip(res.final_values[-1], residuals)
        for it, (u, resid) in enumerate(final, 1):
            ode, pde = _errors(cfg, u, cfg.t_end)
            rows.append(prefix + (it, ode, repr(pde), repr(resid),
                                  OK if converged else NO_CONVERGENCE))
    return rows, all_ok


def run_vcycle_study(cfg: ExperimentConfig):
    rows, all_ok = _per_iteration_rows(
        ((v,), validate(replace(cfg, policy=f"fixed:{v}")))
        for v in range(1, 11))
    header = ["vcycles_per_solve", "iter", "ode_error", "pde_error",
              "residual", "status"]
    return header, rows, all_ok


def run_weak_scaling(cfg: ExperimentConfig):
    rows, all_ok = _per_iteration_rows(
        ((n,), validate(replace(cfg, n_x=n, n_t=n, p=n)))
        for n in (32, 64, 128))
    header = ["n", "iter", "ode_error", "pde_error", "residual", "status"]
    return header, rows, all_ok


def run_strong_3d(cfg: ExperimentConfig):
    res = _run(cfg, cfg.p)
    converged = not res.exhausted_steps
    _, pde = _errors(cfg, res.u, cfg.t_end)
    rows = [(rank, res.rank_iterations[-1][rank], res.rank_vcycles[-1][rank],
             repr(pde), OK if converged else NO_CONVERGENCE)
            for rank in range(cfg.p)]
    header = ["rank", "iterations", "vcycles", "pde_error", "status"]
    return header, rows, converged


def run_single(cfg: ExperimentConfig):
    p = cfg.p if cfg.variant in ("PFASST", "IPFASST") else 1
    res = _run(cfg, p)
    converged = not res.exhausted_steps
    ode, pde = _errors(cfg, res.u, cfg.t_end)
    rows = [(cfg.variant, cfg.n_t, ode, repr(pde),
             repr(res.trace[-1].residual), sum(res.iterations), res.vcycles,
             OK if converged else NO_CONVERGENCE)]
    header = ["variant", "n_t", "ode_error", "pde_error", "residual",
              "iterations", "vcycles", "status"]
    return header, rows, converged


DRIVERS = {
    "damping": run_damping,
    "order-study": run_order_study,
    "vcycle-study": run_vcycle_study,
    "weak-scaling": run_weak_scaling,
    "strong-3d": run_strong_3d,
    "single-run": run_single,
}

# subcommand presets layered under file values and --set overrides
PRESETS: dict[str, dict] = {
    "damping": dict(variant="SDC", levels=1, nodes=(3,), orders=(2,),
                    policy="direct"),
    "order-study": dict(variant="SDC", levels=1, nodes=(3,), orders=(2,),
                        policy="direct", n_x=128, tol=1e-11, max_iter=50),
    "vcycle-study": dict(variant="IPFASST", smoother="jacobi",
                         policy="fixed:2", n_x=128, n_t=128, p=128,
                         levels=3, nodes=(3, 3, 2), orders=(2, 2, 2)),
    "weak-scaling": dict(variant="IPFASST", smoother="gauss-seidel",
                         policy="fixed:2", levels=3, nodes=(3, 3, 2),
                         orders=(2, 2, 2)),
    "strong-3d": dict(variant="IPFASST", dim=3, n_x=32, n_t=24, p=24,
                      nu=1.0 / 3.0, smoother="jor-rb", policy="fixed:2",
                      levels=2, nodes=(5, 3), orders=(4, 2), omega=1.0,
                      interp_order=4, restrict="full-weighting"),
    "single-run": dict(variant="SDC", levels=1, nodes=(3,), orders=(2,),
                       policy="direct", n_t=128),
}


def write_csv(path: str, header: list[str], rows: list[tuple],
              cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        for line in resolved_lines(cfg):
            fh.write(f"# {line}\r\n")


def run_experiment(cfg: ExperimentConfig) -> int:
    try:
        # a failure is reported below as one line, not by NumPy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            header, rows, converged = DRIVERS[cfg.experiment](cfg)
    except (MultigridError, SubStepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:  # a driver's per-case configuration
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = cfg.out or f"{cfg.experiment}.csv"
    try:
        write_csv(out, header, rows, cfg)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {out} ({len(rows)} rows)")
    if not converged:
        print("warning: tolerance not reached within max_iter",
              file=sys.stderr)
        return 3
    return 0


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pintlab", description="parallel-in-time heat equation lab")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in DRIVERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value file")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--threads", type=int, default=1,
                       help="1 = serial executor, >1 = threaded")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="overrides", help="override one config key")
    args = parser.parse_args(argv)

    preset = dict(PRESETS[args.experiment], experiment=args.experiment)
    if args.threads > 1:
        preset["executor"] = "threaded"
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads={args.threads} is below 1")
        overrides = _parse_overrides(args.overrides)
        if args.out is not None:
            overrides["out"] = args.out
        cfg = parse_config(args.config, overrides, **preset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return 4
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
