"""The benchmark's workloads: fixed pintlab configurations, their set-up,
one solve, and the checks on its output.

Every configuration key is written out, so a change to a CLI preset does
not change a workload.  Each workload starts from the sine mode k=1, so
its reference exists in closed form (see oracles.py).  The inputs do not
depend on the seed: the workloads are deterministic, and their iteration
and V-cycle counts and errors must repeat exactly from run to run.

This module imports only the standard library at import time; `set_up`
imports pintlab (and with it NumPy and SciPy) inside its timed region.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

WORKLOADS = {
    # The weak-scaling preset at its smallest size: small arrays, so the
    # per-call overhead of operators, V-cycle levels and time transfers
    # dominates.
    "ipfasst-1d": dict(
        experiment="weak-scaling", variant="IPFASST", dim="1", n_x="32",
        n_t="32", p="32", k="1", nu="1.0", length="1.0", t_end="1.0",
        levels="3", nodes="3,3,2", orders="2,2,2", policy="fixed:2",
        smoother="gauss-seidel", omega="0.6666666666666666",
        pre_sweeps="2", post_sweeps="2", interp_order="4",
        restrict="full-weighting", tol="1e-9", max_iter="20",
        executor="serial"),
    # The strong-3d preset with its step of 1/24 on 2 ranks over 2
    # blocks: 29,791 unknowns per level, so array arithmetic and the
    # red-black masks dominate.  The serial executor, because with two
    # busy threads the host took 7 to 25 % of each solve's CPU time away
    # (steal), and per-run medians spread by up to a quarter.
    "ipfasst-3d": dict(
        experiment="strong-3d", variant="IPFASST", dim="3", n_x="32",
        n_t="4", p="2", k="1", nu="0.3333333333333333", length="1.0",
        t_end="0.16666666666666666", levels="2", nodes="5,3",
        orders="4,2", policy="fixed:2", smoother="jor-rb", omega="1.0",
        pre_sweeps="2", post_sweeps="2", interp_order="4",
        restrict="full-weighting", tol="1e-9", max_iter="20",
        executor="serial"),
    # Single-level ISDC with every sub-step solved to 1e-10: no hierarchy,
    # no pfasst code, no time transfers; the banded Gauss-Seidel smoother
    # dominates.
    "isdc-3d-gs-tol": dict(
        experiment="single-run", variant="ISDC", dim="3", n_x="16",
        n_t="4", p="1", k="1", nu="1.0", length="1.0", t_end="0.01",
        levels="1", nodes="3", orders="2", policy="tolerance:1e-10",
        smoother="gauss-seidel", omega="0.6666666666666666",
        pre_sweeps="2", post_sweeps="2", interp_order="4",
        restrict="full-weighting", tol="1e-9", max_iter="20",
        executor="serial"),
}

# How each final state is checked.  "collocation": against R(z)^n_t times
# the sine mode, within tol * n_t in the max norm (each converged step may
# leave an error of about tol).
# "analytic": the order-4 stencil has no closed-form eigenvector, so the
# max-norm error relative to the analytic solution must stay below
# ANALYTIC_RELATIVE (2.65e-6 / 0.193 = 1.4e-5 measured).
CHECKS = {"ipfasst-1d": "collocation", "ipfasst-3d": "analytic",
          "isdc-3d-gs-tol": "collocation"}
ANALYTIC_RELATIVE = 5e-5


def source_present() -> bool:
    return (SRC / "pintlab" / "__init__.py").is_file()


@dataclass
class Setup:
    cfg: object
    levels: list
    u0: object
    modules: dict
    timings: dict


@dataclass
class Outcome:
    u: object
    iterations: int
    vcycles: int
    converged: bool


def set_up(name: str) -> Setup:
    """Import pintlab from this checkout's src/, parse the workload's
    config, build its levels and initial condition; time each stage."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pintlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pintlab imported from {cli.__file__}, "
                          f"not from {SRC}")
    modules = {m: importlib.import_module(f"pintlab.{m}")
               for m in ("config", "heat", "multigrid", "transfers",
                         "quadrature", "sdc", "hierarchy", "pfasst")}
    modules["cli"] = cli
    t1 = time.perf_counter()
    values = dict(WORKLOADS[name])
    experiment = values.pop("experiment")
    cfg = modules["config"].parse_config(None, values, experiment=experiment)
    t2 = time.perf_counter()
    levels = cli.build_levels(cfg)
    t3 = time.perf_counter()
    u0 = modules["heat"].initial_condition(levels[0].operator.grid, cfg.k)
    t4 = time.perf_counter()
    timings = {"import_s": t1 - t0, "parse_s": t2 - t1,
               "build_levels_s": t3 - t2, "initial_condition_s": t4 - t3,
               "total_s": t4 - t0}
    return Setup(cfg, levels, u0, modules, timings)


def clear_caches(setup: Setup) -> None:
    """Empty every lru_cache of pintlab's modules, so that the next solve
    rebuilds what a fresh process builds lazily in its first solve."""
    for module in setup.modules.values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def solve(setup: Setup) -> Outcome:
    """One solve of the whole time interval, as the CLI would run it.

    iterations: IPFASST sums the last rank's iterations over blocks; ISDC
    sums sweeps over steps.  vcycles: summed over ranks, levels and the
    predictor.
    """
    cfg, m = setup.cfg, setup.modules
    if cfg.variant in ("SDC", "ISDC"):
        lvl = setup.levels[0]
        res = m["sdc"].run_sdc(lvl.operator, lvl.table, setup.u0, cfg.t_end,
                               cfg.n_t, cfg.tol, cfg.max_iter, lvl.mg_cfg,
                               lvl.policy)
        return Outcome(res.u, sum(res.iterations), res.vcycles,
                       not res.exhausted_steps)
    res = m["pfasst"].pfasst_run(setup.levels, setup.u0, cfg.t_end, cfg.p,
                                 blocks=cfg.n_t // cfg.p, tol=cfg.tol,
                                 max_iter=cfg.max_iter,
                                 executor=cfg.executor)
    return Outcome(res.u, sum(block[-1] for block in res.rank_iterations),
                   res.total_vcycles,
                   all(all(block) for block in res.converged))


def check(name: str, setup: Setup,
          out: Outcome) -> tuple[float, float, list[str]]:
    """(err_max against the analytic solution, error against the
    workload's reference as bounded in CHECKS, list of failed checks)."""
    import numpy as np

    import oracles

    cfg = setup.cfg
    problems = []
    if not out.converged:
        problems.append("a rank or step did not reach the tolerance")
    exact = oracles.analytic_solution(cfg.dim, cfg.n_x, cfg.length, cfg.k,
                                      cfg.nu, cfg.t_end)
    if out.u.shape != exact.shape or not np.all(np.isfinite(out.u)):
        return float("inf"), float("inf"), problems + ["malformed state"]
    err = float(np.max(np.abs(out.u - exact)))
    if CHECKS[name] == "collocation":
        ref = oracles.collocation_solution(cfg.dim, cfg.n_x, cfg.length,
                                           cfg.k, cfg.nu, cfg.nodes[0] - 1,
                                           cfg.t_end, cfg.n_t)
        ref_err = float(np.max(np.abs(out.u - ref)))
        bound = cfg.tol * cfg.n_t
        if not ref_err <= bound:
            problems.append(f"collocation reference error {ref_err:.3e} "
                            f"> {bound:.3e}")
    else:
        ref_err = err / float(np.max(np.abs(exact)))
        if not ref_err <= ANALYTIC_RELATIVE:
            problems.append(f"relative error {ref_err:.3e} "
                            f"> {ANALYTIC_RELATIVE:.1e}")
    return err, ref_err, problems
