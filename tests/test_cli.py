"""Tests for configuration parsing and the command-line drivers."""

import csv
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pintlab import cli
from pintlab.cli import PRESETS, build_levels, main
from pintlab.config import (ConfigError, ExperimentConfig, parse_config,
                            read_key_values, resolved_lines, validate)
from pintlab.heat import Grid, HeatOperator, exact_pde, initial_condition
from pintlab.multigrid import Direct, FixedCycles, ToTolerance
from pintlab.pfasst import pfasst_run


def read_output(path):
    """Split a result CSV into (header, rows, footer_dict)."""
    data_lines, footer = [], {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = value
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return rows[0], rows[1:], footer


class TestParseConfig:
    def test_preset_defaults_apply(self):
        cfg = parse_config(None, None, experiment="single-run",
                           variant="SDC", levels=1, nodes=(3,), orders=(2,),
                           policy="direct")
        assert cfg.variant == "SDC"
        assert cfg.nodes == (3,)
        assert cfg.n_x == 128  # dataclass default

    def test_file_overrides_preset(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("n_x = 32\nn_t = 16\n")
        cfg = parse_config(f, None, experiment="single-run", variant="SDC",
                           levels=1, nodes=(3,), orders=(2,), policy="direct",
                           n_x=64)
        assert cfg.n_x == 32
        assert cfg.n_t == 16

    def test_overrides_beat_file(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("n_x = 32\nn_t = 16\n")
        cfg = parse_config(f, {"n_t": "8"}, experiment="single-run",
                           variant="SDC", levels=1, nodes=(3,), orders=(2,),
                           policy="direct")
        assert cfg.n_x == 32   # from the file
        assert cfg.n_t == 8    # override wins

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            parse_config(None, {"bogus": "1"}, experiment="single-run",
                         variant="SDC", levels=1, nodes=(3,), orders=(2,),
                         policy="direct")

    def test_bad_value_reported_with_key(self):
        with pytest.raises(ConfigError, match="bad value for n_x"):
            parse_config(None, {"n_x": "twelve"}, experiment="single-run",
                         variant="SDC", levels=1, nodes=(3,), orders=(2,),
                         policy="direct")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_config(None, {"n_x": "16"})

    def test_nodes_parsed_as_tuple(self):
        cfg = parse_config(None, {"levels": "2", "nodes": "5,3",
                                  "orders": "4,2"},
                           experiment="single-run", variant="IPFASST",
                           policy="fixed:2", p=4, n_t=8)
        assert cfg.nodes == (5, 3)
        assert cfg.orders == (4, 2)


class TestKeyValueFiles:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("# a comment\n\nn_x = 32\n")
        assert read_key_values(f) == {"n_x": "32"}

    def test_later_lines_win(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("n_x = 32\nn_x = 64\n")
        assert read_key_values(f) == {"n_x": "64"}

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("n_x = 32\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2:"):
            read_key_values(f)


class TestCrossFieldValidation:
    def base(self, **kw):
        defaults = dict(experiment="single-run", variant="SDC", levels=1,
                        nodes=(3,), orders=(2,), policy="direct")
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_multilevel_variant_needs_two_levels(self):
        with pytest.raises(ConfigError, match="requires levels >= 2"):
            validate(self.base(variant="IPFASST", policy="fixed:2", p=1,
                               n_t=1))

    def test_single_level_variant_rejects_hierarchy(self):
        with pytest.raises(ConfigError, match="single-level"):
            validate(self.base(levels=2, nodes=(3, 2), orders=(2, 2)))

    def test_inexact_variant_forbids_direct(self):
        with pytest.raises(ConfigError, match="needs an iterative policy"):
            validate(self.base(variant="ISDC"))

    def test_exact_variant_requires_direct(self):
        with pytest.raises(ConfigError, match="set policy=direct"):
            validate(self.base(policy="fixed:2"))

    def test_pfasst_needs_nt_multiple_of_p(self):
        with pytest.raises(ConfigError, match="multiple of p"):
            validate(self.base(variant="IPFASST", levels=2, nodes=(3, 2),
                               orders=(2, 2), policy="fixed:2", n_t=10, p=4))

    def test_vcycle_study_needs_fixed_policy(self):
        with pytest.raises(ConfigError, match="FixedCycles"):
            validate(self.base(experiment="vcycle-study", variant="IPFASST",
                               levels=2, nodes=(3, 2), orders=(2, 2),
                               policy="tolerance:1e-10", n_t=8, p=4))

    def test_order_study_needs_single_level_variant(self):
        with pytest.raises(ConfigError, match="order-study runs single-level"):
            validate(self.base(experiment="order-study", variant="MLSDC",
                               levels=2, nodes=(3, 2), orders=(2, 2)))

    def test_all_problems_reported_at_once(self):
        bad = self.base(dim=7, smoother="sor", executor="mpi",
                        interp_order=3, n_t=0)
        with pytest.raises(ConfigError) as exc:
            validate(bad)
        message = str(exc.value)
        for fragment in ("dim must be", "smoother must be",
                         "executor must be", "interp_order must be",
                         "must be positive"):
            assert fragment in message

    def test_bad_policy_string(self):
        with pytest.raises(ConfigError, match="policy must be"):
            self.base(policy="newton").solve_policy()

    def test_solve_policy_parses(self):
        assert self.base(policy="fixed:3").solve_policy() == FixedCycles(3)
        assert self.base(policy="tolerance:1e-8").solve_policy() == \
            ToTolerance(1e-8)
        assert self.base().solve_policy() == Direct()
        assert self.base(policy="fixed").solve_policy() == FixedCycles(2)
        assert self.base(policy="tolerance").solve_policy() == \
            ToTolerance(1e-12)


class TestResolvedLines:
    def test_footer_round_trips(self, tmp_path):
        cfg = parse_config(None, {"n_x": "16", "tol": "1e-8"},
                           experiment="single-run", variant="SDC", levels=1,
                           nodes=(3,), orders=(2,), policy="direct")
        f = tmp_path / "cfg"
        f.write_text("\n".join(resolved_lines(cfg)))
        again = parse_config(f, None, experiment="single-run")
        assert again == cfg


# --set values of a two-level IPFASST single run
IPFASST_TWO_LEVELS = ["variant=IPFASST", "levels=2", "nodes=3,2",
                      "orders=2,2"]


class TestMainExitCodes:
    def test_single_run_succeeds(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["single-run", "--out", str(out),
                     "--set", "n_x=16", "--set", "n_t=4"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["single-run", "--set", "bogus=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["n_x=12"],
        ["max_iter=0"],
        ["variant=MLSDC", "levels=2", "nodes=3,5", "orders=2,2"],
        ["variant=MLSDC", "levels=2", "nodes=3,3", "orders=2,4"],
        ["pre_sweeps=-1"],
        ["variant=ISDC", "policy=fixed:0"],
        ["variant=ISDC", "policy=tolerance:0"],
        ["variant=ISDC", "policy=tolerance:inf"],
        ["variant=ISDC", "policy=tolerance:1e400"],
        ["k=0"],
        ["k=16"],
        ["nu=inf"],
        ["t_end=inf"],
        ["length=nan"],
        ["tol=nan"],
        ["omega=nan"],
    ])
    def test_invalid_value_exits_2_with_one_line(self, overrides, tmp_path,
                                                 capsys):
        # each of these used to escape validation and end in a traceback,
        # a singular factor or a CSV of NaNs
        args = ["single-run", "--out", str(tmp_path / "res.csv"),
                "--set", "n_x=16", "--set", "n_t=4"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("args", [
        ["strong-3d", "--set", "variant=IMLSDC", "--set", "n_t=25",
         "--set", "n_x=8"],
        ["weak-scaling", "--set", "variant=IMLSDC"],
        ["vcycle-study", "--set", "variant=IMLSDC"],
    ])
    def test_pipelined_experiment_without_pfasst_exits_2(self, args, tmp_path,
                                                         capsys):
        # these drivers pipeline over p ranks whatever the variant, so a
        # run with another variant would not be the run its footer records
        out = tmp_path / "res.csv"
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()

    def test_invalid_value_of_one_size_exits_2(self, tmp_path, capsys):
        # k=40 fits the parsed n_x=128 but not weak scaling's n=32, which
        # the driver validates when it reaches that size
        out = tmp_path / "res.csv"
        assert main(["weak-scaling", "--out", str(out),
                     "--set", "k=40"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "k=40" in err[0]
        assert not out.exists()

    def test_threads_flag_is_gone(self, capsys):
        # the executor key is the one way to choose an executor
        with pytest.raises(SystemExit) as exit_info:
            main(["single-run", "--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_bad_set_syntax_exits_2(self, capsys):
        code = main(["single-run", "--set", "nx16"])
        assert code == 2

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        code = main(["single-run", "--config", str(tmp_path / "absent")])
        assert code == 4
        assert "error reading config" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "res.csv"
        code = main(["single-run", "--out", str(out),
                     "--set", "n_x=16", "--set", "n_t=4"])
        assert code == 4

    def test_non_convergence_exits_3_but_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["single-run", "--out", str(out),
                     "--set", "n_x=16", "--set", "n_t=2",
                     "--set", "tol=1e-14", "--set", "max_iter=1"])
        assert code == 3
        assert out.exists()
        _, rows, _ = read_output(out)
        assert rows[0][-1] == "max-iter"
        assert "tolerance not reached" in capsys.readouterr().err


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # the diffusivity overflows the residual norm; the solve must fail
        # instead of reporting a non-finite state as converged
        out = tmp_path / "res.csv"
        code = main(["single-run", "--out", str(out),
                     "--set", "variant=ISDC", "--set", "policy=tolerance:1e-10",
                     "--set", "n_x=16", "--set", "n_t=2",
                     "--set", "nu=1e300"])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: sub-step 1:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("settings", [
        ["variant=ISDC", "policy=tolerance:1e-10", "nu=1e308"],
        ["executor=threaded", *IPFASST_TWO_LEVELS, "p=2",
         "policy=tolerance:1e-10", "nu=1e308"],
        # SuperLU used to raise "Factor is exactly singular"
        ["nu=1e308"],
        [*IPFASST_TWO_LEVELS, "p=2", "policy=fixed:2", "nu=1e308"],
        # used to run every iteration on NaN states and write a CSV
        [*IPFASST_TWO_LEVELS, "n_x=32", "n_t=4", "p=4", "policy=fixed:2",
         "nu=1e306"],
        ["executor=threaded", *IPFASST_TWO_LEVELS, "n_x=32", "n_t=4", "p=4",
         "policy=fixed:2", "nu=1e306"]],
        ids=["ISDC", "IPFASST-threaded", "SDC-direct", "IPFASST-fixed",
             "IPFASST-fixed-nu-1e306", "IPFASST-fixed-nu-1e306-threaded"])
    def test_numerical_failure_writes_one_line(self, tmp_path, capsys,
                                               settings, deadline):
        # nu=1e308, and nu=1e306 at n_x=32, overflow the operator itself;
        # NumPy's warnings must not precede the failure line, also from
        # the rank threads
        out = tmp_path / "res.csv"
        args = ["single-run", "--out", str(out), "--set", "n_x=16",
                "--set", "n_t=2"]
        for setting in settings:
            args += ["--set", setting]
        code = deadline(main, args)
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")


class TestCsvOutput:
    def test_header_rows_and_footer(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["single-run", "--out", str(out),
                     "--set", "n_x=16", "--set", "n_t=4"]) == 0
        header, rows, footer = read_output(out)
        assert header == ["variant", "n_t", "ode_error", "pde_error",
                          "residual", "iterations", "vcycles", "status"]
        assert len(rows) == 1
        assert rows[0][0] == "SDC"
        assert rows[0][-1] == "ok"
        assert footer["n_x"] == "16"
        assert footer["experiment"] == "single-run"
        # every config field is stamped into the footer
        from dataclasses import fields
        assert set(footer) == {f.name for f in fields(ExperimentConfig)}

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["damping", "--out", str(path)]) == 0
        # identical byte-for-byte apart from the stamped output path
        strip = [line for line in a.read_bytes().splitlines(keepends=True)
                 if not line.startswith(b"# out=")]
        strip_b = [line for line in b.read_bytes().splitlines(keepends=True)
                   if not line.startswith(b"# out=")]
        assert strip == strip_b

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["damping"]) == 0
        assert (tmp_path / "damping.csv").exists()

    def test_errors_reparse_as_floats(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["single-run", "--out", str(out),
                     "--set", "n_x=16", "--set", "n_t=4"]) == 0
        _, rows, _ = read_output(out)
        ode, pde, resid = (float(v) for v in rows[0][2:5])
        assert 0 < pde < 1e-3
        assert 0 < ode < 1e-3
        assert resid < 1e-9


class TestOrderStudy:
    def test_runs_the_level_its_footer_records(self, monkeypatch):
        # grid dimension, stencil order and policy come from the config;
        # the stub returns the exact solution, whose error must read 0
        cfg = parse_config(None, {"dim": "2", "orders": "4", "n_x": "8",
                                  "variant": "ISDC", "policy": "fixed:2"},
                           experiment="order-study", **PRESETS["order-study"])
        seen = []

        def exact_sdc(op, table, u0, t_end, n_t, tol, max_iter, mg_cfg,
                      policy):
            seen.append((op, table, mg_cfg, policy))
            return SimpleNamespace(u=exact_pde(op.grid, cfg.k, cfg.nu, t_end),
                                   exhausted_steps=[],
                                   trace=[SimpleNamespace(residual=0.0)])

        monkeypatch.setattr(cli, "run_sdc", exact_sdc)
        _, rows, converged = cli.run_order_study(cfg)
        assert converged and len(rows) == 48
        assert {row[3] for row in rows} == {"0.0"}
        assert {(op.grid.dim, op.grid.n, op.order)
                for op, *_ in seen} == {(2, 8, 4)}
        assert sorted({table.m for _, table, *_ in seen}) == [1, 2, 4, 8]
        assert {(mg.smoother, policy) for *_, mg, policy in seen} == {
            (cfg.smoother, FixedCycles(2))}


    def test_preset_tolerance_is_reachable_at_order_8(self):
        # the first steps of the order-8 runs stall at a residual floor of
        # about eps * dt * |A|: 1.36e-11 to 1.41e-11 for dt = 1/2 to 1/8 at
        # n_x = 128, where an earlier tol of 1e-11 left them exhausted
        cfg = parse_config(None, {}, experiment="order-study",
                           **PRESETS["order-study"])
        [lvl] = build_levels(replace(cfg, nodes=(9,)))
        u0 = initial_condition(lvl.grid, cfg.k)
        for n_t in (2, 4, 8):
            res = cli.run_sdc(lvl.operator, lvl.table, u0, cfg.t_end, n_t,
                              cfg.tol, cfg.max_iter, lvl.mg_cfg, lvl.policy)
            assert res.exhausted_steps == []


class TestSingleRunBackwardEuler:
    def test_two_nodes_one_step_is_backward_euler(self, tmp_path):
        """With M=1 quadrature and one time step, the converged SDC
        solution is a single backward Euler step."""
        out = tmp_path / "res.csv"
        assert main(["single-run", "--out", str(out),
                     "--set", "nodes=2", "--set", "n_x=16",
                     "--set", "n_t=1", "--set", "tol=1e-13"]) == 0
        _, rows, footer = read_output(out)
        grid = Grid(1, 16, 1.0)
        op = HeatOperator(grid, 1.0, 2)
        u0 = initial_condition(grid, 1)
        basis = np.eye(grid.n - 1)
        a = np.array([op.apply(col) for col in basis]).T
        u_be = np.linalg.solve(np.eye(grid.n - 1) - a, u0)
        from pintlab.heat import exact_pde
        expected = float(np.max(np.abs(u_be - exact_pde(grid, 1, 1.0, 1.0))))
        assert float(rows[0][3]) == pytest.approx(expected, rel=1e-10)
        assert footer["nodes"] == "2"


class TestVariantsThroughSingleRun:
    def test_imlsdc_single_run(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(["single-run", "--out", str(out),
                     "--set", "variant=IMLSDC", "--set", "levels=2",
                     "--set", "nodes=3,2", "--set", "orders=2,2",
                     "--set", "policy=fixed:2", "--set", "n_x=32",
                     "--set", "n_t=4"])
        assert code == 0
        _, rows, _ = read_output(out)
        assert rows[0][0] == "IMLSDC"
        assert int(rows[0][6]) > 0  # v-cycles were counted

    def test_ipfasst_single_run_threaded(self, tmp_path, deadline):
        out = tmp_path / "res.csv"
        code = deadline(main, ["single-run", "--out", str(out),
                               "--set", "executor=threaded",
                               "--set", "variant=IPFASST",
                               "--set", "levels=2", "--set", "nodes=3,2",
                               "--set", "orders=2,2",
                               "--set", "policy=fixed:2", "--set", "n_x=32",
                               "--set", "n_t=4", "--set", "p=4"])
        assert code == 0
        _, rows, footer = read_output(out)
        assert rows[0][-1] == "ok"
        assert footer["executor"] == "threaded"

    def test_ipfasst_iterations_count_every_block(self, tmp_path):
        # the iterations column sums every rank of every block, as the
        # vcycles column beside it does
        settings = {"variant": "IPFASST", "levels": "2", "nodes": "3,2",
                    "orders": "2,2", "policy": "fixed:2", "n_x": "32",
                    "n_t": "4", "p": "2"}
        out = tmp_path / "res.csv"
        args = [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
        assert main(["single-run", "--out", str(out)] + args) == 0
        _, rows, _ = read_output(out)
        cfg = parse_config(None, settings, experiment="single-run",
                           **PRESETS["single-run"])
        levels = build_levels(cfg)
        res = pfasst_run(levels, initial_condition(levels[0].grid, cfg.k),
                         cfg.t_end, 2, blocks=2, tol=cfg.tol,
                         max_iter=cfg.max_iter)
        every_block = sum(sum(block) for block in res.rank_iterations)
        assert every_block > sum(res.rank_iterations[-1])
        assert int(rows[0][5]) == every_block
        assert int(rows[0][6]) == res.total_vcycles
