"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pintlab

SOURCE = Path(pintlab.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names with no caller in the package that stay, and why.
NO_CALLER_IN_PACKAGE = {
    "scalar_operator": "oracle: the scalar model problem that "
                       "perfbench/test_oracles.py imports",
    "collocation_solve": "oracle: the dense collocation solve that "
                         "perfbench/test_oracles.py imports",
}


# Modules whose attributes are not uses of a package definition: with
# them, np.zeros would count as a use of a method named zeros.
THIRD_PARTY = {"np", "numpy", "scipy"}


def _root(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def test_every_definition_is_used_in_the_package():
    """Every function, class and method defined in the package is named
    again somewhere in it, so no code is reachable only from tests."""
    defined, used = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = _root(node)
                if not (isinstance(root, ast.Name)
                        and root.id in THIRD_PARTY):
                    used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {name for name in defined - used
              if not (name.startswith("__") and name.endswith("__"))}
    assert unused == set(NO_CALLER_IN_PACKAGE)


def _modules_after(statement: str) -> set[str]:
    """Names in sys.modules after `statement` in a fresh interpreter that
    imports pintlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")])))
    code = f"{statement}; import json, sys; print(json.dumps([*sys.modules]))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120, env=env)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_import_loads_no_further_dependency():
    """`import pintlab.cli` (the benchmark's set-up) loads only the
    standard library, NumPy, pintlab, and what `import scipy.sparse.linalg`
    loads by itself: an import beyond these would grow every start-up."""
    allowed = _modules_after("import scipy.sparse.linalg")
    extra = {name for name in _modules_after("import pintlab.cli")
             if name not in allowed
             and name.partition(".")[0] not in sys.stdlib_module_names
             and name.partition(".")[0] not in ("numpy", "pintlab")}
    assert not extra


# perfbench/tracing.py targets that pintlab no longer defines; dropping
# them is an upkeep item of ROADMAP Direction 1
STALE_TRACER_TARGETS = {"pfasst._BlockEngine.resend",
                        "pfasst._SerialExchange.recv",
                        "pfasst._Channel.recv"}


class TestBenchmarkInterface:
    """The benchmark reaches pintlab by name, so a rename in the package
    would zero one of its metrics without failing a run.  These tests read
    perfbench/ as it is and install no tracer: Tracer.install rebinds
    module attributes."""

    @pytest.fixture
    def perfbench(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        return (importlib.import_module("workloads"),
                importlib.import_module("tracing"))

    def test_every_workload_config_parses_and_builds(self, perfbench):
        workloads, _ = perfbench
        for name in workloads.WORKLOADS:
            setup = workloads.set_up(name)
            assert setup.u0.shape == setup.levels[0].grid.shape

    def test_every_tracer_target_resolves(self, perfbench):
        _, tracing = perfbench
        missing = set()
        for module, path, _ in tracing.TARGETS:
            owner = importlib.import_module(f"pintlab.{module}")
            for attr in path.split("."):
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.add(f"{module}.{path}")
        assert missing <= STALE_TRACER_TARGETS

    @pytest.mark.parametrize("name", ["isdc-3d-gs-tol", "ipfasst-1d",
                                      "ipfasst-3d"])
    def test_solve_and_check_run_clean(self, perfbench, name):
        # reaches run_sdc, pfasst_run(executor=...), vcycles and
        # total_vcycles as the benchmark does; ipfasst-3d is the only
        # workload on red-black JOR and under the analytic check
        workloads, _ = perfbench
        setup = workloads.set_up(name)
        out = workloads.solve(setup)
        _, _, problems = workloads.check(name, setup, out)
        assert problems == []
        assert out.converged and out.iterations > 0 and out.vcycles > 0
