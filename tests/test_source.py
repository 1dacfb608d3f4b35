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


# Defaults that no call in the package passes, and why they stay.
DEFAULT_NOT_SET_IN_PACKAGE = {
    "main.argv": "the console-script entry point, where argparse reads "
                 "sys.argv",
    **{f"PfasstResult.{name}": "a result list that the engine fills"
       for name in ("rank_iterations", "rank_vcycles", "converged", "trace",
                    "final_values")},
}


def _with_default(fn: ast.FunctionDef, params: list[ast.arg]):
    """(position, name) of the positional parameters with a default, and
    (-1, name) of the keyword-only ones."""
    first = len(params) - len(fn.args.defaults)
    positional = [(i, a.arg) for i, a in enumerate(params) if i >= first]
    keyword = [(-1, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                           fn.args.kw_defaults) if d]
    return positional + keyword


def _defaults(trees: list[ast.Module]) -> dict[str, list[tuple[int, str]]]:
    """Called name -> (position or -1, name) of each parameter with a
    default: a function's under its own name (a method's without its
    first parameter, an __init__'s under its class name), and a
    dataclass's fields in order, which its generated __init__ takes."""
    found, methods = {}, set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.ClassDef):
            continue
        for m in node.body:
            if isinstance(m, ast.FunctionDef):
                methods.add(m)
                static = any(ast.unparse(d) == "staticmethod"
                             for d in m.decorator_list)
                params = m.args.posonlyargs + m.args.args
                owner = node.name if m.name == "__init__" else m.name
                found.setdefault(owner, []).extend(
                    _with_default(m, params if static else params[1:]))
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            found.setdefault(node.name, []).extend(
                (i, f.target.id) for i, f in enumerate(fields)
                if f.value is not None)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            found.setdefault(node.name, []).extend(
                _with_default(node, node.args.posonlyargs + node.args.args))
    return found


def test_every_default_is_set_in_the_package():
    """Every parameter and dataclass field with a default is passed by some
    call in the package, matched by the called name (a call with * or **
    passes everything it could): a default that only tests override is an
    option no run of the package can change."""
    trees = [ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))]
    defaults, passed = _defaults(trees), set()
    for call in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        owner = (func.id if isinstance(func, ast.Name) else
                 func.attr if isinstance(func, ast.Attribute) else None)
        keywords = {k.arg for k in call.keywords}  # None for **
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        passed.update(
            f"{owner}.{name}" for i, name in defaults.get(owner, [])
            if None in keywords or name in keywords
            or 0 <= i and (starred or i < len(call.args)))
    unset = {f"{owner}.{name}" for owner, params in defaults.items()
             for _, name in params} - passed
    assert unset == set(DEFAULT_NOT_SET_IN_PACKAGE)


CONCURRENCY_MODULES = {"threading", "concurrent", "contextvars"}


def test_only_pfasst_imports_concurrency():
    """Threads live in the time-parallel executor alone: no other module
    imports threading, concurrent.futures or contextvars.  Where a
    module's thread-safety is in doubt, a test settles it, not a lock."""
    importers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] in CONCURRENCY_MODULES
                   for name in names):
                importers.add(path.name)
    assert importers <= {"pfasst.py"}


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
