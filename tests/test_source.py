"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pintlab

SOURCE = Path(pintlab.__file__).parent

# Names with no caller in the package that stay, and why.
NO_CALLER_IN_PACKAGE = {
    "scalar_operator": "oracle: the scalar model problem that "
                       "perfbench/test_oracles.py imports",
    "collocation_solve": "oracle: the dense collocation solve that "
                         "perfbench/test_oracles.py imports",
}


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
