"""Checks on the package source itself."""

import ast
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
