"""Every name a module of ``bel`` imports is used there.

No linter runs on the package, so this gate parses each module and fails on
an imported name that the module never reads.  ``__future__`` imports, names
listed in ``__all__`` (re-exports) and lines marked ``noqa: F401`` (names kept
bound for instrumentation) are exempt.
"""

import ast
from importlib.resources import files

import pytest

MODULES = sorted(path.name for path in files("bel").iterdir() if path.name.endswith(".py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, with their line numbers."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = lines[alias.lineno - 1]
                if "noqa" in line and "F401" in line:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = read | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in exempt)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    source = (files("bel") / module).read_text()
    assert unused_imports(source) == []


def test_gate_flags_an_unused_import_and_honours_its_exemptions():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from os import path, sep\n"
              "from sys import argv  # noqa: F401\n"
              "__all__ = ['sep']\n"
              "x = np.pi\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]
