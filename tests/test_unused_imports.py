"""Every name a module of ``bel`` imports is used there.

No linter runs on the package, so this gate parses each module and fails on
an imported name that the module never reads.  ``__future__`` imports, names
listed in ``__all__`` (re-exports) and lines marked ``noqa: F401`` (names kept
bound for instrumentation) are exempt; each of those must be a name that
``perfbench/tracing.py`` patches on that module.
"""

import ast
import importlib.util
from importlib.resources import files
from pathlib import Path

import pytest

MODULES = sorted(path.name for path in files("bel").iterdir() if path.name.endswith(".py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _kept(line: str) -> bool:
    return "noqa" in line and "F401" in line


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
                if _kept(lines[alias.lineno - 1]):
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


# ------------------------------------------------ the names kept for the tracer


def _tracer_pins() -> set:
    """``(module, name)`` of every module-level name perfbench/tracing.py patches."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return ({(module, attr) for module, attr, *_ in tracing._FUNCTIONS}
            | {(module, "indefinite_gauss") for module in tracing._INDEFINITE})


def kept_aliases(module: str, source: str) -> list:
    """``(module, name)`` of each name ``source`` imports on a ``noqa: F401`` line."""
    lines = source.splitlines()
    return [(module, alias.asname or alias.name)
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names if _kept(lines[alias.lineno - 1])]


def test_every_kept_alias_is_a_tracer_pin():
    """A name kept bound under ``noqa: F401`` is one the benchmark tracer
    patches on that module, so these are the aliases that go with the tracer."""
    pins = _tracer_pins()
    aliases = [alias for module in MODULES
               for alias in kept_aliases(f"bel.{module[:-3]}", (files("bel") / module).read_text())]
    assert aliases, "no kept alias found: the gate reads nothing"
    assert [alias for alias in aliases if alias not in pins] == []


def test_alias_gate_flags_an_alias_the_tracer_does_not_patch():
    source = ("from .radial_core import indefinite_gauss  # noqa: E402,F401\n"
              "from .geometry import euclidean  # noqa: F401\n"
              "from .geometry import power_weight\n")
    aliases = kept_aliases("bel.lane_emden", source)
    assert aliases == [("bel.lane_emden", "indefinite_gauss"), ("bel.lane_emden", "euclidean")]
    assert [alias for alias in aliases if alias not in _tracer_pins()] == [
        ("bel.lane_emden", "euclidean")]
