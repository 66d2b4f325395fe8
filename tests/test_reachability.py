"""Every definition in ``bel`` is read by some module of ``bel``.

A function, class, method, property or dataclass field that only tests reach
is dead weight in the package.  This gate parses every module and fails on a
definition that no module reads.  It checks module-level functions and
classes, and each class's methods, properties and annotated fields; dunder
methods are called by Python itself and are not checked.

What counts as read, anywhere in the package, matched by name alone:

* a module-level definition: an ``ast.Name`` load, an ``ast.Attribute`` load
  (``module.name``) or an import, except that an import in ``__init__``
  counts only for a name in the package's ``__all__``: re-exporting a name
  from the package root does not keep a dead definition alive;
* a class member: an ``ast.Attribute`` load (``obj.name``), since a bare name
  inside a function is a local, not the member, and ``obj`` is not a module
  the reading module imports: ``np.A`` or ``_coef.A`` reads no field ``A``.

A function with a decorator other than ``property``, ``staticmethod`` or
``classmethod`` counts as read, because the decorator registers it (a click
command).  Module-level names listed in their module's ``__all__`` are
exempt, and so is every entry of ``ALLOWED``, each with the reason it stays:
the acceptance contract or the benchmark's tracer reads it.
"""

import ast
import re
from importlib.resources import files
from pathlib import Path

import bel

#: Definitions that no module of ``bel`` reads and that stay anyway, because
#: a file outside the package reads them: each reason starts with its path
#: (one of :data:`_READERS`).
ALLOWED = {
    "scenarios.run_scenario": "tests/test_acceptance.py, the acceptance contract, which stays "
                              "unedited, runs configs with it",
    "construction.TheoremReport.check": "tests/test_acceptance.py reads a theorem check by name",
    "construction.TheoremReport.solver_error": "tests/test_acceptance.py asserts the shot raised nothing",
    "pfunction.SuperharmonicReport.all_hold": "tests/test_acceptance.py asserts the floor holds",
    "_dop853.Dop853Result.nfev": "perfbench/tracing.py counts the shot's RHS calls from it",
    "pfunction.ibp_residual": "tests/test_acceptance.py checks the integration-by-parts identity "
                              "with it",
}

#: The files outside the package whose reads keep an ``ALLOWED`` entry: the
#: acceptance contract and the benchmark's tracer.
_READERS = ("tests/test_acceptance.py", "perfbench/tracing.py")

_PASSIVE_DECORATORS = {"property", "staticmethod", "classmethod"}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _registers(func) -> bool:
    """Whether a decorator of ``func`` hands it to something that calls it."""
    return any((dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None))
               not in _PASSIVE_DECORATORS for dec in func.decorator_list)


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, is_member, line)`` of each definition the
    gate checks; ``is_member`` marks a class's method, property or field."""
    exported = _exported(tree)
    for node in tree.body:
        if isinstance(node, _FUNCS + (ast.ClassDef,)):
            if node.name not in exported and not (isinstance(node, _FUNCS) and _registers(node)):
                yield f"{module}.{node.name}", node.name, False, node.lineno
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, _FUNCS):
                if item.name.startswith("__") and item.name.endswith("__") or _registers(item):
                    continue
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            yield f"{module}.{node.name}.{name}", name, True, item.lineno


def _modules(tree: ast.Module) -> set:
    """The names ``tree`` binds to modules: ``import x``, ``import x as y``
    and ``from . import x``."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
            and node.module is None for alias in node.names}


def _reads(trees: dict) -> tuple:
    """The names loaded or imported, and the member names loaded, over all
    ``trees`` (module name -> tree); a member is an attribute of anything but
    an imported module, whose attributes count as names.  ``__init__``'s
    imports count only for the names in its ``__all__``."""
    names, members = set(), set()
    for module, tree in trees.items():
        exported = _exported(tree) if module == "__init__" else None
        modules = _modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (names if on_module else members).add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names
                             if exported is None or alias.name in exported)
    return names | members, members


def _unread(sources: dict) -> dict:
    """Qualified name -> line of each definition in ``sources`` (module name
    -> source text) that no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    any_read, members = _reads(trees)
    return {qualified: line for module, tree in trees.items()
            for qualified, name, is_member, line in _definitions(module, tree)
            if name not in (members if is_member else any_read)}


def unreached(sources: dict) -> list:
    """``(qualified name, line)`` of each unread definition not in ``ALLOWED``."""
    return sorted((q, line) for q, line in _unread(sources).items() if q not in ALLOWED)


def _package_sources() -> dict:
    return {path.name[:-3]: path.read_text()
            for path in files("bel").iterdir() if path.name.endswith(".py")}


def test_every_definition_is_read_by_the_package():
    assert unreached(_package_sources()) == []


def test_every_allowed_name_is_defined_and_unread():
    """An entry the package now reads, or no longer defines, leaves ``ALLOWED``."""
    assert set(ALLOWED) - set(_unread(_package_sources())) == set()


def test_every_allowed_name_is_read_by_the_file_its_reason_names():
    """Each ``ALLOWED`` reason starts with the path of a reader in
    :data:`_READERS`, and that file's text holds the entry's last name."""
    root = Path(__file__).resolve().parents[1]
    for qualified, reason in ALLOWED.items():
        reader = next((path for path in _READERS if reason.startswith(path)), None)
        assert reader is not None, (qualified, reason)
        assert re.search(rf"\b{qualified.rsplit('.', 1)[1]}\b", (root / reader).read_text()), (
            qualified, reader)


def test_gate_flags_dead_definitions_and_honours_its_exemptions():
    source = (
        "import dataclasses\n"
        "import click\n"
        "import math\n"
        "__all__ = ['exported']\n"
        "def dead():\n"
        "    unread = 1\n"
        "    return unread\n"
        "def exported():\n"
        "    pass\n"
        "def used():\n"
        "    return Record(1, 2, 3).kept + math.pi\n"
        "@click.command()\n"
        "def command():\n"
        "    pass\n"
        "@dataclasses.dataclass\n"
        "class Record:\n"
        "    kept: int\n"
        "    unread: int\n"
        "    pi: float\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    @property\n"
        "    def unread_property(self):\n"
        "        return self.kept\n"
        "x = used()\n"
    )
    allowed = "def run_scenario():\n    pass\n"
    found = unreached({"m": source, "scenarios": allowed})
    assert found == [("m.Record.pi", 19), ("m.Record.unread", 18),
                     ("m.Record.unread_property", 23), ("m.dead", 5)]


def test_a_root_re_export_keeps_only_the_names_of_the_root_all_alive():
    sources = {
        "__init__": "from bel.m import exported, re_exported\n__all__ = ['exported']\n",
        "m": "def exported():\n    pass\ndef re_exported():\n    pass\n",
    }
    assert unreached(sources) == [("m.re_exported", 3)]


def test_the_package_root_exports_the_readme_quick_start():
    """``bel.__all__`` is the API that README.md documents: the names its
    quick start calls as ``bel.<name>``, and ``BelError``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start (library)", 1)[1].split("```python", 1)[1]
    used = set(re.findall(r"\bbel\.(\w+)", quick_start.split("```", 1)[0]))
    assert set(bel.__all__) == used | {"BelError"}


def test_the_readme_quick_start_runs(capsys):
    """The README's library quick start runs as printed: its bubble has a
    constant P and a vanishing k, and every check of its theorem report
    passes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start (library)", 1)[1].split("```python", 1)[1]
    exec(compile(quick_start.split("```", 1)[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) < 1e-12 and float(lines[1]) < 1e-12
    assert lines[2].split()[0] == "True" and float(lines[2].split()[1]) > 0.0
    assert len(lines) > 3 and all(line.split()[1] == "True" for line in lines[3:])
