#!/usr/bin/env python3
"""Run every benchmark pool point and every bundled config once.

    python3 tools/pool_runs.py digest OUT.json
    python3 tools/pool_runs.py compare BASE.json CHANGE.json
    python3 tools/pool_runs.py map

The runs are the pool points of each benchmark workload
(``perfbench/workloads.py``'s ``pool_configs``) and the runs of the bundled
configs (``src/bel/configs/*.cfg``), executed one after another in this
process with ``bel.scenarios.execute_run``.

``digest`` writes, for each run, the SHA-256 of its ``report.json`` without
the ``timings`` block and of its ``profiles.csv``.  Two checkouts whose
digest files are equal produce byte-identical artifacts on every run; the
digests of the report are those of ``tests/test_acceptance.py``'s
determinism test.

``compare`` reads two digest files and prints each run key whose
``report.json`` or ``profiles.csv`` digest differs between them, or that
appears in only one of them; it exits 1 if it prints any key, else 0.

``map`` parses and runs the same set under a ``sys.settrace`` line tracer
and prints the functions of ``src/bel`` that no run enters and, inside the
functions that runs do enter, the lines that none executes.  Code that runs
only when ``bel`` is imported is not traced, and shows as never run.

``digest`` and ``map`` are not part of the test suite; each takes under a
minute on two cores.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bel.scenarios import execute_run, expand_runs, parse_config  # noqa: E402


def runs():
    """``(key, RunSpec)`` of every pool point and bundled run, in a fixed order."""
    for workload in workloads.WORKLOADS:
        for text in workloads.pool_configs(workload):
            for spec in expand_runs(parse_config(text)):
                yield f"{workload}/{workloads.run_key(spec.scenario, spec.params)}", spec
    for path in sorted((SRC / "bel" / "configs").glob("*.cfg")):
        for spec in expand_runs(parse_config(path.read_text(), source=path.name)):
            yield f"configs/{path.stem}/{spec.slug}", spec


def _artifact_digests(run_dir: Path) -> dict:
    report = json.loads((run_dir / "report.json").read_text())
    report.pop("timings")
    out = {"report.json": hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()}
    csv = run_dir / "profiles.csv"
    if csv.exists():
        out["profiles.csv"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return out


def digest(out_path: str) -> int:
    digests = {}
    with tempfile.TemporaryDirectory(prefix="pool-runs-") as tmp:
        for index, (key, spec) in enumerate(runs()):
            root = Path(tmp) / str(index)
            execute_run(spec, root)
            digests[key] = _artifact_digests(root / spec.slug)
    Path(out_path).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} runs digested into {out_path}")
    return 0


def compare(base_path: str, change_path: str) -> int:
    base, change = (json.loads(Path(p).read_text()) for p in (base_path, change_path))
    differ = sorted(key for key in base.keys() | change.keys() if base.get(key) != change.get(key))
    for key in differ:
        print(key if key in base and key in change
              else f"{key} (only in {base_path if key in base else change_path})")
    print(f"{len(differ)} of {len(base.keys() | change.keys())} runs differ", file=sys.stderr)
    return 1 if differ else 0


def _executable_lines(code) -> set:
    """The line numbers of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _functions(tree: ast.Module, prefix: str = ""):
    """``(qualified name, first body line, last line)`` of every function."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.body[0].lineno, node.end_lineno
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _ranges(lines) -> str:
    spans, start, prev = [], None, None
    for line in sorted(lines):
        if start is None or line != prev + 1:
            if start is not None:
                spans.append((start, prev))
            start = line
        prev = line
    if start is not None:
        spans.append((start, prev))
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traffic_map() -> int:
    package = SRC / "bel"
    sources = {str(path): path.read_text() for path in sorted(package.glob("*.py"))}
    executable = {name: _executable_lines(compile(text, name, "exec"))
               for name, text in sources.items()}
    executed = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in executed:
            return None
        executed[name].add(frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory(prefix="pool-runs-") as tmp:
        sys.settrace(global_trace)
        try:
            for index, (_, spec) in enumerate(runs()):
                execute_run(spec, Path(tmp) / str(index))
        finally:
            sys.settrace(None)
    print(f"{index + 1} runs traced, from their config text on")
    for name, text in sources.items():
        functions = list(_functions(ast.parse(text)))
        for qualified, first, last in functions:
            nested = [(f, l) for q, f, l in functions if q.startswith(qualified + ".")]
            own = {line for line in executable[name] if first <= line <= last
                   and not any(f <= line <= l for f, l in nested)}
            if not own:
                continue
            module = Path(name).name
            if not own & executed[name]:
                print(f"{module}: {qualified} (line {first}) is never entered")
            elif own - executed[name]:
                print(f"{module}: {qualified}: lines {_ranges(own - executed[name])} never run")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("digest", help="write one SHA-256 per run").add_argument("out")
    compare_mode = modes.add_parser("compare", help="print the runs whose digests differ")
    compare_mode.add_argument("base")
    compare_mode.add_argument("change")
    modes.add_parser("map", help="print the src/bel code that no run executes")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        return compare(args.base, args.change)
    return digest(args.out) if args.mode == "digest" else traffic_map()


if __name__ == "__main__":
    sys.exit(main())
