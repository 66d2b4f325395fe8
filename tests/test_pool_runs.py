"""``tools/pool_runs.py compare`` on hand-written digest files."""

import importlib.util
import json
import sys
from pathlib import Path


def _pool_runs(monkeypatch):
    """The tool as a module; the search path it extends is restored after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "tools" / "pool_runs.py"
    spec = importlib.util.spec_from_file_location("pool_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, digests):
    path.write_text(json.dumps(digests))
    return str(path)


def test_compare_prints_each_run_whose_digests_differ(tmp_path, capsys, monkeypatch):
    pool_runs = _pool_runs(monkeypatch)
    same = {"report.json": "r0", "profiles.csv": "c0"}
    base = _write(tmp_path / "base.json", {
        "closed-form/same": same,
        "closed-form/csv": {"report.json": "r1", "profiles.csv": "c1"},
        "configs/report": {"report.json": "r2"},
        "configs/csv-gone": {"report.json": "r3", "profiles.csv": "c3"},
        "configs/gone": same,
    })
    change = _write(tmp_path / "change.json", {
        "closed-form/same": same,
        "closed-form/csv": {"report.json": "r1", "profiles.csv": "c1*"},
        "configs/report": {"report.json": "r2*"},
        "configs/csv-gone": {"report.json": "r3"},
        "configs/new": same,
    })
    assert pool_runs.main(["compare", base, change]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "closed-form/csv",
        "configs/csv-gone",
        f"configs/gone (only in {base})",
        f"configs/new (only in {change})",
        "configs/report",
    ]


def test_compare_exits_0_when_every_digest_matches(tmp_path, capsys, monkeypatch):
    pool_runs = _pool_runs(monkeypatch)
    digests = {"radial-shots/a": {"report.json": "r", "profiles.csv": "c"}}
    base = _write(tmp_path / "base.json", digests)
    change = _write(tmp_path / "change.json", digests)
    assert pool_runs.main(["compare", base, change]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "0 of 1 runs differ\n"
