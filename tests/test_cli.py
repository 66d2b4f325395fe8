"""Config parsing, artifact emission and the command-line contract."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from bel import scenarios
from bel.cli import main
from bel.construction import Check
from bel.errors import ArtifactIOError, ConfigParseError
from bel.scenarios import (
    SCENARIOS,
    emit_profiles,
    execute_run,
    expand_runs,
    parse_config,
    run_scenario,
)


# ------------------------------------------------------------ config parsing


def test_parse_basic_config():
    cfg = parse_config(
        """
        # a comment
        scenario = bubble
        d = 4            # trailing comment
        b = 0.125
        tol = 1e-11
        """
    )
    assert cfg.scenario == "bubble"
    assert cfg.params == {"d": 4, "b": 0.125}
    assert cfg.tol == 1e-11
    assert cfg.sweep_keys == ()


def test_parse_sweeps_preserve_order():
    cfg = parse_config("scenario = euclidean-sanity\nd = 2,3,4,6\n")
    assert cfg.params["d"] == [2, 3, 4, 6]
    assert cfg.sweep_keys == ("d",)


def test_parse_infinity_token():
    cfg = parse_config("scenario = estimates-sweep\nd = 4\nb = 0.125\nq = 2\nn = inf\n")
    assert math.isinf(cfg.params["n"])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("d = 3\n", "missing required key 'scenario'"),
        ("scenario = no-such\n", "unknown scenario"),
        ("scenario = bubble\nd = 4\nb = 0.125\nwhat = 1\n", "unknown key 'what'"),
        ("scenario = bubble\nd = 4\n", "needs keys"),
        ("scenario = bubble\nd = 4\nd = 5\nb = 1\n", "duplicate key"),
        ("scenario = bubble\njust words\n", "expected key = value"),
        ("scenario = bubble\nd =\nb = 1\n", "empty key or value"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ConfigParseError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_unknown_key_error_names_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config("scenario = bubble\nd = 4\nb = 0.125\nbogus = 7\n")
    assert "line 4" in str(err.value)
    # comments and blank lines count: the key sits on line 7
    with pytest.raises(ConfigParseError) as err:
        parse_config("# header\n\nscenario = bubble\n\n# radii\nd = 4\nbogus = 7\nb = 0.125\n")
    assert "(line 7)" in str(err.value)


def test_expand_runs_cartesian_product_and_slugs():
    cfg = parse_config("scenario = bubble\nd = 3,4\nb = 0.125,0.25\n")
    specs = expand_runs(cfg)
    assert [s.slug for s in specs] == [
        "bubble-d3-b0.125",
        "bubble-d3-b0.25",
        "bubble-d4-b0.125",
        "bubble-d4-b0.25",
    ]
    assert specs[0].params == {"d": 3, "b": 0.125}
    assert all(s.tol == 1e-10 for s in specs)
    cfg = parse_config("scenario = custom\nd = 3\np = 3\nell = 1\nweight = none, power\n")
    assert [s.slug for s in expand_runs(cfg)] == ["custom-weightnone", "custom-weightpower"]


def test_expand_runs_tol_precedence():
    cfg = parse_config("scenario = log-bubble\nb = 0.125\ntol = 1e-9\n")
    assert expand_runs(cfg)[0].tol == 1e-9
    assert expand_runs(cfg, tol=1e-12)[0].tol == 1e-12


# -------------------------------------------------------------- csv emission


def test_emit_profiles_round_trip(tmp_path):
    path = tmp_path / "profiles.csv"
    r = np.array([0.1, 0.2, 0.3])
    u = np.array([1.0 / 3.0, math.pi, 1e-17])
    emit_profiles({"u": u, "r": r}, path)
    text = path.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "r,u"  # canonical order, not insertion order
    assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + trailing LF
    assert "\r" not in text
    parsed = [[float(tok) for tok in line.split(",")] for line in lines[1:4]]
    assert [row[0] for row in parsed] == list(r)
    assert [row[1] for row in parsed] == list(u)  # 17 sig digits round-trip


def test_emit_profiles_matches_per_cell_format(tmp_path):
    """Rows are formatted in one pass; the bytes equal formatting every cell
    with format(v, ".17g"), non-finite values and negative zero included."""
    path = tmp_path / "profiles.csv"
    r = np.array([0.0, -0.0, 5e-324, 1e300, 0.1])
    u = np.array([math.nan, math.inf, -math.inf, -1.0 / 3.0, 2.0**53 + 1.0])
    emit_profiles({"r": r, "u": u}, path)
    expected = "r,u\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in zip(r, u)
    )
    assert path.read_bytes() == expected.encode()


def test_emit_profiles_omits_empty_columns(tmp_path):
    path = tmp_path / "profiles.csv"
    emit_profiles({"r": np.arange(3.0), "u": np.arange(3.0), "P": np.array([])}, path)
    assert path.read_text().splitlines()[0] == "r,u"


def test_emit_profiles_length_mismatch(tmp_path):
    with pytest.raises(ArtifactIOError):
        emit_profiles({"r": np.arange(3.0), "u": np.arange(4.0)}, tmp_path / "x.csv")


# ------------------------------------------------------------ scenario runs


def test_execute_run_writes_artifacts(tmp_path):
    cfg = parse_config("scenario = euclidean-sanity\nd = 3\n")
    (spec,) = expand_runs(cfg)
    report = execute_run(spec, tmp_path)
    assert report["schema"] == 1
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "unit-ball-volume" in names
    run_dir = tmp_path / "euclidean-sanity"
    assert (run_dir / "report.json").exists()
    header = (run_dir / "profiles.csv").read_text().splitlines()[0]
    assert header == "r,ric_r,ric_theta"


def test_report_json_is_strict_when_a_check_measures_nan(tmp_path, monkeypatch):
    """Non-finite check values are written as strings, so report.json parses
    with a reader that rejects NaN and Infinity."""
    def nan_runner(spec):
        return [Check("nan-measured", "a check that measures NaN", False, math.nan, math.inf)], {}

    monkeypatch.setitem(scenarios._RUNNERS, "bubble", nan_runner)
    (spec,) = expand_runs(parse_config("scenario = bubble\nd = 3\nb = 0.125\n"))
    report = execute_run(spec, tmp_path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    saved = json.loads((tmp_path / spec.slug / "report.json").read_text(), parse_constant=reject)
    assert saved["checks"] == report["checks"]
    assert (saved["checks"][0]["measured"], saved["checks"][0]["tolerance"]) == ("nan", "inf")


def test_run_scenario_expands_sweeps(tmp_path):
    cfg = parse_config("scenario = soliton-liouville\nd = 3\np = 3\nell = 0.5,1\n")
    reports = run_scenario(cfg, tmp_path)
    assert len(reports) == 2
    for rep in reports:
        crossing = next(c for c in rep["checks"] if c["name"] == "zero-crossing")
        assert crossing["verdict"] is True
        assert 0.0 < crossing["measured"] < 6.0


def test_every_scenario_is_registered():
    assert set(SCENARIOS) == {
        "euclidean-sanity",
        "bubble",
        "log-bubble",
        "theorem-2-2",
        "soliton-liouville",
        "example-2-parabolicity",
        "estimates-sweep",
        "custom",
    }


# ------------------------------------------------------------------ the CLI


def _write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_passes(tmp_path):
    cfg = _write(tmp_path, "scenario = log-bubble\nb = 0.125\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert "log-bubble: pass" in result.output


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "scenario = bubble\nd = 4\nb = 0.125\nmystery = 1\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_cli_missing_file_exit_code(tmp_path):
    result = CliRunner().invoke(main, ["run", str(tmp_path / "nope.cfg")])
    assert result.exit_code == 2


def test_cli_check_failure_exit_code(tmp_path):
    # Gaussian-type weight reverses the drift sign at r = 1, so the ODE
    # energy grows along the shot and the generic check honestly fails
    cfg = _write(
        tmp_path,
        "scenario = custom\nd = 3\np = 3\nell = 1\nweight = power\nr_max = 8\n",
    )
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert "energy-decreasing" in result.output


@pytest.mark.parametrize(
    "text,code",
    [
        ("scenario = theorem-2-2\nd = 3\nalpha = 1.5\np = 5\nell = 1\n", "invalid-alpha"),
        ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = bogus\n", "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = 3\nell = 1\nnodes = 8\n", "invalid-range"),
    ],
    ids=["theorem-alpha", "custom-weight", "soliton-nodes"],
)
def test_cli_run_error_exit_code(tmp_path, text, code):
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error [{code}]:" in result.output
    assert "Traceback" not in result.output


def test_cli_out_dir_env_fallback(tmp_path):
    cfg = _write(tmp_path, "scenario = log-bubble\nb = 0.125\n")
    env_dir = tmp_path / "from-env"
    result = CliRunner().invoke(main, ["run", cfg], env={"BEL_OUT_DIR": str(env_dir)})
    assert result.exit_code == 0, result.output
    assert (env_dir / "log-bubble" / "report.json").exists()


def test_cli_parallel_matches_serial(tmp_path):
    cfg = _write(tmp_path, "scenario = euclidean-sanity\nd = 2,3,4\n")
    r1 = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "serial")])
    r2 = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "par"), "--jobs", "3"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    for d in ("euclidean-sanity-d2", "euclidean-sanity-d3", "euclidean-sanity-d4"):
        a = json.loads((tmp_path / "serial" / d / "report.json").read_text())
        b = json.loads((tmp_path / "par" / d / "report.json").read_text())
        a.pop("timings"), b.pop("timings")
        assert a == b


def test_cli_reports_are_deterministic(tmp_path):
    cfg = _write(tmp_path, "scenario = bubble\nd = 4\nb = 0.125\n")
    for sub in ("one", "two"):
        res = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / sub)])
        assert res.exit_code == 0, res.output
    texts = []
    for sub in ("one", "two"):
        data = json.loads((tmp_path / sub / "bubble" / "report.json").read_text())
        data.pop("timings")
        texts.append(json.dumps(data, indent=2))
    assert texts[0] == texts[1]
    csv_a = (tmp_path / "one" / "bubble" / "profiles.csv").read_bytes()
    csv_b = (tmp_path / "two" / "bubble" / "profiles.csv").read_bytes()
    assert csv_a == csv_b


def test_cli_list_scenarios():
    result = CliRunner().invoke(main, ["list-scenarios"])
    assert result.exit_code == 0
    for name in SCENARIOS:
        assert name in result.output
