"""Config parsing, artifact emission and the command-line contract."""

import json
import math
import os
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_parse_sweeps_preserve_order():
    cfg = parse_config("scenario = euclidean-sanity\nd = 2,3,4,6\n")
    assert cfg.params["d"] == [2, 3, 4, 6]
    assert [s.slug for s in expand_runs(cfg)] == [f"euclidean-sanity-d{d}" for d in (2, 3, 4, 6)]


def test_parse_infinity_token():
    cfg = parse_config("scenario = euclidean-sanity\nd = 3\nr_max = inf\n")
    assert math.isinf(cfg.params["r_max"])


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


#: The required keys of each closed-form scenario, which has no grid.
CLOSED_FORM = {"bubble": "d = 4\nb = 0.125\n", "log-bubble": "b = 0.125\n",
               "estimates-sweep": "d = 4\nb = 0.125\nq = 2\n"}


@pytest.mark.parametrize("scenario,line", [
    *((name, line) for name in CLOSED_FORM for line in ("r_max = 3", "nodes = 64", "spacing = uniform")),
    ("custom", "n = 7"),
], ids=lambda value: value.split(" =")[0])
def test_parse_rejects_keys_no_runner_reads(scenario, line):
    """A closed-form scenario's profiles bring their own grid, and no custom
    run reads ``n``: such a key is unknown, not silently ignored."""
    required = CLOSED_FORM.get(scenario, "d = 3\np = 3\nell = 1\n")
    with pytest.raises(ConfigParseError) as err:
        parse_config(f"scenario = {scenario}\n{required}{line}\n")
    assert f"unknown key {line.split(' =')[0]!r} for scenario {scenario}" in str(err.value)


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


def _inside(param):
    """Values inside ``param``'s domain, its included ends among them."""
    domain = param.domain
    if not isinstance(domain, scenarios.Interval):
        return st.sampled_from(sorted(domain))
    lo, hi, (left, right) = domain.lo, domain.hi, domain.ends
    if param.kind is int:
        low = math.floor(lo) + 1 if left == "(" else math.ceil(lo)
        return st.one_of(st.just(low), st.integers(min_value=low, max_value=10**4))
    finite = st.floats(min_value=None if math.isinf(lo) else lo,
                       max_value=None if math.isinf(hi) else hi,
                       exclude_min=left == "(" and not math.isinf(lo),
                       exclude_max=right == ")" and not math.isinf(hi),
                       allow_nan=False, allow_infinity=False)
    ends = [end for end, side in ((lo, left), (hi, right)) if side in "[]"]
    return st.one_of(st.sampled_from(ends), finite) if ends else finite


def _outside(param):
    """Values of another kind than ``param``'s or outside its domain, the
    floats next to its ends among them."""
    domain = param.domain
    bad = [st.sampled_from(["wide", "three", "Geometric"])]
    if not isinstance(domain, scenarios.Interval):
        return st.one_of(*bad, st.integers(), st.floats())
    lo, hi, (left, right) = domain.lo, domain.hi, domain.ends
    edges = [math.nan, lo if left == "(" else math.nextafter(lo, -math.inf)]
    bad.append(st.floats(max_value=lo).filter(lambda v: left == "(" or v < lo))
    if right == ")" or hi < math.inf:
        edges.append(hi if right == ")" else math.nextafter(hi, math.inf))
        bad.append(st.floats(min_value=hi).filter(lambda v: right == ")" or v > hi))
    if param.kind is int:
        bad.append(st.floats(min_value=lo, max_value=1e4).filter(lambda v: not v.is_integer()))
    return st.one_of(st.sampled_from(edges), *bad)


def _token(value):
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_runs_checks_every_point_against_the_table(data):
    """Each key of a scenario swept over a value inside its domain and a
    drawn one: the sweep expands, keeping the parsed values, only when the
    drawn value is of the key's kind and inside its domain; otherwise the
    whole sweep is a config-parse-error that names the key.  Two values that
    the slug spells alike would share a run directory, which is a
    config-parse-error as well."""
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    keys = SCENARIOS[name].keys
    required = {k: _token(data.draw(_inside(p))) for k, p in keys.items() if p.default is None}
    for key, param in keys.items():
        inside = data.draw(st.booleans())
        sweep = [data.draw(_inside(param)), data.draw(_inside(param) if inside else _outside(param))]
        lines = {**required, key: ", ".join(map(_token, sweep))}
        if param.read_with is not None:  # make the choice the key is read with
            lines[param.read_with[0]] = param.read_with[1]
        config = parse_config(f"scenario = {name}\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()))
        if not inside:
            with pytest.raises(ConfigParseError, match=f"^{key} must be "):
                expand_runs(config)
            continue
        if len({f"{v:g}" if isinstance(v, (int, float)) else v for v in sweep}) == 1:
            with pytest.raises(ConfigParseError, match="share the run directory"):
                expand_runs(config)
            continue
        specs = expand_runs(config)
        assert [spec.params for spec in specs] == [{**config.params, key: v} for v in sweep]
        assert [type(spec.params[key]) for spec in specs] == [type(v) for v in sweep]
        if key in specs[0].values:  # the grid keys are folded into ``grid``
            assert [spec.values[key] for spec in specs] == [param.kind(v) for v in sweep]


@pytest.mark.parametrize("text,slug", [
    ("scenario = log-bubble\nb = 0.1234561, 0.1234562\n", "log-bubble-b0.123456"),
    ("scenario = bubble\nd = 4, 4\nb = 0.125\n", "bubble-d4"),
], ids=["past-six-digits", "repeated"])
def test_expand_runs_rejects_points_that_share_a_run_directory(text, slug):
    """The slug spells each swept value with ``:g``; two points spelled alike
    would write one directory, the second report replacing the first."""
    with pytest.raises(ConfigParseError) as err:
        expand_runs(parse_config(text))
    assert f"two sweep points share the run directory {slug!r}" in str(err.value)


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


def _per_cell(columns):
    """The CSV bytes of ``columns`` with every cell formatted on its own."""
    names = [c for c in scenarios.PROFILE_COLUMNS if c in columns]
    rows = zip(*(columns[c] for c in names))
    return (",".join(names) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)).encode()


def test_emit_profiles_matches_per_cell_format(tmp_path):
    """Rows are formatted in one pass; the bytes equal formatting every cell
    with format(v, ".17g"), non-finite values and negative zero included."""
    path = tmp_path / "profiles.csv"
    r = np.array([0.0, -0.0, 5e-324, 1e300, 0.1])
    u = np.array([math.nan, math.inf, -math.inf, -1.0 / 3.0, 2.0**53 + 1.0])
    emit_profiles({"r": r, "u": u}, path)
    assert path.read_bytes() == _per_cell({"r": r, "u": u})


def test_emit_profiles_reuses_text_of_bit_identical_columns(tmp_path):
    columns = {"r": np.array([0.5, 1.0]), "u": np.array([math.pi, -0.0])}
    for name in ("a.csv", "b.csv"):
        emit_profiles({c: v.copy() for c, v in columns.items()}, tmp_path / name)
        assert (tmp_path / name).read_bytes() == _per_cell(columns)
    assert scenarios._profile_text.cache_info().hits == 1


@pytest.mark.parametrize("first,second", [
    ({"r": np.array([0.0, 1.0])}, {"r": np.array([-0.0, 1.0])}),
    ({"r": np.array([1.0]), "u": np.array([math.nan])},
     {"r": np.array([1.0]), "u": np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())}),
    ({"r": np.array([1.0, 2.0]), "u": np.array([3.0, 4.0])},
     {"r": np.array([1.0, 2.0]), "v": np.array([3.0, 4.0])}),
], ids=["signed-zero", "nan-payload", "column-name"])
def test_emit_profiles_never_reuses_text_of_bit_different_columns(tmp_path, first, second):
    """Equal values (0.0 == -0.0), two NaNs or the same numbers under another
    name are bit-different columns: the second call formats its own text."""
    for name, columns in (("a.csv", first), ("b.csv", second)):
        emit_profiles(columns, tmp_path / name)
        assert (tmp_path / name).read_bytes() == _per_cell(columns)
    assert scenarios._profile_text.cache_info().hits == 0


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
    def nan_runner(spec, **values):
        return [Check("nan-measured", "a check that measures NaN", math.nan, math.inf)], {}

    monkeypatch.setitem(scenarios._RUNNERS, "bubble", nan_runner)
    (spec,) = expand_runs(parse_config("scenario = bubble\nd = 3\nb = 0.125\n"))
    report = execute_run(spec, tmp_path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    saved = json.loads((tmp_path / spec.slug / "report.json").read_text(), parse_constant=reject)
    assert saved["checks"] == report["checks"]
    assert (saved["checks"][0]["measured"], saved["checks"][0]["tolerance"]) == ("nan", "inf")
    assert saved["checks"][0]["verdict"] is False and saved["passed"] is False


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


#: A small run of each scenario: its required keys and a coarse grid.
_SMALL_RUN = {
    "euclidean-sanity": {"d": 3, "nodes": 64},
    "bubble": {"d": 4, "b": 0.125},
    "log-bubble": {"b": 0.125},
    "theorem-2-2": {"d": 3, "alpha": 0.5, "p": 5, "ell": 1, "r_max": 20, "nodes": 256},
    "soliton-liouville": {"d": 3, "p": 3, "ell": 1, "nodes": 129},
    "example-2-parabolicity": {"d": 3, "beta": 2, "p": 2, "nodes": 257},
    "estimates-sweep": {"d": 4, "b": 0.125, "q": 2},
    "custom": {"d": 3, "p": 5, "ell": 1, "nodes": 129},
}

#: Another value inside the domain of every key of each scenario.
_SECOND_VALUE = {
    "euclidean-sanity": {"d": 4, "r_max": 5, "nodes": 65, "spacing": "geometric"},
    "bubble": {"d": 5, "b": 0.2},
    "log-bubble": {"b": 0.2},
    "theorem-2-2": {"d": 4, "alpha": 0.6, "p": 6, "ell": 2, "r_max": 30, "nodes": 257,
                    "spacing": "uniform"},
    "soliton-liouville": {"d": 4, "p": 2, "ell": 2, "r_max": 8, "nodes": 130, "spacing": "uniform"},
    "example-2-parabolicity": {"d": 4, "beta": 3, "p": 3, "r_max": 2000, "nodes": 258,
                               "spacing": "uniform"},
    "estimates-sweep": {"d": 5, "b": 0.2, "q": 3},
    "custom": {"d": 4, "p": 4, "ell": 2, "weight": "power", "coeff": 2, "power": 1.5, "beta": 3,
               "r_max": 50, "nodes": 130, "spacing": "uniform"},
}


def _artifacts(name, values, out_dir):
    """``report.json`` without its timings and config echo, and the bytes of
    ``profiles.csv``, of the one run of ``name`` with ``values``."""
    text = f"scenario = {name}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    (spec,) = expand_runs(parse_config(text))
    report = execute_run(spec, out_dir)
    del report["timings"], report["config"]
    csv = out_dir / spec.slug / "profiles.csv"
    return report, csv.read_bytes() if csv.exists() else None


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_config_key_changes_an_artifact(tmp_path, name):
    """A key whose value moves nothing in ``report.json`` (the config echo
    aside) or ``profiles.csv`` is a key no check reads.  Every key of every
    scenario, set to a second value inside its domain, changes the artifacts
    of a small run; a key read only with one choice of another key is
    compared on a run that makes that choice.  ``tol`` is left out: no
    closed-form scenario reads it."""
    keys = SCENARIOS[name].keys
    assert set(_SECOND_VALUE[name]) == set(keys)
    dead = []
    for index, (key, value) in enumerate(_SECOND_VALUE[name].items()):
        base = dict(_SMALL_RUN[name])
        if keys[key].read_with is not None:
            base.update([keys[key].read_with])
        assert base.get(key, keys[key].default) != value
        default = _artifacts(name, base, tmp_path / f"default-{index}")
        if _artifacts(name, {**base, key: value}, tmp_path / f"second-{index}") == default:
            dead.append(key)
    assert dead == []


# ------------------------------------------------------------------ the CLI


def _write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def _run_cli(tmp_path, text):
    """``bel run`` on ``text`` in a fresh interpreter: (exit code, stderr)."""
    cfg = _write(tmp_path, text)
    src = str(Path(scenarios.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "bel.cli", "run", cfg, "--out",
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=30, env=env)
    return done.returncode, done.stderr


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
    cfg = _write(tmp_path, "scenario = bubble\nd = 4\nb = 0.125\ntol = tight\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("key,text", [
    ("scenario", "scenario = bubble, log-bubble\nd = 4\nb = 0.125\n"),
    ("out_dir", "scenario = log-bubble\nb = 0.125\nout_dir = x, y\n"),
], ids=["scenario", "out-dir"])
def test_cli_rejects_a_swept_scenario_or_out_dir(tmp_path, monkeypatch, key, text):
    """A scenario or an out_dir takes one value: a sweep of either is a coded
    config error, found before any run starts (no --out here, so out_dir is
    the config's)."""
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg])
    assert result.exit_code == 2, result.output
    assert f"config error [config-parse-error]: {cfg}:" in result.output
    assert f": {key} takes one value, not a sweep" in result.output
    assert "Traceback" not in result.output
    assert sorted(os.listdir(tmp_path)) == ["scenario.cfg"]


def test_cli_sweep_point_out_of_domain_writes_nothing(tmp_path):
    """Every sweep point is checked before the first run starts, so the good
    point before a bad one writes no run directory."""
    cfg = _write(tmp_path, "scenario = bubble\nd = 4\nb = 0.125, -1\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "error [config-parse-error]: b must be a number in (0, inf), got -1" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_cli_r_max_below_the_grid_start_writes_nothing(tmp_path):
    """r_max's domain starts at the grid's first radius, 1e-3, so a sweep
    point below it is a config-parse-error before any run starts; it once
    passed the domain (0, inf), and the sweep wrote ``custom-r_max100``
    before the grid rejected the second point with ``invalid-range``."""
    cfg = _write(tmp_path, "scenario = custom\nd = 3\np = 5\nell = 1\nr_max = 100, 1e-4\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert ("error [config-parse-error]: r_max must be a number in (0.001, inf), got 0.0001"
            in result.output)
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_error_is_reported_and_the_sweep_goes_on(tmp_path, jobs):
    """A coded error in one run writes that run's report, which names the
    error and does not pass, and the runs after it still run; the sweep
    exits 2.  The same holds with worker processes."""
    cfg = _write(tmp_path, "scenario = bubble\nd = 3\nb = 0.125, 1e160, 0.2\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(out), "--jobs", jobs])
    assert result.exit_code == 2, result.output
    assert sorted(os.listdir(out)) == ["bubble-b0.125", "bubble-b0.2", "bubble-b1e+160"]
    report = json.loads((out / "bubble-b1e+160" / "report.json").read_text())
    assert report["checks"] == [] and report["passed"] is False
    assert report["error"]["code"] == "invalid-range"
    assert list(report)[-2:] == ["error", "timings"]
    assert not (out / "bubble-b1e+160" / "profiles.csv").exists()
    assert "bubble-b1e+160: ERROR" in result.output
    assert "error [invalid-range]: bubble width b = 1e+160" in result.output
    for slug in ("bubble-b0.125", "bubble-b0.2"):
        assert f"{slug}: pass" in result.output
        assert "error" not in json.loads((out / slug / "report.json").read_text())
    assert "Traceback" not in result.output


def test_cli_theorem_shot_shorter_than_cheng_yau_sweep(tmp_path):
    """The Cheng-Yau radii R keep B_2R inside the shot, so a theorem run
    whose grid ends at r = 100 reports the check on R <= 50."""
    cfg = _write(tmp_path, "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\n"
                           "r_max = 100\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code in (0, 1), result.output
    report = json.loads((tmp_path / "out" / "theorem-2-2" / "report.json").read_text())
    assert "cheng-yau-bounded" in [c["name"] for c in report["checks"]]


def test_cli_theorem_shot_shorter_than_every_cheng_yau_ball(tmp_path):
    """A shot that ends before r = 2 leaves every Cheng-Yau ball B_2R,
    R >= 1: the run still ends in a report, whose check fails and says why."""
    cfg = _write(tmp_path, "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\n"
                           "r_max = 1.5\nnodes = 256\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out" / "theorem-2-2" / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["name"] == "cheng-yau-bounded"]
    assert check["verdict"] is False and check["measured"] is None
    assert check["reference"].endswith("; failed: B_2R leaves the shot at every R")


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
        ("scenario = theorem-2-2\nd = 3\nalpha = 1.5\np = 5\nell = 1\n", "config-parse-error"),
        ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = bogus\n", "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = 3\nell = 1\nnodes = 8\n", "config-parse-error"),
        ("scenario = bubble\nd = three\nb = 0.125\n", "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = x\nell = 1\n", "config-parse-error"),
        ("scenario = bubble\nd = 3.7\nb = 0.125\n", "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = 3\nell = 1\nnodes = 100.5\n",
         "config-parse-error"),
        ("scenario = bubble\nd = 4\nb = 0.125, wide\n", "config-parse-error"),
        ("scenario = bubble\nd = 4\nb = inf\n", "config-parse-error"),
        ("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = nan\nell = 1\n",
         "config-parse-error"),
        ("scenario = example-2-parabolicity\nd = 3\nbeta = 2\np = 1\n", "config-parse-error"),
        ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = power\npower = -1\n",
         "config-parse-error"),
        ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = power\npower = 1\n",
         "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = 1\nell = 1\n", "config-parse-error"),
        ("scenario = custom\nd = 3\np = 3\nell = -1\n", "config-parse-error"),
        ("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 1\nell = 1\nnodes = 512\n",
         "config-parse-error"),
        ("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = -1\nell = 1\nnodes = 512\n",
         "config-parse-error"),
        ("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = -1\nnodes = 512\n",
         "config-parse-error"),
        ("scenario = soliton-liouville\nd = 3\np = 1" + "0" * 400 + "\nell = 1\n",
         "config-parse-error"),
    ],
    ids=["theorem-alpha", "custom-weight", "soliton-nodes", "text-d", "text-p", "fractional-d",
         "fractional-nodes", "text-in-sweep", "infinite-b", "nan-p",
         "parabolicity-p-one", "custom-power-negative",
         "custom-power-one", "soliton-p-one", "custom-ell-negative", "theorem-p-one",
         "theorem-p-minus-one", "theorem-ell-negative", "p-beyond-float-range"],
)
def test_cli_run_error_exit_code(tmp_path, text, code):
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error [{code}]:" in result.output
    assert "Traceback" not in result.output
    if code == "config-parse-error":  # found before any run starts
        assert not (tmp_path / "out").exists()


_DENSITY_OVERFLOW = "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\nnodes = 256\n"


@pytest.mark.parametrize("text,radius", [
    (_DENSITY_OVERFLOW + "r_max = 1e300\n", "8.73326e+103"),
    (_DENSITY_OVERFLOW.replace("alpha = 0.5", "alpha = 1e-9"), "614.095"),
    (_DENSITY_OVERFLOW.replace("d = 3", "d = 300").replace("p = 5", "p = 1.5"), "10"),
    ("scenario = example-2-parabolicity\nd = 3\nbeta = 2\np = 2\nr_max = 1e300\n",
     "4.04514e+151"),
], ids=["theorem-r-max", "theorem-alpha", "theorem-d", "parabolicity-r-max"])
def test_cli_density_overflow_is_a_coded_error(tmp_path, text, radius):
    """A weighted area density that leaves the float range ends in
    ``invalid-range`` naming the first radius of its volume table that is
    not finite, and nothing before it: numpy's overflow warnings are
    silenced only where a non-finite result is checked afterwards (a
    warning would also fail the test, since the suite turns it into an
    error)."""
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "error [invalid-range]: weighted area density" in result.output
    assert f"not finite from r = {radius}\n" in result.output
    assert "Traceback" not in result.output
    assert "Warning" not in result.output


@pytest.mark.parametrize("text,args,message", [
    ("scenario = bubble\nd = 4\nb = 0.125\ntol = -1\n", [], "tol must be a number in (0, inf)"),
    ("scenario = bubble\nd = 4\nb = 0.125\ntol = inf\n", [], "tol must be a number in (0, inf)"),
    ("scenario = log-bubble\nb = 0.125\n", ["--tol", "nan"], "tol must be a number in (0, inf)"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = none\npower = 5\n", [],
     "power is read only with weight = power, not with weight = none"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\ncoeff = 2\n", [],
     "coeff is read only with weight = power, not with weight = none"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = power\nbeta = 1\n", [],
     "beta is read only with weight = log-tail, not with weight = power"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = power, none\npower = 3\n", [],
     "power is read only with weight = power, not with weight = none"),
], ids=["negative-tol", "infinite-tol", "nan-tol-option", "power-without-power-weight",
        "coeff-without-power-weight", "beta-without-log-tail", "power-on-a-swept-weight"])
def test_cli_rejects_tol_and_unread_weight_keys(tmp_path, text, args, message):
    """tol is checked against the table, for the config value and --tol
    alike; a custom weight key set without its weight is never silently
    ignored.  The whole sweep is rejected before any run starts."""
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out"), *args])
    assert result.exit_code == 2, result.output
    assert f"error [config-parse-error]: {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("scenario = estimates-sweep\nd = 4\nb = 0.125\nq = 2\nn = 5\n",
     "unknown key 'n' for scenario estimates-sweep"),
    ("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\nf0 = 1\n",
     "unknown key 'f0' for scenario theorem-2-2"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = log-tail\nalpha = 0.3\n",
     "unknown key 'alpha' for scenario custom"),
    ("scenario = custom\nd = 3\np = 3\nell = 1\nweight = warped\n",
     "weight must be one of log-tail, none, power, got 'warped'"),
], ids=["estimates-n", "theorem-f0", "custom-alpha", "custom-warped"])
def test_cli_rejects_removed_keys(tmp_path, text, message):
    """Keys and choices that changed no verdict are gone (estimates ``n``,
    theorem ``f0``, custom ``weight = warped`` with its ``alpha``): a config
    that sets one is a config-parse-error naming it, and nothing is written."""
    cfg = _write(tmp_path, text)
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "error [config-parse-error]: " in result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def test_cli_nan_tol_exits_fast(tmp_path):
    """A NaN tolerance once made the shot's step size NaN and the run never
    ended; it is now a config error, and a subprocess with a timeout keeps a
    regression from hanging the suite."""
    cfg = _write(tmp_path, "scenario = soliton-liouville\nd = 3\np = 3\nell = 1\ntol = nan\n")
    src = str(Path(scenarios.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "bel.cli", "run", cfg, "--out",
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=5, env=env)
    assert done.returncode == 2, done.stderr
    assert "error [config-parse-error]: tol must be a number in (0, inf), got nan" in done.stderr


#: One config per scenario (custom with every weight), each a bundled config
#: or a smaller grid of one: together about a second of runs.
_EVERY_SCENARIO = [
    "scenario = euclidean-sanity\nd = 3\n",
    "scenario = bubble\nd = 4\nb = 0.125\n",
    "scenario = log-bubble\nb = 0.125\n",
    "scenario = estimates-sweep\nd = 4\nb = 0.125\nq = 2\n",
    "scenario = example-2-parabolicity\nd = 3\nbeta = 2\np = 2\nnodes = 513\n",
    "scenario = soliton-liouville\nd = 3\np = 3\nell = 1\n",
    "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\nnodes = 512\n",
    "scenario = custom\nd = 3\np = 5\nell = 1\nweight = none, power, log-tail\nnodes = 513\n",
]


def _scipy_modules_after(script: str) -> list:
    """Run ``script`` in a fresh interpreter with bel on its path and with
    ``import scipy`` blocked (``sys.modules["scipy"] = None`` before bel is
    imported, so any scipy import raises); return the sorted list of the
    ``scipy`` and ``scipy.*`` modules it has loaded at the end, as printed."""
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              + script
              + "print(sorted(name for name, module in sys.modules.items() if module is not None"
                " and (name == 'scipy' or name.startswith('scipy.'))))\n")
    src = str(Path(scenarios.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_no_scenario_loads_scipy(tmp_path):
    """bel's runtime needs numpy and click only: the DOP853 tables and the
    event root finder are bel's own, and every manifold integral is a Gauss
    antiderivative.  A fresh interpreter in which ``import scipy`` fails
    runs each scenario once and loads no ``scipy`` module."""
    assert {parse_config(text).scenario for text in _EVERY_SCENARIO} == set(scenarios.SCENARIOS)
    script = (
        "from bel.scenarios import parse_config, run_scenario\n"
        f"for i, text in enumerate({_EVERY_SCENARIO!r}):\n"
        f"    run_scenario(parse_config(text), {str(tmp_path)!r} + '/' + str(i))\n"
    )
    assert _scipy_modules_after(script) == "[]"


def test_no_bundled_config_loads_scipy(tmp_path):
    """``bel run`` on each of the eight bundled configs, all in one fresh
    interpreter in which ``import scipy`` fails, passes and loads no
    ``scipy`` module either."""
    configs = sorted(str(p) for p in (files("bel") / "configs").iterdir()
                     if p.name.endswith(".cfg"))
    assert len(configs) == 8
    script = (
        "from bel.cli import main\n"
        f"for cfg in {configs!r}:\n"
        "    try:\n"
        f"        main(['run', cfg, '--out', {str(tmp_path)!r}], standalone_mode=False)\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0, (cfg, exit.code)\n"
    )
    assert _scipy_modules_after(script) == "[]"


#: The checks that compare nothing: their reason alone decides their verdict.
_NO_TOLERANCE = {"solve", "zero-crossing", "asymptotic-bound"}


def test_bundled_checks_without_a_tolerance_are_the_documented_ones(tmp_path):
    """Every check of the 17 bundled runs compares its measured value with
    a tolerance, except the three that ``Check`` documents."""
    reports = []
    for cfg in sorted(p for p in (files("bel") / "configs").iterdir() if p.name.endswith(".cfg")):
        reports += run_scenario(parse_config(cfg.read_text()), tmp_path / cfg.name)
    assert len(reports) == 17
    bare = {c["name"] for report in reports for c in report["checks"] if c["tolerance"] is None}
    assert bare <= _NO_TOLERANCE, bare
    assert all(c["measured"] is not None for report in reports for c in report["checks"])


def test_cli_stiff_shot_ends_in_a_failed_solve_check(tmp_path):
    """A weight with coeff = -1e6 makes the shot stiff: it once made 2.27M
    right-hand-side calls in 20 s and reached r = 0.98 of 100.  The driver's
    budget ends it as truncated at r = 0.2906, so the solve check fails
    (exit 1) within seconds and says why; so does energy-decreasing, which
    held (-2.4e-9) on the part of the shot that was made.  A subprocess with
    a timeout keeps a regression from hanging the suite."""
    code, stderr = _run_cli(tmp_path, "scenario = custom\nd = 3\np = 5\nell = 1\nweight = power\n"
                                      "coeff = -1e6\n")
    assert code == 1, stderr
    assert "Traceback" not in stderr
    report = json.loads((tmp_path / "out" / "custom" / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["solve", "energy-decreasing"]
    why = ("; failed: truncated-at(0.290612748147): "
           "the budget of 200,000 right-hand-side calls was spent")
    assert checks["solve"]["reference"] == "-u'' - L r u' = u^p, u(0) = ell" + why
    assert checks["energy-decreasing"]["reference"] == "E' = -(L r) u'^2 <= 0" + why
    assert checks["solve"]["verdict"] is checks["energy-decreasing"]["verdict"] is False
    assert checks["energy-decreasing"]["measured"] < 0.0  # E did decrease on [0, r_end]


#: Custom shots (d = 3, p = 5, ell = 1 unless set) whose float right-hand
#: side overflows, with the checks that fail and why.  Python's ``**``
#: raises where numpy gives inf: u^p returns inf and the power drift -inf as
#: numpy does, and a stage whose log-tail drift raises is evaluated on the
#: generic path, so each run ends as it did when the right-hand side called
#: numpy.  At p = 1e3 the shot stays finite but u'^2 does not, so the energy
#: check fails naming the first node where E is not finite.
_OVERFLOWING_SHOTS = {
    "log-tail-beta-neg": ({"weight": "log-tail", "beta": "-1e3"}, {
        "solve": "; failed: truncated-at(0.0001): the step size was not finite",
        "energy-decreasing": "; failed: truncated-at(0.0001): the step size was not finite"}),
    "log-tail-beta-pos": ({"weight": "log-tail", "beta": "1e3"}, {"energy-decreasing": ""}),
    "power-1e3": ({"weight": "power", "power": "1e3", "r_max": "1e4"}, {"energy-decreasing": ""}),
    "p-1e3": ({"p": "1e3", "ell": "2"},
              {"energy-decreasing": "; failed: E is first not finite at r = 0.001"}),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_SHOTS))
def test_cli_overflowing_shot_ends_in_a_report(tmp_path, case):
    """A shot whose right-hand side leaves the float range ends in a report
    whose failed checks say why (exit 1), not in an OverflowError traceback."""
    keys, failed = _OVERFLOWING_SHOTS[case]
    keys = {"scenario": "custom", "d": "3", "p": "5", "ell": "1", **keys}
    code, stderr = _run_cli(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert code == 1, stderr
    assert "Traceback" not in stderr
    report = json.loads((tmp_path / "out" / "custom" / "report.json").read_text())
    references = {"solve": "-u'' - L r u' = u^p, u(0) = ell",
                  "energy-decreasing": "E' = -(L r) u'^2 <= 0"}
    assert [(c["name"], c["verdict"], c["reference"]) for c in report["checks"]] == [
        (name, name not in failed, reference + failed.get(name, ""))
        for name, reference in references.items()]
    if case == "p-1e3":  # the energy column is computed without numpy warnings
        assert "Warning" not in stderr, stderr


@pytest.mark.parametrize("scenario,extra", [
    ("theorem-2-2", "alpha = 0.5\nnodes = 512\n"),
    ("soliton-liouville", ""),
    ("custom", ""),
])
def test_cli_blowup_is_a_failed_solve_check(tmp_path, scenario, extra):
    # ell^p overflows, so the shot blows up before it starts: a verdict
    # (exit 1), not a coded error, whose reference gives the solver's reason,
    # in one form in every scenario that shoots
    cfg = _write(tmp_path, f"scenario = {scenario}\nd = 3\np = 5\nell = 1e62\n{extra}")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out" / scenario / "report.json").read_text())
    solve = [c for c in report["checks"] if c["name"] == "solve"]
    if scenario != "theorem-2-2":  # its manifold checks do not read the shot
        assert report["checks"] == solve  # elsewhere solve is the only check
    reference = ("-u'' - L r u' = u^p, u(0) = ell"
                 "; failed: BlowupError: initial data exceeds the overflow guard")
    assert solve == [{"name": "solve", "reference": reference, "verdict": False,
                      "measured": None, "tolerance": None}]
    assert not report["passed"]


def test_cli_soliton_without_a_crossing_fails_and_says_why(tmp_path):
    """On [0, 1] the soliton shot stays positive: zero-crossing fails (exit 1)
    and names the shot's status, a negative control for the check."""
    cfg = _write(tmp_path, "scenario = soliton-liouville\nd = 3\np = 3\nell = 0.25\nr_max = 1\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out" / "soliton-liouville" / "report.json").read_text())
    crossing = [c for c in report["checks"] if c["name"] == "zero-crossing"]
    assert len(crossing) == 1 and crossing[0]["verdict"] is False
    assert crossing[0]["measured"] is None
    assert crossing[0]["reference"] == ("finite weighted volume forbids positive solutions"
                                        "; failed: global-positive")


@pytest.mark.parametrize("ell,budget,why", [
    ("1", 100, "; failed: truncated-at(0.0261824965041): "
               "the budget of 100 right-hand-side calls was spent"),
    ("1e62", None, "; failed: BlowupError: initial data exceeds the overflow guard"),
], ids=["truncated", "blowup"])
def test_cli_theorem_failed_shot_says_why(monkeypatch, tmp_path, ell, budget, why):
    """theorem-2-2's solve check names why a shot is not global-positive: the
    driver's status for a truncated shot, the solver error for a blown-up one."""
    from bel import _dop853

    if budget is not None:
        monkeypatch.setattr(_dop853, "_MAX_NFEV", budget)
    cfg = _write(tmp_path, f"scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = {ell}\n"
                           "nodes = 512\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out" / "theorem-2-2" / "report.json").read_text())
    solve = [c for c in report["checks"] if c["name"] == "solve"]
    assert len(solve) == 1 and solve[0]["verdict"] is False
    assert solve[0]["reference"] == "-u'' - L r u' = u^p, u(0) = ell" + why


def test_cli_shot_crossing_before_the_first_node_ends_in_a_report(tmp_path):
    """With coeff = 1e8 the shot crosses zero at r = 4.98e-4, before the
    first positive node (1e-3): energy-decreasing has no two energies to
    compare, so it measures nothing and fails saying why (exit 1), where
    ``np.max`` of an empty array once ended the run in a traceback."""
    code, stderr = _run_cli(tmp_path, "scenario = custom\nd = 3\np = 5\nell = 1\n"
                                      "weight = power\ncoeff = 1e8\n")
    assert code == 1, stderr
    assert "Traceback" not in stderr and "Warning" not in stderr
    report = json.loads((tmp_path / "out" / "custom" / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["solve"]["verdict"] is True
    assert checks["solve"]["measured"] == pytest.approx(4.98447e-4, rel=1e-5)
    energy = checks["energy-decreasing"]
    assert (energy["verdict"], energy["measured"], energy["tolerance"]) == (False, None, 1.0)
    assert energy["reference"] == ("E' = -(L r) u'^2 <= 0; failed: the shot's range "
                                   "[0, 0.000498446953438] holds 0 positive nodes")


_V_TERM = "(a + b r^2)^(d-1), in v'', past the float range on r <= 200"


@pytest.mark.parametrize("scenario,d,b,term", [
    ("bubble", 3, "1e160", "b^2 or u(0)"),
    ("bubble", 6, "1e154", "b^2 or u(0)"),
    ("bubble", 100, "1e3", "b^2 or u(0)"),
    ("bubble", 3, "1e-300", _V_TERM),
    ("bubble", 3, "1e-155", _V_TERM),
    ("bubble", 3, "1e150", _V_TERM),
    ("bubble", 3, "1e154", _V_TERM),
    ("bubble", 100, "0.125", _V_TERM),
    ("estimates-sweep", 4, "1e-300", _V_TERM),
], ids=["3-1e160", "6-1e154", "100-1e3", "3-1e-300", "3-1e-155", "3-1e150", "3-1e154",
        "100-0.125", "estimates-4-1e-300"])
def test_cli_bubble_width_beyond_the_float_range_is_a_coded_error(tmp_path, scenario, d, b,
                                                                  term):
    """A width that takes b^2 (in u'') or u(0) = (d(d-2) b)^((d-2)/2) past
    the float range, or the factor u^(gamma-2) = (a + b r^2)^(d-1) of v''
    at the grid's end, is rejected up front with ``invalid-range`` (exit 2).
    ``b**2`` once ended b = 1e160 in an OverflowError traceback; the v''
    cases once printed overflow warnings and ended in a report, b = 1e150
    in ``cross-check-mismatch``."""
    q = "q = 1\n" if scenario == "estimates-sweep" else ""
    code, stderr = _run_cli(tmp_path, f"scenario = {scenario}\nd = {d}\nb = {b}\n{q}")
    assert code == 2, stderr
    assert "Traceback" not in stderr and "Warning" not in stderr
    assert f"error [invalid-range]: bubble width b = {float(b)!r} takes {term}" in stderr


@pytest.mark.parametrize("b", ["1e300", "1e-300"])
def test_cli_log_bubble_width_beyond_the_float_range_is_a_coded_error(tmp_path, b):
    """A log-bubble width whose closed form leaves the float range on the
    grid (here (a + b r^2)^2 with a = 1/(8b), at r = 200) is rejected up
    front with ``invalid-range`` (exit 2); b = 1e300 once printed numpy
    overflow warnings, and b = 1e-300 passed every check on an underflowed
    profile."""
    code, stderr = _run_cli(tmp_path, f"scenario = log-bubble\nb = {b}\n")
    assert code == 2, stderr
    assert "Traceback" not in stderr and "Warning" not in stderr
    assert f"error [invalid-range]: log-bubble width b = {float(b)!r} takes a term" in stderr


def test_cli_tiny_center_value_ends_in_a_report(tmp_path):
    # ell^{1-p} = 1e1200 overflows a float; the asymptotic bound is still
    # representable and the run ends in a report, not a traceback.  u' has
    # underflowed to 0 at every node, so the bound holds only trivially: the
    # check fails and says why.  v = u^{-2} overflows at every node, so the
    # profiles carry no v or P column, and no overflow warning is printed
    cfg = _write(tmp_path, "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1e-300\n"
                           "nodes = 256\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in caught] == []
    header = (tmp_path / "out" / "theorem-2-2" / "profiles.csv").read_text().split("\n", 1)[0]
    assert header == "r,u,u_prime,ric_r,ric_theta,K,pohozaev,energy"
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    report = json.loads((tmp_path / "out" / "theorem-2-2" / "report.json").read_text())
    bound = [c for c in report["checks"] if c["name"] == "asymptotic-bound"]
    assert len(bound) == 1 and bound[0]["verdict"] is False
    assert bound[0]["reference"].endswith("; failed: u' = 0 at every positive node")
    # max u' over the positive nodes is 0, not below it
    (decreasing,) = [c for c in report["checks"] if c["name"] == "u-decreasing"]
    assert decreasing["verdict"] is False and decreasing["measured"] == 0.0
    assert (decreasing["tolerance"], decreasing["reference"]) == (0.0, "u' < 0 for r > 0")


def test_cli_tiny_center_value_fails_cheng_yau(tmp_path):
    """u' underflows to 0 at every node, so every Cheng-Yau ratio is 0: the
    check fails and says why, instead of passing on degenerate data."""
    cfg = _write(tmp_path, "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1e-300\n"
                           "nodes = 256\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out" / "theorem-2-2" / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["name"] == "cheng-yau-bounded"]
    assert check["verdict"] is False and check["measured"] == 0.0
    assert check["reference"].endswith("failed: u' = 0 at every positive node of B_R")


def test_cheng_yau_check_fails_on_a_non_finite_ratio(theorem_reports, monkeypatch):
    profile = theorem_reports[(3, 0.5, 5.0, 1.0)].profile
    radii = np.geomspace(1.0, 100.0, 13)
    assert scenarios._cheng_yau_check(profile, 3.0, radii).verdict
    monkeypatch.setattr(scenarios, "cheng_yau_ratio",
                        lambda prof, n, R: math.nan if R > 50.0 else 1e-3)
    check = scenarios._cheng_yau_check(profile, 3.0, radii)
    # no reason is needed: the non-finite maximum fails the comparison
    assert not check.verdict and math.isnan(check.measured) and check.reason == ""


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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_below_one_is_a_usage_error(tmp_path, jobs):
    cfg = _write(tmp_path, "scenario = euclidean-sanity\nd = 2,3\n")
    result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_jobs_pool_has_at_most_one_worker_per_run(tmp_path, monkeypatch):
    """A recorder stands in for the process pool: it maps serially, so no
    worker is started, and records the pool size asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("bel.cli.ProcessPoolExecutor", SerialPool)
    cfg = _write(tmp_path, "scenario = euclidean-sanity\nd = 2,3\n")
    for jobs in ("100000", "2"):
        result = CliRunner().invoke(main, ["run", cfg, "--out", str(tmp_path / "out"),
                                           "--jobs", jobs])
        assert result.exit_code == 0, result.output
    assert sizes == [2, 2]


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
    assert "  alpha: a number in (0, 1); required\n" in result.output
    assert "  nodes: an integer in [16, inf); default 4096\n" in result.output
    assert "  r_max: a number in (0.001, inf); default 1000.0\n" in result.output
