"""Deterministic work counters for the warped theorem and the radial shots.

Wall time is not gated (it is noisy on shared hosts); the number of
quadrature integrand points and of right-hand-side calls is exact and
repeats from run to run, so it is.
"""

import importlib
import importlib.util
import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import bel.radial_core as radial_core
from bel import _g17, construction, lane_emden, pfunction, scenarios
from bel.construction import build_example, verify_theorem
from bel.radial_core import pole_refined_partition
from bel.scenarios import execute_run, expand_runs, parse_config, run_scenario
from tests.conftest import fallback_count

#: Integrand points of build_example(3, 0.5) + verify_theorem(M, 5, 1) on the
#: default grid, recorded with the closed-form flux of the warped weight,
#: one area-density pass shared by the volume and slope-factor tables, and
#: antiderivatives that read their nodal values at partition nodes.  The
#: nested quadrature (f' itself an antiderivative) used 8_981_240, two
#: area-density passes 1_336_535, and evaluating the integrand at the nodes
#: too 835_415.
RECORDED_POINTS = 668_205

#: Radii at which the same cold build and verify evaluate the warped flux
#: F = int_0^r psi'' psi, which every f' and f'' evaluation calls (and f
#: five times per radius off the partition nodes).  It was 1_080_962 when
#: the slope-factor integrand evaluated f' four times per point through the
#: drift and the curvature, and J evaluated its integrand at the nodes, and
#: 701_656 when a spline through the nodal sums gave V at r_max (the Gauss
#: antiderivative integrates the clipped last interval there), and 701_731
#: while ``comparison_report`` also swept mu(B_R) over the report nodes
#: R >= 1 for a volume constant that no check read, and 701_706 while the
#: theorem's manifold record evaluated f' at the positive nodes three times
#: (and f'' twice) instead of on one RadialJet, and again on the top decade.
RECORDED_FLUX_POINTS = 688_735

_MODULES = ("bel.radial_core", "bel.geometry", "bel.construction", "bel.lane_emden", "bel.pfunction")


class QuadratureCounter:
    """Counts calls and integrand points of every Gauss-Legendre quadrature."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def _counting(self, fn):
        if getattr(fn, "counted", False):  # indefinite_gauss -> the other two
            return fn

        def integrand(x):
            self.points += np.size(x)
            return fn(x)

        integrand.counted = True
        return integrand

    def wrap(self, quadrature):
        def counted(fn, nodes, *args, **kwargs):
            self.calls += 1
            return quadrature(self._counting(fn), nodes, *args, **kwargs)

        return counted


_QUADRATURES = ("cumulative_gauss", "indefinite_gauss", "gauss_antiderivative")


@pytest.fixture
def counter(monkeypatch):
    """Wrap every Gauss-Legendre quadrature wherever a bel module binds it."""
    qc = QuadratureCounter()
    originals = {getattr(radial_core, attr): qc.wrap(getattr(radial_core, attr))
                 for attr in _QUADRATURES}
    for name in _MODULES:
        module = importlib.import_module(name)
        for attr in _QUADRATURES:
            original = getattr(module, attr, None)
            if original in originals:
                monkeypatch.setattr(module, attr, originals[original])
    return qc


def test_warped_theorem_quadrature_points_gated(counter):
    M = build_example(3, 0.5)
    report = verify_theorem(M, 5.0, 1.0)
    assert all(c.verdict for c in report.checks)
    assert counter.calls > 0
    assert counter.points <= RECORDED_POINTS * 1.1, counter.points


def test_warped_flux_points_pinned(monkeypatch):
    """The exact number of radii at which a cold warped build and verify
    evaluate the flux behind f' and f''."""
    points = []
    original = construction._weight_from_flux

    def counted(psi, d, flux):
        def counted_flux(r):
            points.append(np.size(r))
            return flux(r)
        return original(psi, d, counted_flux)

    monkeypatch.setattr(construction, "_weight_from_flux", counted)
    report = verify_theorem(build_example(3, 0.5), 5.0, 1.0)
    assert all(c.verdict for c in report.checks)
    assert sum(points) == RECORDED_FLUX_POINTS, sum(points)


def test_warped_weight_slope_needs_no_quadrature(counter):
    M = build_example(3, 0.5)
    counter.calls = counter.points = 0
    r = np.geomspace(1e-6, 1e3, 257)
    M.f(r, 1)
    M.f(0.5, 1)
    M.f(r, 2)
    M.drift(r)
    assert (counter.calls, counter.points) == (0, 0)
    # f itself is one quadrature level over f': 5 points per radius, except
    # at a partition node, where it reads the nodal value (r_max's interval
    # is clipped to the one before, so it is not read there)
    on_node = np.isin(r, pole_refined_partition(M.grid.nodes)[:-1])
    assert np.count_nonzero(on_node) == 1  # r = 1e-6
    M.f(r)
    assert counter.points == 5 * np.count_nonzero(~on_node)


@pytest.mark.skipif(not _g17._FAST_PATH, reason="long double narrower than 64 bits")
def test_csv_fallback_cells_gated(bundled_theorem_run):
    """The CSV formatter proves the digits of all but a few cells of the
    bundled theorem run; the rest are formatted by ``%``.  The fallback
    share measured 2.2% (the tie window is 2.2% of the unit interval), so a
    slide back to the slow path fails here."""
    body = (bundled_theorem_run / "profiles.csv").read_text().split("\n", 1)[1]
    table = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])
    assert table.shape == (4096, 10)
    assert fallback_count(table) <= 0.05 * table.size, fallback_count(table)


#: Right-hand-side calls of the shots of the bundled configs that shoot:
#: custom (827), soliton-liouville's three ells (482, 497, 485) and
#: theorem-2-2 (1067).  It was the same 3_358 while every stage called numpy
#: ufuncs on its floats; the stage's arithmetic moved by a few ulps, its step
#: count did not.
RECORDED_SHOT_NFEV = 3_358


def test_bundled_shot_rhs_calls_gated(monkeypatch, tmp_path):
    """The shots of the bundled configs make no more right-hand-side calls
    than recorded, up to 1%: an edit of the right-hand side that costs the
    driver steps shows here, where wall time is not gated."""
    nfev = []
    ivp = lane_emden.solve_ivp

    def recorded(*args, **kwargs):
        solution = ivp(*args, **kwargs)
        nfev.append(solution.nfev)
        return solution

    monkeypatch.setattr(lane_emden, "solve_ivp", recorded)
    for name in ("custom", "soliton-liouville", "theorem-2-2"):
        text = (files("bel") / "configs" / f"{name}.cfg").read_text()
        run_scenario(parse_config(text), tmp_path / name)
    assert len(nfev) == 5
    assert sum(nfev) <= RECORDED_SHOT_NFEV * 1.01, nfev


# ------------------------------------------------------ theorem-2-2 sweeps

#: A 2x2 (p, ell) sweep on one (d, alpha) manifold, on a 1024-node grid.
SWEEP = "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5, 6\nell = 1, 2\nnodes = 1024\n"

#: Integrand points of the whole SWEEP through execute_run: one manifold
#: build with its check record (the volume and slope-factor tables from one
#: area-density pass, the int psi'^2 antiderivative), then four runs that
#: reuse it.  Rebuilding the manifold for every sweep point needed 1_567_580;
#: sharing the manifold but recomputing its checks at every point, 496_860;
#: evaluating antiderivative integrands at the partition nodes, 238_935.
RECORDED_SWEEP_POINTS = 176_705


@pytest.fixture
def builds(monkeypatch):
    """Count build_example calls made by the theorem scenarios."""
    calls = []
    original = scenarios.build_example

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "build_example", counted)
    return calls


def _run(text, out_dir):
    return [execute_run(spec, out_dir) for spec in expand_runs(parse_config(text))]


def test_theorem_sweep_builds_one_manifold(counter, builds, tmp_path):
    reports = _run(SWEEP, tmp_path)
    assert len(reports) == 4
    assert len(builds) == 1
    assert counter.points <= RECORDED_SWEEP_POINTS * 1.1, counter.points


@pytest.mark.parametrize("other", ["nodes = 1024\nspacing = uniform\n", "nodes = 1025\n"])
def test_theorem_run_rebuilds_for_another_manifold(builds, tmp_path, other):
    one = "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\n"
    _run(one + "nodes = 1024\n", tmp_path)
    _run(one + "nodes = 1024\n", tmp_path)
    assert len(builds) == 1
    _run(one + other, tmp_path)
    assert len(builds) == 2


def _assert_warm_matches_cold(specs, tmp_path, clear_memos, memos=()):
    """Run ``specs[-1]`` after ``specs[0]``, where it must hit each memo of
    ``memos`` once, and again with every memo cleared; both runs must write
    the same bytes."""
    execute_run(specs[0], tmp_path / "warm")
    execute_run(specs[-1], tmp_path / "warm")
    assert [getattr(scenarios, memo).cache_info().hits for memo in memos] == [1] * len(memos)
    clear_memos()
    execute_run(specs[-1], tmp_path / "cold")
    warm, cold = (tmp_path / side / specs[-1].slug for side in ("warm", "cold"))
    assert (warm / "profiles.csv").read_bytes() == (cold / "profiles.csv").read_bytes()
    reports = [json.loads((run / "report.json").read_text()) for run in (warm, cold)]
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1]


def test_warm_theorem_run_matches_cold_run(builds, tmp_path, cold_memos):
    """A sweep point run on the manifold an earlier point left behind writes
    the same artifacts as the same point run on a newly built manifold."""
    _assert_warm_matches_cold(expand_runs(parse_config(SWEEP)), tmp_path, cold_memos)
    assert len(builds) == 2


def test_warm_theorem_run_reads_stored_shot_values(monkeypatch, tmp_path):
    """The columns and checks of a warm theorem run read the node values the
    shot stored, so its dense output is called once: the shot's node samples,
    u and u' together.  It was 20 when the energy, Pohozaev, v and P columns
    evaluated it again, 10 when u'(r), the asymptotic bound's u(r) and an
    unread v' did, 6 when v_transform's P samples did, 3 when u and u' at the
    nodes took a pass each, and 2 while the solve check compared u(0), which
    reads the pole series, with ell."""
    calls = []
    original = lane_emden._profile_callbacks

    def counted(*args):
        def count(fn):
            def evaluate(r):
                calls.append(fn)
                return fn(r)
            return evaluate
        return tuple(count(fn) for fn in original(*args))

    monkeypatch.setattr(lane_emden, "_profile_callbacks", counted)
    specs = expand_runs(parse_config(SWEEP))
    execute_run(specs[0], tmp_path)
    del calls[:]
    execute_run(specs[1], tmp_path)
    assert len(calls) == 1, len(calls)


#: Radii at which one run of each closed-form scenario calls its closed-form
#: callbacks.  Counted in calls they were 45, 23 and 87 when its v, P,
#: Pohozaev and energy columns evaluated the callbacks again at the nodes
#: whose values the profile stores, 37, 19 and 83 when v_transform's P node
#: values, the PDE residual's u and u' and the P-constancy check's P did,
#: and 24, 10 and 80 before quadratures called their integrands in blocks
#: (which splits one call into several, so radii are counted now).  The
#: estimates run evaluated 129_177 radii while its antiderivatives still
#: called their integrands at partition nodes.  Off the nodes, v^(k) and
#: P^(k) evaluate each of u, ..., u^(k) once (P and v' two callbacks, P' and
#: v'' three).
CLOSED_FORM_POINTS = {
    "scenario = bubble\nd = 4\nb = 0.125\n": 34_003,
    "scenario = log-bubble\nb = 0.125\n": 8_002,
    "scenario = estimates-sweep\nd = 4\nb = 0.125\nq = 2\n": 129_132,
}


@pytest.mark.parametrize("text", sorted(CLOSED_FORM_POINTS), ids=lambda t: t.split()[2])
def test_closed_form_run_reads_stored_node_values(monkeypatch, tmp_path, text):
    """The profile columns of a closed-form run read the node values its
    profile and v-transform store instead of calling ``u``, ``u'`` or ``u''``
    at those nodes again."""
    points = []
    original = pfunction._explicit_profile

    def counted(d, p, ell, *callbacks):
        def count(fn):
            def evaluate(r):
                points.append(np.size(r))
                return fn(r)
            return evaluate
        return original(d, p, ell, *map(count, callbacks))

    monkeypatch.setattr(pfunction, "_explicit_profile", counted)
    _run(text, tmp_path)
    assert sum(points) == CLOSED_FORM_POINTS[text], sum(points)


# ------------------------------------------------- closed-form sweeps

#: A two-point sweep of each closed-form scenario whose swept parameter
#: leaves the manifold alone, with the memos its second point reuses.
CLOSED_FORM_SWEEPS = {
    "example-2-parabolicity": ("scenario = example-2-parabolicity\nd = 3\nbeta = 2\np = 2, 5\n",
                               ("_log_tail_example", "_profile_text")),
    "estimates-sweep": ("scenario = estimates-sweep\nd = 4\nb = 0.125\nq = 2, 2.5\n",
                        ("_bubble_estimate_data", "_profile_text")),
    "euclidean-sanity": ("scenario = euclidean-sanity\nd = 2, 4\n", ("_profile_text",)),
}


@pytest.mark.parametrize("scenario", sorted(CLOSED_FORM_SWEEPS))
def test_warm_closed_form_run_matches_cold_run(tmp_path, cold_memos, scenario):
    """A sweep point run after its neighbour reuses that neighbour's work
    and CSV text, and writes the same artifacts as the same point run with
    every memo cleared."""
    text, memos = CLOSED_FORM_SWEEPS[scenario]
    _assert_warm_matches_cold(expand_runs(parse_config(text)), tmp_path, cold_memos, memos)


def test_every_memo_starts_cold():
    """The autouse fixture clears every memo of the scenarios module."""
    memos = [memo for memo in vars(scenarios).values() if hasattr(memo, "cache_clear")]
    assert {memo.__name__ for memo in memos} >= {
        "_warped_example", "_log_tail_example", "_bubble_estimate_data", "_profile_text"}
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


# ------------------------------------------------- the benchmark's call sites


def test_benchmark_tracer_finds_every_call_site_it_patches(tmp_path):
    """perfbench/tracing.py patches bel functions by module and name; a
    refactor that unbinds one of those names must fail here, not only in the
    benchmark's traced pass.  A small theorem run shows the monitors are
    reached through the names it patches."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = scenarios.ModelManifold.drift
    with tracing.installed(tracing.Recorder()) as recorder:
        _run("scenario = log-bubble\nb = 0.125\n", tmp_path)
        _run("scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\nnodes = 256\n",
             tmp_path)
    assert recorder.counts["radial_core.eval.calls"] > 0
    assert recorder.counts["scenarios.runner.calls"] == 2
    for monitor in ("pohozaev_trace", "pohozaev_slope_factor", "energy"):
        assert recorder.counts[f"lane_emden.{monitor}.calls"] >= 1, monitor
    assert scenarios.ModelManifold.drift is original
