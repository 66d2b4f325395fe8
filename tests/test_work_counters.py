"""Deterministic work counters for the warped theorem.

Wall time is not gated (it is noisy on shared hosts); the number of
quadrature integrand points is exact and repeats from run to run, so it is.
"""

import importlib
import json

import numpy as np
import pytest

import bel.radial_core as radial_core
from bel import scenarios
from bel.construction import build_example, verify_theorem
from bel.scenarios import execute_run, expand_runs, parse_config

#: Integrand points of build_example(3, 0.5) + verify_theorem(M, 5, 1) on the
#: default grid, recorded with the closed-form flux of the warped weight.  The
#: nested quadrature it replaced (f' itself an antiderivative) used 8_981_240.
RECORDED_POINTS = 1_336_535

_MODULES = ("bel.radial_core", "bel.geometry", "bel.construction", "bel.lane_emden", "bel.pfunction")


class QuadratureCounter:
    """Counts calls and integrand points of every Gauss-Legendre quadrature."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def _counting(self, fn):
        if getattr(fn, "counted", False):  # indefinite_gauss -> cumulative_gauss
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


@pytest.fixture
def counter(monkeypatch):
    """Wrap cumulative_gauss and indefinite_gauss wherever a bel module binds them."""
    qc = QuadratureCounter()
    originals = {radial_core.cumulative_gauss: qc.wrap(radial_core.cumulative_gauss),
                 radial_core.indefinite_gauss: qc.wrap(radial_core.indefinite_gauss)}
    for name in _MODULES:
        module = importlib.import_module(name)
        for attr in ("cumulative_gauss", "indefinite_gauss"):
            original = getattr(module, attr, None)
            if original in originals:
                monkeypatch.setattr(module, attr, originals[original])
    return qc


def test_warped_theorem_quadrature_points_gated(counter):
    M = build_example(3, 0.5)
    report = verify_theorem(M, 5.0, 1.0)
    assert report.all_ok
    assert counter.calls > 0
    assert counter.points <= RECORDED_POINTS * 1.1, counter.points


def test_warped_weight_slope_needs_no_quadrature(counter):
    M = build_example(3, 0.5)
    counter.calls = counter.points = 0
    r = np.geomspace(1e-6, 1e3, 257)
    M.f_at(r, 1)
    M.f_at(0.5, 1)
    M.f_at(r, 2)
    M.drift(r)
    assert (counter.calls, counter.points) == (0, 0)
    M.f_at(r)  # f itself is one quadrature level over f'
    assert counter.points == 5 * r.size


# ------------------------------------------------------ theorem-2-2 sweeps

#: A 2x2 (p, ell) sweep on one (d, alpha) manifold, on a 1024-node grid.
SWEEP = "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5, 6\nell = 1, 2\nnodes = 1024\n"

#: Integrand points of the whole SWEEP through execute_run: one manifold
#: build with its volume, slope-factor and int psi'^2 antiderivatives, then
#: four runs that reuse them.  Rebuilding the manifold for every sweep point
#: needed 1_567_580.
RECORDED_SWEEP_POINTS = 496_860


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


def test_custom_warped_sweep_builds_one_manifold(builds, tmp_path):
    _run("scenario = custom\nweight = warped\nd = 3\np = 5\nell = 1, 2\n", tmp_path)
    assert len(builds) == 1


@pytest.mark.parametrize("other", ["nodes = 1024\nf0 = 0.25\n", "nodes = 1025\n"])
def test_theorem_run_rebuilds_for_another_manifold(builds, tmp_path, other):
    one = "scenario = theorem-2-2\nd = 3\nalpha = 0.5\np = 5\nell = 1\n"
    _run(one + "nodes = 1024\n", tmp_path)
    _run(one + "nodes = 1024\n", tmp_path)
    assert len(builds) == 1
    _run(one + other, tmp_path)
    assert len(builds) == 2


def test_warm_theorem_run_matches_cold_run(builds, tmp_path):
    """A sweep point run on the manifold an earlier point left behind writes
    the same artifacts as the same point run on a newly built manifold."""
    specs = expand_runs(parse_config(SWEEP))
    execute_run(specs[0], tmp_path / "warm")
    execute_run(specs[-1], tmp_path / "warm")
    scenarios._warped_example.cache_clear()
    execute_run(specs[-1], tmp_path / "cold")
    assert len(builds) == 2
    warm, cold = (tmp_path / side / specs[-1].slug for side in ("warm", "cold"))
    assert (warm / "profiles.csv").read_bytes() == (cold / "profiles.csv").read_bytes()
    reports = [json.loads((run / "report.json").read_text()) for run in (warm, cold)]
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1]
