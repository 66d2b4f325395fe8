"""Deterministic work counters for the warped theorem.

Wall time is not gated (it is noisy on shared hosts); the number of
quadrature integrand points is exact and repeats from run to run, so it is.
"""

import importlib

import numpy as np
import pytest

import bel.radial_core as radial_core
from bel.construction import build_example, verify_theorem

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
