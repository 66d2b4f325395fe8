"""Span recorder and work counters for the traced pass.

Spans are recorded around the public functions of each bel layer, as the
calling module sees them: ``bel.scenarios.build_example`` and
``bel.construction.solve_radial`` are patched separately because each module
bound its own name at import time.  Patches exist only inside
``installed(recorder)``; nothing under ``src/`` is changed.

A span is (name, start, end, parent, run id).  The layer of a span is the
part of its name before the first dot.  Self time is a span's duration
minus the durations of its direct children; busy time of a name counts only
spans that have no enclosing span of the same name, so recursive quadrature
(an antiderivative whose integrand calls another antiderivative) is not
counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import functools
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

_clock = time.perf_counter


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, run id, nested-in-same-name]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.run_id: Optional[str] = None
        self._stack: List[int] = []
        self._active: Counter = Counter()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent, self.run_id, self._active[name] > 0])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = _clock()
        self._stack.pop()
        self._active[span[0]] -= 1

    # -- aggregation ---------------------------------------------------------

    def times(self) -> Dict[str, float]:
        """Busy and self seconds per span name, plus self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            own = (end - start) - child[i]
            out[name + ".self_s"] += own
            out[name.split(".", 1)[0] + ".self_s"] += own
            if not nested:
                out[name + ".s"] += end - start
        return dict(out)

    def write_spans(self, path) -> None:
        """Write the spans as CSV: name,start,end,parent,run (times in s)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            for i, (name, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{run}\n")


# ------------------------------------------------------------------ counters


def _size(value) -> int:
    return int(np.size(value))


def _count_points(counter: str, arg: int) -> Callable:
    def count(counts, args, kwargs, result):
        counts[counter] += _size(args[arg])
    return count


def _count_quad_build(counts, args, kwargs, result):
    nodes = args[1]
    refine = args[2] if len(args) > 2 else kwargs.get("refine", 4)
    counts["radial_core.quad.builds"] += 1
    counts["radial_core.quad.points"] += (_size(nodes) - 1) * refine * 5


def _count_ivp(counts, args, kwargs, result):
    counts["lane_emden.nfev"] += int(result.nfev)
    counts["lane_emden.steps"] += int(result.t.size) - 1


def _count_shot(counts, args, kwargs, result):
    counts["lane_emden.shots"] += 1


def _count_report(counts, args, kwargs, result):
    # the elapsed-time value varies in length from run to run; leave it out
    # so that the count repeats exactly
    timing = len(repr(args[0]["timings"]["elapsed_s"]))
    counts["scenarios.bytes_written"] += os.path.getsize(args[1]) - timing


def _count_profiles(counts, args, kwargs, result):
    path = args[1]
    if os.path.exists(path):
        counts["scenarios.bytes_written"] += os.path.getsize(path)
        counts["scenarios.profile_rows"] += max(_size(v) for v in args[0].values())


def _wrap(recorder: Recorder, name: str, fn: Callable, count: Optional[Callable] = None):
    calls = name + ".calls"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        recorder.counts[calls] += 1
        if count is not None:
            count(recorder.counts, args, kwargs, result)
        return result

    return traced


def _wrap_indefinite(recorder: Recorder, fn: Callable):
    """indefinite_gauss: the build is a span, and so is every later call of
    the returned antiderivative (5 integrand points per radius)."""
    build = _wrap(recorder, "radial_core.quad", fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        antiderivative = build(*args, **kwargs)
        evaluate = _wrap(recorder, "radial_core.quad", antiderivative,
                         lambda counts, a, k, r: counts.update(
                             {"radial_core.quad.points": 5 * _size(a[0])}))
        evaluate.nodes = antiderivative.nodes
        evaluate.nodal_values = antiderivative.nodal_values
        return evaluate

    return traced


# ----------------------------------------------------------------- patching

# (module, attribute, span name, counter) for module-level functions.
_FUNCTIONS = [
    ("bel.radial_core", "cumulative_gauss", "radial_core.quad", _count_quad_build),
    ("bel.geometry", "cumulative_gauss", "radial_core.quad", _count_quad_build),
    ("bel.geometry", "ric_infinity_components", "geometry.curvature", None),
    ("bel.construction", "weight_from_warping", "geometry.weight_from_warping", None),
    ("bel.construction", "comparison_report", "geometry.comparison_report", None),
    ("bel.construction", "ric_infinity_components", "geometry.curvature", None),
    ("bel.construction", "warping_slope_energy", "geometry.warping_slope_energy", None),
    ("bel.construction", "solve_radial", "lane_emden.solve_radial", _count_shot),
    ("bel.construction", "pohozaev_slope_factor", "lane_emden.pohozaev_slope_factor", None),
    ("bel.construction", "asymptotic_bound_check", "lane_emden.asymptotic_bound_check", None),
    ("bel.construction", "finite_difference", "radial_core.finite_difference", None),
    ("bel.lane_emden", "solve_ivp", "lane_emden.solve_ivp", _count_ivp),
    ("bel.lane_emden", "ric_infinity_components", "geometry.curvature", None),
    ("bel.lane_emden", "energy", "lane_emden.energy", None),
    ("bel.lane_emden", "pohozaev", "lane_emden.pohozaev", None),
    ("bel.lane_emden", "pohozaev_slope_factor", "lane_emden.pohozaev_slope_factor", None),
    ("bel.pfunction", "euclidean", "geometry.model_build", None),
    ("bel.pfunction", "ric_infinity_components", "geometry.curvature", None),
    ("bel.pfunction", "ric_n_radial", "geometry.curvature", None),
    ("bel.pfunction", "weighted_laplacian_radial", "geometry.weighted_laplacian", None),
    ("bel.pfunction", "finite_difference", "radial_core.finite_difference", None),
    ("bel.pfunction", "k_functional", "pfunction.k_functional", None),
    ("bel.scenarios", "build_example", "construction.build_example", None),
    ("bel.scenarios", "verify_theorem", "construction.verify_theorem", None),
    ("bel.scenarios", "euclidean", "geometry.model_build", None),
    ("bel.scenarios", "power_weight", "geometry.model_build", None),
    ("bel.scenarios", "log_tail_weight", "geometry.model_build", None),
    ("bel.scenarios", "curvature_report", "geometry.curvature", None),
    ("bel.scenarios", "ric_infinity_components", "geometry.curvature", None),
    ("bel.scenarios", "comparison_report", "geometry.comparison_report", None),
    ("bel.scenarios", "laplacian_of_distance", "geometry.laplacian_of_distance", None),
    ("bel.scenarios", "solve_radial", "lane_emden.solve_radial", _count_shot),
    ("bel.scenarios", "energy", "lane_emden.energy", None),
    ("bel.scenarios", "pohozaev", "lane_emden.pohozaev", None),
    ("bel.scenarios", "pohozaev_trace", "lane_emden.pohozaev_trace", None),
    ("bel.scenarios", "bubble", "pfunction.bubble", None),
    ("bel.scenarios", "log_bubble", "pfunction.bubble", None),
    ("bel.scenarios", "v_transform", "pfunction.v_transform", None),
    ("bel.scenarios", "k_functional", "pfunction.k_functional", None),
    ("bel.scenarios", "divergence_identity_residual", "pfunction.divergence_identity_residual", None),
    ("bel.scenarios", "integral_estimate_ratio", "pfunction.integral_estimate_ratio", None),
    ("bel.scenarios", "cheng_yau_ratio", "pfunction.cheng_yau_ratio", None),
    ("bel.scenarios", "superharmonic_floor_check", "pfunction.superharmonic_floor_check", None),
    ("bel.scenarios", "emit_profiles", "scenarios.emit_profiles", _count_profiles),
    ("bel.scenarios", "write_report", "scenarios.write_report", _count_report),
]

# Modules whose own name ``indefinite_gauss`` is patched to trace the build
# and the returned antiderivative.
_INDEFINITE = ("bel.geometry", "bel.construction", "bel.lane_emden", "bel.pfunction")


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every traced call site for the duration of the block."""
    import bel.scenarios as scenarios
    from bel.geometry import ModelManifold
    from bel.radial_core import RadialFunction

    runners = scenarios._RUNNERS
    original_runners = dict(runners)
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, name, count in _FUNCTIONS:
            module = importlib.import_module(module_name)
            patch(module, attr, _wrap(recorder, name, getattr(module, attr), count))
        for module_name in _INDEFINITE:
            module = importlib.import_module(module_name)
            patch(module, "indefinite_gauss", _wrap_indefinite(recorder, module.indefinite_gauss))
        patch(ModelManifold, "drift", _wrap(recorder, "geometry.drift", ModelManifold.drift,
                                            _count_points("geometry.drift.points", 1)))
        patch(ModelManifold, "cumulative_area",
              _wrap(recorder, "geometry.cumulative_area", ModelManifold.cumulative_area))
        patch(RadialFunction, "__call__",
              _wrap(recorder, "radial_core.eval", RadialFunction.__call__,
                    _count_points("radial_core.eval.points", 1)))
        for key, fn in original_runners.items():
            runners[key] = _wrap(recorder, "scenarios.runner", fn)
        yield recorder
    finally:
        runners.update(original_runners)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
