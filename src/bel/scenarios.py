"""Declarative verification scenarios and their artifact plumbing.

A scenario config is a flat ``key = value`` text file; comma-separated
values are sweeps and expand to the cartesian product of runs.  Each run
executes a named bundle of checks, writes ``report.json`` (schema 1) and a
``profiles.csv`` with the radial quantities that scenario produces, and
the whole thing is deterministic: identical configs give byte-identical
reports apart from the timings block.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ._g17 import format_rows
from .construction import DEFAULT_GRID, SOLVE, Check, build_example, verify_theorem
from .errors import ArtifactIOError, BelError, BlowupError, ConfigParseError
from .geometry import (
    ModelManifold,
    comparison_report,
    curvature_report,
    euclidean,
    laplacian_of_distance,
    log_tail_weight,
    power_weight,
    weighted_volume,
)
from .lane_emden import _nonlinearity, energy, pohozaev_trace, solve_radial
from .pfunction import (
    bubble,
    cheng_yau_ratio,
    divergence_identity_residual,
    integral_estimate_ratio,
    k_functional,
    log_bubble,
    superharmonic_floor_check,
    v_transform,
)
from .radial_core import MIN_NODES, RadialFunction, covers, make_grid

# Unused here (P comes from pohozaev_trace, curvature from curvature_report),
# but kept bound on this module: perfbench/tracing.py instruments
# ``bel.scenarios.pohozaev`` and ``.ric_infinity_components``.
from .geometry import ric_infinity_components  # noqa: E402,F401
from .lane_emden import pohozaev  # noqa: E402,F401

SCHEMA_VERSION = 1

PROFILE_COLUMNS = (
    "r",
    "u",
    "u_prime",
    "v",
    "P",
    "ric_r",
    "ric_theta",
    "K",
    "pohozaev",
    "energy",
)


# ------------------------------------------------------------- configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed config: scenario name plus raw parameters, a swept one as a list."""

    scenario: str
    params: Dict[str, object]
    out_dir: Optional[str] = None
    tol: Optional[float] = None


@dataclass(frozen=True)
class RunSpec:
    """One concrete run: ``params`` as parsed (the report echoes them), a slug,
    and the runner's keyword ``values``: every key typed, defaults filled in,
    the grid keys in ``grid``, the ``make_grid`` arguments."""

    scenario: str
    params: Dict[str, object]
    slug: str
    tol: float
    values: Dict[str, object]


@dataclass(frozen=True)
class Interval:
    """The numbers from ``lo`` to ``hi``, ends in or out as ``ends`` brackets them."""

    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "()"

    def __contains__(self, x) -> bool:
        return ((self.lo < x or self.ends[0] == "[" and x == self.lo)
                and (x < self.hi or self.ends[1] == "]" and x == self.hi))

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


@dataclass(frozen=True)
class Param:
    """A config key: its kind (``int``, ``float`` or ``str``), its domain (an
    ``Interval`` or a set of choices), its default (``None``: required) and,
    for a key that only one choice of another key reads, that ``(key,
    choice)`` pair (``read_with``)."""

    kind: type
    domain: object
    default: object = None
    read_with: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        if isinstance(self.domain, Interval):
            return f"{'an integer' if self.kind is int else 'a number'} in {self.domain}"
        return "one of " + ", ".join(sorted(self.domain))

    def typed(self, key: str, value):
        """``value`` as ``kind``; ``config-parse-error`` unless it is one inside the
        domain (an integral number is an integer; parsed text reads as no number)."""
        try:
            typed = self.kind(value)
            ok = (self.kind is float or typed == value) and typed in self.domain
        except (ValueError, OverflowError):  # text, int(nan), int(inf), float(10**400)
            ok = False
        if not ok:
            raise ConfigParseError(f"{key} must be {self}, got {value!r}")
        return typed


#: The solver and check tolerance ``tol``: the config key or ``--tol``.
TOL = Param(float, Interval(0.0), 1e-10)


@dataclass(frozen=True)
class Scenario:
    """A scenario: what it checks, its runner, its default ``make_grid``
    arguments (``None`` where the profiles bring their own grid), its keys
    (``tol``, which every scenario takes, is :data:`TOL`)."""

    description: str
    runner: Callable[..., Tuple[List[Check], Dict[str, np.ndarray]]]
    grid: Optional[Tuple[float, float, int, str]]
    params: Dict[str, Param]

    @property
    def keys(self) -> Dict[str, Param]:
        """``params``, plus ``r_max``, ``nodes`` and ``spacing`` where there is a grid."""
        if self.grid is None:
            return self.params
        r_min, r_max, nodes, spacing = self.grid
        return {**self.params, "r_max": Param(float, Interval(r_min), r_max),
                "nodes": Param(int, Interval(MIN_NODES, ends="[)"), nodes),
                "spacing": Param(str, {"uniform", "geometric"}, spacing)}


def _parse_scalar(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)  # handles "inf" and scientific notation
    except ValueError:
        return token


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse the flat key=value format, rejecting unknown keys with a line."""
    entries: Dict[str, object] = {}
    line_of: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigParseError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigParseError(f"{source}:{lineno}: duplicate key {key!r}")
        points = [_parse_scalar(v) for v in value.split(",")]
        entries[key] = points if len(points) > 1 else points[0]
        line_of[key] = lineno

    for key in ("scenario", "out_dir", "tol"):
        if isinstance(entries.get(key), list):
            raise ConfigParseError(f"{source}:{line_of[key]}: {key} takes one value, not a sweep")
    scenario = entries.pop("scenario", None)
    if scenario is None:
        raise ConfigParseError(f"{source}: missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigParseError(f"{source}: unknown scenario {scenario!r}; see list-scenarios")
    keys = SCENARIOS[scenario].keys
    for key in entries:
        if key not in keys and key not in ("out_dir", "tol"):
            raise ConfigParseError(f"{source}: unknown key {key!r} for scenario {scenario} "
                                   f"(line {line_of[key]})")
    missing = {key for key, param in keys.items() if param.default is None} - set(entries)
    if missing:
        raise ConfigParseError(f"{source}: scenario {scenario} needs keys {sorted(missing)}")
    out_dir = entries.pop("out_dir", None)
    tol = entries.pop("tol", None)
    if isinstance(out_dir, (int, float)):
        raise ConfigParseError(f"{source}: out_dir must be a path string")
    if tol is not None and not isinstance(tol, (int, float)):
        raise ConfigParseError(f"{source}: tol must be a number, got {tol!r}")
    return ScenarioConfig(
        scenario=scenario,
        params=entries,
        out_dir=out_dir,
        tol=None if tol is None else float(tol),
    )


def load_config(path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


def expand_runs(config: ScenarioConfig, tol: Optional[float] = None) -> List[RunSpec]:
    """Expand comma sweeps into the cartesian product of concrete runs.

    Every point is checked before any run is returned: a value that is not
    of its key's kind and domain, a key set where the choice it is read with
    is not made, a ``tol`` (``tol`` here, else the config's) outside
    :data:`TOL`, or two points with one slug (and so one run directory) is a
    ``config-parse-error``.
    """
    record = SCENARIOS[config.scenario]
    keys = record.keys
    swept = [key for key, value in config.params.items() if isinstance(value, list)]
    runs: List[RunSpec] = []
    slugs = set()
    run_tol = TOL.typed("tol", tol if tol is not None else
                        config.tol if config.tol is not None else TOL.default)
    for combo in itertools.product(*(config.params[k] for k in swept)):
        params = {**config.params, **dict(zip(swept, combo))}
        values = {key: param.default for key, param in keys.items()}
        values.update((key, keys[key].typed(key, value)) for key, value in params.items())
        for key in params:
            if keys[key].read_with is not None:
                other, choice = keys[key].read_with
                if values[other] != choice:
                    raise ConfigParseError(f"{key} is read only with {other} = {choice}, "
                                           f"not with {other} = {values[other]}")
        if record.grid is not None:
            values["grid"] = (record.grid[0], *map(values.pop, ("r_max", "nodes", "spacing")))
        slug = "-".join([config.scenario] + [f"{k}{v:g}" if isinstance(v, (int, float))
                                             else f"{k}{v}" for k, v in zip(swept, combo)])
        if slug in slugs:
            raise ConfigParseError(f"two sweep points share the run directory {slug!r}: a value "
                                   "is repeated, or two differ only past 6 significant digits")
        slugs.add(slug)
        runs.append(RunSpec(config.scenario, params, slug, run_tol, values))
    return runs


# ------------------------------------------------------------------ checks


def _cheng_yau_check(prof, n: float, radii: np.ndarray) -> Check:
    """Cheng-Yau gradient ratio over the ``radii`` R with B_2R inside the shot,
    bounded by ten times its first value (floored at 1e-3).  It fails, saying
    why, when no B_2R fits inside the shot or when ``u'`` vanishes at every
    positive node of the largest ball: a positive solution has ``u' < 0``
    for ``r > 0``, so a zero ratio there measures an underflowed profile,
    not a bounded one."""
    reference = "sup |u'/u|^2 <= C (1/R^2 + sup u^{4/(n-2)})"
    radii = radii[covers(prof.r_end, 2.0 * radii)]
    if not radii.size:
        return Check("cheng-yau-bounded", reference, reason="B_2R leaves the shot at every R")
    sweep = np.array([cheng_yau_ratio(prof, n, R) for R in radii])
    nodes = prof.manifold.grid.nodes
    underflowed = not np.any(prof.u_prime.values[(nodes > 0.0) & (nodes <= radii[-1])])
    return Check("cheng-yau-bounded", reference, np.max(sweep), 10.0 * max(sweep[0], 1e-3),
                 reason="u' = 0 at every positive node of B_R" if underflowed else "")


@functools.lru_cache(maxsize=1)
def _warped_example(d: int, alpha: float, grid_args: tuple) -> ModelManifold:
    """``build_example`` on ``make_grid(*grid_args)``, kept for the next run.

    ``expand_runs`` makes the sweep points of one config consecutive, so one
    slot lets every ``(p, ell)`` point share the manifold, its theorem check
    record and its quadrature caches.  The key holds the grid's arguments because ``RadialGrid``
    compares by identity.  ``build_example`` is looked up as a module global
    at each miss, so a patched name is what gets called.
    """
    return build_example(d, alpha, grid=make_grid(*grid_args))


def _shot_columns(prof, **extra: RadialFunction) -> Dict[str, np.ndarray]:
    """The ``r``, ``u`` and ``u_prime`` columns, and one column per grid
    function of ``extra``, at the positive nodes in the shot's range, read
    from the node values they store."""
    nodes = prof.manifold.grid.nodes
    keep = (nodes > 0.0) & prof.in_range
    functions = {"u": prof.u, "u_prime": prof.u_prime, **extra}
    return {"r": nodes[keep], **{name: f.values[keep] for name, f in functions.items()}}


def _radial_shot(M: ModelManifold, p, ell, tol):
    """The shot over ``M``'s grid, no checks yet, and its shot columns with
    ``energy``; if it blows up, ``None``, one ``solve`` check that fails with
    the solver's error, and no columns.  Any other solver error propagates."""
    try:
        prof = solve_radial(M, p=p, ell=ell, tol=tol)
    except BlowupError as exc:
        return None, [Check("solve", SOLVE, reason=f"{type(exc).__name__}: {exc}")], {}
    columns = _shot_columns(prof)
    columns["energy"] = energy(prof.p, columns["u"], columns["u_prime"])
    return prof, [], columns


def _scenario_euclidean(spec: RunSpec, d, grid):
    M = euclidean(d, make_grid(*grid))
    curv = curvature_report(M)
    worst_ric = max(np.max(np.abs(curv.ric_r)), np.max(np.abs(curv.ric_theta)))
    r = curv.r
    lr_defect = np.max(np.abs(laplacian_of_distance(M, r) * r - (d - 1)))
    checks = [
        Check("ricci-vanishes", "Ric^r = -(d-1) psi''/psi + f''; psi = r, f = 0",
              worst_ric, 1e-10),
        Check("distance-laplacian", "L r = (d-1)/r on flat space", lr_defect, 1e-12),
    ]
    if d == 3:
        vol = weighted_volume(M, 1.0)
        err = abs(vol - 4.0 * math.pi / 3.0)
        checks.append(Check("unit-ball-volume", "mu(B_1) = 4 pi / 3", err, 1e-6))
    columns = {"r": r, "ric_r": curv.ric_r, "ric_theta": curv.ric_theta}
    return checks, columns


def _bubble_common(prof, data, target_P: float, label: str):
    """The checks and profile columns that bubble and log-bubble share."""
    M = prof.manifold
    nodes = M.grid.nodes
    inside = (nodes > 0.0) & (nodes <= 50.0)
    window = nodes[inside]
    u2 = prof.u(window, 2)
    drift = M.drift(window)
    nonlin = _nonlinearity(prof.p)(prof.u.values[inside])
    residual = float(np.max(np.abs(u2 + drift * prof.u_prime.values[inside] + nonlin)))
    p_dev = float(np.max(np.abs(data.P.values[inside] - target_P)))
    k_sup = float(np.max(np.abs(k_functional(data, window))))
    checks = [
        Check(f"{label}-pde-residual", "-u'' - L r u' = nonlinearity(u)", residual, 1e-8),
        Check(f"{label}-p-constant", "P = ((m/2) v'^2 + c_m) / v is constant", p_dev, 1e-8),
        Check(f"{label}-k-vanishes", "k = |Hess v|^2 - P^2/m + Ric(v',v') = 0", k_sup, 1e-8),
    ]
    return checks, _shot_columns(prof, v=data.v, P=data.P)


def _scenario_bubble(spec: RunSpec, d, b):
    prof = bubble(d, b)
    data = v_transform(prof, n=float(d))
    checks, columns = _bubble_common(prof, data, 2.0 * b * d, "bubble")
    res = divergence_identity_residual(data)
    div_sup = float(np.nanmax(res.values))
    checks.append(Check("divergence-identity", "m v^{1-m} k = div_f(v^{2-m} P')", div_sup, 1e-10))
    floor = superharmonic_floor_check(prof, float(d), 2.0)
    checks.append(Check("superharmonic-floor", "u >= A r^{2-kappa} for r >= R, kappa = d",
                        np.min(floor.values / floor.floor), 1.0 - 1e-12, ">="))
    columns.update(pohozaev_trace(prof))
    return checks, columns


def _scenario_log_bubble(spec: RunSpec, b):
    prof = log_bubble(b)
    data = v_transform(prof)
    return _bubble_common(prof, data, 4.0 * b, "log-bubble")


def _scenario_theorem(spec: RunSpec, d, alpha, p, ell, grid):
    M = _warped_example(d, alpha, grid)
    report = verify_theorem(M, p, ell, tol=spec.tol)
    checks = list(report.checks)
    if report.profile is not None and report.profile.global_positive:
        checks.append(_cheng_yau_check(report.profile, float(d), np.geomspace(1.0, 100.0, 13)))
    columns: Dict[str, np.ndarray] = {}
    if report.profile is not None:
        prof = report.profile
        extra = {}
        if prof.global_positive:
            data = v_transform(prof)
            extra = {"v": data.v, "P": data.P}
        columns = _shot_columns(prof, **extra)
        if not np.all(np.isfinite(columns.get("v", 0.0))):  # u^{-(p-1)/2} overflows on a tiny u
            del columns["v"], columns["P"]
        n = columns["r"].size
        # verify_theorem sampled these on every positive node; r is a prefix
        columns.update(ric_r=report.ric_r[:n], ric_theta=report.ric_theta[:n],
                       K=report.slope_factor[:n], **pohozaev_trace(prof))
    return checks, columns


def _scenario_soliton(spec: RunSpec, d, p, ell, grid):
    M = power_weight(d, make_grid(*grid), 1.0, 2.0)
    prof, checks, columns = _radial_shot(M, p, ell, spec.tol)
    if prof is None:
        return checks, columns
    checks.append(Check("zero-crossing", "finite weighted volume forbids positive solutions",
                        prof.r_star, reason="" if prof.crossed else prof.status))
    vol_hi = weighted_volume(M, M.grid.r_max)
    vol_lo = weighted_volume(M, M.grid.r_max / 2.0)
    checks.append(Check("weighted-volume-finite", "mu(M) = |S^{d-1}| int e^{-r^2} r^{d-1} < inf",
                        abs(vol_hi - vol_lo), 1e-8 * vol_hi))
    return checks, columns


#: Ball radii R of the volume-ratio check of ``example-2-parabolicity``.
_VOLUME_RADII = np.geomspace(10.0, 1e3, 25)


@functools.lru_cache(maxsize=1)
def _log_tail_example(d: int, beta: float, grid_args: tuple):
    """What an ``example-2-parabolicity`` run computes without ``p``, kept for
    the next run: the tail-integrability check, ``mu(B_R)`` at
    ``_VOLUME_RADII`` and the curvature columns of the log-tail manifold."""
    M = log_tail_weight(d, make_grid(*grid_args), beta=beta)
    volumes = weighted_volume(M, _VOLUME_RADII)
    comp = comparison_report(M)
    tail = Check("tail-integrable", "int^inf dr / (e^{-f} psi^{d-1}) < inf", comp.tail_exponent,
                 -1.0, "<", "the tail fit is parabolic" if comp.parabolic else "")
    curv = curvature_report(M)
    return tail, volumes, {"r": curv.r, "ric_r": curv.ric_r, "ric_theta": curv.ric_theta}


def _scenario_parabolicity(spec: RunSpec, d, beta, p, grid):
    tail, volumes, columns = _log_tail_example(d, beta, grid)
    exponent = 2.0 * p / (p - 1.0)
    increments = np.diff(volumes / _VOLUME_RADII**exponent)
    checks = [
        tail,
        Check("volume-ratio-decreasing", "mu(B_R) / R^{2p/(p-1)} decreasing on [10, 1000]",
              np.max(increments), 0.0),
    ]
    return checks, dict(columns)


#: Ball radii R of the integral estimates and the Cheng-Yau check of
#: ``estimates-sweep``.
_ESTIMATE_RADII = np.geomspace(1.0, 100.0, 25)


@functools.lru_cache(maxsize=1)
def _bubble_estimate_data(d: int, b: float):
    """What an ``estimates-sweep`` run computes without ``q``, kept for the
    next run: the bubble's v-transform, its Cheng-Yau check and the ``r``,
    ``v`` and ``P`` columns."""
    prof = bubble(d, b)
    data = v_transform(prof)
    nodes = data.manifold.grid.nodes
    keep = nodes > 0.0
    columns = {"r": nodes[keep], "v": data.v.values[keep], "P": data.P.values[keep]}
    return data, _cheng_yau_check(prof, float(d), _ESTIMATE_RADII), columns


def _scenario_estimates(spec: RunSpec, d, b, q):
    data, cheng_yau, columns = _bubble_estimate_data(d, b)
    ratios = []
    for R in _ESTIMATE_RADII:  # one radius per call: an array R moves lhs by an ulp
        lhs, bound = integral_estimate_ratio(data, q, R)
        ratios.append(lhs / bound)
    ratios = np.asarray(ratios)
    checks = [
        Check(f"integral-ratio-bounded-q{q:g}", "int_{B_R} v^{-q}(...) dmu <= C mu(B_2R) R^{-q}",
              np.max(ratios), 10.0 * ratios[0]),
        cheng_yau,
    ]
    return checks, dict(columns)


def _scenario_custom(spec: RunSpec, d, p, ell, weight, coeff, power, beta, grid):
    if weight == "power":
        M = power_weight(d, make_grid(*grid), coeff, power)
    elif weight == "log-tail":
        M = log_tail_weight(d, make_grid(*grid), beta=beta)
    else:
        M = euclidean(d, make_grid(*grid))
    prof, checks, columns = _radial_shot(M, p, ell, spec.tol)
    if prof is None:
        return checks, columns
    # a truncated shot never reached r_max, so E is not checked past r_end
    reason = prof.status if prof.status.startswith("truncated") else ""
    checks.append(Check("solve", SOLVE, prof.r_end, reason=reason))
    E, rise = columns["energy"], None
    infinite = ~np.isfinite(E)  # u'^2 or u^{p+1} past the float range
    if np.any(infinite):
        reason = reason or f"E is first not finite at r = {columns['r'][np.argmax(infinite)]:.12g}"
    elif E.size > 1:
        rise = np.max(np.diff(E) / (1e-8 * (1.0 + np.abs(E[:-1]))))
    else:  # the shot ended before a second positive node
        reason = reason or f"the shot's range [0, {prof.r_end:.12g}] holds {E.size} positive nodes"
    checks.append(Check("energy-decreasing", "E' = -(L r) u'^2 <= 0", rise, 1.0, reason=reason))
    return checks, columns


_DIM2, _DIM3 = Param(int, Interval(2, ends="[)")), Param(int, Interval(3, ends="[)"))
_POSITIVE, _P = Param(float, Interval(0.0)), Param(float, Interval(1.0))

SCENARIOS: Dict[str, Scenario] = {
    "euclidean-sanity": Scenario("flat-space curvature, distance Laplacian and ball volume",
                                 _scenario_euclidean, (1e-3, 10.0, 1025, "uniform"), {"d": _DIM2}),
    "bubble": Scenario("critical-power bubble: PDE residual, P constancy, k = 0",
                       _scenario_bubble, None, {"d": _DIM3, "b": _POSITIVE}),
    "log-bubble": Scenario("planar exponential-nonlinearity bubble checks",
                           _scenario_log_bubble, None, {"b": _POSITIVE}),
    "theorem-2-2": Scenario(
        "warped example with decreasing weight: full rigidity-failure property suite",
        _scenario_theorem, DEFAULT_GRID,
        {"d": _DIM3, "alpha": Param(float, Interval(0.0, 1.0)), "p": _P, "ell": _POSITIVE}),
    "soliton-liouville": Scenario(
        "Gaussian-type weight: every radial shot crosses zero (non-existence witness)",
        _scenario_soliton, (1e-3, 12.0, 1025, "geometric"), {"d": _DIM2, "p": _P, "ell": _POSITIVE}),
    "example-2-parabolicity": Scenario(
        "logarithmic-tail weight: tail integral converges, volume ratio decreases",
        _scenario_parabolicity, (1e-3, 1e3, 2049, "geometric"),
        {"d": _DIM2, "beta": Param(float, Interval()), "p": _P}),
    "estimates-sweep": Scenario(
        "weighted ball estimates stay bounded over R", _scenario_estimates, None,
        {"d": _DIM3, "b": _POSITIVE, "q": Param(float, Interval(0.0, ends="[)"))}),
    "custom": Scenario(
        "free-form radial solve with generic sanity checks", _scenario_custom,
        (1e-3, 100.0, 1025, "geometric"),
        {"d": _DIM2, "p": _P, "ell": _POSITIVE,
         "weight": Param(str, {"none", "power", "log-tail"}, "none"),
         "coeff": Param(float, Interval(), 1.0, ("weight", "power")),
         "power": Param(float, Interval(1.0), 2.0, ("weight", "power")),
         "beta": Param(float, Interval(), 2.0, ("weight", "log-tail"))}),
}

#: What ``execute_run`` calls: a dict of its own, whose runners perfbench/tracing.py wraps.
_RUNNERS: Dict[str, Callable] = {name: record.runner for name, record in SCENARIOS.items()}


# ---------------------------------------------------------------- artifacts


@functools.lru_cache(maxsize=1)
def _profile_text(names: Tuple[str, ...], *columns: bytes) -> str:
    """The CSV text of ``emit_profiles``, kept for the next call: sweep points
    that share their columns bit for bit (float64 bytes, so ``-0.0`` and
    ``0.0`` or two NaN payloads are different keys) share the text.  The rows
    are the bytes of ``"%.17g,...,%.17g\\n" % row`` (``_g17.format_rows``)."""
    table = np.column_stack([np.frombuffer(column) for column in columns])
    return ",".join(names) + "\n" + format_rows(table)


def emit_profiles(columns: Dict[str, np.ndarray], path) -> None:
    """Write radial profiles as CSV: canonical column order, 17 significant
    digits (round-trip exact), LF line endings, empty columns omitted."""
    ordered = [c for c in PROFILE_COLUMNS if c in columns and np.size(columns[c])]
    if not ordered:
        return
    length = {np.size(columns[c]) for c in ordered}
    if len(length) != 1:
        raise ArtifactIOError(f"profile columns have mismatched lengths: {sorted(length)}")
    text = _profile_text(tuple(ordered),
                         *(np.asarray(columns[c], dtype=float).tobytes() for c in ordered))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def write_report(report: dict, path) -> None:
    """Write strict JSON: a non-finite float must already be a string
    (``_json_safe``), or ``ValueError`` is raised."""
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def _json_safe(value):
    """A non-finite float as its repr ("nan", "inf", "-inf"), else unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def execute_run(spec: RunSpec, out_root) -> dict:
    """Run one concrete scenario, write its artifacts, return the report; a
    coded error of the run is recorded in it (``error``, no checks), not raised."""
    runner = _RUNNERS[spec.scenario]
    start = time.perf_counter()
    error = None
    try:
        checks, columns = runner(spec, **spec.values)
    except BelError as exc:
        checks, columns, error = (), {}, {"code": exc.code, "message": str(exc)}
    elapsed = time.perf_counter() - start
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.scenario,
        "config": {k: _json_safe(v) for k, v in sorted(spec.params.items())},
        "tol": _json_safe(spec.tol),
        "checks": [{k: _json_safe(v) for k, v in c.as_dict().items()} for c in checks],
        "passed": error is None and all(c.verdict for c in checks),
        **({} if error is None else {"error": error}),
        "timings": {"elapsed_s": elapsed},
    }
    run_dir = Path(out_root) / spec.slug
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArtifactIOError(f"cannot create {run_dir}: {exc}") from exc
    write_report(report, run_dir / "report.json")
    emit_profiles(columns, run_dir / "profiles.csv")
    return report


def run_scenario(config: ScenarioConfig, out_dir) -> List[dict]:
    """Expand a config and execute every run serially; returns the reports."""
    return [execute_run(spec, out_dir) for spec in expand_runs(config)]
