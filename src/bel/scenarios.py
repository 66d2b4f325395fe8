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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .construction import Check, build_example, default_grid, verify_theorem
from .errors import ArtifactIOError, BelError, ConfigParseError
from .geometry import (
    ModelManifold,
    comparison_report,
    curvature_report,
    euclidean,
    laplacian_of_distance,
    log_tail_weight,
    power_weight,
    ric_infinity_components,
    weighted_volume,
)
from .lane_emden import energy, pohozaev, solve_radial
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
from .radial_core import make_grid

# Unused here since the theorem columns reuse verify_theorem's samples, but
# kept bound on this module: perfbench/tracing.py instruments
# ``bel.scenarios.pohozaev_trace``.
from .lane_emden import pohozaev_trace  # noqa: E402,F401

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
    """Parsed config: scenario name plus raw (possibly swept) parameters."""

    scenario: str
    params: Dict[str, object]
    sweep_keys: Tuple[str, ...]
    out_dir: Optional[str] = None
    tol: Optional[float] = None


@dataclass(frozen=True)
class RunSpec:
    """One concrete run: every parameter a scalar, plus a directory slug."""

    scenario: str
    params: Dict[str, object]
    slug: str
    tol: float


_COMMON_KEYS = {"scenario", "out_dir", "tol", "r_max", "nodes", "spacing"}

# scenario -> (required keys, optional scenario-specific keys, description)
SCENARIOS: Dict[str, Tuple[set, set, str]] = {
    "euclidean-sanity": ({"d"}, set(), "flat-space curvature, distance Laplacian and ball volume"),
    "bubble": ({"d", "b"}, set(), "critical-power bubble: PDE residual, P constancy, k = 0"),
    "log-bubble": ({"b"}, set(), "planar exponential-nonlinearity bubble checks"),
    "theorem-2-2": (
        {"d", "alpha", "p", "ell"},
        {"f0"},
        "warped example with decreasing weight: full rigidity-failure property suite",
    ),
    "soliton-liouville": (
        {"d", "p", "ell"},
        set(),
        "Gaussian-type weight: every radial shot crosses zero (non-existence witness)",
    ),
    "example-2-parabolicity": (
        {"d", "beta", "p"},
        set(),
        "logarithmic-tail weight: tail integral converges, volume ratio decreases",
    ),
    "estimates-sweep": ({"d", "b", "q"}, {"n"}, "weighted ball estimates stay bounded over R"),
    "custom": (
        {"d", "p", "ell"},
        {"weight", "coeff", "power", "beta", "alpha", "n"},
        "free-form radial solve with generic sanity checks",
    ),
}


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
    sweeps: List[str] = []
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
        if "," in value:
            entries[key] = [_parse_scalar(v) for v in value.split(",")]
            sweeps.append(key)
        else:
            entries[key] = _parse_scalar(value)
        line_of[key] = lineno

    scenario = entries.pop("scenario", None)
    if scenario is None:
        raise ConfigParseError(f"{source}: missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigParseError(
            f"{source}: unknown scenario {scenario!r}; see list-scenarios"
        )
    required, optional, _ = SCENARIOS[scenario]
    allowed = required | optional | _COMMON_KEYS
    for key in entries:
        if key not in allowed:
            raise ConfigParseError(
                f"{source}: unknown key {key!r} for scenario {scenario} (line {line_of[key]})"
            )
    missing = required - set(entries)
    if missing:
        raise ConfigParseError(
            f"{source}: scenario {scenario} needs keys {sorted(missing)}"
        )
    out_dir = entries.pop("out_dir", None)
    tol = entries.pop("tol", None)
    if isinstance(out_dir, (int, float)):
        raise ConfigParseError(f"{source}: out_dir must be a path string")
    return ScenarioConfig(
        scenario=scenario,
        params=entries,
        sweep_keys=tuple(k for k in sweeps if k in entries),
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
    """Expand comma sweeps into the cartesian product of concrete runs."""
    swept = [k for k in config.sweep_keys]
    pools = [config.params[k] for k in swept]
    runs: List[RunSpec] = []
    run_tol = tol if tol is not None else (config.tol if config.tol is not None else 1e-10)
    for combo in itertools.product(*pools) if swept else [()]:
        params = dict(config.params)
        for key, value in zip(swept, combo):
            params[key] = value
        slug = config.scenario
        if swept:
            slug += "-" + "-".join(
                f"{k}{v:g}" if isinstance(v, (int, float)) else f"{k}{v}"
                for k, v in zip(swept, combo)
            )
        runs.append(RunSpec(scenario=config.scenario, params=params, slug=slug, tol=run_tol))
    return runs


# ------------------------------------------------------------------ checks


def _cheng_yau_check(prof, n: float, radii) -> Check:
    """Cheng-Yau gradient ratio over ``radii``, bounded by ten times its first
    value (floored at 1e-3)."""
    sweep = [cheng_yau_ratio(prof, n, R) for R in radii]
    bound = 10.0 * max(sweep[0], 1e-3)
    return Check("cheng-yau-bounded", "sup |u'/u|^2 <= C (1/R^2 + sup u^{4/(n-2)})",
                 max(sweep) <= bound, max(sweep), bound)


def _grid_args(params: dict, kind: str, r_min: float, r_max: float, nodes: int) -> tuple:
    """``make_grid`` arguments: the scenario's defaults, overridden by the
    config's ``spacing``, ``r_max`` and ``nodes``."""
    spacing = params.get("spacing", kind)
    if spacing == "geometric" and r_min == 0.0:
        r_min = 1e-3
    return (r_min, float(params.get("r_max", r_max)), int(params.get("nodes", nodes)), spacing)


def _grid_from(params: dict, kind: str, r_min: float, r_max: float, nodes: int):
    return make_grid(*_grid_args(params, kind, r_min, r_max, nodes))


@functools.lru_cache(maxsize=1)
def _warped_example(d: int, alpha: float, f0: float, grid_args: tuple) -> ModelManifold:
    """``build_example`` on ``make_grid(*grid_args)``, kept for the next run.

    ``expand_runs`` makes the sweep points of one config consecutive, so one
    slot lets every ``(p, ell)`` point share the manifold and its quadrature
    caches.  The key holds the grid's arguments because ``RadialGrid``
    compares by identity.  ``build_example`` is looked up as a module global
    at each miss, so a patched name is what gets called.
    """
    return build_example(d, alpha, f0=f0, grid=make_grid(*grid_args))


def _scenario_euclidean(spec: RunSpec):
    d = int(spec.params["d"])
    grid = _grid_from(spec.params, "uniform", 1e-3, 10.0, 1025)
    M = euclidean(d, grid)
    curv = curvature_report(M)
    worst_ric = max(np.max(np.abs(curv.ric_r)), np.max(np.abs(curv.ric_theta)))
    r = curv.r
    lr_defect = np.max(np.abs(np.asarray(laplacian_of_distance(M, r)) * r - (d - 1)))
    checks = [
        Check("ricci-vanishes", "Ric^r = -(d-1) psi''/psi + f''; psi = r, f = 0",
              worst_ric <= 1e-10, worst_ric, 1e-10),
        Check("distance-laplacian", "L r = (d-1)/r on flat space",
              lr_defect <= 1e-12, lr_defect, 1e-12),
    ]
    if d == 3:
        vol = float(weighted_volume(M, 1.0))
        err = abs(vol - 4.0 * math.pi / 3.0)
        checks.append(Check("unit-ball-volume", "mu(B_1) = 4 pi / 3", err <= 1e-6, err, 1e-6))
    columns = {"r": r, "ric_r": curv.ric_r, "ric_theta": curv.ric_theta}
    return checks, columns


def _bubble_common_checks(prof, data, target_P: float, label: str):
    M = prof.manifold
    nodes = M.grid.nodes
    window = nodes[(nodes > 0.0) & (nodes <= 50.0)]
    u2 = np.asarray(prof.u.derivs[1](window))
    drift = np.asarray(M.drift(window))
    if prof.p is None:
        nonlin = np.exp(np.asarray(prof.u(window)))
    else:
        nonlin = np.asarray(prof.u(window)) ** prof.p
    residual = float(np.max(np.abs(u2 + drift * np.asarray(prof.u_prime(window)) + nonlin)))
    p_dev = float(np.max(np.abs(np.asarray(data.P(window)) - target_P)))
    k_sup = float(np.max(np.abs(np.asarray(k_functional(data, window, check_decomposition=False)))))
    return [
        Check(f"{label}-pde-residual", "-u'' - L r u' = nonlinearity(u)",
              residual <= 1e-8, residual, 1e-8),
        Check(f"{label}-p-constant", "P = ((m/2) v'^2 + c_m) / v is constant",
              p_dev <= 1e-8, p_dev, 1e-8),
        Check(f"{label}-k-vanishes", "k = |Hess v|^2 - P^2/m + Ric(v',v') = 0",
              k_sup <= 1e-8, k_sup, 1e-8),
    ]


def _scenario_bubble(spec: RunSpec):
    d = int(spec.params["d"])
    b = float(spec.params["b"])
    prof = bubble(d, b)
    data = v_transform(prof, n=float(d))
    checks = _bubble_common_checks(prof, data, 2.0 * b * d, "bubble")
    res = divergence_identity_residual(data)
    div_sup = float(np.nanmax(res.values[2:-2]))
    checks.append(Check("divergence-identity", "m v^{1-m} k = div_f(v^{2-m} P')",
                        div_sup <= 1e-10, div_sup, 1e-10))
    floor = superharmonic_floor_check(prof, float(d), 2.0)
    checks.append(Check("superharmonic-floor", "u >= A r^{2-kappa} for r >= R, kappa = d",
                        floor.all_hold, float(np.min(floor.values / floor.floor)), 1.0))
    nodes = prof.manifold.grid.nodes
    keep = nodes > 0.0
    r = nodes[keep]
    columns = {
        "r": r,
        "u": np.asarray(prof.u(r)),
        "u_prime": np.asarray(prof.u_prime(r)),
        "v": np.asarray(data.v(r)),
        "P": np.asarray(data.P(r)),
        "pohozaev": np.asarray(pohozaev(prof.manifold, prof, r)),
        "energy": np.asarray(energy(prof, r)),
    }
    return checks, columns


def _scenario_log_bubble(spec: RunSpec):
    b = float(spec.params["b"])
    prof = log_bubble(b)
    data = v_transform(prof)
    checks = _bubble_common_checks(prof, data, 4.0 * b, "log-bubble")
    nodes = prof.manifold.grid.nodes
    keep = nodes > 0.0
    r = nodes[keep]
    columns = {
        "r": r,
        "u": np.asarray(prof.u(r)),
        "u_prime": np.asarray(prof.u_prime(r)),
        "v": np.asarray(data.v(r)),
        "P": np.asarray(data.P(r)),
    }
    return checks, columns


def _scenario_theorem(spec: RunSpec):
    d = int(spec.params["d"])
    alpha = float(spec.params["alpha"])
    p = float(spec.params["p"])
    ell = float(spec.params["ell"])
    f0 = float(spec.params.get("f0", 0.0))
    default = default_grid()
    grid_args = _grid_args(spec.params, "geometric", 1e-3, default.r_max, default.n)
    M = _warped_example(d, alpha, f0, grid_args)
    report = verify_theorem(M, p, ell, tol=spec.tol)
    checks = list(report.checks)
    if report.profile is not None and report.profile.global_positive:
        checks.append(_cheng_yau_check(report.profile, float(d), np.geomspace(1.0, 100.0, 13)))
    columns: Dict[str, np.ndarray] = {}
    if report.profile is not None:
        prof = report.profile
        nodes = M.grid.nodes
        r = nodes[(nodes > 0.0) & (nodes <= prof.r_end)]
        data = v_transform(prof) if prof.global_positive else None
        ric_r, ric_th = ric_infinity_components(M, r)
        columns = {
            "r": r,
            "u": np.asarray(prof.u(r)),
            "u_prime": np.asarray(prof.u_prime(r)),
            "ric_r": np.asarray(ric_r),
            "ric_theta": np.asarray(ric_th),
            # verify_theorem sampled K on every positive node; r is a prefix
            "K": report.slope_factor[: r.size],
            "pohozaev": np.asarray(pohozaev(M, prof, r)),
            "energy": np.asarray(energy(prof, r)),
        }
        if data is not None:
            columns["v"] = np.asarray(data.v(r))
            columns["P"] = np.asarray(data.P(r))
    return checks, columns


def _scenario_soliton(spec: RunSpec):
    d = int(spec.params["d"])
    p = float(spec.params["p"])
    ell = float(spec.params["ell"])
    grid = _grid_from(spec.params, "geometric", 1e-3, 12.0, 1025)
    M = power_weight(d, grid, 1.0, 2.0)
    checks = []
    columns: Dict[str, np.ndarray] = {}
    try:
        prof = solve_radial(M, p=p, ell=ell, r_max=grid.r_max, tol=spec.tol)
    except BelError as exc:
        checks.append(Check("solve", "-u'' - L r u' = u^p with f = r^2", False))
        checks.append(Check("zero-crossing", f"solver error: {exc}", False))
        return checks, columns
    crossed = prof.crossed and prof.r_star is not None and math.isfinite(prof.r_star)
    checks.append(Check("zero-crossing",
                        "finite weighted volume forbids positive solutions",
                        crossed, prof.r_star))
    vol_hi = float(weighted_volume(M, grid.r_max))
    vol_lo = float(weighted_volume(M, grid.r_max / 2.0))
    converged = abs(vol_hi - vol_lo) <= 1e-8 * vol_hi
    checks.append(Check("weighted-volume-finite", "mu(M) = |S^{d-1}| int e^{-r^2} r^{d-1} < inf",
                        converged, vol_hi - vol_lo, 1e-8 * vol_hi))
    nodes = grid.nodes
    r = nodes[(nodes > 0.0) & (nodes <= prof.r_end)]
    columns = {
        "r": r,
        "u": np.asarray(prof.u(r)),
        "u_prime": np.asarray(prof.u_prime(r)),
        "energy": np.asarray(energy(prof, r)),
    }
    return checks, columns


def _scenario_parabolicity(spec: RunSpec):
    d = int(spec.params["d"])
    beta = float(spec.params["beta"])
    p = float(spec.params["p"])
    grid = _grid_from(spec.params, "geometric", 1e-3, 1e3, 2049)
    M = log_tail_weight(d, grid, beta=beta)
    comp = comparison_report(M, grid.r_max)
    checks = [
        Check("tail-integrable", "int^inf dr / (e^{-f} psi^{d-1}) < inf",
              comp.tail_exponent < -1.0 and not comp.parabolic, comp.tail_exponent, -1.0),
    ]
    exponent = 2.0 * p / (p - 1.0)
    sweep = np.geomspace(10.0, 1e3, 25)
    ratios = np.asarray(weighted_volume(M, sweep)) / sweep**exponent
    increments = np.diff(ratios)
    checks.append(Check("volume-ratio-decreasing",
                        "mu(B_R) / R^{2p/(p-1)} decreasing on [10, 1000]",
                        bool(np.all(increments <= 0.0)), float(np.max(increments)), 0.0))
    r = M.report_nodes()
    ric_r, ric_th = ric_infinity_components(M, r)
    columns = {"r": r, "ric_r": np.asarray(ric_r), "ric_theta": np.asarray(ric_th)}
    return checks, columns


def _scenario_estimates(spec: RunSpec):
    d = int(spec.params["d"])
    b = float(spec.params["b"])
    n = float(spec.params.get("n", math.inf))
    data = v_transform(bubble(d, b), n=n)
    qs = spec.params["q"]
    if not isinstance(qs, list):
        qs = [qs]
    checks = []
    sweep = np.geomspace(1.0, 100.0, 25)
    for q in qs:
        ratios = []
        for R in sweep:
            lhs, bound = integral_estimate_ratio(data, float(q), R)
            ratios.append(lhs / bound)
        ratios = np.asarray(ratios)
        checks.append(Check(f"integral-ratio-bounded-q{q:g}",
                            "int_{B_R} v^{-q}(...) dmu <= C mu(B_2R) R^{-q}",
                            bool(np.max(ratios) <= 10.0 * ratios[0]),
                            float(np.max(ratios)), float(10.0 * ratios[0])))
    checks.append(_cheng_yau_check(bubble(d, b), float(d), sweep))
    nodes = data.manifold.grid.nodes
    r = nodes[nodes > 0.0]
    columns = {"r": r, "v": np.asarray(data.v(r)), "P": np.asarray(data.P(r))}
    return checks, columns


def _scenario_custom(spec: RunSpec):
    d = int(spec.params["d"])
    p = float(spec.params["p"])
    ell = float(spec.params["ell"])
    weight = spec.params.get("weight", "none")
    grid_args = _grid_args(spec.params, "geometric", 1e-3, 100.0, 1025)
    grid = make_grid(*grid_args)
    if weight == "none":
        M = euclidean(d, grid)
    elif weight == "power":
        M = power_weight(d, grid, float(spec.params.get("coeff", 1.0)),
                         float(spec.params.get("power", 2.0)))
    elif weight == "log-tail":
        M = log_tail_weight(d, grid, beta=float(spec.params.get("beta", 2.0)))
    elif weight == "warped":
        M = _warped_example(d, float(spec.params.get("alpha", 0.5)), 0.0, grid_args)
    else:
        raise ConfigParseError(f"unknown weight {weight!r} for custom scenario")
    checks = []
    columns: Dict[str, np.ndarray] = {}
    try:
        prof = solve_radial(M, p=p, ell=ell, r_max=grid.r_max, tol=spec.tol)
    except BelError as exc:
        checks.append(Check("solve", f"solver error: {exc}", False))
        return checks, columns
    checks.append(Check("solve", "-u'' - L r u' = u^p, u(0) = ell",
                        not prof.status.startswith("truncated"), prof.r_end))
    nodes = grid.nodes
    r = nodes[(nodes > 0.0) & (nodes <= prof.r_end)]
    E = np.asarray(energy(prof, r))
    slack = 1e-8 * (1.0 + np.abs(E[:-1]))
    checks.append(Check("energy-decreasing", "E' = -(L r) u'^2 <= 0",
                        bool(np.all(np.diff(E) <= slack)), float(np.max(np.diff(E)))))
    columns = {
        "r": r,
        "u": np.asarray(prof.u(r)),
        "u_prime": np.asarray(prof.u_prime(r)),
        "energy": E,
    }
    return checks, columns


_RUNNERS: Dict[str, Callable[[RunSpec], Tuple[List[Check], Dict[str, np.ndarray]]]] = {
    "euclidean-sanity": _scenario_euclidean,
    "bubble": _scenario_bubble,
    "log-bubble": _scenario_log_bubble,
    "theorem-2-2": _scenario_theorem,
    "soliton-liouville": _scenario_soliton,
    "example-2-parabolicity": _scenario_parabolicity,
    "estimates-sweep": _scenario_estimates,
    "custom": _scenario_custom,
}


# ---------------------------------------------------------------- artifacts


def emit_profiles(columns: Dict[str, np.ndarray], path) -> None:
    """Write radial profiles as CSV: canonical column order, 17 significant
    digits (round-trip exact), LF line endings, empty columns omitted."""
    ordered = [c for c in PROFILE_COLUMNS if c in columns and np.size(columns[c])]
    if not ordered:
        return
    length = {np.size(columns[c]) for c in ordered}
    if len(length) != 1:
        raise ArtifactIOError(f"profile columns have mismatched lengths: {sorted(length)}")
    lists = [np.asarray(columns[c], dtype=float).tolist() for c in ordered]
    row = ",".join(["%.17g"] * len(ordered)) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(ordered) + "\n")
            fh.writelines(row % values for values in zip(*lists))
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
    """Run one concrete scenario, write its artifacts, return the report."""
    runner = _RUNNERS[spec.scenario]
    start = time.perf_counter()
    checks, columns = runner(spec)
    elapsed = time.perf_counter() - start
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.scenario,
        "config": {k: _json_safe(v) for k, v in sorted(spec.params.items())},
        "tol": _json_safe(spec.tol),
        "checks": [{k: _json_safe(v) for k, v in asdict(c).items()} for c in checks],
        "passed": all(c.verdict for c in checks),
        "timings": {"elapsed_s": elapsed},
    }
    run_dir = Path(out_root) / spec.slug
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArtifactIOError(f"cannot create {run_dir}: {exc}") from exc
    write_report(report, run_dir / "report.json")
    if columns:
        emit_profiles(columns, run_dir / "profiles.csv")
    return report


def run_scenario(config: ScenarioConfig, out_dir, tol: Optional[float] = None) -> List[dict]:
    """Expand a config and execute every run serially; returns the reports."""
    return [execute_run(spec, out_dir) for spec in expand_runs(config, tol)]
