"""Radial shooting solver for -Lu = u^p and -Lu = e^u on model manifolds.

L is the drift Laplacian, so radial profiles obey

    u'' + ((d-1) psi'/psi - f') u' + N(u) = 0,      N(u) = u^p or e^u,

with u(0) given and u'(0) = 0.  The coefficient (d-1) psi'/psi blows up at
the pole, so integration starts from a small series handoff radius.  On top
of the solver this module provides the classical monitors: the ODE energy
E = u'^2/2 + U(u), the Pohozaev-style function

    P(r) = V(r) E(r) + (1/(p+1)) S(r) u u' ,   S = e^{-f} psi^{d-1},  V = int S,

and its slope factor K with P' = K u'^2, together with a curvature-flavoured
decomposition of K used as an internal cross-check.

A shot's profile between the series region and ``r_end`` is the solver's
DOP853 dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6).  It is
evaluated by one vectorised pass over the stacked segment coefficients, with
the per-point arithmetic of scipy's ``Dop853DenseOutput``, so values are
bit-identical to ``OdeSolution`` without its per-segment Python loop; ``u``,
``u'`` and the crossing bisection all go through that one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BlowupError,
    CrossCheckError,
    InvalidRangeError,
    MonotonicityError,
    NonpositiveCenterValueError,
    OutOfRangeError,
    SingularRadiusError,
    WrongDimensionError,
)
from .geometry import ModelManifold, ric_infinity_components
from .radial_core import (
    RadialFunction,
    grid_tolerance,
    indefinite_gauss,
    pole_refined_partition,
)

#: Magnitudes beyond this are treated as numerical blowup of the shot.
OVERFLOW_GUARD = 1e300

__all__ = [
    "OVERFLOW_GUARD",
    "SolutionProfile",
    "PohozaevTrace",
    "AsymptoticBoundReport",
    "solve_radial",
    "solve_liouville",
    "energy",
    "pohozaev",
    "pohozaev_slope_factor",
    "pohozaev_trace",
    "positivity_criterion",
    "asymptotic_bound_check",
    "series_handoff_radius",
]


def series_handoff_radius(grid) -> float:
    """Radius where integration takes over from the O(r^2) series at the pole."""
    return max(1e-4, 1e-2 * grid.first_step)


@dataclass(frozen=True)
class SolutionProfile:
    """One shot of the radial problem.

    ``p`` is the power-nonlinearity exponent, or ``None`` for the e^u problem.
    ``status`` is one of ``global-positive``, ``crossed-zero-at(r*)`` or
    ``truncated-at(R)``; ``r_end`` is the last radius where ``u``/``u_prime``
    may be evaluated, and ``r_star`` the located zero crossing (if any).
    """

    manifold: ModelManifold
    p: Optional[float]
    ell: float
    u: RadialFunction
    u_prime: RadialFunction
    status: str
    r_end: float
    r_star: Optional[float] = None
    tol: float = 1e-10

    @property
    def is_liouville(self) -> bool:
        return self.p is None

    @property
    def global_positive(self) -> bool:
        return self.status == "global-positive"

    @property
    def crossed(self) -> bool:
        return self.r_star is not None


def _nonlinearity(p: Optional[float]) -> Callable[[np.ndarray], np.ndarray]:
    if p is None:
        return np.exp

    def power(u):
        uu = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):  # inf is caught by the overflow guard
            return np.where(uu > 0.0, uu, 0.0) ** p

    return power


def _shoot(
    M: ModelManifold,
    p: Optional[float],
    ell: float,
    r_max: Optional[float],
    tol: float,
) -> SolutionProfile:
    grid = M.grid
    if r_max is None:
        r_max = grid.r_max
    if not (0.0 < r_max <= grid.r_max * (1 + 1e-12)):
        raise InvalidRangeError(f"r_max must lie in (0, {grid.r_max}]")
    if tol <= 0.0:
        raise InvalidRangeError("tol must be positive")

    d = M.d
    nonlin = _nonlinearity(p)
    with np.errstate(over="ignore"):  # inf is caught just below
        c2 = nonlin(ell) / (2.0 * d)  # u = ell - c2 r^2 + O(r^4) near the pole
    r0 = series_handoff_radius(grid)
    y0 = np.array([ell - c2 * r0**2, -2.0 * c2 * r0])
    if not np.all(np.isfinite(y0)) or np.max(np.abs(y0)) >= OVERFLOW_GUARD:
        raise BlowupError("initial data exceeds the overflow guard")

    drift = M.drift

    def rhs(r, y):
        return (y[1], -drift(r) * y[1] - nonlin(y[0]))

    def guard_event(r, y):
        return OVERFLOW_GUARD - max(abs(y[0]), abs(y[1]))

    guard_event.terminal = True

    events = [guard_event]
    if p is not None:
        # stop at the first zero of u; sign-changing continuations are not
        # meaningful for the power nonlinearity
        def crossing_event(r, y):
            return y[0]

        crossing_event.terminal = True
        crossing_event.direction = -1.0
        events.append(crossing_event)

    sol = solve_ivp(
        rhs,
        (r0, r_max),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=events,
    )
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise BlowupError("solution left the finite range during integration")
    if len(sol.t_events[0]):
        raise BlowupError(
            f"overflow guard {OVERFLOW_GUARD:g} tripped at r = {sol.t_events[0][0]:.6g}"
        )

    dense = _dense_output(sol)
    r_star: Optional[float] = None
    if p is not None and len(sol.t_events[1]):
        r_star = _refine_crossing(dense, sol.t, float(sol.t_events[1][0]), tol)
        status = f"crossed-zero-at({r_star:.12g})"
        r_end = r_star
    elif sol.status == 0:
        status = "global-positive"
        r_end = r_max
    else:
        r_end = float(sol.t[-1])
        status = f"truncated-at({r_end:.12g})"

    u_fn, up_fn, upp_fn = _profile_callbacks(
        dense, float(sol.t[-1]), ell, c2, r0, r_end, drift, nonlin
    )

    nodes = grid.nodes
    in_range = nodes <= r_end * (1 + 1e-12)
    u_vals = np.full(nodes.shape, np.nan)
    up_vals = np.full(nodes.shape, np.nan)
    u_vals[in_range] = u_fn(np.minimum(nodes[in_range], r_end))
    up_vals[in_range] = up_fn(np.minimum(nodes[in_range], r_end))

    u = RadialFunction(grid, u_vals, value_fn=u_fn, derivs=(up_fn, upp_fn, None))
    u_prime = RadialFunction(grid, up_vals, value_fn=up_fn, derivs=(upp_fn, None, None))
    return SolutionProfile(
        manifold=M,
        p=p,
        ell=ell,
        u=u,
        u_prime=u_prime,
        status=status,
        r_end=r_end,
        r_star=r_star,
        tol=tol,
    )


def _refine_crossing(dense, t, r_event: float, tol: float) -> float:
    """Bisect the dense output around the located event until |u| <= tol."""
    lo = t[-2] if t.size > 1 else t[0]
    hi = r_event
    if dense(hi)[0] > 0.0:  # event landed a hair early; nudge the bracket
        hi = min(r_event * (1 + 1e-9), t[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = dense(mid)[0]
        if abs(val) <= tol or (hi - lo) <= 1e-15 * max(1.0, hi):
            return mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dense_output(sol) -> Callable:
    """Vectorised evaluation of the shot's DOP853 dense output.

    Evaluates like ``sol.sol`` and gives bit-identical results, without its
    per-segment Python loop: the segments' ``t_old``, ``h``, ``y_old`` and
    interpolation coefficients ``F`` are stacked once, every radius finds its
    segment through one ``searchsorted`` (``side="left"``, clamped to the
    first and last segment, as ``OdeSolution`` does), and all radii go
    through the loop of ``Dop853DenseOutput._call_impl`` together.  Returns
    ``y`` of shape ``(2,)`` for a scalar radius, ``(2, n)`` for n radii.
    """
    segments = sol.sol.interpolants
    ts = sol.sol.ts
    t_old = np.array([s.t_old for s in segments])
    h = np.array([s.h for s in segments])
    y_old = np.array([s.y_old for s in segments])
    F = np.array([s.F for s in segments])  # (segments, order, 2)
    last = len(segments) - 1

    def evaluate(r):
        rr = np.asarray(r, dtype=float)
        flat = np.atleast_1d(rr)
        seg = np.clip(np.searchsorted(ts, flat, side="left") - 1, 0, last)
        x = ((flat - t_old[seg]) / h[seg])[:, None]
        coeffs = F[seg]
        y = np.zeros((flat.size, y_old.shape[1]))
        for i in range(F.shape[1]):
            y += coeffs[:, -1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old[seg]
        return y.T if rr.ndim else y[0]

    return evaluate


def _profile_callbacks(dense, t_last, ell, c2, r0, r_end, drift, nonlin):
    def component(k, series):
        """u (k = 0) or u' (k = 1): the pole series below r0, else the shot."""

        def fn(r):
            rr = np.asarray(r, dtype=float)
            if np.any((rr < 0.0) | (rr > r_end * (1 + 1e-12))):
                raise OutOfRangeError(f"profile is defined on [0, {r_end:.6g}]")
            flat = np.atleast_1d(rr).astype(float)
            out = np.empty_like(flat)
            low = flat < r0
            out[low] = series(flat[low])
            if np.any(~low):
                out[~low] = dense(np.minimum(flat[~low], t_last))[k]
            return out if rr.ndim else float(out[0])

        return fn

    u_fn = component(0, lambda s: ell - c2 * s**2)
    up_fn = component(1, lambda s: -2.0 * c2 * s)

    def upp_fn(r):
        rr = np.asarray(r, dtype=float)
        flat = np.atleast_1d(rr).astype(float)
        pos = flat > 0.0
        out = np.full_like(flat, -2.0 * c2)
        if np.any(pos):
            out[pos] = -drift(flat[pos]) * np.atleast_1d(up_fn(flat[pos])) - nonlin(
                np.atleast_1d(u_fn(flat[pos]))
            )
        return out if rr.ndim else float(out[0])

    return u_fn, up_fn, upp_fn


def solve_radial(
    M: ModelManifold,
    p: float,
    ell: float,
    r_max: Optional[float] = None,
    tol: float = 1e-10,
) -> SolutionProfile:
    """Shoot the power-nonlinearity problem from u(0) = ell > 0.

    Integration runs on [r0, r_max] with an adaptive high-order Runge-Kutta
    scheme (local error <= tol); [0, r0] is covered by the series
    u = ell - ell^p r^2 / (2d) + O(r^4).  The shot stops at the first zero of
    u (status ``crossed-zero-at``) or at r_max (``global-positive``).
    """
    if ell <= 0.0:
        raise NonpositiveCenterValueError(f"center value must be positive, got {ell}")
    if p <= 1.0:
        raise InvalidRangeError(f"exponent must satisfy p > 1, got {p}")
    return _shoot(M, float(p), float(ell), r_max, tol)


def solve_liouville(
    M: ModelManifold,
    ell: float,
    r_max: Optional[float] = None,
    tol: float = 1e-10,
) -> SolutionProfile:
    """Shoot the exponential-nonlinearity problem (surface case, d = 2).

    The center value may be any real number and the solution may change sign;
    a profile that reaches r_max is reported ``global-positive`` (the
    substitution v = e^{-u/2} > 0 is what positivity refers to here).
    """
    if M.d != 2:
        raise WrongDimensionError(f"exponential nonlinearity needs d = 2, got d = {M.d}")
    return _shoot(M, None, float(ell), r_max, tol)


# ------------------------------------------------------------------ monitors


def energy(profile: SolutionProfile, r):
    """E(r) = u'(r)^2/2 + U(u(r)) with U(u) = u^{p+1}/(p+1) resp. e^u.

    E decreases wherever the weighted area density S is increasing, since
    E' = -(S'/S) u'^2.
    """
    u = np.asarray(profile.u(r), dtype=float)
    du = np.asarray(profile.u_prime(r), dtype=float)
    if profile.p is None:
        potential = np.exp(u)
    else:
        potential = np.where(u > 0.0, u, 0.0) ** (profile.p + 1) / (profile.p + 1)
    val = 0.5 * du**2 + potential
    return val if np.ndim(r) else float(val)


def pohozaev(M: ModelManifold, profile: SolutionProfile, r):
    """P(r) = V(r) E(r) + (1/(p+1)) S(r) u(r) u'(r); vanishes at r = 0."""
    if M.d != profile.manifold.d:
        raise InvalidRangeError("profile was produced on a different dimension")
    if profile.p is None:
        raise InvalidRangeError("the Pohozaev monitor applies to the power nonlinearity")
    rr = np.asarray(r, dtype=float)
    V = np.asarray(M.cumulative_area(rr), dtype=float)
    S = np.asarray(M.area_density(rr), dtype=float)
    E = np.asarray(energy(profile, rr), dtype=float)
    u = np.asarray(profile.u(rr), dtype=float)
    du = np.asarray(profile.u_prime(rr), dtype=float)
    val = V * E + S * u * du / (profile.p + 1)
    return val if np.ndim(r) else float(val)


def _curvature_defect(M: ModelManifold, r: np.ndarray) -> np.ndarray:
    """G = Ric_r + 2 psi' f'/psi - (f')^2/(d-1); G <= 0 is the slope-factor
    sign condition (equivalently the existence-side curvature constraint)."""
    ric_r, _ = ric_infinity_components(M, r)
    dpsi = M.psi_at(r, 1)
    psi = M.psi_at(r)
    df = M.f_at(r, 1)
    return np.asarray(ric_r, dtype=float) + 2.0 * dpsi * df / psi - df**2 / (M.d - 1)


def _slope_factor_integral(M: ModelManifold) -> Callable[[np.ndarray], np.ndarray]:
    """Antiderivative J(r) = int_0^r S G / Lr^2 ds used by the decomposition."""
    if "slope_factor_integral" not in M._cache:

        def integrand(s):
            ss = np.asarray(s, dtype=float)
            pos = ss > 0.0
            out = np.zeros_like(ss)
            if np.any(pos):
                sp = ss[pos]
                out[pos] = (
                    M.area_density(sp) * _curvature_defect(M, sp) / np.asarray(M.drift(sp)) ** 2
                )
            return out

        pts = pole_refined_partition(M.grid.nodes)
        M._cache["slope_factor_integral"] = indefinite_gauss(integrand, pts)
    return M._cache["slope_factor_integral"]


def pohozaev_slope_factor(
    M: ModelManifold,
    p: float,
    r,
    check_decomposition: Optional[bool] = None,
):
    """K(r) with P'(r) = K(r) u'(r)^2, for any shot of exponent p.

    K = (1/2 + 1/(p+1)) S - (S'/S) V.  Requires S' > 0 at the evaluation
    radii (K's derivation integrates against an increasing area density);
    otherwise ``monotonicity-violated`` is raised.

    For manifolds whose weight was produced from the warping recipe the
    equivalent decomposition

        K = (1/2 + 1/(p+1) - (d-1)/d) S + ((d-1)/d) (S'/S) int_0^r S G / Lr^2

    is evaluated as well and the two must agree; G <= 0 then forces K <= 0
    at critical and supercritical exponents.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr <= 0.0):
        raise SingularRadiusError("slope factor needs r > 0")
    S = np.asarray(M.area_density(rr), dtype=float)
    Lr = np.atleast_1d(np.asarray(M.drift(rr), dtype=float))
    if np.any(Lr <= 0.0):
        raise MonotonicityError(
            "weighted area density must be increasing at the requested radii"
        )
    V = np.asarray(M.cumulative_area(rr), dtype=float)
    K = (0.5 + 1.0 / (p + 1.0)) * S - Lr * V

    if check_decomposition is None:
        check_decomposition = M.weight_from_psi
    if check_decomposition:
        J = _slope_factor_integral(M)(rr)
        lead = 0.5 + 1.0 / (p + 1.0) - (M.d - 1.0) / M.d
        K_alt = lead * S + ((M.d - 1.0) / M.d) * Lr * J
        scale = 1.0 + np.abs(S) + np.abs(Lr * V)
        worst = np.max(np.abs(K - K_alt) / scale)
        if worst > 1e-7:
            raise CrossCheckError(
                f"slope-factor decomposition mismatch: relative gap {worst:.3e}"
            )
    return K if np.ndim(r) else float(K[0])


@dataclass(frozen=True)
class PohozaevTrace:
    """Aligned samples of the monitors along one profile, plus verdicts."""

    r: np.ndarray
    energy: np.ndarray
    pohozaev: np.ndarray
    slope_factor: np.ndarray
    K_nonpositive: bool
    P_nonpositive: bool
    E_decreasing: bool


def pohozaev_trace(
    profile: SolutionProfile,
    r: Optional[np.ndarray] = None,
    tol: float = 1e-8,
) -> PohozaevTrace:
    """Sample E, P and K along the profile and summarize their signs.

    Default sample radii are the positive grid nodes inside the profile
    range.  ``E_decreasing`` allows a relative slack of ``tol`` per step.
    """
    M = profile.manifold
    if r is None:
        nodes = M.grid.nodes
        r = nodes[(nodes > 0.0) & (nodes <= profile.r_end * (1 + 1e-12))]
    r = np.asarray(r, dtype=float)
    E = np.asarray(energy(profile, r), dtype=float)
    P = np.asarray(pohozaev(M, profile, r), dtype=float)
    K = np.asarray(pohozaev_slope_factor(M, profile.p, r), dtype=float)
    return PohozaevTrace(
        r=r,
        energy=E,
        pohozaev=P,
        slope_factor=K,
        K_nonpositive=bool(np.all(K <= tol)),
        P_nonpositive=bool(np.all(P <= tol)),
        E_decreasing=bool(np.all(np.diff(E) <= tol * (1.0 + np.abs(E[:-1])))),
    )


def positivity_criterion(M: ModelManifold, tol: Optional[np.ndarray] = None) -> bool:
    """True iff -(d-1) psi''/psi + f'' + 2 psi' f'/psi - (f')^2/(d-1) <= tol
    at every positive grid node (the curvature-side obstruction to global
    positive solutions at large exponents)."""
    nodes = M.grid.nodes
    pos = nodes > 0.0
    rr = nodes[pos]
    q = _curvature_defect(M, rr)
    if tol is None:
        tol = grid_tolerance(M.grid)[pos]
    return bool(np.all(q <= tol))


@dataclass(frozen=True)
class AsymptoticBoundReport:
    """Per-node comparison of u against (C r^2 + ell^{1-p})^{-1/(p-1)}."""

    r: np.ndarray
    bound: np.ndarray
    values: np.ndarray
    holds: np.ndarray
    all_hold: bool


def asymptotic_bound_check(
    profile: SolutionProfile,
    C: float,
    ell: Optional[float] = None,
    p: Optional[float] = None,
) -> AsymptoticBoundReport:
    """Check u(r) <= (C r^2 + ell^{1-p})^{-1/(p-1)} at the grid nodes.

    Only meaningful for globally positive power-nonlinearity profiles; the
    bound is an equality at r = 0, so a relative slack of 1e-12 is allowed.
    """
    if C <= 0.0:
        raise InvalidRangeError("bound coefficient C must be positive")
    if profile.p is None:
        raise InvalidRangeError("the upper bound applies to the power nonlinearity")
    if not profile.global_positive:
        raise InvalidRangeError("the upper bound applies to globally positive profiles")
    ell = profile.ell if ell is None else ell
    p = profile.p if p is None else p
    nodes = profile.manifold.grid.nodes
    r = nodes[nodes <= profile.r_end * (1 + 1e-12)]
    bound = (C * r**2 + ell ** (1.0 - p)) ** (-1.0 / (p - 1.0))
    values = np.asarray(profile.u(r), dtype=float)
    holds = values <= bound * (1 + 1e-12)
    return AsymptoticBoundReport(
        r=r, bound=bound, values=values, holds=holds, all_hold=bool(np.all(holds))
    )
