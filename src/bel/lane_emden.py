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

A shot is integrated by bel's own DOP853 driver (:mod:`bel._dop853`), which
repeats scipy's ``solve_ivp`` arithmetic bit for bit without its per-step
objects.  The right-hand side runs on Python floats and calls the builder's
``scalar_drift`` directly when there is one.  A shot's profile between the
series region and ``r_end`` is the driver's dense output: ``u`` and ``u'`` at
many radii go through its vectorised evaluation, the crossing bisection
through its evaluation at one radius on Python floats; both give the bits of
scipy's ``OdeSolution``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._dop853 import dense_output, scalar_dense_output, solve_ivp
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
    gauss_antiderivative,
    grid_tolerance,
    pole_refined_partition,
)

# Unused here since the slope-factor table takes its nodal values from the
# shared area-density pass, but kept bound on this module:
# perfbench/tracing.py instruments ``bel.lane_emden.indefinite_gauss``.
from .radial_core import indefinite_gauss  # noqa: E402,F401

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
    "SlopeFactorTerms",
    "slope_factor_terms",
    "slope_factor",
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
    ``u.values`` and ``u_prime.values`` hold the profile at the nodes
    :attr:`in_range` and NaN beyond.
    """

    manifold: ModelManifold
    p: Optional[float]
    ell: float
    u: RadialFunction
    u_prime: RadialFunction
    status: str
    r_end: float
    r_star: Optional[float] = None

    @property
    def in_range(self) -> np.ndarray:
        """Mask of the grid nodes inside the shot's range."""
        return _covers(self.r_end, self.manifold.grid.nodes)

    @property
    def global_positive(self) -> bool:
        return self.status == "global-positive"

    @property
    def crossed(self) -> bool:
        return self.r_star is not None


def _covers(r_end: float, r):
    """Where the radii ``r`` lie in a shot's range ``[0, r_end]`` (for
    ``r >= 0``), up to a relative slack of 1e-12 at ``r_end``."""
    return r <= r_end * (1 + 1e-12)


def _nonlinearity(p: Optional[float]) -> Callable[[np.ndarray], np.ndarray]:
    """N(u): e^u, or the positive part of u to the power p.

    A float ``u`` (one right-hand-side stage of the shot) takes ``np.power``,
    the ufunc that ``ndarray ** p`` runs, so it returns the bits of the array
    path.  Overflow to inf is caught by the shot's overflow guard, so its
    warning is silenced: around the whole integration for floats, here for
    arrays.
    """
    if p is None:
        return np.exp

    def power(u):
        if isinstance(u, float):
            return np.power(u, p) if u > 0.0 else 0.0
        uu = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
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
    if not 0.0 < tol < np.inf:
        raise InvalidRangeError(f"tol must be a positive finite number, got {tol}")

    d = M.d
    nonlin = _nonlinearity(p)
    with np.errstate(over="ignore"):  # inf is caught just below
        c2 = nonlin(ell) / (2.0 * d)  # u = ell - c2 r^2 + O(r^4) near the pole
    r0 = series_handoff_radius(grid)
    if not r0 < r_max:
        raise InvalidRangeError(f"r_max must exceed the series handoff radius {r0:g}")
    y0 = np.array([ell - c2 * r0**2, -2.0 * c2 * r0])
    if not np.all(np.isfinite(y0)) or np.max(np.abs(y0)) >= OVERFLOW_GUARD:
        raise BlowupError("initial data exceeds the overflow guard")

    drift = M.scalar_drift or M.drift

    def rhs(r, y):
        u, du = y
        return du, -drift(r) * du - nonlin(u)

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

    with np.errstate(over="ignore"):  # inf is caught just below
        sol = solve_ivp(rhs, (r0, r_max), y0, rtol=tol, atol=tol, events=events)
    if not np.all(np.isfinite(sol.y)):
        raise BlowupError("solution left the finite range during integration")
    if len(sol.t_events[0]):
        raise BlowupError(
            f"overflow guard {OVERFLOW_GUARD:g} tripped at r = {sol.t_events[0][0]:.6g}"
        )

    r_star: Optional[float] = None
    if p is not None and len(sol.t_events[1]):
        r_star = _refine_crossing(sol, float(sol.t_events[1][0]), tol)
        status = f"crossed-zero-at({r_star:.12g})"
        r_end = r_star
    elif sol.status == 0:
        status = "global-positive"
        r_end = r_max
    else:
        r_end = float(sol.t[-1])
        status = f"truncated-at({r_end:.12g})"

    u_fn, up_fn, upp_fn = _profile_callbacks(
        dense_output(sol), float(sol.t[-1]), ell, c2, r0, r_end, M.drift, nonlin
    )

    nodes = grid.nodes
    in_range = _covers(r_end, nodes)
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
    )


def _refine_crossing(sol, r_event: float, tol: float) -> float:
    """Bisect the dense output around the located event until |u| <= tol."""
    t = sol.t
    dense = scalar_dense_output(sol)
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


def _profile_callbacks(dense, t_last, ell, c2, r0, r_end, drift, nonlin):
    def component(k, series):
        """u (k = 0) or u' (k = 1): the pole series below r0, else the shot."""

        def fn(r):
            rr = np.asarray(r, dtype=float)
            if np.any(rr < 0.0) or not np.all(_covers(r_end, rr)):
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


def _energy_values(p: Optional[float], u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """E from the values of u and u' at some radii (the formula of :func:`energy`)."""
    if p is None:
        potential = np.exp(u)
    else:
        potential = np.where(u > 0.0, u, 0.0) ** (p + 1) / (p + 1)
    return 0.5 * du**2 + potential


def energy(profile: SolutionProfile, r):
    """E(r) = u'(r)^2/2 + U(u(r)) with U(u) = u^{p+1}/(p+1) resp. e^u.

    E decreases wherever the weighted area density S is increasing, since
    E' = -(S'/S) u'^2.
    """
    u = np.asarray(profile.u(r), dtype=float)
    du = np.asarray(profile.u_prime(r), dtype=float)
    val = _energy_values(profile.p, u, du)
    return val if np.ndim(r) else float(val)


def _pohozaev_values(M: ModelManifold, p: float, r: np.ndarray, u: np.ndarray, du: np.ndarray):
    """P from the values of u and u' at the radii r (the formula of :func:`pohozaev`)."""
    V = np.asarray(M.cumulative_area(r), dtype=float)
    S = np.asarray(M.area_density(r), dtype=float)
    return V * _energy_values(p, u, du) + S * u * du / (p + 1)


def pohozaev(M: ModelManifold, profile: SolutionProfile, r):
    """P(r) = V(r) E(r) + (1/(p+1)) S(r) u(r) u'(r); vanishes at r = 0."""
    if M.d != profile.manifold.d:
        raise InvalidRangeError("profile was produced on a different dimension")
    if profile.p is None:
        raise InvalidRangeError("the Pohozaev monitor applies to the power nonlinearity")
    rr = np.asarray(r, dtype=float)
    u = np.asarray(profile.u(rr), dtype=float)
    du = np.asarray(profile.u_prime(rr), dtype=float)
    val = _pohozaev_values(M, profile.p, rr, u, du)
    return val if np.ndim(r) else float(val)


def _curvature_defect(M: ModelManifold, r: np.ndarray) -> np.ndarray:
    """G = Ric_r + 2 psi' f'/psi - (f')^2/(d-1); G <= 0 is the slope-factor
    sign condition (equivalently the existence-side curvature constraint)."""
    ric_r, _ = ric_infinity_components(M, r)
    dpsi = M.psi(r, 1)
    psi = M.psi(r)
    df = M.f(r, 1)
    return np.asarray(ric_r, dtype=float) + 2.0 * dpsi * df / psi - df**2 / (M.d - 1)


def _slope_factor_integral(M: ModelManifold) -> Callable[[np.ndarray], np.ndarray]:
    """Antiderivative J(r) = int_0^r S G / Lr^2 ds used by the decomposition.

    Its nodal values come from :meth:`ModelManifold.area_integral`, whose one
    evaluation of S at the quadrature points also builds the volume table.
    """
    if "slope_factor_integral" not in M._cache:
        # M._cache keeps the antiderivative, so its integrand holds M weakly:
        # a cycle through M would keep a dead manifold until the cyclic GC
        manifold = weakref.ref(M)

        def weighted(s, S):
            M = manifold()
            return S * _curvature_defect(M, s) / np.asarray(M.drift(s)) ** 2

        def integrand(s):
            ss = np.asarray(s, dtype=float)
            pos = ss > 0.0
            out = np.zeros_like(ss)
            if np.any(pos):
                sp = ss[pos]
                out[pos] = weighted(sp, manifold().area_density(sp))
            return out

        pts = pole_refined_partition(M.grid.nodes)
        M._cache["slope_factor_integral"] = gauss_antiderivative(
            integrand, pts, M.area_integral(weighted)
        )
    return M._cache["slope_factor_integral"]


@dataclass(frozen=True)
class SlopeFactorTerms:
    """The p-independent samples behind K at some radii r > 0: the area
    density S, the drift Lr = S'/S, V = int_0^r S and, when the decomposition
    is checked, J = int_0^r S G / Lr^2 (else ``None``)."""

    d: int
    S: np.ndarray
    Lr: np.ndarray
    V: np.ndarray
    J: Optional[np.ndarray]


def slope_factor_terms(
    M: ModelManifold, r, check_decomposition: Optional[bool] = None
) -> SlopeFactorTerms:
    """Sample the terms of :func:`pohozaev_slope_factor` at the radii ``r``.

    Raises ``singular-radius`` for r <= 0 and ``monotonicity-violated`` where
    S' <= 0.  ``check_decomposition`` defaults to ``M.weight_from_psi``.
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
    if check_decomposition is None:
        check_decomposition = M.weight_from_psi
    # J before V: J's table shares its area-density pass with the volume table
    J = _slope_factor_integral(M)(rr) if check_decomposition else None
    V = np.asarray(M.cumulative_area(rr), dtype=float)
    return SlopeFactorTerms(d=M.d, S=S, Lr=Lr, V=V, J=J)


def slope_factor(terms: SlopeFactorTerms, p: float) -> np.ndarray:
    """K at the radii of ``terms``, and the decomposition cross-check when
    ``terms.J`` is set (see :func:`pohozaev_slope_factor`)."""
    S, Lr, V, d = terms.S, terms.Lr, terms.V, terms.d
    K = (0.5 + 1.0 / (p + 1.0)) * S - Lr * V
    if terms.J is not None:
        lead = 0.5 + 1.0 / (p + 1.0) - (d - 1.0) / d
        K_alt = lead * S + ((d - 1.0) / d) * Lr * terms.J
        scale = 1.0 + np.abs(S) + np.abs(Lr * V)
        worst = np.max(np.abs(K - K_alt) / scale)
        if worst > 1e-7:
            raise CrossCheckError(
                f"slope-factor decomposition mismatch: relative gap {worst:.3e}"
            )
    return K


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
    K = slope_factor(slope_factor_terms(M, r, check_decomposition), p)
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
        r = nodes[(nodes > 0.0) & profile.in_range]
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

    bound: np.ndarray
    all_hold: bool


def asymptotic_bound_check(profile: SolutionProfile, C: float) -> AsymptoticBoundReport:
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
    keep = profile.in_range
    r = profile.manifold.grid.nodes[keep]
    ell, p = profile.ell, profile.p
    try:
        bound = (C * r**2 + ell ** (1.0 - p)) ** (-1.0 / (p - 1.0))
    except OverflowError:  # ell^{1-p} is past the float range; factor it out
        bound = ell * (1.0 + C * r**2 * ell ** (p - 1.0)) ** (-1.0 / (p - 1.0))
    values = profile.u.values[keep]
    return AsymptoticBoundReport(bound, bool(np.all(values <= bound * (1 + 1e-12))))
