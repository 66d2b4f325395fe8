"""Radial shooting solver for -Lu = u^p on model manifolds.

L is the drift Laplacian, so radial profiles obey

    u'' + ((d-1) psi'/psi - f') u' + u^p = 0,

with u(0) given and u'(0) = 0.  The coefficient (d-1) psi'/psi blows up at
the pole, so integration starts from a small series handoff radius.  On top
of the solver this module provides the classical monitors: the ODE energy
E = u'^2/2 + U(u), the Pohozaev-style function

    P(r) = V(r) E(r) + (1/(p+1)) S(r) u u' ,   S = e^{-f} psi^{d-1},  V = int S,

and its slope factor K with P' = K u'^2, together with a curvature-flavoured
decomposition of K used as an internal cross-check.

A shot is integrated by bel's own DOP853 driver (:mod:`bel._dop853`), which
repeats scipy's ``solve_ivp`` arithmetic bit for bit without its per-step
objects.  The right-hand side runs on Python floats and ``math``, with no
numpy call per stage, and calls the builder's ``scalar_drift`` directly when
there is one.  A shot's profile between the series region and ``r_end`` is
the driver's dense output, which gives the bits of scipy's ``OdeSolution``;
one vectorised evaluation yields both ``u`` and ``u'`` at many radii.  A shot's zero crossing is the root the driver's
terminal event finds (Brent's method to 4 eps on the step's interpolant), and
the shot ends there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ._dop853 import dense_output, solve_ivp
from .errors import (
    BlowupError,
    CrossCheckError,
    InvalidRangeError,
    MonotonicityError,
    NonpositiveCenterValueError,
    OutOfRangeError,
    SingularRadiusError,
)
from .geometry import ModelManifold
from .radial_core import RadialFunction, covers

# Unused here since the manifold builds the slope-factor table
# (ModelManifold.integral) and G takes its curvature from a RadialJet, but kept
# bound on this module: perfbench/tracing.py instruments
# ``bel.lane_emden.indefinite_gauss`` and ``.ric_infinity_components``.
from .geometry import ric_infinity_components  # noqa: E402,F401
from .radial_core import indefinite_gauss  # noqa: E402,F401

#: Magnitudes beyond this are treated as numerical blowup of the shot.
OVERFLOW_GUARD = 1e300


def series_handoff_radius(grid) -> float:
    """Radius where integration takes over from the O(r^2) series at the pole."""
    return max(1e-4, 1e-2 * grid.first_step)


@dataclass(frozen=True)
class SolutionProfile:
    """One shot of the radial problem.

    ``p`` is the power-nonlinearity exponent, or ``None`` for a closed-form
    profile of the e^u problem (:func:`bel.pfunction.log_bubble`).
    ``status`` is one of ``global-positive``, ``crossed-zero-at(r*)`` or
    ``truncated-at(R): <why the driver stopped>``; ``r_end`` is the last
    radius where ``u``/``u_prime`` may be evaluated, the driver's last
    radius, and ``r_star`` is set, to ``r_end``, exactly when the shot
    crossed zero.
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
        return covers(self.r_end, self.manifold.grid.nodes)

    @property
    def global_positive(self) -> bool:
        return self.status == "global-positive"

    @property
    def crossed(self) -> bool:
        return self.r_star is not None


def _nonlinearity(p: Optional[float]) -> Callable[[np.ndarray], np.ndarray]:
    """N(u): the positive part of u to the power p, or ``np.exp`` for
    ``p = None`` (the residual of a closed-form e^u profile).

    A float ``u`` (one right-hand-side stage of the shot) stays a Python
    float: ``u ** p``, within an ulp of the array path's ``np.power`` (a
    ufunc call on one float costs twenty times the libm call).  Overflow
    gives inf on both paths, as numpy does, and is caught by the shot's
    overflow guard; the array path silences its warning.
    """

    def power(u):
        if isinstance(u, float):
            if not u > 0.0:
                return 0.0
            try:
                return u**p
            except OverflowError:
                return math.inf
        uu = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(uu > 0.0, uu, 0.0) ** p

    return np.exp if p is None else power


def solve_radial(M: ModelManifold, p: float, ell: float, tol: float = 1e-10) -> SolutionProfile:
    """Shoot the power-nonlinearity problem from u(0) = ell > 0 over ``M``'s grid.

    Integration runs on [r0, r_max], the grid's end, with an adaptive
    high-order Runge-Kutta scheme (local error <= tol); [0, r0] is covered by
    the series u = ell - ell^p r^2 / (2d) + O(r^4).  The shot stops at the
    first zero of u (status ``crossed-zero-at``) or at r_max
    (``global-positive``).
    """
    if ell <= 0.0:
        raise NonpositiveCenterValueError(f"center value must be positive, got {ell}")
    if p <= 1.0:
        raise InvalidRangeError(f"exponent must satisfy p > 1, got {p}")
    p, ell = float(p), float(ell)
    grid = M.grid
    if not 0.0 < tol < np.inf:
        raise InvalidRangeError(f"tol must be a positive finite number, got {tol}")

    d = M.d
    nonlin = _nonlinearity(p)
    c2 = nonlin(ell) / (2.0 * d)  # u = ell - c2 r^2 + O(r^4) near the pole
    r0 = series_handoff_radius(grid)
    if not r0 < grid.r_max:
        raise InvalidRangeError(f"r_max must exceed the series handoff radius {r0:g}")
    y0 = np.array([ell - c2 * r0**2, -2.0 * c2 * r0])
    if not np.all(np.isfinite(y0)) or np.max(np.abs(y0)) >= OVERFLOW_GUARD:
        raise BlowupError("initial data exceeds the overflow guard")

    drift = M.scalar_drift or M.drift

    def rhs(r, y):
        u, du = y
        try:
            return du, -drift(r) * du - nonlin(u)
        except ArithmeticError:  # float arithmetic raises where numpy gives inf or NaN
            return du, float(-M.drift(r) * du - nonlin(np.asarray(u)))

    def guard_event(r, y):
        return OVERFLOW_GUARD - max(abs(y[0]), abs(y[1]))

    # stop at the first zero of u; sign-changing continuations are not
    # meaningful for the power nonlinearity
    def crossing_event(r, y):
        return y[0]

    guard_event.terminal = crossing_event.terminal = True
    crossing_event.direction = -1.0

    with np.errstate(over="ignore"):  # inf is caught just below
        sol = solve_ivp(rhs, (r0, grid.r_max), y0, rtol=tol, atol=tol,
                        events=[guard_event, crossing_event])
    if not np.all(np.isfinite(sol.y)):
        raise BlowupError("solution left the finite range during integration")
    if len(sol.t_events[0]):
        raise BlowupError(
            f"overflow guard {OVERFLOW_GUARD:g} tripped at r = {sol.t_events[0][0]:.6g}"
        )

    r_end = float(sol.t[-1])  # after a terminal event, its root bit for bit
    r_star: Optional[float] = None
    if len(sol.t_events[1]):
        r_star = r_end
        status = f"crossed-zero-at({r_star:.12g})"
    elif sol.status == 0:
        status = "global-positive"
    else:
        status = f"truncated-at({r_end:.12g}): {sol.message}"

    state, u_fn, up_fn, upp_fn = _profile_callbacks(
        dense_output(sol), ell, c2, r0, r_end, M.drift, nonlin
    )

    nodes = grid.nodes
    in_range = covers(r_end, nodes)
    u_vals, up_vals = np.full((2, nodes.size), np.nan)
    u_vals[in_range], up_vals[in_range] = state(nodes[in_range])

    u = RadialFunction(grid, u_vals, value_fn=u_fn, derivs=(up_fn, upp_fn))
    u_prime = RadialFunction(grid, up_vals, value_fn=up_fn, derivs=(upp_fn,))
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


def _profile_callbacks(dense, ell, c2, r0, r_end, drift, nonlin):
    """The shot's profile on ``[0, r_end]``: ``state(r)`` gives u and u' at
    the radii ``r`` from one evaluation, of the pole series below r0 and of
    the dense output above; the callbacks of u and u' read from it, and that
    of u'' (``upp_fn``) from it and the ODE."""

    def state(r):
        if np.any(r < 0.0) or not np.all(covers(r_end, r)):
            raise OutOfRangeError(f"profile is defined on [0, {r_end:.6g}]")
        flat = r.reshape(-1)
        out = np.empty((2, flat.size))
        low = flat < r0
        out[0, low] = ell - c2 * flat[low] ** 2
        out[1, low] = -2.0 * c2 * flat[low]
        if not np.all(low):
            out[:, ~low] = dense(np.minimum(flat[~low], r_end))
        return out.reshape(2, *r.shape)

    def upp_fn(r):
        flat = np.atleast_1d(r)
        pos = flat > 0.0
        out = np.full_like(flat, -2.0 * c2)
        if np.any(pos):
            u, du = state(flat[pos])
            out[pos] = -drift(flat[pos]) * du - nonlin(u)
        return out

    return state, lambda r: state(r)[0], lambda r: state(r)[1], upp_fn


# ------------------------------------------------------------------ monitors


def energy(p: float, u, du):
    """E = u'^2/2 + u^{p+1}/(p+1) from the values ``u`` and ``du`` of u and
    u' at some radii (the positive part of u); E past the float range is inf,
    without a warning.

    E decreases wherever the weighted area density S is increasing, since
    E' = -(S'/S) u'^2.
    """
    with np.errstate(over="ignore"):
        return 0.5 * du**2 + np.where(u > 0.0, u, 0.0) ** (p + 1) / (p + 1)


def pohozaev(M: ModelManifold, p: float, r, u, du, E):
    """P = V E + (1/(p+1)) S u u' at the radii ``r``, from the values ``u``
    and ``du`` of u and u' there and the energy ``E = energy(p, u, du)``;
    P vanishes at r = 0."""
    return M.cumulative_area(r) * E + M.area_density(r) * u * du / (p + 1)


@dataclass(frozen=True)
class SlopeFactorTerms:
    """The p-independent samples behind K at some radii r > 0: the area
    density S, the drift Lr = S'/S, V = int_0^r S and, on a manifold whose
    weight comes from its warping, J = int_0^r S G / Lr^2 (else ``None``)."""

    d: int
    S: np.ndarray
    Lr: np.ndarray
    V: np.ndarray
    J: Optional[np.ndarray]


def slope_factor_terms(M: ModelManifold, r) -> SlopeFactorTerms:
    """Sample the terms of :func:`pohozaev_slope_factor` at the radii ``r``,
    J when ``M.weight_from_psi``.

    Raises ``singular-radius`` for r <= 0 and ``monotonicity-violated`` where
    S' <= 0.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr <= 0.0):
        raise SingularRadiusError("slope factor needs r > 0")
    Lr = M.drift(rr)
    if np.any(Lr <= 0.0):
        raise MonotonicityError(
            "weighted area density must be increasing at the requested radii"
        )
    # J before V: J's table shares its area-density pass with the volume
    # table; S last, so an S past the float range ends in the tables' error
    J = M.integral("slope factor")(rr) if M.weight_from_psi else None
    V = M.cumulative_area(rr)
    S = M.area_density(rr)
    return SlopeFactorTerms(d=M.d, S=S, Lr=Lr, V=V, J=J)


def pohozaev_slope_factor(terms: SlopeFactorTerms, p: float) -> np.ndarray:
    """K at the radii of ``terms``, with P' = K u'^2 for any shot of exponent p.

    K = (1/2 + 1/(p+1)) S - (S'/S) V.  Its derivation integrates against an
    increasing area density, which :func:`slope_factor_terms` checks.

    When ``terms.J`` is set (a weight produced from the warping recipe) the
    equivalent decomposition

        K = (1/2 + 1/(p+1) - (d-1)/d) S + ((d-1)/d) (S'/S) int_0^r S G / Lr^2

    is evaluated as well and the two must agree; G <= 0 then forces K <= 0
    at critical and supercritical exponents.
    """
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


def pohozaev_trace(profile: SolutionProfile) -> Dict[str, np.ndarray]:
    """The ``energy`` and ``pohozaev`` columns of a power-nonlinearity shot:
    E and P at the positive grid nodes in the shot's range, from the node
    values of u and u' that the shot stores."""
    M = profile.manifold
    nodes = M.grid.nodes
    keep = (nodes > 0.0) & profile.in_range
    r, u, du = nodes[keep], profile.u.values[keep], profile.u_prime.values[keep]
    E = energy(profile.p, u, du)
    return {"energy": E, "pohozaev": pohozaev(M, profile.p, r, u, du, E)}


def asymptotic_bound_check(profile: SolutionProfile, C: float) -> bool:
    """True iff u(r) <= (C r^2 + ell^{1-p})^{-1/(p-1)} at the grid nodes.

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
    return bool(np.all(values <= bound * (1 + 1e-12)))
