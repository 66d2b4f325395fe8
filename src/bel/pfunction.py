"""Bubbles, the v-transform and the P-function machinery on radial data.

For a positive solution u of -Lu = u^p set v = u^{-(p-1)/2} and
m/2 = (p+1)/(p-1); for -Lu = e^u set v = e^{-u/2} and m = 2.  Then

    P := Lv = ((m/2) v'^2 + c_m) / v,       c_m = 2/(m-2)  (= 1/2 for m = 2),

and rigidity questions reduce to sign and growth properties of

    k[v] = |Hess v|^2 - P^2/m + Ric(v', v')            (radial Hessian
           eigenvalues: v'' once and (psi'/psi) v' with multiplicity d-1),

the divergence identity m v^{1-m} k = div_f(v^{2-m} P') and weighted
integral estimates over balls.  Everything here is specialized
to radial profiles on model manifolds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    CrossCheckError,
    InvalidDimensionError,
    InvalidRangeError,
    InvalidVirtualDimensionError,
    NonpositiveSolutionError,
    OutOfGridError,
    OutOfRangeError,
    QOutOfRangeError,
    SingularRadiusError,
    SuperharmonicityError,
)
from .geometry import (
    ModelManifold,
    _smoothstep,
    euclidean,
    ric_infinity_components,
    ric_n_radial,
    unit_sphere_area,
    weighted_laplacian_radial,
    weighted_volume,
)
from .lane_emden import SolutionProfile
from .radial_core import (
    RadialFunction,
    covers,
    finite_difference,
    indefinite_gauss,
    make_grid,
    sample,
)


_EXPLICIT_GRID = (0.0, 200.0, 2001, "uniform")  # make_grid arguments of the default grid


def _explicit_profile(d: int, p: Optional[float], ell: float, u, du, ddu) -> SolutionProfile:
    """A closed-form entire solution on flat R^d, on the grid
    :data:`_EXPLICIT_GRID`, with callbacks for u, u' and u'' (nothing reads a
    higher derivative)."""
    grid = make_grid(*_EXPLICIT_GRID)
    return SolutionProfile(
        manifold=euclidean(d, grid),
        p=p,
        ell=ell,
        u=sample(u, grid, derivs=(du, ddu)),
        u_prime=sample(du, grid, derivs=(ddu,)),
        status="global-positive",
        r_end=grid.r_max,
        r_star=None,
    )


def bubble(d: int, b: float) -> SolutionProfile:
    """Explicit entire solution u = (a + b r^2)^{-(d-2)/2} at the critical
    power on flat space, normalized by d(d-2)ab = 1."""
    if int(d) != d or d < 3:
        raise InvalidDimensionError(f"bubbles need an integer d >= 3, got {d}")
    if b <= 0.0:
        raise InvalidRangeError(f"bubble width must be positive, got b = {b}")
    d = int(d)
    a = 1.0 / (d * (d - 2) * b)
    k = (d - 2) / 2.0
    # the closed form squares b (in u'') and raises a to -k (u(0)): a width
    # that takes either past the float range would raise an OverflowError;
    # v'' reads u^(gamma-2) = (a + b r^2)^(d-1), largest at r_max
    log_max = math.log(np.finfo(float).max)
    if max(2.0 * math.log(b), k * math.log(d * (d - 2) * b)) >= log_max:
        raise InvalidRangeError(f"bubble width b = {b} takes b^2 or u(0) past the float range")
    r_max = _EXPLICIT_GRID[1]
    if (d - 1) * math.log(a + b * (r_max * r_max)) >= log_max:
        raise InvalidRangeError(f"bubble width b = {b} takes (a + b r^2)^(d-1), in v'', "
                                f"past the float range on r <= {r_max:g}")

    def u(r):
        return (a + b * r**2) ** (-k)

    def du(r):
        return -2.0 * k * b * r * (a + b * r**2) ** (-k - 1)

    def ddu(r):
        w = a + b * r**2
        return -2.0 * k * b * w ** (-k - 1) + 4.0 * k * (k + 1) * b**2 * r**2 * w ** (-k - 2)

    return _explicit_profile(d, (d + 2.0) / (d - 2.0), a ** (-k), u, du, ddu)


def log_bubble(b: float) -> SolutionProfile:
    """Explicit solution u = -2 log(a + b r^2) of -Lu = e^u on the flat
    surface, normalized by 8ab = 1."""
    if b <= 0.0:
        raise InvalidRangeError(f"bubble width must be positive, got b = {b}")
    a = 1.0 / (8.0 * b)
    # the terms of u, u' and u'' (a, b r^2, w = a + b r^2, w^2, 4 b r, 4 b |a - b r^2|) are
    # largest at r = 0 or r_max, and finite at r = 0 once a is: r_max decides
    r_max = _EXPLICIT_GRID[1]
    b_r2 = b * (r_max * r_max)
    w = a + b_r2
    if not all(map(math.isfinite, (a, b_r2, w, w * w, 4.0 * b * r_max, 4.0 * b * abs(a - b_r2)))):
        raise InvalidRangeError(f"log-bubble width b = {b} takes a term of u, u' or u'' "
                                f"past the float range on r <= {r_max:g}")

    def u(r):
        return -2.0 * np.log(a + b * r**2)

    def du(r):
        return -4.0 * b * r / (a + b * r**2)

    def ddu(r):
        w = a + b * r**2
        return -4.0 * b * (a - b * r**2) / w**2

    return _explicit_profile(2, None, -2.0 * math.log(a), u, du, ddu)


# ------------------------------------------------------------- v-transform


@dataclass(frozen=True)
class PFunctionData:
    """The transformed profile v, its P-function and the bookkeeping scalars."""

    manifold: ModelManifold
    m: float
    n: float
    v: RadialFunction
    P: RadialFunction
    c_m: float

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        finite = np.isfinite(self.v.values)
        if not np.all(self.v.values[finite] > 0.0):
            raise NonpositiveSolutionError("transformed profile must stay positive")


def v_transform(profile: SolutionProfile, n: float = math.inf) -> PFunctionData:
    """Build v, m, c_m and P from a solution profile.

    Power nonlinearity: v = u^{-(p-1)/2}, m = 2(p+1)/(p-1); exponential
    nonlinearity: v = e^{-u/2}, m = 2.  The virtual dimension n only selects
    branches downstream; it must satisfy n >= d (n = inf allowed).
    """
    M = profile.manifold
    if not math.isinf(n) and n < M.d:
        raise InvalidVirtualDimensionError(f"need n >= d = {M.d}, got n = {n}")
    u, du = profile.u, profile.u_prime
    if profile.p is None:
        m = 2.0
        c_m = 0.5

        def chain(uu, du_r=None, ddu_r=None):
            """v = e^{-u/2}, then v' and v''."""
            v = np.exp(-0.5 * uu)
            yield v
            yield -0.5 * v * du_r
            yield v * (0.25 * du_r**2 - 0.5 * ddu_r)

    else:
        if profile.r_star is not None:
            raise NonpositiveSolutionError(
                "profile crosses zero; the power transform needs u > 0"
            )
        p = profile.p
        m = 2.0 * (p + 1.0) / (p - 1.0)
        c_m = (p - 1.0) / 2.0  # = 2/(m-2)
        gamma = -(p - 1.0) / 2.0

        def chain(uu, du_r=None, ddu_r=None):
            """v = u^gamma, then v' and v''."""
            yield uu**gamma
            yield gamma * uu ** (gamma - 1.0) * du_r
            yield gamma * (gamma - 1.0) * uu ** (gamma - 2.0) * du_r**2 + gamma * uu ** (
                gamma - 1.0
            ) * ddu_r

    def jet(r, order):
        """v, ..., v^(order) at r: ``chain`` yields them in turn and stops
        there, so it takes u, ..., u^(order) only, each evaluated once."""
        sources = ((u, 0), (du, 0), (u, 2))[: order + 1]
        inputs = [np.asarray(f(r, k), dtype=float) for f, k in sources]
        return list(itertools.islice(chain(*inputs), order + 1))

    def P_of(v, dv):
        return ((m / 2.0) * dv**2 + c_m) / v

    def dP_of(v, dv, ddv):
        return (dv / v) * (m * ddv - P_of(v, dv))

    # Node values from the profile's node values: u^gamma is NaN where u < 0
    # and overflows where u is tiny; P is NaN wherever v is not finite.
    with np.errstate(invalid="ignore", over="ignore"):
        v_vals, dv_vals = itertools.islice(chain(u.values, du.values), 2)
        P_vals = np.where(np.isfinite(v_vals), P_of(v_vals, dv_vals), np.nan)
    v = RadialFunction(M.grid, v_vals, value_fn=lambda r: jet(r, 0)[0],
                       derivs=(lambda r: jet(r, 1)[1], lambda r: jet(r, 2)[2]))
    P = RadialFunction(M.grid, P_vals, value_fn=lambda r: P_of(*jet(r, 1)),
                       derivs=(lambda r: dP_of(*jet(r, 2)),))
    return PFunctionData(manifold=M, m=m, n=float(n), v=v, P=P, c_m=c_m)


# ------------------------------------------------------ pointwise functionals


def k_functional(data: PFunctionData, r):
    """k[v] = |Hess v|^2 - P^2/m + Ric(v',v') at r > 0.

    For finite n the equivalent four-term decomposition

        k = (d-1)/d (v'' - (psi'/psi) v')^2 + ((m-n)/(mn)) P^2
            + ((n-d)/(nd)) (P + n/(n-d) f' v')^2 + Ric_n (v')^2

    is evaluated too and must agree to 1e-8 relative (a strong consistency
    check on the curvature plumbing).  Vanishes identically on bubbles.  Returns a 1-d array, of
    one value at a scalar ``r``.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr <= 0.0):
        raise SingularRadiusError("the Hessian split needs r > 0")
    M = data.manifold
    d, m, n = M.d, data.m, data.n
    dv = data.v(rr, 1)
    ddv = data.v(rr, 2)
    P = data.P(rr)
    tang = (M.psi(rr, 1) / M.psi(rr)) * dv
    ric_r, _ = ric_infinity_components(M, rr)
    hess_sq = ddv**2 + (d - 1) * tang**2
    k = hess_sq - P**2 / m + ric_r * dv**2

    if not math.isinf(n):
        fv = M.f(rr, 1) * dv
        t1 = ((d - 1.0) / d) * (ddv - tang) ** 2
        t2 = ((m - n) / (m * n)) * P**2
        if n == d:
            if np.max(np.abs(fv)) > 1e-12 * (1.0 + np.max(np.abs(P))):
                raise InvalidVirtualDimensionError(
                    "n = d requires a trivial weight (f' = 0)"
                )
            t3 = np.zeros_like(P)
            ric_n = ric_r
        else:
            t3 = ((n - d) / (n * d)) * (P + (n / (n - d)) * fv) ** 2
            ric_n = ric_n_radial(M, n, rr)
        k_alt = t1 + t2 + t3 + ric_n * dv**2
        scale = 1.0 + np.abs(hess_sq) + P**2 / m
        worst = float(np.max(np.abs(k - k_alt) / scale))
        if worst > 1e-8:
            raise CrossCheckError(
                f"Hessian-split decomposition mismatch: relative gap {worst:.3e}"
            )
    return k


def divergence_identity_residual(data: PFunctionData) -> RadialFunction:
    """|m v^{1-m} k[v] - div_f(v^{2-m} P')| on the grid.

    The divergence side is measured: the flux v^{2-m} P' is sampled at the
    nodes and differentiated by finite differences, so the residual carries
    the usual 100 h^2 tier on non-analytic data.  The pole and the two nodes
    at each end, where the stencils are one-sided, are set to NaN.
    """
    M = data.manifold
    grid = M.grid
    pos = grid.nodes > 0.0
    r = grid.nodes[pos]
    m = data.m
    v = data.v(r)
    dP = data.P(r, 1)
    flux = v ** (2.0 - m) * dP
    full = np.zeros(grid.n)  # the flux vanishes at the pole
    full[pos] = flux
    div = finite_difference(full, grid)[pos] + M.drift(r) * flux
    lhs = m * v ** (1.0 - m) * k_functional(data, r)
    out = np.full(grid.n, np.nan)
    out[pos] = np.abs(lhs - div)
    out[:2] = out[-2:] = np.nan
    return RadialFunction(grid, out)


# ------------------------------------------------------- integral estimates


def _weighted_antiderivative(data: PFunctionData, key, integrand):
    """The antiderivative of ``integrand``, kept in ``data._cache`` under ``key``.

    ``integrand`` must not refer to ``data`` (hold ``data.v`` instead): a
    cycle through the cache would keep ``data``, its profile and its manifold
    alive until the cyclic GC.
    """
    cache = data._cache
    if key not in cache:
        cache[key] = indefinite_gauss(integrand, data.manifold.partition)
    return cache[key]


def ibp_residual(data: PFunctionData, q: float, R: float) -> Tuple[float, float]:
    """Both sides of the integration-by-parts identity with cutoff phi_R^2:

        (m/2 + 1 - q) I[v^{-q} v'^2 phi^2] + c_m I[v^{-q} phi^2]
            = -I[v^{1-q} v' (phi^2)']

    where I integrates against the weighted area measure.  Returns
    ``(lhs, rhs)``; the two agree to quadrature accuracy for every q.
    """
    M, v = data.manifold, data.v
    phi = radial_cutoff(R, M)
    m, c_m = data.m, data.c_m
    sphere = unit_sphere_area(M.d)

    def common(s):
        return v(s), v(s, 1), M.area_density(s), phi(s), phi(s, 1)

    def lhs_integrand(s):
        vv, dv, S, ph, _ = common(s)
        return ((m / 2.0 + 1.0 - q) * vv ** (-q) * dv**2 + c_m * vv ** (-q)) * ph**2 * S

    def rhs_integrand(s):
        vv, dv, S, ph, dph = common(s)
        return -(vv ** (1.0 - q)) * dv * 2.0 * ph * dph * S

    top = min(2.0 * R, M.grid.r_max)
    lhs = sphere * _weighted_antiderivative(data, ("ibp-l", q, R), lhs_integrand)(top)
    rhs = sphere * _weighted_antiderivative(data, ("ibp-r", q, R), rhs_integrand)(top)
    return float(lhs), float(rhs)


def integral_estimate_ratio(data: PFunctionData, q: float, R: float) -> Tuple[float, float]:
    """(lhs, bound_factor) for the ball estimates on v at the radius R.

    ``q`` picks the part: part "i" integrates v^{-q}(v'^2 + 1) over B_R when
    2 <= q < m/2+1, part "ii" integrates v^{-q} for the other q in
    [0, m/2+1], and a q outside that range raises ``q-out-of-range``.  The
    bound factor is mu(B_{2R}) R^{-q}; the interesting content is that
    lhs/bound stays bounded over sweeps in R.
    """
    m = data.m
    if not 0.0 <= q <= m / 2.0 + 1.0:
        raise QOutOfRangeError(
            f"q must satisfy 0 <= q <= m/2+1 = {m / 2.0 + 1.0:.12g}, got q = {q}")
    part = "i" if 2.0 <= q < m / 2.0 + 1.0 else "ii"

    M, v = data.manifold, data.v
    if not covers(M.grid.r_max, 2.0 * R):
        raise OutOfGridError("the bound factor needs 2R inside the grid")

    def integrand(s):
        vv, S = v(s), M.area_density(s)
        if part == "i":
            return vv ** (-q) * (v(s, 1) ** 2 + 1.0) * S
        return vv ** (-q) * S

    acc = _weighted_antiderivative(data, ("est", part, q), integrand)
    lhs = unit_sphere_area(M.d) * acc(R)
    bound = weighted_volume(M, 2.0 * R) * np.asarray(R, dtype=float) ** (-q)
    return float(lhs), float(bound)


def cheng_yau_ratio(profile: SolutionProfile, n: float, R: float) -> float:
    """sup_{B_R} (u'/u)^2 divided by 1/R^2 + sup_{B_{2R}} u^{4/(n-2)}.

    Gradient-estimate sweeps assert this stays bounded in R.  Suprema are
    grid maxima (radial profiles realize ball suprema on radii), taken over
    the node values the profile already stores.
    """
    if n <= 2.0:
        raise InvalidVirtualDimensionError(f"the exponent 4/(n-2) needs n > 2, got {n}")
    nodes = profile.manifold.grid.nodes
    if not covers(profile.r_end, 2.0 * R):
        raise OutOfRangeError("need the profile positive on all of B_2R")
    inner = nodes <= R
    u_in = profile.u.values[inner]
    u_out = profile.u.values[nodes <= 2.0 * R]
    if np.any(u_out <= 0.0):
        raise NonpositiveSolutionError("profile must be positive on B_2R")
    du_in = profile.u_prime.values[inner]
    num = float(np.max((du_in / u_in) ** 2))
    expo = 0.0 if math.isinf(n) else 4.0 / (n - 2.0)
    den = 1.0 / R**2 + float(np.max(u_out**expo))
    return num / den


@dataclass(frozen=True)
class SuperharmonicReport:
    """Floor comparison u >= A r^{-(kappa-2)} at the nodes r > R."""

    floor: np.ndarray
    values: np.ndarray
    all_hold: bool


def superharmonic_floor_check(
    profile: SolutionProfile, kappa: float, R: float
) -> SuperharmonicReport:
    """Positive L-superharmonic profiles dominate A / r^{kappa-2} outside B_R,
    with A = R^{kappa-2} u(R).

    Superharmonicity (Lu <= 0) is verified on the grid first and
    ``superharmonicity-violated`` is raised when it fails; a 1e-12 relative
    slack absorbs roundoff in both checks.
    """
    if kappa <= 2.0:
        raise InvalidRangeError(f"the floor needs kappa > 2, got {kappa}")
    M = profile.manifold
    nodes = M.grid.nodes
    keep = (nodes > 0.0) & profile.in_range
    r_all = nodes[keep]
    u_all = profile.u.values[keep]
    if np.any(u_all <= 0.0):
        raise NonpositiveSolutionError("floor comparison needs a positive profile")
    lap = weighted_laplacian_radial(M, profile.u, r_all)
    if np.max(lap) > 1e-12 * (1.0 + np.max(np.abs(lap))):
        raise SuperharmonicityError(
            f"profile is not superharmonic: max Lu = {np.max(lap):.3e}"
        )
    if not (0.0 < R <= r_all[-1]):
        raise OutOfRangeError(f"R must lie inside the positive range (0, {r_all[-1]:.6g}]")
    A = R ** (kappa - 2.0) * profile.u(R)
    tail = r_all > R  # at r = R the floor is u(R), by the choice of A
    values = u_all[tail]
    floor = A * r_all[tail] ** (-(kappa - 2.0))
    return SuperharmonicReport(
        floor=floor, values=values, all_hold=bool(np.all(values >= floor * (1.0 - 1e-12)))
    )


# ------------------------------------------------------------------ cutoffs


def radial_cutoff(R: float, M: ModelManifold) -> RadialFunction:
    """C^2 bump: 1 on [0, R], 0 beyond 2R, quintic ramp in between.

    Scaling gives |phi'| <= (15/8)/R and |phi''| <= C/R^2 with constants
    independent of R, and phi'^2 <= C phi / R^2 (the ramp vanishes to third
    order at its outer end).
    """
    if R <= 0.0:
        raise InvalidRangeError("cutoff radius must be positive")
    if not covers(M.grid.r_max, 2.0 * R):
        raise OutOfGridError("cutoff support [0, 2R] must fit inside the grid")

    def t_of(r):
        return (r - R) / R

    def phi(r):
        return 1.0 - _smoothstep(t_of(r))

    def dphi(r):
        return -_smoothstep(t_of(r), 1) / R

    def ddphi(r):
        return -_smoothstep(t_of(r), 2) / R**2

    return sample(phi, M.grid, derivs=(dphi, ddphi))
