"""Explicit concave-warping manifold with positive curvature that still
carries global positive solutions at critical and supercritical exponents.

The warping is

    psi(r) = alpha r + (1 - alpha) r / sqrt(r^2 + 1),        0 < alpha < 1,

concave with psi'(0) = 1 and slope alpha at infinity; the weight comes from
:func:`bel.geometry.weight_from_warping`, which makes the radial curvature
positive while keeping f bounded.  ``verify_theorem`` machine-checks the whole
advertised property list on a grid: curvature signs, nonpositive Pohozaev
slope factor, global positivity of the shot, monotonicity, the failure of the
sharp distance-Laplacian comparison next to the success of the rough one, the
Euclidean-type volume bound, and the explicit asymptotic upper bound on u.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BlowupError, InvalidAlphaError, InvalidDimensionError, InvalidRangeError
from .geometry import (
    ModelManifold,
    RadialGrid,
    RadialJet,
    _weight_from_flux,
    comparison_report,
    unit_sphere_area,
    warping_slope_energy,
    weighted_volume,
)
from .lane_emden import (
    SlopeFactorTerms,
    SolutionProfile,
    asymptotic_bound_check,
    pohozaev_slope_factor,
    slope_factor_terms,
    solve_radial,
)
from .radial_core import finite_difference, grid_tolerance, make_grid, sample

# Unused here (build_example's flux is closed-form, _manifold_checks reads one
# RadialJet), but kept bound: perfbench/tracing.py instruments these three
# names on ``bel.construction``.
from .geometry import ric_infinity_components, weight_from_warping  # noqa: E402,F401
from .radial_core import indefinite_gauss  # noqa: E402,F401

DEFAULT_ALPHA = 0.5
DEFAULT_GRID = (1e-3, 1e3, 4096, "geometric")  # make_grid arguments of default_grid

#: Below this radius build_example's flux uses the series of its bracket.
_FLUX_SERIES_RADIUS = 0.1
#: (-1)^k C(k+2, 2) / (2k+3), k = 0..11: the bracket's series in r^2 over 8 r^3;
#: at r = 0.1 the first omitted term is below 1e-19 of the sum.
_FLUX_SERIES = np.array([(-1) ** k * (k + 2) * (k + 1) / (2.0 * (2 * k + 3)) for k in range(12)])
#: The same coefficients, highest order first, as floats for the scalar drift.
_FLUX_SERIES_HORNER = tuple(float(c) for c in _FLUX_SERIES[::-1])


def default_grid() -> RadialGrid:
    """Geometric grid reaching r = 10^3, resolving both pole and tail."""
    return make_grid(*DEFAULT_GRID)


def build_example(
    d: int,
    alpha: float = DEFAULT_ALPHA,
    grid: Optional[RadialGrid] = None,
) -> ModelManifold:
    """Assemble the concave-warping manifold with its recipe weight.

    The warping derivatives are supplied in closed form:

        psi'  = alpha + (1-alpha) (r^2+1)^{-3/2}
        psi'' = -3 (1-alpha) r (r^2+1)^{-5/2}

    so psi'' < 0 and alpha r < psi < r for r > 0.

    The weight is the one :func:`bel.geometry.weight_from_warping` defines,
    but its flux is elementary too (a = alpha, b = 1 - alpha):

        F(r) = int_0^r psi'' psi
             = -a b r^3 / (r^2+1)^{3/2} - (3 b^2/8) [arctan r + r (r^2-1)/(r^2+1)^2]

    so ``f' = (d-1) F/psi^2`` and ``f''`` cost no quadrature, and ``f`` is a
    single quadrature level over ``f'``.  The bracket is ``O(r^3)`` while its
    two terms are ``O(r)``, so below ``r = 0.1`` it is replaced by its series

        8 sum_k (-1)^k C(k+2, 2) r^{2k+3} / (2k+3)

    (in Horner form, truncated where the terms drop below double precision),
    which keeps ``f'`` at full relative accuracy up to the pole.
    """
    if int(d) != d or d < 3:
        raise InvalidDimensionError(f"need an integer dimension d >= 3, got {d}")
    if not (0.0 < alpha < 1.0):
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")
    if grid is None:
        grid = default_grid()
    a, b = float(alpha), 1.0 - float(alpha)

    # Past r ~ 1e154 the squares below overflow.  psi and its derivatives
    # still reach their limits there; the flux turns non-finite, and the
    # volume table reports the area density that follows as invalid-range.
    def psi(r):
        with np.errstate(over="ignore"):
            return a * r + b * r / np.sqrt(r**2 + 1.0)

    def dpsi(r):
        with np.errstate(over="ignore"):
            return a + b * (r**2 + 1.0) ** (-1.5)

    def ddpsi(r):
        with np.errstate(over="ignore"):
            return -3.0 * b * r * (r**2 + 1.0) ** (-2.5)

    def flux(r):
        rr = np.atleast_1d(r)
        with np.errstate(over="ignore", invalid="ignore"):
            q = rr**2 + 1.0
            bracket = np.arctan(rr) + rr * (rr**2 - 1.0) / q**2
            small = rr < _FLUX_SERIES_RADIUS
            if np.any(small):
                s = rr[small]
                bracket[small] = 8.0 * s**3 * np.polynomial.polynomial.polyval(s**2, _FLUX_SERIES)
            return -a * b * rr**3 / q**1.5 - 0.375 * b**2 * bracket

    def scalar_drift(r):
        # (d-1) psi'/psi - f' at one radius, the operations of psi, dpsi,
        # flux and the f' of _weight_from_flux on Python floats (** and math
        # for the ufuncs); a power past the float range raises here
        r2, r3 = r * r, r**3
        q = r2 + 1.0
        psi_r = a * r + b * r / math.sqrt(q)
        dpsi_r = a + b * q ** (-1.5)
        if r < _FLUX_SERIES_RADIUS:
            series = 0.0
            for c in _FLUX_SERIES_HORNER:  # polyval's Horner loop
                series = c + series * r2
            bracket = 8.0 * r3 * series
        else:
            bracket = math.atan(r) + r * (r2 - 1.0) / (q * q)
        F = -a * b * r3 / q**1.5 - 0.375 * b**2 * bracket
        return (d - 1) * dpsi_r / psi_r - (d - 1) * F / (psi_r * psi_r)

    warping = sample(psi, grid, derivs=(dpsi, ddpsi))
    weight = _weight_from_flux(warping, int(d), flux)
    return ModelManifold(
        d=int(d), psi=warping, f=weight, alpha=a, weight_from_psi=True, scalar_drift=scalar_drift
    )


# ------------------------------------------------------------------ report


#: The comparison a check's ``sense`` names, ``measured <sense> tolerance``.
_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: The reference of every shot's ``solve`` check.
SOLVE = "-u'' - L r u' = u^p, u(0) = ell"


@dataclass(frozen=True)
class Check:
    """One named check of report.json, whose verdict follows from its fields.

    It passes when ``reason`` (why it failed, found other than by the
    comparison) is empty and either it has no ``tolerance`` or ``measured``
    is finite and ``measured <sense> tolerance`` holds.  Three checks carry
    no tolerance, so their reason alone decides: ``solve`` and
    ``zero-crossing`` (measuring where the shot ended or crossed) and
    ``asymptotic-bound`` (measuring the bound's constant C).
    """

    name: str
    reference: str
    measured: Optional[float] = None
    tolerance: Optional[float] = None
    sense: str = "<="
    reason: str = ""

    def __post_init__(self) -> None:
        for key in ("measured", "tolerance"):
            value = getattr(self, key)
            if value is not None:
                object.__setattr__(self, key, float(value))

    @property
    def verdict(self) -> bool:
        if self.reason:
            return False
        if self.tolerance is None:
            return True
        return (self.measured is not None and math.isfinite(self.measured)
                and _SENSES[self.sense](self.measured, self.tolerance))

    def as_dict(self) -> dict:
        """The schema-1 report.json entry: the reason ends the reference."""
        failed = f"; failed: {self.reason}" if self.reason else ""
        return {"name": self.name, "reference": self.reference + failed, "verdict": self.verdict,
                "measured": self.measured, "tolerance": self.tolerance}


@dataclass(frozen=True)
class TheoremReport:
    """The theorem checks for one (d, alpha, p, ell) instance.

    Every verdict is oriented so that True means 'verified as claimed'; in
    particular ``chi-positive`` holds only when the sharp distance-Laplacian
    comparison is also violated, which is the advertised behaviour.
    """

    manifold: ModelManifold
    profile: Optional[SolutionProfile]
    solver_error: Optional[str]
    checks: Tuple[Check, ...]
    #: the Pohozaev slope factor K at the positive grid nodes, the samples
    #: behind ``slope-factor-nonpositive``
    slope_factor: np.ndarray
    #: Ric^r and Ric^theta at the positive grid nodes, the samples behind
    #: the two ``ricci-*`` checks
    ric_r: np.ndarray
    ric_theta: np.ndarray

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _flux_tail_exponent(jet: RadialJet) -> float:
    """Fitted log-log slope of |int_0^r psi'' psi| on the top decade of the
    jet's radii.

    The flux converges to a negative constant, so the fitted exponent should
    sit near zero -- comfortably below the o(r^{1/2}) requirement that keeps
    f bounded.
    """
    tail = jet.r >= jet.r[-1] / 10.0
    # the recipe weight is f' = (d-1) F / psi^2, so F is read back from f'
    flux = np.abs(jet.df[tail] * jet.psi[tail] ** 2 / (jet.d - 1))
    return float(np.polyfit(np.log(jet.r[tail]), np.log(flux), 1)[0])


@dataclass(frozen=True)
class _ManifoldChecks:
    """What :func:`verify_theorem` computes from the manifold alone: the
    checks that do not look at the shot, and the samples at the positive grid
    nodes that the per-``(p, ell)`` checks and the scenario columns read.
    Kept on the manifold, as ``M._cache["theorem"]``, by :func:`verify_theorem`.
    """

    #: diffeomorphism, ricci-radial-positive, ricci-tangential-positive,
    #: chi-positive, psi-cap-positive, rough-comparison, volume-comparison,
    #: weight-ode and weight-bounded, in report order
    checks: Tuple[Check, ...]
    df: np.ndarray
    ric_r: np.ndarray
    ric_theta: np.ndarray
    slope_terms: SlopeFactorTerms
    #: C1 / C2 = exp(-max f) / exp(-min f), the weight factor of the
    #: asymptotic bound's constant
    weight_ratio: float


def _manifold_checks(M: ModelManifold) -> _ManifoldChecks:
    d, alpha = M.d, float(M.alpha)
    grid = M.grid
    pos = grid.nodes > 0.0
    r = grid.nodes[pos]
    jet = RadialJet(M, r)  # every profile value at the positive nodes
    psi_r, dpsi_r, df_r = jet.psi, jet.dpsi, jet.df

    # -- warping invariants (the diffeomorphism-to-R^d side) ---------------
    if not (abs(M.psi(0.0)) <= 1e-14 and abs(M.psi(0.0, 1) - 1.0) <= 1e-12
            and abs(M.psi(0.0, 2)) <= 1e-12):
        diffeo_reason = "psi, psi' or psi'' is off at the pole"
    elif not np.all((alpha * r < psi_r) & (psi_r < r)):
        diffeo_reason = "alpha r < psi < r fails"
    else:
        diffeo_reason = ""

    # -- curvature and the three pointwise conditions ----------------------
    # (i) Ric^r > 0, (ii) Ric^theta > 0, (iii) the curvature defect
    # G = Ric^r + 2 psi' f'/psi - (f')^2/(d-1) <= 0 up to grid tolerance,
    # together with the residual of the weight ODE
    # f'' + 2 psi'/psi f' = (d-1) psi''/psi measured by finite-differencing
    # the f' samples (not the f'' callback, which satisfies the relation by
    # construction)
    ric_r, ric_th = jet.ric_r, jet.ric_theta
    with np.errstate(over="ignore"):  # steps past ~1e154: checked below
        fd_ddf = finite_difference(M.f(grid.nodes, 1), grid)[pos]
        residual_tol = grid_tolerance(grid, 100.0)[pos]
    rhs = (d - 1) * jet.ddpsi / psi_r - 2.0 * dpsi_r * df_r / psi_r
    residual = np.abs(fd_ddf - rhs) / (1.0 + np.abs(rhs))
    inner = slice(2, -2)  # finite-difference edge stencils excluded
    ode_ratio = np.max(residual[inner] / residual_tol[inner])
    ode_reason = ("" if np.all(jet.curvature_defect <= residual_tol)
                  else "the positivity criterion fails")

    # -- the p-independent terms of the Pohozaev slope factor --------------
    slope_terms = slope_factor_terms(M, r)

    # f decreases from f(0) = 0, so C2 = e^(-min f) >= 1 never underflows
    C1 = float(np.exp(-np.max(M.f.values)))
    C2 = float(np.exp(-np.min(M.f.values)))

    # -- comparison geometry ----------------------------------------------
    chi = warping_slope_energy(M)(r) - psi_r**2 / r
    psi_cap = (d - 2.0) * (1.0 - dpsi_r**2) + psi_r * dpsi_r * df_r
    comparison = comparison_report(M)

    vols = weighted_volume(M, r)
    euclid_cap = (C2 / d) * unit_sphere_area(d) * r**d

    f_sup = float(np.max(np.abs(M.f.values)))
    f_finite = math.isfinite(f_sup)

    checks = (
        Check("diffeomorphism", "psi(0)=0, psi'(0)=1, psi''(0)=0, alpha r < psi < r",
              np.min(dpsi_r), 0.0, ">", diffeo_reason),
        Check("ricci-radial-positive", "Ric^r = -(d-1) psi''/psi + f'' > 0",
              np.min(ric_r), 0.0, ">"),
        Check("ricci-tangential-positive", "Ric^theta > 0", np.min(ric_th), 0.0, ">"),
        Check("chi-positive", "chi = int_0^r psi'^2 - psi^2/r > 0 (sharp comparison fails)",
              chi.min(), 0.0, ">",
              "the sharp comparison holds" if comparison.sharp_laplacian_holds else ""),
        Check("psi-cap-positive", "(d-2)(1 - psi'^2) + psi psi' f' > 0",
              psi_cap.min(), 0.0, ">"),
        Check("rough-comparison", "L r <= (d-1)/(alpha^2 r)",
              comparison.rough_constant, (d - 1.0) / alpha**2 + 1e-8),
        Check("volume-comparison", "mu(B_R) <= (C_2/d) |S^{d-1}| R^d",
              np.max(vols / euclid_cap), 1 + 1e-9),
        Check("weight-ode", "f'' + 2 (psi'/psi) f' = (d-1) psi''/psi",
              ode_ratio, 1.0, reason=ode_reason),
        Check("weight-bounded", "sup |f| < inf (flux integral converges)",
              _flux_tail_exponent(jet) if f_finite else None, 0.5, "<",
              "" if f_finite else f"sup |f| = {f_sup}"),
    )
    return _ManifoldChecks(checks=checks, df=df_r, ric_r=ric_r, ric_theta=ric_th,
                           slope_terms=slope_terms, weight_ratio=C1 / C2)


def verify_theorem(
    M: ModelManifold,
    p: float,
    ell: float,
    tol: float = 1e-10,
) -> TheoremReport:
    """Run the full verification pipeline and collect every check.

    The checks that depend on the manifold alone are computed at the first
    call on ``M`` and kept on it; each call shoots, forms the slope factor
    and runs the checks that read the shot.  A shot that blows up is recorded
    in the report (``solver_error``) rather than raised; any other solver
    error, such as ``p <= 1`` or ``ell <= 0``, propagates.
    """
    if not M.weight_from_psi or M.alpha is None:
        raise InvalidRangeError(
            "expected a manifold assembled by build_example (warping-derived weight)"
        )
    d, alpha = M.d, float(M.alpha)
    if "theorem" not in M._cache:  # an error here propagates and caches nothing
        M._cache["theorem"] = _manifold_checks(M)
    record = M._cache["theorem"]
    (diffeomorphism, ricci_radial, ricci_tangential, chi, psi_cap, rough, volume,
     weight_ode, weight_bounded) = record.checks

    # -- the shot first: solve_radial rejects p <= 1 and ell <= 0 ---------
    profile: Optional[SolutionProfile] = None
    solver_error: Optional[str] = None
    try:
        profile = solve_radial(M, p, ell, tol=tol)
    except BlowupError as exc:
        solver_error = f"{type(exc).__name__}: {exc}"

    # -- Pohozaev slope factor --------------------------------------------
    slope_factor_K = pohozaev_slope_factor(record.slope_terms, p)

    asymptotic_C = ((p - 1.0) / (2.0 * d)) * record.weight_ratio * alpha ** (d - 1)

    # the checks that read the shot fail, saying why, unless it is global-positive
    reason = solver_error if profile is None else "" if profile.global_positive else profile.status
    du_max = product_min = None
    bound_reason = reason
    if not reason:
        du = profile.u_prime.values[M.grid.nodes > 0.0]
        du_max, product_min = np.max(du), np.min(record.df * du)
        # a positive solution has u' < 0 for r > 0: an all-zero u' is an
        # underflowed profile, on which any bound on u holds trivially
        if not np.any(du):
            bound_reason = "u' = 0 at every positive node"
        elif not asymptotic_bound_check(profile, asymptotic_C):
            bound_reason = "u exceeds the bound at a node"

    checks = (
        Check("solve", SOLVE, None if profile is None else profile.r_end, reason=reason),
        diffeomorphism,
        ricci_radial,
        ricci_tangential,
        Check("slope-factor-nonpositive", "P' = K u'^2 with K = (1/2 + 1/(p+1)) S - (S'/S) V",
              np.max(slope_factor_K), 1e-8),
        Check("u-decreasing", "u' < 0 for r > 0", du_max, 0.0, "<", reason),
        Check("gradient-product-positive", "f' u' > 0 for r > 0", product_min, 0.0, ">", reason),
        chi,
        psi_cap,
        rough,
        volume,
        Check("asymptotic-bound", "u <= (C r^2 + ell^{1-p})^{-1/(p-1)}", asymptotic_C,
              reason=bound_reason),
        weight_ode,
        weight_bounded,
    )
    return TheoremReport(
        manifold=M,
        profile=profile,
        solver_error=solver_error,
        checks=checks,
        slope_factor=slope_factor_K,
        ric_r=record.ric_r,
        ric_theta=record.ric_theta,
    )
