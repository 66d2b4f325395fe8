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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidAlphaError, InvalidDimensionError, InvalidRangeError
from .geometry import (
    ModelManifold,
    RadialGrid,
    _weight_from_flux,
    comparison_report,
    ric_infinity_components,
    unit_sphere_area,
    warping_slope_energy,
    weighted_volume,
)
from .lane_emden import (
    SolutionProfile,
    asymptotic_bound_check,
    pohozaev_slope_factor,
    solve_radial,
)
from .radial_core import finite_difference, make_grid, sample

# Unused here since build_example assembles its weight from a closed-form
# flux, but kept bound on this module: perfbench/tracing.py instruments
# ``bel.construction.weight_from_warping`` and ``.indefinite_gauss``.
from .geometry import weight_from_warping  # noqa: E402,F401
from .radial_core import indefinite_gauss  # noqa: E402,F401

__all__ = [
    "DEFAULT_ALPHA",
    "TheoremReport",
    "build_example",
    "verify_theorem",
    "condition_checks",
    "critical_exponent",
]

DEFAULT_ALPHA = 0.5

#: Below this radius build_example's flux uses the series of its bracket.
_FLUX_SERIES_RADIUS = 0.1
#: (-1)^k C(k+2, 2) / (2k+3), k = 0..11: the bracket's series in r^2 over 8 r^3;
#: at r = 0.1 the first omitted term is below 1e-19 of the sum.
_FLUX_SERIES = np.array([(-1) ** k * (k + 2) * (k + 1) / (2.0 * (2 * k + 3)) for k in range(12)])


def critical_exponent(d: int) -> float:
    """Sobolev-critical power (d+2)/(d-2) for d >= 3."""
    if d <= 2:
        raise InvalidDimensionError(f"critical exponent needs d >= 3, got {d}")
    return (d + 2.0) / (d - 2.0)


def default_grid() -> RadialGrid:
    """Geometric grid reaching r = 10^3, resolving both pole and tail."""
    return make_grid(1e-3, 1e3, 4096, "geometric")


def build_example(
    d: int,
    alpha: float = DEFAULT_ALPHA,
    f0: float = 0.0,
    grid: Optional[RadialGrid] = None,
) -> ModelManifold:
    """Assemble the concave-warping manifold with its recipe weight.

    The warping derivatives are supplied in closed form:

        psi'   = alpha + (1-alpha) (r^2+1)^{-3/2}
        psi''  = -3 (1-alpha) r (r^2+1)^{-5/2}
        psi''' = -3 (1-alpha) (1 - 4 r^2) (r^2+1)^{-7/2}

    so psi'''(0) = -3(1-alpha) < 0 and alpha r < psi < r for r > 0.

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

    def psi(r):
        rr = np.asarray(r, dtype=float)
        return a * rr + b * rr / np.sqrt(rr**2 + 1.0)

    def dpsi(r):
        rr = np.asarray(r, dtype=float)
        return a + b * (rr**2 + 1.0) ** (-1.5)

    def ddpsi(r):
        rr = np.asarray(r, dtype=float)
        return -3.0 * b * rr * (rr**2 + 1.0) ** (-2.5)

    def dddpsi(r):
        rr = np.asarray(r, dtype=float)
        return -3.0 * b * (1.0 - 4.0 * rr**2) * (rr**2 + 1.0) ** (-3.5)

    def flux(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        q = rr**2 + 1.0
        bracket = np.arctan(rr) + rr * (rr**2 - 1.0) / q**2
        small = rr < _FLUX_SERIES_RADIUS
        if np.any(small):
            s = rr[small]
            bracket[small] = 8.0 * s**3 * np.polynomial.polynomial.polyval(s**2, _FLUX_SERIES)
        out = -a * b * rr**3 / q**1.5 - 0.375 * b**2 * bracket
        return out if np.ndim(r) else float(out[0])

    warping = sample(psi, grid, derivs=(dpsi, ddpsi, dddpsi))
    weight = _weight_from_flux(warping, int(d), f0, flux, (psi, dpsi, ddpsi))
    return ModelManifold(
        d=int(d), psi=warping, f=weight, f0=f0, alpha=a, weight_from_psi=True
    )


# ------------------------------------------------------------------ report


@dataclass(frozen=True)
class TheoremReport:
    """All property flags for one (d, alpha, p, ell) instance.

    Every flag is oriented so that True means 'verified as claimed'; in
    particular ``sharp_comparison_fails`` is True when the sharp
    distance-Laplacian comparison is violated at every positive node, which
    is the advertised behaviour.
    """

    manifold: ModelManifold
    p: float
    ell: float
    profile: Optional[SolutionProfile]
    solver_error: Optional[str]
    diffeo_ok: bool
    ric_r_positive: bool
    ric_theta_positive: bool
    slope_factor_max: float
    slope_factor_nonpositive: bool
    global_positive: bool
    u_center_ok: bool
    u_decreasing: bool
    gradient_product_positive: bool
    chi_min: float
    chi_positive: bool
    psi_cap_min: float
    psi_cap_positive: bool
    sharp_comparison_fails: bool
    rough_observed: float
    rough_bound: float
    rough_comparison_holds: bool
    volume_comparison: bool
    C1: float
    C2: float
    asymptotic_C: float
    asymptotic_bound_holds: bool
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    condition_iii_residual: float
    f_sup: float
    f_bounded: bool
    flux_tail_exponent: float

    @property
    def all_ok(self) -> bool:
        return all(
            getattr(self, name)
            for name in (
                "diffeo_ok",
                "ric_r_positive",
                "ric_theta_positive",
                "slope_factor_nonpositive",
                "global_positive",
                "u_center_ok",
                "u_decreasing",
                "gradient_product_positive",
                "chi_positive",
                "psi_cap_positive",
                "sharp_comparison_fails",
                "rough_comparison_holds",
                "volume_comparison",
                "asymptotic_bound_holds",
                "condition_i",
                "condition_ii",
                "condition_iii",
                "f_bounded",
            )
        )


def _require_recipe_manifold(M: ModelManifold) -> None:
    if not M.weight_from_psi or M.alpha is None:
        raise InvalidRangeError(
            "expected a manifold assembled by build_example (warping-derived weight)"
        )


def _condition_data(M: ModelManifold) -> dict:
    """Grid data for the three pointwise curvature conditions."""
    r = M.grid.nodes[M.grid.nodes > 0.0]
    ric_r, ric_th = ric_infinity_components(M, r)
    psi = M.psi_at(r)
    dpsi = M.psi_at(r, 1)
    ddpsi = M.psi_at(r, 2)
    df = M.f_at(r, 1)

    # residual of the weight ODE f'' + 2 psi'/psi f' = (d-1) psi''/psi,
    # measured by finite-differencing the f' samples (not the f'' callback,
    # which satisfies the relation by construction)
    df_nodes = np.asarray(M.f_at(M.grid.nodes, 1), dtype=float)
    fd_ddf = finite_difference(df_nodes, M.grid, order=1)[M.grid.nodes > 0.0]
    rhs = (M.d - 1) * ddpsi / psi - 2.0 * dpsi * df / psi
    scale = 1.0 + np.abs(rhs)
    residual = np.abs(fd_ddf - rhs) / scale
    h_local = M.grid.local_steps[M.grid.nodes > 0.0]
    interior = slice(2, -2)  # finite-difference edge stencils excluded

    defect = np.asarray(ric_r) + 2.0 * dpsi * df / psi - df**2 / (M.d - 1)
    return {
        "r": r,
        "ric_r": np.asarray(ric_r),
        "ric_theta": np.asarray(ric_th),
        "defect": defect,
        "residual": residual,
        "residual_tol": 100.0 * h_local**2,
        "interior": interior,
    }


def condition_checks(M: ModelManifold):
    """(i, ii, iii): positive radial and angular curvature, and the defect
    inequality Ric_r <= -2 psi' f'/psi + (f')^2/(d-1) up to grid tolerance."""
    _require_recipe_manifold(M)
    data = _condition_data(M)
    i = bool(np.all(data["ric_r"] > 0.0))
    ii = bool(np.all(data["ric_theta"] > 0.0))
    inner = data["interior"]
    iii = bool(
        np.all(data["defect"] <= data["residual_tol"])
        and np.all(data["residual"][inner] <= data["residual_tol"][inner])
    )
    return i, ii, iii


def _flux_tail_exponent(M: ModelManifold) -> float:
    """Fitted log-log slope of |int_0^r psi'' psi| on the top decade.

    The flux converges to a negative constant, so the fitted exponent should
    sit near zero -- comfortably below the o(r^{1/2}) requirement that keeps
    f bounded.
    """
    nodes = M.grid.nodes
    tail = nodes[nodes >= M.grid.r_max / 10.0]
    # the recipe weight is f' = (d-1) F / psi^2, so F is read back from f'
    flux = np.abs(np.asarray(M.f_at(tail, 1)) * M.psi_at(tail) ** 2 / (M.d - 1))
    return float(np.polyfit(np.log(tail), np.log(flux), 1)[0])


def verify_theorem(
    M: ModelManifold,
    p: float,
    ell: float,
    tol: float = 1e-10,
) -> TheoremReport:
    """Run the full verification pipeline and collect every flag.

    Solver failures are recorded in the report (``solver_error``) rather than
    raised, so a report is always produced.
    """
    _require_recipe_manifold(M)
    d, alpha = M.d, float(M.alpha)
    grid = M.grid
    nodes = grid.nodes
    pos = nodes > 0.0
    r = nodes[pos]

    # -- warping invariants (the diffeomorphism-to-R^d side) ---------------
    psi0 = float(M.psi_at(0.0))
    dpsi0 = float(M.psi_at(0.0, 1))
    ddpsi0 = float(M.psi_at(0.0, 2))
    psi_r = M.psi_at(r)
    diffeo_ok = (
        abs(psi0) <= 1e-14
        and abs(dpsi0 - 1.0) <= 1e-12
        and abs(ddpsi0) <= 1e-12
        and bool(np.all(M.psi_at(r, 1) > 0.0))
        and bool(np.all((alpha * r < psi_r) & (psi_r < r)))
    )

    # -- curvature and the three pointwise conditions ----------------------
    cond = _condition_data(M)
    condition_i = bool(np.all(cond["ric_r"] > 0.0))
    condition_ii = bool(np.all(cond["ric_theta"] > 0.0))
    inner = cond["interior"]
    iii_residual = float(np.max(cond["residual"][inner]))
    condition_iii = bool(
        np.all(cond["defect"] <= cond["residual_tol"])
        and np.all(cond["residual"][inner] <= cond["residual_tol"][inner])
    )

    # -- Pohozaev slope factor --------------------------------------------
    K = np.asarray(pohozaev_slope_factor(M, p, r))
    slope_factor_max = float(K.max())
    slope_factor_nonpositive = slope_factor_max <= 1e-8

    # -- the shot and its pointwise properties -----------------------------
    profile: Optional[SolutionProfile] = None
    solver_error: Optional[str] = None
    try:
        profile = solve_radial(M, p, ell, tol=tol)
    except Exception as exc:  # noqa: BLE001 - failures become report entries
        solver_error = f"{type(exc).__name__}: {exc}"

    C1 = float(np.exp(-np.max(M.f.values)))
    C2 = float(np.exp(-np.min(M.f.values)))
    asymptotic_C = ((p - 1.0) / (2.0 * d)) * (C1 / C2) * alpha ** (d - 1)

    if profile is not None and profile.global_positive:
        global_positive = True
        u_center_ok = abs(float(profile.u(0.0)) - ell) <= 1e-10 * max(1.0, ell)
        du = np.asarray(profile.u_prime(r))
        u_decreasing = bool(np.all(du < 0.0))
        df = np.asarray(M.f_at(r, 1))
        gradient_product_positive = bool(np.all(df * du > 0.0))
        asymptotic_bound_holds = asymptotic_bound_check(profile, asymptotic_C).all_hold
    else:
        global_positive = False
        u_center_ok = u_decreasing = gradient_product_positive = False
        asymptotic_bound_holds = False

    # -- comparison geometry ----------------------------------------------
    chi = np.asarray(warping_slope_energy(M)(r)) - psi_r**2 / r
    chi_min = float(chi.min())
    chi_positive = chi_min > 0.0

    dpsi_r = M.psi_at(r, 1)
    df_r = np.asarray(M.f_at(r, 1))
    psi_cap = (d - 2.0) * (1.0 - dpsi_r**2) + psi_r * dpsi_r * df_r
    psi_cap_min = float(psi_cap.min())
    psi_cap_positive = psi_cap_min > 0.0

    comparison = comparison_report(M, grid.r_max)
    sharp_comparison_fails = chi_positive and not comparison.sharp_laplacian_holds
    rough_observed = comparison.rough_constant
    rough_bound = (d - 1.0) / alpha**2
    rough_comparison_holds = rough_observed <= rough_bound + 1e-8

    r_ball = r[r >= grid.r_min]
    vols = np.asarray(weighted_volume(M, r_ball))
    euclid_cap = (C2 / d) * unit_sphere_area(d) * r_ball**d
    volume_comparison = bool(np.all(vols <= euclid_cap * (1 + 1e-9)))

    f_sup = float(np.max(np.abs(M.f.values - M.f0)))
    f_bounded = bool(np.isfinite(f_sup))
    flux_tail_exponent = _flux_tail_exponent(M)
    f_bounded = f_bounded and flux_tail_exponent < 0.5

    return TheoremReport(
        manifold=M,
        p=float(p),
        ell=float(ell),
        profile=profile,
        solver_error=solver_error,
        diffeo_ok=diffeo_ok,
        ric_r_positive=condition_i,
        ric_theta_positive=condition_ii,
        slope_factor_max=slope_factor_max,
        slope_factor_nonpositive=slope_factor_nonpositive,
        global_positive=global_positive,
        u_center_ok=u_center_ok,
        u_decreasing=u_decreasing,
        gradient_product_positive=gradient_product_positive,
        chi_min=chi_min,
        chi_positive=chi_positive,
        psi_cap_min=psi_cap_min,
        psi_cap_positive=psi_cap_positive,
        sharp_comparison_fails=sharp_comparison_fails,
        rough_observed=rough_observed,
        rough_bound=rough_bound,
        rough_comparison_holds=rough_comparison_holds,
        volume_comparison=volume_comparison,
        C1=C1,
        C2=C2,
        asymptotic_C=asymptotic_C,
        asymptotic_bound_holds=asymptotic_bound_holds,
        condition_i=condition_i,
        condition_ii=condition_ii,
        condition_iii=condition_iii,
        condition_iii_residual=iii_residual,
        f_sup=f_sup,
        f_bounded=f_bounded,
        flux_tail_exponent=flux_tail_exponent,
    )
