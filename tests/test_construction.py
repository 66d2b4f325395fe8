"""Concave-warping construction: closed-form oracles and the property flags."""

import numpy as np
import pytest
from scipy.integrate import quad

from bel.construction import (
    build_example,
    condition_checks,
    critical_exponent,
    verify_theorem,
)
from bel.errors import InvalidAlphaError, InvalidDimensionError, InvalidRangeError
from bel.geometry import euclidean, weight_from_warping
from bel.radial_core import make_grid, pole_refined_partition


def small_grid():
    return make_grid(1e-3, 100.0, 1025, "geometric")


@pytest.fixture(scope="module")
def example3():
    return build_example(3, 0.5, grid=small_grid())


def closed_form_flux(r, alpha):
    """int_0^r psi'' psi in closed form for the explicit warping.

    psi'' psi = -3(1-a)[ a r^2 (r^2+1)^{-5/2} + (1-a) r^2 (r^2+1)^{-3} ] and
    both pieces have elementary antiderivatives.
    """
    a, b = alpha, 1.0 - alpha
    I1 = r**3 / (3.0 * (r**2 + 1.0) ** 1.5)
    I2 = (r / (r**2 + 1.0) + np.arctan(r)) / 8.0 - r / (4.0 * (r**2 + 1.0) ** 2)
    return -3.0 * b * (a * I1 + b * I2)


def test_warping_closed_form_values(example3):
    M = example3
    assert M.psi_at(1.0) == pytest.approx(0.5 + 0.5 / np.sqrt(2.0), abs=1e-15)
    assert M.psi_at(0.0, 1) == pytest.approx(1.0, abs=1e-15)
    # third derivative at the pole: -3 (1 - alpha)
    assert M.psi.derivs[2](0.0) == pytest.approx(-1.5, abs=1e-14)
    r = M.grid.nodes
    psi = M.psi_at(r)
    assert np.all(0.5 * r < psi)
    assert np.all(psi < r)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7])
def test_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(InvalidAlphaError):
        build_example(3, alpha)


@pytest.mark.parametrize("d", [2, 1, 3.5])
def test_dimension_validation(d):
    with pytest.raises(InvalidDimensionError):
        build_example(d, 0.5)


def test_weight_slope_matches_flux_oracle(example3):
    """f' = (d-1) * (int psi'' psi) / psi^2 against the elementary antiderivative."""
    M = example3
    d, alpha = 3, 0.5
    for r in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        psi = alpha * r + (1 - alpha) * r / np.sqrt(r**2 + 1.0)
        expected = (d - 1) * closed_form_flux(r, alpha) / psi**2
        got = float(M.f_at(r, 1))
        assert abs(got - expected) < 1e-12 * (1.0 + abs(expected))


def test_weight_value_matches_quadrature_oracle(example3):
    M = example3
    alpha = 0.5

    def fp(s):
        psi = alpha * s + (1 - alpha) * s / np.sqrt(s**2 + 1.0)
        return 2.0 * closed_form_flux(s, alpha) / psi**2

    oracle, _ = quad(fp, 0.0, 2.0, epsabs=1e-13, limit=200)
    assert abs(float(M.f(2.0)) - oracle) < 1e-10


def test_weight_slope_linear_at_the_pole(example3):
    # f'(r)/r -> (d-1) psi'''(0)/3 = -(d-1)(1-alpha)
    got = float(example3.f_at(1e-3, 1)) / 1e-3
    assert abs(got - (-1.0)) < 1e-3


def test_weight_slope_negative_everywhere(example3):
    r = example3.grid.nodes
    assert np.all(np.asarray(example3.f_at(r, 1)) < 0.0)


def test_weight_stays_bounded(example3):
    # f' ~ (d-1) F(inf)/(alpha r)^2, so f converges at rate 1/r: the residual
    # drift over [R/2, R] is at most ~ 2 (d-1) |F(inf)| / (alpha^2 R)
    R = example3.grid.r_max
    assert abs(float(example3.f(R)) - float(example3.f(R / 2.0))) < 0.05
    assert np.all(np.isfinite(example3.f.values))
    assert np.max(np.abs(example3.f.values)) < 2.5


def test_condition_checks_all_pass(example3):
    assert condition_checks(example3) == (True, True, True)


def test_condition_checks_reject_foreign_manifolds():
    flat = euclidean(3, make_grid(0.0, 5.0, 65, "uniform"))
    with pytest.raises(InvalidRangeError):
        condition_checks(flat)


def test_critical_exponent_values():
    assert critical_exponent(3) == 5.0
    assert critical_exponent(4) == 3.0
    assert critical_exponent(5) == pytest.approx(7.0 / 3.0)
    with pytest.raises(InvalidDimensionError):
        critical_exponent(2)


def test_full_report_critical_case(theorem_reports):
    rep = theorem_reports[(3, 0.5, 5.0, 1.0)]
    assert rep.solver_error is None
    assert rep.all_ok
    assert rep.rough_bound == pytest.approx(8.0)
    assert rep.rough_observed < rep.rough_bound
    assert 0.0 < rep.asymptotic_C < (rep.p - 1.0) / (2.0 * rep.manifold.d)
    assert rep.C1 < rep.C2


def test_full_report_supercritical_case(theorem_reports):
    rep = theorem_reports[(3, 0.5, 6.0, 1.0)]
    assert rep.all_ok
    assert rep.profile.status == "global-positive"


def test_report_flags_are_grid_reproducible(theorem_reports):
    """Recomputing a report on the same manifold yields identical flags."""
    rep = theorem_reports[(4, 0.5, 3.0, 2.0)]
    again = verify_theorem(rep.manifold, rep.p, rep.ell)
    assert again.all_ok == rep.all_ok
    assert again.slope_factor_max == rep.slope_factor_max
    assert again.chi_min == rep.chi_min


def test_subcritical_exponent_reports_without_raising(example3):
    # below the critical power the slope factor turns positive at the tail;
    # we only require an honest report, not any particular verdict
    rep = verify_theorem(example3, 4.0, 1.0, tol=1e-9)
    assert isinstance(rep.all_ok, bool)
    assert not rep.slope_factor_nonpositive


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_closed_form_weight_matches_quadrature_path(d, alpha):
    """build_example's closed-form flux against weight_from_warping's quadrature.

    Radii: the pole-refined partition of the default grid and points just
    either side of the r = 0.1 switch to the series branch.  f' is compared
    relative to itself; f'' changes sign near r = 0.8, so it is compared
    relative to the size of the two terms it is the sum of.
    """
    M = build_example(d, alpha)
    generic = weight_from_warping(M.psi, d)
    switch = 0.1
    r = np.concatenate([
        pole_refined_partition(M.grid.nodes)[1:],
        switch * (1.0 + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3])),
        np.nextafter(switch, [0.0, 1.0]),
    ])
    df, df_ref = M.f.derivs[0](r), generic.derivs[0](r)
    assert np.max(np.abs(df - df_ref) / np.abs(df_ref)) <= 1e-12
    ddf, ddf_ref = M.f.derivs[1](r), generic.derivs[1](r)
    terms = (d - 1) * np.abs(M.psi_at(r, 2) / M.psi_at(r)) + 2.0 * np.abs(
        M.psi_at(r, 1) / M.psi_at(r) * df_ref
    )
    assert np.max(np.abs(ddf - ddf_ref) / terms) <= 1e-12
    assert np.max(np.abs(M.f.values - generic.values)) <= 1e-12
    # the pole limit f''(0) = (d-1) psi'''(0)/3 = -(d-1)(1-alpha)
    assert float(M.f_at(0.0, 2)) == pytest.approx(-(d - 1) * (1.0 - alpha), rel=1e-14)
    assert float(M.f_at(1e-9, 2)) == pytest.approx(-(d - 1) * (1.0 - alpha), rel=1e-12)
