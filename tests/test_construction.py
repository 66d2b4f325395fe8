"""Concave-warping construction: closed-form oracles and the property flags."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from bel import construction
from bel.construction import Check, build_example, verify_theorem
from bel.errors import (
    CrossCheckError,
    InvalidAlphaError,
    InvalidDimensionError,
    InvalidRangeError,
    SingularRadiusError,
)
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
    assert M.psi(1.0) == pytest.approx(0.5 + 0.5 / np.sqrt(2.0), abs=1e-15)
    assert M.psi(0.0, 1) == pytest.approx(1.0, abs=1e-15)
    assert M.psi(0.0, 2) == 0.0
    r = M.grid.nodes
    psi = M.psi(r)
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
        got = float(M.f(r, 1))
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
    got = float(example3.f(1e-3, 1)) / 1e-3
    assert abs(got - (-1.0)) < 1e-3


def test_weight_slope_negative_everywhere(example3):
    r = example3.grid.nodes
    assert np.all(np.asarray(example3.f(r, 1)) < 0.0)


def test_weight_stays_bounded(example3):
    # f' ~ (d-1) F(inf)/(alpha r)^2, so f converges at rate 1/r: the residual
    # drift over [R/2, R] is at most ~ 2 (d-1) |F(inf)| / (alpha^2 R)
    R = example3.grid.r_max
    assert abs(float(example3.f(R)) - float(example3.f(R / 2.0))) < 0.05
    assert np.all(np.isfinite(example3.f.values))
    assert np.max(np.abs(example3.f.values)) < 2.5


def test_condition_checks_all_pass(example3):
    """Conditions (i)-(iii): positive radial and angular curvature, and the
    defect inequality with the weight ODE."""
    rep = verify_theorem(example3, 5.0, 1.0)
    for name in ("ricci-radial-positive", "ricci-tangential-positive", "weight-ode"):
        assert rep.check(name).verdict, name


def test_condition_checks_reject_foreign_manifolds():
    flat = euclidean(3, make_grid(0.0, 5.0, 65, "uniform"))
    with pytest.raises(InvalidRangeError):
        verify_theorem(flat, 5.0, 1.0)


def test_full_report_critical_case(theorem_reports):
    rep = theorem_reports[(3, 0.5, 5.0, 1.0)]
    assert rep.solver_error is None
    assert all(c.verdict for c in rep.checks)
    rough = rep.check("rough-comparison")
    assert rough.tolerance == pytest.approx(8.0)
    assert rough.measured < rough.tolerance
    assert 0.0 < rep.check("asymptotic-bound").measured < (5.0 - 1.0) / (2.0 * 3)  # (p - 1) / (2d)
    f = rep.manifold.f.values
    assert np.exp(-np.max(f)) < np.exp(-np.min(f))  # C1 < C2


def test_full_report_supercritical_case(theorem_reports):
    rep = theorem_reports[(3, 0.5, 6.0, 1.0)]
    assert all(c.verdict for c in rep.checks)
    assert rep.profile.status == "global-positive"


def test_report_flags_are_grid_reproducible(theorem_reports):
    """Recomputing a report on the same manifold yields identical checks."""
    rep = theorem_reports[(4, 0.5, 3.0, 2.0)]
    again = verify_theorem(rep.manifold, 3.0, 2.0)
    assert again.checks == rep.checks


@pytest.mark.parametrize("exponents", [(5.0, 6.0), (6.0, 5.0)])
def test_reused_manifold_reports_match_fresh_ones(exponents):
    """verify_theorem keeps the checks that depend on the manifold alone on
    it; a manifold reused across exponents, in either order, reports bit for
    bit what a fresh manifold does."""
    reused = build_example(3, 0.5, grid=small_grid())
    for p in exponents:
        warm = verify_theorem(reused, p, 1.0)
        fresh = verify_theorem(build_example(3, 0.5, grid=small_grid()), p, 1.0)
        assert repr(warm.checks) == repr(fresh.checks)  # repr: exact floats
        assert warm.slope_factor.tobytes() == fresh.slope_factor.tobytes()


def test_failed_manifold_checks_are_not_cached(monkeypatch):
    """An error while the manifold's check record is built propagates, and
    the next call builds the record again instead of reading a partial one."""
    M = build_example(3, 0.5, grid=small_grid())
    calls = []

    def broken(*args):
        calls.append(args)
        raise CrossCheckError("injected")

    monkeypatch.setattr(construction, "comparison_report", broken)
    for _ in range(2):
        with pytest.raises(CrossCheckError):
            verify_theorem(M, 5.0, 1.0)
    assert len(calls) == 2
    monkeypatch.undo()
    fresh = verify_theorem(build_example(3, 0.5, grid=small_grid()), 5.0, 1.0)
    assert repr(verify_theorem(M, 5.0, 1.0).checks) == repr(fresh.checks)


def test_verified_manifold_is_freed_without_the_cyclic_gc():
    """Nothing verify_theorem leaves behind (the check record, the quadrature
    tables kept on M, the solver's own reference cycle) refers back to M, so
    a manifold dies with its last reference, not at a later full collection
    that several dead manifolds would wait for."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        M = build_example(3, 0.5, grid=small_grid())
        assert verify_theorem(M, 5.0, 1.0).profile is not None
        manifold = weakref.ref(M)
        del M
        assert manifold() is None
    finally:
        if enabled:
            gc.enable()


def test_subcritical_exponent_reports_without_raising(example3):
    # below the critical power the slope factor turns positive at the tail;
    # we only require an honest report, not any particular verdict
    rep = verify_theorem(example3, 4.0, 1.0, tol=1e-9)
    assert all(isinstance(c.verdict, bool) for c in rep.checks)
    assert not rep.check("slope-factor-nonpositive").verdict


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
    terms = (d - 1) * np.abs(M.psi(r, 2) / M.psi(r)) + 2.0 * np.abs(
        M.psi(r, 1) / M.psi(r) * df_ref
    )
    assert np.max(np.abs(ddf - ddf_ref) / terms) <= 1e-12
    assert np.max(np.abs(M.f.values - generic.values)) <= 1e-12
    # f'' tends to (d-1) psi'''(0)/3 = -(d-1)(1-alpha) at the pole, a
    # singular radius of the weight ODE it is read from
    assert float(M.f(1e-9, 2)) == pytest.approx(-(d - 1) * (1.0 - alpha), rel=1e-12)
    with pytest.raises(SingularRadiusError):
        M.f(0.0, 2)


# ------------------------------------------------------------ the check rule


@pytest.mark.parametrize("sense,at_equality", [("<", False), ("<=", True), (">", False),
                                               (">=", True)])
def test_check_compares_in_its_sense(sense, at_equality):
    assert Check("c", "ref", 1.0, 1.0, sense).verdict is at_equality
    assert Check("c", "ref", 0.5, 1.0, sense).verdict is (sense in ("<", "<="))
    assert Check("c", "ref", 2.0, 1.0, sense).verdict is (sense in (">", ">="))


@pytest.mark.parametrize("sense", ["<", "<=", ">", ">="])
@pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf, None])
def test_check_never_passes_on_a_non_finite_or_missing_value(sense, measured):
    assert Check("c", "ref", measured, 0.0, sense).verdict is False


@pytest.mark.parametrize("measured,tolerance", [(0.5, 1.0), (None, None), (7.0, None)])
def test_check_reason_fails_it(measured, tolerance):
    assert Check("c", "ref", measured, tolerance).verdict is True
    assert Check("c", "ref", measured, tolerance, reason="why").verdict is False


@pytest.mark.parametrize("measured", [None, 3.0, math.nan, -math.inf])
def test_check_without_tolerance_passes_exactly_without_reason(measured):
    assert Check("c", "ref", measured).verdict is True
    assert Check("c", "ref", measured, reason="why").verdict is False


def test_check_writes_its_reason_into_the_reference():
    assert Check("c", "ref", 2.0, 1.0).as_dict() == {
        "name": "c", "reference": "ref", "verdict": False, "measured": 2.0, "tolerance": 1.0}
    assert Check("c", "ref", np.float64(0.5), 1, ">=", "why").as_dict() == {
        "name": "c", "reference": "ref; failed: why", "verdict": False, "measured": 0.5,
        "tolerance": 1.0}
