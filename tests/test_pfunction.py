"""Bubble profiles, the v-transform and the P-function identity suite."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bel import pfunction
from bel.construction import build_example
from bel.errors import (
    BelError,
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
from bel.geometry import (
    euclidean,
    power_weight,
    ric_infinity_components,
    weighted_laplacian_radial,
    weighted_volume,
)
from bel.lane_emden import SolutionProfile, solve_radial
from bel.pfunction import (
    PFunctionData,
    bubble,
    cheng_yau_ratio,
    divergence_identity_residual,
    ibp_residual,
    integral_estimate_ratio,
    k_functional,
    log_bubble,
    radial_cutoff,
    superharmonic_floor_check,
    v_transform,
)
from bel.radial_core import grid_tolerance, make_grid, sample


@pytest.fixture(scope="module")
def bubble4():
    return bubble(4, 0.125)


@pytest.fixture(scope="module")
def data4(bubble4):
    return v_transform(bubble4, n=4.0)


@pytest.fixture(scope="module")
def data4inf(bubble4):
    return v_transform(bubble4)


@pytest.fixture(scope="module")
def theorem_profile():
    # uniform grid: the FD-based identity checks are h^2-limited here,
    # whereas on the strongly graded default grid the pole nodes are
    # dominated by solver-interpolant noise amplified by the 1/r drift
    grid = make_grid(1e-3, 50.0, 1201, "uniform")
    M = build_example(3, grid=grid)
    return solve_radial(M, p=5.0, ell=1.0, tol=1e-12)


@pytest.fixture(scope="module")
def theorem_data(theorem_profile):
    return v_transform(theorem_profile)


# ----------------------------------------------------------------- bubbles


def test_bubble_closed_form_low_dimension():
    # d=3, b=1: a=1/3 and u(0) = a^{-1/2} = sqrt(3)
    prof = bubble(3, 1.0)
    assert math.isclose(float(prof.u(0.0)), math.sqrt(3.0), rel_tol=1e-14)
    r = np.linspace(0.0, 20.0, 101)
    expected = (1.0 / 3.0 + r**2) ** -0.5
    assert np.max(np.abs(prof.u(r) - expected)) < 1e-14


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_bubble_solves_critical_equation(d):
    prof = bubble(d, 0.125)
    p = (d + 2.0) / (d - 2.0)
    r = np.linspace(0.05, 50.0, 800)
    u = prof.u(r)
    residual = prof.u.derivs[1](r) + (d - 1) / r * prof.u_prime(r) + u**p
    assert np.max(np.abs(residual)) < 1e-12


def test_bubble_argument_validation():
    with pytest.raises(InvalidDimensionError):
        bubble(2, 1.0)
    with pytest.raises(InvalidDimensionError):
        bubble(4.5, 1.0)
    with pytest.raises(InvalidRangeError):
        bubble(4, 0.0)
    with pytest.raises(InvalidRangeError):
        bubble(4, -2.0)


def test_log_bubble_closed_form():
    prof = log_bubble(0.125)
    assert abs(float(prof.u(0.0))) < 1e-15  # a = 1 so u(0) = -2 log 1
    r = np.linspace(0.05, 50.0, 800)
    residual = prof.u.derivs[1](r) + prof.u_prime(r) / r + np.exp(prof.u(r))
    assert np.max(np.abs(residual)) < 1e-12
    with pytest.raises(InvalidRangeError):
        log_bubble(-0.125)


# ------------------------------------------------------------- v-transform


def test_v_transform_bubble_fields(data4):
    assert data4.m == 4.0
    assert data4.c_m == 1.0
    assert data4.n == 4.0
    r = np.linspace(0.0, 30.0, 301)
    assert np.max(np.abs(data4.v(r) - (1.0 + r**2 / 8.0))) < 1e-13


@pytest.mark.parametrize("d", [3, 5, 6])
def test_critical_transform_has_m_equal_d(d):
    data = v_transform(bubble(d, 0.125))
    assert math.isclose(data.m, float(d), rel_tol=1e-15)
    assert math.isclose(data.c_m, 2.0 / (data.m - 2.0), rel_tol=1e-15)


def test_log_transform_constants():
    data = v_transform(log_bubble(0.125))
    assert data.m == 2.0
    assert data.c_m == 0.5
    r = np.linspace(0.0, 20.0, 201)
    assert np.max(np.abs(data.v(r) - (1.0 + r**2 / 8.0))) < 1e-13


def test_v_transform_rejects_crossed_profile():
    grid = make_grid(1e-3, 10.0, 513, "geometric")
    M = power_weight(3, grid, 1.0, 2.0)  # Gaussian-type weight kills positivity
    prof = solve_radial(M, p=3.0, ell=1.0, tol=1e-10)
    assert prof.status.startswith("crossed-zero-at(")
    with pytest.raises(NonpositiveSolutionError):
        v_transform(prof)


def test_v_transform_rejects_small_virtual_dimension(bubble4):
    with pytest.raises(InvalidVirtualDimensionError):
        v_transform(bubble4, n=2.5)


# --------------------------------------------------------------- P-function


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_p_constant_on_bubbles(d):
    b = 0.125
    data = v_transform(bubble(d, b))
    vals = data.P.values[np.isfinite(data.P.values)]
    assert np.max(np.abs(vals - 2.0 * b * d)) < 1e-8
    assert math.isclose(float(data.P(0.0)), 2.0 * b * d, rel_tol=1e-12)


def test_p_constant_on_log_bubble():
    data = v_transform(log_bubble(0.125))
    vals = data.P.values[np.isfinite(data.P.values)]
    assert np.max(np.abs(vals - 0.5)) < 1e-8


def test_p_positive_and_consistent(theorem_data, data4):
    for data in (theorem_data, data4):
        nodes = data.manifold.grid.nodes
        P = data.P.values
        v = data.v.values
        dv = np.asarray(data.v.derivs[0](nodes), dtype=float)
        ok = np.isfinite(P)
        assert np.all(P[ok] > 0.0)
        rebuilt = ((data.m / 2.0) * dv[ok] ** 2 + data.c_m) / v[ok]
        assert np.max(np.abs(P[ok] - rebuilt) / (1.0 + P[ok])) < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    b=st.floats(min_value=0.01, max_value=10.0),
    d=st.sampled_from([3, 4, 5, 6]),
)
def test_p_constancy_any_width(b, d):
    data = v_transform(bubble(d, b))
    vals = data.P.values
    target = 2.0 * b * d
    assert np.max(np.abs(vals - target)) < 1e-8 * (1.0 + target)


# ------------------------------------------------------------ k functional


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_k_vanishes_on_bubbles(d):
    prof = bubble(d, 0.125)
    r = np.linspace(0.05, 50.0, 500)
    # n = d exercises the trivial-weight decomposition branch as well
    for n in (float(d), math.inf):
        k = np.asarray(k_functional(v_transform(prof, n=n), r))
        assert np.max(np.abs(k)) < 1e-8


def test_k_decomposition_agrees_on_weighted_data(theorem_profile):
    data = v_transform(theorem_profile, n=5.0)
    r = data.manifold.grid.nodes[5:-5]
    checked = np.asarray(k_functional(data, r))  # finite n: raises on a mismatch
    # n = inf skips the decomposition, and the check leaves k's value alone
    plain = np.asarray(k_functional(dataclasses.replace(data, n=math.inf), r))
    assert np.array_equal(checked, plain)


def test_k_decomposition_mismatch_raises_coded_error(monkeypatch, theorem_profile):
    data = v_transform(theorem_profile, n=5.0)
    r = data.manifold.grid.nodes[5:-5]
    ric_n = pfunction.ric_n_radial
    monkeypatch.setattr(pfunction, "ric_n_radial", lambda M, n, s: ric_n(M, n, s) + 1.0)
    with pytest.raises(CrossCheckError) as info:
        k_functional(data, r)
    assert isinstance(info.value, BelError)
    assert info.value.code == "cross-check-mismatch"


def test_k_functional_guards(data4):
    with pytest.raises(SingularRadiusError):
        k_functional(data4, 0.0)


def test_k_nonnegative_when_m_dominates_n():
    # m = n = d: the decomposition is a sum of squares, so k >= 0
    data = v_transform(bubble(3, 0.125), n=3.0)
    k = np.asarray(k_functional(data, np.linspace(0.1, 40.0, 300)))
    assert np.min(k) > -1e-12


def test_k_minus_w_is_traceless_hessian_square(theorem_data, data4inf):
    """k = W_f + |Hess v - (P/m) g|^2 at n = inf, with the lower bound
    W_f = ((m-d)/m^2) P^2 + (2/m) P f'v' + Ric(v', v') written out here: an
    independent check of ``k_functional``'s n = inf branch, which carries no
    decomposition cross-check of its own."""
    for data in (theorem_data, data4inf):
        M, m = data.manifold, data.m
        r = M.grid.nodes[5:-5]
        r = r[r <= 40.0]
        k = np.asarray(k_functional(data, r))
        dv = np.asarray(data.v.derivs[0](r))
        ddv = np.asarray(data.v.derivs[1](r))
        P = np.asarray(data.P(r))
        ric_r, _ = ric_infinity_components(M, r)
        w = ((m - M.d) / m**2) * P**2 + (2.0 / m) * P * np.asarray(M.f(r, 1)) * dv + ric_r * dv**2
        tang = np.asarray(M.psi(r, 1)) / np.asarray(M.psi(r)) * dv
        square = (ddv - P / m) ** 2 + (M.d - 1) * (tang - P / m) ** 2
        assert np.max(np.abs(k - w - square) / (1.0 + np.abs(k) + square)) < 1e-10


# ---------------------------------------------- divergence + integration by parts


def test_divergence_identity_degenerate_on_bubble(data4inf):
    res = divergence_identity_residual(data4inf)
    inner = res.values[2:-2]
    assert np.nanmax(inner) < 1e-12


def test_divergence_identity_on_weighted_solution(theorem_data):
    res = divergence_identity_residual(theorem_data)
    tol = 100.0 * grid_tolerance(theorem_data.manifold.grid, factor=1.0)
    inner = slice(2, -2)
    assert np.nanmax(res.values[inner] / tol[inner]) < 1.0


@pytest.mark.parametrize("q", [0.0, 2.0, 3.0])
def test_ibp_identity_bubble(data4inf, q):
    lhs, rhs = ibp_residual(data4inf, q, 20.0)
    assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-9


def test_ibp_identity_weighted(theorem_data):
    for q in (0.0, 2.0, theorem_data.m / 2.0 + 1.0):
        lhs, rhs = ibp_residual(theorem_data, q, 12.0)
        assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-9


# -------------------------------------------------------- integral estimates


def test_integral_ratio_trivial_q_zero(data4inf):
    lhs, bound = integral_estimate_ratio(data4inf, 0.0, 10.0)
    # q=0 part ii integrates the plain weighted volume of B_R
    assert lhs < bound


def test_integral_ratio_validation(data4inf):
    # the range bounds every q, so the message names all of it
    with pytest.raises(QOutOfRangeError, match=r"^q must satisfy 0 <= q <= m/2\+1 = 3, got q = -0.5$"):
        integral_estimate_ratio(data4inf, -0.5, 10.0)
    with pytest.raises(QOutOfRangeError, match=r"^q must satisfy 0 <= q <= m/2\+1 = 3, got q = 3.2$"):
        integral_estimate_ratio(data4inf, 3.2, 10.0)
    with pytest.raises(OutOfGridError):
        integral_estimate_ratio(data4inf, 2.0, 150.0)


def test_integral_sweep_stays_bounded(data4inf):
    sweep = np.geomspace(1.0, 100.0, 25)
    for q in (2.0, 3.0):
        ratios = []
        for R in sweep:
            lhs, bound = integral_estimate_ratio(data4inf, q, R)
            ratios.append(lhs / bound)
        ratios = np.asarray(ratios)
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
        assert np.max(ratios) <= 10.0 * ratios[0]
    # the q = m/2+1 ratio actually decays: the volume side wins
    assert ratios[-1] < ratios[0]


def test_estimate_data_is_freed_without_the_cyclic_gc():
    """The antiderivatives that integral_estimate_ratio and ibp_residual keep
    in the data's cache do not refer back to the data, so it dies with its
    last reference, not at a later full collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = v_transform(bubble(4, 0.125), n=4.0)
        integral_estimate_ratio(data, 2.0, 10.0)
        ibp_residual(data, 2.0, 10.0)
        freed = weakref.ref(data)
        del data
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


# -------------------------------------------------- gradient estimate sweep


def test_cheng_yau_bubble_sweep(bubble4):
    ratios = [cheng_yau_ratio(bubble4, 4.0, R) for R in np.geomspace(1.0, 100.0, 15)]
    assert max(ratios) < 0.13  # closed form approaches 1/8 from below
    assert cheng_yau_ratio(bubble4, 4.0, 0.01) < 1e-3  # numerator O(R^2)


def test_cheng_yau_theorem_sweep(theorem_profile):
    ratios = [cheng_yau_ratio(theorem_profile, 3.0, R) for R in (1.0, 5.0, 10.0, 25.0)]
    assert max(ratios) < 0.1


def test_cheng_yau_guards(bubble4):
    with pytest.raises(InvalidVirtualDimensionError):
        cheng_yau_ratio(bubble4, 2.0, 5.0)
    with pytest.raises(OutOfRangeError):
        cheng_yau_ratio(bubble4, 4.0, 150.0)
    with pytest.raises(NonpositiveSolutionError):
        cheng_yau_ratio(log_bubble(0.125), 4.0, 5.0)  # log profile dips below 0


# ------------------------------------------------------ superharmonic floor


def test_superharmonic_floor_on_bubbles():
    report = superharmonic_floor_check(bubble(3, 0.125), 3.0, 1.0)
    assert report.all_hold
    for d in (3, 4, 5, 6):
        prof = bubble(d, 0.125)
        rep = superharmonic_floor_check(prof, float(d), 2.0)
        assert rep.all_hold
        nodes = prof.manifold.grid.nodes
        floor = 2.0 ** (d - 2.0) * float(prof.u(2.0)) * nodes[nodes > 2.0] ** (2.0 - d)
        np.testing.assert_allclose(rep.floor, floor, rtol=1e-12)


def test_superharmonic_floor_detects_wrong_exponent():
    # u ~ r^{-2} cannot dominate A r^{-1} forever
    report = superharmonic_floor_check(bubble(4, 0.125), 3.0, 5.0)
    assert not report.all_hold


def test_superharmonic_constant_profile_trivial():
    grid = make_grid(1e-3, 20.0, 257, "uniform")
    M = build_example(3, grid=grid)
    one = sample(lambda r: np.ones_like(np.asarray(r, dtype=float)), grid,
                 derivs=(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                         lambda r: np.zeros_like(np.asarray(r, dtype=float))))
    zero = sample(lambda r: np.zeros_like(np.asarray(r, dtype=float)), grid,
                  derivs=(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                          lambda r: np.zeros_like(np.asarray(r, dtype=float))))
    const = SolutionProfile(manifold=M, p=3.0, ell=1.0, u=one, u_prime=zero,
                            status="global-positive", r_end=grid.r_max,
                            r_star=None)
    assert superharmonic_floor_check(const, 4.0, 2.0).all_hold


def test_superharmonic_floor_guards(bubble4):
    with pytest.raises(InvalidRangeError):
        superharmonic_floor_check(bubble4, 2.0, 1.0)
    grid = make_grid(1e-3, 10.0, 129, "uniform")
    M = euclidean(4, make_grid(0.0, 10.0, 129, "uniform"))
    grow = sample(lambda r: 1.0 + np.asarray(r, dtype=float) ** 2, M.grid,
                  derivs=(lambda r: 2.0 * np.asarray(r, dtype=float),
                          lambda r: np.full_like(np.asarray(r, dtype=float), 2.0)))
    dgrow = sample(lambda r: 2.0 * np.asarray(r, dtype=float), M.grid,
                   derivs=(lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),))
    subharmonic = SolutionProfile(manifold=M, p=3.0, ell=1.0, u=grow, u_prime=dgrow,
                                  status="global-positive", r_end=M.grid.r_max,
                                  r_star=None)
    with pytest.raises(SuperharmonicityError):
        superharmonic_floor_check(subharmonic, 4.0, 2.0)


# ----------------------------------------------------------------- cutoffs


def test_cutoff_shape(bubble4):
    M = bubble4.manifold
    phi = radial_cutoff(10.0, M)
    assert float(phi(0.0)) == 1.0
    assert float(phi(10.0)) == 1.0
    assert float(phi(20.0)) == 0.0
    assert float(phi(25.0)) == 0.0
    ramp = np.linspace(10.0, 20.0, 500)
    vals = phi(ramp)
    assert np.all(np.diff(vals) <= 0.0)


def test_cutoff_scaling_constants(bubble4):
    M = bubble4.manifold
    slope_consts, lap_consts = [], []
    for R in (1.0, 2.0, 4.0, 8.0):
        phi = radial_cutoff(R, M)
        s = np.linspace(R * (1 + 1e-9), 2 * R * (1 - 1e-9), 3001)
        dphi = np.asarray(phi.derivs[0](s))
        slope_consts.append(np.max(np.abs(dphi)) * R)
        lap = np.asarray(weighted_laplacian_radial(M, phi, s))
        lap_consts.append(np.max(-lap) * R**2)
        vals = np.asarray(phi(s))
        keep = vals > 1e-9
        # sup of ramp'(t)^2 / (1 - ramp(t)) is 10.8049..., attained at t ~ 0.727
        assert np.max(dphi[keep] ** 2 * R**2 / vals[keep]) < 10.81
    assert np.allclose(slope_consts, 15.0 / 8.0, rtol=1e-6)
    assert np.max(lap_consts) / np.min(lap_consts) < 1.0 + 1e-9


def test_cutoff_guards(bubble4):
    with pytest.raises(InvalidRangeError):
        radial_cutoff(0.0, bubble4.manifold)
    with pytest.raises(OutOfGridError):
        radial_cutoff(150.0, bubble4.manifold)


def test_a_nan_radius_lies_outside_every_grid(bubble4, data4inf):
    """The volume, the integral estimate and the cutoff share one "inside
    the range" rule, under which NaN is inside no range: each ends in
    ``out-of-grid``, not in a NaN value or an all-NaN cutoff."""
    with pytest.raises(OutOfGridError):
        weighted_volume(bubble4.manifold, math.nan)
    with pytest.raises(OutOfGridError):
        integral_estimate_ratio(data4inf, 2.0, math.nan)
    with pytest.raises(OutOfGridError):
        radial_cutoff(math.nan, bubble4.manifold)
