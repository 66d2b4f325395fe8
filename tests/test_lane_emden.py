"""Shooting solver and monitor checks against closed-form and series oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

from bel import geometry, lane_emden
from bel._dop853 import dense_output, scalar_dense_output
from bel.construction import build_example
from bel.errors import (
    BelError,
    BlowupError,
    CrossCheckError,
    InvalidRangeError,
    MonotonicityError,
    NonpositiveCenterValueError,
    OutOfRangeError,
    SingularRadiusError,
    WrongDimensionError,
)
from bel.geometry import (
    ModelManifold,
    euclidean,
    laplacian_of_distance,
    log_tail_weight,
    power_weight,
    weight_from_warping,
)
from bel.lane_emden import (
    asymptotic_bound_check,
    energy,
    pohozaev,
    pohozaev_slope_factor,
    pohozaev_trace,
    positivity_criterion,
    solve_liouville,
    solve_radial,
)
from bel.radial_core import finite_difference, grid_tolerance, make_grid, sample


@pytest.fixture(scope="module")
def flat4():
    return euclidean(4, make_grid(0.0, 10.0, 201, "uniform"))


@pytest.fixture(scope="module")
def bubble_shot(flat4):
    return solve_radial(flat4, p=3.0, ell=1.0, tol=1e-10)


@pytest.fixture(scope="module")
def warped3():
    """Concave-warping manifold with the recipe weight (strictly positive drift)."""
    g = make_grid(0.0, 8.0, 257, "uniform")
    psi = sample(
        lambda r: np.arctan(np.asarray(r, dtype=float)),
        g,
        derivs=(
            lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2),
            lambda r: -2.0 * np.asarray(r, dtype=float) / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2,
            lambda r: (6.0 * np.asarray(r, dtype=float) ** 2 - 2.0) / (1.0 + np.asarray(r, dtype=float) ** 2) ** 3,
        ),
    )
    f = weight_from_warping(psi, 3)
    return ModelManifold(d=3, psi=psi, f=f, weight_from_psi=True)


# ----------------------------------------------------------------- oracles


def test_flat_critical_shot_matches_closed_form(bubble_shot):
    """d=4, p=3, u(0)=1 has the exact solution (1 + r^2/8)^(-1)."""
    r = bubble_shot.manifold.grid.nodes
    exact = 1.0 / (1.0 + r**2 / 8.0)
    assert bubble_shot.status == "global-positive"
    assert np.max(np.abs(bubble_shot.u.values - exact)) < 1e-9
    exact_slope = -(r / 4.0) / (1.0 + r**2 / 8.0) ** 2
    assert np.max(np.abs(bubble_shot.u_prime.values - exact_slope)) < 1e-8


def test_series_coefficient_matches_taylor_expansion(warped3):
    # substituting u = ell + c r^2 into the equation forces 2cd = -ell^p,
    # independently of the warping corrections (they enter at O(r^4))
    ell, p, d = 1.3, 2.5, 3
    shot = solve_radial(warped3, p=p, ell=ell, tol=1e-12)
    for h in (0.02, 0.01):
        predicted = ell - ell**p * h**2 / (2 * d)
        assert abs(shot.u(h) - predicted) < 2.0 * h**4
    e1 = abs(shot.u(0.02) - (ell - ell**p * 0.02**2 / (2 * d)))
    e2 = abs(shot.u(0.01) - (ell - ell**p * 0.01**2 / (2 * d)))
    assert 10.0 < e1 / e2 < 22.0  # quartic remainder


def test_surface_shot_matches_log_profile():
    flat2 = euclidean(2, make_grid(0.0, 10.0, 201, "uniform"))
    shot = solve_liouville(flat2, ell=0.0, tol=1e-10)
    r = flat2.grid.nodes
    exact = -2.0 * np.log(1.0 + r**2 / 8.0)
    assert np.max(np.abs(shot.u.values - exact)) < 1e-9
    # the exponential-nonlinearity profile goes negative without terminating
    assert shot.status == "global-positive"
    assert shot.u(10.0) < -4.0


def test_surface_series_coefficient():
    flat2 = euclidean(2, make_grid(0.0, 4.0, 129, "uniform"))
    ell = 0.7
    shot = solve_liouville(flat2, ell=ell, tol=1e-12)
    h = 0.01
    assert abs(shot.u(h) - (ell - np.exp(ell) * h**2 / 4.0)) < 5.0 * h**4


def test_gaussian_weight_forces_zero_crossing():
    M = power_weight(3, make_grid(0.0, 6.0, 301, "uniform"), coeff=1.0, power=2.0)
    shot = solve_radial(M, p=3.0, ell=1.0, tol=1e-10)
    assert shot.status.startswith("crossed-zero-at(")
    assert shot.r_star is not None and 0.0 < shot.r_star < 6.0
    assert abs(shot.u(shot.r_star)) <= 1e-8
    # the slope stays away from zero at the crossing
    assert shot.u_prime(shot.r_star) < -1e-3


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_gaussian_weight_crossing_for_several_center_values(ell):
    M = power_weight(3, make_grid(0.0, 8.0, 201, "uniform"), coeff=1.0, power=2.0)
    shot = solve_radial(M, p=3.0, ell=ell, tol=1e-9)
    assert shot.crossed


_ORACLE_SHOTS = {
    # a warped global-positive shot, a crossing on the soliton weight, a
    # log-tail shot, a Liouville shot (p = None) and one that trips the
    # overflow guard (u' grows like e^{r^2} once u has plunged below zero)
    "theorem": lambda: (build_example(3, 0.5, grid=make_grid(1e-3, 100.0, 1025, "geometric")),
                        5.0, 1.0),
    "soliton": lambda: (power_weight(3, make_grid(0.0, 6.0, 301, "uniform"), 1.0, 2.0), 3.0, 1.0),
    "log-tail": lambda: (log_tail_weight(3, make_grid(1e-3, 100.0, 257, "geometric"), 2.0),
                         5.0, 1.0),
    "liouville": lambda: (euclidean(2, make_grid(1e-3, 20.0, 257, "geometric")), None, 1.0),
    "overflow-guard": lambda: (power_weight(2, make_grid(1e-3, 4.0, 129, "geometric"), 5.0, 2.0),
                               None, 690.0),
}


def _driver_and_oracle(monkeypatch, case):
    """Shoot ``case`` through bel's DOP853 driver, then solve the same problem
    with scipy's ``solve_ivp``; returns (manifold, driver result, scipy result)."""
    M, p, ell = _ORACLE_SHOTS[case]()
    captured = []
    driver = lane_emden.solve_ivp

    def capture(fun, t_span, y0, **kwargs):
        captured.append((fun, t_span, y0, kwargs, driver(fun, t_span, y0, **kwargs)))
        return captured[-1][-1]

    monkeypatch.setattr(lane_emden, "solve_ivp", capture)
    try:
        if p is None:
            solve_liouville(M, ell=ell)
        else:
            solve_radial(M, p=p, ell=ell)
    except BlowupError:
        assert case == "overflow-guard"
    monkeypatch.undo()
    fun, t_span, y0, kwargs, sol = captured[0]
    with np.errstate(over="ignore"):
        oracle = scipy_solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True, **kwargs)
    return M, sol, oracle


@pytest.mark.parametrize("case", sorted(_ORACLE_SHOTS))
def test_driver_matches_scipy_solve_ivp_bit_for_bit(monkeypatch, case):
    """bel's driver repeats scipy's DOP853 arithmetic operation by operation:
    steps, work, status, event roots, final state and dense output agree to
    the bit."""
    M, sol, oracle = _driver_and_oracle(monkeypatch, case)
    expected_status = {"soliton": 1, "overflow-guard": 1}.get(case, 0)
    assert sol.status == oracle.status == expected_status
    assert np.array_equal(sol.t, oracle.t)
    assert sol.nfev == oracle.nfev
    assert len(sol.t_events) == len(oracle.t_events)
    for mine, theirs in zip(sol.t_events, oracle.t_events):
        assert np.array_equal(mine, theirs)
    assert sum(te.size for te in sol.t_events) == (expected_status == 1)
    assert np.array_equal(sol.y, oracle.y[:, -1])
    dense = dense_output(sol)
    t0, t1 = sol.t[0], sol.t[-1]
    nodes = M.grid.nodes
    for r in (nodes[(nodes >= t0) & (nodes <= t1)], np.random.default_rng(7).uniform(t0, t1, 500)):
        assert np.array_equal(dense(r), oracle.sol(r))


@pytest.mark.parametrize("case", ["theorem", "soliton"])
def test_vectorised_dense_output_is_bit_identical(monkeypatch, case):
    """The stacked-segment evaluation and the scalar one give the bits of
    scipy's ``OdeSolution``, at the step ends and at scalar radii too."""
    _, sol, oracle = _driver_and_oracle(monkeypatch, case)
    dense, scalar = dense_output(sol), scalar_dense_output(sol)
    assert np.array_equal(dense(sol.t), oracle.sol(sol.t))
    t0, t1 = sol.t[0], sol.t[-1]
    for r in (float(t0), 0.5 * (t0 + t1), float(sol.t[len(sol.t) // 2]), float(t1),
              *np.random.default_rng(11).uniform(t0, t1, 50)):
        got = dense(r)
        assert got.shape == (2,)
        assert np.array_equal(got, oracle.sol(r))
        assert scalar(r) == got.tolist()


def test_driver_ends_a_shot_whose_step_size_is_not_finite():
    """A NaN tolerance makes the first step size NaN, which never trips the
    minimum step; the driver ends the shot (status -1) instead of looping."""
    calls = []

    def fun(r, y):
        calls.append(r)
        assert len(calls) < 1000, "the driver kept stepping with a NaN step size"
        return y[1], -y[0]

    sol = lane_emden.solve_ivp(fun, (1e-4, 1.0), np.array([1.0, 0.0]), rtol=np.nan, atol=np.nan)
    assert sol.status == -1
    assert np.array_equal(sol.t, [1e-4]) and sol.h.size == 0


def test_decomposition_mismatch_raises_coded_error(monkeypatch):
    """Both closed-form cross-checks on recipe manifolds fail with one code:
    the slope-factor split when its curvature defect is perturbed, and the
    distance Laplacian when a manifold claims a warping-derived weight but
    carries f = 0."""
    grid = make_grid(1e-3, 20.0, 257, "geometric")
    r = grid.nodes[10:-10]
    pohozaev_slope_factor(build_example(3, 0.5, grid=grid), 5.0, r)  # consistent
    defect = lane_emden._curvature_defect
    monkeypatch.setattr(lane_emden, "_curvature_defect", lambda M, s: defect(M, s) - 1.0)
    with pytest.raises(CrossCheckError) as slope:
        pohozaev_slope_factor(build_example(3, 0.5, grid=grid), 5.0, r)
    monkeypatch.undo()

    real = build_example(3, 0.5, grid=grid)
    fake = ModelManifold(d=3, psi=real.psi, f=euclidean(3, grid).f, alpha=0.5,
                         weight_from_psi=True)
    laplacian_of_distance(real, r)  # consistent
    with pytest.raises(CrossCheckError) as laplacian:
        laplacian_of_distance(fake, r)
    for info in (slope, laplacian):
        assert isinstance(info.value, BelError)
        assert info.value.code == "cross-check-mismatch"


# ------------------------------------------------------------- error paths


def test_center_value_must_be_positive(flat4):
    with pytest.raises(NonpositiveCenterValueError):
        solve_radial(flat4, p=3.0, ell=0.0)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_exponent_must_exceed_one(flat4, p):
    with pytest.raises(InvalidRangeError):
        solve_radial(flat4, p=p, ell=1.0)


def test_exponential_problem_rejects_higher_dimensions():
    flat3 = euclidean(3, make_grid(0.0, 4.0, 65, "uniform"))
    with pytest.raises(WrongDimensionError):
        solve_liouville(flat3, ell=0.0)


def test_overflow_guard_trips_on_huge_center_value(flat4):
    with pytest.raises(BlowupError):
        solve_radial(flat4, p=5.0, ell=1e62)


def test_overflow_guard_trips_for_exponential_nonlinearity():
    flat2 = euclidean(2, make_grid(0.0, 4.0, 65, "uniform"))
    with pytest.raises(BlowupError):
        solve_liouville(flat2, ell=800.0)


def test_profile_rejects_radii_beyond_its_range(bubble_shot):
    with pytest.raises(OutOfRangeError):
        bubble_shot.u(10.5)
    with pytest.raises(OutOfRangeError):
        energy(bubble_shot, 12.0)


def test_solver_validates_tolerance_and_range(flat4):
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(InvalidRangeError):
            solve_radial(flat4, p=3.0, ell=1.0, tol=tol)
    with pytest.raises(InvalidRangeError):
        solve_radial(flat4, p=3.0, ell=1.0, r_max=1e-5)  # below the series handoff radius
    with pytest.raises(InvalidRangeError):
        solve_radial(flat4, p=3.0, ell=1.0, r_max=25.0)


# --------------------------------------------------------------- monitors


def test_energy_at_center(bubble_shot):
    assert energy(bubble_shot, 0.0) == pytest.approx(1.0 / 4.0, abs=1e-12)


def test_energy_decreases_along_the_shot(bubble_shot):
    r = bubble_shot.manifold.grid.nodes
    E = energy(bubble_shot, r)
    assert np.all(np.diff(E) <= 1e-12)


def test_energy_slope_identity(warped3):
    """Finite differences of E reproduce -(S'/S) u'^2 at interior nodes."""
    shot = solve_radial(warped3, p=3.0, ell=1.0, tol=1e-11)
    M = warped3
    nodes = M.grid.nodes
    keep = nodes <= shot.r_end
    r = nodes[keep]
    E = energy(shot, r)
    dE = finite_difference(E, M.grid, order=1)[keep][2:-2]
    rr = r[2:-2]
    closed = -np.asarray(M.drift(rr)) * np.asarray(shot.u_prime(rr)) ** 2
    tol = 100.0 * grid_tolerance(M.grid, factor=1.0)[keep][2:-2]
    assert np.max(np.abs(dE - closed) / (1.0 + np.abs(closed))) < np.max(tol)


def test_pohozaev_vanishes_at_center(flat4, bubble_shot):
    assert pohozaev(flat4, bubble_shot, 0.0) == 0.0


def test_pohozaev_nonpositive_on_flat_critical_shot(flat4, bubble_shot):
    r = flat4.grid.nodes[1:]
    P = pohozaev(flat4, bubble_shot, r)
    assert np.max(P) <= 1e-8


def test_pohozaev_slope_identity(warped3):
    """P' = K u'^2: finite differences of P against the closed-form factor."""
    shot = solve_radial(warped3, p=5.0, ell=1.0, tol=1e-11)
    nodes = warped3.grid.nodes
    keep = nodes <= shot.r_end
    r = nodes[keep]
    P = pohozaev(warped3, shot, r)
    dP = finite_difference(P, warped3.grid, order=1)[keep][2:-2]
    rr = r[2:-2]
    K = pohozaev_slope_factor(warped3, 5.0, rr)
    rhs = K * np.asarray(shot.u_prime(rr)) ** 2
    scale = 1.0 + np.abs(rhs)
    h = warped3.grid.first_step
    assert np.max(np.abs(dP - rhs) / scale) < 100.0 * h**2


def test_slope_factor_euclidean_signs():
    g = make_grid(0.0, 5.0, 101, "uniform")
    flat3 = euclidean(3, g)
    r = g.nodes[1:]
    S = flat3.area_density(r)
    # critical exponent: the closed form cancels exactly
    K_crit = pohozaev_slope_factor(flat3, 5.0, r)
    assert np.max(np.abs(K_crit)) <= 1e-10 * (1.0 + np.max(S))
    # supercritical: strictly negative; subcritical: strictly positive
    assert np.all(pohozaev_slope_factor(flat3, 6.0, r) < 0.0)
    assert np.all(pohozaev_slope_factor(flat3, 3.0, r) > 0.0)


def test_slope_factor_requires_increasing_area_density():
    M = power_weight(3, make_grid(0.0, 4.0, 101, "uniform"), coeff=1.0, power=2.0)
    with pytest.raises(MonotonicityError):
        pohozaev_slope_factor(M, 3.0, 2.0)


def test_slope_factor_rejects_the_pole(flat4):
    with pytest.raises(SingularRadiusError):
        pohozaev_slope_factor(flat4, 3.0, 0.0)


def test_slope_factor_decomposition_agrees_on_recipe_weight(warped3):
    r = np.linspace(0.2, 7.5, 40)
    direct = pohozaev_slope_factor(warped3, 5.0, r, check_decomposition=False)
    checked = pohozaev_slope_factor(warped3, 5.0, r, check_decomposition=True)
    assert np.array_equal(direct, checked)  # the check must not alter values


def test_trace_verdicts_on_recipe_weight(warped3):
    shot = solve_radial(warped3, p=5.0, ell=1.0, tol=1e-11)
    trace = pohozaev_trace(shot)
    assert trace.r.shape == trace.energy.shape == trace.pohozaev.shape
    assert trace.r.shape == trace.slope_factor.shape
    assert trace.E_decreasing
    assert trace.K_nonpositive
    assert trace.P_nonpositive


# ------------------------------------------------- positivity and the bound


def test_positivity_criterion_flat_and_signed_weights():
    g = make_grid(0.0, 1.0, 65, "uniform")
    assert positivity_criterion(euclidean(3, g))
    assert positivity_criterion(power_weight(3, g, coeff=-1.0, power=2.0))
    # f = +r^2 gives 6 - 2r^2 > 0 below sqrt(3): criterion fails
    assert not positivity_criterion(power_weight(3, g, coeff=1.0, power=2.0))


def test_positivity_criterion_recipe_weight(warped3):
    # the weight ODE makes the combination collapse to -(f')^2/(d-1) <= 0
    assert positivity_criterion(warped3)


def test_asymptotic_bound_on_flat_bubble(bubble_shot):
    ok = asymptotic_bound_check(bubble_shot, C=0.1)
    assert ok.all_hold
    assert ok.bound[0] == pytest.approx(1.0)
    bad = asymptotic_bound_check(bubble_shot, C=1.0)
    assert not bad.all_hold


def test_asymptotic_bound_preconditions(bubble_shot):
    with pytest.raises(InvalidRangeError):
        asymptotic_bound_check(bubble_shot, C=0.0)
    M = power_weight(3, make_grid(0.0, 6.0, 101, "uniform"), coeff=1.0, power=2.0)
    crossed = solve_radial(M, p=3.0, ell=1.0, tol=1e-9)
    with pytest.raises(InvalidRangeError):
        asymptotic_bound_check(crossed, C=0.1)


# ---------------------------------------------------------------- invariants


def test_divergence_form_of_the_equation(bubble_shot):
    """(S u')' = -S u^p at interior nodes, to grid tolerance."""
    M = bubble_shot.manifold
    r = M.grid.nodes
    S = M.area_density(r)
    flux = S * bubble_shot.u_prime.values
    dflux = finite_difference(flux, M.grid, order=1)[2:-2]
    target = -S[2:-2] * bubble_shot.u.values[2:-2] ** 3
    scale = 1.0 + np.abs(target)
    h = M.grid.first_step
    assert np.max(np.abs(dflux - target) / scale) < 100.0 * h**2


@settings(max_examples=20, deadline=None)
@given(
    ell=st.floats(min_value=0.5, max_value=2.0),
    p=st.floats(min_value=2.0, max_value=4.0),
)
def test_shots_are_strictly_decreasing(ell, p):
    flat = euclidean(4, make_grid(0.0, 5.0, 101, "uniform"))
    shot = solve_radial(flat, p=p, ell=ell, tol=1e-9)
    r = flat.grid.nodes
    keep = (r > 0) & (r <= shot.r_end)
    positive = np.asarray(shot.u(r[keep])) > 0
    assert np.all(np.asarray(shot.u_prime(r[keep]))[positive] < 0.0)


@settings(max_examples=15, deadline=None)
@given(ell=st.floats(min_value=0.3, max_value=3.0))
def test_center_value_is_reproduced(ell):
    flat = euclidean(4, make_grid(0.0, 3.0, 65, "uniform"))
    shot = solve_radial(flat, p=3.0, ell=ell, tol=1e-10)
    assert shot.u(0.0) == pytest.approx(ell, rel=1e-12)
    assert shot.u_prime(0.0) == 0.0


# ---------------------------------------------------- scalar right-hand side


@pytest.mark.parametrize("p", [1.5, 2.0, 2.4, 3.0, 4.0, 5.0, 5.4, 6.0, 7.0])
def test_scalar_nonlinearity_bit_identical(p):
    """A float u (one RHS stage) gives the bits of the 0-d array path, also
    for u <= 0 and NaN, where the positive part is 0."""
    power = lane_emden._nonlinearity(p)
    us = np.concatenate([np.geomspace(1e-12, 1e3, 2001), -np.geomspace(1e-12, 1e3, 11),
                         [0.0, -0.0, np.nan, -np.inf]])
    for u in us:
        scalar, generic = power(u), power(np.asarray(u))
        assert scalar == generic, (p, u)
        assert power(float(u)) == generic


_STOCK_SHOTS = {
    "euclidean": (lambda g: euclidean(3, g), 3.0),
    "power": (lambda g: power_weight(3, g, 1.0, 2.0), 3.0),
    "log-tail": (lambda g: log_tail_weight(3, g, 2.0), 5.0),
    "warped": (lambda g: build_example(3, 0.5, grid=g), 5.0),
}


@pytest.mark.parametrize("kind", sorted(_STOCK_SHOTS))
def test_shot_takes_scalar_drift_on_every_stage(kind, monkeypatch):
    """Each RHS stage of the shot goes through the builder's scalar drift,
    and the generic drift never sees a scalar radius.  The goldens cannot
    tell the two paths apart, since they give the same bits."""
    build, p = _STOCK_SHOTS[kind]
    M = build(make_grid(1e-3, 100.0, 257, "geometric"))
    stages = []
    fast = M.scalar_drift

    def counted(r):
        stages.append(r)
        return fast(r)

    M = dataclasses.replace(M, scalar_drift=counted)
    solutions = []
    ivp = lane_emden.solve_ivp

    def recorded(*args, **kwargs):
        solutions.append(ivp(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lane_emden, "solve_ivp", recorded)
    generic_scalars = []
    as_radii = geometry._as_radii

    def watched(r, positive=True):
        if np.ndim(r) == 0:
            generic_scalars.append(r)
        return as_radii(r, positive)

    monkeypatch.setattr(geometry, "_as_radii", watched)
    solve_radial(M, p=p, ell=1.0)
    assert len(solutions) == 1 and len(stages) == solutions[0].nfev > 0
    assert generic_scalars == []
