"""Shooting solver and monitor checks against closed-form and series oracles."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

from bel import _dop853, geometry, lane_emden, scenarios
from bel._dop853 import dense_output
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
)
from bel.geometry import (
    ModelManifold,
    euclidean,
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
    slope_factor_terms,
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


def _overflowing_shot():
    """The shot that trips the overflow guard: on the steep Gaussian weight
    f = 5 r^2 the drift term 10 r u' makes |u'| grow like e^{5 r^2}, so from
    u(0) = 1e250 the guard trips at r = 3.95101, inside the grid."""
    return power_weight(2, make_grid(1e-3, 4.0, 129, "geometric"), 5.0, 2.0), 1.1, 1e250


_ORACLE_SHOTS = {
    # a warped global-positive shot, a crossing on the soliton weight, a
    # log-tail shot, one that trips the overflow guard and the critical flat
    # shot of the custom scenario
    "flat": lambda: (euclidean(3, make_grid(1e-3, 100.0, 1025, "geometric")), 5.0, 1.0),
    "theorem": lambda: (build_example(3, 0.5, grid=make_grid(1e-3, 100.0, 1025, "geometric")),
                        5.0, 1.0),
    "soliton": lambda: (power_weight(3, make_grid(0.0, 6.0, 301, "uniform"), 1.0, 2.0), 3.0, 1.0),
    "log-tail": lambda: (log_tail_weight(3, make_grid(1e-3, 100.0, 257, "geometric"), 2.0),
                         5.0, 1.0),
    "overflow-guard": _overflowing_shot,
}


#: Shots at a tolerance below scipy's floor of 100 eps on ``rtol``, which
#: both drivers raise ``rtol`` to (scipy warns that it does): (shot, tol).
_TIGHT_SHOTS = {
    "flat-tol-1e-15": ("flat", 1e-15),
    "flat-tol-1e-20": ("flat", 1e-20),
    "soliton-tol-1e-15": ("soliton", 1e-15),
    "theorem-tol-1e-20": ("theorem", 1e-20),
}


def _driver_and_oracle(monkeypatch, case):
    """Shoot ``case`` through bel's DOP853 driver, then solve the same problem
    with scipy's ``solve_ivp``; returns (manifold, driver result, scipy result)."""
    shot, tol = _TIGHT_SHOTS.get(case, (case, 1e-10))
    M, p, ell = _ORACLE_SHOTS[shot]()
    captured = []
    driver = lane_emden.solve_ivp

    def capture(fun, t_span, y0, **kwargs):
        captured.append((fun, t_span, y0, kwargs, driver(fun, t_span, y0, **kwargs)))
        return captured[-1][-1]

    monkeypatch.setattr(lane_emden, "solve_ivp", capture)
    try:
        solve_radial(M, p=p, ell=ell, tol=tol)
    except BlowupError:
        assert case == "overflow-guard"
    monkeypatch.undo()
    fun, t_span, y0, kwargs, sol = captured[0]
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "At least one element of `rtol` is too small",
                                UserWarning)
        oracle = scipy_solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True, **kwargs)
    return M, sol, oracle


@pytest.mark.parametrize("case", sorted(_ORACLE_SHOTS) + sorted(_TIGHT_SHOTS))
def test_driver_matches_scipy_solve_ivp_bit_for_bit(monkeypatch, case):
    """bel's driver repeats scipy's DOP853 arithmetic operation by operation:
    steps, work, status, event roots, final state and dense output agree to
    the bit, also below scipy's floor on ``rtol``."""
    M, sol, oracle = _driver_and_oracle(monkeypatch, case)
    shot = _TIGHT_SHOTS.get(case, (case,))[0]
    expected_status = {"soliton": 1, "overflow-guard": 1}.get(shot, 0)
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
    """The stacked-segment evaluation gives the bits of scipy's
    ``OdeSolution`` at the step ends (``t[-1]`` is where a crossed shot reads
    u(r*)) and at scalar radii too."""
    _, sol, oracle = _driver_and_oracle(monkeypatch, case)
    dense = dense_output(sol)
    assert np.array_equal(dense(sol.t), oracle.sol(sol.t))
    t0, t1 = sol.t[0], sol.t[-1]
    for r in (float(t0), 0.5 * (t0 + t1), float(sol.t[len(sol.t) // 2]), float(t1),
              *np.random.default_rng(11).uniform(t0, t1, 50)):
        got = dense(r)
        assert got.shape == (2,)
        assert np.array_equal(got, oracle.sol(r))


def _capture_shots(monkeypatch):
    """Record, in call order, each driver result of ``lane_emden.solve_ivp``
    and each profile that the scenarios' ``solve_radial`` returns."""
    shots = []

    def recorded(fn):
        def call(*args, **kwargs):
            shots.append(fn(*args, **kwargs))
            return shots[-1]

        return call

    monkeypatch.setattr(lane_emden, "solve_ivp", recorded(lane_emden.solve_ivp))
    monkeypatch.setattr(scenarios, "solve_radial", recorded(scenarios.solve_radial))
    return shots


@pytest.mark.parametrize("config", [
    "scenario = soliton-liouville\nd = 3\np = 3\nell = 1\n",
    "scenario = custom\nd = 3\np = 3\nell = 1\n",
    "scenario = custom\nd = 4\np = 5\nell = 2\nweight = power\ncoeff = 0.5\npower = 1.5\n",
])
def test_crossing_is_the_driver_event_root(monkeypatch, tmp_path, config):
    """A crossed shot reports the root of the driver's terminal event, where
    |u| is at roundoff, not a second search's midpoint with |u| <= tol; the
    report's measured radius is that root too."""
    shots = _capture_shots(monkeypatch)
    spec = scenarios.expand_runs(scenarios.parse_config(config))[0]
    report = scenarios.execute_run(spec, tmp_path)
    sol, prof = shots
    assert prof.crossed and prof.status == f"crossed-zero-at({prof.r_star:.12g})"
    assert prof.r_star == prof.r_end == sol.t_events[1][0]
    assert abs(prof.u(prof.r_star)) <= 1e-14
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert measured["zero-crossing" if spec.scenario == "soliton-liouville" else "solve"] == (
        sol.t_events[1][0])


@pytest.mark.parametrize("status", ["crossed-zero-at(", "global-positive", "truncated-at("],
                         ids=["crossed", "global-positive", "truncated"])
def test_shot_ends_at_the_driver_last_radius(monkeypatch, status):
    """``r_end`` is the driver's last radius whichever way the shot ended."""
    shots = _capture_shots(monkeypatch)
    if status == "truncated-at(":
        monkeypatch.setattr(_dop853, "_MAX_NFEV", 100)
    if status == "global-positive":  # the critical bubble of flat R^4
        M = euclidean(4, make_grid(0.0, 10.0, 201, "uniform"))
    else:
        M = power_weight(3, make_grid(0.0, 6.0, 301, "uniform"), 1.0, 2.0)
    prof = solve_radial(M, p=3.0, ell=1.0)
    (sol,) = shots
    assert prof.status.startswith(status)
    assert prof.r_end == sol.t[-1]
    assert prof.crossed is (status == "crossed-zero-at(")


def test_driver_ends_a_shot_whose_step_size_is_not_finite():
    """A NaN tolerance makes the first step size NaN, which never trips the
    minimum step; the driver ends the shot (status -1) instead of looping."""
    calls = []

    def fun(r, y):
        calls.append(r)
        assert len(calls) < 1000, "the driver kept stepping with a NaN step size"
        return y[1], -y[0]

    sol = lane_emden.solve_ivp(fun, (1e-4, 1.0), np.array([1.0, 0.0]), rtol=np.nan, atol=np.nan)
    assert sol.status == -1 and sol.message == "the step size was not finite"
    assert np.array_equal(sol.t, [1e-4]) and sol.h.size == 0


def test_driver_ends_a_shot_that_spends_its_rhs_budget(monkeypatch):
    """A stiff problem keeps an explicit method at tiny steps; the driver
    stops trying steps once its right-hand-side budget is spent and ends the
    shot (status -1) with the steps it has, instead of running on."""
    from bel import _dop853

    monkeypatch.setattr(_dop853, "_MAX_NFEV", 3000)
    calls = []

    def fun(r, y):
        calls.append(r)
        return y[1], -1e6 * y[1] - y[0]

    sol = lane_emden.solve_ivp(fun, (1e-4, 100.0), np.array([1.0, 0.0]), rtol=1e-10, atol=1e-10)
    assert sol.status == -1
    assert sol.message == "the budget of 3,000 right-hand-side calls was spent"
    assert 3000 <= sol.nfev == len(calls) < 3000 + 15  # one more step tried at most
    assert 1e-4 < sol.t[-1] < 100.0 and sol.h.size == sol.t.size - 1


def test_decomposition_mismatch_raises_coded_error(monkeypatch):
    """The slope-factor split on a recipe manifold fails with a coded error
    when its curvature defect is perturbed."""
    grid = make_grid(1e-3, 20.0, 257, "geometric")
    r = grid.nodes[10:-10]
    # consistent
    pohozaev_slope_factor(slope_factor_terms(build_example(3, 0.5, grid=grid), r), 5.0)
    defect = geometry.RadialJet.curvature_defect.fget
    monkeypatch.setattr(geometry.RadialJet, "curvature_defect",
                        property(lambda jet: defect(jet) - 1.0))
    with pytest.raises(CrossCheckError) as slope:
        pohozaev_slope_factor(slope_factor_terms(build_example(3, 0.5, grid=grid), r), 5.0)
    assert isinstance(slope.value, BelError)
    assert slope.value.code == "cross-check-mismatch"


def test_slope_factor_table_past_the_float_range_is_a_coded_error():
    """A slope-factor integrand S G / Lr^2 that is not finite ends in
    ``invalid-range`` from the pass it shares with the volume table, without
    a numpy warning, not in a silent NaN J that no cross-check would catch.
    Here f = 0 but f' = -1e160, so (f')^2 in G and Lr^2 overflow while S and
    V stay finite."""
    grid = make_grid(1e-3, 20.0, 257, "geometric")
    e = euclidean(3, grid)
    steep = lambda r: np.full_like(np.asarray(r, dtype=float), -1e160)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    M = ModelManifold(d=3, psi=e.psi, f=sample(zero, grid, derivs=(steep, zero)),
                      weight_from_psi=True)
    r = grid.nodes[1:]
    with pytest.raises(InvalidRangeError) as info:
        pohozaev_slope_factor(slope_factor_terms(M, r), 5.0)
    assert str(info.value).startswith("slope-factor integrand S G / Lr^2 leaves the float range: "
                                      "its slope factor table is not finite from r = ")
    assert np.all(np.isfinite(M.cumulative_area(r)))


# ------------------------------------------------------------- error paths


def test_center_value_must_be_positive(flat4):
    with pytest.raises(NonpositiveCenterValueError):
        solve_radial(flat4, p=3.0, ell=0.0)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_exponent_must_exceed_one(flat4, p):
    with pytest.raises(InvalidRangeError):
        solve_radial(flat4, p=p, ell=1.0)


def test_overflow_guard_trips_on_huge_center_value(flat4):
    with pytest.raises(BlowupError):
        solve_radial(flat4, p=5.0, ell=1e62)


def test_overflow_guard_trips_in_the_middle_of_a_shot():
    M, p, ell = _overflowing_shot()
    with pytest.raises(BlowupError, match=r"^overflow guard 1e\+300 tripped at r = 3\.95101$"):
        solve_radial(M, p=p, ell=ell)


def test_profile_rejects_radii_beyond_its_range(bubble_shot):
    with pytest.raises(OutOfRangeError):
        bubble_shot.u(10.5)
    with pytest.raises(OutOfRangeError):
        energy(bubble_shot.p, bubble_shot.u(12.0), bubble_shot.u_prime(12.0))


def test_solver_validates_tolerance_and_range(flat4):
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(InvalidRangeError):
            solve_radial(flat4, p=3.0, ell=1.0, tol=tol)
    with pytest.raises(InvalidRangeError):  # the grid ends below the series handoff radius
        solve_radial(euclidean(4, make_grid(0.0, 5e-5, 17, "uniform")), p=3.0, ell=1.0)


# --------------------------------------------------------------- monitors


def test_energy_at_center(bubble_shot):
    E = energy(bubble_shot.p, bubble_shot.u(0.0), bubble_shot.u_prime(0.0))
    assert E == pytest.approx(1.0 / 4.0, abs=1e-12)


def test_energy_decreases_along_the_shot(bubble_shot):
    r = bubble_shot.manifold.grid.nodes
    E = energy(bubble_shot.p, bubble_shot.u(r), bubble_shot.u_prime(r))
    assert np.all(np.diff(E) <= 1e-12)


def test_energy_slope_identity(warped3):
    """Finite differences of E reproduce -(S'/S) u'^2 at interior nodes."""
    shot = solve_radial(warped3, p=3.0, ell=1.0, tol=1e-11)
    M = warped3
    nodes = M.grid.nodes
    keep = nodes <= shot.r_end
    r = nodes[keep]
    E = energy(shot.p, shot.u(r), shot.u_prime(r))
    dE = finite_difference(E, M.grid)[keep][2:-2]
    rr = r[2:-2]
    closed = -np.asarray(M.drift(rr)) * np.asarray(shot.u_prime(rr)) ** 2
    tol = 100.0 * grid_tolerance(M.grid, factor=1.0)[keep][2:-2]
    assert np.max(np.abs(dE - closed) / (1.0 + np.abs(closed))) < np.max(tol)


def test_pohozaev_vanishes_at_center(flat4, bubble_shot):
    u, du = bubble_shot.u(0.0), bubble_shot.u_prime(0.0)
    assert pohozaev(flat4, bubble_shot.p, 0.0, u, du, energy(bubble_shot.p, u, du)) == 0.0


def test_pohozaev_nonpositive_on_flat_critical_shot(flat4, bubble_shot):
    r = flat4.grid.nodes[1:]
    u, du = bubble_shot.u(r), bubble_shot.u_prime(r)
    P = pohozaev(flat4, bubble_shot.p, r, u, du, energy(bubble_shot.p, u, du))
    assert np.max(P) <= 1e-8


def test_pohozaev_slope_identity(warped3):
    """P' = K u'^2: finite differences of P against the closed-form factor."""
    shot = solve_radial(warped3, p=5.0, ell=1.0, tol=1e-11)
    nodes = warped3.grid.nodes
    keep = nodes <= shot.r_end
    r = nodes[keep]
    u, du = shot.u(r), shot.u_prime(r)
    P = pohozaev(warped3, 5.0, r, u, du, energy(5.0, u, du))
    dP = finite_difference(P, warped3.grid)[keep][2:-2]
    rr = r[2:-2]
    K = pohozaev_slope_factor(slope_factor_terms(warped3, rr), 5.0)
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
    terms = slope_factor_terms(flat3, r)
    K_crit = pohozaev_slope_factor(terms, 5.0)
    assert np.max(np.abs(K_crit)) <= 1e-10 * (1.0 + np.max(S))
    # supercritical: strictly negative; subcritical: strictly positive
    assert np.all(pohozaev_slope_factor(terms, 6.0) < 0.0)
    assert np.all(pohozaev_slope_factor(terms, 3.0) > 0.0)


def test_slope_factor_requires_increasing_area_density():
    M = power_weight(3, make_grid(0.0, 4.0, 101, "uniform"), coeff=1.0, power=2.0)
    with pytest.raises(MonotonicityError):
        pohozaev_slope_factor(slope_factor_terms(M, 2.0), 3.0)


def test_slope_factor_rejects_the_pole(flat4):
    with pytest.raises(SingularRadiusError):
        pohozaev_slope_factor(slope_factor_terms(flat4, 0.0), 3.0)


def test_slope_factor_decomposition_agrees_on_recipe_weight(warped3):
    r = np.linspace(0.2, 7.5, 40)
    checked = slope_factor_terms(warped3, r)
    assert checked.J is not None  # a recipe weight carries the decomposition
    direct = pohozaev_slope_factor(dataclasses.replace(checked, J=None), 5.0)
    # the check must not alter values
    assert np.array_equal(direct, pohozaev_slope_factor(checked, 5.0))


def test_trace_verdicts_on_recipe_weight(warped3):
    shot = solve_radial(warped3, p=5.0, ell=1.0, tol=1e-11)
    trace = pohozaev_trace(shot)
    nodes = warped3.grid.nodes
    r = nodes[(nodes > 0.0) & shot.in_range]
    E, P = trace["energy"], trace["pohozaev"]
    K = pohozaev_slope_factor(slope_factor_terms(warped3, r), 5.0)
    assert r.shape == E.shape == P.shape == K.shape
    assert np.all(np.diff(E) <= 1e-8 * (1.0 + np.abs(E[:-1])))  # E decreasing
    assert np.all(K <= 1e-8)
    assert np.all(P <= 1e-8)


# ------------------------------------------------- positivity and the bound


def test_positivity_criterion_flat_and_signed_weights():
    g = make_grid(0.0, 1.0, 65, "uniform")
    tol = grid_tolerance(g)[g.nodes > 0]
    assert positivity_criterion(euclidean(3, g), tol)
    assert positivity_criterion(power_weight(3, g, coeff=-1.0, power=2.0), tol)
    # f = +r^2 gives 6 - 2r^2 > 0 below sqrt(3): criterion fails
    assert not positivity_criterion(power_weight(3, g, coeff=1.0, power=2.0), tol)


def test_positivity_criterion_recipe_weight(warped3):
    # the weight ODE makes the combination collapse to -(f')^2/(d-1) <= 0
    g = warped3.grid
    assert positivity_criterion(warped3, grid_tolerance(g)[g.nodes > 0])


def test_asymptotic_bound_on_flat_bubble(bubble_shot):
    assert asymptotic_bound_check(bubble_shot, C=0.1) is True
    assert asymptotic_bound_check(bubble_shot, C=1.0) is False


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
    dflux = finite_difference(flux, M.grid)[2:-2]
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
    """A float u (one RHS stage) gives the 0-d array path's u^p within
    2 eps u^p, an ulp of each path's pow (libm's ``**`` on floats, numpy's
    ufunc loop on arrays); u <= 0 and NaN give the positive part's 0 on both
    paths, bit for bit."""
    power = lane_emden._nonlinearity(p)
    eps = np.finfo(float).eps
    for u in np.geomspace(1e-12, 1e3, 2001):
        generic = power(np.asarray(u))
        assert abs(power(float(u)) - generic) <= 2.0 * eps * generic, (p, u)
    for u in np.concatenate([-np.geomspace(1e-12, 1e3, 11), [0.0, -0.0, np.nan, -np.inf]]):
        assert power(float(u)) == power(np.asarray(u)) == 0.0, (p, u)


@pytest.mark.parametrize("p,huge", [(5.0, 1e200)], ids=["power"])
def test_scalar_nonlinearity_returns_a_python_float(p, huge):
    """u^p on a float stays a Python float, and overflow gives numpy's inf
    where Python's ``**`` raises."""
    nonlin = lane_emden._nonlinearity(p)
    us = [float(u) for u in np.geomspace(1e-12, 1e2, 101)] + [-1.0, 0.0]
    assert {type(nonlin(u)) for u in us} == {float}
    with np.errstate(over="ignore"):
        assert nonlin(huge) == nonlin(np.asarray(huge)) == np.inf


_STOCK_SHOTS = {
    "euclidean": (lambda g: euclidean(3, g), 3.0),
    "power": (lambda g: power_weight(3, g, 1.0, 2.0), 3.0),
    "log-tail": (lambda g: log_tail_weight(3, g, 2.0), 5.0),
    "warped": (lambda g: build_example(3, 0.5, grid=g), 5.0),
}


@pytest.mark.parametrize("kind", sorted(_STOCK_SHOTS))
def test_shot_takes_scalar_drift_on_every_stage(kind, monkeypatch):
    """Each RHS stage of the shot goes through the builder's scalar drift,
    and the generic drift never sees a scalar radius.  The two paths agree
    within a few ulps, not bit for bit, so the goldens record the scalar
    path; ``test_scalar_drift_shot_agrees_with_generic_drift_shot`` bounds
    what that moves in a shot."""
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


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", sorted(_STOCK_SHOTS))
def test_scalar_drift_shot_agrees_with_generic_drift_shot(kind, ell):
    """A shot through the builder's scalar drift and one through the generic
    drift, whose right-hand sides differ by a few ulps, end the same way and
    agree at every node within tol * ell: the local error each step may make
    (rtol = atol = tol), far above the roundoff that tells the paths apart."""
    build, p = _STOCK_SHOTS[kind]
    M = build(make_grid(1e-3, 100.0, 257, "geometric"))
    tol = 1e-10
    fast = solve_radial(M, p=p, ell=ell, tol=tol)
    reference = solve_radial(dataclasses.replace(M, scalar_drift=None), p=p, ell=ell, tol=tol)
    assert fast.status == reference.status
    assert np.array_equal(fast.in_range, reference.in_range)
    gap = np.abs(fast.u.values - reference.u.values)[fast.in_range]
    assert np.max(gap) <= tol * ell, np.max(gap)
