import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bel.construction import build_example
from bel.errors import (
    InvalidRangeError,
    InvalidVirtualDimensionError,
    OutOfGridError,
    SingularRadiusError,
    WarpingNotConcaveError,
)
from bel.geometry import (
    ModelManifold,
    comparison_report,
    curvature_report,
    euclidean,
    laplacian_of_distance,
    log_tail_weight,
    power_weight,
    ric_infinity_components,
    ric_n_radial,
    unit_sphere_area,
    warping_slope_energy,
    weight_from_warping,
    weighted_laplacian_radial,
    weighted_volume,
)
from bel.radial_core import (
    RadialFunction,
    finite_difference,
    grid_tolerance,
    make_grid,
    sample,
)


def _grid(r_max=10.0, n=257):
    return make_grid(0.0, r_max, n, "uniform")


def arctan_warping(grid):
    """A concave warping for tests: psi = arctan r, smooth at the pole
    (psi''(0) = 0)."""
    return sample(
        np.arctan,
        grid,
        derivs=(lambda r: 1.0 / (1.0 + r**2), lambda r: -2.0 * r / (1.0 + r**2) ** 2),
    )


# ----------------------------------------------------------- curvature ops


def test_euclidean_is_flat_at_every_node():
    for d in (2, 3, 4, 6):
        M = euclidean(d, _grid())
        r = M.report_nodes()
        ric_r, ric_th = ric_infinity_components(M, r)
        assert np.abs(ric_r).max() < 1e-13
        assert np.abs(ric_th).max() < 1e-13


def test_quadratic_weight_curvature_values():
    alpha = 0.7
    M = power_weight(3, _grid(), coeff=alpha)
    ric_r, ric_th = ric_infinity_components(M, 2.0)
    assert abs(ric_r - 2 * alpha) < 1e-12
    # psi psi' f' = 2 * 1 * (2 alpha * 2) = 8 alpha
    assert abs(ric_th - 8 * alpha) < 1e-12


def test_curvature_rejects_pole():
    M = euclidean(3, _grid())
    with pytest.raises(SingularRadiusError):
        ric_infinity_components(M, 0.0)


def test_ric_n_trivial_weight_independent_of_n():
    M = euclidean(5, _grid())
    base, _ = ric_infinity_components(M, 1.5)
    for n in (5.5, 7, 100, math.inf):
        assert abs(ric_n_radial(M, n, 1.5) - base) < 1e-14


def test_ric_n_quadratic_weight_value():
    alpha = 0.3
    M = power_weight(3, _grid(), coeff=alpha)
    got = ric_n_radial(M, 4, 1.0)
    assert abs(got - (2 * alpha - 4 * alpha**2)) < 1e-12


def test_ric_n_requires_n_above_d():
    M = euclidean(3, _grid())
    for bad in (3, 2.5, -1):
        with pytest.raises(InvalidVirtualDimensionError):
            ric_n_radial(M, bad, 1.0)


@given(n=st.floats(3.01, 50), r=st.floats(0.2, 9.5), coeff=st.floats(0.05, 2))
@settings(max_examples=50)
def test_finite_n_never_exceeds_infinite_n(n, r, coeff):
    M = power_weight(3, _grid(), coeff=coeff)
    ric_inf, _ = ric_infinity_components(M, r)
    assert ric_n_radial(M, n, r) <= ric_inf + 1e-15


def test_weighted_laplacian_matches_euclidean_laplacian():
    g = _grid()
    M = euclidean(3, g)
    w = sample(
        lambda r: r**2,
        g,
        derivs=(lambda r: 2 * r, lambda r: np.full_like(np.asarray(r, float), 2.0)),
    )
    assert abs(weighted_laplacian_radial(M, w, 1.7) - 6.0) < 1e-12


def test_weighted_laplacian_of_constant_vanishes():
    g = _grid()
    M = power_weight(3, g, coeff=0.5)
    zero = euclidean(3, g).f  # 0, with callbacks for its two derivatives, both 0
    w = sample(lambda r: zero(r) + 3.0, g, derivs=zero.derivs)
    assert abs(weighted_laplacian_radial(M, w, 2.0)) < 1e-10


def test_distance_laplacian_euclidean():
    M = euclidean(3, _grid())
    assert abs(laplacian_of_distance(M, 2.0) - 1.0) < 1e-13


def test_distance_laplacian_quadratic_weight():
    alpha = 0.25
    M = power_weight(3, _grid(), coeff=alpha)
    assert abs(laplacian_of_distance(M, 1.0) - (2 - 2 * alpha)) < 1e-12


# ------------------------------------------------------------- volumes


def test_unit_ball_volume_dimension_3():
    M = euclidean(3, _grid())
    assert abs(weighted_volume(M, 1.0) - 4 * math.pi / 3) < 1e-10


def test_disc_volume_dimension_2():
    M = euclidean(2, _grid())
    assert abs(weighted_volume(M, 2.0) - 4 * math.pi) < 1e-9


def test_volume_beyond_grid_rejected():
    M = euclidean(3, _grid(r_max=5.0))
    with pytest.raises(OutOfGridError):
        weighted_volume(M, 6.0)


def test_value_only_profiles_are_rejected_at_manifold_construction():
    """A profile is evaluated only through its callbacks, so a manifold
    whose psi or f lacks one up to the second derivative is an
    ``invalid-range`` error when it is built, naming what is missing."""
    grid = _grid()
    e = euclidean(3, grid)
    value_only = RadialFunction(grid, grid.nodes + grid.nodes**2 / 2.0)
    slope_only = RadialFunction(grid, np.zeros(grid.n), derivs=e.f.derivs[:1])
    for psi, f, missing in [(value_only, e.f, "psi, psi', psi''"),
                            (e.psi, slope_only, "f, f''")]:
        with pytest.raises(InvalidRangeError) as err:
            ModelManifold(d=3, psi=psi, f=f)
        assert err.value.code == "invalid-range"
        assert str(err.value).endswith(f"missing: {missing}")


def test_sphere_areas():
    assert abs(unit_sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(unit_sphere_area(3) - 4 * math.pi) < 1e-14
    assert abs(unit_sphere_area(4) - 2 * math.pi**2) < 1e-13


# ---------------------------------------------------------- weight recipe


def test_weight_recipe_matches_nested_quadrature_oracle():
    g = _grid(r_max=4.0, n=129)
    psi = arctan_warping(g)
    d = 3

    def dd_times_psi(t):
        return -2.0 * t * np.arctan(t) / (1.0 + t**2) ** 2

    f = weight_from_warping(psi, d)
    # independent oracle: nested adaptive quadrature of the first-order form
    inner = quad(dd_times_psi, 0.0, 1.0, epsabs=1e-13)[0]
    oracle_fp = (d - 1) * inner / np.arctan(1.0) ** 2
    assert abs(f.derivs[0](1.0) - oracle_fp) < 1e-10
    outer = quad(
        lambda s: (d - 1)
        * quad(dd_times_psi, 0.0, s, epsabs=1e-13)[0]
        / np.arctan(s) ** 2,
        0.0,
        2.0,
        epsabs=1e-11,
    )[0]
    assert abs(f(2.0) - outer) < 1e-8


def test_weight_recipe_negative_slope_and_anchor():
    g = _grid(r_max=6.0, n=129)
    f = weight_from_warping(arctan_warping(g), 4)
    assert f(0.0) == 0.0
    r = g.nodes[1:]
    assert np.all(f.derivs[0](r) < 0), "weight slope must be negative for r > 0"


def test_weight_recipe_satisfies_second_order_relation():
    g = _grid(r_max=4.0, n=257)
    psi = arctan_warping(g)
    f = weight_from_warping(psi, 3)
    # residual of f'' + 2 (psi'/psi) f' - 2 psi''/psi, measured with
    # finite differences of the sampled slope
    fp = f.derivs[0](g.nodes)
    fpp_fd = finite_difference(fp, g)
    r = g.nodes[1:-1]
    resid = (
        fpp_fd[1:-1]
        + 2.0 * (psi.derivs[0](r) / psi(r)) * fp[1:-1]
        - 2.0 * psi.derivs[1](r) / psi(r)
    )
    tol = grid_tolerance(g)[1:-1]
    assert np.all(np.abs(resid) <= tol), f"max residual {np.abs(resid).max():.2e}"


def test_weight_recipe_rejects_straight_warping():
    g = _grid()
    psi = euclidean(3, g).psi
    with pytest.raises(WarpingNotConcaveError):
        weight_from_warping(psi, 3)


def test_closed_form_distance_laplacian_agrees():
    """On a weight made from its warping, L r = (d-1) int_0^r psi'^2 / psi^2."""
    g = _grid(r_max=4.0, n=129)
    psi = arctan_warping(g)
    M = ModelManifold(d=3, psi=psi, f=weight_from_warping(psi, 3), weight_from_psi=True)
    r = M.report_nodes()
    generic = np.asarray(laplacian_of_distance(M, r))
    closed = 2.0 * warping_slope_energy(M)(r) / psi(r) ** 2
    assert np.max(np.abs(closed - generic) / (1.0 + np.abs(generic))) <= 1e-8
    assert np.all(generic > 0)


def test_value_only_warping_is_rejected():
    """The weight reads the warping only through ``psi(r, order)``: a
    warping without callbacks for psi, psi' and psi'' is an
    ``invalid-range`` error that names the first order it lacks."""
    g = _grid(r_max=4.0, n=129)
    derivs = arctan_warping(g).derivs
    for known, order in [(0, 2), (1, 2), (2, 0)]:
        psi = RadialFunction(g, np.arctan(g.nodes), derivs=derivs[:known])
        with pytest.raises(InvalidRangeError) as err:
            weight_from_warping(psi, 3)
        assert err.value.code == "invalid-range"
        assert str(err.value).endswith(f"no callback for derivative order {order}")


def test_weight_recipe_deterministic():
    g = _grid(r_max=4.0, n=65)
    f1 = weight_from_warping(arctan_warping(g), 3)
    f2 = weight_from_warping(arctan_warping(g), 3)
    assert np.array_equal(f1.values, f2.values)


# ------------------------------------------------------------- reports


def test_comparison_report_euclidean_d3():
    M = euclidean(3, _grid(r_max=100.0, n=513))
    rep = comparison_report(M)
    assert rep.sharp_laplacian_holds
    assert abs(rep.rough_constant - 2.0) < 1e-9
    assert not rep.parabolic, "flat 3-space is non-parabolic"
    R = M.report_nodes()[M.report_nodes() >= 1.0]
    assert np.max(np.abs(np.asarray(weighted_volume(M, R)) / R**3 - 4 * math.pi / 3)) < 1e-6


def test_comparison_report_euclidean_d2_is_parabolic():
    M = euclidean(2, _grid(r_max=100.0, n=513))
    rep = comparison_report(M)
    assert rep.parabolic
    assert abs(rep.tail_exponent + 1.0) < 1e-6


def test_comparison_report_soliton_weight_parabolic():
    # Gaussian-type density decays so fast the tail integral of 1/S diverges
    M = power_weight(3, make_grid(0.0, 20.0, 513, "uniform"))
    rep = comparison_report(M)
    assert rep.parabolic
    assert rep.tail_exponent > 0


def test_curvature_report_positive_for_quadratic_weight():
    M = power_weight(3, _grid(), coeff=1.0)
    rep = curvature_report(M)
    assert rep.ric_r.min() > 0
    assert rep.ric_theta.min() > 0
    ric_r_n = np.asarray(ric_n_radial(M, 5, rep.r))
    assert np.all(ric_r_n <= rep.ric_r + 1e-14)


# ------------------------------------------------------- logarithmic tail


def test_log_tail_weight_exact_beyond_blend():
    d, beta = 3, 2.0
    g = make_grid(0.0, 1000.0, 1025, "uniform")
    M = log_tail_weight(d, g, beta=beta)
    C = 3.0 ** (d - 2) / math.log(3.0) ** beta
    for r in (3.0, 10.0, 400.0):
        expect = -math.log(C * r ** (2 - d) * math.log(r) ** beta)
        assert abs(M.f(r) - expect) < 1e-12


def test_log_tail_weight_flat_near_pole():
    M = log_tail_weight(3, _grid())
    assert abs(M.f(0.5)) < 1e-15
    assert abs(M.f(1.0, 1)) < 1e-15


def test_log_tail_weight_not_parabolic():
    M = log_tail_weight(3, make_grid(0.0, 1000.0, 2049, "uniform"), beta=2.0)
    rep = comparison_report(M)
    assert not rep.parabolic
    assert rep.tail_exponent < -1.0


def test_log_tail_volume_ratio_decreasing():
    M = log_tail_weight(3, make_grid(0.0, 1000.0, 2049, "uniform"), beta=2.0)
    R = np.geomspace(10.0, 1000.0, 65)
    ratio = np.asarray(weighted_volume(M, R)) / R**4
    assert np.all(np.diff(ratio) < 0), "mu(B_R)/R^4 should decrease on [10, 1e3]"


# ------------------------------------------------------ scalar drift path

# Radii for the scalar-drift identity: a log sweep over both grid ends, dense
# below r = 0.1 (build_example's flux series), the log-tail blend edges 1.5
# and 3.0, and the neighbours of every edge.
_EDGES = np.array([1e-4, 1e-3, 0.1, 1.5, 3.0, 12.0, 100.0, 1e3])
_SCALAR_RADII = np.unique(np.concatenate([
    np.geomspace(1e-4, 1e3, 5001),
    np.linspace(1e-4, 0.1, 1001),
    np.linspace(1.49, 1.51, 1001),
    np.linspace(2.99, 3.01, 1001),
    _EDGES, np.nextafter(_EDGES, 0.0), np.nextafter(_EDGES, np.inf),
]))


def _scalar_drift_family(kind):
    """The stock builders over the benchmark's pool parameters."""
    g = make_grid(1e-3, 1e3, 257, "geometric")
    if kind == "warped":
        return [build_example(d, alpha, grid=g) for d in (3, 4, 5) for alpha in (0.3, 0.5, 0.7)]
    if kind == "power":
        return [power_weight(3, g, coeff, power) for coeff in (0.5, 1.0, 2.0) for power in (1.5, 2.0)]
    if kind == "log-tail":
        return [log_tail_weight(d, g, beta) for d in (3, 4, 5) for beta in (1.5, 2.0, 3.0)]
    return [euclidean(d, g) for d in range(2, 9)]


@pytest.mark.parametrize("kind", ["warped", "power", "log-tail", "euclidean"])
def test_scalar_drift_bit_identical_to_generic(kind):
    """A float radius gives the bits of the 0-d array path, the one the shot
    took before the scalar path existed.  The 0-d path costs 20-60 us a call,
    so the members of a family split the radii between them; the edges go to
    every member."""
    family = _scalar_drift_family(kind)
    assert _SCALAR_RADII.size >= 8000
    for i, M in enumerate(family):
        assert M.scalar_drift is not None
        radii = np.union1d(_SCALAR_RADII[i :: len(family)], _EDGES)
        for r in radii:
            assert M.scalar_drift(float(r)) == M.drift(np.asarray(r)), (M.d, r)


@pytest.mark.parametrize("kind", ["warped", "power", "log-tail", "euclidean"])
def test_scalar_drift_rejects_the_pole(kind):
    M = _scalar_drift_family(kind)[0]
    for r in (0.0, -1.0, np.float64(0.0)):
        with pytest.raises(SingularRadiusError):
            M.drift(r)


@pytest.mark.parametrize("power", [1.0, 0.5, -1.0])
def test_power_weight_rejects_power_at_most_one(power):
    with pytest.raises(InvalidRangeError):
        power_weight(3, _grid(), coeff=1.0, power=power)
