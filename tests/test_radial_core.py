import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson

from bel import radial_core
from bel.construction import build_example, default_grid
from bel.errors import InvalidRangeError, OutOfGridError
from bel.geometry import log_tail_weight
from bel.radial_core import (
    RadialFunction,
    cumulative_gauss,
    finite_difference,
    gauss_antiderivative,
    grid_tolerance,
    indefinite_gauss,
    integrate_cumulative,
    make_grid,
    pole_refined_partition,
    sample,
)


# ---------------------------------------------------------------- make_grid


def test_uniform_grid_17_nodes_unit_interval():
    g = make_grid(0.0, 1.0, 17, "uniform")
    assert g.n == 17
    assert np.allclose(np.diff(g.nodes), 1 / 16, rtol=0, atol=1e-15)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_uniform_grid_minimum_node_count():
    g = make_grid(0.0, 10.0, 16, "uniform")
    assert np.allclose(np.diff(g.nodes), 10 / 15)


def test_geometric_grid_constant_ratio():
    g = make_grid(1.0, 100.0, 33, "geometric")
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, 100 ** (1 / 32), rtol=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 1.0, 32, "uniform"),  # empty range
        (2.0, 1.0, 32, "uniform"),  # reversed
        (0.0, 1.0, 15, "uniform"),  # too few nodes
        (0.0, 1.0, 32, "geometric"),  # geometric cannot start at 0
        (0.0, 1.0, 32, "chebyshev"),  # unknown kind
    ],
)
def test_bad_grid_requests_rejected(args):
    with pytest.raises(InvalidRangeError):
        make_grid(*args)


@given(
    r_min=st.floats(0, 10),
    width=st.floats(0.1, 100),
    n=st.integers(16, 300),
    kind=st.sampled_from(["uniform", "geometric"]),
)
@settings(max_examples=60)
def test_grid_invariants_hold(r_min, width, n, kind):
    if kind == "geometric" and r_min == 0.0:
        r_min = 0.5
    g = make_grid(r_min, r_min + width, n, kind)
    assert g.nodes[0] == r_min
    assert g.nodes[-1] == r_min + width
    assert np.all(np.diff(g.nodes) > 0), "nodes must increase strictly"
    assert g.n == n


# -------------------------------------------------------- finite_difference


def test_derivative_exact_on_squares():
    g = make_grid(0.0, 2.0, 41, "uniform")
    d = finite_difference(g.nodes**2, g, 1)
    assert np.allclose(d, 2 * g.nodes, rtol=0, atol=1e-12), (
        f"max err {np.abs(d - 2 * g.nodes).max():.2e}"
    )


@given(
    coeffs=st.tuples(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
    )
)
@settings(max_examples=40)
def test_derivative_exact_on_arbitrary_quadratics(coeffs):
    a, b, c = coeffs
    g = make_grid(0.0, 3.0, 33, "uniform")
    d = finite_difference(a * g.nodes**2 + b * g.nodes + c, g, 1)
    expect = 2 * a * g.nodes + b
    assert np.allclose(d, expect, atol=1e-10 * (1 + abs(a) + abs(b)))


def test_derivative_second_order_on_sin():
    errs = []
    for n in (65, 129):
        g = make_grid(0.0, np.pi, n, "uniform")
        d = finite_difference(np.sin(g.nodes), g, 1)
        errs.append(np.abs(d[1:-1] - np.cos(g.nodes[1:-1])).max())
    rate = errs[0] / errs[1]
    assert rate > 3.5, f"halving h should shrink error ~4x, got {rate:.2f}"


def test_derivative_of_constant_vanishes():
    g = make_grid(0.5, 4.0, 20, "geometric")
    d = finite_difference(np.full(g.n, 7.25), g, 1)
    assert np.allclose(d, 0.0, atol=1e-12)


def test_third_derivative_of_cubic():
    g = make_grid(0.0, 1.0, 101, "uniform")
    d3 = finite_difference(g.nodes**3, g, 3)
    # iterated stencils contaminate two nodes per pass at each end
    assert np.allclose(d3[3:-3], 6.0, atol=1e-6)


# ----------------------------------------------------- integrate_cumulative


def test_integral_of_one():
    g = make_grid(0.0, 1.0, 33, "uniform")
    F = integrate_cumulative(RadialFunction(g, np.ones(g.n)))
    assert abs(F.values[-1] - 1.0) < 1e-14
    assert F.values[0] == 0.0


def test_integral_of_identity():
    g = make_grid(0.0, 2.0, 33, "uniform")
    F = integrate_cumulative(RadialFunction(g, g.nodes))
    assert abs(F.values[-1] - 2.0) < 1e-13


def test_integral_of_square_converges_second_order():
    errs = []
    for n in (17, 33):
        g = make_grid(0.0, 1.0, n, "uniform")
        F = integrate_cumulative(RadialFunction(g, g.nodes**2))
        errs.append(abs(F.values[-1] - 1 / 3))
    # composite Simpson is exact on quadratics; allow roundoff only
    assert errs[0] < 1e-14 and errs[1] < 1e-14


def test_integral_convergence_on_transcendental():
    errs = []
    for n in (33, 65):
        g = make_grid(0.0, 1.0, n, "uniform")
        F = integrate_cumulative(RadialFunction(g, np.exp(g.nodes)))
        errs.append(abs(F.values[-1] - (np.e - 1)))
    assert errs[0] / errs[1] > 4.0, "expected at least second-order decay"


_SIMPSON_GRIDS = {
    "unit-steps": lambda n: make_grid(0.0, n - 1.0, n, "uniform"),  # every step exactly 1
    "uniform": lambda n: make_grid(0.25, 3.7, n, "uniform"),
    "geometric": lambda n: make_grid(1e-3, 100.0, n, "geometric"),
}


@pytest.mark.parametrize("grid", sorted(_SIMPSON_GRIDS))
@pytest.mark.parametrize("n", [16, 17, 33, 64, 257])
def test_integral_has_scipys_bits(grid, n):
    """The numpy Simpson gives ``scipy.integrate.cumulative_simpson``'s bits
    on uniform grids, one with exactly equal steps, and on geometric ones."""
    g = _SIMPSON_GRIDS[grid](n)
    for y in (np.exp(g.nodes / g.r_max), np.sin(g.nodes), g.nodes**2):
        got = integrate_cumulative(RadialFunction(g, y)).values
        assert np.array_equal(got, cumulative_simpson(y, x=g.nodes, initial=0.0))


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    n=st.integers(48, 200),
)
@settings(max_examples=40)
def test_differentiate_undoes_integrate(coeffs, n):
    g = make_grid(0.0, 1.5, n, "uniform")
    vals = sum(c * g.nodes**k for k, c in enumerate(coeffs))
    f = RadialFunction(g, np.asarray(vals))
    back = finite_difference(integrate_cumulative(f).values, g, 1)
    tol = grid_tolerance(g)[1:-1] * (1 + max(abs(c) for c in coeffs))
    err = np.abs(back[1:-1] - f.values[1:-1])
    assert np.all(err <= tol), f"roundtrip error {err.max():.2e} above tolerance"


def test_operations_are_deterministic():
    g = make_grid(0.0, 5.0, 64, "uniform")
    f = RadialFunction(g, np.sin(g.nodes) + 0.3 * g.nodes)
    a1, a2 = finite_difference(f.values, g, 1), finite_difference(f.values, g, 1)
    b1, b2 = integrate_cumulative(f).values, integrate_cumulative(f).values
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


# ---------------------------------------------------------- RadialFunction


def test_analytic_and_fd_derivatives_agree():
    g = make_grid(0.0, 3.0, 101, "uniform")
    f = sample(np.sin, g, derivs=(np.cos, lambda r: -np.sin(r), lambda r: -np.cos(r)))
    fd = finite_difference(f.values, g, 1)[1:-1]
    exact = f(g.nodes, 1)[1:-1]
    tol = grid_tolerance(g)[1:-1]
    assert np.all(np.abs(fd - exact) <= tol)


def test_value_length_checked():
    g = make_grid(0.0, 1.0, 16, "uniform")
    with pytest.raises(InvalidRangeError):
        RadialFunction(g, np.zeros(10))


def test_interpolated_call_rejects_out_of_grid():
    g = make_grid(1.0, 2.0, 16, "uniform")
    f = RadialFunction(g, g.nodes.copy())
    with pytest.raises(OutOfGridError):
        f(2.5)


def test_callback_evaluation_preferred():
    g = make_grid(0.0, 1.0, 16, "uniform")
    f = sample(lambda r: r**3, g)
    # interpolation of r^3 on 16 nodes would be visibly off mid-interval
    mid = 0.5 * (g.nodes[3] + g.nodes[4])
    assert abs(f(mid) - mid**3) < 1e-15
    # a 0-d array radius gives a float on the callback and interpolation paths alike
    for fn in (f, RadialFunction(g, g.nodes**3)):
        assert type(fn(np.asarray(mid))) is float


# --------------------------------------------------------- cumulative_gauss


def test_gauss_cumulative_matches_closed_forms():
    nodes = np.linspace(0.0, 2.0, 21)
    F = cumulative_gauss(lambda r: r**2, nodes)
    assert np.allclose(F, nodes**3 / 3, atol=1e-15)
    G = cumulative_gauss(np.exp, nodes)
    assert np.allclose(G, np.exp(nodes) - 1.0, rtol=1e-14)


def test_gauss_cumulative_on_geometric_nodes():
    nodes = np.geomspace(1e-3, 10.0, 200)
    F = cumulative_gauss(lambda r: 1.0 / (1.0 + r**2), nodes)
    expect = np.arctan(nodes) - np.arctan(nodes[0])
    assert np.allclose(F, expect, atol=1e-13)


def _blocked_integrands():
    grid = default_grid()
    warped = build_example(3, 0.5, grid=grid)
    log_tail = log_tail_weight(3, grid, 2.0)
    return {
        "warped-f-prime": lambda s: warped.f(s, 1),
        "log-tail-density": log_tail.area_density,
        "stacked": lambda s: np.stack([warped.area_density(s), warped.f(s, 1)]),
    }


@pytest.mark.parametrize("name", ["warped-f-prime", "log-tail-density", "stacked"])
def test_blocked_quadrature_is_bit_identical_to_one_call(monkeypatch, name):
    """Quadratures call their integrand on blocks of points; over the
    83_520 points of the default pole-refined partition (11 blocks) the
    table, and for one integrand the antiderivative at 5_000 radii between
    nodes (4 blocks), carry the bits of a single call over all points."""
    fn = _blocked_integrands()[name]
    pts = pole_refined_partition(default_grid().nodes)
    r = np.random.default_rng(7).uniform(1e-9, 1e3, 5000)
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return fn(s)

    def tables():
        table = cumulative_gauss(counted, pts)
        between = None if table.ndim > 1 else gauss_antiderivative(counted, pts, table)(r)
        return table, between

    blocked, blocked_between = tables()
    assert len(calls) == (11 if name == "stacked" else 15)
    assert max(calls) == radial_core._BLOCK_POINTS
    monkeypatch.setattr(radial_core, "_BLOCK_POINTS", 10**9)
    del calls[:]
    single, single_between = tables()
    assert len(calls) == (1 if name == "stacked" else 2)
    assert np.array_equal(blocked, single)
    assert np.array_equal(blocked_between, single_between)


def test_antiderivative_reads_nodal_values_at_partition_nodes():
    """At a partition node the antiderivative is the nodal value and its
    integrand is not called; elsewhere, r_max included (its interval is
    clipped to the one before), it is the nodal value plus a 5-point rule
    over the partial segment, with the bits of that formula."""
    nodes = pole_refined_partition(make_grid(1e-3, 20.0, 64, "geometric").nodes)
    fn = lambda s: np.cos(s) * np.exp(-s)  # noqa: E731
    nodal = indefinite_gauss(fn, nodes).nodal_values
    points = []

    def counted(s):
        points.append(np.size(s))
        return fn(s)

    F = gauss_antiderivative(counted, nodes, nodal)
    assert np.array_equal(F(nodes[:-1]), nodal[:-1])
    assert F(float(nodes[40])) == nodal[40]
    assert points == []

    r = np.sort(np.concatenate([nodes[::7], np.random.default_rng(3).uniform(0.0, 20.0, 50),
                                nodes[-1:]]))
    idx = np.clip(np.searchsorted(nodes, r, side="right") - 1, 0, nodes.size - 2)
    half = 0.5 * (r - nodes[idx])
    quad = (nodes[idx] + half)[:, None] + half[:, None] * radial_core._GAUSS_X
    expect = nodal[idx] + half * (fn(quad.ravel()).reshape(quad.shape) @ radial_core._GAUSS_W)
    assert np.array_equal(F(r), expect)
    assert sum(points) == 5 * np.count_nonzero(half != 0.0) == 5 * (50 + 1)
