import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bel.errors import InvalidRangeError, OutOfGridError
from bel.radial_core import (
    RadialFunction,
    cumulative_gauss,
    differentiate,
    grid_tolerance,
    integrate_cumulative,
    make_grid,
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


# ------------------------------------------------------------ differentiate


def test_derivative_exact_on_squares():
    g = make_grid(0.0, 2.0, 41, "uniform")
    f = RadialFunction(g, g.nodes**2)
    d = differentiate(f)
    assert np.allclose(d.values, 2 * g.nodes, rtol=0, atol=1e-12), (
        f"max err {np.abs(d.values - 2 * g.nodes).max():.2e}"
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
    f = RadialFunction(g, a * g.nodes**2 + b * g.nodes + c)
    d = differentiate(f)
    expect = 2 * a * g.nodes + b
    assert np.allclose(d.values, expect, atol=1e-10 * (1 + abs(a) + abs(b)))


def test_derivative_second_order_on_sin():
    errs = []
    for n in (65, 129):
        g = make_grid(0.0, np.pi, n, "uniform")
        d = differentiate(RadialFunction(g, np.sin(g.nodes)))
        errs.append(np.abs(d.values[1:-1] - np.cos(g.nodes[1:-1])).max())
    rate = errs[0] / errs[1]
    assert rate > 3.5, f"halving h should shrink error ~4x, got {rate:.2f}"


def test_derivative_of_constant_vanishes():
    g = make_grid(0.5, 4.0, 20, "geometric")
    d = differentiate(RadialFunction(g, np.full(g.n, 7.25)))
    assert np.allclose(d.values, 0.0, atol=1e-12)


def test_third_derivative_of_cubic():
    g = make_grid(0.0, 1.0, 101, "uniform")
    f = RadialFunction(g, g.nodes**3)
    d3 = differentiate(f, order=3)
    # iterated stencils contaminate two nodes per pass at each end
    assert np.allclose(d3.values[3:-3], 6.0, atol=1e-6)


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


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    n=st.integers(48, 200),
)
@settings(max_examples=40)
def test_differentiate_undoes_integrate(coeffs, n):
    g = make_grid(0.0, 1.5, n, "uniform")
    vals = sum(c * g.nodes**k for k, c in enumerate(coeffs))
    f = RadialFunction(g, np.asarray(vals))
    back = differentiate(integrate_cumulative(f))
    tol = grid_tolerance(g)[1:-1] * (1 + max(abs(c) for c in coeffs))
    err = np.abs(back.values[1:-1] - f.values[1:-1])
    assert np.all(err <= tol), f"roundtrip error {err.max():.2e} above tolerance"


def test_operations_are_deterministic():
    g = make_grid(0.0, 5.0, 64, "uniform")
    f = RadialFunction(g, np.sin(g.nodes) + 0.3 * g.nodes)
    a1, a2 = differentiate(f).values, differentiate(f).values
    b1, b2 = integrate_cumulative(f).values, integrate_cumulative(f).values
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


# ---------------------------------------------------------- RadialFunction


def test_analytic_and_fd_derivatives_agree():
    g = make_grid(0.0, 3.0, 101, "uniform")
    f = sample(np.sin, g, derivs=(np.cos, lambda r: -np.sin(r), lambda r: -np.cos(r)))
    fd = differentiate(f).values[1:-1]
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
