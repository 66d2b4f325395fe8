"""Radial grids, numerical differentiation, and quadrature.

Everything downstream works with scalar functions of the geodesic radius
sampled on a :class:`RadialGrid`.  A :class:`RadialFunction` couples node
values with analytic callbacks, and is evaluated only through the callbacks.

Numerical conventions used package-wide:

* finite differences of node values are second order (central stencils
  inside, one-sided at the endpoints), also on non-uniform grids;
* the default tolerance for "equals" assertions on finite-differenced
  quantities is ``10 * h**2`` with ``h`` the local step (``grid_tolerance``);
* a radius lies inside a range ``[0, r_end]`` when it is at most ``r_end``
  up to a relative slack of 1e-12 (:func:`covers`);
* cumulative integrals of smooth callbacks use composite 5-point
  Gauss-Legendre, to machine accuracy (:func:`cumulative_gauss`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidRangeError

#: Minimum node count for any grid.
MIN_NODES = 16

_GAUSS_X, _GAUSS_W = leggauss(5)

#: Pieces each node interval is split into by :func:`cumulative_gauss`.
_REFINE = 4

#: Integrand points per call of a quadrature's callback: a block's
#: temporaries stay in cache instead of faulting in fresh pages.
_BLOCK_POINTS = 8192


@dataclasses.dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radii from ``nodes[0] >= 0``, built by :func:`make_grid`."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < MIN_NODES:
            raise InvalidRangeError(f"need at least {MIN_NODES} nodes, got {nodes.size}")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidRangeError("nodes must be strictly increasing")

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def first_step(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def local_steps(self) -> np.ndarray:
        """Per-node step scale: the larger of the two adjacent spacings."""
        h = self.steps
        out = np.empty(self.n)
        out[0] = h[0]
        out[-1] = h[-1]
        out[1:-1] = np.maximum(h[:-1], h[1:])
        return out


def grid_tolerance(grid: RadialGrid, factor: float = 10.0) -> np.ndarray:
    """Per-node tolerance ``factor * h_local**2`` for O(h^2) quantities."""
    return factor * grid.local_steps**2


def make_grid(r_min: float, r_max: float, n: int, kind: str = "uniform") -> RadialGrid:
    """Build a uniform or geometric grid of ``n`` nodes on ``[r_min, r_max]``.

    Raises
    ------
    InvalidRangeError
        if ``r_min >= r_max``, ``n < 16``, or a geometric grid starts at 0.
    """
    if n < MIN_NODES or not (0.0 <= r_min < r_max):
        raise InvalidRangeError(
            f"invalid grid request r_min={r_min} r_max={r_max} n={n}"
        )
    if kind == "uniform":
        nodes = np.linspace(r_min, r_max, n)
    elif kind == "geometric":
        if r_min <= 0.0:
            raise InvalidRangeError("geometric spacing requires r_min > 0")
        nodes = np.geomspace(r_min, r_max, n)
    else:
        raise InvalidRangeError(f"unknown spacing kind {kind!r}")
    # guard against rounding at the endpoints
    nodes[0] = r_min
    nodes[-1] = r_max
    return RadialGrid(nodes)


@dataclasses.dataclass(frozen=True, eq=False)
class RadialFunction:
    """Scalar function of the radius: node values + analytic callbacks.

    ``value_fn`` evaluates the function and ``derivs`` its derivatives of
    orders 1 and 2 (``None`` where unavailable).  ``__call__`` reads only the
    callbacks; without any, the instance is a record of node values.
    """

    grid: RadialGrid
    values: np.ndarray
    value_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivs: Sequence[Optional[Callable[[np.ndarray], np.ndarray]]] = (None, None)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise InvalidRangeError(
                f"values length {values.size} != node count {self.grid.n}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(self.derivs) > 2:
            raise InvalidRangeError(f"derivs holds orders 1 and 2, got {len(self.derivs)} callbacks")
        object.__setattr__(self, "derivs", tuple(self.derivs) + (None,) * (2 - len(self.derivs)))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r, order: int = 0):
        """The profile (``order`` 0) or its derivative of ``order`` 1 or 2 at ``r``.

        This is the one evaluation path, and the one place where a radius may
        be a scalar: it calls the callback of ``order`` on a float64 array, 0-d
        for a scalar ``r``, and turns the size-one result at a scalar ``r`` into
        a Python float.  A scalar stays 0-d: ``**`` on the numpy scalar that a
        ufunc returns there is libm's ``pow``, which can differ in the last bit
        from numpy's loop over a 1-d array.  It raises ``invalid-range``
        naming the order when there is no callback.
        """
        if not 0 <= order <= 2:
            raise InvalidRangeError(f"derivative order {order} not in 0..2")
        fn = self.value_fn if order == 0 else self.derivs[order - 1]
        if fn is None:
            raise InvalidRangeError(f"the radial profile has no callback for derivative order {order}")
        out = fn(np.asarray(r, dtype=float))
        return float(np.ravel(out)[0]) if np.ndim(r) == 0 else out


def sample(
    fn: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    derivs: Sequence[Optional[Callable]] = (None, None),
) -> RadialFunction:
    """Sample an analytic callback onto a grid, keeping it for evaluation."""
    return RadialFunction(grid, fn(grid.nodes), value_fn=fn, derivs=derivs)


def finite_difference(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """The first derivative of node values by second-order finite differences
    on (possibly non-uniform) nodes."""
    return np.gradient(np.asarray(values, dtype=float), grid.nodes, edge_order=2)


def covers(r_end: float, r):
    """Where the radii ``r`` lie in the range ``[0, r_end]`` (for ``r >= 0``),
    up to a relative slack of 1e-12 at ``r_end``; NaN lies in no range."""
    return r <= r_end * (1 + 1e-12)


def pole_refined_partition(nodes: np.ndarray) -> np.ndarray:
    """Integration partition covering ``[0, nodes[-1]]``, geometrically graded
    near the pole.

    Contains every node of ``nodes``.  The span up to the first positive node
    is subdivided by 81 geometric points down to 1e-8 times that radius, so
    that antiderivatives built on the partition stay accurate for integrands
    later divided by r- or r^2-scale factors (weight slopes, curvature
    combinations).
    """
    nodes = np.asarray(nodes, dtype=float)
    r1 = nodes[1] if nodes[0] == 0.0 else nodes[0]
    prefix = r1 * np.geomspace(1e-8, 1.0, 81)
    rest = nodes[nodes > r1]
    return np.concatenate([[0.0], prefix, rest])


def cumulative_gauss(fn: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """Cumulative integral of a smooth callback, machine accuracy.

    Each node interval is split into ``_REFINE`` pieces, each integrated with
    5-point Gauss-Legendre; partial sums are returned at the nodes
    (``out[0] = 0``).  ``fn`` is called on blocks of at most
    ``_BLOCK_POINTS`` evaluation points (see :func:`_in_blocks`), so it must
    be pointwise.  ``fn`` may return several integrands stacked along a
    leading axis, shape ``(k, points)``; each is accumulated on its own and
    the result has shape ``(k, nodes.size)``, so integrands that share an
    expensive factor evaluate it once.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < 2:
        return np.zeros(nodes.shape)
    # subinterval edges: shape (n_intervals, _REFINE+1)
    frac = np.linspace(0.0, 1.0, _REFINE + 1)
    lo = nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, :-1]
    hi = nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, 1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # evaluation points: shape (n_intervals, _REFINE, 5)
    pts = mid[..., None] + half[..., None] * _GAUSS_X
    vals = _in_blocks(fn, pts.ravel())
    sums = []
    for integrand in vals.reshape(-1, pts.size):
        pieces = (half * (integrand.reshape(pts.shape) @ _GAUSS_W)).sum(axis=1)
        out = np.empty(nodes.shape)
        out[0] = 0.0
        np.cumsum(pieces, out=out[1:])
        sums.append(out)
    return np.stack(sums) if vals.ndim > 1 else sums[0]


def _in_blocks(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """``fn(x)`` for a pointwise ``fn`` and 1-D points ``x``, evaluated on
    consecutive blocks of ``_BLOCK_POINTS`` points and joined along the last
    axis (integrands stacked along leading axes stay stacked)."""
    if x.size <= _BLOCK_POINTS:
        return fn(x)
    return np.concatenate([fn(x[i : i + _BLOCK_POINTS]) for i in range(0, x.size, _BLOCK_POINTS)],
                          axis=-1)


def indefinite_gauss(
    fn: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Antiderivative of ``fn`` from ``nodes[0]``, callable at arbitrary points.

    Nodal values come from :func:`cumulative_gauss`; between nodes the partial
    segment is integrated on the fly with a single 5-point rule.  Unlike a
    spline fitted through the nodal values, the result keeps quadrature-level
    accuracy *between* nodes too, which matters for integrals later divided by
    vanishing factors (e.g. r^2 near a pole).
    """
    nodes = np.asarray(nodes, dtype=float)
    return gauss_antiderivative(fn, nodes, cumulative_gauss(fn, nodes))


def gauss_antiderivative(
    fn: Callable[[np.ndarray], np.ndarray],
    nodes: np.ndarray,
    nodal_values: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """The antiderivative of :func:`indefinite_gauss`, from nodal values
    already accumulated (``cumulative_gauss(fn, nodes)``, possibly as one row
    of a stacked call).

    At a radius that is one of ``nodes`` (all but the last, whose interval
    is clipped to the one before) the result is the nodal value itself and
    ``fn`` is not called there; elsewhere ``fn`` is called on the 5 points
    of the partial segment, in blocks (:func:`_in_blocks`).
    """
    inner = nodes[1:-1]

    def antiderivative(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        # interval index in [0, nodes.size - 2]: one search, no np.clip (3x its cost)
        idx = np.searchsorted(inner, rr, side="right")
        half = 0.5 * (rr - nodes[idx])
        mid = nodes[idx] + half
        pts = mid[:, None] + half[:, None] * _GAUSS_X
        # rows at a node keep zeros (their weight half is 0); the product
        # below runs over every row, so no row changes place in it
        vals = np.zeros(pts.shape)
        off = half != 0.0
        if off.any():
            vals[off] = _in_blocks(fn, pts[off].ravel()).reshape(-1, _GAUSS_X.size)
        out = nodal_values[idx] + half * (vals @ _GAUSS_W)
        return out if np.ndim(r) else float(out[0])

    antiderivative.nodes = nodes  # type: ignore[attr-defined]
    antiderivative.nodal_values = nodal_values  # type: ignore[attr-defined]
    return antiderivative
