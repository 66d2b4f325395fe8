"""Weighted model-manifold data and curvature/volume/comparison computations.

A model manifold here is ``g = dr^2 + psi(r)^2 dtheta^2`` with measure
``dmu = e^{-f} dnu``.  All geometry reduces to the radial profiles ``psi``
and ``f``:

* drift Laplacian of a radial ``w``:  ``w'' + ((d-1) psi'/psi - f') w'``;
* radial curvature:   ``ric_r = -(d-1) psi''/psi + f''``;
* angular curvature:  ``ric_theta = -psi'' psi + (d-2)(1-(psi')^2) + psi psi' f'``
  (the coefficient of ``dtheta^2``);
* finite virtual dimension ``n > d``: ``ric_r - (f')^2/(n-d)``.

Evaluations at the pole ``r = 0`` raise ``singular-radius``; reports start at
the first node with ``r >= 3h`` (h = first grid step) so finite-difference
noise near the 0/0 limit of ``psi'/psi`` never enters a verdict.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidRangeError,
    InvalidVirtualDimensionError,
    OutOfGridError,
    SingularRadiusError,
    WarpingNotConcaveError,
)
from .radial_core import (
    RadialFunction,
    RadialGrid,
    covers,
    cumulative_gauss,
    gauss_antiderivative,
    indefinite_gauss,
    pole_refined_partition,
    sample,
)


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _as_radii(r, positive: bool = True):
    arr = np.asarray(r, dtype=float)
    if positive and np.any(arr <= 0.0):
        raise SingularRadiusError("evaluation requires r > 0")
    if not positive and np.any(arr < 0.0):
        raise InvalidRangeError("radius must be nonnegative")
    return arr


def _maybe_scalar(x, template):
    return float(x) if np.isscalar(template) or np.ndim(template) == 0 else x


@dataclasses.dataclass(frozen=True, eq=False)
class ModelManifold:
    """Dimension plus warping and weight profiles on a shared grid.

    ``alpha`` records the linear slope of ``psi`` at infinity when known;
    ``weight_from_psi`` marks weights obtained from the concave-warping
    recipe (the slope factor is then cross-checked against its decomposition).

    ``scalar_drift``, when set, evaluates the drift at one Python float
    radius ``r > 0`` without the array machinery; the radial shot calls it
    directly, once per right-hand-side stage.  It repeats the operations of
    :meth:`drift` on Python floats, with ``**`` and ``math`` where that path
    applies a ufunc, and returns a ``float``: it makes no numpy call (a
    ufunc on one float costs about twenty libm calls, and the ``np.float64``
    it returns carries numpy's scalar arithmetic into the rest of the
    stage).  It agrees with :meth:`drift`
    within a few ulps (libm and numpy's ufunc loops round the elementary
    functions differently), not bit for bit.  A power past the float range
    may raise ``OverflowError`` where numpy gives inf; the shot then
    evaluates that stage with :meth:`drift`.  :meth:`drift` never calls it
    and stays the reference.  The stock builders (:func:`euclidean`,
    :func:`power_weight`, :func:`log_tail_weight` and
    :func:`bel.construction.build_example`) supply one; other manifolds
    leave it ``None``.  It describes ``d``, ``psi`` and ``f``, so a copy
    that replaces any of them must replace it too (with ``None`` the shot
    calls :meth:`drift`).
    """

    d: int
    psi: RadialFunction
    f: RadialFunction
    alpha: Optional[float] = None
    weight_from_psi: bool = False
    scalar_drift: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 2:
            raise InvalidDimensionError(f"dimension must be an integer >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if not np.array_equal(self.psi.grid.nodes, self.f.grid.nodes):
            raise InvalidRangeError("psi and f must share one grid")
        missing = [name + "'" * order for name, profile in (("psi", self.psi), ("f", self.f))
                   for order, fn in enumerate((profile.value_fn, *profile.derivs)) if fn is None]
        if missing:
            raise InvalidRangeError(f"psi and f need callbacks up to the second derivative; "
                                    f"missing: {', '.join(missing)}")
        r = self.grid.nodes
        pos = r > 0
        if np.any(self.psi.values[pos] <= 0):
            raise InvalidRangeError("warping must be positive for r > 0")
        if np.any(self.psi(r, 1)[pos] <= 0):
            raise InvalidRangeError("warping slope must be positive for r > 0")
        object.__setattr__(self, "_cache", {})

    # -- structure ----------------------------------------------------------

    @property
    def grid(self) -> RadialGrid:
        return self.psi.grid

    @property
    def report_start_radius(self) -> float:
        """Smallest radius used in verdicts: 3 local steps from the pole."""
        return 3.0 * self.grid.first_step

    def report_nodes(self) -> np.ndarray:
        r = self.grid.nodes
        return r[(r >= max(self.report_start_radius, np.finfo(float).tiny)) & (r > 0)]

    # -- profile evaluation -------------------------------------------------

    def drift(self, r):
        """L r = (d-1) psi'/psi - f' at r > 0 (the drift of the distance)."""
        return _maybe_scalar(RadialJet(self, r).drift, r)

    def area_density(self, r):
        """S(r) = e^{-f} psi^{d-1}, the weighted area density (no sphere factor)."""
        rr = np.asarray(r, dtype=float)
        val = np.exp(-self.f(rr)) * self.psi(rr) ** (self.d - 1)
        return _maybe_scalar(val, r)

    # -- kept antiderivatives ----------------------------------------------

    @functools.cached_property
    def partition(self) -> np.ndarray:
        """The pole-refined partition of the grid, on which every
        antiderivative kept on the manifold accumulates its nodal values."""
        return pole_refined_partition(self.grid.nodes)

    def integral(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        """``r -> int_0^r`` of the integrand ``name`` of :data:`_INTEGRANDS`,
        a :func:`gauss_antiderivative` on :attr:`partition` built at the first
        call and kept: the one builder of what a manifold keeps.

        The slope factor is accumulated in one pass with the volume, which
        the pass keeps too, so the two share their evaluation of S.  A kept
        integrand reaches the manifold only through a weak reference: a cycle
        through the cache would keep a dead manifold until the cyclic GC.
        Raises ``invalid-range`` naming the first partition radius at which a
        nodal value is not finite.
        """
        cache = self._cache
        if name not in cache:
            manifold, pts = weakref.ref(self), self.partition
            names = ("volume", name) if name == "slope factor" else (name,)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
                sums = cumulative_gauss(_jet_integrand(manifold, names), pts)
            for key, row in zip(names, np.reshape(sums, (len(names), -1))):
                bad = ~np.isfinite(row)
                if np.any(bad):
                    raise InvalidRangeError(
                        f"{_INTEGRANDS[key][0]} leaves the float range: "
                        f"its {key} table is not finite from r = {pts[np.argmax(bad)]:.6g}"
                    )
                if key not in cache:
                    cache[key] = gauss_antiderivative(_jet_integrand(manifold, (key,)), pts, row)
        return cache[name]

    def cumulative_area(self, R):
        """V(R) = integral_0^R e^{-f} psi^{d-1} dr (no sphere factor), read
        from the kept ``volume`` antiderivative (:meth:`integral`)."""
        RR = _as_radii(R, positive=False)
        if not np.all(covers(self.grid.r_max, RR)):
            raise OutOfGridError(f"radius beyond grid r_max={self.grid.r_max}")
        return _maybe_scalar(self.integral("volume")(RR), R)


# --------------------------------------------------------------- curvature


class RadialJet:
    """``psi``, ``psi'``, ``psi''``, ``f'`` and ``f''`` at radii r > 0, with
    the drift and the curvature components formed from them.

    Each profile value is evaluated once, when first read, so quantities
    that share a point set share its evaluations.  These properties are the
    one formula of the drift and of each curvature component.
    """

    def __init__(self, M: ModelManifold, r):
        self.d = M.d
        self.r = _as_radii(r)
        self._M = M

    @functools.cached_property
    def psi(self):
        return self._M.psi(self.r)

    @functools.cached_property
    def dpsi(self):
        return self._M.psi(self.r, 1)

    @functools.cached_property
    def ddpsi(self):
        return self._M.psi(self.r, 2)

    @functools.cached_property
    def df(self):
        return self._M.f(self.r, 1)

    @functools.cached_property
    def ddf(self):
        return self._M.f(self.r, 2)

    @functools.cached_property
    def area_density(self):
        return self._M.area_density(self.r)

    @property
    def drift(self):
        """L r = (d-1) psi'/psi - f'."""
        return (self.d - 1) * self.dpsi / self.psi - self.df

    @property
    def ric_r(self):
        """The radial component -(d-1) psi''/psi + f''."""
        return -(self.d - 1) * self.ddpsi / self.psi + self.ddf

    @property
    def ric_theta(self):
        """The angular component -psi'' psi + (d-2)(1-(psi')^2) + psi psi' f'."""
        psi, dpsi = self.psi, self.dpsi
        return -self.ddpsi * psi + (self.d - 2) * (1.0 - dpsi**2) + psi * dpsi * self.df

    @property
    def curvature_defect(self):
        """G = ric_r + 2 psi' f'/psi - (f')^2/(d-1); G <= 0 is the slope-factor sign condition."""
        df = self.df
        return self.ric_r + 2.0 * self.dpsi * df / self.psi - df**2 / (self.d - 1)


#: The integrands a manifold keeps antiderivatives of (:meth:`ModelManifold.integral`),
#: by name: what the integrand is, and its values on a :class:`RadialJet`.
_INTEGRANDS = {
    "volume": ("weighted area density S = e^-f psi^(d-1)", lambda jet: jet.area_density),
    "slope energy": ("warping slope energy (psi')^2", lambda jet: jet.dpsi**2),
    "slope factor": (
        "slope-factor integrand S G / Lr^2",
        lambda jet: jet.area_density * jet.curvature_defect / jet.drift**2,
    ),
}



def _jet_integrand(manifold: weakref.ref, names) -> Callable[[np.ndarray], np.ndarray]:
    """The integrands ``names`` of ``manifold()`` at points s > 0, on one jet
    and stacked along a leading axis when there are several."""

    def integrand(s):
        jet = RadialJet(manifold(), s)
        values = [_INTEGRANDS[name][1](jet) for name in names]
        return values[0] if len(values) == 1 else np.stack(values)

    return integrand


def ric_infinity_components(M: ModelManifold, r):
    """Radial and angular curvature components at r > 0.

    Returns ``(ric_r, ric_theta)`` with
    ``ric_r = -(d-1) psi''/psi + f''`` and
    ``ric_theta = -psi'' psi + (d-2)(1-(psi')^2) + psi psi' f'``.
    """
    jet = RadialJet(M, r)
    return _maybe_scalar(jet.ric_r, r), _maybe_scalar(jet.ric_theta, r)


def ric_n_radial(M: ModelManifold, n: float, r):
    """Radial curvature at finite virtual dimension: ric_r - (f')^2/(n-d).

    ``n = math.inf`` returns the plain radial component; ``n <= d`` raises
    ``invalid-n``.
    """
    if not math.isinf(n) and n <= M.d:
        raise InvalidVirtualDimensionError(f"need n > d = {M.d}, got n = {n}")
    jet = RadialJet(M, r)
    if math.isinf(n):
        return _maybe_scalar(jet.ric_r, r)
    return _maybe_scalar(jet.ric_r - jet.df**2 / (n - M.d), r)


def weighted_laplacian_radial(M: ModelManifold, w: RadialFunction, r):
    """Drift Laplacian of a radial function: w'' + ((d-1) psi'/psi - f') w'."""
    rr = _as_radii(r)
    val = w(rr, 2) + M.drift(rr) * w(rr, 1)
    return _maybe_scalar(val, r)


def warping_slope_energy(M: ModelManifold):
    """The kept antiderivative r -> int_0^r (psi')^2 ds (:meth:`ModelManifold.integral`),
    behind the sharp-comparison defect chi = int (psi')^2 - psi^2/r."""
    return M.integral("slope energy")


def laplacian_of_distance(M: ModelManifold, r):
    """L r, the drift Laplacian of the distance from the pole: the drift."""
    return M.drift(r)


def weighted_volume(M: ModelManifold, R):
    """mu(B_R) = |S^{d-1}| * int_0^R e^{-f} psi^{d-1} dr."""
    return unit_sphere_area(M.d) * M.cumulative_area(R)


# ----------------------------------------------------------------- reports


@dataclasses.dataclass(frozen=True)
class CurvatureReport:
    """Curvature components sampled on the report nodes."""

    r: np.ndarray
    ric_r: np.ndarray
    ric_theta: np.ndarray


def curvature_report(M: ModelManifold) -> CurvatureReport:
    r = M.report_nodes()
    ric_r, ric_th = ric_infinity_components(M, r)
    return CurvatureReport(r=r, ric_r=np.asarray(ric_r), ric_theta=np.asarray(ric_th))


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """Distance-Laplacian comparison and parabolicity verdicts with fitted constants."""

    sharp_laplacian_holds: bool
    rough_constant: float
    tail_exponent: float
    parabolic: bool


def comparison_report(M: ModelManifold) -> ComparisonReport:
    """Evaluate L r and the tail of 1/S on the report nodes of the whole grid.

    * sharp comparison:  L r <= (d-1)/r;
    * rough comparison:  least C with L r <= C/r, i.e. max of r * L r;
    * parabolicity:      the tail integral of 1/S converges; the verdict fits
      log(1/S) against log(r) on the top decade and calls the manifold
      non-parabolic when the fitted exponent is below -1 (integrable tail).
    """
    r = M.report_nodes()
    Lr = np.asarray(M.drift(r))
    violation = Lr - (M.d - 1) / r
    sharp_max = float(violation.max())
    sharp_holds = sharp_max <= 1e-12 * max(1.0, float(np.abs(Lr).max()))
    rough = float((r * Lr).max())

    tail = r[r >= M.grid.r_max / 10.0]
    dens = np.asarray(M.area_density(tail)) * unit_sphere_area(M.d)
    slope = float(np.polyfit(np.log(tail), np.log(1.0 / dens), 1)[0])
    return ComparisonReport(
        sharp_laplacian_holds=sharp_holds,
        rough_constant=rough,
        tail_exponent=slope,
        parabolic=slope >= -1.0 - 1e-9,
    )


# ----------------------------------------------------- weight construction


def weight_from_warping(psi: RadialFunction, d: int) -> RadialFunction:
    """Weight profile determined by a strictly concave warping.

    Solves ``f'' + 2 (psi'/psi) f' = (d-1) psi''/psi`` with ``f(0) = 0`` and
    ``f'(0) = 0`` through its first-order reduction

        f'(r) = (d-1) * F(r) / psi(r)^2 ,      F(r) = int_0^r psi'' psi ds .

    This is the generic path, for any warping: the flux ``F`` is an
    antiderivative by composite Gauss-Legendre quadrature on a pole-refined
    partition of the grid, over the analytic callbacks of ``psi``, and ``f``
    is a second quadrature, of ``f'``, on that partition.  Every evaluation
    of ``f`` therefore nests one quadrature inside another; warpings whose
    flux is known in closed form (:func:`bel.construction.build_example`)
    skip the inner level.
    Concavity (``psi'' < 0`` for r > 0) is required; it forces ``f' < 0``
    for all r > 0.

    Raises
    ------
    InvalidRangeError
        if psi' <= 0 at a grid node with r > 0, or ``psi(r, order)`` finds no
        callback for psi, psi' or psi'' (a warping given by node values alone).
    WarpingNotConcaveError
        if ``psi'' >= 0`` at any grid node with r > 0.
    """
    if int(d) != d or d < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
    grid = psi.grid
    r_pos = grid.nodes > 0
    if np.any(psi(grid.nodes, 2)[r_pos] >= 0):
        raise WarpingNotConcaveError("psi'' < 0 for r > 0 is required")
    if np.any(psi(grid.nodes, 1)[r_pos] <= 0):
        raise InvalidRangeError("warping slope must stay positive")

    # The slope divides the accumulated integral by psi^2 ~ r^2, so F needs
    # quadrature-level accuracy between nodes (a fitted spline is not enough)
    # and a partition graded into the pole.
    pts = pole_refined_partition(grid.nodes)
    flux = indefinite_gauss(lambda s: psi(s, 2) * psi(s), pts)
    return _weight_from_flux(psi, d, flux)


def _weight_from_flux(
    psi: RadialFunction,
    d: int,
    flux: Callable[[np.ndarray], np.ndarray],
) -> RadialFunction:
    """Assemble ``f``, ``f'`` and ``f''`` from the flux ``F = int_0^r psi'' psi``.

    ``f' = (d-1) F/psi^2`` with ``f'(0) = 0``; ``f''`` follows from the
    weight ODE at r > 0 (``singular-radius`` at r <= 0); ``f`` is one
    Gauss-Legendre antiderivative of ``f'`` on the pole-refined partition,
    so ``f(0) = 0``.
    """
    grid = psi.grid
    pts = pole_refined_partition(grid.nodes)

    def f_prime(r):
        rr = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = (d - 1) * np.atleast_1d(flux(rr)) / np.atleast_1d(psi(rr)) ** 2
        out = np.where(np.atleast_1d(rr) == 0.0, 0.0, out)
        return out if rr.ndim else float(out[0])

    f_value = indefinite_gauss(f_prime, pts)

    def f_second(r):
        rr = _as_radii(r)
        psi_r = psi(rr)
        return (d - 1) * psi(rr, 2) / psi_r - 2.0 * (psi(rr, 1) / psi_r) * f_prime(rr)

    values = f_value.nodal_values[np.searchsorted(pts, grid.nodes)]
    return RadialFunction(grid, values, value_fn=f_value, derivs=(f_prime, f_second))


# ---------------------------------------------------- stock model builders


def euclidean(d: int, grid: RadialGrid) -> ModelManifold:
    """Flat R^d as a model manifold: psi = r, f = 0 (analytic callbacks)."""
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    one = lambda r: np.ones_like(np.asarray(r, dtype=float))
    psi = sample(lambda r: np.asarray(r, dtype=float), grid, derivs=(one, zero))
    f = sample(zero, grid, derivs=(zero, zero))
    return ModelManifold(d=d, psi=psi, f=f, alpha=1.0, scalar_drift=lambda r: (d - 1) / r)


def power_weight(d: int, grid: RadialGrid, coeff: float = 1.0, power: float = 2.0) -> ModelManifold:
    """psi = r with weight f = coeff * r^power (e.g. the Gaussian-type soliton).

    Raises ``invalid-range`` for ``power <= 1``: the model needs
    ``f'(0) = 0``, and ``f' = coeff * power * r^(power-1)`` meets it only for
    ``power > 1`` (``f`` itself is singular at the pole for ``power < 0``).
    """
    if not power > 1.0:
        raise InvalidRangeError(f"weight power must satisfy power > 1, got {power}")
    e = euclidean(d, grid)
    f = sample(
        lambda r: coeff * np.asarray(r, dtype=float) ** power,
        grid,
        derivs=(
            lambda r: coeff * power * np.asarray(r, dtype=float) ** (power - 1),
            lambda r: coeff * power * (power - 1) * np.asarray(r, dtype=float) ** (power - 2),
        ),
    )
    c1, e1 = coeff * power, power - 1

    def scalar_drift(r):
        try:
            grow = r**e1
        except OverflowError:  # numpy's r^e1 is inf there
            grow = math.inf
        return (d - 1) / r - c1 * grow

    return ModelManifold(d=d, psi=e.psi, f=f, alpha=1.0, scalar_drift=scalar_drift)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_d1(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def _smoothstep_d2(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t), 0.0)


def log_tail_weight(d: int, grid: RadialGrid, beta: float = 2.0) -> ModelManifold:
    """psi = r with a weight whose density is ``C r^{2-d} log^beta r`` at infinity.

    ``e^{-f} = h`` with ``h = (1 - eta) + eta * C r^{2-d} log^beta r`` where
    ``eta`` is a quintic smoothstep over the window ``[1.5, 3]`` and ``C`` is
    normalized so the tail formula equals 1 at the window's right edge.  The
    weight is exactly constant near the pole (so f'(0) = 0) and exactly the
    logarithmic tail beyond the window.
    """
    lo, hi = 1.5, 3.0
    C = hi ** (d - 2) / math.log(hi) ** beta

    def tail(r):
        return C * r ** (2.0 - d) * np.log(r) ** beta

    def tail_d1(r):
        return C * r ** (1.0 - d) * np.log(r) ** (beta - 1) * ((2.0 - d) * np.log(r) + beta)

    def tail_d2(r):
        lg = np.log(r)
        poly = (2.0 - d) * (1.0 - d) * lg**2 + beta * (3.0 - 2.0 * d) * lg + beta * (beta - 1.0)
        return C * r ** (-d) * lg ** (beta - 2) * poly

    w = hi - lo

    def h(r):
        rr = np.asarray(r, dtype=float)
        eta = _smoothstep((rr - lo) / w)
        safe = np.maximum(rr, lo)  # tail(r) only sampled where eta > 0
        return (1.0 - eta) + eta * tail(safe)

    def h1(r):
        rr = np.asarray(r, dtype=float)
        t = (rr - lo) / w
        eta, deta = _smoothstep(t), _smoothstep_d1(t) / w
        safe = np.maximum(rr, lo)
        return deta * (tail(safe) - 1.0) + eta * tail_d1(safe)

    def h2(r):
        rr = np.asarray(r, dtype=float)
        t = (rr - lo) / w
        eta, deta, ddeta = _smoothstep(t), _smoothstep_d1(t) / w, _smoothstep_d2(t) / w**2
        safe = np.maximum(rr, lo)
        return ddeta * (tail(safe) - 1.0) + 2.0 * deta * tail_d1(safe) + eta * tail_d2(safe)

    f_fn = lambda r: -np.log(h(r))
    f_d1 = lambda r: -h1(r) / h(r)
    f_d2 = lambda r: -h2(r) / h(r) + (h1(r) / h(r)) ** 2

    def scalar_drift(r):
        # h1 / h at one radius, the array path's operations on Python floats
        # (math.log for np.log); a power past the float range raises here
        t = (r - lo) / w
        tc = min(max(t, 0.0), 1.0)
        eta = tc**3 * (10.0 + tc * (-15.0 + 6.0 * tc))
        deta = (30.0 * tc**2 * (1.0 - tc) ** 2 if 0.0 < t < 1.0 else 0.0) / w
        safe = max(r, lo)
        lg = math.log(safe)
        tail_r = C * safe ** (2.0 - d) * lg**beta
        tail_r1 = C * safe ** (1.0 - d) * lg ** (beta - 1) * ((2.0 - d) * lg + beta)
        h_r = (1.0 - eta) + eta * tail_r
        h1_r = deta * (tail_r - 1.0) + eta * tail_r1
        return (d - 1) / r - -h1_r / h_r

    e = euclidean(d, grid)
    f = sample(f_fn, grid, derivs=(f_d1, f_d2))
    return ModelManifold(d=d, psi=e.psi, f=f, alpha=1.0, scalar_drift=scalar_drift)
