"""bel's DOP853 driver: scipy's ``solve_ivp`` with DOP853, dense output and
terminal events, repeated operation by operation without its per-step objects.

The method is the explicit Runge-Kutta pair of order 8(5,3) of Hairer,
Norsett & Wanner, *Solving ODEs I*, II.6, with its 7th-order dense output.
:func:`solve_ivp` takes the arithmetic of scipy 1.17's
``solve_ivp(fun, t_span, y0, method="DOP853", rtol=..., atol=...,
dense_output=True, events=...)`` over step for step: the initial step of
``select_initial_step``, the stages and the error norm of ``DOP853`` (the
stage sums stay ``np.dot`` on the same arrays, since a Python sum rounds
differently from the BLAS kernel), the three extra stages and the
interpolation coefficients ``F`` of its dense output, and the event handling
of ``find_active_events`` and ``handle_events`` (``brentq`` with
``xtol = rtol = 4 eps`` on the step's interpolant, truncation at the
earliest terminal root, and no repeated radius when a root falls on the
previous step's end).  So ``t``, ``nfev``, ``status``, ``t_events``, the
final ``y`` and every dense-output value are bit-identical to scipy's.  What
it leaves out is the machinery: function wrappers, event arrays, one
``DenseOutput`` object per step and the final ``OdeSolution``.

The coefficient tables are scipy's, kept as data in
:mod:`bel._dop853_tables`, and :func:`brentq` is scipy's root finder ported
to Python floats, so no scipy module is loaded.  The driver covers what the
radial shot needs: a state of two components ``(u, u')``, a forward
interval, scalar tolerances, every event terminal.  It differs from scipy in
two ways, both of which end the integration with ``status = -1``: a step
size that is not finite (scipy would loop forever on a NaN one), and a spent
budget of ``_MAX_NFEV`` right-hand-side calls (scipy has none, so a stiff
problem can take millions of calls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import _dop853_tables as _coef

_STAGES = _coef.N_STAGES  # 12; the 13th row of K is the derivative at the step's end
_A = _coef.A
_B = _coef.B
_C = _coef.C
_E3 = _coef.E3
_E5 = _coef.E5
_D = _coef.D
_ERROR_EXPONENT = -1 / (7 + 1)  # error estimator of order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ROOT_TOL = 4 * np.finfo(float).eps
#: Right-hand-side calls after which no further step is tried: over 100
#: times the most a shot of the benchmark pools takes (1,811).
_MAX_NFEV = 200_000


@dataclass(frozen=True)
class Dop853Result:
    """One integration: ``t`` holds ``t0`` and every accepted step's end (the
    terminal root last), ``y`` the state at ``t[-1]``; ``status`` is 0 at
    ``t_bound``, 1 at a terminal event, -1 when a step failed or the
    right-hand-side budget was spent, and ``message`` then says which (it is
    empty otherwise).  Segment ``i`` of the dense output
    spans ``t[i]..t[i+1]`` with the interpolant of the step from
    ``t_old[i]`` of size ``h[i]``, which starts at ``y_old[i]`` and has the
    coefficients ``F[i]`` of shape ``(7, n)``."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    t_events: List[np.ndarray]
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    message: str


def _rms(x: np.ndarray) -> float:
    """scipy's ``norm``: ``np.linalg.norm(x) / x.size ** 0.5``."""
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """``select_initial_step`` for a forward interval without a step cap."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(float(t0 + h0), tuple((y0 + h0 * f0).tolist())), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def _interpolate(x, F, y_old):
    """The loop of scipy's ``Dop853DenseOutput`` at the fractions ``x`` of a
    step: ``F[..., 7, n]`` holds the coefficients and ``y_old[..., n]`` the
    state at the step's start.  A step's events pass a float ``x`` with one
    step's ``F``; many radii pass a column ``x`` with one ``F`` each."""
    y = 0.0
    for i in range(F.shape[-2]):
        y = (y + F[..., -1 - i, :]) * (x if i % 2 == 0 else 1 - x)
    return y + y_old


def _crossed(g: float, g_new: float, direction: float) -> bool:
    """``find_active_events`` for one event."""
    up = g <= 0 and g_new >= 0
    down = g >= 0 and g_new <= 0
    return up and direction > 0 or down and direction < 0 or (up or down) and direction == 0


def _maximum(a: float, b: float) -> float:
    """``np.maximum`` of two floats: a NaN wins."""
    return a if a >= b or a != a else b


def _divide(a: float, b: float) -> float:
    """``a / b`` as C divides doubles: a zero ``b`` gives an infinity or a
    NaN where Python raises."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _value(f: Callable[[float], float], x: float) -> float:
    """``f(x)`` as a float; a NaN stops the search, as in scipy's wrapper."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4), bit-identical to
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)``:
    scipy's ``Zeros/brentq.c`` statement by statement on Python floats.

    Raises ``ValueError`` when ``f`` is NaN or has the same sign at both
    ends, and ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float, events: Sequence[Callable] = ()):
    """Integrate ``y' = fun(t, y)`` for a state ``y = (y0, y1)`` forward over
    ``t_span``, as scipy's ``solve_ivp`` with ``method="DOP853"`` and
    ``dense_output=True`` does; returns a :class:`Dop853Result`.

    ``fun`` and every event are called with ``t`` a Python float and ``y`` a
    pair of floats; ``fun`` returns a pair of floats.  An event may carry a
    ``direction`` attribute and is terminal.  The state stays in Python
    floats wherever scipy's arithmetic is elementwise, which gives the same
    bits; the sums over stages stay ``ndarray.dot`` on the stage table ``K``.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("the driver integrates forward: t_span must increase")
    y = tuple(np.asarray(y0, dtype=float).tolist())
    if len(y) != 2:
        raise ValueError("the driver integrates a state of two components")
    f = fun(t, y)
    h_abs = _initial_step(fun, t, np.array(y), np.array(f, dtype=float), t_bound, rtol, atol)
    nfev = 2

    K = np.empty((_coef.N_STAGES_EXTENDED, 2))
    # (K[:s].T, A[s, :s], C[s], s): views made once, filled in place
    stages = [(K[:s].T, _A[s, :s], float(_C[s]), s) for s in range(1, _STAGES)]
    extra = [(K[:s].T, _A[s, :s], float(_C[s]), s)
             for s in range(_STAGES + 1, _coef.N_STAGES_EXTENDED)]
    K_sum, K_err = K[:_STAGES].T, K[: _STAGES + 1].T
    directions = [getattr(event, "direction", 0) for event in events]
    g = [event(t, y) for event in events]
    t_events: List[list] = [[] for _ in events]

    ts, y_last = [t], y
    t_olds, hs, y_olds, Fs = [], [], [], []
    status, message = None, ""
    while status is None:
        # -- one step: DOP853._step_impl (max_step = inf, direction = +1)
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        u, du = y
        while True:
            if h_abs < min_step or not math.isfinite(h_abs) or nfev >= _MAX_NFEV:
                status = -1
                break
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for KT, a, c, s in stages:  # dy = K[:s].T @ a * h; K[s] = fun(t + c h, y + dy)
                d0, d1 = KT.dot(a).tolist()
                K[s] = fun(t + c * h, (u + d0 * h, du + d1 * h))
            d0, d1 = K_sum.dot(_B).tolist()
            y_new = (u + h * d0, du + h * d1)
            f_new = fun(t + h, y_new)
            K[_STAGES] = f_new
            nfev += _STAGES
            scale = np.array([atol + _maximum(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)])
            err5 = K_err.dot(_E5) / scale
            err3 = K_err.dot(_E3) / scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = abs(h) * err5_norm_2 / math.sqrt(denom * 2)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if status == -1:
            if nfev >= _MAX_NFEV:
                message = f"the budget of {_MAX_NFEV:,} right-hand-side calls was spent"
            elif math.isfinite(h_abs):
                message = "the step size fell below the spacing of floats"
            else:
                message = "the step size was not finite"
            break
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0

        # -- its dense output: DOP853._dense_output_impl
        for KT, a, c, s in extra:
            d0, d1 = KT.dot(a).tolist()
            K[s] = fun(t_old + c * h, (u + d0 * h, du + d1 * h))
        nfev += len(extra)
        F = np.empty((_coef.INTERPOLATOR_POWER, 2))
        delta_y = [b - a for a, b in zip(y_old, y)]
        F[:3] = [delta_y,
                 [h * fo - dy for fo, dy in zip(f_old, delta_y)],
                 [2 * dy - h * (fn + fo) for dy, fn, fo in zip(delta_y, f, f_old)]]
        F[3:] = h * _D.dot(K)
        t_olds.append(t_old)
        hs.append(h)
        y_olds.append(y_old)
        Fs.append(F)

        # -- events: find_active_events and handle_events, all terminal
        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i, dirn in enumerate(directions) if _crossed(g[i], g_new[i], dirn)]
            if active:
                def state(r):
                    return _interpolate((r - t_old) / h, F, y_old).tolist()

                roots = [brentq(lambda r, event=events[i]: event(r, state(r)),
                                t_old, t, xtol=_ROOT_TOL, rtol=_ROOT_TOL) for i in active]
                first = min(range(len(roots)), key=roots.__getitem__)
                t_events[active[first]].append(roots[first])
                status = 1
                t = roots[first]
                y = tuple(state(t))
            g = g_new

        if len(ts) > 1 and ts[-1] == t:  # a root on the previous step's end
            for stack in (t_olds, hs, y_olds, Fs):
                stack.pop()
        else:
            ts.append(t)
            y_last = y

    return Dop853Result(
        t=np.array(ts),
        y=np.array(y_last),
        nfev=nfev,
        status=status,
        t_events=[np.asarray(te) for te in t_events],
        t_old=np.array(t_olds),
        h=np.array(hs),
        y_old=np.array(y_olds).reshape(-1, 2),
        F=np.array(Fs).reshape(-1, _coef.INTERPOLATOR_POWER, 2),
        message=message,
    )


def dense_output(sol: Dop853Result) -> Callable:
    """The dense output of ``sol`` at many radii at once, bit-identical to
    scipy's ``OdeSolution``: every radius finds its segment through one
    ``searchsorted`` (``side="left"``, clamped to the first and last segment,
    as ``OdeSolution`` does) and all radii go through the loop of
    ``Dop853DenseOutput`` together.  Returns ``y`` of shape ``(n,)`` for a
    scalar radius, ``(n, m)`` for m radii."""
    ts, t_old, h, y_old, F = sol.t, sol.t_old, sol.h, sol.y_old, sol.F
    last = len(h) - 1

    def evaluate(r):
        rr = np.asarray(r, dtype=float)
        flat = np.atleast_1d(rr)
        seg = np.clip(np.searchsorted(ts, flat, side="left") - 1, 0, last)
        y = _interpolate(((flat - t_old[seg]) / h[seg])[:, None], F[seg], y_old[seg])
        return y.T if rr.ndim else y[0]

    return evaluate

