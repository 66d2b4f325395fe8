"""bel's DOP853 data and root finder against scipy, which stays their oracle:
the coefficient tables equal scipy's array by array, and the Brent root
finder returns scipy's roots to the bit and stops where scipy's stops."""

import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from bel import _dop853_tables
from bel._dop853 import _ROOT_TOL, brentq


@pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D"])
def test_tables_equal_scipys(name):
    mine, theirs = getattr(_dop853_tables, name), getattr(dop853_coefficients, name)
    assert mine.dtype == theirs.dtype == np.float64
    assert mine.shape == theirs.shape
    assert mine.flags.c_contiguous
    assert np.array_equal(mine, theirs)
    assert mine.tobytes() == theirs.tobytes()  # signed zeros too


def test_table_sizes_equal_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853_tables, name) == getattr(dop853_coefficients, name)


def _families(rng):
    """Functions on a bracket ``[a, b]`` around ``c``, one of each family
    per draw: smooth monotone ones, a polynomial like a step's interpolant
    (not always of two signs at the ends), subnormal values (whose difference
    quotients underflow to 0, so the extrapolation divides by zero) and a
    step function (bisection only)."""
    c = float(rng.uniform(-2.0, 2.0))
    k = float(rng.uniform(0.1, 20.0))
    m = float(rng.uniform(0.0, 3.0))
    a, b = c - float(rng.uniform(1e-9, 3.0)), c + float(rng.uniform(1e-9, 3.0))
    coeffs = rng.normal(size=8)
    yield (lambda x: math.tanh(k * (x - c)) + m * (x - c) ** 3), a, b
    yield (lambda x: (x - c) * math.exp(k * x / 10.0) - 1e-3 * m), a, b
    yield (lambda x: sum(q * (x - c) ** i for i, q in enumerate(coeffs)) - coeffs[0]), a, b
    yield (lambda x: 5e-324 * (1.0 + 20.0 * m) * (x - c) * (1.0 + (x - c) ** 2)), a, b
    yield (lambda x: -1.0 if x < c else 2.0), a, b


def test_brentq_matches_scipy_bit_for_bit():
    """On over 10,000 seeded random brackets the root has scipy's bits; a
    bracket without a sign change raises in both alike."""
    rng = np.random.default_rng(20261017)
    roots = 0
    for _ in range(2200):
        for f, a, b in _families(rng):
            try:
                expected = scipy_brentq(f, a, b, xtol=_ROOT_TOL, rtol=_ROOT_TOL).hex()
            except ValueError as error:
                with pytest.raises(ValueError, match="must have different signs"):
                    brentq(f, a, b, _ROOT_TOL, _ROOT_TOL)
                assert "different signs" in str(error)
                continue
            assert brentq(f, a, b, _ROOT_TOL, _ROOT_TOL).hex() == expected, (a, b)
            roots += 1
    assert roots >= 10_000


@pytest.mark.parametrize("f,a,b,maxiter,error", [
    (lambda x: math.nan, 0.0, 1.0, 100, ValueError),
    (lambda x: x - 0.5 if x < 1.0 else math.nan, 0.0, 1.0, 100, ValueError),
    (lambda x: x - 5.0, 0.0, 1.0, 100, ValueError),
    (lambda x: x * x - 2.0, 0.0, 2.0, 3, RuntimeError),
    (lambda x: x * x - 2.0, 0.0, 2.0, 0, RuntimeError),
], ids=["nan-at-a", "nan-at-b", "same-sign", "maxiter", "no-iterations"])
def test_brentq_stops_where_scipy_stops(f, a, b, maxiter, error):
    """A NaN value and ends of one sign raise ``ValueError``, a search that
    does not converge within ``maxiter`` raises ``RuntimeError``: the types
    and messages scipy's raise."""
    with pytest.raises(error) as theirs:
        scipy_brentq(f, a, b, xtol=_ROOT_TOL, rtol=_ROOT_TOL, maxiter=maxiter)
    with pytest.raises(error) as mine:
        brentq(f, a, b, _ROOT_TOL, _ROOT_TOL, maxiter=maxiter)
    assert str(mine.value) == str(theirs.value)
