"""The vectorised ``%.17g`` of ``profiles.csv`` against ``'%.17g' % x``."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bel import _g17, scenarios

needs_fast_path = pytest.mark.skipif(not _g17._FAST_PATH,
                                     reason="long double narrower than 64 bits")


def _percent(table):
    """The reference: one ``%`` row per table row."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in table.tolist())


def _assert_same(values, cols):
    values = np.asarray(values, dtype=np.float64)
    table = values[: values.size // cols * cols].reshape(-1, cols)
    assert _g17.format_rows(table) == _percent(table)


@pytest.mark.parametrize("cols", [1, 3, 4, 10])
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_random_bit_patterns_format_like_percent(cols, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_same(np.resize(values, max(cols, values.size)), cols)


@pytest.mark.parametrize("cols", [1, 3, 4, 10])
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_random_floats_format_like_percent(cols, values):
    """Hypothesis' floats favour the fixed-notation range and near-ties
    that random bit patterns rarely reach."""
    _assert_same(np.resize(values, max(cols, len(values))), cols)


def _edges():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-323, 309):
        v = float(f"1e{k}")
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    values += [1e16 + k / 2 for k in range(-8, 9)]
    values += [1e15 + k / 4 for k in range(-8, 9)]  # exact 18-digit ties
    for boundary in (1e16, 1e17, 1e-4, 1e-5):
        below = math.nextafter(boundary, 0.0)
        values += [below, math.nextafter(below, 0.0)]
    return values + [-v for v in values]


@pytest.mark.parametrize("cols", [1, 3, 4, 10])
def test_edge_values_format_like_percent(cols):
    _assert_same(_edges(), cols)


@pytest.mark.parametrize("value", _edges()[:9], ids=repr)
def test_each_special_value_formats_like_percent(value):
    _assert_same([value, 1.5, value], 3)


@needs_fast_path
def test_powers_of_ten_are_correctly_rounded():
    """Every P[k] is within u 10^k of 10^k, the bound the tie window is
    derived from (u = 2^-(nmant+1))."""
    powers = _g17._tables()[0]
    nmant = np.finfo(np.longdouble).nmant
    u = Fraction(1, 2 ** (nmant + 1))
    for index, p in enumerate(powers):
        k = 16 - (_g17._E_MIN + index)
        exact = Fraction(10) ** k
        mantissa, exponent = np.frexp(p)
        value = Fraction(int(np.ldexp(mantissa, nmant + 1))) * Fraction(2) ** (int(exponent) - nmant - 1)
        assert abs(value - exact) <= u * exact, k


def test_all_fallback_path_writes_the_same_bytes(bundled_theorem_run, monkeypatch):
    """With every cell formatted by ``%`` (the path of a narrower long
    double) the bundled theorem run's CSV is the same, byte for byte."""
    written = (bundled_theorem_run / "profiles.csv").read_bytes()
    header, _, body = written.decode().partition("\n")
    table = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])
    monkeypatch.setattr(_g17, "_FAST_PATH", False)
    assert _g17.fallback_count(table) == table.size
    assert header + "\n" + _g17.format_rows(table) == written.decode()
    scenarios._profile_text.cache_clear()
    columns = dict(zip(header.split(","), table.T))
    scenarios.emit_profiles(columns, bundled_theorem_run.parent / "slow.csv")
    assert (bundled_theorem_run.parent / "slow.csv").read_bytes() == written


def test_empty_and_single_cell_tables():
    assert _g17.format_rows(np.empty((0, 3))) == ""
    assert _g17.format_rows(np.array([[-0.1]])) == "-0.10000000000000001\n"
