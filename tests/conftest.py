"""Shared fixtures: the four verification cases are expensive, so they are
built once per session and reused by the unit and acceptance suites."""

import pytest

from bel import scenarios
from bel.construction import build_example, verify_theorem

# (d, alpha, p, ell) -- p is the Sobolev-critical power except the third
# entry, which exercises a supercritical exponent.
VERIFICATION_CASES = [
    (3, 0.5, 5.0, 1.0),
    (4, 0.5, 3.0, 2.0),
    (3, 0.5, 6.0, 1.0),
    (5, 0.25, 7.0 / 3.0, 1.0),
]


@pytest.fixture(scope="session")
def theorem_reports():
    reports = {}
    for d, alpha, p, ell in VERIFICATION_CASES:
        M = build_example(d, alpha)
        reports[(d, alpha, p, ell)] = verify_theorem(M, p, ell)
    return reports


@pytest.fixture(autouse=True)
def cold_theorem_manifold():
    """Start every test without the manifold a previous theorem run left in
    the scenarios memo, so that no test depends on test order."""
    scenarios._warped_example.cache_clear()
