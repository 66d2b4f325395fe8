"""Shared fixtures: the four verification cases are expensive, so they are
built once per session and reused by the unit and acceptance suites."""

from importlib.resources import files

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


@pytest.fixture(scope="session")
def bundled_theorem_run(tmp_path_factory):
    """The run directory of the bundled ``theorem-2-2`` config, run once."""
    out = tmp_path_factory.mktemp("bundled-theorem")
    config = scenarios.parse_config((files("bel") / "configs" / "theorem-2-2.cfg").read_text())
    (spec,) = scenarios.expand_runs(config)
    scenarios.execute_run(spec, out)
    return out / spec.slug


def _clear_memos():
    for memo in vars(scenarios).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test without what a previous run left in the scenarios
    memos (every ``functools.lru_cache`` of the module), so that no test
    depends on test order.  A test that names this fixture gets the function
    that clears them."""
    _clear_memos()
    return _clear_memos
