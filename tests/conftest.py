import gc

import pytest

from wplab.brackets import default_cache
from wplab.lab import LabConfig, cache_warm


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-budget",
        type=int,
        default=18,
        help="recursion budget for the full acceptance grid",
    )


@pytest.fixture(scope="session")
def grid_budget(request) -> int:
    return request.config.getoption("--acceptance-budget")


@pytest.fixture(scope="session")
def warm_grid(grid_budget):
    """Budget-wide bracket closure, shared by the grid-sweep tests."""
    stats = cache_warm(LabConfig(budget=grid_budget), budget=grid_budget)
    return {"budget": grid_budget, "stats": stats, "cache": default_cache()}


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test after which the cyclic garbage collector is off, and turn it back on."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
