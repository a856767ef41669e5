import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dcfkit import derive_times, get_profile
from dcfkit.cli import _rates
from dcfkit.model import _network


@pytest.fixture(scope="session")
def params():
    return get_profile("dot11g-54")


@pytest.fixture(scope="session")
def times(params):
    return derive_times(params)


@pytest.fixture
def cold_model():
    """Empty both per-network caches, before the test and again after it:
    the model's networks, with their kept records, and the CLI's row
    templates (cli._rates). A test that patches the map neither reads nor
    leaves a record of another map, and a sweep in it starts cold. Yields
    the function that empties the model's cache, for a test to call
    midway."""
    _network.cache_clear()
    _rates.cache_clear()
    yield _network.cache_clear
    _network.cache_clear()
    _rates.cache_clear()
