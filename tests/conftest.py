import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dcfkit import derive_times, get_profile
from dcfkit.model import _network


@pytest.fixture(scope="session")
def params():
    return get_profile("dot11g-54")


@pytest.fixture(scope="session")
def times(params):
    return derive_times(params)


@pytest.fixture
def cold_model():
    """Empty the model's process-wide cache of networks, with their kept
    records, before the test and again after it, so a test that patches
    the map neither reads nor leaves a record of another map. Yields the
    function that empties it, for a test to call midway."""
    _network.cache_clear()
    yield _network.cache_clear
    _network.cache_clear()
