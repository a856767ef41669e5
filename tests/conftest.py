import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dcfkit import derive_times, get_profile
from dcfkit.model import _root
from dcfkit.regime import _critical_lambda


@pytest.fixture(scope="session")
def params():
    return get_profile("dot11g-54")


@pytest.fixture(scope="session")
def times(params):
    return derive_times(params)


@pytest.fixture
def cold_model():
    """Empty the model's two process-wide caches, the network reports and
    the memoised roots, before the test and again after it, so a test that
    patches the map neither reads nor leaves a root of another map. Yields
    the function that empties them, for a test to call midway."""
    def clear():
        _critical_lambda.cache_clear()
        _root.cache_clear()

    clear()
    yield clear
    clear()
