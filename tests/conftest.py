import pytest

import cvqkd_ps.channel as channel_mod


@pytest.fixture(autouse=True)
def _cold_crossing_cache():
    """Every test starts and ends with no memoised crossing search, so call
    counts hold and no fake key_rates result outlives the test that made it."""
    channel_mod._crossings.cache_clear()
    yield
    channel_mod._crossings.cache_clear()
