import pytest

import cvqkd_ps.channel as channel_mod
import cvqkd_ps.cli as cli_mod
import cvqkd_ps.fock_states as fock_mod

# Every memo keyed on a config or a beam geometry.  Each test starts and ends
# with all of them cold, so call counts hold and no fake key_rates result
# outlives the test that made it.
MEMOS = (channel_mod._crossings, channel_mod._geometry, fock_mod._ket_factors)
# Pure tables, keyed on a size, a scheme or nothing, that no test can alter: they stay warm.
PURE_TABLES = (channel_mod._unit_interval_rule, channel_mod._lobatto, cli_mod.build_parser,
               fock_mod._skeleton)


@pytest.fixture(autouse=True)
def _cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
