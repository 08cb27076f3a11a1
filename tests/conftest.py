import pytest
from hypothesis import settings

from wgkit.buchstab import constants_table
from wgkit.reference import K_RANGE

# every property test replays the same examples: no random seed, no example
# database, no deadline
settings.register_profile("wgkit", derandomize=True, database=None, deadline=None)
settings.load_profile("wgkit")


@pytest.fixture(scope="session")
def all_tables():
    """Constants tables for every k, computed once per session."""
    return {k: constants_table(k) for k in K_RANGE}
