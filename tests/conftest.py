import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wgkit.buchstab import constants_table
from wgkit.reference import K_RANGE

# every property test replays the same examples: no random seed, no example
# database, no deadline
settings.register_profile("wgkit", derandomize=True, database=None, deadline=None)
settings.load_profile("wgkit")

# Hypothesis still caches the constants of the code under test; keep that
# cache out of the checkout, in a directory removed when the run ends
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="wgkit-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def all_tables():
    """Constants tables for every k, computed once per session."""
    return {k: constants_table(k) for k in K_RANGE}
