import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from syslab import eplane

# Same examples on every run, and no example database left in the tree.
settings.register_profile("syslab", derandomize=True, database=None)
settings.load_profile("syslab")
# Hypothesis also caches the constants it reads from source files; keep that
# cache in a directory removed when the run ends instead of in .hypothesis/.
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)


@pytest.fixture(scope="session")
def window8():
    return eplane.window((0, 0), 8)


@pytest.fixture(scope="session")
def window12():
    return eplane.window((0, 0), 12)


@pytest.fixture(scope="session")
def window42():
    """Window holding the worked (0,0) -> (4,2) instance with room to spare."""
    return eplane.window((2, 1), 12)
