import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from syslab import eplane, samples
from syslab.complexes import FlagComplex, dump_complex, load_complex

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


@pytest.fixture(scope="session")
def non_plane_complexes(tmp_path_factory):
    """Complexes without a closed-form metric: two books, a flat disk, the
    branching tree, and a ``flagcomplex v1`` file holding an integer copy of
    a parallelogram disk beside a separate triangle {100, 101, 102}."""
    disk = samples.parallelogram_disk(4, 2)
    label = {v: i for i, v in enumerate(sorted(disk.vertices()))}
    adjacency = {label[v]: [label[u] for u in disk.neighbors(v)] for v in disk.vertices()}
    adjacency.update({100: [101, 102], 101: [100, 102], 102: [100, 101]})
    path = tmp_path_factory.mktemp("complexes") / "disk-and-triangle.flag"
    path.write_text(dump_complex(FlagComplex(adjacency)))
    return (samples.book_window(4, 7), samples.book_window(3, 5), samples.flat_disk(3),
            samples.tree_with_branches(8), load_complex(path))
