import hashlib

import pytest

from syslab import samples
from syslab.errors import NotPlaneBacked
from syslab.render import render_pipeline_svg


def test_render_deterministic(window42):
    a = render_pipeline_svg(window42, (0, 0), (4, 2))
    b = render_pipeline_svg(window42, (0, 0), (4, 2))
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")
    # the pipeline-42 figure of the bundled scenario, pinned byte for byte
    assert hashlib.sha256(a.encode("utf-8")).hexdigest() == \
        "6b809efb1b7b61ad8556ed4456ef8c6ad54a45ea3d0e5a5bd997217144d9b180"


def test_render_contains_pipeline_groups(window42):
    svg = render_pipeline_svg(window42, (0, 0), (4, 2))
    for gid in ("lattice", "layers", "sigma", "tau", "disk-2-4",
                "modified-2-4", "alpha-2-4", "delta", "endpoints"):
        assert f'id="{gid}"' in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_render_collinear_instance(window42):
    svg = render_pipeline_svg(window42, (0, 0), (3, 0))
    assert 'id="delta"' in svg
    assert "disk-" not in svg  # no thick interval, no disk groups


def test_render_requires_plane():
    with pytest.raises(NotPlaneBacked):
        render_pipeline_svg(samples.flat_disk(3), (0, 0), (2, 0))

