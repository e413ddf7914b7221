import random

import pytest

import oracles
from syslab import eplane, samples
from syslab.complexes import check_local_6_large, is_convex
from syslab.errors import PreconditionViolated
from syslab.treestudy import plane_control, tree_extendability, tree_ray_from


def test_bundled_samples_are_locally_6_large():
    for c in samples.flat_disk_samples() + samples.book_samples(radius=5) + (
            samples.single_triangle(), samples.tree_with_branches(6)):
        assert check_local_6_large(c).ok, c.name


def test_octahedron_rejected():
    assert not check_local_6_large(samples.octahedron()).ok


def test_flat_disk_counts():
    d2 = samples.flat_disk(2)
    assert len(d2) == 19
    assert samples.parallelogram_disk(4, 2).name == "parallelogram-4x2"


def test_book_spine_degree():
    b = samples.book_window(3, 4)
    assert len(b.neighbors((0, 0, 0))) == 2 + 2 * 3
    assert b.systolic and not b.plane_backed


def test_book_flat_embedding_isometric():
    book = samples.book_window(4, 9)
    bf = samples.book_flat_embedding
    rng = random.Random(2)
    for _ in range(120):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if eplane.lattice_distance((0, 0), u) > 4 or \
           eplane.lattice_distance((0, 0), v) > 4:
            continue
        assert book.true_distance(bf(u), bf(v)) == eplane.lattice_distance(u, v)


@pytest.mark.parametrize("pages, radius", [(3, 10), (4, 7), (5, 7)])
def test_book_search_rows_match_closed_form_metric(pages, radius):
    """``true_distance`` on every pair of a book window against the
    closed-form book metric, each source growing one row in one scope."""
    c = samples.book_window(pages, radius)
    verts = sorted(c.vertices())
    with c._shared_rows:
        wrong = [(u, w) for u in verts for w in verts
                 if c.true_distance(u, w) != oracles.book_distance(u, w)]
    assert not wrong, wrong[:5]


def test_book_balls_convex():
    b = samples.book_window(3, 5)
    for center in [(0, 0, 0), (1, 1, 3), (0, 2, 1)]:
        for radius in (1, 2):
            dmap = b.bfs_distances(center, budget=radius)
            ball = [v for v in dmap]
            if any(b.margin(v) < radius for v in ball):
                continue
            assert is_convex(b, ball, radius_cap=2 * radius)


def test_tree_shape():
    t = samples.tree_with_branches(5)
    # half-line of 6 vertices plus branches of lengths 1..5
    assert len(t) == 6 + sum(range(1, 6))
    assert oracles.bfs_distance(t, samples.half_line_vertex(0),
                                samples.branch_tip(5)) == 10
    with pytest.raises(PreconditionViolated):
        samples.tree_with_branches(1)


def test_tree_ray_is_unique_escape():
    t = samples.tree_with_branches(6)
    ray = tree_ray_from(t, samples.branch_tip(3), 6)
    assert ray[0] == ("b", 3, 3)
    assert ray[-1] == ("h", 6, 0)
    assert oracles.is_geodesic(t, ray)


def test_tree_extendability_values():
    table = tree_extendability(9)
    assert [(e.y[1], e.E) for e in table.entries] == [(n, n) for n in range(2, 9)]


def test_tree_extendability_on_half_line_targets():
    table = tree_extendability(6, targets=[samples.half_line_vertex(4)])
    assert table.entries[0].E == 0


def test_plane_control_bounded():
    rng = random.Random(8)
    pairs = [((rng.randint(-5, 5), rng.randint(-5, 5)),
              (rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(15)]
    pairs = [(x, y) for x, y in pairs if x != y]
    table = plane_control(pairs)
    assert table.max_E() <= 1
