"""The plane pipeline commutes with the point group of its window.

Every element g of the 12-element point group about the centre of a plane
window (``eplane.rotation60`` and the reflection ``glide(0, 0)``) maps the
window onto itself, so each stage built for (g(x), g(y)) must be the image
under g of the stage built for (x, y): the two directed geodesics, the
layers with their thickness, the thick intervals and the Euclidean
simplices, each compared as vertex sets. A refusal must have the same
exception type on both sides. Two implementations of one stage that share
a tie rule agree on a biased rule; the group does not, because a rule that
favours a direction of the lattice breaks the symmetry.
"""

from syslab import eplane, euclid
from syslab.directed import thick_intervals
from syslab.errors import SyslabError

CENTER = (0, 0)
RADIUS = 12
SOURCES = ((0, 0), (2, -1))
LONGEST = 11


def _group():
    mirror = eplane.glide(0, 0)
    rotations = [eplane.rotation60(k, CENTER) for k in range(6)]
    return rotations + [r.compose(mirror) for r in rotations]


def _sets(simplices):
    return tuple(frozenset(s.verts) for s in simplices)


def _outcome(c, x, y):
    """The stages of (x, y) as vertex sets, or the type of the refusal."""
    try:
        geo = euclid.euclidean_geodesic(c, x, y)
    except SyslabError as exc:
        return type(exc).__name__
    ls = geo.layers
    return {
        "directed": (_sets(ls.sigma_geo), _sets(ls.tau_geo)),
        "layers": tuple((frozenset(layer.sigma.verts), frozenset(layer.tau.verts),
                         layer.thickness) for layer in ls),
        "thick_intervals": tuple((iv.j, iv.k) for iv in thick_intervals(ls)),
        "euclidean": _sets(geo.simplices),
    }


def _image(g, outcome):
    """The outcome with every vertex set mapped through g."""
    if isinstance(outcome, str):
        return outcome

    def move(sets):
        return tuple(frozenset(map(g, s)) for s in sets)

    return {
        "directed": tuple(move(sets) for sets in outcome["directed"]),
        "layers": tuple((frozenset(map(g, s)), frozenset(map(g, t)), thickness)
                        for s, t, thickness in outcome["layers"]),
        "thick_intervals": outcome["thick_intervals"],
        "euclidean": move(outcome["euclidean"]),
    }


def test_point_group_commutes_with_the_plane_pipeline():
    """Every difference of length 1..11 from the centre and from a vertex
    next to it, under all 12 elements; the pairs from the off-centre source
    that reach the rim are refused on both sides."""
    c = eplane.window(CENTER, RADIUS)
    group = _group()
    assert len({(g.matrix, g.shift) for g in group}) == 12
    assert all(g(CENTER) == CENTER for g in group)
    outcomes = {}

    def outcome(x, y):
        if (x, y) not in outcomes:
            outcomes[(x, y)] = _outcome(c, x, y)
        return outcomes[(x, y)]

    checked = refused = thick = 0
    for x in SOURCES:
        for dp in range(-LONGEST, LONGEST + 1):
            for dq in range(-LONGEST, LONGEST + 1):
                y = (x[0] + dp, x[1] + dq)
                if not 1 <= eplane.lattice_distance(x, y) <= LONGEST:
                    continue
                base = outcome(x, y)
                refused += isinstance(base, str)
                thick += not isinstance(base, str) and bool(base["thick_intervals"])
                for g in group:
                    assert outcome(g(x), g(y)) == _image(g, base), (x, y, g)
                    checked += 1
    assert checked == 2 * 396 * 12
    assert refused > 0 and thick > 0
