"""Deterministic SVG rendering of the geodesic pipeline on the plane.

Draws the lattice window, both directed geodesics, the layers colored by
thickness, the characteristic disk, the modified disk, the CAT(0) path and
the Euclidean geodesic. Output is byte-stable: fixed coordinate precision,
sorted element order, no timestamps.
"""

from __future__ import annotations

from typing import List

from . import eplane
from .complexes import FlagComplex
from .errors import NotPlaneBacked
from .euclid import euclidean_geodesic, select_vertex_geodesic

SCALE = 40.0


def _xy(v):
    return _scaled(eplane.embed(v))


def _scaled(p):
    x, y = p.to_floats()
    return x * SCALE, -y * SCALE


def _fmt(value: float) -> str:
    # fixed precision keeps re-renders byte-identical
    out = f"{value:.6f}"
    return "-0.000000" if out == "-0.000000" else out


def _pt(p) -> str:
    x, y = p
    return f"{_fmt(x)},{_fmt(y)}"


def render_pipeline_svg(c: FlagComplex, x, y) -> str:
    """Render the full pipeline between two window vertices as an SVG string."""
    if not c.plane_backed:
        raise NotPlaneBacked("figure rendering needs a plane window")
    euclid = euclidean_geodesic(c, x, y, check_reversal=False)
    layer_seq = euclid.layers
    selected = select_vertex_geodesic(euclid)

    verts = sorted(c.vertices())
    pos = {v: _xy(v) for v in verts}
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    pad = SCALE
    view = (min(xs) - pad, min(ys) - pad,
            (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad)

    parts: List[str] = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'
                 .format(*(_fmt(v) for v in view)))

    parts.append('<g id="lattice" stroke="#cccccc" stroke-width="1">')
    for v in verts:
        for u in sorted(c.neighbors(v)):
            if u > v:
                parts.append('<line x1="{}" y1="{}" x2="{}" y2="{}"/>'.format(
                    _fmt(pos[v][0]), _fmt(pos[v][1]), _fmt(pos[u][0]), _fmt(pos[u][1])))
    parts.append('</g>')

    parts.append('<g id="layers">')
    for layer, level in zip(layer_seq, c.interval_levels(x, y)):
        color = "#f5a623" if layer.thick else "#9b9b9b"
        for v in sorted(level):
            parts.append('<circle cx="{}" cy="{}" r="4" fill="{}"/>'.format(
                _fmt(pos[v][0]), _fmt(pos[v][1]), color))
    parts.append('</g>')

    # the directed geodesic from x is sigma in layer order, the one from y
    # tau in reverse layer order
    for gid, geo, color in (("sigma", [layer.sigma for layer in layer_seq], "#d0021b"),
                            ("tau", [layer.tau for layer in layer_seq][::-1], "#4a90d9")):
        parts.append(f'<g id="{gid}" stroke="{color}" stroke-width="2.5" fill="{color}">')
        for vs in geo:
            if len(vs) == 1:
                parts.append('<circle cx="{}" cy="{}" r="3.2" stroke="none"/>'.format(
                    _fmt(pos[vs[0]][0]), _fmt(pos[vs[0]][1])))
            else:
                for a in vs:
                    for b in vs:
                        if a < b:
                            parts.append('<line x1="{}" y1="{}" x2="{}" y2="{}"/>'.format(
                                _fmt(pos[a][0]), _fmt(pos[a][1]),
                                _fmt(pos[b][0]), _fmt(pos[b][1])))
        parts.append('</g>')

    for cycle, mdisk, alpha in euclid.disks:
        interval = cycle.interval
        parts.append('<g id="disk-{}-{}" fill="#7ed32122" stroke="#417505" '
                     'stroke-width="1.5">'.format(interval.j, interval.k))
        loop = " ".join(_pt(_xy(v)) for v in cycle.cycle)
        parts.append(f'<polygon points="{loop}"/>')
        parts.append('</g>')
        parts.append('<g id="modified-{}-{}" fill="none" stroke="#417505" '
                     'stroke-width="1.2" stroke-dasharray="4 3">'.format(
                         interval.j, interval.k))
        ring = " ".join(_pt(_scaled(p)) for p in mdisk.polygon)
        parts.append(f'<polygon points="{ring}"/>')
        parts.append('</g>')
        parts.append('<g id="alpha-{}-{}" fill="none" stroke="#111111" '
                     'stroke-width="2">'.format(interval.j, interval.k))
        line = " ".join(_pt(_scaled(p)) for p in alpha.points)
        parts.append(f'<polyline points="{line}"/>')
        parts.append('</g>')

    parts.append('<g id="delta" fill="none" stroke="#bd10e0" stroke-width="2">')
    chain = " ".join(_pt(pos[v]) for v in selected)
    parts.append(f'<polyline points="{chain}"/>')
    parts.append('</g>')

    parts.append('<g id="endpoints" fill="#000000">')
    for v in (x, y):
        parts.append('<circle cx="{}" cy="{}" r="5"/>'.format(
            _fmt(pos[v][0]), _fmt(pos[v][1])))
    parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
