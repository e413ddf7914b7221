"""Combinatorial geodesics, flat disks and displacement sets on systolic complexes."""

from . import cat0, chardisk, complexes, directed, eplane, euclid, isodyn, samples
from .complexes import (FlagComplex, check_local_6_large, distance,
                        interval, is_convex, load_complex, residue)
from .directed import directed_geodesic, layers, thick_intervals
from .euclid import (GoodnessConstants, euclidean_geodesic, goodness_constant,
                     select_vertex_geodesic, verify_contracting)

__all__ = [
    "FlagComplex", "GoodnessConstants",
    "check_local_6_large", "distance", "interval", "is_convex", "load_complex",
    "residue", "directed_geodesic", "layers", "thick_intervals",
    "euclidean_geodesic", "goodness_constant", "select_vertex_geodesic",
    "verify_contracting",
    "cat0", "chardisk", "complexes", "directed", "eplane", "euclid", "isodyn",
    "samples",
]
