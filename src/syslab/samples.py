"""Bundled sample complexes used by tests, scenarios and acceptance sweeps.

Besides plane windows these cover: standalone flat disks (balls of the
triangulated plane treated as complexes in their own right), the
octahedron as the canonical 6-largeness failure, books of half-planes
glued along a spine line (larger complexes containing an isometrically
embedded copy of the plane), and the half-line tree with growing branches.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from . import complexes, eplane
from .complexes import FlagComplex
from .errors import PreconditionViolated

Axial = eplane.Axial


def octahedron() -> FlagComplex:
    """K_{2,2,2}: every vertex link is an induced 4-cycle; not 6-large."""
    opposite = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    adjacency = {v: [u for u in range(6) if u != v and u != opposite[v]]
                 for v in range(6)}
    return FlagComplex(adjacency, name="octahedron")


def single_triangle() -> FlagComplex:
    return FlagComplex({0: [1, 2], 1: [0, 2], 2: [0, 1]}, name="triangle")


def flat_disk(radius: int) -> FlagComplex:
    """The radius-ball of the plane as a standalone finite complex.

    Links of boundary vertices are paths, so the disk is systolic on its
    own; no margins are attached because nothing was truncated away. The
    vertices are those of ``eplane.ball_margins((0, 0), radius)``.
    """
    inside = eplane.ball_margins((0, 0), radius)
    adjacency = {v: [u for u in eplane.neighbors(v) if u in inside] for v in inside}
    return FlagComplex(adjacency, systolic=True, name=f"flat-disk-{radius}")


def parallelogram_disk(width: int, height: int) -> FlagComplex:
    """A lattice parallelogram, another standalone flat disk shape (systolic
    like the disk: its boundary links are paths)."""
    inside = {(a, b) for a in range(width + 1) for b in range(height + 1)}
    adjacency = {v: [u for u in eplane.neighbors(v) if u in inside] for v in inside}
    return FlagComplex(adjacency, systolic=True, name=f"parallelogram-{width}x{height}")


def flat_disk_samples() -> Tuple[FlagComplex, ...]:
    return (flat_disk(2), flat_disk(3), parallelogram_disk(4, 2))


# -- books of half-planes ------------------------------------------------------

BookVertex = Tuple[int, int, int]   # (a, b, page); page 0 marks the spine, b = 0


def book_neighbors(pages: int) -> Callable[[BookVertex], Tuple[BookVertex, ...]]:
    """Neighbor function of the book: `pages` half-planes share a spine line.

    Page p >= 1 is a copy of the upper half-plane {b >= 1}; the spine is the
    lattice line b = 0, adjacent inside every page.
    """
    if pages < 3:
        raise PreconditionViolated("a book needs at least 3 pages to exceed the plane")

    def neighbors(v: BookVertex) -> Tuple[BookVertex, ...]:
        a, b, page = v
        out = []
        if page == 0:
            out.extend(((a - 1, 0, 0), (a + 1, 0, 0)))
            for p in range(1, pages + 1):
                out.extend(((a, 1, p), (a - 1, 1, p)))
            return tuple(out)
        for da, db in eplane.OFFSETS:
            na, nb = a + da, b + db
            if nb >= 1:
                out.append((na, nb, page))
            elif nb == 0:
                out.append((na, 0, 0))
        return tuple(out)

    return neighbors


def book_window(pages: int, radius: int) -> FlagComplex:
    """Ball window of a book around a spine vertex.

    The book is systolic: it is simply connected, and the link of a spine
    vertex is a theta graph whose cycles all have length 6. The window is a
    ball, so it is convex (BFS distances are true) and systolic itself.
    """
    return complexes.materialize_window(
        (0, 0, 0), book_neighbors(pages), radius,
        convex=True, name=f"book-{pages}:r{radius}")


def book_flat_embedding(v: Axial) -> BookVertex:
    """The isometric embedding of the plane into any book.

    The upper half-plane lands on page 1 and the lower half-plane on
    page 2, reflected across the spine by the lattice reflection
    (a, b) -> (a + b, -b) that fixes the spine line pointwise.
    """
    a, b = v
    if b > 0:
        return (a, b, 1)
    if b == 0:
        return (a, 0, 0)
    return (a + b, -b, 2)


def book_samples(radius: int = 7) -> Tuple[FlagComplex, ...]:
    return (book_window(3, radius), book_window(4, radius), book_window(5, radius))


# -- the branching half-line tree ----------------------------------------------

TreeVertex = Tuple[str, int, int]   # ("h", i, 0) on the half-line, ("b", n, j) on branch n


def tree_with_branches(depth: int) -> FlagComplex:
    """Half-line 0..depth with an interval of length n attached at integer n.

    The canonical example of a systolic complex that is not almost
    extendable: every geodesic in a tree is good, yet reaching the tip of
    branch n from the origin forces a detour of size n. Trees are
    systolic: no cycles, so no short ones.
    """
    if depth < 2:
        raise PreconditionViolated("need depth >= 2")
    adjacency: Dict[TreeVertex, list] = {}

    def link(u, v):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)

    for i in range(depth):
        link(("h", i, 0), ("h", i + 1, 0))
    for n in range(1, depth + 1):
        prev = ("h", n, 0)
        for j in range(1, n + 1):
            link(prev, ("b", n, j))
            prev = ("b", n, j)
    return FlagComplex(adjacency, systolic=True, name=f"tree-T:{depth}")


def half_line_vertex(i: int) -> TreeVertex:
    return ("h", i, 0)


def branch_tip(n: int) -> TreeVertex:
    return ("b", n, n)


# The samples a scenario file can name (`kind = sample`, `ambient = ...`);
# each builder looks its function up when called, so a wrapper installed
# on the module attribute sees the call.
BY_NAME: Dict[str, Callable[[], FlagComplex]] = {
    "octahedron": lambda: octahedron(),
    "triangle": lambda: single_triangle(),
    "flat-disk-2": lambda: flat_disk(2),
    "flat-disk-3": lambda: flat_disk(3),
    "parallelogram": lambda: parallelogram_disk(4, 2),
    "book-3": lambda: book_window(3, 7),
    "book-4": lambda: book_window(4, 7),
    "book-5": lambda: book_window(5, 7),
}
