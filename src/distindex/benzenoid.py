"""Coronene-type hexagonal systems and their cut decomposition.

The circumcoronene with k rings per side is built on a pointy-top
hexagonal lattice.  Vertex positions use doubled integer coordinates
(X, Y): the planar position is (X * sqrt(3)/2, Y / 2), which keeps all
arithmetic exact.  A hexagon centered at axial cell (q, r) has center
(2q + r, 3r) and its six corners at the fixed offsets below.

The edge classes of such a system are straight cuts in one of three
directions.  The horizontal cuts (the classes of vertical edges) have
a closed-form side profile which horizontal_cut_profile recomputes from
the actual classes and cross-checks.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, check_order, from_edge_list
from .partial_cube import ThetaPartition

#: Corner offsets of a hexagon in doubled coordinates, in cyclic order.
_CORNERS = ((1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1))


class HexSystem(NamedTuple):
    """A benzenoid graph together with its lattice embedding."""

    k: int
    graph: Graph
    coords: tuple[tuple[int, int], ...]


def gen_coronene(k: int) -> HexSystem:
    """Circumcoronene with k rings per side: k=1 is benzene (a single
    hexagon), k=2 is coronene, and so on.  The result has 6k^2 vertices
    of which 6k have degree 2."""
    if k < 1:
        raise ValueError("coronene needs k >= 1")
    check_order(6 * k * k)
    cells = [
        (q, r)
        for q in range(-(k - 1), k)
        for r in range(-(k - 1), k)
        if max(abs(q), abs(r), abs(q + r)) <= k - 1
    ]
    verts: set[tuple[int, int]] = set()
    edge_set: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for q, r in cells:
        cx, cy = 2 * q + r, 3 * r
        ring = [(cx + dx, cy + dy) for dx, dy in _CORNERS]
        verts.update(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edge_set.add((a, b) if a < b else (b, a))
    coords = sorted(verts)
    index = {c: i for i, c in enumerate(coords)}
    g = from_edge_list(len(coords), sorted((index[a], index[b]) for a, b in edge_set))

    if g.n != 6 * k * k:
        raise RuntimeError(f"expected {6 * k * k} vertices, built {g.n}")
    deg2 = sum(1 for d in g.degrees() if d == 2)
    if deg2 != 6 * k or g.m != 9 * k * k - 3 * k:
        raise RuntimeError("lattice construction produced a wrong degree profile")
    return HexSystem(k=k, graph=g, coords=tuple(coords))


def edge_direction(h: HexSystem, u: int, v: int) -> tuple[int, int]:
    """Direction of an edge in doubled coordinates, normalized so the
    first nonzero component is positive; one of (0, 2), (1, 1), (1, -1)."""
    dx = h.coords[u][0] - h.coords[v][0]
    dy = h.coords[u][1] - h.coords[v][1]
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def orientation_groups(
    h: HexSystem, partition: ThetaPartition
) -> dict[tuple[int, int], list[int]]:
    """Class indices grouped by edge direction.  Every class must be
    direction-pure; mixed classes indicate a broken construction."""
    groups: dict[tuple[int, int], list[int]] = {}
    for ci, cls in enumerate(partition.classes):
        dirs = {edge_direction(h, u, v) for u, v in cls}
        if len(dirs) != 1:
            raise RuntimeError(f"class {ci} mixes directions {sorted(dirs)}")
        groups.setdefault(dirs.pop(), []).append(ci)
    return groups


def horizontal_cut_profile(h: HexSystem, part: ThetaPartition) -> list[tuple[int, int]]:
    """Side profile of the top k horizontal cuts.

    Entry i-1 describes the i-th cut from the top: how many vertices
    lie above it and how many of those have degree 2.  The counts are
    recomputed from part, the edge classes of h.graph as theta_classes
    returns them, and must match the closed forms i(2k + i) and k + 2i;
    a mismatch raises RuntimeError.
    """
    k = h.k
    groups = orientation_groups(h, part)
    vertical = groups.get((0, 2), [])
    if len(vertical) != 2 * k - 1:
        raise RuntimeError(
            f"expected {2 * k - 1} horizontal cuts, found {len(vertical)}"
        )

    def band_top(ci: int) -> int:
        tops = {max(h.coords[u][1], h.coords[v][1]) for u, v in part.classes[ci]}
        if len(tops) != 1:
            raise RuntimeError(f"cut {ci} spans several lattice rows")
        return tops.pop()

    cuts = sorted(vertical, key=band_top, reverse=True)
    top_vertex = max(range(h.graph.n), key=lambda v: (h.coords[v][1], h.coords[v][0]))
    degree2 = sum(1 << v for v, d in enumerate(h.graph.degrees()) if d == 2)
    profile = []
    for i in range(1, k + 1):
        ci = cuts[i - 1]
        side = part.side1[ci] if part.side1[ci] >> top_vertex & 1 else part.side0[ci]
        total = side.bit_count()
        deg2 = (side & degree2).bit_count()
        if total != i * (2 * k + i) or deg2 != k + 2 * i:
            raise RuntimeError(
                f"cut {i}: profile ({total}, {deg2}) does not match "
                f"({i * (2 * k + i)}, {k + 2 * i})"
            )
        profile.append((total, deg2))
    return profile


def coronene_tw3(k: int) -> int:
    """Distance sum over degree-3 vertex pairs of the k-ring coronene:
    (k-1) k (2k-1) (82k^2 - 82k - 19) / 5."""
    if k < 1:
        raise ValueError("coronene needs k >= 1")
    value, rem = divmod((k - 1) * k * (2 * k - 1) * (82 * k * k - 82 * k - 19), 5)
    if rem:
        raise RuntimeError("closed form must be an integer")
    return value
