"""Edge classes, partial-cube verification and the cut-based route to
degree-restricted distance sums.

Two edges xy and uv are related when d(x,u) + d(y,v) differs from
d(x,v) + d(y,u).  In a bipartite graph that happens exactly when uv
has one end on each side of the cut W_xy | W_yx, where W_xy is the set
of vertices closer to x than to y.  The transitive closure of the
relation partitions the edge set; in a partial cube removing any class
splits the graph into two complementary halfspaces, and recording for
each vertex which side of every class it lies on embeds the graph
isometrically into a hypercube.

The verifier is exact, builds no distance matrix and compares no pair
of edges.  It runs the oracle's ball sweep (`indices._sweep`) from every
vertex; after the first round each ball is the union of its neighbours'
balls, 2m - n ORs a round.  The sweep also XORs each vertex's
odd-radius balls into a parity P_v = B_1(v) ^ B_3(v) ^ ....  In a
bipartite graph bit w of P_x ^ P_y is the parity of min(d(w, x), d(w, y))
for every edge xy: that is the edge's cut label, which with w's colour
tells which end w is closer to, so every edge gets one side of its cut
from one XOR, and the sweep's pair counts give the Wiener index.  Edges with equal cuts form one
group.  A connected bipartite graph is a partial cube exactly when the
relation is transitive (Winkler 1984), that is when no edge crosses the
cut of a group other than its own; the groups are then the classes.
The embedding is certified isometric by checking that the class side
products sum to the Wiener index.

Both sides of a class are kept as vertex bitmasks (bit v set when v lies
on that side), so side sizes and degree-restricted counts are popcounts.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ClassRemovalError,
    DisconnectedError,
    NotBipartiteError,
    NotPartialCubeError,
)
from .graphs import UNREACHABLE, Graph, bfs_distances
from .indices import _sweep


class ThetaPartition(NamedTuple):
    """Edge classes with the two vertex sides each class separates.

    Classes are ordered by their lexicographically first edge.  Each
    side is a vertex bitmask: bit v of side0[i] is set when v lies on
    the side of class i that holds vertex 0, and side1[i] is the rest.
    """

    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    side0: tuple[int, ...]
    side1: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _transpose(masks: list[int], n: int) -> list[int]:
    """Per-vertex bitsets: bit j of entry v is bit v of masks[j]."""
    if not masks:
        return [0] * n
    # row j of the flat string is masks[-1 - j], most significant bit first
    flat = "".join([format(mask, f"0{n}b") for mask in reversed(masks)])
    return [int(flat[c::n], 2) for c in range(n - 1, -1, -1)]


def _partition(g: Graph) -> tuple[ThetaPartition, list[int], int]:
    """The edge-class partition of theta_classes, each vertex's
    coordinate bitset (bit i set on side1 of class i) and the Wiener
    index the sweep measured on the way."""
    n = g.n
    dist = bfs_distances(g, 0) if n else []
    if UNREACHABLE in dist:
        raise DisconnectedError("edge classes need a connected graph")
    edges = g.edges()
    # an edge of a connected graph joins equal or adjacent BFS layers,
    # and an edge inside one layer closes an odd cycle
    if any(dist[u] == dist[v] for u, v in edges):
        raise NotBipartiteError("edge classes need a bipartite graph")

    # the parities need the bipartite graph checked above: bit w of
    # parity[x] ^ parity[y], edge xy's label, is the parity of
    # min(d(w, x), d(w, y))
    parity = [0] * n
    doubled, _ = _sweep(g, range(n), (), parity)
    wiener = sum(r * c for r, c in enumerate(doubled)) // 2
    # w is closer to x exactly when min(d(w, x), d(w, y)) has the parity
    # of d(w, x), that is of colour(w) + colour(x); so a label XOR the
    # colour-1 vertices is one side of the edge's cut.  Edge uv is
    # related to xy iff it crosses xy's cut, so the edges of one cut are
    # related, and the edges of two cuts are related iff the first edge
    # of one crosses the other's cut.  A group is keyed by the side of
    # its cut that holds vertex 0.
    odd = sum((d & 1) << v for v, d in enumerate(dist))
    full = (1 << n) - 1
    groups: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(edges):
        cut = parity[x] ^ parity[y] ^ odd
        groups.setdefault(cut if cut & 1 else full ^ cut, []).append(i)
    keys = list(groups)
    members = list(groups.values())
    # bit j of side[v]: v lies on the vertex-0 side of group j's cut
    side = _transpose(keys, n)
    for j, ids in enumerate(members):
        x, y = edges[ids[0]]
        other = (side[x] ^ side[y]) & ~(1 << j)
        if other:
            # xy is related to the first edge of the lowest such group,
            # so the relation is not transitive (Winkler 1984)
            u, v = edges[members[(other & -other).bit_length() - 1][0]]
            raise ClassRemovalError(
                f"edges ({x}, {y}) and ({u}, {v}) are related but cut the graph differently"
            )
    # Every group is a class: exactly the edges crossing its cut, whose
    # two sides are connected (geodesics to x stay inside W_xy).
    part = ThetaPartition(
        n=n,
        classes=tuple(tuple(edges[i] for i in ids) for ids in members),
        side0=tuple(keys),
        side1=tuple(full ^ key for key in keys),
    )
    ones = (1 << len(keys)) - 1
    return part, [ones ^ row for row in side], wiener


def theta_classes(g: Graph) -> ThetaPartition:
    """Partition the edges into relation classes and split the vertices
    along each class.

    Raises DisconnectedError or NotBipartiteError when the graph cannot
    carry the partition at all, and ClassRemovalError when the relation
    is not transitive, naming two related edges whose cuts differ: then
    some class fails to split the graph into two parts, and the graph is
    not a partial cube.
    """
    return _partition(g)[0]


class CubeCoordinates(NamedTuple):
    """Binary hypercube coordinates, one bit per edge class."""

    length: int
    masks: tuple[int, ...]

    def string(self, v: int) -> str:
        """Coordinate string of v; character i is the side of class i."""
        return "".join("1" if self.masks[v] >> i & 1 else "0" for i in range(self.length))

    def strings(self) -> list[str]:
        return [self.string(v) for v in range(len(self.masks))]

    def hamming(self, u: int, v: int) -> int:
        return (self.masks[u] ^ self.masks[v]).bit_count()


class CubeVerdict(NamedTuple):
    """Outcome of partial-cube verification.

    reason is None on acceptance, otherwise one of "disconnected",
    "not_bipartite", "class_removal_not_two_components" or
    "not_isometric"; detail carries the specific witness.  The class
    removal reason names two related edges with different cuts, and
    not_isometric is a guard that a connected bipartite graph whose
    relation is transitive never reaches (Winkler 1984).
    """

    accepted: bool
    reason: str | None
    detail: str | None
    coordinates: CubeCoordinates | None
    partition: ThetaPartition | None

    def __bool__(self) -> bool:
        return self.accepted


def is_partial_cube(g: Graph) -> CubeVerdict:
    """Verify the hypercube embedding exactly.

    Accepts when the class-side coordinates reproduce every pairwise
    distance as a Hamming distance; any failure is reported with a
    structured reason instead of an exception.  Each edge changes only
    its own class's coordinate, so no Hamming distance exceeds the
    graph distance, and comparing the two sums over all pairs decides
    isometry; only a failure walks the BFS rows to name the first pair.
    """
    try:
        part, masks, wiener = _partition(g)
    except DisconnectedError as exc:
        return CubeVerdict(False, "disconnected", str(exc), None, None)
    except NotBipartiteError as exc:
        return CubeVerdict(False, "not_bipartite", str(exc), None, None)
    except ClassRemovalError as exc:
        return CubeVerdict(
            False, "class_removal_not_two_components", str(exc), None, None
        )
    if sum(lo.bit_count() * hi.bit_count() for lo, hi in zip(part.side0, part.side1)) != wiener:
        return CubeVerdict(False, "not_isometric", _first_mismatch(g, masks), None, part)
    coords = CubeCoordinates(length=part.class_count, masks=tuple(masks))
    return CubeVerdict(True, None, None, coords, part)


def _first_mismatch(g: Graph, masks: list[int]) -> str:
    """The first pair (u, v), u < v, whose Hamming and graph distances
    differ."""
    for u in range(g.n):
        row = bfs_distances(g, u)
        mu = masks[u]
        for v in range(u + 1, g.n):
            hd = (mu ^ masks[v]).bit_count()
            if hd != row[v]:
                return f"pair ({u}, {v}): Hamming {hd} vs distance {row[v]}"
    raise RuntimeError("Hamming and distance sums differ but no pair does")


def halfspace_degree_counts(
    g: Graph, partition: ThetaPartition, k: int
) -> list[tuple[int, int]]:
    """Per class, how many degree-k vertices lie on each side."""
    if k < 0:
        raise ValueError("k must be >= 0")
    marks = sum(1 << v for v, d in enumerate(g.degrees()) if d == k)
    return [
        ((lo & marks).bit_count(), (hi & marks).bit_count())
        for lo, hi in zip(partition.side0, partition.side1)
    ]


def twk_cut(g: Graph, k: int, partition: ThetaPartition | None = None) -> int:
    """Distance sum over degree-k vertex pairs, summed class by class.

    Every shortest path crosses each class at most once, so the sum of
    side products over the classes equals the sum of pairwise distances.
    The graph must be a partial cube: a disconnected graph raises
    DisconnectedError, any other one NotPartialCubeError.  Pass a
    precomputed partition to skip re-verification when the caller
    already knows it is one.
    """
    if partition is None:
        verdict = is_partial_cube(g)
        if verdict.reason == "disconnected":
            raise DisconnectedError(verdict.detail)
        if not verdict.accepted:
            raise NotPartialCubeError(f"{verdict.reason}: {verdict.detail}")
        partition = verdict.partition
    return sum(c0 * c1 for c0, c1 in halfspace_degree_counts(g, partition, k))

