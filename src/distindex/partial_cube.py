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

The verifier is exact, builds no distance matrix, compares no pair of
edges and counts no pairs.  X is the set of even BFS layers from vertex
0 and Y the odd ones; for r >= 1 a ball B_{r+1}(w) is the union of w's
neighbours' balls B_r, all in the other class, so the balls of X at even
radii and of Y at odd radii form a closed chain that grows one colour
class a round, m - |class| ORs (`_cut_labels`).  XOR-ing x's even-radius
balls into E_x and y's odd-radius ones into O_y makes E_x ^ O_y one side
of edge xy's cut: when the sweep stops at the first round R whose balls
are all whole, bit w is (R + 1) mod 2 when w is closer to x and R mod 2
otherwise.  The sources are swept in blocks, and a block that stops on
an odd round XORs the whole block into X's labels, so every block gives
the side of x.  Edges with equal cuts form one group.  A connected
bipartite graph is a partial cube exactly when the relation is
transitive (Winkler 1984), that is when no edge crosses the cut of a
group other than its own; the groups are then the classes, and each edge
changes only its own class's coordinate.

The embedding is certified isometric in O(m): for every vertex u, the
sides holding u of the classes of u's edges must meet in {u} alone.
Hamming distance is at most graph distance, since each edge changes
one coordinate; and at least, by induction, since every v != u lies
off u's side of the class of some edge uw, and w is then one
coordinate nearer to v.

Both sides of a class are kept as vertex bitmasks (bit v set when v lies
on that side), so side sizes and degree-restricted counts are popcounts.
"""

from __future__ import annotations

from operator import or_, xor
from typing import NamedTuple

from .errors import (
    ClassRemovalError,
    DisconnectedError,
    NotBipartiteError,
    NotPartialCubeError,
)
from . import indices
from .graphs import UNREACHABLE, Graph, bfs_distances


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


def _arcs(
    cls: list[int], adj: list[list[int]], pos: list[int]
) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The arcs one round of `_cut_labels` ORs for the vertices of one
    colour class, in class positions: each vertex's first neighbour, and
    the other arcs as `indices._steps`."""
    lead = [pos[adj[v][0]] for v in cls]
    return lead, indices._steps([e for i, v in enumerate(cls) for u in adj[v][1:] for e in (i, pos[u])])


def _cut_labels(g: Graph, dist: list[int]) -> list[int]:
    """One label per vertex such that, for every edge xy with x at even
    distance from vertex 0, bit w of label[x] ^ label[y] is set exactly
    when w is closer to x than to y.  g must be connected and bipartite,
    and dist its BFS row from vertex 0.

    The colour-class chain of the module docstring, over blocks of
    sources: X's balls at even radii and Y's at odd ones, one class a
    round (round 1 also ORs in Y's own singletons), each XOR-ed into
    that vertex's label.  A block stops at the first round R whose
    balls are all whole, when no source is more than R + 1 from any
    vertex; counting the radii at which w enters each ball, bit w of
    the label XOR is then (R + 1) mod 2 when w is closer to x, so after
    an odd R the whole block is XOR-ed into X's labels.
    """
    n, adj = g.n, g.adj
    labels = [0] * n
    if g.m == 0:
        return labels
    xs = [v for v in range(n) if not dist[v] & 1]
    ys = [v for v in range(n) if dist[v] & 1]
    pos = [0] * n
    for cls in (xs, ys):
        for i, v in enumerate(cls):
            pos[v] = i
    lead_x, steps_x = _arcs(xs, adj, pos)
    lead_y, steps_y = _arcs(ys, adj, pos)
    block = max(1, indices._SWEEP_BITS // n)
    for first in range(0, n, block):
        size = min(block, n - first)
        whole = (1 << size) - 1
        own_x = [1 << v - first if 0 <= v - first < size else 0 for v in xs]
        own_y = [1 << v - first if 0 <= v - first < size else 0 for v in ys]
        bx, by, ex, oy = own_x, own_y, own_x, [0] * len(ys)
        r, balls = 0, own_x
        while not all(map(whole.__eq__, balls)):
            r += 1
            if r & 1:
                src, lead, steps = bx, lead_y, steps_y
            else:
                src, lead, steps = by, lead_x, steps_x
            balls = list(map(src.__getitem__, lead))
            if r == 1:
                balls = list(map(or_, balls, own_y))
            for a, b, c, d in steps:
                balls[a] |= src[b]
                balls[c] |= src[d]
            if r & 1:
                by, oy = balls, list(map(xor, oy, balls))
            else:
                bx, ex = balls, list(map(xor, ex, balls))
        if r & 1:
            ex = [e ^ whole for e in ex]
        del bx, by, balls
        for cls, acc in ((xs, ex), (ys, oy)):
            for v, a in zip(cls, acc):
                labels[v] = labels[v] | a << first if first else a
    return labels


def _partition(g: Graph) -> tuple[ThetaPartition, list[int]]:
    """The edge-class partition of theta_classes and each vertex's
    coordinate bitset (bit i set on side1 of class i)."""
    n = g.n
    dist = bfs_distances(g, 0) if n else []
    if UNREACHABLE in dist:
        raise DisconnectedError("edge classes need a connected graph")
    # an edge of a connected graph joins equal or adjacent BFS layers,
    # and an edge inside one layer closes an odd cycle
    if any(dist[u] in map(dist.__getitem__, nbrs) for u, nbrs in enumerate(g.adj)):
        raise NotBipartiteError("edge classes need a bipartite graph")
    label = _cut_labels(g, dist)
    # the edge list is built only now, after the sweep's arcs are freed.
    # Edge uv is related to xy iff it crosses xy's cut, so the edges of
    # one cut are related, and the edges of two cuts are related iff the
    # first edge of one crosses the other's cut.  A group is keyed by the
    # side of its cut that holds vertex 0.
    edges = g.edges()
    full = (1 << n) - 1
    groups: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(edges):
        cut = label[x] ^ label[y]
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
    return part, [ones ^ row for row in side]


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
    not_isometric is the certificate's guard, which a connected
    bipartite graph whose relation is transitive never reaches
    (Winkler 1984).
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
    structured reason instead of an exception.  The O(m) certificate
    (`_isometric`) decides isometry; only a failure walks the BFS rows
    to name the first pair.
    """
    try:
        part, masks = _partition(g)
    except DisconnectedError as exc:
        return CubeVerdict(False, "disconnected", str(exc), None, None)
    except NotBipartiteError as exc:
        return CubeVerdict(False, "not_bipartite", str(exc), None, None)
    except ClassRemovalError as exc:
        return CubeVerdict(
            False, "class_removal_not_two_components", str(exc), None, None
        )
    if not _isometric(part, masks):
        return CubeVerdict(False, "not_isometric", _first_mismatch(g, masks), None, part)
    coords = CubeCoordinates(length=part.class_count, masks=tuple(masks))
    return CubeVerdict(True, None, None, coords, part)


def _isometric(part: ThetaPartition, masks: list[int]) -> bool:
    """Whether the coordinates embed the graph isometrically: the O(m)
    certificate of the module docstring.  It needs every edge of class c
    to change coordinate c alone, as the transitivity check of
    `_partition` ensures; each end's side is read from its own
    coordinate bit."""
    n = part.n
    hold = [(1 << n) - 1] * n
    for c, (members, lo, hi) in enumerate(zip(part.classes, part.side0, part.side1)):
        for x, y in members:
            hold[x] &= hi if masks[x] >> c & 1 else lo
            hold[y] &= hi if masks[y] >> c & 1 else lo
    return all(h == 1 << u for u, h in enumerate(hold))


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
    raise RuntimeError("the isometry certificate failed but no pair's distances differ")


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

