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
of edges.  One bit-parallel sweep holds every ball B_r(v) as an integer
bitset and grows all of them by big-int ORs of the neighbours' balls,
for diameter + 1 rounds (radius 0 up to the diameter).  Along the way
every edge collects one side of its cut and the ball sizes add up to
twice the Wiener index.  Edges with equal cuts form one group, groups
whose cuts cross are merged into classes, and the embedding is
isometric exactly when the class side products sum to the Wiener index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress

from .errors import (
    ClassRemovalError,
    DisconnectedError,
    NotBipartiteError,
    NotPartialCubeError,
)
from .graphs import Graph, bfs_distances, is_connected, two_coloring
from .tree_linear import RootedTree


@dataclass(frozen=True)
class ThetaPartition:
    """Edge classes with the two vertex sides each class separates.

    Classes are ordered by their lexicographically first edge; side0 of
    a class is the side containing the lowest-numbered vertex.
    """

    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    side0: tuple[frozenset[int], ...]
    side1: tuple[frozenset[int], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _cut_sweep(
    n: int, edges: list[tuple[int, int]], odd: int
) -> tuple[list[int], int]:
    """One side of every edge's cut, and the Wiener index, of a connected
    bipartite graph whose colour-1 vertices are the bits of odd.

    Ball r of v is the bitset B_r(v); B_{r+1}(v) is B_r(v) OR-ed with
    the balls of v's neighbours, and after R = diameter rounds every
    ball is full.  Edge (x, y) XORs B_r(x) | B_r(y) into its label in
    each round, so bit w of the label ends as the parity of R - a, where
    a = min(d(w, x), d(w, y)).  In a bipartite graph w is closer to x
    exactly when a has the parity of d(w, x), that is of colour(w) +
    colour(x); so label XOR odd is W_xy = {w : d(w, x) < d(w, y)} or its
    complement, one side of the cut either way.  A vertex w outside
    B_r(v) adds 1 to d(v, w) for each round r, so the missing bits sum
    to 2 * W(G).
    """
    balls = [1 << v for v in range(n)]
    labels = [0] * len(edges)
    missing_total = 0
    while True:
        missing = n * n - sum(map(int.bit_count, balls))
        if not missing:
            return [label ^ odd for label in labels], missing_total // 2
        missing_total += missing
        grown = balls[:]
        for i, (x, y) in enumerate(edges):
            bx = balls[x]
            by = balls[y]
            labels[i] ^= bx | by
            grown[x] |= by
            grown[y] |= bx
        balls = grown


#: Maps the digits of a binary string to bytes 0 and 1 for compress().
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _sides(mask: int, everyone: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The vertices in mask and the rest of everyone (= range(n))."""
    n = len(everyone)
    bits = format(mask, f"0{n}b")[::-1].encode().translate(_BIT_BYTES)
    inside = frozenset(compress(range(n), bits))
    return inside, everyone - inside


def _transpose(masks: list[int], n: int) -> list[int]:
    """Per-vertex bitsets: bit j of entry v is bit v of masks[j]."""
    if not masks:
        return [0] * n
    rows = [format(mask, f"0{n}b") for mask in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _components(rows: list[int]) -> list[list[int]]:
    """Connected components of the graph on 0..len(rows)-1 in which j is
    adjacent to the set bits of rows[j].  Components come in order of
    their lowest node, which each lists first."""
    comps = []
    unseen = (1 << len(rows)) - 1
    for j in range(len(rows)):
        if not unseen >> j & 1:
            continue
        found = []
        frontier = 1 << j
        unseen ^= frontier
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                found.append(low.bit_length() - 1)
                reach |= rows[found[-1]]
                frontier ^= low
            frontier = reach & unseen
            unseen ^= frontier
        comps.append(found)
    return comps


def _partition(g: Graph) -> tuple[ThetaPartition, list[int], int]:
    """The edge-class partition of theta_classes, each vertex's
    coordinate bitset (bit i set on side1 of class i) and the Wiener
    index the sweep measured on the way."""
    if not is_connected(g):
        raise DisconnectedError("edge classes need a connected graph")
    colour = two_coloring(g)
    if colour is None:
        raise NotBipartiteError("edge classes need a bipartite graph")

    n = g.n
    edges = g.edges()
    cuts, wiener = _cut_sweep(n, edges, sum(c << v for v, c in enumerate(colour)))
    # Edge uv is related to xy iff it crosses xy's cut, so the edges of
    # one cut are related and a group's relations follow from any edge.
    # A group is keyed by the side of its cut that holds vertex 0.
    full = (1 << n) - 1
    groups: dict[int, list[int]] = {}
    for i, cut in enumerate(cuts):
        groups.setdefault(cut if cut & 1 else full ^ cut, []).append(i)
    keys = list(groups)
    members = list(groups.values())
    # bit j of side[v]: v lies on the vertex-0 side of group j's cut;
    # the classes are the components of the relation between groups
    side = _transpose(keys, n)
    crosses = [side[edges[ids[0]][0]] ^ side[edges[ids[0]][1]] for ids in members]
    class_groups = _components(crosses)
    class_ids = [sorted(i for b in found for i in members[b]) for found in class_groups]
    class_of = [0] * len(edges)
    for ci, ids in enumerate(class_ids):
        for i in ids:
            class_of[i] = ci
    edge_id = {e: i for i, e in enumerate(edges)}

    classes = []
    side0 = []
    side1 = []
    coordinates = []
    everyone = frozenset(range(n))
    for ci, (found, ids) in enumerate(zip(class_groups, class_ids)):
        if len(found) == 1:
            # The class is exactly the edges crossing its cut, and each
            # side is connected (geodesics to x stay inside W_xy), so
            # removing it leaves these two components.
            lo, hi = _sides(keys[found[0]], everyone)
            coordinates.append(full ^ keys[found[0]])
        else:
            comp = _components_without_class(g, edge_id, class_of, ci)
            if len(comp) != 2:
                raise ClassRemovalError(
                    f"removing class {ci} leaves {len(comp)} components, expected 2"
                )
            a, b = comp
            lo, hi = (a, b) if 0 in a else (b, a)
            for i in ids:
                u, v = edges[i]
                if (u in lo) == (v in lo):
                    raise ClassRemovalError(
                        f"class {ci} edge ({u}, {v}) does not cross the split"
                    )
            lo, hi = frozenset(lo), frozenset(hi)
            coordinates.append(sum(1 << v for v in hi))
        classes.append(tuple(edges[i] for i in ids))
        side0.append(lo)
        side1.append(hi)
    part = ThetaPartition(
        n=n, classes=tuple(classes), side0=tuple(side0), side1=tuple(side1)
    )
    return part, _transpose(coordinates, n), wiener


def theta_classes(g: Graph) -> ThetaPartition:
    """Partition the edges into relation classes and split the vertices
    along each class.

    Raises DisconnectedError or NotBipartiteError when the graph cannot
    carry the partition at all, and ClassRemovalError when deleting a
    class fails to leave exactly two components (which already rules
    out a partial cube).
    """
    return _partition(g)[0]


def _components_without_class(
    g: Graph, edge_id: dict, class_of: list[int], ci: int
) -> list[set[int]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if seen[v]:
                    continue
                e = (u, v) if u < v else (v, u)
                if class_of[edge_id[e]] == ci:
                    continue
                seen[v] = True
                comp.add(v)
                queue.append(v)
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class CubeCoordinates:
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


@dataclass(frozen=True)
class CubeVerdict:
    """Outcome of partial-cube verification.

    reason is None on acceptance, otherwise one of "disconnected",
    "not_bipartite", "class_removal_not_two_components" or
    "not_isometric"; detail carries the specific witness.
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
    if sum(len(lo) * len(hi) for lo, hi in zip(part.side0, part.side1)) != wiener:
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
    marks = [g.degree(v) == k for v in range(g.n)]
    out = []
    for lo, hi in zip(partition.side0, partition.side1):
        out.append((sum(marks[v] for v in lo), sum(marks[v] for v in hi)))
    return out


def twk_cut(g: Graph, k: int, partition: ThetaPartition | None = None) -> int:
    """Distance sum over degree-k vertex pairs, summed class by class.

    Every shortest path crosses each class at most once, so the sum of
    side products over the classes equals the sum of pairwise distances.
    The graph must be a partial cube; pass a precomputed partition to
    skip re-verification when the caller already knows it is one.
    """
    if partition is None:
        verdict = is_partial_cube(g)
        if not verdict.accepted:
            raise NotPartialCubeError(f"{verdict.reason}: {verdict.detail}")
        partition = verdict.partition
    return sum(c0 * c1 for c0, c1 in halfspace_degree_counts(g, partition, k))


def twk_cut_tree(t: RootedTree, k: int) -> int:
    """twk_cut on a tree, which needs no verification.

    Every edge of a tree is a class of its own, and the edge from v to
    its parent separates v's subtree from the rest.  With c_v degree-k
    vertices in v's subtree and K in the whole tree, the sum is
    c_v * (K - c_v) over the non-root v, from one pass in reverse
    preorder.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    below = [int(len(nbrs) == k) for nbrs in t.graph.adj]
    everywhere = sum(below)
    parent = t.parent
    total = 0
    for v in t.order[:0:-1]:
        c = below[v]
        total += c * (everywhere - c)
        below[parent[v]] += c
    return total
